//! Shared experiment plumbing for regenerating the paper's tables and
//! figures.  The binaries in `src/bin/` print one table each; this
//! library holds the paper's reference numbers and the common pipeline
//! (fault list preparation, estimation, optimization, simulation).
//!
//! Run everything with `--release`; the fault-simulation tables are
//! bit-parallel but still simulate thousands of patterns against
//! thousands of faults.

#![forbid(unsafe_code)]

pub mod paper;

use wrt_circuit::Circuit;
use wrt_core::{optimize, OptimizeConfig, OptimizeResult, TestLength};
use wrt_estimate::{CopEngine, DetectionProbabilityEngine};
use wrt_fault::FaultList;
use wrt_sim::{fault_coverage, CoverageResult, WeightedPatterns};

/// The experiment fault list (collapsed checkpoints minus proven
/// redundancies) and the support bound of its redundancy proof.
pub use wrt_estimate::{experiment_faults, REDUNDANCY_SUPPORT_LIMIT};

/// One circuit's conventional-random-test analysis (Table 1 row):
/// detection probabilities at `X = 0.5`, undetectable estimates dropped,
/// then `NORMALIZE`.
pub fn conventional_test_length(circuit: &Circuit, faults: &FaultList, theta: f64) -> TestLength {
    let mut engine = CopEngine::new();
    let probs = engine.estimate(circuit, faults, &vec![0.5; circuit.num_inputs()]);
    let detectable: Vec<f64> = probs.into_iter().filter(|&p| p > 0.0).collect();
    wrt_core::required_test_length(&detectable, theta)
}

/// Runs the optimizer with the default experiment configuration.
pub fn optimize_circuit(circuit: &Circuit, faults: &FaultList) -> OptimizeResult {
    let mut engine = CopEngine::new();
    optimize(circuit, faults, &mut engine, &experiment_config())
}

/// The optimizer configuration used across all experiments
/// (99.9 % confidence, the paper's setup).
pub fn experiment_config() -> OptimizeConfig {
    OptimizeConfig::default()
}

/// `θ` for the experiment confidence target.
pub fn experiment_theta() -> f64 {
    experiment_config().theta()
}

/// Simulates `patterns` weighted random patterns and reports coverage
/// (Tables 2 and 4; `weights = [0.5, …]` gives the conventional test).
pub fn simulate_coverage(
    circuit: &Circuit,
    faults: &FaultList,
    weights: &[f64],
    patterns: u64,
    seed: u64,
) -> CoverageResult {
    let source = WeightedPatterns::new(weights.to_vec(), seed);
    fault_coverage(circuit, faults, source, patterns, true)
}

/// Formats a pattern count the way the paper prints Table 1
/// (e.g. `5.6*10^8`).
pub fn fmt_sci(n: f64) -> String {
    if !n.is_finite() {
        return "inf".to_string();
    }
    if n == 0.0 {
        return "0".to_string();
    }
    let exp = n.abs().log10().floor();
    let mantissa = n / 10f64.powf(exp);
    format!("{mantissa:.1}*10^{exp}")
}

/// Formats a coverage fraction as a percentage.
pub fn fmt_pct(c: f64) -> String {
    format!("{:.1} %", c * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_sci_matches_paper_style() {
        assert_eq!(fmt_sci(5.6e8), "5.6*10^8");
        assert_eq!(fmt_sci(2.5e3), "2.5*10^3");
        assert_eq!(fmt_sci(f64::INFINITY), "inf");
        assert_eq!(fmt_sci(0.0), "0");
    }

    #[test]
    fn experiment_faults_are_nonempty_for_s1() {
        let c = wrt_workloads::s1();
        let faults = experiment_faults(&c);
        assert!(faults.len() > 100, "got {}", faults.len());
    }

    #[test]
    fn conventional_length_of_s1_is_astronomical() {
        // The AEQB path forces ~2^-24 detection probabilities: the
        // conventional test length must land within an order of magnitude
        // or two of the paper's 5.6*10^8.
        let c = wrt_workloads::s1();
        let faults = experiment_faults(&c);
        let tl = conventional_test_length(&c, &faults, experiment_theta());
        let n = tl.patterns();
        assert!(n > 1e7, "N = {n}");
        assert!(n < 1e11, "N = {n}");
    }

    #[test]
    fn optimization_of_s1_reduces_length_by_orders_of_magnitude() {
        let c = wrt_workloads::s1();
        let faults = experiment_faults(&c);
        let result = optimize_circuit(&c, &faults);
        assert!(
            result.improvement_factor() > 100.0,
            "initial {} final {}",
            result.initial_length,
            result.final_length
        );
    }
}
