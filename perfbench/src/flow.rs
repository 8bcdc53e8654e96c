//! The batch flows: the paper's optimized flow on the registry circuits
//! and the conventional-random flow on a 10k-gate tiled netlist.
//!
//! One pass takes every input from `.bench` text to a topped-off test
//! set.  Each call into a layer sits in its own span under the pass's
//! root span; the glue between calls is the root's self time.

use std::sync::Arc;
use std::time::Instant;

use wrt_atpg::{AtpgConfig, PatternSet};
use wrt_circuit::Circuit;
use wrt_fault::FaultList;
use wrt_robust::Budget;
use wrt_sim::{PatternBlock, PatternSource, WeightedPatterns};

use crate::layers;
use crate::stats::Digest;
use crate::trace::Tracer;

/// Span names of the layers a pass calls, with the metric prefix each
/// reports under.
pub const PASS_SPAN: &str = "pass";
pub const SPAN_PARSE: &str = "circuit.parse";
pub const SPAN_ANALYZE: &str = "analyze";
pub const SPAN_COLLAPSE: &str = "fault.collapse";
pub const SPAN_REDUNDANCY: &str = "estimate.redundancy";
pub const SPAN_COP: &str = "estimate.cop";
pub const SPAN_CORE: &str = "core";
pub const SPAN_SIM: &str = "sim";
pub const SPAN_ATPG: &str = "atpg";

/// One flow input: a circuit as `.bench` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowInput {
    pub name: String,
    pub text: String,
    pub gates: usize,
}

impl FlowInput {
    pub fn from_circuit(circuit: &Circuit) -> Self {
        FlowInput {
            name: circuit.name().to_string(),
            text: layers::to_bench(circuit),
            gates: circuit.num_gates(),
        }
    }
}

/// Base seed of the `large_flow` netlist.  The netlist is fixed: a new
/// tiled netlist per seed changes the pass cost up to twofold (other
/// tile mixes), more than any regression bound could absorb, so the
/// workload seed varies the random patterns and the fill instead.
pub const LARGE_NETLIST_SEED: u64 = 16;
pub const LARGE_NETLIST_GATES: usize = 10_000;

/// Which flow a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// The paper's flow on the twelve registry circuits.
    Paper,
    /// The conventional-random flow on one tiled netlist.
    Large,
}

/// Pattern seed of `paper_flow`: the CLI's `simulate` default.  Three of
/// thirteen other pattern seeds leave one s2 fault that PODEM aborts at
/// the 10 000-backtrack limit (+0.9 s, +30 % pass time), a spread across
/// seeds no bound could absorb; the seed varies the top-off's fill.
pub const PAPER_PATTERN_SEED: u64 = 42;

/// The workload's circuits, as `.bench` text.
pub fn flow_inputs(kind: FlowKind) -> Vec<FlowInput> {
    let circuits = match kind {
        FlowKind::Paper => layers::registry_circuits(),
        FlowKind::Large => vec![layers::tiled(LARGE_NETLIST_GATES, LARGE_NETLIST_SEED)],
    };
    circuits.iter().map(FlowInput::from_circuit).collect()
}

/// The flow settings of a workload at `seed`.
pub fn flow_config(kind: FlowKind, seed: u64) -> FlowConfig {
    let fill = AtpgConfig {
        random_fill_seed: Some(seed),
        ..AtpgConfig::default()
    };
    match kind {
        FlowKind::Paper => FlowConfig {
            optimize: true,
            patterns: 4096,
            sim_threads: 2,
            pattern_seed: PAPER_PATTERN_SEED,
            atpg: fill,
            podem_budget: None,
        },
        FlowKind::Large => FlowConfig {
            optimize: false,
            patterns: 8192,
            sim_threads: 2,
            pattern_seed: seed,
            atpg: AtpgConfig {
                backtrack_limit: 100,
                ..fill
            },
            podem_budget: Some(100),
        },
    }
}

/// What a flow does with its inputs.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Optimize input weights (the paper's flow) or keep them uniform
    /// (the conventional random test of Table 1).
    pub optimize: bool,
    pub patterns: u64,
    pub sim_threads: usize,
    pub pattern_seed: u64,
    pub atpg: AtpgConfig,
    /// PODEM-call budget of the top-off (the eval axis); `None` = none.
    pub podem_budget: Option<u64>,
}

/// Per-circuit results of one pass, plus what the output check needs.
pub struct CircuitRun {
    pub collapsed: usize,
    pub faults: usize,
    pub redundant: usize,
    /// Required test length at 0.999 of the weights the flow simulates
    /// (`None` = infinite).
    pub test_length: Option<f64>,
    pub random_detected: Vec<usize>,
    pub patterns_simulated: u64,
    pub sim_node_evals: u64,
    pub sweeps: usize,
    pub engine_calls: usize,
    pub cop_node_evals: u64,
    pub podem_calls: usize,
    pub backtracks: usize,
    pub aborted: usize,
    pub budget_tripped: bool,
    pub topoff_redundant: usize,
    pub topoff_detected: Vec<usize>,
    pub tests: PatternSet,
    circuit: Circuit,
    leftovers: FaultList,
}

pub struct PassResult {
    pub wall_s: f64,
    pub circuits: Vec<CircuitRun>,
}

impl PassResult {
    /// Digest over fault counts, test-length bits, detected sets and test
    /// counts: identical passes give identical digests.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for c in &self.circuits {
            d.add(c.faults as u64);
            d.add(c.test_length.map_or(u64::MAX, f64::to_bits));
            d.add(c.random_detected.len() as u64);
            for &k in &c.random_detected {
                d.add(k as u64);
            }
            d.add(c.topoff_detected.len() as u64);
            for &k in &c.topoff_detected {
                d.add(k as u64);
            }
            d.add(c.tests.len() as u64);
        }
        d.value()
    }

    pub fn faults(&self) -> usize {
        self.circuits.iter().map(|c| c.faults).sum()
    }

    /// Pooled share of experiment faults the random patterns detect.
    pub fn random_coverage(&self) -> f64 {
        let detected: usize = self.circuits.iter().map(|c| c.random_detected.len()).sum();
        detected as f64 / self.faults() as f64
    }

    /// Share of experiment faults detected or proven redundant after the
    /// top-off.
    pub fn final_coverage(&self) -> f64 {
        let done: usize = self
            .circuits
            .iter()
            .map(|c| c.random_detected.len() + c.topoff_detected.len() + c.topoff_redundant)
            .sum();
        done as f64 / self.faults() as f64
    }

    /// Mean log10 of the finite required test lengths (`None` if all
    /// are infinite).
    pub fn test_length_log10(&self) -> Option<f64> {
        let logs: Vec<f64> = self
            .circuits
            .iter()
            .filter_map(|c| c.test_length)
            .map(f64::log10)
            .collect();
        (!logs.is_empty()).then(|| logs.iter().sum::<f64>() / logs.len() as f64)
    }

    pub fn sum(&self, f: impl Fn(&CircuitRun) -> f64) -> f64 {
        self.circuits.iter().map(f).sum()
    }
}

fn subset(faults: &FaultList, keep: impl Fn(usize) -> bool) -> FaultList {
    faults
        .iter()
        .filter(|(id, _)| keep(id.index()))
        .map(|(_, f)| f)
        .collect()
}

/// Runs one complete flow pass over `inputs`.
pub fn run_pass(
    inputs: &[FlowInput],
    config: &FlowConfig,
    tracer: &Tracer,
    trace_id: u64,
) -> Result<PassResult, String> {
    let start = Instant::now();
    let root = tracer.span(PASS_SPAN, trace_id, None);
    let parent = root.id();
    let span = |name| tracer.span(name, trace_id, parent);
    let mut circuits = Vec::with_capacity(inputs.len());
    for input in inputs {
        let circuit = {
            let _s = span(SPAN_PARSE);
            Arc::new(layers::parse(&input.text, &input.name)?)
        };
        {
            let _s = span(SPAN_ANALYZE);
            layers::analyze(&circuit);
        }
        let collapsed = {
            let _s = span(SPAN_COLLAPSE);
            layers::collapse(&circuit)
        };
        let redundant = {
            let _s = span(SPAN_REDUNDANCY);
            layers::redundancy(&circuit, &collapsed)
        };
        let experiment = subset(&collapsed, |k| !redundant[k]);
        let uniform = vec![0.5; circuit.num_inputs()];
        let dp = {
            let _s = span(SPAN_COP);
            layers::cop(&circuit, &uniform, &experiment)
        };

        let (weights, test_length, optimized) = {
            let _s = span(SPAN_CORE);
            if config.optimize {
                let o = layers::optimize_weights(&circuit, &experiment);
                let weights = layers::quantize(&o.weights, 0.05);
                (
                    weights,
                    o.final_length.is_finite().then_some(o.final_length),
                    Some(o),
                )
            } else {
                (uniform, layers::test_length(&dp), None)
            }
        };

        let source = WeightedPatterns::new(weights, config.pattern_seed);
        let (coverage, sim_stats) = {
            let _s = span(SPAN_SIM);
            layers::simulate(
                &circuit,
                &experiment,
                source,
                config.patterns,
                config.sim_threads,
            )?
        };
        let detected_at = coverage.detected_at();
        let random_detected: Vec<usize> = (0..experiment.len())
            .filter(|&k| detected_at[k].is_some())
            .collect();
        let leftovers = subset(&experiment, |k| detected_at[k].is_none());

        let budget = config.podem_budget.map_or_else(Budget::unlimited, |calls| {
            Budget::unlimited().with_max_evals(calls)
        });
        let (report, budget_tripped) = {
            let _s = span(SPAN_ATPG);
            layers::topoff(&circuit, &leftovers, &config.atpg, &budget)?
        };

        circuits.push(CircuitRun {
            collapsed: collapsed.len(),
            faults: experiment.len(),
            redundant: redundant.iter().filter(|&&r| r).count(),
            test_length,
            random_detected,
            patterns_simulated: coverage.num_patterns(),
            sim_node_evals: sim_stats.node_evals,
            sweeps: optimized.as_ref().map_or(0, |o| o.sweeps),
            engine_calls: optimized.as_ref().map_or(0, |o| o.engine_calls),
            cop_node_evals: optimized.as_ref().map_or(0, |o| o.engine.node_evaluations),
            podem_calls: report.podem_calls,
            backtracks: report.backtracks,
            aborted: report.aborted.len(),
            budget_tripped,
            topoff_redundant: report.redundant.len(),
            topoff_detected: report.detected.iter().map(|id| id.index()).collect(),
            tests: report.tests,
            circuit: Arc::try_unwrap(circuit).map_err(|_| "circuit still shared after the pass")?,
            leftovers,
        });
    }
    drop(root);
    Ok(PassResult {
        wall_s: start.elapsed().as_secs_f64(),
        circuits,
    })
}

/// A top-off test set as a pattern source, for re-simulation.
struct TestSetSource<'a> {
    tests: &'a PatternSet,
    next: usize,
}

impl PatternSource for TestSetSource<'_> {
    fn next_block(&mut self, limit: u32) -> PatternBlock {
        let limit = limit.clamp(1, 64) as usize;
        let take = limit.min(self.tests.len() - self.next).max(1);
        let mut words = vec![0u64; self.tests.width()];
        for j in 0..take {
            let k = (self.next + j).min(self.tests.len() - 1);
            for (i, bit) in self.tests.pattern(k).enumerate() {
                words[i] |= u64::from(bit) << j;
            }
        }
        self.next += take;
        PatternBlock {
            words,
            len: take as u32,
        }
    }

    fn num_inputs(&self) -> usize {
        self.tests.width()
    }
}

/// Output check of one circuit's top-off: the dense reference engine,
/// run on the leftovers with the generated tests, must detect exactly
/// the faults the ATPG report lists as detected.
pub fn check_topoff(run: &CircuitRun) -> Result<(), String> {
    if run.tests.is_empty() {
        return if run.topoff_detected.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: top-off reports detections without tests",
                run.circuit.name()
            ))
        };
    }
    let source = TestSetSource {
        tests: &run.tests,
        next: 0,
    };
    let coverage =
        layers::dense_coverage(&run.circuit, &run.leftovers, source, run.tests.len() as u64);
    let resimulated: Vec<usize> = (0..run.leftovers.len())
        .filter(|&k| coverage.detected_at()[k].is_some())
        .collect();
    let mut reported = run.topoff_detected.clone();
    reported.sort_unstable();
    if resimulated == reported {
        Ok(())
    } else {
        Err(format!(
            "{}: dense re-simulation detects {} leftover faults, the top-off reports {}",
            run.circuit.name(),
            resimulated.len(),
            reported.len()
        ))
    }
}
