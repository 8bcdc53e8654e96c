//! The one place the benchmark calls into the library.
//!
//! Every public entry point the benchmark exercises is called from
//! exactly one function here, so a merge that renames or folds an entry
//! point (one fault-simulation entry point, one COP overlay) changes one line
//! of the benchmark.  Each function names its layer with the module it
//! belongs to.

use std::sync::Arc;

use wrt_atpg::{generate_tests_budgeted, AtpgConfig, AtpgReport};
use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};
use wrt_core::{optimize, quantize_weights, required_test_length, OptimizeConfig, TestLength};
use wrt_estimate::{
    constant_line_faults, CopBaseline, CopEngine, DetectionProbabilityEngine, EcoMutation,
    IncrementalCop, IncrementalStats,
};
use wrt_fault::FaultList;
use wrt_robust::{Budget, RunOutcome};
use wrt_serve::registry::CircuitEntry;
use wrt_serve::{ExecContext, Registry, ServerHandle};
use wrt_sim::{
    fault_coverage, fault_coverage_robust, CoverageResult, PatternSource, SimOptions, SimStats,
};

/// Support bound of the exact redundancy proof; the registry's value.
pub const REDUNDANCY_SUPPORT: usize = 14;

// ---- workloads (input generation) -------------------------------------

/// The twelve registry circuits (Table 1 analogues) in paper order.
pub fn registry_circuits() -> Vec<Circuit> {
    wrt_workloads::all_paper_circuits()
}

/// The seeded tiled netlist `tiled_<gates>_<seed>`.
pub fn tiled(gates: usize, seed: u64) -> Circuit {
    wrt_workloads::tiled(gates, seed)
}

// ---- circuit ------------------------------------------------------------

/// Renders a circuit as `.bench` text.
pub fn to_bench(circuit: &Circuit) -> String {
    wrt_circuit::to_bench(circuit)
}

/// Parses `.bench` text under `name`.
pub fn parse(text: &str, name: &str) -> Result<Circuit, String> {
    wrt_circuit::parse_bench_named(text, name).map_err(|e| format!("parsing {name}: {e}"))
}

/// Rebuilds `circuit` with the ECO mutations really applied, keeping node
/// ids, so a cold COP run of the result is an ECO answer's reference.
pub fn rebuild_mutated(circuit: &Circuit, mutations: &[EcoMutation]) -> Result<Circuit, String> {
    let mut b = CircuitBuilder::named(circuit.name());
    let mut map: Vec<NodeId> = Vec::with_capacity(circuit.num_nodes());
    for (id, node) in circuit.iter() {
        let kind = mutations
            .iter()
            .find(|m| m.gate == id)
            .map_or_else(|| node.kind(), |m| m.kind);
        let new_id = match kind {
            GateKind::Input => b.input(node.name()),
            GateKind::Const0 => b.const0(),
            GateKind::Const1 => b.const1(),
            k => {
                let fanin: Vec<NodeId> = node.fanin().iter().map(|&f| map[f.index()]).collect();
                b.gate(k, node.name(), &fanin).map_err(|e| e.to_string())?
            }
        };
        map.push(new_id);
    }
    for &o in circuit.outputs() {
        b.mark_output(map[o.index()]);
    }
    b.build().map_err(|e| e.to_string())
}

// ---- analyze ------------------------------------------------------------

/// Static testability report; returns its finding count.
pub fn analyze(circuit: &Circuit) -> usize {
    wrt_analyze::analyze(circuit).findings.len()
}

// ---- fault --------------------------------------------------------------

/// Collapsed checkpoint faults.
pub fn collapse(circuit: &Circuit) -> FaultList {
    FaultList::checkpoints(circuit).collapse_equivalent(circuit)
}

// ---- estimate -----------------------------------------------------------

/// Exact constant-line redundancy flags, one per fault.
pub fn redundancy(circuit: &Circuit, faults: &FaultList) -> Vec<bool> {
    constant_line_faults(circuit, faults, REDUNDANCY_SUPPORT)
}

/// COP detection probabilities at `weights`, through the shared baseline.
pub fn cop(circuit: &Arc<Circuit>, weights: &[f64], faults: &FaultList) -> Vec<f64> {
    CopBaseline::build(Arc::clone(circuit), weights).detection_probabilities(faults)
}

/// A cold, stateless COP run: the reference an ECO answer must equal.
pub fn cold_cop(circuit: &Circuit, faults: &FaultList, weights: &[f64]) -> Vec<f64> {
    CopEngine::new().estimate(circuit, faults, weights)
}

// ---- core ---------------------------------------------------------------

/// Required test length at confidence 0.999 (`None` if infinite).
pub fn test_length(dp: &[f64]) -> Option<f64> {
    match required_test_length(dp, 1.0 - 0.999) {
        TestLength::Patterns { n, .. } => Some(n),
        TestLength::Infinite => None,
    }
}

/// What one optimizer run reports.
pub struct Optimized {
    pub weights: Vec<f64>,
    pub final_length: f64,
    pub sweeps: usize,
    pub engine_calls: usize,
    pub engine: IncrementalStats,
}

/// The optimizer with the CLI's default engine: incremental COP at
/// commit batch 4, default configuration (confidence 0.999).
pub fn optimize_weights(circuit: &Circuit, faults: &FaultList) -> Optimized {
    let mut engine = IncrementalCop::new().with_commit_batch(4);
    let result = optimize(circuit, faults, &mut engine, &OptimizeConfig::default());
    Optimized {
        final_length: result.final_length,
        sweeps: result.sweeps.len(),
        engine_calls: result.engine_calls,
        engine: engine.stats(),
        weights: result.weights,
    }
}

/// Weights rounded to the hardware grid.
pub fn quantize(weights: &[f64], grid: f64) -> Vec<f64> {
    quantize_weights(weights, grid)
}

// ---- sim ----------------------------------------------------------------

/// The CLI's default simulate path (event engine, W = 4, fault dropping)
/// on `threads` worker threads, with no budget.
pub fn simulate(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    patterns: u64,
    threads: usize,
) -> Result<(CoverageResult, SimStats), String> {
    match fault_coverage_robust(
        circuit,
        faults,
        source,
        patterns,
        true,
        threads,
        SimOptions::event(4),
        &Budget::unlimited(),
    ) {
        RunOutcome::Complete(r) if r.recovery.is_clean() => Ok((r.result, r.stats)),
        RunOutcome::Complete(_) => Err("fault simulation needed shard recovery".into()),
        RunOutcome::Interrupted { reason, .. } => {
            Err(format!("unbudgeted simulation stopped: {reason}"))
        }
    }
}

/// The dense single-word reference engine: the independent check of a
/// top-off test set.
pub fn dense_coverage(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource,
    patterns: u64,
) -> CoverageResult {
    fault_coverage(circuit, faults, source, patterns, true)
}

// ---- atpg ---------------------------------------------------------------

/// PODEM top-off under `budget` (eval axis = PODEM calls).  Returns the
/// report and whether the budget tripped, an expected outcome.
pub fn topoff(
    circuit: &Circuit,
    faults: &FaultList,
    config: &AtpgConfig,
    budget: &Budget,
) -> Result<(AtpgReport, bool), String> {
    let run = generate_tests_budgeted(circuit, faults, config, budget, None)
        .map_err(|e| format!("top-off refused: {e}"))?;
    Ok(match run.outcome {
        RunOutcome::Complete(report) => (report, false),
        RunOutcome::Interrupted { partial, .. } => (partial, true),
    })
}

// ---- serve --------------------------------------------------------------

/// Starts a resident server on an ephemeral loopback port.
pub fn spawn_server(registry: &Arc<Registry>) -> Result<ServerHandle, String> {
    wrt_serve::spawn(Arc::clone(registry), "127.0.0.1:0", None)
}

/// One `wrt --remote` request: outer error = transport, inner = verb.
pub fn request(addr: &str, argv: &[String]) -> Result<Result<String, String>, String> {
    wrt_serve::client::request(addr, argv)
}

/// One verb executed in process.
pub fn execute(ctx: &ExecContext, argv: &[String]) -> Result<String, String> {
    wrt_serve::execute(ctx, argv)
}

/// A fresh per-connection execution context over `registry`.
pub fn context(registry: &Arc<Registry>) -> ExecContext {
    ExecContext::new(Arc::clone(registry))
}

/// Resolves a `<circuit>` argument through the registry.
pub fn resolve(registry: &Registry, arg: &str) -> Result<Arc<CircuitEntry>, String> {
    registry.resolve(arg)
}

/// The entry's experiment fault set (built on first use).
pub fn experiment_faults(entry: &CircuitEntry) -> Arc<FaultList> {
    Arc::clone(entry.experiment_faults())
}

/// The registry's shared COP baseline at `weights`.
pub fn baseline(registry: &Registry, entry: &CircuitEntry, weights: &[f64]) -> Arc<CopBaseline> {
    registry.baseline(entry, weights)
}

/// `(resolves, baseline hits, baseline misses)` of the registry.
pub fn registry_counters(registry: &Registry) -> (u64, u64, u64) {
    registry.counter_snapshot()
}

/// Circuits currently registered.
pub fn registry_size(registry: &Registry) -> usize {
    registry.circuits().len()
}
