//! Machine-readable PPSFP benchmark: the serial dense reference (cone
//! walk) vs the fault-simulation driver's event-driven sparse propagation
//! over 256-pattern superblocks, plus the driver's 1- vs 2-thread wall
//! clock.
//!
//! Writes `BENCH_sim.json`.  The headline metric is
//! **machine-independent**: gate evaluations per detected fault, dense
//! vs event (`eval_reduction`).  It combines two effects — sparse
//! scheduling (only nodes the fault effect reaches are evaluated,
//! stopping when the frontier dies) and superblock amortization (one
//! `[u64; W]` evaluation covers `W` dense blocks' worth of patterns) —
//! so the artifact also records an event run at `W = 1`
//! (`sparsity_reduction`) to separate the two, the frontier die-out
//! rate, and a bit-identity check of all runs' coverage results.
//! Wall-clock fields depend on the host and are reported alongside,
//! with the host's `available_parallelism`.
//!
//! Circuits too large for the dense engine's per-cone storage report a
//! **derived** dense baseline instead of a measured one: a profiled
//! event run records how many 64-pattern blocks each fault stayed
//! excited and undetected, and the dense cost is exactly
//! `Σ excited_blocks(f) × (cone(f) − 1)` — the dense engine's own
//! accounting identity — with the wall-clock fields `null`.
//!
//! Run with `cargo run --release -p wrt-bench --bin bench_sim`.
//!
//! ```text
//! bench_sim [--patterns N] [--circuits a,b,...] [--out PATH] [--smoke]
//! ```
//!
//! Defaults: 2048 patterns, the
//! four large workload circuits plus the 11k-gate `tiled_10000_16` and
//! the 120k-gate `tiled_120000_7` scale circuits, `BENCH_sim.json` in
//! the current directory.  `--smoke` runs a scaled-down version for CI
//! (small circuits, few patterns).

use std::collections::HashMap;
use std::time::Instant;

use wrt_circuit::{transitive_fanout, Circuit};
use wrt_fault::FaultList;
use wrt_robust::Budget;
use wrt_sim::{
    available_threads, fault_coverage_robust, superblock_split, CoverageResult, EventSimulator,
    FaultSimulator, FaultWorklist, PatternSource, SimOptions, SimStats, SuperBlock,
    WeightedPatterns,
};

const SEED: u64 = 0xC0DE;

/// Above this node count the dense engine's per-cone storage (and its
/// wall-clock) is prohibitive; the dense baseline is derived instead.
const DENSE_DERIVE_NODES: usize = 20_000;

struct Row {
    circuit: String,
    inputs: usize,
    gates: usize,
    faults: usize,
    detected: usize,
    patterns: u64,
    block_words: usize,
    /// The serial dense reference; `None` when the dense baseline is
    /// derived, not measured.
    dense_seconds: Option<f64>,
    /// The event inner loop on one driver shard (`--threads 1`).
    event_seconds: f64,
    /// The same run on two driver shards (`--threads 2`).
    event_t2_seconds: f64,
    /// Measured or derived dense gate evals (see `dense_baseline`).
    dense_node_evals: u64,
    dense_baseline: &'static str,
    event_stats: SimStats,
    /// Event engine at `W = 1`: same block granularity as dense, so the
    /// eval ratio against it isolates the pure scheduling-sparsity win.
    event_w1_stats: SimStats,
    identical: bool,
}

impl Row {
    fn dense_evals_per_detected(&self) -> f64 {
        self.dense_node_evals as f64 / self.detected.max(1) as f64
    }

    fn event_evals_per_detected(&self) -> f64 {
        self.event_stats.node_evals as f64 / self.detected.max(1) as f64
    }

    /// The machine-independent 1D headline: dense ÷ event gate
    /// evaluations.  Combines scheduling sparsity with superblock
    /// amortization; see [`Row::sparsity_reduction`] for the sparsity
    /// share alone.
    fn eval_reduction(&self) -> f64 {
        self.dense_node_evals as f64 / self.event_stats.node_evals.max(1) as f64
    }

    /// Dense ÷ event-at-`W = 1` gate evaluations: both engines work in
    /// 64-pattern blocks here, so this is the pure event-scheduling win
    /// (nodes the fault effect never reaches are never evaluated).
    fn sparsity_reduction(&self) -> f64 {
        self.dense_node_evals as f64 / self.event_w1_stats.node_evals.max(1) as f64
    }

    /// Scheduled (event, at the benchmarked `W`) vs cone (dense, `W = 1`)
    /// node evaluations — the inverse of `eval_reduction`.  Note the two
    /// sides run at different block granularities, so this folds the
    /// 1/`W` pass-count amortization into the per-cone reach; the
    /// equal-granularity reach fraction is `1 / sparsity_reduction`.
    fn scheduled_vs_cone_ratio(&self) -> f64 {
        self.event_stats.node_evals as f64 / self.dense_node_evals.max(1) as f64
    }

    fn to_json(&self) -> String {
        let (dense_seconds, wall_speedup) = match self.dense_seconds {
            Some(s) => (format!("{s:.6}"), format!("{:.3}", s / self.event_seconds)),
            None => ("null".into(), "null".into()),
        };
        format!(
            "    {{\n      \"circuit\": \"{}\",\n      \"inputs\": {},\n      \"gates\": {},\n      \"faults\": {},\n      \"detected_faults\": {},\n      \"patterns\": {},\n      \"block_words\": {},\n      \"dense_baseline\": \"{}\",\n      \"dense_seconds\": {},\n      \"event_seconds\": {:.6},\n      \"wall_speedup\": {},\n      \"dense_node_evals\": {},\n      \"event_node_evals\": {},\n      \"event_w1_node_evals\": {},\n      \"dense_evals_per_detected\": {:.1},\n      \"event_evals_per_detected\": {:.1},\n      \"eval_reduction\": {:.3},\n      \"sparsity_reduction\": {:.3},\n      \"scheduled_vs_cone_ratio\": {:.4},\n      \"frontier_dieout_rate\": {:.4},\n      \"unexcited_rate\": {:.4},\n      \"event_t2_seconds\": {:.6},\n      \"t2_speedup\": {:.3},\n      \"bit_identical\": {}\n    }}",
            self.circuit,
            self.inputs,
            self.gates,
            self.faults,
            self.detected,
            self.patterns,
            self.block_words,
            self.dense_baseline,
            dense_seconds,
            self.event_seconds,
            wall_speedup,
            self.dense_node_evals,
            self.event_stats.node_evals,
            self.event_w1_stats.node_evals,
            self.dense_evals_per_detected(),
            self.event_evals_per_detected(),
            self.eval_reduction(),
            self.sparsity_reduction(),
            self.scheduled_vs_cone_ratio(),
            self.event_stats.frontier_dieout_rate(),
            self.event_stats.unexcited as f64 / self.event_stats.fault_blocks.max(1) as f64,
            self.event_t2_seconds,
            self.event_seconds / self.event_t2_seconds,
            self.identical,
        )
    }
}

/// Best-of-`reps` wall-clock seconds for `f` after one warm-up run;
/// with `reps == 0` the warm-up itself is the (single) timed run.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut result = f(); // warm-up
    let mut best = start.elapsed().as_secs_f64();
    for i in 0..reps {
        let start = Instant::now();
        result = f();
        let secs = start.elapsed().as_secs_f64();
        best = if i == 0 { secs } else { best.min(secs) };
    }
    (best, result)
}

/// Derives the dense engine's exact `node_evals` without running (or even
/// constructing) it: a profiled event run with fault dropping records how
/// many 64-pattern blocks each fault stayed excited (clipped at its
/// detecting block, matching dense dropping), and the dense engine pays
/// exactly `cone(f) − 1` evals per excited block.  Cone sizes come from
/// one fanout traversal per *distinct* effect root — no per-fault cone
/// storage.
fn derived_dense_node_evals(circuit: &Circuit, faults: &FaultList, patterns: u64) -> u64 {
    let mut sim = EventSimulator::<4>::new(circuit, faults);
    sim.enable_eval_profile();
    let mut worklist = FaultWorklist::full(faults.len());
    let mut source = WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let mut sb = SuperBlock::<4>::empty(circuit.num_inputs());
    let mut remaining = patterns;
    let mut blocks = Vec::new();
    while remaining > 0 {
        let block = source.next_block(remaining.min(64) as u32);
        remaining -= u64::from(block.len);
        blocks.push(block);
    }
    let mut b = 0;
    while b < blocks.len() && !worklist.is_empty() {
        let take = superblock_split(&blocks[b..], 4);
        sb.refill_from_blocks(&blocks[b..b + take]);
        sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, true, |_, _| {});
        b += take;
    }
    let profile = sim.take_eval_profile().expect("profile enabled");
    let mut cone_len: HashMap<u32, u64> = HashMap::new();
    faults
        .iter()
        .map(|(_, f)| f.site.effect_root())
        .zip(&profile.excited_blocks)
        .map(|(root, &excited)| {
            let len = *cone_len
                .entry(root.index() as u32)
                .or_insert_with(|| transitive_fanout(circuit, &[root]).len() as u64);
            excited * (len - 1)
        })
        .sum()
}

/// The serial dense reference over the driver's block stream, with fault
/// dropping: the dense baseline's coverage and work counters.
fn dense_reference(
    circuit: &Circuit,
    faults: &FaultList,
    patterns: u64,
) -> (CoverageResult, SimStats) {
    let mut sim = FaultSimulator::new(circuit, faults);
    let mut worklist = FaultWorklist::full(faults.len());
    let mut detected_at = vec![None; faults.len()];
    let mut source = WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let mut done = 0;
    while done < patterns && !worklist.is_empty() {
        let block = source.next_block((patterns - done).min(64) as u32);
        sim.detect_block_worklist(&block.words, block.mask(), &mut worklist, true, |i, w| {
            detected_at[i] = Some(done + u64::from(w.trailing_zeros()));
        });
        done += u64::from(block.len);
    }
    (CoverageResult::new(detected_at, patterns), sim.stats())
}

/// One unbudgeted, fault-dropping run of the fault-simulation driver.
fn driver(
    circuit: &Circuit,
    faults: &FaultList,
    patterns: u64,
    threads: usize,
    opts: SimOptions,
) -> (CoverageResult, SimStats) {
    let source = WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let outcome = fault_coverage_robust(
        circuit,
        faults,
        source,
        patterns,
        true,
        threads,
        opts,
        &Budget::unlimited(),
    );
    assert!(outcome.is_complete(), "an unlimited run completes");
    let run = outcome.into_value();
    assert!(run.recovery.is_clean(), "no worker failed");
    (run.result, run.stats)
}

fn bench_circuit(circuit: &Circuit, patterns: u64) -> Row {
    let faults = FaultList::checkpoints(circuit).collapse_equivalent(circuit);
    let event_opts = SimOptions::default();
    let derive_dense = circuit.num_nodes() > DENSE_DERIVE_NODES;
    // Big derived-baseline rows (the 10^5-gate scale circuit) get one
    // timed run per engine instead of warm-up + best-of-2: their
    // single-run wall clock is minutes, their eval counts (the numbers
    // that matter) are deterministic either way, and best-of-N would
    // triple an already-long artifact regeneration.
    let reps = if derive_dense { 0 } else { 2 };
    let (event_seconds, (event, event_stats)) =
        time_best(reps, || driver(circuit, &faults, patterns, 1, event_opts));
    let (dense_seconds, dense_node_evals, dense_identical) = if derive_dense {
        (
            None,
            derived_dense_node_evals(circuit, &faults, patterns),
            true,
        )
    } else {
        let (secs, (dense, dense_stats)) =
            time_best(2, || dense_reference(circuit, &faults, patterns));
        (
            Some(secs),
            dense_stats.node_evals,
            dense.detected_at() == event.detected_at(),
        )
    };
    // One untimed event pass at W = 1: same block granularity as dense,
    // isolating the scheduling-sparsity share of the eval reduction.
    let (event_w1, event_w1_stats) =
        driver(circuit, &faults, patterns, 1, SimOptions::event(1));
    // The same event run fanned out over two fault shards: identical
    // coverage and work, only the wall clock may differ.
    let (event_t2_seconds, (event_t2, event_t2_stats)) =
        time_best(reps, || driver(circuit, &faults, patterns, 2, event_opts));
    Row {
        circuit: circuit.name().to_string(),
        inputs: circuit.num_inputs(),
        gates: circuit.num_gates(),
        faults: faults.len(),
        detected: event.num_detected(),
        patterns,
        block_words: event_opts.block_words,
        dense_seconds,
        event_seconds,
        event_t2_seconds,
        dense_node_evals,
        dense_baseline: if derive_dense { "derived" } else { "measured" },
        event_stats,
        event_w1_stats,
        identical: dense_identical
            && event.detected_at() == event_w1.detected_at()
            && event.detected_at() == event_t2.detected_at()
            && event_stats.node_evals == event_t2_stats.node_evals,
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let patterns: u64 = flag(&args, "--patterns")
        .map(|v| v.parse().expect("--patterns N"))
        .unwrap_or(if smoke { 512 } else { 2048 });
    let block_words = SimOptions::default().block_words;
    let out = flag(&args, "--out").unwrap_or("BENCH_sim.json").to_string();
    let circuits: Vec<String> = flag(&args, "--circuits")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            if smoke {
                vec!["s1".into(), "c880ish".into()]
            } else {
                vec![
                    "c2670ish".into(),
                    "c5315ish".into(),
                    "c6288ish".into(),
                    "c7552ish".into(),
                    "tiled_10000_16".into(),
                    "tiled_120000_7".into(),
                ]
            }
        });

    println!(
        "PPSFP dense reference vs the driver ({patterns} patterns, W = {block_words}, \
         1 vs 2 threads, {} cores available)",
        available_threads()
    );
    let mut rows = Vec::new();
    for name in &circuits {
        let circuit = wrt_workloads::by_name(name)
            .unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let row = bench_circuit(&circuit, patterns);
        println!(
            "  {:<14} {:>6} faults  evals/detected: dense {:>9.1}{} event {:>8.1} \
             ({:.2}x fewer; {:.2}x from sparsity)  1 vs 2 threads {:.4}s / {:.4}s  identical {}",
            row.circuit,
            row.faults,
            row.dense_evals_per_detected(),
            if row.dense_seconds.is_none() { "*" } else { " " },
            row.event_evals_per_detected(),
            row.eval_reduction(),
            row.sparsity_reduction(),
            row.event_seconds,
            row.event_t2_seconds,
            row.identical,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"ppsfp_dense_vs_event\",\n  \"note\": \"eval_reduction is the machine-independent 1D headline: gate evaluations per detected fault, dense cone walk (64-pattern blocks) vs event-driven propagation at block_words-word superblocks, over the identical pattern stream. It combines two effects: scheduling sparsity (only nodes the fault effect reaches are evaluated, stopping when the frontier drains - frontier_dieout_rate of excited passes died before a PO) and superblock amortization (one [u64; W] evaluation covers W dense blocks; each event eval does W words of lane work). sparsity_reduction (dense vs event at W = 1, equal granularity) isolates the sparsity share; scheduled_vs_cone_ratio = event/dense evals at the benchmarked W folds both effects. The dense baseline is the serial dense reference (a FaultSimulator over the same block stream, with fault dropping; no option selects it as the driver's inner loop). Every event run goes through the one fault-simulation driver (fault_coverage_robust, unlimited budget): event rows on one fault shard, event_t2_seconds the same event run on two shards, t2_speedup = event_seconds / event_t2_seconds, to be read against available_parallelism (the host's core count). dense_baseline is `measured`, or `derived` on circuits too large for the dense engine, where dense_node_evals = sum over faults of excited_undetected_blocks x (cone size - 1) - the dense engine's own accounting identity, computed from a profiled event run - and dense wall-clock fields are null. bit_identical asserts dense (when measured), event-W1, event and two-shard event coverage agree exactly, and that the one- and two-shard event runs did identical gate evaluations. Wall-clock fields are host-dependent; with available_parallelism 1 the two-shard column measures fan-out overhead, not speedup - the machine-independent eval counts are the comparison that transfers.\",\n  \"patterns\": {},\n  \"block_words\": {},\n  \"available_parallelism\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        patterns,
        block_words,
        available_threads(),
        smoke,
        body.join(",\n"),
    );
    std::fs::write(&out, json).expect("write BENCH_sim.json");
    println!("wrote {out}");
}
