//! The repository benchmark command.
//!
//! ```text
//! wrt-perfbench --workload paper_flow|large_flow|serve_mix --seed N
//!               --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`python3 perfbench/run.py` builds it
//! first).  Inputs are made from the seed and written under
//! `.bench_work/`.  `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` is the separate traced run that breaks the
//! time down by layer.  The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wrt_perfbench::calibrate::{self, Calibrator};
use wrt_perfbench::flow::{self, FlowKind, PassResult};
use wrt_perfbench::layers;
use wrt_perfbench::serve_mix::{self, Class, Outcome, Request, SplitMix, Via};
use wrt_perfbench::stats::{self, median, percentile};
use wrt_perfbench::trace::{self, Span, Tracer};
use wrt_serve::{Registry, ServerHandle};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fewest flow passes a run measures (per kind in the traced run).
const MIN_PASSES: usize = 3;
/// Schedule length of `serve_mix` per second of `--seconds`.  Sized so
/// the schedule outlasts a run at the current speed; a program at least
/// this fast finishes the fixed schedule early, so every run does the
/// same work (and grows the registry by the same cold loads).
const ROUNDS_PER_SECOND: f64 = 4.0;
/// Rounds `serve_mix` runs between two calibration samples.
const ROUNDS_PER_CALIBRATION: usize = 20;
/// Share of sampled requests whose payloads are checked in process.
const CHECK_EVERY: u64 = 8;
/// Largest share of a traced pass the layers may leave unattributed.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("test_length_log10", "log10"),
    ("success_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [(&str, &str); 31] = [
    ("core.optimize_s", "s"),
    ("core.sweeps", "count"),
    ("core.engine_calls", "count"),
    ("estimate.cop_node_evals", "count"),
    ("sim.simulate_s", "s"),
    ("sim.node_evals", "count"),
    ("sim.evals_per_detected", "count"),
    ("sim.patterns_per_s", "1/s"),
    ("atpg.topoff_s", "s"),
    ("atpg.ms_per_call", "ms"),
    ("atpg.podem_calls", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.tests_per_call", "ratio"),
    ("atpg.aborted", "count"),
    ("estimate.redundancy_s", "s"),
    ("estimate.redundant", "count"),
    ("serve.faults_ms", "ms"),
    ("estimate.cop_s", "s"),
    ("serve.baseline_ms", "ms"),
    ("circuit.parse_s", "s"),
    ("circuit.parse_gates_per_s", "1/s"),
    ("fault.collapse_s", "s"),
    ("fault.faults", "count"),
    ("analyze.s", "s"),
    ("serve.resolve_ms", "ms"),
    ("serve.verb_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.baseline_hit_ratio", "ratio"),
    ("serve.registry_circuits", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_string();
    if !["paper_flow", "large_flow", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run reports: operation and check counts, the metrics of the
/// JSON line, and the figures printed above it.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: HashMap<&'static str, f64>,
    table: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.problems.push(e);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Turns the time metrics into calibrated seconds, keeping the raw
    /// wall times in the table.
    fn calibrate(&mut self, calibrator: Option<&Calibrator>) {
        let Some(calibrator) = calibrator else { return };
        let (factor, kernel) = calibrator.factor();
        for name in ["setup_s", "flow_s"] {
            let raw = self.metrics[name];
            self.show(format!("{name} raw wall time"), raw, "s");
            self.metrics.insert(name, raw * factor);
        }
        self.show(
            format!(
                "calibration kernel median ({} samples)",
                calibrator.sample_count()
            ),
            kernel,
            "s",
        );
        self.show("calibration factor", factor, "ratio");
    }

    fn show(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.table.push((name.into(), value, unit));
    }

    /// A percentile for the table; too few samples is a failed check.
    fn show_percentile(&mut self, name: &str, samples: &[f64], q: f64) {
        match percentile(samples, q) {
            Some(v) => self.show(format!("{name} (n={})", samples.len()), v, "ms"),
            None => self.check(Err(format!(
                "{name}: {} samples, {} needed",
                samples.len(),
                stats::samples_needed(q)
            ))),
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(calibrate::CHILD_FLAG) {
        return match calibrate::child_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wrt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(&args.workload);
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "paper_flow" => run_flow(FlowKind::Paper, &args, &work, &mut report),
        "large_flow" => run_flow(FlowKind::Large, &args, &work, &mut report),
        _ => run_serve(&args, &work, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("wrt-perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let success = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.set("success_frac", success);
    report.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    report.show("failed_frac", 1.0 - success, "fraction");
    report.show("peak_rss_mb", report.metrics["peak_rss_mb"], "MiB");

    for p in &report.problems {
        println!("FAILED: {p}");
    }
    for note in &report.notes {
        println!("{} {note}", args.workload);
    }
    for (name, value, unit) in &report.table {
        println!("{} {name} = {value:.6} {unit}", args.workload);
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = report.failed == 0 && report.metrics.values().all(|v| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Writes the spans of a traced run next to its inputs.
fn dump_spans(tracer: &Tracer, work: &Path, seed: u64) {
    if tracer.enabled() {
        let _ = std::fs::write(work.join(format!("spans-{seed}.jsonl")), tracer.to_jsonl());
    }
}

// ---- flows --------------------------------------------------------------

/// Machine-independent totals of one pass.
struct PassCounts {
    gates: f64,
    collapsed: f64,
    redundant: f64,
    detected: f64,
    patterns: f64,
    sim_evals: f64,
    sweeps: f64,
    engine_calls: f64,
    cop_evals: f64,
    podem_calls: f64,
    backtracks: f64,
    aborted: f64,
    tests: f64,
    budget_trips: f64,
}

impl PassCounts {
    fn of(pass: &PassResult, inputs: &[flow::FlowInput]) -> Self {
        PassCounts {
            gates: inputs.iter().map(|i| i.gates as f64).sum(),
            collapsed: pass.sum(|c| c.collapsed as f64),
            redundant: pass.sum(|c| c.redundant as f64),
            detected: pass.sum(|c| c.random_detected.len() as f64),
            patterns: pass.sum(|c| c.patterns_simulated as f64),
            sim_evals: pass.sum(|c| c.sim_node_evals as f64),
            sweeps: pass.sum(|c| c.sweeps as f64),
            engine_calls: pass.sum(|c| c.engine_calls as f64),
            cop_evals: pass.sum(|c| c.cop_node_evals as f64),
            podem_calls: pass.sum(|c| c.podem_calls as f64),
            backtracks: pass.sum(|c| c.backtracks as f64),
            aborted: pass.sum(|c| c.aborted as f64),
            tests: pass.sum(|c| c.tests.len() as f64),
            budget_trips: pass.sum(|c| f64::from(u8::from(c.budget_tripped))),
        }
    }
}

/// The calibrator of an untraced run (the traced run reports raw times).
fn start_calibrator(args: &Args) -> Result<Option<Calibrator>, String> {
    let mut calibrator = (!args.trace).then(Calibrator::start).transpose()?;
    sample(&mut calibrator)?;
    Ok(calibrator)
}

fn sample(calibrator: &mut Option<Calibrator>) -> Result<(), String> {
    calibrator.as_mut().map_or(Ok(()), Calibrator::sample)
}

fn run_flow(kind: FlowKind, args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let mut calibrator = start_calibrator(args)?;
    let mut setup_times = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        inputs = flow::flow_inputs(kind);
        for input in &inputs {
            write_file(&work.join(format!("{}.bench", input.name)), &input.text)?;
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup_times));
    sample(&mut calibrator)?;
    let config = flow::flow_config(kind, args.seed);

    let traced = Tracer::new(true);
    let untraced = Tracer::new(false);
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut digests = Vec::new();
    let mut first: Option<PassResult> = None;
    let start = Instant::now();
    let mut pass_no = 0u64;
    loop {
        let is_traced = args.trace && pass_no % 2 == 1;
        let tracer = if is_traced { &traced } else { &untraced };
        let pass = flow::run_pass(&inputs, &config, tracer, pass_no)?;
        report.attempted += 1;
        for circuit in &pass.circuits {
            report.check(flow::check_topoff(circuit));
        }
        digests.push(pass.digest());
        let wall = pass.wall_s;
        walls[usize::from(is_traced)].push(wall);
        first.get_or_insert(pass);
        sample(&mut calibrator)?;
        pass_no += 1;
        let enough = walls.iter().all(|w| w.len() >= MIN_PASSES)
            || (!args.trace && walls[0].len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
    }
    report.check(if digests.iter().all(|&d| d == digests[0]) {
        Ok(())
    } else {
        Err(format!("pass digests differ across passes: {digests:x?}"))
    });
    let first = first.expect("at least one pass ran");
    let counts = PassCounts::of(&first, &inputs);
    let length = first
        .test_length_log10()
        .ok_or("every required test length is infinite")?;
    report.set("flow_s", median(&walls[0]));
    report.set("test_length_log10", length);
    report.notes.push(format!(
        "{} untraced and {} traced passes, result digest {:016x}",
        walls[0].len(),
        walls[1].len(),
        digests[0]
    ));
    report.show("flow_s", median(&walls[0]), "s");
    report.show("test_length_log10", length, "log10");
    report.show("random_coverage", first.random_coverage(), "fraction");
    report.show("final_coverage", first.final_coverage(), "fraction");
    report.show("atpg budget trips (expected)", counts.budget_trips, "count");
    report.show("atpg aborts (expected)", counts.aborted, "count");
    report.calibrate(calibrator.as_ref());

    if args.trace {
        flow_layers(report, &traced, &walls, &counts);
        dump_spans(&traced, work, args.seed);
    }
    Ok(())
}

fn flow_layers(report: &mut Report, tracer: &Tracer, walls: &[Vec<f64>; 2], c: &PassCounts) {
    let spans = tracer.spans();
    let passes: Vec<u64> = {
        let mut ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let per_pass: Vec<HashMap<&'static str, u64>> = passes
        .iter()
        .map(|&p| trace::self_time_by_name(&spans, &[p]))
        .collect();
    let layer_s = |name: &str| {
        median(
            &per_pass
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0) as f64 / 1e9)
                .collect::<Vec<_>>(),
        )
    };
    let unattributed: Vec<f64> = passes
        .iter()
        .zip(&per_pass)
        .map(|(&p, selfs)| {
            let root = spans
                .iter()
                .find(|s| s.trace_id == p && s.parent.is_none())
                .expect("pass span");
            selfs[flow::PASS_SPAN] as f64 / root.duration_ns() as f64 * 100.0
        })
        .collect();
    let unattributed = median(&unattributed);
    report.check(if unattributed <= MAX_UNATTRIBUTED_PCT {
        Ok(())
    } else {
        Err(format!(
            "layers leave {unattributed:.2} % of the traced pass unattributed"
        ))
    });

    let parse_s = layer_s(flow::SPAN_PARSE);
    let sim_s = layer_s(flow::SPAN_SIM);
    let atpg_s = layer_s(flow::SPAN_ATPG);
    let calls = c.podem_calls.max(1.0);
    let values = [
        ("core.optimize_s", layer_s(flow::SPAN_CORE)),
        ("core.sweeps", c.sweeps),
        ("core.engine_calls", c.engine_calls),
        ("estimate.cop_node_evals", c.cop_evals),
        ("sim.simulate_s", sim_s),
        ("sim.node_evals", c.sim_evals),
        ("sim.evals_per_detected", c.sim_evals / c.detected.max(1.0)),
        ("sim.patterns_per_s", c.patterns / sim_s),
        ("atpg.topoff_s", atpg_s),
        ("atpg.ms_per_call", atpg_s * 1e3 / calls),
        ("atpg.podem_calls", c.podem_calls),
        ("atpg.backtracks", c.backtracks),
        ("atpg.tests_per_call", c.tests / calls),
        ("atpg.aborted", c.aborted),
        ("estimate.redundancy_s", layer_s(flow::SPAN_REDUNDANCY)),
        ("estimate.redundant", c.redundant),
        ("estimate.cop_s", layer_s(flow::SPAN_COP)),
        ("circuit.parse_s", parse_s),
        ("circuit.parse_gates_per_s", c.gates / parse_s),
        ("fault.collapse_s", layer_s(flow::SPAN_COLLAPSE)),
        ("fault.faults", c.collapsed),
        ("analyze.s", layer_s(flow::SPAN_ANALYZE)),
        (
            "trace.overhead_pct",
            (median(&walls[1]) / median(&walls[0]) - 1.0) * 100.0,
        ),
        ("trace.unattributed_pct", unattributed),
    ];
    for (name, v) in values {
        report.set(name, v);
    }
    let pass = median(&walls[1]);
    for (name, span) in [
        ("circuit", flow::SPAN_PARSE),
        ("analyze", flow::SPAN_ANALYZE),
        ("fault", flow::SPAN_COLLAPSE),
        ("estimate.redundancy", flow::SPAN_REDUNDANCY),
        ("estimate.cop", flow::SPAN_COP),
        ("core (incl. incremental COP)", flow::SPAN_CORE),
        ("sim", flow::SPAN_SIM),
        ("atpg", flow::SPAN_ATPG),
    ] {
        report.show(
            format!("share of traced pass: {name}"),
            layer_s(span) / pass * 100.0,
            "%",
        );
    }
}

// ---- serve --------------------------------------------------------------

struct ServeState {
    registry: Arc<Registry>,
    server: ServerHandle,
    schedule: Vec<Request>,
    /// Experiment fault count of each cold template.
    template_faults: HashMap<String, usize>,
    /// One served payload per distinct warm line (from priming).
    warm_payloads: Vec<String>,
}

/// Trace id of set-up `rep`'s reference cold pass (request ids are
/// schedule indices, far below these).
fn reference_trace(rep: usize) -> u64 {
    u64::MAX - rep as u64
}

fn sampled(seed: u64, index: usize) -> bool {
    SplitMix::new(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407))
        .next_u64()
        .is_multiple_of(CHECK_EVERY)
}

fn template_of(argv: &[String]) -> Option<String> {
    let stem = Path::new(&argv[1]).file_stem()?.to_str()?;
    Some(stem.split_once('-')?.1.to_string())
}

/// Set-up: the schedule, the cold `.bench` paths, a reference cold pass
/// over the templates, then a primed server.
fn serve_setup(
    seed: u64,
    rounds: usize,
    work: &Path,
    tracer: &Tracer,
    rep: usize,
) -> Result<ServeState, String> {
    let templates = work.join("templates");
    let cold = work.join("cold");
    fresh_dir(&templates)?;
    fresh_dir(&cold)?;
    let circuits = layers::registry_circuits();
    let schedule = serve_mix::schedule(seed, rounds, &circuits, &cold);

    let trace_id = reference_trace(rep);
    let root = tracer.span(flow::PASS_SPAN, trace_id, None);
    let span = |name| tracer.span(name, trace_id, root.id());
    let mut template_faults = HashMap::new();
    for name in serve_mix::COLD_TEMPLATES {
        let circuit = circuits
            .iter()
            .find(|c| c.name() == name)
            .ok_or("template not in the registry")?;
        let path = serve_mix::template_path(&templates, name);
        let text = layers::to_bench(circuit);
        write_file(&path, &text)?;
        let parsed = {
            let _s = span(flow::SPAN_PARSE);
            Arc::new(layers::parse(&text, &path.to_string_lossy())?)
        };
        {
            let _s = span(flow::SPAN_ANALYZE);
            layers::analyze(&parsed);
        }
        let collapsed = {
            let _s = span(flow::SPAN_COLLAPSE);
            layers::collapse(&parsed)
        };
        let redundant = {
            let _s = span(flow::SPAN_REDUNDANCY);
            layers::redundancy(&parsed, &collapsed)
        };
        let experiment: wrt_fault::FaultList = collapsed
            .iter()
            .filter(|(id, _)| !redundant[id.index()])
            .map(|(_, f)| f)
            .collect();
        {
            let _s = span(flow::SPAN_COP);
            layers::cop(&parsed, &vec![0.5; parsed.num_inputs()], &experiment);
        }
        template_faults.insert(name.to_string(), experiment.len());
    }
    drop(root);

    for req in schedule.iter().filter(|r| r.class == Class::Cold) {
        let template = template_of(&req.argv).ok_or("cold path without a template")?;
        let from = serve_mix::template_path(&templates, &template);
        let to = Path::new(&req.argv[1]);
        if std::fs::hard_link(&from, to).is_err() {
            std::fs::copy(&from, to).map_err(|e| format!("creating {}: {e}", to.display()))?;
        }
    }

    let registry = Arc::new(Registry::new());
    let server = layers::spawn_server(&registry)?;
    let addr = server.addr().to_string();
    let mut warm_payloads = Vec::new();
    for argv in serve_mix::warm_lines(&circuits) {
        let payload = serve_mix::flatten(layers::request(&addr, &argv))
            .map_err(|e| format!("priming `{}`: {e}", argv.join(" ")))?;
        warm_payloads.push(payload);
    }
    Ok(ServeState {
        registry,
        server,
        schedule,
        template_faults,
        warm_payloads,
    })
}

/// Output checks on served outcomes: every cold answer reports its
/// template's fault count; sampled answers equal in-process `execute`
/// on the same registry (b); sampled ECO answers equal a cold COP run of
/// the mutated circuit (c).  Failed requests are failures too.
fn check_outcomes(
    report: &mut Report,
    state: &ServeState,
    outcomes: &[Outcome],
    seed: u64,
    socket: bool,
) {
    for o in outcomes {
        report.attempted += 1;
        let payload = match &o.result {
            Ok(p) => p,
            Err(e) => {
                report.failed += 1;
                report.problems.push(format!("request {}: {e}", o.index));
                continue;
            }
        };
        let argv = &state.schedule[o.index].argv;
        if o.class == Class::Cold {
            let expected = template_of(argv).and_then(|t| state.template_faults.get(&t).copied());
            report.check(
                if serve_mix::reported_faults(payload) == expected && expected.is_some() {
                    Ok(())
                } else {
                    Err(format!(
                        "cold answer `{}` reports the wrong fault count",
                        argv.join(" ")
                    ))
                },
            );
        }
        if socket && sampled(seed, o.index) {
            let direct = layers::execute(&layers::context(&state.registry), argv);
            report.check(if direct.as_ref() == Ok(payload) {
                Ok(())
            } else {
                Err(format!(
                    "served `{}` differs from in-process execute",
                    argv.join(" ")
                ))
            });
            if o.class == Class::Eco {
                report.check(serve_mix::check_eco(&state.registry, argv, payload));
            }
        }
    }
}

fn run_serve(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let mut calibrator = start_calibrator(args)?;
    let rounds = (args.seconds * ROUNDS_PER_SECOND).ceil() as usize;
    let traced = Tracer::new(true);
    let untraced = Tracer::new(false);
    let setup_tracer = if args.trace { &traced } else { &untraced };
    let mut setup_times = Vec::new();
    let mut state: Option<ServeState> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = state.take() {
            old.server.trigger_shutdown();
            old.server.wait();
        }
        let t = Instant::now();
        state = Some(serve_setup(args.seed, rounds, work, setup_tracer, rep)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("set up at least once");
    report.set("setup_s", median(&setup_times));
    sample(&mut calibrator)?;
    let length = serve_mix::mean_test_length_log10(state.warm_payloads.iter().map(String::as_str))
        .ok_or("no finite test length among the warm answers")?;
    report.set("test_length_log10", length);
    report.show("test_length_log10 (warm answers)", length, "log10");

    let addr = state.server.addr().to_string();
    let socket = Via::Socket { addr };
    let keep = |i: usize| sampled(args.seed, i) || state.schedule[i].class == Class::Cold;
    let counters_before = layers::registry_counters(&state.registry);
    let result = if args.trace {
        serve_traced(args, report, &state, &socket, &traced)
    } else {
        // Chunks of whole rounds, a calibration sample after each.
        let chunk = ROUNDS_PER_CALIBRATION * serve_mix::ROUND;
        let (mut outcomes, mut elapsed) = (Vec::new(), 0.0);
        let mut start = 0;
        while start < state.schedule.len() && elapsed < args.seconds {
            let end = (start + chunk).min(state.schedule.len());
            let limit = Duration::from_secs_f64(args.seconds - elapsed);
            let (done, took) = serve_mix::drive(&socket, &state.schedule, start..end, limit, &keep);
            let cut = done.len() < end - start;
            outcomes.extend(done);
            elapsed += took;
            sample(&mut calibrator)?;
            if cut {
                break;
            }
            start = end;
        }
        check_outcomes(report, &state, &outcomes, args.seed, true);
        serve_end_to_end(report, &outcomes, elapsed)
    };
    report.calibrate(calibrator.as_ref());
    let counters_after = layers::registry_counters(&state.registry);
    let hits = (counters_after.1 - counters_before.1) as f64;
    let misses = (counters_after.2 - counters_before.2) as f64;
    report.set("serve.baseline_hit_ratio", hits / (hits + misses).max(1.0));
    report.set(
        "serve.registry_circuits",
        layers::registry_size(&state.registry) as f64,
    );
    state.server.trigger_shutdown();
    state.server.wait();
    dump_spans(&traced, work, args.seed);
    result
}

fn serve_end_to_end(report: &mut Report, outcomes: &[Outcome], elapsed: f64) -> Result<(), String> {
    let rounds = serve_mix::round_times(outcomes);
    if rounds.is_empty() {
        return Err("no request round completed".into());
    }
    report.set("flow_s", median(&rounds));
    report.show(
        format!(
            "flow_s (median of {} rounds of {})",
            rounds.len(),
            serve_mix::ROUND
        ),
        median(&rounds),
        "s",
    );
    report.show(
        format!(
            "serve_qps ({} requests, closed loop, {} clients)",
            outcomes.len(),
            serve_mix::CLIENTS
        ),
        outcomes.len() as f64 / elapsed,
        "1/s",
    );
    let warm = serve_mix::class_latencies(outcomes, Class::Warm);
    let cold = serve_mix::class_latencies(outcomes, Class::Cold);
    let eco = serve_mix::class_latencies(outcomes, Class::Eco);
    report.show_percentile("serve_warm_p50_ms", &warm, 0.5);
    report.show_percentile("serve_warm_p99_ms", &warm, 0.99);
    report.show_percentile("serve_cold_p50_ms", &cold, 0.5);
    report.show_percentile("serve_cold_p90_ms", &cold, 0.9);
    report.show_percentile("serve_eco_p50_ms", &eco, 0.5);
    Ok(())
}

/// The traced run: a socket phase for transport latency, then the
/// schedule's next rounds replayed in process, alternately traced and
/// untraced.
fn serve_traced(
    args: &Args,
    report: &mut Report,
    state: &ServeState,
    socket: &Via<'_>,
    traced: &Tracer,
) -> Result<(), String> {
    let keep = |i: usize| sampled(args.seed, i) || state.schedule[i].class == Class::Cold;
    let phase = Duration::from_secs_f64(args.seconds * 0.4);
    let (socket_outcomes, _) = serve_mix::drive(
        socket,
        &state.schedule,
        0..state.schedule.len(),
        phase,
        &keep,
    );
    check_outcomes(report, state, &socket_outcomes, args.seed, true);

    let untraced = Tracer::new(false);
    let first_round = socket_outcomes
        .iter()
        .map(|o| o.index)
        .max()
        .map_or(0, |i| i / serve_mix::ROUND + 1);
    let replay_start = Instant::now();
    let budget = args.seconds * 0.6;
    let mut replay: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
    let mut round = first_round;
    while (round + 1) * serve_mix::ROUND <= state.schedule.len()
        && (replay[1].is_empty() || replay_start.elapsed().as_secs_f64() < budget)
    {
        let is_traced = round % 2 == 1;
        let tracer = if is_traced { traced } else { &untraced };
        let via = Via::InProcess {
            registry: &state.registry,
            tracer,
        };
        let range = round * serve_mix::ROUND..(round + 1) * serve_mix::ROUND;
        let (outcomes, _) = serve_mix::drive(&via, &state.schedule, range, Duration::MAX, &keep);
        check_outcomes(report, state, &outcomes, args.seed, false);
        replay[usize::from(is_traced)].extend(outcomes);
        round += 1;
    }
    if replay.iter().any(Vec::is_empty) {
        return Err("the schedule ran out before the traced replay".into());
    }

    let warm_ms = |o: &[Outcome]| median(&serve_mix::class_latencies(o, Class::Warm));
    let spans = traced.spans();
    let requests: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == serve_mix::SPAN_REQUEST)
        .collect();
    let selfs = trace::self_times(&spans);
    let root_self: u64 = requests.iter().map(|s| selfs[&s.id]).sum();
    let root_total: u64 = requests.iter().map(|s| s.duration_ns()).sum();
    for name in [
        serve_mix::SPAN_RESOLVE,
        serve_mix::SPAN_FAULTS,
        serve_mix::SPAN_BASELINE,
        serve_mix::SPAN_VERB,
    ] {
        let layer: u64 = spans
            .iter()
            .filter(|s| s.name == name && s.trace_id < state.schedule.len() as u64)
            .map(|s| selfs[&s.id])
            .sum();
        report.show(
            format!("share of traced requests: {name}"),
            layer as f64 / root_total.max(1) as f64 * 100.0,
            "%",
        );
    }
    let class_of = |trace_id: u64| state.schedule[trace_id as usize].class;
    let span_ms = |name: &str, class: Class| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| {
                s.name == name
                    && s.trace_id < state.schedule.len() as u64
                    && class_of(s.trace_id) == class
            })
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    report.set(
        "serve.resolve_ms",
        span_ms(serve_mix::SPAN_RESOLVE, Class::Warm),
    );
    report.set("serve.verb_ms", span_ms(serve_mix::SPAN_VERB, Class::Warm));
    report.set(
        "serve.faults_ms",
        span_ms(serve_mix::SPAN_FAULTS, Class::Cold),
    );
    report.set(
        "serve.baseline_ms",
        span_ms(serve_mix::SPAN_BASELINE, Class::Cold),
    );
    report.set(
        "serve.transport_ms",
        warm_ms(&socket_outcomes) - warm_ms(&replay[0]),
    );
    report.set(
        "trace.overhead_pct",
        (warm_ms(&replay[1]) / warm_ms(&replay[0]) - 1.0) * 100.0,
    );
    report.set(
        "trace.unattributed_pct",
        root_self as f64 / root_total.max(1) as f64 * 100.0,
    );

    // The cold path's layers, from the reference pass of each set-up.
    let reps: Vec<HashMap<&'static str, u64>> = (0..SETUP_REPS)
        .map(|r| trace::self_time_by_name(&spans, &[reference_trace(r)]))
        .collect();
    let layer_s = |name: &str| {
        median(
            &reps
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0) as f64 / 1e9)
                .collect::<Vec<_>>(),
        )
    };
    let templates: Vec<wrt_circuit::Circuit> = layers::registry_circuits()
        .into_iter()
        .filter(|c| serve_mix::COLD_TEMPLATES.contains(&c.name()))
        .collect();
    let gates: f64 = templates.iter().map(|c| c.num_gates() as f64).sum();
    let collapsed: f64 = templates
        .iter()
        .map(|c| layers::collapse(c).len() as f64)
        .sum();
    let experiment: f64 = state.template_faults.values().map(|&n| n as f64).sum();
    report.set("circuit.parse_s", layer_s(flow::SPAN_PARSE));
    report.set(
        "circuit.parse_gates_per_s",
        gates / layer_s(flow::SPAN_PARSE),
    );
    report.set("analyze.s", layer_s(flow::SPAN_ANALYZE));
    report.set("fault.collapse_s", layer_s(flow::SPAN_COLLAPSE));
    report.set("fault.faults", collapsed);
    report.set("estimate.redundancy_s", layer_s(flow::SPAN_REDUNDANCY));
    report.set("estimate.redundant", collapsed - experiment);
    report.set("estimate.cop_s", layer_s(flow::SPAN_COP));
    report.notes.push(format!(
        "{} socket requests, then {} untraced and {} traced rounds replayed in process",
        socket_outcomes.len(),
        replay[0].len() / serve_mix::ROUND,
        replay[1].len() / serve_mix::ROUND
    ));
    Ok(())
}
