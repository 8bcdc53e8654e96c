//! The served load: a resident `wrt serve` on loopback, driven by two
//! closed-loop clients, one connection per request (the `wrt --remote`
//! path), over a seeded mix of warm estimates, ECO what-ifs and cold
//! estimates of `.bench` paths the registry has not seen.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wrt_circuit::{Circuit, GateKind};
use wrt_estimate::EcoMutation;
use wrt_serve::Registry;

use crate::layers;
use crate::trace::Tracer;

/// Requests per round; every round holds exactly this mix.
pub const ROUND: usize = 100;
pub const WARM_PER_ROUND: usize = 80;
pub const ECO_PER_ROUND: usize = 10;
pub const COLD_PER_ROUND: usize = 10;
/// Closed-loop clients (= connections in flight).
pub const CLIENTS: usize = 2;
/// Circuits the ECO what-ifs edit.
pub const ECO_CIRCUITS: [&str; 2] = ["c5315ish", "c7552ish"];
/// Circuits whose `.bench` copies the cold requests load.
pub const COLD_TEMPLATES: [&str; 3] = ["c880ish", "c5315ish", "c7552ish"];
/// Fixed weight vectors of the warm requests: uniform and two biased.
pub const WEIGHT_VECTORS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Warm,
    Eco,
    Cold,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    /// Shared: the warm lines repeat throughout the schedule.
    pub argv: Arc<Vec<String>>,
}

/// SplitMix64: the schedule's seeded generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn weights_flag(vector: usize, num_inputs: usize) -> Option<String> {
    let w = |i: usize| match vector {
        1 => {
            if i.is_multiple_of(2) {
                "0.25"
            } else {
                "0.75"
            }
        }
        _ => "0.8",
    };
    (vector != 0).then(|| (0..num_inputs).map(w).collect::<Vec<_>>().join(","))
}

/// The weights a request's `--weights` flag spells (uniform if absent).
pub fn request_weights(argv: &[String], num_inputs: usize) -> Vec<f64> {
    argv.iter()
        .position(|a| a == "--weights")
        .and_then(|i| argv.get(i + 1))
        .map_or_else(
            || vec![0.5; num_inputs],
            |raw| raw.split(',').filter_map(|w| w.parse().ok()).collect(),
        )
}

fn flip(kind: GateKind) -> Option<GateKind> {
    match kind {
        GateKind::And => Some(GateKind::Or),
        GateKind::Or => Some(GateKind::And),
        GateKind::Nand => Some(GateKind::Nor),
        GateKind::Nor => Some(GateKind::Nand),
        _ => None,
    }
}

/// The distinct warm request lines: every registry circuit at every
/// fixed weight vector.
pub fn warm_lines(circuits: &[Circuit]) -> Vec<Vec<String>> {
    let mut lines = Vec::new();
    for c in circuits {
        for v in 0..WEIGHT_VECTORS {
            let mut argv = vec!["estimate".to_string(), c.name().to_string()];
            if let Some(w) = weights_flag(v, c.num_inputs()) {
                argv.extend(["--weights".to_string(), w]);
            }
            lines.push(argv);
        }
    }
    lines
}

/// The seeded request schedule: `rounds` rounds of [`ROUND`] requests
/// with a fixed class mix in seeded order.  Cold request `k` loads
/// `cold_path(dir, k, template)`.
pub fn schedule(seed: u64, rounds: usize, circuits: &[Circuit], cold_dir: &Path) -> Vec<Request> {
    let mut rng = SplitMix::new(seed);
    let warm: Vec<Arc<Vec<String>>> = warm_lines(circuits).into_iter().map(Arc::new).collect();
    let eco_circuits: Vec<&Circuit> = ECO_CIRCUITS
        .iter()
        .map(|n| {
            circuits
                .iter()
                .find(|c| c.name() == *n)
                .expect("ECO circuit is in the registry")
        })
        .collect();
    let flippable: Vec<Vec<(String, GateKind)>> = eco_circuits
        .iter()
        .map(|c| {
            c.iter()
                .filter_map(|(_, n)| flip(n.kind()).map(|k| (n.name().to_string(), k)))
                .collect()
        })
        .collect();
    let mut cold_index = 0usize;
    let mut out = Vec::with_capacity(rounds * ROUND);
    for _ in 0..rounds {
        let mut classes: Vec<Class> = std::iter::repeat_n(Class::Warm, WARM_PER_ROUND)
            .chain(std::iter::repeat_n(Class::Eco, ECO_PER_ROUND))
            .chain(std::iter::repeat_n(Class::Cold, COLD_PER_ROUND))
            .collect();
        rng.shuffle(&mut classes);
        for class in classes {
            let argv = match class {
                Class::Warm => Arc::clone(&warm[rng.below(warm.len())]),
                Class::Eco => {
                    let which = rng.below(eco_circuits.len());
                    let gates = &flippable[which];
                    let mut picked: Vec<usize> = Vec::new();
                    let count = 1 + rng.below(2);
                    while picked.len() < count {
                        let g = rng.below(gates.len());
                        if !picked.contains(&g) {
                            picked.push(g);
                        }
                    }
                    let set: Vec<String> = picked
                        .iter()
                        .map(|&g| {
                            format!(
                                "{}={}",
                                gates[g].0,
                                format!("{:?}", gates[g].1).to_uppercase()
                            )
                        })
                        .collect();
                    Arc::new(vec![
                        "eco".to_string(),
                        eco_circuits[which].name().to_string(),
                        "--set".to_string(),
                        set.join(","),
                    ])
                }
                Class::Cold => {
                    let template = COLD_TEMPLATES[rng.below(COLD_TEMPLATES.len())];
                    let path = cold_path(cold_dir, cold_index, template);
                    cold_index += 1;
                    Arc::new(vec![
                        "estimate".to_string(),
                        path.to_string_lossy().into_owned(),
                    ])
                }
            };
            out.push(Request { class, argv });
        }
    }
    out
}

pub fn cold_path(dir: &Path, k: usize, template: &str) -> PathBuf {
    dir.join(format!("{k}-{template}.bench"))
}

pub fn template_path(dir: &Path, template: &str) -> PathBuf {
    dir.join(format!("{template}.bench"))
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: usize,
    pub class: Class,
    pub start_s: f64,
    pub latency_s: f64,
    /// The verb's output, or why the request failed (an err frame, a
    /// transport error).
    pub result: Result<String, String>,
}

impl Outcome {
    /// The latency the percentiles see: a failure misses every limit.
    pub fn counted_latency_ms(&self) -> f64 {
        if self.result.is_ok() {
            self.latency_s * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// Flattens a client reply into one result: transport errors and err
/// frames both fail the request.
pub fn flatten(reply: Result<Result<String, String>, String>) -> Result<String, String> {
    match reply {
        Ok(Ok(payload)) => Ok(payload),
        Ok(Err(verb)) => Err(format!("err frame: {verb}")),
        Err(transport) => Err(format!("transport: {transport}")),
    }
}

/// How a phase sends requests.
pub enum Via<'a> {
    /// Over the socket, through the `wrt --remote` client.
    Socket { addr: String },
    /// In process, through `execute` on the same registry, with spans
    /// around resolve, fault list, baseline and verb.
    InProcess {
        registry: &'a Arc<Registry>,
        tracer: &'a Tracer,
    },
}

impl Via<'_> {
    fn send(&self, index: usize, argv: &[String]) -> Result<String, String> {
        match self {
            Via::Socket { addr } => flatten(layers::request(addr, argv)),
            Via::InProcess { registry, tracer } => {
                let trace_id = index as u64;
                let root = tracer.span(SPAN_REQUEST, trace_id, None);
                let span = |name| tracer.span(name, trace_id, root.id());
                let entry = {
                    let _s = span(SPAN_RESOLVE);
                    layers::resolve(registry, &argv[1])?
                };
                {
                    let _s = span(SPAN_FAULTS);
                    layers::experiment_faults(&entry);
                }
                let weights = request_weights(argv, entry.circuit().num_inputs());
                {
                    let _s = span(SPAN_BASELINE);
                    layers::baseline(registry, &entry, &weights);
                }
                let _s = span(SPAN_VERB);
                layers::execute(&layers::context(registry), argv)
            }
        }
    }
}

pub const SPAN_REQUEST: &str = "request";
pub const SPAN_RESOLVE: &str = "serve.resolve";
pub const SPAN_FAULTS: &str = "serve.faults";
pub const SPAN_BASELINE: &str = "serve.baseline";
pub const SPAN_VERB: &str = "serve.verb";

/// Runs requests `range` of `schedule` from [`CLIENTS`] closed-loop
/// clients until the range is done or `limit` has passed.  Payloads are
/// kept where `keep` says so; the rest are dropped after the call.
pub fn drive(
    via: &Via<'_>,
    schedule: &[Request],
    range: std::ops::Range<usize>,
    limit: Duration,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> (Vec<Outcome>, f64) {
    let cursor = AtomicUsize::new(range.start);
    let outcomes = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= range.end || start.elapsed() >= limit {
                        break;
                    }
                    let req = &schedule[i];
                    let t0 = Instant::now();
                    let result = via.send(i, &req.argv);
                    let latency_s = t0.elapsed().as_secs_f64();
                    local.push(Outcome {
                        index: i,
                        class: req.class,
                        start_s: (t0 - start).as_secs_f64(),
                        latency_s,
                        result: match result {
                            Ok(p) if keep(i) => Ok(p),
                            Ok(_) => Ok(String::new()),
                            Err(e) => Err(e),
                        },
                    });
                }
                outcomes
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut outcomes = outcomes
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    outcomes.sort_by_key(|o| o.index);
    (outcomes, elapsed)
}

/// Wall time of every round all of whose requests ran: first start to
/// last finish.
pub fn round_times(outcomes: &[Outcome]) -> Vec<f64> {
    let mut rounds: HashMap<usize, (usize, f64, f64)> = HashMap::new();
    for o in outcomes {
        let e = rounds
            .entry(o.index / ROUND)
            .or_insert((0, f64::INFINITY, 0.0));
        e.0 += 1;
        e.1 = e.1.min(o.start_s);
        e.2 = e.2.max(o.start_s + o.latency_s);
    }
    let mut complete: Vec<(usize, f64)> = rounds
        .into_iter()
        .filter(|(_, r)| r.0 == ROUND)
        .map(|(k, r)| (k, r.2 - r.1))
        .collect();
    complete.sort_by_key(|r| r.0);
    complete.into_iter().map(|r| r.1).collect()
}

/// Latencies (ms) of one class, failures as infinite.
pub fn class_latencies(outcomes: &[Outcome], class: Class) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.class == class)
        .map(Outcome::counted_latency_ms)
        .collect()
}

/// Output check (c): an ECO answer's fault-level content — the count of
/// changed detection probabilities and the largest moves — must equal
/// what a cold COP run of the really mutated circuit gives.
pub fn check_eco(registry: &Registry, argv: &[String], payload: &str) -> Result<(), String> {
    let entry = layers::resolve(registry, &argv[1])?;
    let circuit = entry.circuit();
    let faults = layers::experiment_faults(&entry);
    let spec = argv
        .iter()
        .position(|a| a == "--set")
        .and_then(|i| argv.get(i + 1))
        .ok_or("eco without --set")?;
    let mut mutations = Vec::new();
    for item in spec.split(',') {
        let (name, kind) = item.split_once('=').ok_or("malformed --set")?;
        let gate = circuit.node_id(name).ok_or("unknown gate")?;
        let kind: GateKind = kind.parse().map_err(|_| "unknown kind")?;
        mutations.push(EcoMutation { gate, kind });
    }
    let weights = vec![0.5; circuit.num_inputs()];
    let before = layers::cold_cop(circuit, &faults, &weights);
    let mutated = layers::rebuild_mutated(circuit, &mutations)?;
    let after = layers::cold_cop(&mutated, &faults, &weights);
    let mut deltas: Vec<(usize, f64, f64)> = before
        .iter()
        .zip(&after)
        .enumerate()
        .filter(|(_, (b, a))| a.to_bits() != b.to_bits())
        .map(|(i, (&b, &a))| (i, b, a))
        .collect();
    deltas.sort_by(|x, y| {
        (y.2 - y.1)
            .abs()
            .total_cmp(&(x.2 - x.1).abs())
            .then(x.0.cmp(&y.0))
    });
    let expected: Vec<String> = deltas
        .iter()
        .take(5)
        .map(|&(i, b, a)| {
            format!(
                "  delta: {} {b:.6e} -> {a:.6e}",
                faults.as_slice()[i].describe(circuit)
            )
        })
        .collect();
    let served: Vec<&str> = payload
        .lines()
        .filter(|l| l.starts_with("  delta: "))
        .collect();
    let served_changed = payload
        .lines()
        .find_map(|l| l.strip_prefix("changed: "))
        .and_then(|l| l.split(", ").nth(2))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse::<usize>().ok());
    if served_changed != Some(deltas.len()) || served != expected {
        return Err(format!(
            "ECO answer `{}` differs from a cold COP run of the mutated circuit",
            argv.join(" ")
        ));
    }
    Ok(())
}

/// The experiment fault count a cold `estimate` reports.
pub fn reported_faults(payload: &str) -> Option<usize> {
    let first = payload.lines().next()?;
    let (_, rest) = first.split_once(": ")?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Mean log10 of the finite test lengths `estimate` payloads report.
pub fn mean_test_length_log10<'a>(payloads: impl Iterator<Item = &'a str>) -> Option<f64> {
    let logs: Vec<f64> = payloads
        .filter_map(|p| {
            let line = p.lines().find(|l| l.starts_with("test length N("))?;
            let (_, rest) = line.split_once("): ")?;
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map(f64::log10)
        .collect();
    (!logs.is_empty()).then(|| logs.iter().sum::<f64>() / logs.len() as f64)
}
