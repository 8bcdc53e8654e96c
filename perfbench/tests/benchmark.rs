//! Tests of the benchmark's own logic: percentile selection, failure
//! counting, seed plumbing, span self times and the flow's checks.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use wrt_perfbench::flow::{self, FlowKind};
use wrt_perfbench::layers;
use wrt_perfbench::serve_mix::{self, Class, Outcome, Request, Via};
use wrt_perfbench::stats::{median, percentile, samples_needed, MIN_BEYOND};
use wrt_perfbench::trace::{self, Span, Tracer};
use wrt_serve::Registry;

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|v| v as f64).collect()
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    // p50 of 20 samples is the 10th, with 10 beyond; of 19 it is refused.
    assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    assert_eq!(percentile(&ramp(19), 0.5), None);
    // p90 needs 100 samples, p99 needs 1000.
    assert_eq!(samples_needed(0.5), 20);
    assert_eq!(samples_needed(0.9), 100);
    assert_eq!(samples_needed(0.99), 1000);
    assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
    assert_eq!(percentile(&ramp(99), 0.9), None);
    assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    assert_eq!(percentile(&ramp(999), 0.99), None);
    assert_eq!(percentile(&[], 0.5), None);
    // Order of the samples does not matter.
    let mut shuffled = ramp(100);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 0.9), Some(90.0));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

fn outcome(index: usize, latency_s: f64, result: Result<String, String>) -> Outcome {
    Outcome {
        index,
        class: Class::Warm,
        start_s: 0.0,
        latency_s,
        result,
    }
}

#[test]
fn an_err_frame_counts_as_failed_and_misses_the_percentile() {
    let registry = Arc::new(Registry::new());
    let server = layers::spawn_server(&registry).expect("binds a loopback port");
    let addr = server.addr().to_string();
    let schedule = vec![
        Request {
            class: Class::Warm,
            argv: Arc::new(vec!["estimate".into(), "s1".into()]),
        },
        // The server answers an unknown circuit with an err frame.
        Request {
            class: Class::Warm,
            argv: Arc::new(vec!["estimate".into(), "no-such-circuit".into()]),
        },
    ];
    let (outcomes, _) = serve_mix::drive(
        &Via::Socket { addr },
        &schedule,
        0..schedule.len(),
        Duration::from_secs(60),
        &|_| true,
    );
    server.trigger_shutdown();
    server.wait();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes[0].result.is_ok());
    let failed = outcomes[1]
        .result
        .as_ref()
        .expect_err("err frame fails the request");
    assert!(failed.starts_with("err frame"), "{failed}");
    assert_eq!(outcomes[1].counted_latency_ms(), f64::INFINITY);

    // With the failure counted as missing, p50 of 20 requests of which
    // 11 failed is missing; with 10 failed it is still a real latency.
    let mut samples: Vec<Outcome> = (0..9)
        .map(|i| outcome(i, 0.001, Ok(String::new())))
        .collect();
    samples.extend((9..20).map(|i| outcome(i, 0.001, Err("err frame: boom".into()))));
    let latencies = serve_mix::class_latencies(&samples, Class::Warm);
    assert_eq!(percentile(&latencies, 0.5), Some(f64::INFINITY));
    samples[9].result = Ok(String::new());
    let latencies = serve_mix::class_latencies(&samples, Class::Warm);
    assert_eq!(percentile(&latencies, 0.5), Some(1.0));
}

#[test]
fn transport_errors_fail_the_request_too() {
    let result = serve_mix::flatten(layers::request("127.0.0.1:1", &["stat".to_string()]));
    assert!(result
        .expect_err("nothing listens there")
        .starts_with("transport"));
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    let circuits = layers::registry_circuits();
    let dir = Path::new("cold");
    let a = serve_mix::schedule(5, 3, &circuits, dir);
    let b = serve_mix::schedule(5, 3, &circuits, dir);
    let c = serve_mix::schedule(6, 3, &circuits, dir);
    assert_eq!(a, b, "same seed, same schedule");
    assert_ne!(a, c, "another seed, another schedule");
    assert_eq!(a.len(), 3 * serve_mix::ROUND);
    for round in a.chunks(serve_mix::ROUND) {
        let count = |class| round.iter().filter(|r| r.class == class).count();
        assert_eq!(count(Class::Warm), serve_mix::WARM_PER_ROUND);
        assert_eq!(count(Class::Eco), serve_mix::ECO_PER_ROUND);
        assert_eq!(count(Class::Cold), serve_mix::COLD_PER_ROUND);
    }
    // Every cold request loads a path no other request loads.
    let mut cold: Vec<&String> = a
        .iter()
        .filter(|r| r.class == Class::Cold)
        .map(|r| &r.argv[1])
        .collect();
    let total = cold.len();
    cold.sort();
    cold.dedup();
    assert_eq!(cold.len(), total);

    // The flows: the seed reaches the top-off's fill of both, and the
    // random patterns of `large_flow`.
    for kind in [FlowKind::Paper, FlowKind::Large] {
        let x = flow::flow_config(kind, 5);
        let y = flow::flow_config(kind, 5);
        let z = flow::flow_config(kind, 6);
        assert_eq!(
            (x.pattern_seed, x.atpg.random_fill_seed),
            (y.pattern_seed, y.atpg.random_fill_seed)
        );
        assert_ne!(x.atpg.random_fill_seed, z.atpg.random_fill_seed);
        assert_eq!(x.pattern_seed == z.pattern_seed, kind == FlowKind::Paper);
    }
}

#[test]
fn the_large_flow_netlist_is_the_named_tiled_netlist() {
    let inputs = flow::flow_inputs(FlowKind::Large);
    assert_eq!(inputs.len(), 1);
    let name = format!(
        "tiled_{}_{}",
        flow::LARGE_NETLIST_GATES,
        flow::LARGE_NETLIST_SEED
    );
    assert_eq!(inputs[0].name, name);
    assert_eq!(
        inputs,
        flow::flow_inputs(FlowKind::Large),
        "generated deterministically"
    );
    let parsed = layers::parse(&inputs[0].text, &name).expect("the written text parses");
    assert_eq!(parsed.num_gates(), inputs[0].gates);
    assert!(parsed.num_gates() >= 10_000);
}

#[test]
fn self_time_subtracts_the_children() {
    let span = |id, parent, start_ns, end_ns| Span {
        id,
        parent,
        trace_id: 7,
        name: "x",
        start_ns,
        end_ns,
    };
    let spans = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 10, 30),
        span(3, Some(1), 50, 90),
        span(4, Some(3), 60, 70),
    ];
    let selfs = trace::self_times(&spans);
    assert_eq!(selfs[&1], 40);
    assert_eq!(selfs[&2], 20);
    assert_eq!(selfs[&3], 30);
    assert_eq!(selfs[&4], 10);

    let off = Tracer::new(false);
    assert!(off.span("x", 0, None).id().is_none());
    assert!(off.spans().is_empty());
    let on = Tracer::new(true);
    {
        let root = on.span("root", 3, None);
        let _child = on.span("child", 3, root.id());
    }
    let recorded = on.spans();
    assert_eq!(recorded.len(), 2);
    assert_eq!(
        recorded[0].parent,
        recorded.iter().find(|s| s.name == "root").map(|s| s.id)
    );
}

#[test]
fn a_pass_is_deterministic_and_its_top_off_resimulates() {
    let circuit = wrt_workloads::s1();
    let inputs = vec![flow::FlowInput::from_circuit(&circuit)];
    let mut config = flow::flow_config(FlowKind::Paper, 3);
    config.patterns = 64;
    let tracer = Tracer::new(true);
    let a = flow::run_pass(&inputs, &config, &tracer, 1).expect("pass runs");
    let b = flow::run_pass(&inputs, &config, &Tracer::new(false), 2).expect("pass runs");
    assert_eq!(a.digest(), b.digest());
    for run in &a.circuits {
        flow::check_topoff(run).expect("dense re-simulation agrees with the top-off");
    }
    assert!(a.final_coverage() >= a.random_coverage());
    // A report that claims a detection its tests do not make is caught.
    let mut tampered = a.circuits.into_iter().next().expect("one circuit");
    assert!(
        !tampered.tests.is_empty(),
        "64 patterns leave work for the top-off"
    );
    tampered.topoff_detected.clear();
    assert!(flow::check_topoff(&tampered).is_err());
    let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
    for layer in [
        flow::SPAN_PARSE,
        flow::SPAN_ANALYZE,
        flow::SPAN_COLLAPSE,
        flow::SPAN_REDUNDANCY,
        flow::SPAN_COP,
        flow::SPAN_CORE,
        flow::SPAN_SIM,
        flow::SPAN_ATPG,
    ] {
        assert!(names.contains(&layer), "missing span {layer}");
    }
}
