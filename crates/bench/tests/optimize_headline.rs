//! The paper's headline, asserted rather than printed: optimized input
//! probabilities cut the required test length.  Reruns `bench_optimize`'s
//! c2670ish row (its fault list and optimizer configuration) and checks
//! the improvement factor against both the committed `BENCH_optimize.json`
//! row and the `bench_guard` floor.

use wrt_bench::experiment_faults;
use wrt_core::{optimize, OptimizeConfig};
use wrt_estimate::IncrementalCop;

/// The committed `"improvement_factor"` of `circuit`'s row, as printed.
fn committed_factor(circuit: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_optimize.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_optimize.json is committed");
    let row = text
        .split(&format!("\"circuit\": \"{circuit}\""))
        .nth(1)
        .unwrap_or_else(|| panic!("no {circuit} row"));
    let value = row
        .split("\"improvement_factor\": ")
        .nth(1)
        .expect("row records improvement_factor");
    value[..value.find(',').expect("more fields follow")].to_string()
}

#[test]
fn c2670ish_improvement_factor_reproduces_the_committed_headline() {
    let circuit = wrt_workloads::by_name("c2670ish").expect("workload");
    let faults = experiment_faults(&circuit);
    let mut engine = IncrementalCop::new();
    let result = optimize(&circuit, &faults, &mut engine, &OptimizeConfig::default());
    let factor = result.improvement_factor();
    assert_eq!(format!("{factor:.3}"), committed_factor("c2670ish"));
    assert!(
        factor >= 1.1e3,
        "c2670ish improvement factor {factor} below the floor"
    );
}
