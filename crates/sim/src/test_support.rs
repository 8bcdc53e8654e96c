//! Shared proptest strategies and driver shorthands for the crate's
//! tests.

use proptest::prelude::*;
use wrt_circuit::{Circuit, CircuitBuilder, GateKind};
use wrt_fault::FaultList;
use wrt_robust::Budget;

use crate::{
    detection_counts_robust, fault_coverage_robust, CoverageResult, PatternSource, SimOptions,
    SimStats,
};

/// A small random 4-input circuit with two outputs: a mix of gate kinds
/// over randomly picked (possibly reconvergent) fanins.
pub fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
    ]);
    proptest::collection::vec((kinds, proptest::collection::vec(0usize..100, 1..3)), 4..18)
        .prop_map(|specs| {
            let mut b = CircuitBuilder::named("rand");
            let mut ids = Vec::new();
            for i in 0..4 {
                ids.push(b.input(format!("i{i}")));
            }
            for (kind, picks) in specs {
                let fanin: Vec<_> = if kind == GateKind::Not {
                    vec![ids[picks[0] % ids.len()]]
                } else {
                    picks.iter().map(|&p| ids[p % ids.len()]).collect()
                };
                ids.push(b.gate_auto(kind, &fanin).expect("valid"));
            }
            b.mark_output(*ids.last().expect("nonempty"));
            b.mark_output(ids[4]);
            b.build().expect("valid circuit")
        })
}

/// The driver under an unlimited budget, asserted complete and clean.
pub fn coverage(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    drop: bool,
    threads: usize,
    opts: SimOptions,
) -> (CoverageResult, SimStats) {
    let outcome = fault_coverage_robust(
        circuit,
        faults,
        source,
        num_patterns,
        drop,
        threads,
        opts,
        &Budget::unlimited(),
    );
    assert!(outcome.is_complete());
    let rc = outcome.into_value();
    assert!(rc.recovery.is_clean());
    (rc.result, rc.stats)
}

/// [`coverage`] for detection counts.
pub fn counts(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    threads: usize,
    opts: SimOptions,
) -> (Vec<u64>, SimStats) {
    let outcome = detection_counts_robust(
        circuit,
        faults,
        source,
        num_patterns,
        threads,
        opts,
        &Budget::unlimited(),
    );
    assert!(outcome.is_complete());
    let rc = outcome.into_value();
    assert!(rc.recovery.is_clean());
    assert_eq!(rc.num_patterns, num_patterns);
    (rc.counts, rc.stats)
}
