//! Property tests over random circuits:
//!
//! * [`IncrementalCop`] is bit-identical to the full recompute
//!   [`CopEngine`] across random weight vectors (including the 0.0/1.0
//!   boundary points PREPARE uses) and random sequences of
//!   single-coordinate perturbations and moves — at the default commit
//!   batch, at `K = 1` (materialize after every move), at randomized
//!   batch sizes, and with forced materialization points;
//! * [`SessionCop::what_if`] is bit-identical to rebuilding the mutated
//!   circuit and running [`CopEngine`], for random gate-kind mutations
//!   (AND/OR families ↔ XOR family, NOT ↔ BUF), back to back on one
//!   session.

use proptest::prelude::*;
use std::sync::Arc;

use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};
use wrt_estimate::{
    CopBaseline, CopEngine, DetectionProbabilityEngine, EcoMutation, IncrementalCop, SessionCop,
};
use wrt_fault::FaultList;

const NUM_INPUTS: usize = 5;

/// A small random circuit over [`NUM_INPUTS`] inputs with two outputs:
/// a mix of gate kinds over randomly picked (possibly reconvergent,
/// possibly dead) fanins.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ]);
    proptest::collection::vec(
        (kinds, proptest::collection::vec(0usize..100, 1..4)),
        NUM_INPUTS..24,
    )
    .prop_map(|specs| {
        let mut b = CircuitBuilder::named("rand");
        let mut ids = Vec::new();
        for i in 0..NUM_INPUTS {
            ids.push(b.input(format!("i{i}")));
        }
        for (kind, picks) in specs {
            let fanin: Vec<_> = if matches!(kind, GateKind::Not | GateKind::Buf) {
                vec![ids[picks[0] % ids.len()]]
            } else {
                picks.iter().map(|&p| ids[p % ids.len()]).collect()
            };
            ids.push(b.gate_auto(kind, &fanin).expect("valid"));
        }
        b.mark_output(*ids.last().expect("nonempty"));
        b.mark_output(ids[NUM_INPUTS]);
        b.build().expect("valid circuit")
    })
}

/// Weights drawn from a palette that includes the exact boundary points
/// `0.0` and `1.0` (PREPARE's perturbation targets) alongside interior
/// values, so pruning on exact f64 equality gets exercised at the edges.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0usize..6, 0.0f64..1.0).prop_map(|(pick, uniform)| match pick {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        3 => 0.25,
        _ => uniform,
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every gate kind an ECO may substitute.
const GATE_KINDS: [GateKind; 8] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
];

/// Up to three distinct gate-kind mutations from raw picks: gate `g % gates`
/// becomes the `k`-th kind (modulo the candidates) among the kinds that
/// accept its fanin count, other than its own — so multi-input gates flip
/// between the AND/OR and XOR families and single-input gates between
/// NOT, BUF and the one-input AND/OR/XOR forms.
fn mutations_from(circuit: &Circuit, picks: &[(usize, usize)]) -> Vec<EcoMutation> {
    let gates: Vec<NodeId> = circuit
        .iter()
        .filter(|(_, n)| !n.kind().is_source())
        .map(|(id, _)| id)
        .collect();
    let mut mutations: Vec<EcoMutation> = Vec::new();
    for &(g, k) in picks {
        let gate = gates[g % gates.len()];
        if mutations.iter().any(|m| m.gate == gate) {
            continue;
        }
        let node = circuit.node(gate);
        let fanin = node.fanin().len();
        let candidates: Vec<GateKind> = GATE_KINDS
            .into_iter()
            .filter(|&kind| {
                let (lo, hi) = kind.arity_range();
                kind != node.kind() && (lo..=hi).contains(&fanin)
            })
            .collect();
        mutations.push(EcoMutation {
            gate,
            kind: candidates[k % candidates.len()],
        });
    }
    mutations
}

/// `circuit` with the mutated kinds really replaced; nodes are re-added in
/// id order, so ids (and fault lists) line up one to one.
fn rebuild_mutated(circuit: &Circuit, mutations: &[EcoMutation]) -> Circuit {
    let mut b = CircuitBuilder::named(circuit.name());
    for (id, node) in circuit.iter() {
        let kind = mutations
            .iter()
            .find(|m| m.gate == id)
            .map_or_else(|| node.kind(), |m| m.kind);
        let new_id = if kind == GateKind::Input {
            b.input(node.name())
        } else {
            b.gate(kind, node.name(), node.fanin()).expect("legal rebuild")
        };
        assert_eq!(new_id, id);
    }
    for &o in circuit.outputs() {
        b.mark_output(o);
    }
    b.build().expect("mutated circuit rebuilds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn incremental_cop_matches_full_cop_bit_for_bit(
        circuit in arb_circuit(),
        start in proptest::collection::vec(arb_weight(), NUM_INPUTS),
        walk in proptest::collection::vec((0usize..NUM_INPUTS, arb_weight()), 1..12),
        batch in 2usize..9,
        flush_mask in 0u32..256,
    ) {
        let faults = FaultList::full(&circuit);
        let mut full = CopEngine::new();
        // Every commit batch must agree with the reference: the default,
        // K = 1 (every move materializes at once), a randomized batch
        // size, and a batch larger than the whole walk (materialization
        // then happens only at frontier-budget or ANALYSIS points, or
        // where `flush_mask` forces one).
        let mut engines = [
            IncrementalCop::new(),
            IncrementalCop::new().with_commit_batch(1),
            IncrementalCop::new().with_commit_batch(batch),
            IncrementalCop::new().with_commit_batch(64),
        ];
        let mut weights = start;

        // Baseline estimate.
        let reference = full.estimate(&circuit, &faults, &weights);
        for incremental in engines.iter_mut() {
            let inc = incremental.estimate(&circuit, &faults, &weights);
            prop_assert_eq!(bits(&inc), bits(&reference));
        }

        // A simulated optimizer walk: PREPARE both boundary points of a
        // coordinate, then move that coordinate (deferred into the
        // pending overlay, materialized once K moves accumulate).
        for (step, (coordinate, next_value)) in walk.into_iter().enumerate() {
            let (f0, f1) = full.estimate_coordinate_pair(&circuit, &faults, &weights, coordinate);
            for incremental in engines.iter_mut() {
                let (i0, i1) = incremental
                    .estimate_coordinate_pair(&circuit, &faults, &weights, coordinate);
                prop_assert_eq!(bits(&i0), bits(&f0), "coordinate {} at 0", coordinate);
                prop_assert_eq!(bits(&i1), bits(&f1), "coordinate {} at 1", coordinate);
            }
            prop_assert_eq!(engines[1].pending_len(), 0);
            weights[coordinate] = next_value;
            // Forced materialization points: resolve the large-batch
            // engine's pending layer at walk steps picked by the mask.
            if flush_mask & (1 << (step % 8)) != 0 {
                engines[3].flush_pending(&circuit);
                prop_assert_eq!(engines[3].pending_len(), 0);
            }
        }

        // Final ANALYSIS-style full query at the walked-to vector
        // (materializes whatever is still pending in the batched engines).
        let reference = full.estimate(&circuit, &faults, &weights);
        for incremental in engines.iter_mut() {
            let inc = incremental.estimate(&circuit, &faults, &weights);
            prop_assert_eq!(bits(&inc), bits(&reference));
            prop_assert_eq!(incremental.pending_len(), 0);
        }

        // Single-coordinate moves never rebuild: the one full pass is the
        // initial baseline.
        for incremental in &engines {
            prop_assert_eq!(incremental.stats().full_rebuilds, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn eco_what_if_matches_the_rebuilt_circuit_bit_for_bit(
        circuit in arb_circuit(),
        weights in proptest::collection::vec(arb_weight(), NUM_INPUTS),
        queries in proptest::collection::vec(
            proptest::collection::vec((0usize..1000, 0usize..1000), 1..4),
            1..4,
        ),
    ) {
        let faults = FaultList::full(&circuit);
        let circuit = Arc::new(circuit);
        let baseline = Arc::new(CopBaseline::build(Arc::clone(&circuit), &weights));
        let mut session = SessionCop::new(baseline);
        // Back to back on one session: no query may read another's overlay.
        for picks in &queries {
            let mutations = mutations_from(&circuit, picks);
            let (dp, stats) = session.what_if(&mutations, &faults).expect("valid ECO");
            let mutated = rebuild_mutated(&circuit, &mutations);
            let reference = CopEngine::new().estimate(&mutated, &faults, &weights);
            prop_assert_eq!(bits(&dp), bits(&reference), "mutations {:?}", mutations);
            prop_assert!(
                stats.overlay_evals() <= stats.cold_evals,
                "overlay {} > cold {}",
                stats.overlay_evals(),
                stats.cold_evals
            );
        }
    }
}
