//! Cross-engine validation: the four detection-probability engines must
//! agree with each other (and with ground truth) within their advertised
//! error regimes.

use proptest::prelude::*;
use wrt::prelude::*;
use wrt_estimate::signal_probability_bounds;

/// A reconvergent but small circuit: every engine can handle it and the
/// exact engine provides ground truth.
fn small_circuit() -> wrt::circuit::Circuit {
    wrt::circuit::parse_bench(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n\
         OUTPUT(y)\nOUTPUT(z)\n\
         m = NAND(a, b)\nn = NOR(c, d)\nx = XOR(m, n)\n\
         y = AND(x, e)\nz = OR(x, a)\n",
    )
    .expect("valid netlist")
}

#[test]
fn monte_carlo_tracks_exact_within_sampling_noise() {
    let circuit = small_circuit();
    let faults = FaultList::full(&circuit);
    let probs = vec![0.3, 0.7, 0.5, 0.4, 0.6];
    let exact = ExactEngine::new(8).estimate(&circuit, &faults, &probs);
    let mc = MonteCarloEngine::new(64 * 512, 3).estimate(&circuit, &faults, &probs);
    for (i, (e, m)) in exact.iter().zip(&mc).enumerate() {
        assert!(
            (e - m).abs() < 0.04,
            "fault {i}: exact {e} vs monte-carlo {m}"
        );
    }
}

#[test]
fn stafan_and_cop_are_reasonable_heuristics_here() {
    let circuit = small_circuit();
    let faults = FaultList::full(&circuit);
    let probs = vec![0.5; 5];
    let exact = ExactEngine::new(8).estimate(&circuit, &faults, &probs);
    let cop = CopEngine::new().estimate(&circuit, &faults, &probs);
    let stafan = StafanEngine::new(64 * 512, 5).estimate(&circuit, &faults, &probs);
    for (i, ((e, c), s)) in exact.iter().zip(&cop).zip(&stafan).enumerate() {
        // Heuristics: allow a generous but bounded error.
        assert!((e - c).abs() < 0.35, "fault {i}: exact {e} vs cop {c}");
        assert!((e - s).abs() < 0.35, "fault {i}: exact {e} vs stafan {s}");
    }
}

#[test]
fn cutting_bounds_bracket_monte_carlo_signal_estimates() {
    let circuit = wrt::workloads::c432ish();
    let probs = vec![0.5; circuit.num_inputs()];
    let bounds = signal_probability_bounds(&circuit, &probs);

    // Estimate signal probabilities by simulation.
    let mut sim = LogicSim::new(&circuit);
    let mut source = WeightedPatterns::equiprobable(circuit.num_inputs(), 9);
    let blocks = 400u32;
    let mut ones = vec![0u64; circuit.num_nodes()];
    for _ in 0..blocks {
        let block = source.next_block(64);
        sim.run(&block.words);
        for id in circuit.ids() {
            ones[id.index()] += u64::from(sim.value(id).count_ones());
        }
    }
    let total = f64::from(blocks) * 64.0;
    for id in circuit.ids() {
        let measured = ones[id.index()] as f64 / total;
        let interval = bounds.interval(id);
        // Allow 3-sigma sampling noise outside the guaranteed interval.
        let slack = 3.0 * (0.25 / total).sqrt();
        assert!(
            measured >= interval.lo - slack && measured <= interval.hi + slack,
            "node {id}: measured {measured} outside [{}, {}]",
            interval.lo,
            interval.hi
        );
    }
}

#[test]
fn engines_rank_hard_faults_consistently() {
    // On the adder/comparator, every engine must agree that the
    // comparator-cone faults are the hardest ones.
    let circuit = wrt::workloads::c2670ish();
    let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
    let probs = vec![0.5; circuit.num_inputs()];
    let cop = CopEngine::new().estimate(&circuit, &faults, &probs);
    let stafan = StafanEngine::new(64 * 128, 17).estimate(&circuit, &faults, &probs);

    let hardest_cop: Vec<usize> = {
        let mut idx: Vec<usize> = (0..cop.len()).collect();
        idx.sort_by(|&a, &b| cop[a].total_cmp(&cop[b]));
        idx.into_iter().take(10).collect()
    };
    // STAFAN must also consider those faults hard (estimate below 1e-3;
    // their true probability is ~2^-20).
    for &k in &hardest_cop {
        assert!(
            stafan[k] < 1e-3,
            "fault {k}: cop {} stafan {}",
            cop[k],
            stafan[k]
        );
    }
}

// ---- COP against the exact-enumeration oracle -------------------------
//
// `StructureCensus::cop_exact` (no reconvergent stems) claims exact COP
// *signal probabilities* only.  Detection probabilities are exact only
// without any fanout stem: a stem fault's effect reaches several outputs,
// and COP's stem rule `1 − Π(1 − obs)` treats those paths as independent.

const ORACLE_TOLERANCE: f64 = 1e-9;

/// A random circuit without reconvergent fanout, built from a recipe:
/// every op makes one gate over operands whose primary-input supports are
/// disjoint, each operand an unconsumed gate or a primary input, and every
/// gate left unconsumed becomes an output.  With `share_inputs` a primary
/// input may feed several trees (fanout stems that never reconverge);
/// without it every node fans out at most once.
fn non_reconvergent_circuit(
    num_inputs: usize,
    share_inputs: bool,
    ops: &[(usize, usize, Vec<usize>)],
) -> Circuit {
    const KINDS: [GateKind; 7] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
    ];
    let mut b = CircuitBuilder::named("non_reconvergent");
    let inputs: Vec<NodeId> = (0..num_inputs).map(|i| b.input(format!("i{i}"))).collect();
    // Unconsumed gates with the primary-input support of their tree.
    let mut roots: Vec<(NodeId, u32)> = Vec::new();
    let mut used_inputs = 0u32;
    for (kind_idx, arity, picks) in ops {
        let kind = KINDS[kind_idx % KINDS.len()];
        let want = if kind == GateKind::Not { 1 } else { 2 + arity % 2 };
        let mut fanin = Vec::new();
        let mut support = 0u32;
        let mut taken_roots = Vec::new();
        for &p in picks.iter().take(want) {
            let root = (p % 2 == 0 && !roots.is_empty()).then(|| (p / 2) % roots.len());
            match root {
                Some(r) if roots[r].1 & support == 0 => {
                    let (node, mask) = roots.swap_remove(r);
                    support |= mask;
                    fanin.push(node);
                    taken_roots.push((node, mask));
                }
                _ => {
                    let i = p % num_inputs;
                    let bit = 1u32 << i;
                    if support & bit == 0 && (share_inputs || used_inputs & bit == 0) {
                        support |= bit;
                        fanin.push(inputs[i]);
                    }
                }
            }
        }
        if fanin.len() < want.min(2) {
            roots.extend(taken_roots);
            continue;
        }
        used_inputs |= support;
        let gate = b.gate_auto(kind, &fanin).expect("valid gate");
        roots.push((gate, support));
    }
    if roots.is_empty() {
        roots.push((b.gate_auto(GateKind::Not, &[inputs[0]]).expect("valid"), 1));
    }
    for (node, _) in roots {
        b.mark_output(node);
    }
    b.build().expect("valid circuit")
}

fn assert_close(what: &str, cop: f64, exact: f64) {
    assert!(
        (cop - exact).abs() <= ORACLE_TOLERANCE,
        "{what}: cop {cop} vs exact {exact}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// On circuits the census calls `cop_exact`, COP signal probabilities
    /// equal exact enumeration; without fanout stems, so do COP detection
    /// probabilities.
    #[test]
    fn cop_matches_the_exact_oracle_without_reconvergence(
        num_inputs in 2usize..11,
        share_inputs in any::<bool>(),
        ops in proptest::collection::vec(
            (0usize..7, 0usize..2, proptest::collection::vec(0usize..1000, 3)),
            1..14,
        ),
        weights in proptest::collection::vec(0.05f64..0.95, 10),
    ) {
        let circuit = non_reconvergent_circuit(num_inputs, share_inputs, &ops);
        let probs = &weights[..num_inputs];
        let census = wrt::analyze::census(&circuit);
        prop_assert_eq!(census.reconvergent_stems, 0);
        prop_assert!(census.cop_exact);
        if !share_inputs {
            prop_assert_eq!(census.fanout_stems, 0);
        }

        let p = wrt::estimate::signal_probabilities_cop(&circuit, probs);
        for id in circuit.ids() {
            let exact = wrt::estimate::exact_signal_probability(&circuit, id, probs, 12)
                .expect("support within bound");
            assert_close(&format!("signal probability of {id}"), p[id.index()], exact);
        }

        if census.fanout_stems == 0 {
            let faults = FaultList::full(&circuit);
            let cop = CopEngine::new().estimate(&circuit, &faults, probs);
            for ((_, fault), &c) in faults.iter().zip(&cop) {
                let exact = wrt::estimate::exact_detection_probability(&circuit, fault, probs, 12)
                    .expect("inputs within bound");
                assert_close(&format!("detection probability of {fault:?}"), c, exact);
            }
        }
    }
}

#[test]
fn reconvergent_diamond_breaks_cop_signal_probabilities() {
    // Negative control: y = XOR(AND(a, b), OR(a, b)) = XOR(a, b).
    let circuit = wrt::circuit::parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\np = AND(a, b)\nq = OR(a, b)\ny = XOR(p, q)\n",
    )
    .expect("valid netlist");
    assert!(!wrt::analyze::census(&circuit).cop_exact);
    let probs = [0.5, 0.5];
    let y = circuit.node_id("y").expect("y");
    let cop = wrt::estimate::signal_probabilities_cop(&circuit, &probs)[y.index()];
    let exact = wrt::estimate::exact_signal_probability(&circuit, y, &probs, 12).expect("small");
    assert_close("XOR(a, b)", exact, 0.5);
    assert!((cop - exact).abs() > 0.1, "cop {cop} vs exact {exact}");
}

#[test]
fn cop_exact_does_not_cover_detection_probabilities_at_stems() {
    // Regression: `s` and `x` fan out without reconverging, so the census
    // reports `cop_exact` — yet a stem fault on `s` is detected at either
    // output, and COP's stem rule counts the shared side input `x` twice.
    let circuit = wrt::circuit::parse_bench(
        "INPUT(s)\nINPUT(x)\nOUTPUT(g1)\nOUTPUT(g2)\ng1 = AND(s, x)\ng2 = AND(s, x)\n",
    )
    .expect("valid netlist");
    let census = wrt::analyze::census(&circuit);
    assert!(census.cop_exact);
    assert_eq!(census.fanout_stems, 2);
    let probs = [0.5, 0.5];
    let s = circuit.node_id("s").expect("s");
    let faults = FaultList::from_faults(vec![Fault::output(s, false), Fault::output(s, true)]);
    let cop = CopEngine::new().estimate(&circuit, &faults, &probs);
    for ((_, fault), &c) in faults.iter().zip(&cop) {
        let exact = wrt::estimate::exact_detection_probability(&circuit, fault, &probs, 12)
            .expect("small");
        assert_close(&format!("exact {fault:?}"), exact, 0.25);
        assert_close(&format!("cop {fault:?}"), c, 0.375);
    }
    // Signal probabilities, the part `cop_exact` does claim, still agree.
    let p = wrt::estimate::signal_probabilities_cop(&circuit, &probs);
    for id in circuit.ids() {
        let exact =
            wrt::estimate::exact_signal_probability(&circuit, id, &probs, 12).expect("small");
        assert_close("signal probability", p[id.index()], exact);
    }
}
