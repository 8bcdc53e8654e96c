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

// ---- The redundancy proof against the exact-enumeration oracle --------
//
// `constant_line_faults` screens lines with one random superblock and
// enumerates only the survivors.  Its flags must equal the paper's
// definition taken literally: a fault is proven redundant iff its line's
// exact signal probability at 0.5 is 0 (stuck-at-0) or 1 (stuck-at-1),
// and lines whose support exceeds the bound stay unproven.

/// The oracle's flag for one fault: per-line exact enumeration.
fn oracle_redundant(circuit: &Circuit, fault: Fault, max_support: usize) -> bool {
    let driver = match fault.site {
        FaultSite::Output(n) => n,
        FaultSite::InputPin { gate, pin } => circuit.node(gate).fanin()[pin],
    };
    let probs = vec![0.5; circuit.num_inputs()];
    match wrt::estimate::exact_signal_probability(circuit, driver, &probs, max_support) {
        Some(p) => (p == 0.0 && !fault.stuck_value) || (p == 1.0 && fault.stuck_value),
        None => false,
    }
}

/// Every fault of [`FaultList::full`] plus both faults on each constant
/// driver (which `full` leaves out as untestable by definition).
fn faults_with_constant_lines(circuit: &Circuit) -> FaultList {
    let mut faults: Vec<Fault> = FaultList::full(circuit).iter().map(|(_, f)| f).collect();
    for (id, node) in circuit.iter() {
        if matches!(node.kind(), GateKind::Const0 | GateKind::Const1) {
            faults.extend([Fault::output(id, false), Fault::output(id, true)]);
        }
    }
    FaultList::from_faults(faults)
}

/// A random reconvergent circuit with planted constant lines: `Const0` /
/// `Const1` drivers, a 12-input AND (a line the screen almost never sees
/// at 1, so the enumeration has to decide it), and per recipe op either a
/// random gate over earlier nodes, a planted tautology or contradiction
/// (`OR(x, NOT x)`, `AND(x, NOT x)`, `XOR(x, x)`, `XNOR(x, x)`) on an
/// earlier node, or a gate with a constant side input.
fn redundancy_circuit(
    num_inputs: usize,
    rare_offset: usize,
    ops: &[(usize, usize, usize, usize)],
) -> Circuit {
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut b = CircuitBuilder::named("planted_constants");
    let inputs: Vec<NodeId> = (0..num_inputs).map(|i| b.input(format!("i{i}"))).collect();
    let mut nodes = inputs.clone();
    let k0 = b.const0();
    let k1 = b.const1();
    nodes.extend([k0, k1]);
    let rare: Vec<NodeId> = (0..12)
        .map(|j| inputs[(rare_offset + j) % num_inputs])
        .collect();
    nodes.push(b.gate_auto(GateKind::And, &rare).expect("valid gate"));
    for &(op, x, y, z) in ops {
        let pick = |k: usize| nodes[k % nodes.len()];
        let node = match op % 10 {
            7 => {
                let x = pick(x);
                let nx = b.gate_auto(GateKind::Not, &[x]).expect("valid gate");
                nodes.push(nx);
                match y % 4 {
                    0 => b.gate_auto(GateKind::Or, &[x, nx]),
                    1 => b.gate_auto(GateKind::And, &[nx, x]),
                    2 => b.gate_auto(GateKind::Xor, &[x, x]),
                    _ => b.gate_auto(GateKind::Xnor, &[x, x]),
                }
            }
            8 => {
                let side = if y % 2 == 0 { k0 } else { k1 };
                b.gate_auto(KINDS[z % 6], &[pick(x), side])
            }
            k => {
                let kind = KINDS[(k + z) % KINDS.len()];
                let fanin: Vec<NodeId> = match kind {
                    GateKind::Not | GateKind::Buf => vec![pick(x)],
                    _ if z % 3 == 0 => vec![pick(x), pick(y), pick(x + y + z)],
                    _ => vec![pick(x), pick(y)],
                };
                b.gate_auto(kind, &fanin)
            }
        };
        nodes.push(node.expect("valid gate"));
    }
    let gates = &nodes[num_inputs + 2..];
    for &g in &gates[gates.len().saturating_sub(4)..] {
        b.mark_output(g);
    }
    b.build().expect("valid circuit")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The screened, cone-local proof flags exactly the faults the
    /// per-line exact oracle proves, at every support bound.
    #[test]
    fn redundancy_proof_matches_the_exact_oracle(
        num_inputs in 12usize..18,
        rare_offset in 0usize..18,
        max_support in 0usize..16,
        ops in proptest::collection::vec((0usize..10, 0usize..64, 0usize..64, 0usize..64), 4..40),
    ) {
        let circuit = redundancy_circuit(num_inputs, rare_offset, &ops);
        let faults = faults_with_constant_lines(&circuit);
        let (flags, enumerated) =
            wrt::estimate::constant_line_proof(&circuit, &faults, max_support);
        prop_assert_eq!(flags.len(), faults.len());
        // The constant drivers never toggle, so the enumeration always runs.
        prop_assert!(enumerated >= 2);
        for ((_, fault), &flag) in faults.iter().zip(&flags) {
            prop_assert_eq!(
                flag,
                oracle_redundant(&circuit, fault, max_support),
                "{:?} at support bound {}",
                fault,
                max_support
            );
        }
    }
}

#[test]
fn a_constant_line_is_proven_exactly_up_to_the_support_bound() {
    // t = OR(x, NOT x) with x a 12-input AND: constant 1 on 12 inputs.
    let circuit = redundancy_circuit(12, 0, &[(7, 14, 0, 0)]);
    let t = NodeId::from_index(circuit.num_nodes() - 1);
    let faults = FaultList::from_faults(vec![Fault::output(t, true), Fault::output(t, false)]);
    for (bound, proven) in [(11, false), (12, true), (13, true)] {
        let flags = wrt::estimate::constant_line_faults(&circuit, &faults, bound);
        assert_eq!(flags, vec![proven, false], "support bound {bound}");
        assert_eq!(
            flags[0],
            oracle_redundant(&circuit, faults.as_slice()[0], bound)
        );
    }
}

#[test]
fn redundancy_anchors_on_the_registry_and_tiled_circuits() {
    // Registry circuits and tiled_10000_16 have no constant line within
    // the experiment bound; tiled_50000_7 has exactly six.
    let mut names: Vec<&str> = wrt::workloads::WORKLOAD_NAMES.to_vec();
    names.extend(["tiled_10000_16", "tiled_50000_7"]);
    for name in names {
        let circuit = wrt::workloads::by_name(name).expect("workload builds");
        let collapsed = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
        let flags = wrt::estimate::constant_line_faults(
            &circuit,
            &collapsed,
            wrt::estimate::REDUNDANCY_SUPPORT_LIMIT,
        );
        let redundant = flags.iter().filter(|&&f| f).count();
        let expected = if name == "tiled_50000_7" { 6 } else { 0 };
        assert_eq!(redundant, expected, "{name}");
        let kept = wrt::estimate::experiment_faults(&circuit);
        assert_eq!(kept.len(), collapsed.len() - redundant, "{name}");
    }
}
