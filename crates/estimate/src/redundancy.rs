//! Redundancy identification via exact constant-line proofs.
//!
//! The paper (§1, remark under Table 2): "an estimation with the exact
//! value 0 or 1 of a signal probability by PROTEST is a proof (not an
//! estimation!) of redundancy".  A line whose exact signal probability is
//! 0 under an interior input distribution (`0 < x_i < 1`) is *always* 0,
//! so its stuck-at-0 fault can never be excited and is redundant — and
//! symmetrically for probability 1 / stuck-at-1.
//!
//! This module implements that proof for every fault whose line has a
//! small enough input support to enumerate exactly.  It is sound but
//! incomplete: "not in all cases a fixed signal value can be detected this
//! way, and therefore there may be redundancies left" (ibid.).
//!
//! # Screen, then enumerate
//!
//! The proof runs in the order SOCRATES uses \[STS88\]: a cheap random
//! phase decides most lines, and the exponential one runs only on what is
//! left.
//!
//! 1. **Screen.** One good-machine superblock of `64 · SCREEN_LANES`
//!    equiprobable patterns (fixed seed) is simulated, and every node
//!    whose lanes hold both a 0 and a 1 is settled: that line takes both
//!    values under some assignment, so its exact probability lies
//!    strictly between 0 and 1 at any interior distribution, and no
//!    constant-line proof exists for it.  The screen can only *remove*
//!    candidates, never add one, so the flags do not depend on its seed.
//! 2. **Enumerate.** A line that never toggled is decided exactly.  A
//!    stamped depth-first walk over one reused scratch collects its cone
//!    and stops as soon as the input support exceeds `max_support`; the
//!    cone is then evaluated over every assignment of its support,
//!    `64 · SCREEN_LANES` assignments per gate evaluation, in
//!    fixed-size chunks (memory is cone × a constant for any support) and
//!    with an early exit once the line has shown both values.
//!
//! At `x_i = 0.5` every assignment of an `s`-input support weighs exactly
//! `2^-s`, so the weighted sum [`crate::exact_signal_probability`] forms
//! is the dyadic `m · 2^-s`, with `m` the number of assignments setting
//! the line, and is exact in `f64` for `s ≤ 53` (any enumeration that
//! finishes in practice).  Its `p == 0.0` / `p == 1.0` tests are
//! therefore the same as "no assignment sets the line" / "every
//! assignment does", which is what the enumeration here decides; the
//! tier-1 test `redundancy_proof_matches_the_exact_oracle` checks the two
//! against each other.
//!
//! \[STS88\] M. H. Schulz, E. Trischler, T. M. Sarfert, "SOCRATES: A
//! highly efficient automatic test pattern generation system", IEEE
//! TCAD 7(1), 1988.

use std::collections::HashMap;

use wrt_circuit::{Circuit, GateKind, NodeId};
use wrt_fault::{FaultList, FaultSite};
use wrt_sim::{eval_gate_lanes, WideLogicSim, Xoshiro256};

/// The input-support bound of the experiment fault lists' redundancy
/// proof: `2^14` assignments per line that survives the screen.
pub const REDUNDANCY_SUPPORT_LIMIT: usize = 14;

/// Superblock width of the screen and of the enumeration chunks: one gate
/// evaluation covers `64 * SCREEN_LANES` patterns or assignments.
const SCREEN_LANES: usize = 4;

/// Seed of the screen's equiprobable patterns.  Any seed gives the same
/// flags; a fixed one keeps the enumerated-line count reproducible.
const SCREEN_SEED: u64 = 0x5EED_C0DE;

/// Builds the experiment fault list for a circuit: checkpoint faults with
/// equivalence collapsing, minus faults proven redundant by the exact
/// constant-line argument at [`REDUNDANCY_SUPPORT_LIMIT`] — mirroring the
/// paper's "all faults of F must be detectable" and the PROTEST
/// redundancy note under Table 2.
pub fn experiment_faults(circuit: &Circuit) -> FaultList {
    let checkpoints = FaultList::checkpoints(circuit).collapse_equivalent(circuit);
    let redundant = constant_line_faults(circuit, &checkpoints, REDUNDANCY_SUPPORT_LIMIT);
    // Sized exactly: a server keeps one of these per loaded circuit.
    let mut kept = Vec::with_capacity(redundant.iter().filter(|&&r| !r).count());
    kept.extend(
        checkpoints
            .iter()
            .zip(&redundant)
            .filter(|(_, &r)| !r)
            .map(|((_, f), _)| f),
    );
    FaultList::from_faults(kept)
}

/// Marks faults proven redundant because their line is constant.
///
/// Returns one flag per fault (`true` = proven redundant).  Lines whose
/// input support exceeds `max_support` (or 62 inputs) are left unproven
/// (`false`).
pub fn constant_line_faults(
    circuit: &Circuit,
    faults: &FaultList,
    max_support: usize,
) -> Vec<bool> {
    constant_line_proof(circuit, faults, max_support).0
}

/// [`constant_line_faults`] plus the number of distinct lines the proof
/// had to enumerate (the lines the screen could not settle).
pub fn constant_line_proof(
    circuit: &Circuit,
    faults: &FaultList,
    max_support: usize,
) -> (Vec<bool>, usize) {
    let screen = screen(circuit);
    let mut prover = ConeProver::new(max_support);
    // Verdict per surviving line: `Some(v)` = constant `v`.
    let mut verdicts: HashMap<NodeId, Option<bool>> = HashMap::new();
    let flags = faults
        .iter()
        .map(|(_, fault)| {
            let driver = match fault.site {
                FaultSite::Output(n) => n,
                FaultSite::InputPin { gate, pin } => circuit.node(gate).fanin()[pin],
            };
            if seen_values(screen.value(driver)) == (true, true) {
                return false;
            }
            let constant = *verdicts
                .entry(driver)
                .or_insert_with(|| prover.constant_value(circuit, driver));
            // A constant line makes the matching-polarity fault
            // redundant: always-0 proves s-a-0, always-1 proves s-a-1.
            constant == Some(fault.stuck_value)
        })
        .collect();
    (flags, verdicts.len())
}

/// The screen: one superblock of equiprobable patterns through the good
/// machine.
fn screen(circuit: &Circuit) -> WideLogicSim<'_, SCREEN_LANES> {
    let mut rng = Xoshiro256::seed_from(SCREEN_SEED);
    let pi_words: Vec<[u64; SCREEN_LANES]> = (0..circuit.num_inputs())
        .map(|_| std::array::from_fn(|_| rng.next_u64()))
        .collect();
    let mut sim = WideLogicSim::new(circuit);
    sim.run(&pi_words);
    sim
}

/// Whether a line's lanes hold a 1 and whether they hold a 0.
fn seen_values(lanes: [u64; SCREEN_LANES]) -> (bool, bool) {
    let ones = lanes.iter().fold(0, |acc, &w| acc | w);
    let zeros = lanes.iter().fold(0, |acc, &w| acc | !w);
    (ones != 0, zeros != 0)
}

/// Bit `k` of the assignment index within one 64-assignment word, for the
/// six low support bits.
const LOW_BIT_WORDS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Cone-local exhaustive enumeration over one reused, epoch-stamped
/// scratch, so a line costs its cone and never a `num_nodes` pass.
struct ConeProver {
    max_support: usize,
    /// Per node: the epoch that last visited it (allocated on first use).
    stamp: Vec<u32>,
    /// Per node: its position in `cone`, valid when stamped this epoch.
    slot: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    /// The line's cone, sorted into topological (id) order.
    cone: Vec<NodeId>,
    /// Cone-local gate kinds and fanin CSR (`fanin[offsets[i]..offsets[i + 1]]`).
    kinds: Vec<GateKind>,
    offsets: Vec<usize>,
    fanin: Vec<u32>,
    /// One chunk of assignments per cone node.
    lanes: Vec<[u64; SCREEN_LANES]>,
}

impl ConeProver {
    fn new(max_support: usize) -> Self {
        ConeProver {
            // `1 << support` assignments must fit a `u64` index.
            max_support: max_support.min(62),
            stamp: Vec::new(),
            slot: Vec::new(),
            epoch: 0,
            stack: Vec::new(),
            cone: Vec::new(),
            kinds: Vec::new(),
            offsets: Vec::new(),
            fanin: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// `Some(v)` if `line` equals `v` under every assignment of its
    /// support, `None` if it takes both values or its support exceeds
    /// the bound.
    fn constant_value(&mut self, circuit: &Circuit, line: NodeId) -> Option<bool> {
        let support = self.collect_cone(circuit, line)?;
        self.build_local(circuit);
        // A support of fewer than 8 inputs fills the one chunk with
        // repeats of its `2^s` assignments, so no lane needs masking.
        let chunk = 64 * SCREEN_LANES;
        let total = 1u64 << support;
        let (mut seen_one, mut seen_zero) = (false, false);
        for base in (0..total).step_by(chunk) {
            let mut input_bit = 0usize;
            for i in 0..self.cone.len() {
                let w = match self.kinds[i] {
                    GateKind::Input => {
                        let w = input_lanes(input_bit, base);
                        input_bit += 1;
                        w
                    }
                    kind => {
                        let lanes = &self.lanes;
                        eval_gate_lanes(
                            kind,
                            self.fanin[self.offsets[i]..self.offsets[i + 1]]
                                .iter()
                                .map(|&f| lanes[f as usize]),
                        )
                    }
                };
                self.lanes[i] = w;
            }
            // The line is the highest id of its own cone.
            let (one, zero) = seen_values(self.lanes[self.cone.len() - 1]);
            seen_one |= one;
            seen_zero |= zero;
            if seen_one && seen_zero {
                return None;
            }
        }
        Some(seen_one)
    }

    /// Collects `line`'s transitive fanin into `self.cone` (topological
    /// order) and returns its input-support size, or `None` as soon as
    /// the support exceeds the bound.
    fn collect_cone(&mut self, circuit: &Circuit, line: NodeId) -> Option<u32> {
        if self.stamp.is_empty() {
            self.stamp = vec![0; circuit.num_nodes()];
            self.slot = vec![0; circuit.num_nodes()];
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.cone.clear();
        self.stack.clear();
        self.stack.push(line);
        let mut support = 0usize;
        while let Some(n) = self.stack.pop() {
            if std::mem::replace(&mut self.stamp[n.index()], self.epoch) == self.epoch {
                continue;
            }
            self.cone.push(n);
            let node = circuit.node(n);
            if node.kind() == GateKind::Input {
                support += 1;
                if support > self.max_support {
                    return None;
                }
            }
            self.stack.extend(
                node.fanin()
                    .iter()
                    .filter(|f| self.stamp[f.index()] != self.epoch),
            );
        }
        self.cone.sort_unstable();
        Some(support as u32)
    }

    /// Lays the cone out locally: kinds, fanin slots and one lane chunk
    /// per node.
    fn build_local(&mut self, circuit: &Circuit) {
        for (i, n) in self.cone.iter().enumerate() {
            self.slot[n.index()] = i as u32;
        }
        self.kinds.clear();
        self.offsets.clear();
        self.fanin.clear();
        self.offsets.push(0);
        for &n in &self.cone {
            let node = circuit.node(n);
            self.kinds.push(node.kind());
            self.fanin
                .extend(node.fanin().iter().map(|f| self.slot[f.index()]));
            self.offsets.push(self.fanin.len());
        }
        self.lanes.clear();
        self.lanes.resize(self.cone.len(), [0; SCREEN_LANES]);
    }
}

/// The lanes of support bit `k` over the chunk of assignments starting at
/// `base` (a multiple of `64 * SCREEN_LANES`): lane `j`, bit `b` holds bit
/// `k` of assignment `base + 64 j + b`.
fn input_lanes(k: usize, base: u64) -> [u64; SCREEN_LANES] {
    std::array::from_fn(|j| {
        if k < 6 {
            LOW_BIT_WORDS[k]
        } else if (((base >> 6) + j as u64) >> (k - 6)) & 1 == 1 {
            u64::MAX
        } else {
            0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;
    use wrt_fault::Fault;

    #[test]
    fn tautology_line_proves_sa1_redundant() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::output(y, true),  // redundant: y is always 1
            Fault::output(y, false), // detectable
        ]);
        let flags = constant_line_faults(&c, &faults, 16);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn contradiction_line_proves_sa0_redundant() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\nz = AND(a, n)\ny = OR(z, b)\n")
            .unwrap();
        let z = c.node_id("z").unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::output(z, false), // line always 0: s-a-0 redundant
            Fault::output(z, true),
        ]);
        let flags = constant_line_faults(&c, &faults, 16);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn irredundant_circuit_has_no_proofs() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let faults = FaultList::full(&c);
        let flags = constant_line_faults(&c, &faults, 16);
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn oversized_support_is_left_unproven() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![Fault::output(y, true)]);
        let flags = constant_line_faults(&c, &faults, 0);
        assert_eq!(flags, vec![false]);
    }

    #[test]
    fn pin_faults_use_their_driver_line() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nn = NOT(a)\nk = AND(a, n)\ny = OR(k, b)\nz = XOR(k, b)\n",
        )
        .unwrap();
        let y = c.node_id("y").unwrap();
        // Pin 0 of y is driven by the constant-0 line k.
        let faults = FaultList::from_faults(vec![
            Fault::input_pin(y, 0, false),
            Fault::input_pin(y, 0, true),
        ]);
        let flags = constant_line_faults(&c, &faults, 16);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn input_lanes_count_through_every_assignment() {
        // Support bit k of assignment m is (m >> k) & 1, across chunks.
        let chunk = 64 * SCREEN_LANES as u64;
        for base in [0, chunk, 5 * chunk] {
            for k in 0..12 {
                let lanes = input_lanes(k, base);
                for m in 0..chunk {
                    let bit = (lanes[(m / 64) as usize] >> (m % 64)) & 1;
                    assert_eq!(bit, ((base + m) >> k) & 1, "k {k} base {base} m {m}");
                }
            }
        }
    }

    #[test]
    fn a_rare_one_is_found_past_the_first_chunk() {
        // A 12-input AND is 1 on one assignment in 4096 — almost surely
        // never during the screen, and only in the enumeration's last
        // chunk — so it must not be proven constant 0.
        let mut b = wrt_circuit::CircuitBuilder::new();
        let inputs: Vec<NodeId> = (0..12).map(|i| b.input(format!("i{i}"))).collect();
        let y = b.gate_auto(GateKind::And, &inputs).unwrap();
        b.mark_output(y);
        let c = b.build().unwrap();
        let faults = FaultList::from_faults(vec![Fault::output(y, false), Fault::output(y, true)]);
        let (flags, enumerated) = constant_line_proof(&c, &faults, 12);
        assert_eq!(flags, vec![false, false]);
        assert_eq!(enumerated, 1, "the screen cannot settle a rare-toggle line");
        // One input past the bound leaves it to the screen alone.
        let (flags, _) = constant_line_proof(&c, &faults, 11);
        assert_eq!(flags, vec![false, false]);
    }

    #[test]
    fn constant_drivers_prove_their_matching_polarity() {
        let mut b = wrt_circuit::CircuitBuilder::new();
        let a = b.input("a");
        let k0 = b.const0();
        let k1 = b.const1();
        let y = b.and2(a, k1).unwrap();
        let z = b.or2(a, k0).unwrap();
        b.mark_output(y);
        b.mark_output(z);
        let c = b.build().unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::output(k0, false),
            Fault::output(k0, true),
            Fault::output(k1, false),
            Fault::output(k1, true),
        ]);
        assert_eq!(
            constant_line_faults(&c, &faults, 0),
            vec![true, false, false, true]
        );
    }
}
