//! Fault collapsing: equivalence classes and dominance reduction.

use wrt_circuit::{Circuit, GateKind, NodeId};

use crate::fault::{Fault, FaultSite};
use crate::list::{FaultId, FaultList};

/// Structural equivalence classes over a [`FaultList`].
///
/// Two faults are *equivalent* when every test detects either both or
/// neither.  The classical local rules are applied transitively:
///
/// * a controlling value at any input of AND/NAND/OR/NOR is equivalent to
///   the corresponding output fault (e.g. AND input s-a-0 ≡ output s-a-0,
///   NAND input s-a-0 ≡ output s-a-1);
/// * NOT/BUF input faults are equivalent to the (inverted/equal) output
///   fault;
/// * on a fanout-free line, the branch (pin) fault is equivalent to the
///   stem fault.
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
/// use wrt_fault::{EquivalenceClasses, FaultList};
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let full = FaultList::full(&c);
/// let classes = EquivalenceClasses::compute(&c, &full);
/// // a s-a-0, b s-a-0 (stems + pins) and y s-a-0 all collapse together.
/// assert!(classes.num_classes() < full.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EquivalenceClasses {
    /// Dense class id per fault index; classes are numbered in order of
    /// their first (smallest-id) member.
    class_of: Vec<u32>,
    /// CSR member lists: class `c` holds
    /// `members[member_offsets[c]..member_offsets[c + 1]]`, ascending.
    member_offsets: Vec<u32>,
    members: Vec<FaultId>,
    /// The representative (first member) fault of each class, in class
    /// order.
    representatives: Vec<Fault>,
}

/// Marks a fault site absent from the list in the dense site index.
const ABSENT: u32 = u32::MAX;

impl EquivalenceClasses {
    /// Computes equivalence classes of `list` over `circuit`.
    pub fn compute(circuit: &Circuit, list: &FaultList) -> Self {
        let n = list.len();
        // Dense site index: output fault (node, v) at `2 node + v`, pin
        // fault (gate, pin, v) at `2 (num_nodes + edge) + v` with edge
        // `fanin_offset(gate) + pin`.  A fault listed twice maps to its
        // last occurrence; sites off the circuit are never looked up.
        let num_nodes = circuit.num_nodes();
        let output_slot = |node: NodeId, v: bool| 2 * node.index() + usize::from(v);
        let pin_slot = |gate: NodeId, pin: usize, v: bool| {
            2 * (num_nodes + circuit.fanin_offset(gate) + pin) + usize::from(v)
        };
        let mut index = vec![ABSENT; 2 * (num_nodes + circuit.num_edges())];
        for (i, fault) in list.as_slice().iter().enumerate() {
            let slot = match fault.site {
                FaultSite::Output(node) if node.index() < num_nodes => {
                    output_slot(node, fault.stuck_value)
                }
                FaultSite::InputPin { gate, pin }
                    if gate.index() < num_nodes && pin < circuit.fanin(gate).len() =>
                {
                    pin_slot(gate, pin, fault.stuck_value)
                }
                _ => continue,
            };
            index[slot] = i as u32;
        }

        let mut uf = UnionFind::new(n);
        let mut union = |a: usize, b: usize| {
            if index[a] != ABSENT && index[b] != ABSENT {
                uf.union(index[a] as usize, index[b] as usize);
            }
        };
        for (gid, node) in circuit.iter() {
            // Branch ≡ stem on fanout-free lines.  A primary output is an
            // extra observation point on the stem, so a PO driving one
            // gate is *not* fanout-free: its stem fault is observable at
            // the pad even when the branch fault is not.
            for (pin, &driver) in node.fanin().iter().enumerate() {
                if circuit.fanout(driver).len() == 1 && !circuit.is_output(driver) {
                    for v in [false, true] {
                        union(pin_slot(gid, pin, v), output_slot(driver, v));
                    }
                }
            }
            // Gate-local rules: (pin value, equivalent output value).
            let rules: &[(bool, bool)] = match node.kind() {
                GateKind::And => &[(false, false)],
                GateKind::Nand => &[(false, true)],
                GateKind::Or => &[(true, true)],
                GateKind::Nor => &[(true, false)],
                GateKind::Not => &[(false, true), (true, false)],
                GateKind::Buf => &[(false, false), (true, true)],
                _ => &[],
            };
            for &(pin_value, out_value) in rules {
                for pin in 0..node.fanin().len() {
                    union(pin_slot(gid, pin, pin_value), output_slot(gid, out_value));
                }
            }
        }

        // Number classes by first member, then lay members out per class.
        let mut class_of_root = vec![ABSENT; n];
        let mut class_of = Vec::with_capacity(n);
        let mut member_offsets = vec![0u32];
        let mut representatives = Vec::new();
        for (i, fault) in list.as_slice().iter().enumerate() {
            let root = uf.find(i);
            if class_of_root[root] == ABSENT {
                class_of_root[root] = representatives.len() as u32;
                representatives.push(*fault);
                member_offsets.push(0);
            }
            let class = class_of_root[root];
            class_of.push(class);
            member_offsets[class as usize + 1] += 1;
        }
        for c in 0..representatives.len() {
            member_offsets[c + 1] += member_offsets[c];
        }
        let mut fill = member_offsets.clone();
        let mut members = vec![FaultId::from_index(0); n];
        for (i, &class) in class_of.iter().enumerate() {
            let slot = &mut fill[class as usize];
            members[*slot as usize] = FaultId::from_index(i);
            *slot += 1;
        }
        EquivalenceClasses {
            class_of,
            member_offsets,
            members,
            representatives,
        }
    }

    /// Number of equivalence classes.
    pub fn num_classes(&self) -> usize {
        self.representatives.len()
    }

    /// Whether two faults of the original list are equivalent.
    pub fn equivalent(&self, a: FaultId, b: FaultId) -> bool {
        self.class_of[a.index()] == self.class_of[b.index()]
    }

    /// The members of the class containing `id`, in ascending id order.
    pub fn class_members(&self, id: FaultId) -> &[FaultId] {
        let class = self.class_of[id.index()] as usize;
        let (lo, hi) = (self.member_offsets[class], self.member_offsets[class + 1]);
        &self.members[lo as usize..hi as usize]
    }

    /// One representative fault per class, as a new [`FaultList`].
    ///
    /// The representative is the member with the smallest original id,
    /// and the list is in ascending representative id; because fault
    /// lists enumerate drivers before sinks, this prefers faults closer to
    /// the primary inputs.
    pub fn representatives(&self) -> FaultList {
        FaultList::from_faults(self.representatives.clone())
    }
}

/// Dominance reduction: removes gate-output faults whose detection is
/// implied by an input-pin fault remaining in the list.
///
/// For an AND gate, any test for `input s-a-1` also detects
/// `output s-a-1`, so the output fault is *dominated* and can be dropped
/// from a detection-oriented fault list (similarly NAND output s-a-0,
/// OR output s-a-0, NOR output s-a-1).  Dominance does **not** preserve
/// detection probabilities — the dominating fault is easier to detect — so
/// the optimizer uses equivalence collapsing only; dominance is offered for
/// coverage-oriented simulation work.
pub fn dominance_collapse(circuit: &Circuit, list: &FaultList) -> FaultList {
    let has = |f: Fault| list.id_of(f).is_some();
    list.filtered(|f| {
        let FaultSite::Output(node) = f.site else {
            return true;
        };
        let kind = circuit.node(node).kind();
        let pins = circuit.node(node).fanin().len();
        if pins < 2 {
            return true; // 1-input gates are handled by equivalence
        }
        let dominated = match (kind, f.stuck_value) {
            (GateKind::And, true) => Some(true),   // dominated by input s-a-1
            (GateKind::Nand, false) => Some(true), // by input s-a-1
            (GateKind::Or, false) => Some(false),  // by input s-a-0
            (GateKind::Nor, true) => Some(false),  // by input s-a-0
            _ => None,
        };
        match dominated {
            Some(pin_value) => {
                // Keep the output fault unless some justifying pin fault
                // is present in the list.
                !(0..pins).any(|p| has(Fault::input_pin(node, p, pin_value)))
            }
            None => true,
        }
    })
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    #[test]
    fn and_gate_collapses_to_classic_count() {
        // Single 2-input AND: full universe has 12 faults (3 lines * 2 + 2
        // pins * 2 = wait: stems a,b,y = 6, pins y.0,y.1 = 4 -> 10).
        // Classic collapsed count for a 2-input gate with free lines: 4
        // classes on the gate (in1 s-a-1, in2 s-a-1, out s-a-1 group?):
        // {a0,y.in0-0,b0?...}. We assert the well-known result: n+2 classes
        // for an n-input AND including its input stems = 4 for n=2.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let full = FaultList::full(&c);
        assert_eq!(full.len(), 10);
        let classes = EquivalenceClasses::compute(&c, &full);
        // {a s-a-0, y.in0 s-a-0, b s-a-0, y.in1 s-a-0, y s-a-0},
        // {a s-a-1, y.in0 s-a-1}, {b s-a-1, y.in1 s-a-1}, {y s-a-1}
        assert_eq!(classes.num_classes(), 4);
        let reps = classes.representatives();
        assert_eq!(reps.len(), 4);
    }

    #[test]
    fn inverter_chain_collapses_to_two() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nm = NOT(a)\ny = NOT(m)\n").unwrap();
        let full = FaultList::full(&c);
        let classes = EquivalenceClasses::compute(&c, &full);
        // Everything collapses onto {s-a-0 at a, ...} and {s-a-1 at a, ...}.
        assert_eq!(classes.num_classes(), 2);
    }

    #[test]
    fn equivalence_is_symmetric_and_transitive_here() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let full = FaultList::full(&c);
        let classes = EquivalenceClasses::compute(&c, &full);
        let a0 = full.id_of(Fault::output(c.node_id("a").unwrap(), false)).unwrap();
        let y1 = full.id_of(Fault::output(c.node_id("y").unwrap(), true)).unwrap();
        let b0 = full.id_of(Fault::output(c.node_id("b").unwrap(), false)).unwrap();
        assert!(classes.equivalent(a0, y1));
        assert!(classes.equivalent(y1, b0));
        assert!(classes.equivalent(a0, b0));
        assert!(classes.class_members(a0).len() >= 3);
    }

    #[test]
    fn fanout_branches_do_not_collapse_with_stem() {
        // `a` fans out to two gates; branch faults must stay separate from
        // the stem fault.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n",
        )
        .unwrap();
        let full = FaultList::full(&c);
        let classes = EquivalenceClasses::compute(&c, &full);
        let a1 = full.id_of(Fault::output(c.node_id("a").unwrap(), true)).unwrap();
        let y = c.node_id("y").unwrap();
        let ypin1 = full.id_of(Fault::input_pin(y, 0, true)).unwrap();
        assert!(!classes.equivalent(a1, ypin1));
    }

    #[test]
    fn dominance_drops_and_output_sa1() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let full = FaultList::full(&c);
        let reduced = dominance_collapse(&c, &full);
        let y = c.node_id("y").unwrap();
        assert!(reduced.id_of(Fault::output(y, true)).is_none());
        assert!(reduced.id_of(Fault::output(y, false)).is_some());
        assert_eq!(reduced.len(), full.len() - 1);
    }

    #[test]
    fn dominance_keeps_output_when_no_pin_fault_present() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let list = FaultList::from_faults(vec![Fault::output(y, true)]);
        let reduced = dominance_collapse(&c, &list);
        assert_eq!(reduced.len(), 1);
    }

    #[test]
    fn xor_gates_have_no_local_collapse() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let full = FaultList::full(&c);
        let classes = EquivalenceClasses::compute(&c, &full);
        // Only branch≡stem on the fanout-free lines collapses: stems a,b
        // merge with pins, y stems stay alone: classes = a0,a1,b0,b1,y0,y1.
        assert_eq!(classes.num_classes(), 6);
    }
}
