//! One COP solution and one stamped copy-on-write overlay over it.
//!
//! Both incremental COP clients edit a fixed solution virtually:
//! [`crate::IncrementalCop`] moves input weights (the optimizer's PREPARE
//! queries and its deferred moves), [`crate::SessionCop`] replaces gate
//! kinds (what-if ECO queries).  Either way the answer is the baseline
//! [`CopSolution`] plus a sparse set of recomputed values, held in one
//! [`CopOverlay`]:
//!
//! * a slot is live iff its stamp equals the overlay epoch, so starting
//!   a new overlay is O(1) ([`CopOverlay::next_epoch`]); when the epoch
//!   wraps, every stamp is reset, so a stale slot can never read as live;
//! * one stamp covers a node's observability *and* its pin
//!   observabilities, which are always recomputed together;
//! * every lookup reads overlay-or-baseline, and every recomputation goes
//!   through the same helpers as the full passes ([`node_probability`],
//!   [`stem_observability`], [`pin_sensitivity`]), so the values
//!   are bit-identical to a full recompute, not merely close.
//!
//! [`CopOverlay::eager_walk`] is the one committing walk: a forward pass
//! over a dirty node set in topological order, pruning values that land
//! bitwise on the baseline, then a backward push-on-change walk.  The
//! gate kind is a lookup argument: the circuit's own kind for the
//! optimizer (monomorphized away), the overridden kind for an ECO query.

use std::collections::BinaryHeap;

use wrt_circuit::{Circuit, GateKind, NodeId};
use wrt_fault::FaultList;

use crate::cop::{
    node_probability, observabilities_cop, pin_sensitivity, signal_probabilities_cop,
    stem_observability,
};
use crate::engine::cop_fault_probability;

/// The COP solution at one weight vector: signal probabilities, node
/// observabilities and edge-indexed pin observabilities (pin `pin` of
/// gate `g` lives at `circuit.fanin_offset(g) + pin`).
#[derive(Debug, Clone, Default)]
pub(crate) struct CopSolution {
    pub(crate) weights: Vec<f64>,
    pub(crate) p: Vec<f64>,
    pub(crate) obs: Vec<f64>,
    pub(crate) pin_obs: Vec<f64>,
}

impl CopSolution {
    /// One full forward and one full backward pass at `weights`.
    pub(crate) fn compute(circuit: &Circuit, weights: &[f64]) -> Self {
        let p = signal_probabilities_cop(circuit, weights);
        let (obs, pin_obs) = observabilities_cop(circuit, &p);
        CopSolution {
            weights: weights.to_vec(),
            p,
            obs,
            pin_obs,
        }
    }

    /// COP detection probability of every fault in `faults`.
    pub(crate) fn detection_probabilities(
        &self,
        circuit: &Circuit,
        faults: &FaultList,
    ) -> Vec<f64> {
        faults
            .as_slice()
            .iter()
            .map(|fault| {
                cop_fault_probability(
                    circuit,
                    fault,
                    &|n: NodeId| self.p[n.index()],
                    &|n: NodeId| self.obs[n.index()],
                    &|g: NodeId, pin: usize| self.pin_obs[circuit.fanin_offset(g) + pin],
                )
            })
            .collect()
    }
}

/// Node recomputations an overlay performed (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Evals {
    /// Signal-probability recomputations.
    pub(crate) forward: u64,
    /// Observability recomputations (a node's stem and all its pins).
    pub(crate) backward: u64,
}

/// Context of `IncrementalCop`'s query-only lazy walk: probabilities
/// are computed on demand inside `cone`, at `weights` with `coordinate`
/// overridden to `value`, and backward pushes stay inside the query mask
/// (nodes whose `mask` stamp equals `mask_token`).
pub(crate) struct LazyQuery<'a> {
    /// Sorted dirty cone: the only nodes whose probability can differ
    /// from the baseline.
    pub(crate) cone: &'a [NodeId],
    pub(crate) weights: &'a [f64],
    pub(crate) coordinate: usize,
    pub(crate) value: f64,
    pub(crate) mask: &'a [u32],
    pub(crate) mask_token: u32,
}

impl LazyQuery<'_> {
    fn input_prob(&self, k: usize) -> f64 {
        if k == self.coordinate {
            self.value
        } else {
            self.weights[k]
        }
    }

    /// Whether node `idx` is inside the query mask.
    pub(crate) fn in_mask(&self, idx: usize) -> bool {
        self.mask[idx] == self.mask_token
    }
}

/// Whether a gate's pin sensitization depends on sibling probabilities.
///
/// Only the AND/OR families with two or more pins do; XOR, XNOR, NOT and
/// BUF pins sensitize unconditionally, so such gates need backward
/// recomputation only when their own stem observability moves — which
/// push-on-change propagation covers without seeding them.
pub(crate) fn sens_reacts(kind: GateKind, fanin: usize) -> bool {
    matches!(
        kind,
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor
    ) && fanin >= 2
}

/// Stamped copy-on-write scratch over a [`CopSolution`] (see the module
/// docs).  Sized for one circuit; reusable across epochs without
/// reallocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct CopOverlay {
    epoch: u32,
    p: Vec<f64>,
    p_stamp: Vec<u32>,
    obs: Vec<f64>,
    /// One stamp for a node's observability and its pin observabilities.
    obs_stamp: Vec<u32>,
    /// Edge-indexed like [`CopSolution::pin_obs`].
    pin: Vec<f64>,
    queue_stamp: Vec<u32>,
    heap: BinaryHeap<usize>,
    /// Nodes whose probability the eager walk changed this epoch (the
    /// lazy walk's memoized values are not listed).
    pub(crate) touched_p: Vec<NodeId>,
    /// Nodes whose observabilities this epoch recomputed.
    pub(crate) touched_obs: Vec<NodeId>,
    pub(crate) evals: Evals,
}

impl CopOverlay {
    /// Fresh scratch for `circuit` (the eval counters are kept).
    pub(crate) fn reset(&mut self, circuit: &Circuit) {
        let n = circuit.num_nodes();
        *self = CopOverlay {
            p: vec![0.0; n],
            p_stamp: vec![0; n],
            obs: vec![0.0; n],
            obs_stamp: vec![0; n],
            pin: vec![0.0; circuit.num_edges()],
            queue_stamp: vec![0; n],
            evals: self.evals,
            ..CopOverlay::default()
        };
    }

    /// Starts a new, empty overlay epoch.
    pub(crate) fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrap: stamps written 2^32 epochs ago would read as live.
            self.p_stamp.fill(0);
            self.obs_stamp.fill(0);
            self.queue_stamp.fill(0);
            self.epoch = 1;
        }
        self.touched_p.clear();
        self.touched_obs.clear();
    }

    /// Places the epoch counter (tests drive it across the wrap).
    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    pub(crate) fn probability(&self, base: &CopSolution, id: NodeId) -> f64 {
        if self.p_stamp[id.index()] == self.epoch {
            self.p[id.index()]
        } else {
            base.p[id.index()]
        }
    }

    pub(crate) fn observability(&self, base: &CopSolution, id: NodeId) -> f64 {
        if self.obs_stamp[id.index()] == self.epoch {
            self.obs[id.index()]
        } else {
            base.obs[id.index()]
        }
    }

    fn pin_observability(
        &self,
        circuit: &Circuit,
        base: &CopSolution,
        g: NodeId,
        pin: usize,
    ) -> f64 {
        let e = circuit.fanin_offset(g) + pin;
        if self.obs_stamp[g.index()] == self.epoch {
            self.pin[e]
        } else {
            base.pin_obs[e]
        }
    }

    /// The probability this epoch stamped at `idx`, if any.
    pub(crate) fn stamped_probability(&self, idx: usize) -> Option<f64> {
        (self.p_stamp[idx] == self.epoch).then_some(self.p[idx])
    }

    /// Stamps a probability known to be this epoch's value at `idx`.
    pub(crate) fn seed_probability(&mut self, idx: usize, value: f64) {
        self.p[idx] = value;
        self.p_stamp[idx] = self.epoch;
    }

    /// Queues node `idx` for backward recomputation (once per epoch).
    pub(crate) fn enqueue(&mut self, idx: usize) {
        if self.queue_stamp[idx] != self.epoch {
            self.queue_stamp[idx] = self.epoch;
            self.heap.push(idx);
        }
    }

    /// COP detection probability of every fault through the
    /// overlay-or-baseline view.
    pub(crate) fn detection_probabilities(
        &self,
        circuit: &Circuit,
        base: &CopSolution,
        faults: &FaultList,
    ) -> Vec<f64> {
        faults
            .as_slice()
            .iter()
            .map(|fault| {
                cop_fault_probability(
                    circuit,
                    fault,
                    &|n: NodeId| self.probability(base, n),
                    &|n: NodeId| self.observability(base, n),
                    &|g: NodeId, pin: usize| self.pin_observability(circuit, base, g, pin),
                )
            })
            .collect()
    }

    /// Writes this epoch's values into `base` (the caller updates
    /// `base.weights`).
    pub(crate) fn fold_into(&self, circuit: &Circuit, base: &mut CopSolution) {
        for &id in &self.touched_p {
            base.p[id.index()] = self.p[id.index()];
        }
        for &id in &self.touched_obs {
            let idx = id.index();
            base.obs[idx] = self.obs[idx];
            let lo = circuit.fanin_offset(id);
            let hi = lo + circuit.fanin(id).len();
            base.pin_obs[lo..hi].copy_from_slice(&self.pin[lo..hi]);
        }
    }

    /// The committing walk, run in the current epoch: one eager forward
    /// pass over `nodes` (sorted ids = topological order) at the weights
    /// `input_prob` and the gate kinds `kind_of`, stamping only values
    /// that differ bitwise from the baseline; then one backward
    /// push-on-change walk.
    ///
    /// `nodes` must contain every node whose probability can differ from
    /// the baseline (a fanout closure of the edit).  Backward seeds are
    /// the `seeds` (gates whose kind changed: their pin sensitivities move
    /// even when no probability does) plus every gate whose sensitization
    /// reacts to a probability-dirty fanin under its effective kind.
    pub(crate) fn eager_walk(
        &mut self,
        circuit: &Circuit,
        base: &CopSolution,
        nodes: &[NodeId],
        input_prob: &impl Fn(usize) -> f64,
        kind_of: &impl Fn(NodeId) -> GateKind,
        seeds: &[NodeId],
    ) {
        for &id in nodes {
            let idx = id.index();
            let fanin = circuit.node(id).fanin();
            let new_p = node_probability(circuit, id, kind_of(id), fanin, input_prob, &|f| {
                self.probability(base, f)
            });
            self.evals.forward += 1;
            // Prune: an unchanged value dirties nothing downstream.
            if new_p.to_bits() != base.p[idx].to_bits() {
                self.seed_probability(idx, new_p);
                self.touched_p.push(id);
            }
        }
        for k in 0..self.touched_p.len() {
            for &sink in circuit.fanout(self.touched_p[k]) {
                if sens_reacts(kind_of(sink), circuit.fanin(sink).len()) {
                    self.enqueue(sink.index());
                }
            }
        }
        for &seed in seeds {
            self.enqueue(seed.index());
        }
        self.drain_backward(circuit, base, kind_of, None);
    }

    /// Recomputes every queued node's observabilities in descending id
    /// order — the full pass's reverse-topological order, so every sink is
    /// settled before its drivers read it.  A fanin is queued only when a
    /// recomputed pin observability actually moved; `query` restricts
    /// those pushes to the query mask and forces the perturbed
    /// probabilities that sensitization products read.
    pub(crate) fn drain_backward(
        &mut self,
        circuit: &Circuit,
        base: &CopSolution,
        kind_of: &impl Fn(NodeId) -> GateKind,
        query: Option<&LazyQuery<'_>>,
    ) {
        while let Some(idx) = self.heap.pop() {
            let id = NodeId::from_index(idx);
            let new_obs = stem_observability(circuit, id, &|sink, pin| {
                self.pin_observability(circuit, base, sink, pin)
            });
            self.evals.backward += 1;
            let kind = kind_of(id);
            let fanin = circuit.node(id).fanin();
            if let Some(q) = query {
                if sens_reacts(kind, fanin.len()) {
                    // Constant-sensitization gates read no probabilities.
                    for &f in fanin {
                        self.lazy_probability(circuit, base, q, f);
                    }
                }
            }
            self.obs[idx] = new_obs;
            let lo = circuit.fanin_offset(id);
            for pin in 0..fanin.len() {
                let sens = pin_sensitivity(kind, fanin, pin, &|f| self.probability(base, f));
                self.pin[lo + pin] = new_obs * sens;
            }
            self.obs_stamp[idx] = self.epoch;
            self.touched_obs.push(id);
            for (pin, &f) in fanin.iter().enumerate() {
                let fi = f.index();
                if self.pin[lo + pin].to_bits() != base.pin_obs[lo + pin].to_bits()
                    && query.is_none_or(|q| q.in_mask(fi))
                {
                    self.enqueue(fi);
                }
            }
        }
    }

    /// Makes the perturbed signal probability of `target` readable through
    /// the overlay, computing it on demand.
    ///
    /// Nodes outside the query cone cannot depend on any perturbed input
    /// and read the baseline; cone nodes are recomputed (memoized per
    /// epoch) from their fanins with an explicit post-order stack,
    /// through the same helper as the full pass.
    pub(crate) fn lazy_probability(
        &mut self,
        circuit: &Circuit,
        base: &CopSolution,
        q: &LazyQuery<'_>,
        target: NodeId,
    ) {
        if self.p_stamp[target.index()] == self.epoch || q.cone.binary_search(&target).is_err() {
            return;
        }
        let mut stack = vec![(target, false)];
        while let Some((id, expanded)) = stack.pop() {
            let idx = id.index();
            if self.p_stamp[idx] == self.epoch {
                continue;
            }
            let node = circuit.node(id);
            if expanded {
                let new_p = node_probability(
                    circuit,
                    id,
                    node.kind(),
                    node.fanin(),
                    &|k| q.input_prob(k),
                    &|f| self.probability(base, f),
                );
                self.evals.forward += 1;
                self.seed_probability(idx, new_p);
            } else {
                stack.push((id, true));
                for &f in node.fanin() {
                    if self.p_stamp[f.index()] != self.epoch && q.cone.binary_search(&f).is_ok() {
                        stack.push((f, false));
                    }
                }
            }
        }
    }
}
