//! Hybrid analytic engine: exact local cones, COP globally.
//!
//! The paper names "a new version of PREDICT \[ABS86\]" as an alternative
//! ANALYSIS tool; PREDICT's idea is to compute probabilities *exactly
//! inside supergates* and propagate independently between them.  This
//! engine follows that recipe pragmatically: every signal whose input
//! support fits a budget gets its exact probability (weighted cone
//! enumeration); everything else falls back to the COP recurrence over
//! the (partially corrected) fanin probabilities.  Observabilities remain
//! COP.  The result strictly improves on plain COP wherever reconvergence
//! is local — XOR/ECC structures especially — at bounded extra cost.

use wrt_circuit::{Circuit, GateKind, NodeId};
use wrt_fault::{FaultList, FaultSite};

use crate::cop::observabilities_cop;
use crate::engine::DetectionProbabilityEngine;
use crate::exact::exact_signal_probability;

/// COP with exact small-support correction (a PREDICT-style estimator).
#[derive(Debug, Clone)]
pub struct HybridEngine {
    /// Signals with input support up to this size are computed exactly.
    pub support_limit: usize,
}

impl HybridEngine {
    /// Creates the engine; a limit of 12–16 is a good cost/accuracy spot.
    pub fn new(support_limit: usize) -> Self {
        HybridEngine { support_limit }
    }

    /// Signal probabilities: exact where the support budget allows,
    /// COP recurrence elsewhere.
    pub fn signal_probabilities(&self, circuit: &Circuit, input_probs: &[f64]) -> Vec<f64> {
        assert_eq!(input_probs.len(), circuit.num_inputs());
        let mut p = vec![0.0f64; circuit.num_nodes()];
        for (id, node) in circuit.iter() {
            p[id.index()] = match node.kind() {
                GateKind::Input => input_probs[circuit.input_position(id).expect("pi")],
                GateKind::Const0 => 0.0,
                GateKind::Const1 => 1.0,
                kind => exact_signal_probability(circuit, id, input_probs, self.support_limit)
                    .unwrap_or_else(|| cop_step(kind, node.fanin(), &p)),
            };
        }
        p
    }
}

/// One COP recurrence step from already-computed fanin probabilities.
fn cop_step(kind: GateKind, fanin: &[NodeId], p: &[f64]) -> f64 {
    match kind {
        GateKind::And => fanin.iter().map(|f| p[f.index()]).product(),
        GateKind::Nand => 1.0 - fanin.iter().map(|f| p[f.index()]).product::<f64>(),
        GateKind::Or => 1.0 - fanin.iter().map(|f| 1.0 - p[f.index()]).product::<f64>(),
        GateKind::Nor => fanin.iter().map(|f| 1.0 - p[f.index()]).product(),
        GateKind::Xor => {
            (1.0 - fanin
                .iter()
                .map(|f| 1.0 - 2.0 * p[f.index()])
                .product::<f64>())
                / 2.0
        }
        GateKind::Xnor => {
            (1.0 + fanin
                .iter()
                .map(|f| 1.0 - 2.0 * p[f.index()])
                .product::<f64>())
                / 2.0
        }
        GateKind::Not => 1.0 - p[fanin[0].index()],
        GateKind::Buf => p[fanin[0].index()],
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => unreachable!(),
    }
}

impl DetectionProbabilityEngine for HybridEngine {
    fn estimate(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        input_probs: &[f64],
    ) -> Vec<f64> {
        let p = self.signal_probabilities(circuit, input_probs);
        let (obs, pin_obs) = observabilities_cop(circuit, &p);
        faults
            .iter()
            .map(|(_, fault)| {
                let (act, o) = match fault.site {
                    FaultSite::Output(node) => {
                        let c1 = p[node.index()];
                        let act = if fault.stuck_value { 1.0 - c1 } else { c1 };
                        (act, obs[node.index()])
                    }
                    FaultSite::InputPin { gate, pin } => {
                        let driver = circuit.node(gate).fanin()[pin];
                        let c1 = p[driver.index()];
                        let act = if fault.stuck_value { 1.0 - c1 } else { c1 };
                        (act, pin_obs[circuit.fanin_offset(gate) + pin])
                    }
                };
                (act * o).clamp(0.0, 1.0)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "hybrid-exact-local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal_probabilities_cop;
    use wrt_circuit::parse_bench;

    #[test]
    fn corrects_the_classic_cop_error() {
        // y = AND(a, NOT a): COP says 0.25, exact says 0.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nn = NOT(a)\ny = AND(a, n)\nz = OR(y, b)\n")
            .unwrap();
        let engine = HybridEngine::new(8);
        let p = engine.signal_probabilities(&c, &[0.5, 0.5]);
        let y = c.node_id("y").unwrap();
        assert_eq!(p[y.index()], 0.0);
        let cop = signal_probabilities_cop(&c, &[0.5, 0.5]);
        assert_eq!(cop[y.index()], 0.25);
    }

    #[test]
    fn exact_within_budget_everywhere() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
             m = XOR(a, b)\nn = XNOR(b, c)\ny = AND(m, n)\nz = NOR(m, a)\n",
        )
        .unwrap();
        let probs = [0.3, 0.6, 0.8];
        let engine = HybridEngine::new(8);
        let p = engine.signal_probabilities(&c, &probs);
        for id in c.ids() {
            let exact = exact_signal_probability(&c, id, &probs, 10).unwrap();
            assert!(
                (p[id.index()] - exact).abs() < 1e-12,
                "node {id}: {} vs {exact}",
                p[id.index()]
            );
        }
    }

    #[test]
    fn budget_zero_degenerates_to_cop() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n").unwrap();
        let engine = HybridEngine::new(0);
        let p = engine.signal_probabilities(&c, &[0.5]);
        let cop = signal_probabilities_cop(&c, &[0.5]);
        assert_eq!(p, cop);
    }

    #[test]
    fn works_as_a_detection_engine_on_ecc() {
        // On the C499-like circuit, the hybrid engine is at least as close
        // to the BDD-exact values as plain COP, measured on PI faults.
        let c = wrt_workloads::c499ish();
        let faults = wrt_fault::FaultList::primary_inputs(&c);
        let probs = vec![0.5; c.num_inputs()];
        let exact = crate::BddEngine::new(4_000_000).estimate(&c, &faults, &probs);
        let hybrid = HybridEngine::new(12).estimate(&c, &faults, &probs);
        let cop = crate::CopEngine::new().estimate(&c, &faults, &probs);
        let err = |xs: &[f64]| -> f64 {
            xs.iter()
                .zip(&exact)
                .map(|(x, e)| (x - e).abs())
                .sum::<f64>()
                / exact.len() as f64
        };
        assert!(
            err(&hybrid) <= err(&cop) + 1e-12,
            "hybrid {} vs cop {}",
            err(&hybrid),
            err(&cop)
        );
    }
}
