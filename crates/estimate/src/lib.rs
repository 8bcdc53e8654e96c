//! Signal- and detection-probability estimation for combinational circuits.
//!
//! The paper's procedure is built "on the assumption that there is a tool
//! available computing or estimating fault detection probabilities
//! efficiently" (§1) — PROTEST \[Wu85\] in the original, with the remark that
//! PREDICT or STAFAN "will presumably work as well".  This crate provides
//! that tool layer with several interchangeable engines:
//!
//! * [`CopEngine`] — analytic controllability/observability propagation
//!   (COP-style, the default: fast, handles detection probabilities as
//!   small as `2^-64` that no sampling method can see);
//! * [`IncrementalCop`] — the same model with an incremental,
//!   cone-restricted evaluation strategy (bit-identical estimates) that
//!   answers the optimizer's single-coordinate PREPARE queries in
//!   O(fanout cone) instead of O(circuit); coordinate moves are deferred
//!   in a pending overlay and resolved in shared materialization passes
//!   ([`IncrementalCop::with_commit_batch`]), which is what keeps wide-
//!   and global-cone circuits fast;
//! * [`CopBaseline`] / [`SessionCop`] — an immutable COP solution shared
//!   across server sessions, with per-session what-if ECO queries that
//!   virtually replace gate kinds;
//! * [`HybridEngine`] — a PREDICT-style estimator: exact probabilities
//!   for signals with small input support, COP elsewhere \[ABS86\];
//! * [`StafanEngine`] — STAFAN-style statistical counting on a fault-free
//!   bit-parallel sample \[AgJa84\];
//! * [`MonteCarloEngine`] — direct PPSFP fault-simulation sampling;
//! * [`ExactEngine`] — exhaustive weighted enumeration (small circuits,
//!   ground truth for tests);
//! * [`BddEngine`] — exact symbolic computation via reduced ordered BDDs
//!   (the Parker–McCluskey exact problem \[McPa75\], practical up to
//!   medium circuits);
//! * [`CuttingBounds`] — guaranteed lower/upper signal-probability bounds
//!   via the cutting algorithm \[BDS84\].
//!
//! plus exact redundancy identification ([`constant_line_faults`]) in the
//! spirit of PROTEST's "exact value 0 or 1 … is a proof of redundancy",
//! and the experiment fault list built on it ([`experiment_faults`]).
//!
//! `CopEngine`, `IncrementalCop` and `CopBaseline` hold one COP solution
//! type, and the two incremental clients share one stamped copy-on-write
//! overlay over it, so a weight move and a gate-kind override run
//! through the same walk and the same node helpers as the full passes.
//! `HybridEngine`'s COP fallback evaluates nodes through the same
//! recurrence, and every COP-model estimator (STAFAN's counted rates
//! included) scores a fault through one activation × observability
//! formula.
//!
//! # Example
//!
//! ```
//! use wrt_circuit::parse_bench;
//! use wrt_fault::FaultList;
//! use wrt_estimate::{CopEngine, DetectionProbabilityEngine};
//!
//! # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
//! let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
//! let faults = FaultList::primary_inputs(&c);
//! let probs = CopEngine::new().estimate(&c, &faults, &[0.5, 0.5]);
//! assert_eq!(probs.len(), faults.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod bdd;
mod cop;
mod cutting;
mod engine;
mod exact;
mod hybrid;
mod incremental;
mod overlay;
mod rank;
mod redundancy;
mod shared;
mod stafan;

pub use bdd::{exact_signal_probabilities_bdd, BddEngine, BddManager, BddOverflow};
pub use cop::{observabilities_cop, signal_probabilities_cop};
pub use cutting::{signal_probability_bounds, CuttingBounds, ProbabilityInterval};
pub use engine::{
    CopEngine, DetectionProbabilityEngine, ExactEngine, MonteCarloEngine, StafanEngine,
};
pub use exact::{exact_detection_probability, exact_signal_probability};
pub use hybrid::HybridEngine;
pub use incremental::{IncrementalCop, IncrementalStats};
pub use rank::spearman;
pub use redundancy::{
    constant_line_faults, constant_line_proof, experiment_faults, REDUNDANCY_SUPPORT_LIMIT,
};
pub use shared::{CopBaseline, EcoMutation, EcoStats, SessionCop};
pub use stafan::StafanCounts;
