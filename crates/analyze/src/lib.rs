//! Simulation-free static analysis of gate-level netlists.
//!
//! The estimation and simulation crates answer "how likely is this fault
//! to be detected" by propagating probabilities or patterns.  This crate
//! answers the *structural* questions that need no simulation at all:
//!
//! * [`Scoap`] — SCOAP testability measures \[Go79\]: integer CC0/CC1
//!   controllability and CO observability in one forward + one backward
//!   sweep, with a per-fault difficulty cost
//!   ([`Scoap::fault_cost`]) whose saturated value is a structural
//!   redundancy certificate;
//! * the [`Lint`] engine — named structural checks: combinational loops
//!   and undriven nets (text level, reusing the parser's detectors), plus
//!   floating inputs, dead gates, and constant-valued gates (circuit
//!   level, via SCOAP degeneracy);
//! * [`census`] — a fanout-free-region and reconvergent-fanout census
//!   that bounds where COP's signal probabilities are exact versus
//!   heuristic;
//! * integration seeds — [`scoap_seed_weights`] gives the optimizer a
//!   biased starting point, and the ATPG crate consumes [`Scoap`] for
//!   backtrace guidance (`Podem::with_backtrace_costs`).
//!
//! [`analyze`] bundles all of it into one report for the `wrt analyze`
//! CLI subcommand.
//!
//! # Example
//!
//! ```
//! use wrt_circuit::parse_bench;
//! use wrt_analyze::{analyze, Scoap};
//!
//! # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
//! let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")?;
//! let scoap = Scoap::compute(&c);
//! assert_eq!(scoap.cc0(c.node_id("y").unwrap()), 3);
//! let report = analyze(&c);
//! assert!(report.findings.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod census;
mod lint;
mod report;
mod scoap;
mod seed;

pub use census::{census, StructureCensus};
pub use lint::{
    builtin_lints, lint_bench_text, lint_circuit, ConstantGateLint, DeadGateLint, Finding,
    FloatingInputLint, Lint, Severity,
};
pub use report::{analyze, AnalysisReport, ScoapSummary};
pub use scoap::{scoap_costs, Scoap, SCOAP_INF, SCOAP_MAX};
pub use seed::scoap_seed_weights;
