//! The repository benchmark: the paper's flow on the registry circuits,
//! the conventional flow on a 10k-gate netlist, and a mixed served load,
//! with a traced per-layer breakdown.  `src/main.rs` is the command;
//! these modules are what it and the tests share.

pub mod calibrate;
pub mod flow;
pub mod layers;
pub mod serve_mix;
pub mod stats;
pub mod trace;
