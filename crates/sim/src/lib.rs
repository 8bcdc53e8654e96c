//! Bit-parallel logic simulation and stuck-at fault simulation.
//!
//! This crate is the "fault simulation" substrate of the paper's
//! evaluation (Tables 2 and 4, Fig. 2): a 64-way bit-parallel logic
//! simulator ([`LogicSim`]), weighted random pattern sources
//! ([`WeightedPatterns`]), and a parallel-pattern single-fault-propagation
//! (PPSFP) fault simulator ([`FaultSimulator`]) with optional fault
//! dropping and coverage-curve recording.
//!
//! All randomness is deterministic and seed-driven ([`Xoshiro256`]), so
//! every experiment in the workspace is bit-reproducible.
//!
//! # One driver, one inner loop, one dense reference
//!
//! Every fault simulation outside tests runs through **one driver**,
//! [`fault_coverage_robust`] / [`detection_counts_robust`], whose only
//! inner loop is the **event** engine ([`EventSimulator`]): event-driven
//! sparse propagation over `W`-word superblocks ([`SuperBlock`],
//! `W ∈ {1, 4}`, default 4 via [`SimOptions`]).  Only nodes actually
//! reached by the fault effect are evaluated, and each evaluation covers
//! `64 * W` patterns.  See [`EventSimulator`] for the ready-set
//! invariants.
//!
//! The driver partitions the collapsed fault list into
//! cone-locality-aware, cost-balanced shards (`wrt_fault::FaultPartition`),
//! gives each shard a scoped worker thread over a compacted
//! [`FaultWorklist`], and streams the seed-deterministic pattern blocks to
//! all workers in bounded chunks.  It checks a [`wrt_robust::Budget`] at
//! every chunk boundary (pass `Budget::unlimited()` for an unbounded run),
//! replays the shard of a panicked worker serially ([`ShardRecovery`]),
//! and reports machine-independent work counters ([`SimStats`]) — the
//! metrics `BENCH_sim.json` tracks.  `threads = 1` is a single shard.
//!
//! The **dense** engine ([`FaultSimulator`]: one `u64` block, per-fault
//! cone walk) is not selectable.  It is the serial **reference**
//! [`fault_coverage`] / [`detection_counts`]: the driver's results equal
//! theirs bit for bit for every thread count and superblock width — a
//! property-tested invariant that the rest of the workspace relies on.
//! It also serves per-block callers ([`FaultSimulator::detect_block`]:
//! ATPG fault dropping, BILBO, multiple faults) and is the driver's
//! second replay of a poisoned shard.
//!
//! # Example
//!
//! ```
//! use wrt_circuit::parse_bench;
//! use wrt_fault::FaultList;
//! use wrt_sim::{fault_coverage, WeightedPatterns};
//!
//! # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
//! let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
//! let faults = FaultList::checkpoints(&c);
//! let source = WeightedPatterns::equiprobable(c.num_inputs(), 42);
//! let result = fault_coverage(&c, &faults, source, 256, true);
//! assert_eq!(result.coverage(), 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod coverage;
mod event;
mod fault_sim;
mod logic;
mod multiple;
mod parallel;
mod patterns;
mod rng;
#[cfg(test)]
mod test_support;

pub use coverage::{CoverageCurve, CoverageResult};
pub use event::{
    count_set_bits, first_set_bit, superblock_split, EventSimulator, FaultEvalProfile, SimOptions,
    SimStats, SuperBlock, SUPPORTED_BLOCK_WORDS,
};
pub use fault_sim::{detection_counts, fault_coverage, FaultSimulator, FaultWorklist};
pub use parallel::{
    available_threads, detection_counts_robust, fault_coverage_robust, recommended_threads,
    RobustCounts, RobustCoverage, ShardRecovery,
};
pub use multiple::{detect_multiple, multiple_fault_coverage, random_multiples};
pub use logic::{eval_gate_lanes, eval_gate_words, simulate_pattern, LogicSim, WideLogicSim};
pub use patterns::{ExhaustivePatterns, PatternBlock, PatternSource, WeightedPatterns};
pub use rng::Xoshiro256;
