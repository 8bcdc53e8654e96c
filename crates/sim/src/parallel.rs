//! The fault-simulation driver: streaming, fault-sharded, budgeted and
//! panic-isolated PPSFP.
//!
//! PPSFP is embarrassingly parallel across faults: every fault's detection
//! words depend only on the fault-free block values and the fault's own
//! cone.  The driver partitions the fault list into cone-locality-aware
//! shards ([`FaultPartition`]), gives each shard a worker thread owning its
//! own event-driven [`EventSimulator`] and compacted [`FaultWorklist`], and
//! streams pattern blocks to all workers in bounded chunks.  `threads = 1`
//! is one shard.  The dense [`FaultSimulator`] runs here only as the
//! second replay of a poisoned shard.
//!
//! Design:
//!
//! * **One pattern stream, many fault shards.**  The main thread draws
//!   blocks from the (inherently sequential, seed-deterministic) pattern
//!   source and broadcasts reference-counted chunks over bounded channels;
//!   every worker simulates *all* patterns against *its* faults.  Results
//!   are merged by fault id, so the outcome is bit-identical to the dense
//!   reference ([`crate::fault_coverage`], [`crate::detection_counts`]) —
//!   same `detected_at`, same counts — for any thread count and width.
//! * **Duplicated good simulation.**  Each worker re-runs the fault-free
//!   simulation of a block for its own scratch state.  That multiplies the
//!   (cheap, `O(gates)`) good simulation by the shard count but keeps
//!   workers completely independent — no shared mutable state, no locks.
//! * **Compacted worklists + early exit.**  With fault dropping, a worker
//!   swap-removes detected faults and stops consuming chunks once its
//!   worklist drains; the producer stops generating as soon as every
//!   worker has hung up.
//! * **Budget check-ins at chunk boundaries.**  Every run carries a
//!   [`Budget`] ([`Budget::unlimited`] when the caller has none); a trip
//!   always leaves a well-formed prefix of the pattern stream.
//! * **Panic isolation.**  A dead worker's shard is replayed serially (see
//!   [`ShardRecovery`]) instead of aborting the run.
//!
//! `std::thread::scope` keeps everything dependency-free and lets workers
//! borrow the circuit and fault list directly.
//!
//! # Canonical eval units
//!
//! The eval axis of the budget is counted in *canonical* units: one eval
//! per circuit node per pattern of fault-free simulation.  That makes
//! `max_evals` a machine- and thread-count-independent measure of the
//! pattern stream, so an eval-budget interruption at the same value
//! yields the *bit-identical* partial result across runs, widths, and
//! thread counts: the budget resolves upfront to a deterministic pattern
//! clip `min(num_patterns, max_evals / num_nodes)`.  The real measured
//! work (which is far lower for the event engine) is still reported via
//! [`SimStats`].
//!
//! Wall-clock deadlines and cancellation trip at chunk boundaries, so
//! their partial results are well-formed prefixes of the pattern stream —
//! but *which* prefix depends on timing, and they are explicitly excluded
//! from the bit-identity claim.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use wrt_circuit::Circuit;
use wrt_fault::{FaultId, FaultList, FaultPartition};
use wrt_robust::failpoint::{self, sites};
use wrt_robust::{
    Budget, BudgetExceeded, DegradeStep, InjectedFailure, Ladder, Progress, RunOutcome,
};

use crate::coverage::CoverageResult;
use crate::event::{
    count_set_bits, first_set_bit, superblock_split, with_block_words, EventSimulator, SimOptions,
    SimStats, SuperBlock,
};
use crate::fault_sim::{FaultSimulator, FaultWorklist};
use crate::patterns::{PatternBlock, PatternSource};

/// Pattern blocks per broadcast chunk (8 Ki patterns): large enough to
/// amortize channel traffic, small enough to bound in-flight memory and
/// to overlap pattern generation with simulation even on short runs.
const CHUNK_BLOCKS: usize = 128;

/// Chunks a worker may have queued; the producer blocks beyond that, so
/// at most a few chunks are alive at once regardless of pattern count.
const CHANNEL_DEPTH: usize = 2;

/// A run of consecutive pattern blocks starting at pattern `start`.
#[derive(Debug)]
struct Chunk {
    start: u64,
    blocks: Vec<PatternBlock>,
}

/// What the driver had to do to bring a run to completion.
///
/// A clean run has zero everything.  When a shard worker dies — a real
/// panic or an injected one — the driver requeues that shard's fault
/// worklist for bounded serial replay (the event engine first, then the
/// dense engine); only faults whose shard failed every retry end up in
/// [`ShardRecovery::unresolved`].
#[derive(Debug, Clone, Default)]
pub struct ShardRecovery {
    /// Worker threads that panicked (original fan-out plus replays).
    pub worker_panics: usize,
    /// Shard replay attempts performed.
    pub replays: usize,
    /// Degradation steps taken ([`DegradeStep::ShardRequeue`], plus
    /// [`DegradeStep::EventToDense`] when the second replay ran dense).
    pub ladder: Ladder,
    /// Faults whose shard exhausted its retries; their entries in the
    /// merged result are unchanged from the initial value (undetected /
    /// zero counts) and must not be interpreted as simulated.
    pub unresolved: Vec<FaultId>,
}

impl ShardRecovery {
    /// Whether every fault's result is accounted for (recovered runs
    /// included — only [`ShardRecovery::unresolved`] faults are lost).
    pub fn fully_recovered(&self) -> bool {
        self.unresolved.is_empty()
    }

    /// Whether the run needed no recovery at all.
    pub fn is_clean(&self) -> bool {
        self.worker_panics == 0 && self.replays == 0 && self.ladder.is_empty()
    }
}

/// A budgeted coverage run's payload: the (possibly partial) coverage,
/// the merged work counters, and the recovery record.
#[derive(Debug, Clone)]
pub struct RobustCoverage {
    /// Detection results over the patterns actually simulated.
    pub result: CoverageResult,
    /// Merged machine-independent work counters.
    pub stats: SimStats,
    /// What recovery, if any, the run needed.
    pub recovery: ShardRecovery,
}

/// A budgeted detection-counts run's payload.
#[derive(Debug, Clone)]
pub struct RobustCounts {
    /// Per-fault detection counts over the patterns actually simulated.
    pub counts: Vec<u64>,
    /// Patterns actually simulated (the denominator for frequencies).
    pub num_patterns: u64,
    /// Merged machine-independent work counters.
    pub stats: SimStats,
    /// What recovery, if any, the run needed.
    pub recovery: ShardRecovery,
}

/// Number of worker threads to use when the caller passes `threads = 0`:
/// the machine's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Minimum faults per shard when the caller lets us pick the thread
/// count: below this, fan-out overhead dominates any parallel win.
const MIN_FAULTS_PER_SHARD: usize = 16;

/// Resolves a requested thread count against a fault-list size:
/// `0` becomes the machine's available parallelism capped so each
/// auto-chosen shard gets at least a minimum number of faults; explicit
/// counts are honored as given.  Driver results are identical for every
/// thread count — only the wall clock differs — so callers embedding the
/// driver (e.g. Monte-Carlo estimators) can use this to budget threads
/// without changing outputs.
pub fn recommended_threads(requested: usize, num_faults: usize) -> usize {
    if requested == 0 {
        available_threads()
            .min(num_faults / MIN_FAULTS_PER_SHARD)
            .max(1)
    } else {
        requested
    }
}

/// What one fault accumulates over the pattern stream: its first
/// detecting pattern (coverage) or its number of detecting patterns
/// (counts).
trait Tally: Copy + Default + Send {
    /// Folds in one pass's detection lanes; `start` is the pattern index
    /// of lane bit 0.
    fn record<const W: usize>(&mut self, start: u64, lanes: &[u64; W]);
}

impl Tally for Option<u64> {
    fn record<const W: usize>(&mut self, start: u64, lanes: &[u64; W]) {
        if self.is_none() {
            *self = first_set_bit(lanes).map(|bit| start + u64::from(bit));
        }
    }
}

impl Tally for u64 {
    fn record<const W: usize>(&mut self, _start: u64, lanes: &[u64; W]) {
        *self += u64::from(count_set_bits(lanes));
    }
}

/// A shard worker: consumes the chunk stream for one fault sublist and
/// returns one tally per sublist fault plus the shard's work counters.
type Worker<'a, T> = dyn Fn(FaultList, Receiver<Arc<Chunk>>) -> (Vec<T>, SimStats) + Sync + 'a;

/// Dense-engine worker — the second replay of a poisoned shard: one
/// [`FaultSimulator`] per shard, one 64-pattern block per pass.
fn dense_worker<T: Tally>(
    circuit: &Circuit,
    sublist: FaultList,
    rx: Receiver<Arc<Chunk>>,
    drop: bool,
) -> (Vec<T>, SimStats) {
    let mut sim = FaultSimulator::new(circuit, &sublist);
    let mut worklist = FaultWorklist::full(sublist.len());
    let mut local = vec![T::default(); sublist.len()];
    'chunks: while let Ok(chunk) = rx.recv() {
        let mut done = chunk.start;
        for block in &chunk.blocks {
            if drop && worklist.is_empty() {
                // Hang up: the producer stops feeding this shard.
                break 'chunks;
            }
            sim.detect_block_worklist(&block.words, block.mask(), &mut worklist, drop, |i, w| {
                local[i].record(done, &[w]);
            });
            done += u64::from(block.len);
        }
    }
    (local, sim.stats())
}

/// Uids of circuits whose event workers panic on start: the test hook for
/// the replay ladder, so a shard's primary run and its event replay both
/// die and only the dense replay can recover it.  Keyed on the
/// process-unique [`Circuit::uid`], so tests running in parallel on other
/// circuits never trip it; non-test builds do not contain it.
#[cfg(test)]
static POISONED_EVENT_CIRCUITS: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());

/// Event-engine worker, the driver's inner loop: one [`EventSimulator`] per
/// shard over the broadcast chunks' `W`-word superblocks.
///
/// Superblock boundaries come from [`superblock_split`] — extend only
/// across full blocks — and `CHUNK_BLOCKS` is a multiple of every
/// supported width, so worker grouping coincides with
/// [`SuperBlock::refill_draw`]'s grouping of the sequential stream.
fn event_worker<const W: usize, T: Tally>(
    circuit: &Circuit,
    sublist: FaultList,
    rx: Receiver<Arc<Chunk>>,
    drop: bool,
) -> (Vec<T>, SimStats) {
    #[cfg(test)]
    if POISONED_EVENT_CIRCUITS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .contains(&circuit.uid())
    {
        panic!("injected event-worker panic");
    }
    let mut sim = EventSimulator::<W>::new(circuit, &sublist);
    let mut worklist = FaultWorklist::full(sublist.len());
    let mut local = vec![T::default(); sublist.len()];
    let mut sb = SuperBlock::<W>::empty(circuit.num_inputs());
    'chunks: while let Ok(chunk) = rx.recv() {
        let mut done = chunk.start;
        let mut idx = 0;
        while idx < chunk.blocks.len() {
            if drop && worklist.is_empty() {
                // Hang up: the producer stops feeding this shard.
                break 'chunks;
            }
            let take = superblock_split(&chunk.blocks[idx..], W);
            sb.refill_from_blocks(&chunk.blocks[idx..idx + take]);
            sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, drop, |i, w| {
                local[i].record(done, &w);
            });
            done += u64::from(sb.len);
            idx += take;
        }
    }
    (local, sim.stats())
}

/// Draws blocks from `source` and broadcasts them to `senders` in bounded
/// chunks until `num_patterns` patterns are out, every receiver hung up,
/// or `check_in` (called with the patterns streamed so far, at every
/// chunk boundary) trips.  Returns the patterns streamed and the tripped
/// axis, if any.
fn stream_chunks(
    mut source: impl PatternSource,
    num_patterns: u64,
    mut senders: Vec<SyncSender<Arc<Chunk>>>,
    check_in: impl Fn(u64) -> Result<(), BudgetExceeded>,
) -> (u64, Option<BudgetExceeded>) {
    let mut done = 0u64;
    while done < num_patterns && !senders.is_empty() {
        // Check-ins happen at chunk boundaries only, so a trip always
        // leaves a well-formed prefix: every worker has seen exactly the
        // chunks streamed so far.
        if let Err(reason) = check_in(done) {
            return (done, Some(reason));
        }
        let start = done;
        let mut blocks = Vec::with_capacity(CHUNK_BLOCKS);
        while blocks.len() < CHUNK_BLOCKS && done < num_patterns {
            let limit = (num_patterns - done).min(64) as u32;
            let block = source.next_block(limit);
            done += u64::from(block.len);
            blocks.push(block);
        }
        let chunk = Arc::new(Chunk { start, blocks });
        // A send fails when the worker dropped its receiver (worklist
        // drained): stop feeding it, keep the others going.
        senders.retain(|tx| tx.send(Arc::clone(&chunk)).is_ok());
    }
    (done, None)
}

/// Re-runs one poisoned shard serially: a fresh worker thread fed the
/// full (deterministic) pattern stream again, over `num_patterns`: the
/// eval clip, or the prefix streamed before a budget trip.  Returns `None`
/// if the replay worker also panicked.
fn replay_shard<T: Send>(
    sublist: FaultList,
    source: impl PatternSource,
    num_patterns: u64,
    worker: &Worker<'_, T>,
) -> Option<(Vec<T>, SimStats)> {
    std::thread::scope(|scope| {
        let (tx, rx) = sync_channel(CHANNEL_DEPTH);
        let handle = scope.spawn(move || worker(sublist, rx));
        // No check-ins: the replay must reproduce the primary stream
        // length exactly, and recovery is never cut short by the budget.
        stream_chunks(source, num_patterns, vec![tx], |_| Ok(()));
        handle.join().ok()
    })
}

/// The merged outcome of one driver run.
struct Driven<T> {
    values: Vec<T>,
    /// Patterns the run covers — the eval clip unless a budget axis
    /// tripped at a chunk boundary.
    streamed: u64,
    stats: SimStats,
    recovery: ShardRecovery,
}

/// The driver: validates `opts`, resolves the eval clip and thread count,
/// fans the fault list out over shard workers running the event inner
/// loop at the configured width, streams the pattern blocks under
/// `budget`, and merges each worker's per-shard tallies back by fault id.
///
/// # Panic isolation
///
/// A worker panic (or an injected spawn/merge failure from an armed
/// fail-point session) does not abort the run: the poisoned shard is
/// requeued for serial replay against a fresh clone of the pattern
/// source — first on the event engine, then once more on the dense engine
/// — which reproduces the lost results bit-identically, because every
/// worker consumes the same deterministic stream.  Shards that fail every
/// retry surface their faults in [`ShardRecovery::unresolved`] instead of
/// panicking.
// One argument past the lint's threshold: the public entry points'
// arguments plus nothing else.
#[allow(clippy::too_many_arguments)]
fn drive<T: Tally>(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    drop: bool,
    threads: usize,
    opts: SimOptions,
    budget: &Budget,
) -> RunOutcome<Driven<T>> {
    opts.validate().expect("invalid SimOptions");
    // Canonical eval unit: one fault-free node evaluation per pattern.
    let evals_per_pattern = (circuit.num_nodes() as u64).max(1);
    let target = budget.max_evals().map_or(num_patterns, |max| {
        (max / evals_per_pattern).min(num_patterns)
    });
    let mut driven = Driven {
        values: vec![T::default(); faults.len()],
        streamed: target,
        stats: SimStats::default(),
        recovery: ShardRecovery::default(),
    };
    let mut tripped = None;
    if !faults.is_empty() {
        let primary: &Worker<'_, T> = &|sublist, rx| {
            with_block_words!(opts.block_words, W => {
                event_worker::<W, T>(circuit, sublist, rx, drop)
            })
        };
        let fallback: &Worker<'_, T> = &|sublist, rx| dense_worker(circuit, sublist, rx, drop);
        let threads = recommended_threads(threads, faults.len());
        let partition = FaultPartition::cone_locality(circuit, faults, threads);
        let merge = |driven: &mut Driven<T>, s: usize, local: Vec<T>, stats: &SimStats| {
            driven.stats.merge(stats);
            for (value, &id) in local.into_iter().zip(partition.shard(s)) {
                driven.values[id.index()] = value;
            }
        };
        let replay_source = source.clone();
        let mut poisoned: Vec<usize> = Vec::new();
        let (streamed, trip) = std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(partition.num_shards());
            let mut handles = Vec::with_capacity(partition.num_shards());
            for s in 0..partition.num_shards() {
                let (tx, rx) = sync_channel(CHANNEL_DEPTH);
                senders.push(tx);
                let sublist = partition.sublist(faults, s);
                handles.push(scope.spawn(
                    move || -> Result<(Vec<T>, SimStats), InjectedFailure> {
                        failpoint::hit(sites::WORKER_SPAWN)?;
                        Ok(primary(sublist, rx))
                    },
                ));
            }
            let outcome = stream_chunks(source, target, senders, |done| {
                budget.check_in(done * evals_per_pattern, 0)
            });
            for (s, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    // A real worker panic: isolate and requeue the shard.
                    Err(_panic) => {
                        driven.recovery.worker_panics += 1;
                        poisoned.push(s);
                    }
                    // An injected spawn failure: same recovery, no unwind.
                    Ok(Err(_injected)) => poisoned.push(s),
                    Ok(Ok((local, local_stats))) => {
                        // The merge fail point may be armed to panic; catch it
                        // so an injected merge failure degrades to a shard
                        // replay instead of aborting the run (safe code only —
                        // the workspace forbids unsafe, and the registry lock
                        // tolerates poisoning).
                        match catch_unwind(AssertUnwindSafe(|| failpoint::hit(sites::SHARD_MERGE)))
                        {
                            Ok(Ok(())) => merge(&mut driven, s, local, &local_stats),
                            Err(_panic) => {
                                driven.recovery.worker_panics += 1;
                                poisoned.push(s);
                            }
                            Ok(Err(_injected)) => poisoned.push(s),
                        }
                    }
                }
            }
            outcome
        });
        // Without a trip the stream also ends once every worker has hung
        // up, and a dead worker hangs up at once: a replay must still see
        // the whole clip, or a sole shard that died is replayed over a
        // prefix.  Replays of a drained worklist hang up on their own.
        let streamed = if trip.is_some() { streamed } else { target };
        for s in poisoned {
            driven
                .recovery
                .ladder
                .record(DegradeStep::ShardRequeue, format!("shard {s} poisoned"));
            let mut recovered = false;
            for (attempt, worker) in [primary, fallback].into_iter().enumerate() {
                driven.recovery.replays += 1;
                if attempt == 1 {
                    driven.recovery.ladder.record(
                        DegradeStep::EventToDense,
                        format!("shard {s} second replay"),
                    );
                }
                let sublist = partition.sublist(faults, s);
                if let Some((local, local_stats)) =
                    replay_shard(sublist, replay_source.clone(), streamed, worker)
                {
                    merge(&mut driven, s, local, &local_stats);
                    recovered = true;
                    break;
                }
                driven.recovery.worker_panics += 1;
            }
            if !recovered {
                driven
                    .recovery
                    .unresolved
                    .extend(partition.shard(s).iter().copied());
            }
        }
        driven.streamed = streamed;
        tripped = trip;
    }
    let progress = Progress {
        done: driven.streamed,
        total: Some(num_patterns),
        unit: "patterns",
    };
    // A runtime budget trip wins; otherwise an upfront eval clip reports
    // the eval axis; otherwise the run is complete.
    match tripped.or_else(|| (target < num_patterns).then_some(BudgetExceeded::Evals)) {
        Some(reason) => RunOutcome::Interrupted {
            partial: driven,
            reason,
            progress,
        },
        None => RunOutcome::Complete(driven),
    }
}

/// Weighted-random fault coverage on the driver: first-detection indices
/// over as many of `num_patterns` patterns as `budget` admits, with
/// structured shard recovery.
///
/// `threads = 0` resolves via [`recommended_threads`]; `threads = 1` runs
/// one shard.  Results are bit-identical to the dense reference
/// [`crate::fault_coverage`] for every thread count and width
/// (the property tests in this module prove it); pass
/// [`Budget::unlimited`] for an unbounded run.
///
/// # Panics
///
/// Panics if `opts` fails [`SimOptions::validate`] (programmer error —
/// no flag sets the width).
// One argument past the lint's threshold: inner-loop options and budget
// both belong to the call.
#[allow(clippy::too_many_arguments)]
pub fn fault_coverage_robust(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    drop: bool,
    threads: usize,
    opts: SimOptions,
    budget: &Budget,
) -> RunOutcome<RobustCoverage> {
    drive(
        circuit,
        faults,
        source,
        num_patterns,
        drop,
        threads,
        opts,
        budget,
    )
    .map(|d| RobustCoverage {
        result: CoverageResult::new(d.values, d.streamed),
        stats: d.stats,
        recovery: d.recovery,
    })
}

/// Per-fault detection counts (no dropping) on the driver: the
/// Monte-Carlo hot path of the paper's loop, whose frequencies feed the
/// `p_f(X)` estimates.  See [`fault_coverage_robust`] for the budget,
/// thread and recovery semantics; counts are bit-identical to
/// [`crate::detection_counts`].
///
/// # Panics
///
/// Panics if `opts` fails [`SimOptions::validate`].
pub fn detection_counts_robust(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    threads: usize,
    opts: SimOptions,
    budget: &Budget,
) -> RunOutcome<RobustCounts> {
    drive(
        circuit,
        faults,
        source,
        num_patterns,
        false,
        threads,
        opts,
        budget,
    )
    .map(|d| RobustCounts {
        counts: d.values,
        num_patterns: d.streamed,
        stats: d.stats,
        recovery: d.recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SUPPORTED_BLOCK_WORDS;
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::WeightedPatterns;
    use crate::test_support::{counts, coverage};
    use std::time::Duration;
    use wrt_circuit::parse_bench;

    fn adder() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap()
    }

    #[test]
    fn sharded_coverage_matches_serial_bit_for_bit() {
        let c = adder();
        let faults = FaultList::full(&c);
        for drop in [false, true] {
            let serial = fault_coverage(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 11),
                500,
                drop,
            );
            for threads in [1, 2, 3, 4, 16] {
                for opts in [SimOptions::event(1), SimOptions::event(4)] {
                    let (sharded, _) = coverage(
                        &c,
                        &faults,
                        WeightedPatterns::equiprobable(3, 11),
                        500,
                        drop,
                        threads,
                        opts,
                    );
                    assert_eq!(
                        serial.detected_at(),
                        sharded.detected_at(),
                        "drop = {drop}, threads = {threads}, {opts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_serial_on_adder_with_thread_invariant_stats() {
        let c = adder();
        let faults = FaultList::full(&c);
        let serial = fault_coverage(&c, &faults, WeightedPatterns::equiprobable(3, 7), 500, true);
        for opts in [SimOptions::event(1), SimOptions::event(4)] {
            let (one, one_stats) = coverage(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 7),
                500,
                true,
                1,
                opts,
            );
            assert_eq!(serial.detected_at(), one.detected_at(), "{opts:?}");
            assert!(one_stats.fault_blocks > 0);
            assert!(one_stats.node_evals > 0);
            // Sharding splits the fault list, never a fault's work: every
            // counter is the same at any thread count.
            for threads in [2, 3, 5] {
                let (sharded, stats) = coverage(
                    &c,
                    &faults,
                    WeightedPatterns::equiprobable(3, 7),
                    500,
                    true,
                    threads,
                    opts,
                );
                assert_eq!(serial.detected_at(), sharded.detected_at());
                assert_eq!(one_stats, stats, "threads = {threads}, {opts:?}");
            }
        }
    }

    #[test]
    fn counts_match_serial_at_every_width() {
        let c = adder();
        let faults = FaultList::full(&c);
        let serial = detection_counts(&c, &faults, WeightedPatterns::equiprobable(3, 9), 700);
        for opts in SUPPORTED_BLOCK_WORDS.map(SimOptions::event) {
            for threads in [2, 3] {
                let (sharded, _) = counts(
                    &c,
                    &faults,
                    WeightedPatterns::equiprobable(3, 9),
                    700,
                    threads,
                    opts,
                );
                assert_eq!(serial, sharded, "threads = {threads}, {opts:?}");
            }
        }
    }

    #[test]
    fn sharded_counts_match_serial() {
        let c = adder();
        let faults = FaultList::full(&c);
        let serial = detection_counts(&c, &faults, WeightedPatterns::equiprobable(3, 23), 1000);
        for threads in [0, 1, 2, 5, 64] {
            let (sharded, _) = counts(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 23),
                1000,
                threads,
                SimOptions::default(),
            );
            assert_eq!(serial, sharded, "threads = {threads}");
        }
    }

    #[test]
    fn single_fault_and_empty_lists_are_fine() {
        let c = adder();
        let one = FaultList::from_faults(vec![wrt_fault::Fault::output(
            c.node_id("s").unwrap(),
            false,
        )]);
        let (r, _) = coverage(
            &c,
            &one,
            WeightedPatterns::equiprobable(3, 1),
            128,
            true,
            4,
            SimOptions::default(),
        );
        assert_eq!(r.num_faults(), 1);
        let empty = FaultList::from_faults(vec![]);
        let (r, _) = coverage(
            &c,
            &empty,
            WeightedPatterns::equiprobable(3, 1),
            128,
            true,
            4,
            SimOptions::default(),
        );
        assert_eq!(r.num_faults(), 0);
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn empty_faults_and_zero_patterns_are_fine() {
        let c = adder();
        let empty = FaultList::from_faults(vec![]);
        let (r, _) = coverage(
            &c,
            &empty,
            WeightedPatterns::equiprobable(3, 1),
            64,
            true,
            0,
            SimOptions::default(),
        );
        assert_eq!(r.num_faults(), 0);
        // Zero patterns: a complete, empty run on both inner loops.
        let faults = FaultList::full(&c);
        for opts in [SimOptions::event(1), SimOptions::event(4)] {
            let (r, stats) = coverage(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 1),
                0,
                true,
                2,
                opts,
            );
            assert_eq!(r.num_patterns(), 0);
            assert!(r.detected_at().iter().all(Option::is_none));
            assert_eq!(stats, SimStats::default());
            let (n, stats) = counts(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 1),
                0,
                2,
                opts,
            );
            assert!(n.iter().all(|&k| k == 0));
            assert_eq!(stats, SimStats::default());
        }
    }

    #[test]
    fn zero_threads_resolves_to_capped_parallelism() {
        assert!(available_threads() >= 1);
        // Auto mode never overshards tiny fault lists...
        assert_eq!(recommended_threads(0, 3), 1);
        let big = 100_000 * MIN_FAULTS_PER_SHARD;
        assert_eq!(recommended_threads(0, big), available_threads());
        // ...but explicit requests are honored as given.
        assert_eq!(recommended_threads(3, 3), 3);
    }

    #[test]
    fn more_patterns_than_one_chunk() {
        // > CHUNK_BLOCKS * 64 patterns forces several broadcast chunks.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let faults = FaultList::full(&c);
        let n = (CHUNK_BLOCKS as u64) * 64 + 321;
        let serial = detection_counts(&c, &faults, WeightedPatterns::equiprobable(2, 7), n);
        for threads in [1, 3] {
            let (sharded, _) = counts(
                &c,
                &faults,
                WeightedPatterns::equiprobable(2, 7),
                n,
                threads,
                SimOptions::event(4),
            );
            assert_eq!(serial, sharded, "threads = {threads}");
        }
    }

    #[test]
    fn unlimited_budget_matches_legacy_bit_for_bit() {
        let c = adder();
        let faults = FaultList::full(&c);
        let legacy = fault_coverage(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 11),
            500,
            true,
        );
        for threads in [1, 2, 4] {
            for opts in [SimOptions::event(1), SimOptions::event(4)] {
                let (robust, _) = coverage(
                    &c,
                    &faults,
                    WeightedPatterns::equiprobable(3, 11),
                    500,
                    true,
                    threads,
                    opts,
                );
                assert_eq!(legacy.detected_at(), robust.detected_at());
            }
        }
    }

    #[test]
    fn eval_budget_resolves_to_a_deterministic_pattern_clip() {
        let c = adder();
        let faults = FaultList::full(&c);
        let nodes = c.num_nodes() as u64;
        // Budget for exactly 100 patterns of canonical work.
        let budget = Budget::unlimited().with_max_evals(100 * nodes);
        let clipped = fault_coverage(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            100,
            false,
        );
        let mut partials = Vec::new();
        for threads in [1, 2, 3, 8] {
            for opts in [SimOptions::event(1), SimOptions::event(4)] {
                let outcome = fault_coverage_robust(
                    &c,
                    &faults,
                    WeightedPatterns::equiprobable(3, 5),
                    100_000,
                    false,
                    threads,
                    opts,
                    &budget,
                );
                assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
                let rc = outcome.into_value();
                // Identical partial result across thread counts and
                // widths: exactly the first 100 patterns.
                assert_eq!(rc.result.detected_at(), clipped.detected_at());
                partials.push(rc.result.detected_at().to_vec());
            }
        }
        assert!(partials.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn eval_budget_smaller_than_one_pattern_yields_empty_partial() {
        let c = adder();
        let faults = FaultList::full(&c);
        // Fewer evals than one pattern costs: zero patterns simulated.
        let budget = Budget::unlimited().with_max_evals(1);
        let outcome = detection_counts_robust(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            1000,
            2,
            SimOptions::default(),
            &budget,
        );
        assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
        let rc = outcome.into_value();
        assert_eq!(rc.num_patterns, 0);
        assert!(rc.counts.iter().all(|&n| n == 0));
    }

    #[test]
    fn zero_time_limit_interrupts_with_empty_partial() {
        let c = adder();
        let faults = FaultList::full(&c);
        let budget = Budget::unlimited().with_time_limit(Duration::ZERO);
        for opts in [SimOptions::event(1), SimOptions::event(4)] {
            let outcome = fault_coverage_robust(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 5),
                1000,
                true,
                2,
                opts,
                &budget,
            );
            assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Deadline));
            let rc = outcome.into_value();
            assert_eq!(rc.result.num_patterns(), 0);
            assert!(rc.result.detected_at().iter().all(Option::is_none));
        }
    }

    #[test]
    fn zero_deadline_interrupts_with_a_clean_prefix() {
        let c = adder();
        let faults = FaultList::full(&c);
        let budget = Budget::unlimited().with_time_limit(Duration::ZERO);
        for threads in [1, 2, 4] {
            let outcome = fault_coverage_robust(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 5),
                1000,
                true,
                threads,
                SimOptions::event(1),
                &budget,
            );
            assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Deadline));
            let rc = outcome.into_value();
            assert_eq!(rc.result.num_patterns(), 0);
            assert!(rc.result.detected_at().iter().all(Option::is_none));
            assert!(rc.recovery.is_clean());

            let outcome = detection_counts_robust(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 5),
                1000,
                threads,
                SimOptions::event(1),
                &budget,
            );
            assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Deadline));
            let rc = outcome.into_value();
            assert_eq!(rc.num_patterns, 0);
            assert!(rc.counts.iter().all(|&n| n == 0));
            assert!(rc.recovery.is_clean());
        }
    }

    #[test]
    fn cancellation_interrupts_at_the_next_chunk_boundary() {
        let c = adder();
        let faults = FaultList::full(&c);
        let mut budget = Budget::unlimited();
        let token = budget.cancel_token();
        token.store(true, std::sync::atomic::Ordering::Relaxed);
        let outcome = fault_coverage_robust(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            1000,
            true,
            2,
            SimOptions::default(),
            &budget,
        );
        assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Cancelled));
    }

    #[test]
    fn empty_fault_list_is_complete_and_clean() {
        let c = adder();
        let empty = FaultList::from_faults(vec![]);
        let outcome = fault_coverage_robust(
            &c,
            &empty,
            WeightedPatterns::equiprobable(3, 1),
            64,
            true,
            4,
            SimOptions::default(),
            &Budget::unlimited(),
        );
        assert!(outcome.is_complete());
        let rc = outcome.into_value();
        assert_eq!(rc.result.num_faults(), 0);
        assert!(rc.recovery.is_clean());
    }

    #[test]
    fn a_sole_dead_shard_is_replayed_over_the_whole_stream() {
        // Several chunks, one shard: the dead primary hangs up at once, so
        // the stream stops early — the replays must still cover all of it.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let faults = FaultList::full(&c);
        let n = (CHUNK_BLOCKS as u64) * 64 * 3 + 5;
        let source = || WeightedPatterns::equiprobable(2, 7);
        let reference = detection_counts(&c, &faults, source(), n);
        POISONED_EVENT_CIRCUITS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(c.uid());
        let outcome = detection_counts_robust(
            &c,
            &faults,
            source(),
            n,
            1,
            SimOptions::default(),
            &Budget::unlimited(),
        );
        assert!(outcome.is_complete());
        let rc = outcome.into_value();
        assert_eq!(rc.num_patterns, n);
        assert_eq!(rc.counts, reference);
        assert_eq!(rc.recovery.replays, 2);
        assert!(rc.recovery.unresolved.is_empty());
    }

    #[test]
    fn dense_replay_recovers_a_shard_whose_event_runs_panic() {
        // A circuit built for this test alone: its uid keys the injection,
        // so workers of tests running in parallel never trip it.
        let c = adder();
        let faults = FaultList::full(&c);
        let source = || WeightedPatterns::equiprobable(3, 17);
        let reference = fault_coverage(&c, &faults, source(), 500, true);
        let reference_counts = detection_counts(&c, &faults, source(), 500);
        let poisoned = || {
            POISONED_EVENT_CIRCUITS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        poisoned().push(c.uid());
        let coverage_run = fault_coverage_robust(
            &c,
            &faults,
            source(),
            500,
            true,
            1,
            SimOptions::default(),
            &Budget::unlimited(),
        );
        let counts_run = detection_counts_robust(
            &c,
            &faults,
            source(),
            500,
            1,
            SimOptions::default(),
            &Budget::unlimited(),
        );
        poisoned().retain(|&uid| uid != c.uid());
        assert!(coverage_run.is_complete() && counts_run.is_complete());
        let coverage_run = coverage_run.into_value();
        let counts_run = counts_run.into_value();
        assert_eq!(coverage_run.result.detected_at(), reference.detected_at());
        assert_eq!(counts_run.counts, reference_counts);
        for recovery in [&coverage_run.recovery, &counts_run.recovery] {
            // The primary event worker and its event replay both died;
            // the dense replay recovered the shard.
            assert_eq!(recovery.worker_panics, 2);
            assert_eq!(recovery.replays, 2);
            let steps: Vec<DegradeStep> = recovery.ladder.steps().iter().map(|(s, _)| *s).collect();
            assert_eq!(steps, [DegradeStep::ShardRequeue, DegradeStep::EventToDense]);
            assert!(recovery.unresolved.is_empty());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::event::SUPPORTED_BLOCK_WORDS;
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::WeightedPatterns;
    use crate::test_support::{arb_circuit, counts, coverage};
    use proptest::prelude::*;

    /// The inner loop at the `idx`-th supported superblock width.
    fn width(idx: usize) -> SimOptions {
        SimOptions::event(SUPPORTED_BLOCK_WORDS[idx])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The driver is bit-identical to the dense reference —
        /// `detected_at` and `counts` — across random circuits, weights,
        /// pattern counts and drop modes, at every superblock width and at
        /// 1, 2 and more threads (shards > faults included).
        #[test]
        fn sharded_is_bit_identical_to_serial(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            many_threads in 3usize..9,
            seed in 0u64..1_000,
            patterns in 1u64..700,
            drop in any::<bool>(),
        ) {
            let faults = FaultList::full(&circuit);
            let source = || WeightedPatterns::new(weights.clone(), seed);
            let serial = fault_coverage(&circuit, &faults, source(), patterns, drop);
            let serial_counts = detection_counts(&circuit, &faults, source(), patterns);
            for width_idx in 0..SUPPORTED_BLOCK_WORDS.len() {
                for threads in [1, 2, many_threads] {
                    let opts = width(width_idx);
                    let (sharded, _) =
                        coverage(&circuit, &faults, source(), patterns, drop, threads, opts);
                    prop_assert_eq!(serial.detected_at(), sharded.detected_at());
                    let (sharded_counts, _) =
                        counts(&circuit, &faults, source(), patterns, threads, opts);
                    prop_assert_eq!(&serial_counts, &sharded_counts);
                }
            }
        }

        /// Bit-identity to the dense reference at a randomly drawn
        /// layout (width, thread count, drop mode), with
        /// `SimStats` identical to the single-threaded run's.
        #[test]
        fn random_layouts_are_bit_identical_to_serial(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            layout in (0usize..2, 1usize..6),
            run in (0u64..1_000, 1u64..700, any::<bool>()),
        ) {
            let (width_idx, threads) = layout;
            let (seed, patterns, drop) = run;
            let opts = width(width_idx);
            let faults = FaultList::full(&circuit);
            let source = || WeightedPatterns::new(weights.clone(), seed);

            let dense = fault_coverage(&circuit, &faults, source(), patterns, drop);
            let (sharded, stats) =
                coverage(&circuit, &faults, source(), patterns, drop, threads, opts);
            prop_assert_eq!(dense.detected_at(), sharded.detected_at());
            prop_assert!(stats.fault_blocks > 0 || faults.is_empty());
            let (_, one_stats) = coverage(&circuit, &faults, source(), patterns, drop, 1, opts);
            prop_assert_eq!(one_stats, stats);

            let dense_counts = detection_counts(&circuit, &faults, source(), patterns);
            let (sharded_counts, _) =
                counts(&circuit, &faults, source(), patterns, threads, opts);
            prop_assert_eq!(&dense_counts, &sharded_counts);
        }

        /// The driver over an unlimited budget is complete, clean and
        /// bit-identical to the dense reference, at each width.
        #[test]
        fn unlimited_budget_is_complete_clean_and_identical(
            circuit in arb_circuit(),
            seed in 0u64..200,
            threads in 1usize..5,
            width_idx in 0usize..2,
        ) {
            let faults = FaultList::primary_inputs(&circuit);
            let serial = fault_coverage(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                300, true,
            );
            let outcome = fault_coverage_robust(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                300, true, threads, width(width_idx), &Budget::unlimited(),
            );
            prop_assert!(outcome.is_complete());
            let rc = outcome.into_value();
            prop_assert!(rc.recovery.is_clean());
            prop_assert_eq!(serial.detected_at(), rc.result.detected_at());
        }

        /// Shard counts far beyond the fault count degenerate gracefully
        /// (singleton shards), still bit-identical.
        #[test]
        fn oversharding_is_identical(
            circuit in arb_circuit(),
            seed in 0u64..100,
            width_idx in 0usize..2,
        ) {
            let faults = FaultList::primary_inputs(&circuit);
            let serial = fault_coverage(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                200, true,
            );
            let (sharded, _) = coverage(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                200, true, faults.len() * 3 + 7, width(width_idx),
            );
            prop_assert_eq!(serial.detected_at(), sharded.detected_at());
        }

        /// An eval-budget interruption yields the bit-identical partial
        /// at 1, 2 and 5 threads and at both widths: exactly the
        /// dense reference over the clipped pattern prefix.
        #[test]
        fn eval_budget_partials_are_identical_across_thread_counts(
            circuit in arb_circuit(),
            seed in 0u64..1_000,
            clip in 0u64..600,
            width_idx in 0usize..2,
            drop in any::<bool>(),
        ) {
            let faults = FaultList::full(&circuit);
            let nodes = circuit.num_nodes() as u64;
            let budget = Budget::unlimited().with_max_evals(clip * nodes);
            let reference = fault_coverage(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                clip, drop,
            );
            let reference_counts = detection_counts(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                clip,
            );
            for threads in [1, 2, 5] {
                let outcome = fault_coverage_robust(
                    &circuit, &faults,
                    WeightedPatterns::equiprobable(4, seed),
                    600, drop, threads, width(width_idx), &budget,
                );
                prop_assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
                let rc = outcome.into_value();
                prop_assert_eq!(rc.result.num_patterns(), clip);
                prop_assert_eq!(rc.result.detected_at(), reference.detected_at());

                let outcome = detection_counts_robust(
                    &circuit, &faults,
                    WeightedPatterns::equiprobable(4, seed),
                    600, threads, width(width_idx), &budget,
                );
                prop_assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
                let rc = outcome.into_value();
                prop_assert_eq!(rc.num_patterns, clip);
                prop_assert_eq!(&rc.counts, &reference_counts);
            }
        }
    }
}
