//! Windowed continuous queries: report strategies over the subscription subsystem
//! plus a write-coalescing front for the registry's revision locks.
//!
//! [`SubscriptionManager`](crate::SubscriptionManager) pushes one
//! [`AnswerDelta`] per generation swap. That is the right default,
//! but under a write burst k row-level mutations cost k delta derivations, k swaps and
//! k pushes, and a subscriber has no way to ask for "at most one update per time
//! slice" or "the answer as of the last N generations". This module adds both halves:
//!
//! * **Report strategies** ([`ReportStrategy`]): every subscription carries one.
//!   - [`ReportStrategy::PerGeneration`] — today's behaviour and the default: one
//!     delta per answer-changing swap.
//!   - [`ReportStrategy::Coalesced`] — time-sliced coalescing: answer-changing swaps
//!     fold into one *pending* net delta, flushed when `max_batch` swaps folded or
//!     (checked at drain time — observers run under the writer lock and cannot wait
//!     on timers) `max_delay` elapsed since the first fold. The flushed delta is the
//!     two-pointer diff of the last *reported* answer against the current one, so the
//!     added/removed sets of intermediate churn cancel; a burst that returns to the
//!     reported answer flushes nothing at all.
//!   - [`ReportStrategy::WindowedLastN`] — the reported answer is the union of the
//!     answers at the last N generations of the watched table. Every generation
//!     slides the window: the new answer enters, the oldest expires, and the pushed
//!     delta carries the expiry (rows only the expired generation still supported
//!     disappear N swaps after a deletion, not immediately).
//!
//!   All three strategies report deltas against the same monotone view, so folding
//!   any strategy's stream reproduces, at quiescence (for windows: once the last N
//!   generations share one answer), exactly the per-generation fold and a fresh
//!   execution — the bit-identity pin `tests/window.rs` holds at every parallelism.
//!
//! * **Write pipelining** ([`WriteCoalescer`]): a bounded coalescing queue in front
//!   of each table's revision lock. Concurrent `MUTATE`/`INSERT`/`DELETE` frames
//!   enqueue a [`WriteFrame`] and one caller becomes the batch leader; the leader
//!   drains up to [`MAX_COALESCED_BATCH`] queued frames *after* acquiring the
//!   revision lock (inside [`SnapshotRegistry::commit`]'s change closure, so every
//!   frame queued while the lock was busy folds in), nets them into one
//!   [`Mutation`], and commits it as one [`Change::Mutation`] — one delta derivation,
//!   one swap and one push for the whole burst. The combined
//!   [`ChangeScope::Mutation`](crate::ChangeScope::Mutation) names exactly the netted
//!   relations, so skip proofs keep working; per-frame `inserted`/`deleted` reports
//!   are reconstructed by replaying the frames over the rows they name under the same
//!   set semantics the engine applies.
//!
//! ```text
//!        MUTATE ──┐                       ┌────────────────────────────────┐
//!        INSERT ──┼─► pending frames ──►  │ leader: drain → net Mutation   │
//!        DELETE ──┘   (per table,         │ → one commit → 1 swap          │
//!                      bounded)           └────────────┬───────────────────┘
//!                                                      ▼
//!                                       subscribers: one AnswerDelta
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::time::{Duration, Instant};

use pdqi_relation::Value;

use crate::change::{Change, Mutation};
use crate::parallel::Parallelism;
use crate::registry::{ReviseError, SnapshotRegistry};
use crate::snapshot::EngineSnapshot;
use crate::subscribe::{diff_rows, AnswerDelta};

/// Most frames one [`WriteCoalescer`] batch folds into a single derivation. Frames
/// beyond the bound wait for the next batch — the queue is bounded, a runaway burst
/// cannot grow one derivation (or its combined report replay) without limit.
pub const MAX_COALESCED_BATCH: usize = 128;

/// How a subscription turns answer-changing swaps into pushed deltas. See the
/// [module docs](self) for the semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportStrategy {
    /// One delta per answer-changing swap (the default; PR 6's behaviour).
    #[default]
    PerGeneration,
    /// Fold answer-changing swaps into one pending net delta, flushed after
    /// `max_batch` folds or once `max_delay` elapsed since the first (checked when
    /// the subscriber drains).
    Coalesced {
        /// Flush the pending delta once this much time passed since its first fold.
        max_delay: Duration,
        /// Flush the pending delta once this many swaps folded into it (≥ 1).
        max_batch: u64,
    },
    /// Report the union of the answers at the last `n` generations; expiry deltas
    /// drop rows as the generations that supported them slide out.
    WindowedLastN {
        /// Window width in generations (≥ 1; `1` behaves like per-generation).
        n: usize,
    },
}

impl ReportStrategy {
    /// Coalescing that flushes every `n` answer-changing swaps (`SUBSCRIBE … EVERY n`):
    /// count-sliced, no time bound.
    pub fn every(n: u64) -> Self {
        ReportStrategy::Coalesced { max_delay: Duration::MAX, max_batch: n.max(1) }
    }

    /// Coalescing that flushes once `max_delay` passed since the first undelivered
    /// change (`SUBSCRIBE … COALESCE ms`): time-sliced, no count bound.
    pub fn coalesce(max_delay: Duration) -> Self {
        ReportStrategy::Coalesced { max_delay, max_batch: u64::MAX }
    }

    /// A last-`n`-generations window (`SUBSCRIBE … WINDOW n`).
    pub fn window(n: usize) -> Self {
        ReportStrategy::WindowedLastN { n: n.max(1) }
    }

    /// The strategy with degenerate bounds clamped (zero batch/window → 1).
    pub fn normalised(self) -> Self {
        match self {
            ReportStrategy::Coalesced { max_delay, max_batch } => {
                ReportStrategy::Coalesced { max_delay, max_batch: max_batch.max(1) }
            }
            ReportStrategy::WindowedLastN { n } => ReportStrategy::WindowedLastN { n: n.max(1) },
            ReportStrategy::PerGeneration => ReportStrategy::PerGeneration,
        }
    }
}

impl fmt::Display for ReportStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportStrategy::PerGeneration => f.write_str("per-generation"),
            ReportStrategy::Coalesced { max_delay, max_batch } => {
                if *max_batch == u64::MAX {
                    write!(f, "coalesce {}ms", max_delay.as_millis())
                } else if *max_delay == Duration::MAX {
                    write!(f, "every {max_batch}")
                } else {
                    write!(f, "coalesce {}ms/{}", max_delay.as_millis(), max_batch)
                }
            }
            ReportStrategy::WindowedLastN { n } => write!(f, "window {n}"),
        }
    }
}

/// Report-strategy counters, surfaced next to
/// [`SubscribeStats`](crate::SubscribeStats) by
/// [`SubscriptionManager::window_stats`](crate::SubscriptionManager::window_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Live subscriptions using [`ReportStrategy::Coalesced`].
    pub coalesced_subscribers: usize,
    /// Live subscriptions using [`ReportStrategy::WindowedLastN`].
    pub windowed_subscribers: usize,
    /// Answer-changing swaps folded into pending coalesced deltas instead of being
    /// pushed individually.
    pub folded_swaps: u64,
    /// Pending coalesced deltas flushed with a non-empty net diff (fully cancelled
    /// churn flushes nothing and counts nothing).
    pub coalesced_flushes: u64,
    /// Windowed deltas that dropped rows (a supporting generation slid out, or a
    /// deletion outlived the window).
    pub expiry_deltas: u64,
    /// Pending coalesced deltas dropped because a lagged resync replaced them with
    /// the full answer (they must never replay across a resync).
    pub pending_dropped: u64,
}

/// The manager-level atomics behind [`WindowStats`] (shared by every subscription's
/// [`ReportState`] so counters survive unsubscribes).
#[derive(Debug, Default)]
pub(crate) struct WindowCounters {
    pub(crate) folded_swaps: AtomicU64,
    pub(crate) coalesced_flushes: AtomicU64,
    pub(crate) expiry_deltas: AtomicU64,
    pub(crate) pending_dropped: AtomicU64,
}

/// Per-subscription strategy state: what the subscriber has been told (`reported`),
/// what is pending, and — for windows — the last N per-generation answers.
#[derive(Debug)]
pub(crate) struct ReportState {
    strategy: ReportStrategy,
    /// The answer implied by every event pushed so far: folding the subscriber's
    /// drained stream onto the initial answer yields exactly this row set.
    reported: Vec<Vec<Value>>,
    /// When the first undelivered change folded into the pending coalesced delta.
    pending_since: Option<Instant>,
    /// Answer-changing swaps folded since the last flush.
    pending_swaps: u64,
    /// Last-N per-generation answers, oldest first (windowed strategies only).
    window: VecDeque<(u64, Vec<Vec<Value>>)>,
}

impl ReportState {
    pub(crate) fn new(strategy: ReportStrategy, initial: Vec<Vec<Value>>, generation: u64) -> Self {
        let strategy = strategy.normalised();
        let mut window = VecDeque::new();
        if matches!(strategy, ReportStrategy::WindowedLastN { .. }) {
            window.push_back((generation, initial.clone()));
        }
        ReportState { strategy, reported: initial, pending_since: None, pending_swaps: 0, window }
    }

    pub(crate) fn strategy(&self) -> ReportStrategy {
        self.strategy
    }

    /// Advances the state across one swap of the watched table: `rows` is the
    /// per-generation answer at `generation`, `changed` whether it differs from the
    /// previous generation's. Returns the delta to push now, if any.
    pub(crate) fn advance(
        &mut self,
        generation: u64,
        rows: &[Vec<Value>],
        changed: bool,
        counters: &WindowCounters,
    ) -> Option<AnswerDelta> {
        match self.strategy {
            ReportStrategy::PerGeneration => {
                if !changed {
                    return None;
                }
                self.emit(generation, rows.to_vec(), counters)
            }
            ReportStrategy::Coalesced { max_batch, .. } => {
                if !changed {
                    return None;
                }
                if self.pending_since.is_none() {
                    self.pending_since = Some(Instant::now());
                }
                self.pending_swaps += 1;
                counters.folded_swaps.fetch_add(1, Ordering::Relaxed);
                if self.pending_swaps >= max_batch {
                    self.flush(generation, rows, counters)
                } else {
                    None
                }
            }
            ReportStrategy::WindowedLastN { n } => {
                // Unchanged answers still slide the window: the generation count is
                // what expires old entries, not the answer content.
                self.window.push_back((generation, rows.to_vec()));
                while self.window.len() > n {
                    self.window.pop_front();
                }
                let view = self.union();
                self.emit(generation, view, counters)
            }
        }
    }

    /// Deadline check, run when the subscriber drains: a pending coalesced delta
    /// whose `max_delay` elapsed flushes now.
    pub(crate) fn flush_due(
        &mut self,
        generation: u64,
        rows: &[Vec<Value>],
        counters: &WindowCounters,
    ) -> Option<AnswerDelta> {
        let ReportStrategy::Coalesced { max_delay, .. } = self.strategy else {
            return None;
        };
        if self.pending_since?.elapsed() < max_delay {
            return None;
        }
        self.flush(generation, rows, counters)
    }

    /// The strategy-level current answer: what a fully caught-up subscriber holds.
    pub(crate) fn view(&self, rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        if matches!(self.strategy, ReportStrategy::WindowedLastN { .. }) {
            self.union()
        } else {
            rows.to_vec()
        }
    }

    /// Resynchronises after a lag: any pending coalesced delta is dropped (the full
    /// answer supersedes it — replaying it after the resync would corrupt the fold)
    /// and the reported answer snaps to the current view, which is returned for the
    /// `Lagged` event.
    pub(crate) fn resync(
        &mut self,
        rows: &[Vec<Value>],
        counters: &WindowCounters,
    ) -> Vec<Vec<Value>> {
        if self.pending_since.take().is_some() {
            counters.pending_dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.pending_swaps = 0;
        let view = self.view(rows);
        self.reported = view.clone();
        view
    }

    fn flush(
        &mut self,
        generation: u64,
        rows: &[Vec<Value>],
        counters: &WindowCounters,
    ) -> Option<AnswerDelta> {
        self.pending_since = None;
        self.pending_swaps = 0;
        let delta = self.emit(generation, rows.to_vec(), counters);
        if delta.is_some() {
            counters.coalesced_flushes.fetch_add(1, Ordering::Relaxed);
        }
        delta
    }

    /// Diffs the reported answer against `view` and commits `view` as reported.
    fn emit(
        &mut self,
        generation: u64,
        view: Vec<Vec<Value>>,
        counters: &WindowCounters,
    ) -> Option<AnswerDelta> {
        let (added, removed) = diff_rows(&self.reported, &view);
        self.reported = view;
        if added.is_empty() && removed.is_empty() {
            return None;
        }
        if matches!(self.strategy, ReportStrategy::WindowedLastN { .. }) && !removed.is_empty() {
            counters.expiry_deltas.fetch_add(1, Ordering::Relaxed);
        }
        Some(AnswerDelta { generation, added, removed })
    }

    /// Sorted, de-duplicated union of the window's answers.
    fn union(&self) -> Vec<Vec<Value>> {
        if self.window.len() == 1 {
            return self.window[0].1.clone();
        }
        let set: BTreeSet<&Vec<Value>> = self.window.iter().flat_map(|(_, r)| r.iter()).collect();
        set.into_iter().cloned().collect()
    }
}

/// One queued write: the typed rows of a `MUTATE`/`INSERT`/`DELETE` frame. Within a
/// frame, deletes apply before inserts (the engine's batch rule).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteFrame {
    /// Rows to insert.
    pub inserts: Vec<Vec<Value>>,
    /// Rows to delete (no-ops when absent).
    pub deletes: Vec<Vec<Value>>,
}

impl WriteFrame {
    /// A frame inserting `inserts` and deleting `deletes`.
    pub fn new(inserts: Vec<Vec<Value>>, deletes: Vec<Vec<Value>>) -> Self {
        WriteFrame { inserts, deletes }
    }
}

/// What one [`WriteFrame`] did, after its batch's single derivation swapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The generation the batch's swap published (shared by every frame of the
    /// batch).
    pub generation: u64,
    /// Rows this frame genuinely inserted (set semantics, in arrival order within
    /// the batch).
    pub inserted: usize,
    /// Rows this frame genuinely deleted.
    pub deleted: usize,
    /// How many *other* frames shared the derivation (0 = the frame paid for its
    /// own).
    pub batched_with: usize,
}

/// [`WriteCoalescer`] counters: the pipelining win, observable (`STATS` renders
/// `coalesced_writes=`/`derivations_saved=` from these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteStats {
    /// Write frames accepted into the queue.
    pub frames: u64,
    /// Derivations actually run (batches published).
    pub batches: u64,
    /// Frames that shared their derivation with at least one other frame.
    pub coalesced_writes: u64,
    /// Derivations avoided by folding: `Σ (batch size − 1)` over multi-frame
    /// batches.
    pub derivations_saved: u64,
}

/// A write that could not be applied: the batch's derivation failed. Carries the
/// underlying error's rendering (every frame of a failed batch receives the same
/// error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteError(pub String);

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WriteError {}

/// How long a follower waits on its ticket before re-checking for leadership. Purely
/// a liveness backstop: the leader notifies every ticket it completes.
const FOLLOWER_POLL: Duration = Duration::from_millis(5);

#[derive(Default)]
struct Ticket {
    slot: Mutex<Option<Result<WriteOutcome, WriteError>>>,
    ready: Condvar,
}

impl Ticket {
    fn take(&self) -> Option<Result<WriteOutcome, WriteError>> {
        self.slot.lock().expect("write ticket").take()
    }

    fn fill(&self, result: Result<WriteOutcome, WriteError>) {
        *self.slot.lock().expect("write ticket") = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self, timeout: Duration) {
        let guard = self.slot.lock().expect("write ticket");
        if guard.is_some() {
            return;
        }
        let _ = self.ready.wait_timeout(guard, timeout).expect("write ticket");
    }
}

struct TableQueue {
    pending: Mutex<VecDeque<(WriteFrame, Arc<Ticket>)>>,
    /// Leader election: at most one batch per table is in flight. Held across the
    /// derivation, so follower frames queue up and the next leader folds them all.
    leader: Mutex<()>,
}

/// The bounded write-coalescing queue in front of each table's revision lock. See
/// the [module docs](self).
pub struct WriteCoalescer {
    registry: Arc<SnapshotRegistry>,
    parallelism: Parallelism,
    /// Group-commit delay: how long the batch leader waits after taking the
    /// revision lock before draining, so writes still in flight join the batch.
    hold: Duration,
    tables: Mutex<BTreeMap<String, Arc<TableQueue>>>,
    frames: AtomicU64,
    batches: AtomicU64,
    coalesced_writes: AtomicU64,
    derivations_saved: AtomicU64,
}

impl WriteCoalescer {
    /// A coalescer deriving batches over `registry` with `parallelism` workers.
    pub fn new(registry: Arc<SnapshotRegistry>, parallelism: Parallelism) -> Arc<Self> {
        Self::with_hold(registry, parallelism, Duration::ZERO)
    }

    /// Like [`WriteCoalescer::new`] with a group-commit delay: the batch leader
    /// sleeps `hold` after acquiring the revision lock and before draining, so
    /// concurrent writers whose frames are still in flight land in the same batch
    /// (cf. PostgreSQL's `commit_delay`). Every write pays up to `hold` extra
    /// latency in exchange for fewer derivations under concurrent load; the default
    /// is zero, which coalesces only what already queued while the lock was busy.
    pub fn with_hold(
        registry: Arc<SnapshotRegistry>,
        parallelism: Parallelism,
        hold: Duration,
    ) -> Arc<Self> {
        Arc::new(WriteCoalescer {
            registry,
            parallelism,
            hold,
            tables: Mutex::new(BTreeMap::new()),
            frames: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced_writes: AtomicU64::new(0),
            derivations_saved: AtomicU64::new(0),
        })
    }

    /// Applies one write frame to `table`, blocking until its batch's swap
    /// published. Uncontended frames behave exactly like a
    /// [`SnapshotRegistry::commit`] of the frame's mutation; frames arriving while the
    /// revision lock is busy fold into the next batch.
    pub fn apply(&self, table: &str, frame: WriteFrame) -> Result<WriteOutcome, WriteError> {
        let mut results = self.apply_frames(table, vec![frame]);
        results.pop().expect("one result per frame")
    }

    /// Enqueues every frame at once and drives batches until all have resolved,
    /// returning per-frame outcomes in order. Uncontended, a batch of
    /// k ≤ [`MAX_COALESCED_BATCH`] frames performs exactly one derivation and one
    /// swap — the deterministic surface the burst tests and `e22_window` measure.
    pub fn apply_frames(
        &self,
        table: &str,
        frames: Vec<WriteFrame>,
    ) -> Vec<Result<WriteOutcome, WriteError>> {
        let queue = self.queue(table);
        let tickets: Vec<Arc<Ticket>> =
            (0..frames.len()).map(|_| Arc::<Ticket>::default()).collect();
        {
            let mut pending = queue.pending.lock().expect("write queue");
            for (frame, ticket) in frames.into_iter().zip(&tickets) {
                pending.push_back((frame, Arc::clone(ticket)));
            }
        }
        self.frames.fetch_add(tickets.len() as u64, Ordering::Relaxed);
        tickets
            .iter()
            .map(|ticket| loop {
                if let Some(result) = ticket.take() {
                    break result;
                }
                match queue.leader.try_lock() {
                    Ok(_leading) => {
                        // A previous leader may have served us between the check and
                        // the election; don't run an empty batch for it.
                        if let Some(result) = ticket.take() {
                            break result;
                        }
                        self.run_batch(table, &queue);
                    }
                    Err(TryLockError::WouldBlock) => ticket.wait(FOLLOWER_POLL),
                    Err(TryLockError::Poisoned(_)) => panic!("write coalescer leader poisoned"),
                }
            })
            .collect()
    }

    /// The coalescer's counters at one instant.
    pub fn stats(&self) -> WriteStats {
        WriteStats {
            frames: self.frames.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_writes: self.coalesced_writes.load(Ordering::Relaxed),
            derivations_saved: self.derivations_saved.load(Ordering::Relaxed),
        }
    }

    fn queue(&self, table: &str) -> Arc<TableQueue> {
        let mut tables = self.tables.lock().expect("write coalescer tables");
        Arc::clone(tables.entry(table.to_string()).or_insert_with(|| {
            Arc::new(TableQueue { pending: Mutex::new(VecDeque::new()), leader: Mutex::new(()) })
        }))
    }

    /// Leads one batch: drains pending frames **under the revision lock**, nets them
    /// into one mutation, derives once, and distributes per-frame outcomes. Caller
    /// holds the leader lock.
    fn run_batch(&self, table: &str, queue: &TableQueue) {
        let mut drained: Vec<(WriteFrame, Arc<Ticket>)> = Vec::new();
        let mut reports: Vec<(usize, usize)> = Vec::new();
        let outcome = self.registry.commit(table, None, self.parallelism, |base| {
            if !self.hold.is_zero() {
                // Group-commit window: in-flight writers enqueue while we sleep and
                // the drain below picks them up.
                std::thread::sleep(self.hold);
            }
            {
                let mut pending = queue.pending.lock().expect("write queue");
                let take = pending.len().min(MAX_COALESCED_BATCH);
                drained.extend(pending.drain(..take));
            }
            if drained.is_empty() {
                // Another leader drained our frames first: abort without a swap.
                return Err("empty batch");
            }
            let (net, per_frame) = Self::fold(base, table, &drained);
            reports = per_frame;
            Ok(Change::Mutation(net))
        });
        match outcome {
            Ok((generation, _)) => {
                let k = drained.len();
                self.batches.fetch_add(1, Ordering::Relaxed);
                if k > 1 {
                    self.coalesced_writes.fetch_add(k as u64, Ordering::Relaxed);
                    self.derivations_saved.fetch_add((k - 1) as u64, Ordering::Relaxed);
                }
                for ((_, ticket), &(inserted, deleted)) in drained.iter().zip(&reports) {
                    ticket.fill(Ok(WriteOutcome {
                        generation,
                        inserted,
                        deleted,
                        batched_with: k - 1,
                    }));
                }
            }
            // Another leader drained our candidate frames before we took the lock:
            // nothing swapped, their tickets are (being) filled elsewhere.
            Err(ReviseError::Build(_)) => {}
            Err(error) => {
                let message = error.to_string();
                if drained.is_empty() {
                    // The registry rejected the table *before* the build closure —
                    // and its drain — ever ran. Take the pending frames now so their
                    // callers receive the error instead of re-electing a leader over
                    // an undrained queue forever.
                    let mut pending = queue.pending.lock().expect("write queue");
                    let take = pending.len().min(MAX_COALESCED_BATCH);
                    drained.extend(pending.drain(..take));
                }
                for (_, ticket) in &drained {
                    ticket.fill(Err(WriteError(message.clone())));
                }
            }
        }
    }

    /// Nets `drained` into one mutation and reconstructs per-frame reports.
    ///
    /// Every frame replays, in arrival order, over the rows the frames name — each
    /// starting as stored or not in the base relation (a row that does not fit the
    /// schema is never stored) — with the engine's set semantics: insert of a present
    /// row and delete of an absent row are no-ops, and within a frame deletes go first.
    /// The net mutation deletes the stored rows that end absent and inserts the
    /// unstored rows that end present, both in row order, so fully cancelled churn
    /// (insert then delete, or delete then re-insert) vanishes from the derivation —
    /// value-identical to applying the frames one by one.
    fn fold(
        base: &EngineSnapshot,
        table: &str,
        drained: &[(WriteFrame, Arc<Ticket>)],
    ) -> (Mutation, Vec<(usize, usize)>) {
        let instance = base.context_of(table).map(|ctx| ctx.instance());
        let stored = |row: &Vec<Value>| {
            instance.is_some_and(|instance| {
                let tuple = instance.schema().tuple(row.clone());
                tuple.is_ok_and(|tuple| instance.id_of(&tuple).is_some())
            })
        };
        // Named row → (stored in the base, present after the frames replayed so far).
        let mut rows: BTreeMap<&Vec<Value>, (bool, bool)> = BTreeMap::new();
        let mut reports = Vec::with_capacity(drained.len());
        for (frame, _) in drained {
            let mut counts = [0usize; 2]; // [deleted, inserted]
            for (present_after, batch) in [(false, &frame.deletes), (true, &frame.inserts)] {
                for row in batch {
                    let (_, present) = rows.entry(row).or_insert_with(|| {
                        let stored = stored(row);
                        (stored, stored)
                    });
                    if *present != present_after {
                        *present = present_after;
                        counts[usize::from(present_after)] += 1;
                    }
                }
            }
            reports.push((counts[1], counts[0]));
        }
        let net = |was_stored: bool| {
            rows.iter()
                .filter(move |(_, &(stored, present))| stored == was_stored && present != stored)
                .map(|(row, _)| (*row).clone())
        };
        (Mutation::new().delete_rows(table, net(true)).insert_rows(table, net(false)), reports)
    }
}

impl fmt::Debug for WriteCoalescer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteCoalescer").field("stats", &self.stats()).finish()
    }
}
