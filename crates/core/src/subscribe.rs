//! Continuous queries: a subscription subsystem that turns generation swaps into
//! incremental answer deltas.
//!
//! The serving pipeline already knows, for every swap, *what changed*: a row-level
//! [`Mutation`](crate::Mutation) names the relations it touched, and a priority
//! revision reports the conflict components it invalidated (the same metadata the
//! answer memo uses to carry entries across derivations). Polling clients throw that
//! knowledge away — they re-execute their prepared query against every new generation
//! even when the answer provably did not change. A [`SubscriptionManager`] keeps it:
//!
//! * clients register `(prepared query, family, semantics)` triples with
//!   [`SubscriptionManager::subscribe`]; the manager executes the query once against
//!   the current snapshot and remembers the full answer;
//! * the manager is a [`SwapObserver`]: on every generation swap it first tries to
//!   **prove the answer unchanged** from the swap's [`ChangeScope`] — a mutation of
//!   relations the query does not read, a priority revision that touched no
//!   component the answer depends on (or a `Rep`-family query, which never depends on
//!   the priority at all), or a schema delta whose FD added no conflict edge or whose
//!   relation the query never reads — and skips re-execution entirely;
//! * only genuinely affected queries fall back to **execute-and-diff**: re-run against
//!   the new snapshot (memo-assisted — untouched components stream from carried
//!   entries) and diff the sorted answer sets into an [`AnswerDelta`], bit-identical
//!   to diffing two full executions at any parallelism degree;
//! * deltas land on a **bounded** per-subscriber queue drained by the consumer (the
//!   server's connection handler, a session, a test). A subscriber that falls behind
//!   loses its queue, not the server's memory: the queue collapses into one
//!   [`SubscriptionEvent::Lagged`] resync carrying the current full answer.
//!
//! The soundness of the skip rule is the paper's factorisation: preferred repairs —
//! and hence preferred consistent answers — factor over conflict-graph components, so
//! an answer whose component footprint is disjoint from the swap's invalidation
//! footprint is carried over verbatim by the derivation itself.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pdqi_query::QueryError;
use pdqi_relation::Value;

use crate::families::FamilyKind;
use crate::parallel::Parallelism;
use crate::prepared::{PreparedQuery, Semantics};
use crate::registry::{ChangeScope, SnapshotRegistry, SwapEvent, SwapObserver};
use crate::window::{ReportState, ReportStrategy, WindowCounters, WindowStats};

/// Default bound on a subscriber's undrained event queue. Beyond it the queue
/// collapses into one [`SubscriptionEvent::Lagged`] resync — a slow subscriber costs
/// one full answer, never unbounded memory.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// One incremental answer change: the rows that appeared and disappeared between two
/// consecutive generations. Applying `added`/`removed` to the previous full answer
/// reproduces the new full answer exactly (both sides are sorted, de-duplicated row
/// sets, so the delta is canonical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerDelta {
    /// The generation the delta leads *to*.
    pub generation: u64,
    /// Rows present in the new answer but not the previous one (sorted).
    pub added: Vec<Vec<Value>>,
    /// Rows present in the previous answer but not the new one (sorted).
    pub removed: Vec<Vec<Value>>,
}

/// One event on a subscriber's queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptionEvent {
    /// The answer changed: apply the delta to the previously known answer.
    Delta(AnswerDelta),
    /// The subscriber fell behind and its queue was collapsed: resynchronise from
    /// this full answer (the current one — intermediate deltas are gone).
    Lagged {
        /// The generation the full answer is current at.
        generation: u64,
        /// The full answer rows at that generation (sorted, de-duplicated).
        rows: Vec<Vec<Value>>,
    },
}

/// A snapshot of the manager's counters, mirroring
/// [`MemoStats`](crate::MemoStats)-style observability for the push path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubscribeStats {
    /// Currently registered subscriptions.
    pub subscribers: usize,
    /// Deltas enqueued for subscribers (empty diffs push nothing and count nothing).
    pub deltas_pushed: u64,
    /// Swaps skipped per subscription because the change scope proved the answer
    /// unchanged — no re-execution happened.
    pub skipped_unchanged: u64,
    /// Query executions the manager ran (one per registration, plus one per swap
    /// that could not be proven unchanged).
    pub executions: u64,
    /// Times a subscriber's queue overflowed and collapsed into a lagged resync.
    pub lagged_resyncs: u64,
}

/// Per-subscription options for [`SubscriptionManager::subscribe_with`]: the report
/// strategy (see [`crate::window`]) and an optional queue-capacity override.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubscribeOptions {
    /// How swaps become pushed deltas (default: one delta per answer-changing swap).
    pub strategy: ReportStrategy,
    /// This subscriber's queue bound (clamped to ≥ 1); `None` uses
    /// [`DEFAULT_QUEUE_CAPACITY`].
    pub queue_capacity: Option<usize>,
}

/// What [`SubscriptionManager::subscribe`] hands back: the subscription id plus the
/// initial full answer the deltas build on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribed {
    /// The id used with [`SubscriptionManager::drain`] / `unsubscribe`.
    pub id: u64,
    /// The generation the initial answer was executed at.
    pub generation: u64,
    /// The answer's column headers (the query's free variables).
    pub columns: Vec<String>,
    /// The initial full answer (sorted, de-duplicated).
    pub rows: Vec<Vec<Value>>,
}

/// One row of [`SubscriptionManager::list`]: the registration parameters plus the
/// subscription's current position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionInfo {
    /// The subscription id.
    pub id: u64,
    /// The query text the subscription was registered with.
    pub query: String,
    /// The registry table the subscription watches.
    pub table: String,
    /// The repair family quantified over.
    pub family: FamilyKind,
    /// The open-query semantics.
    pub semantics: Semantics,
    /// The last generation the stored answer is current at.
    pub generation: u64,
    /// Undrained events on the subscriber's queue.
    pub pending: usize,
    /// Whether the queue overflowed and the next drain resynchronises.
    pub lagged: bool,
    /// The subscription's report strategy.
    pub strategy: ReportStrategy,
}

/// Errors raised by [`SubscriptionManager::subscribe`].
#[derive(Debug)]
pub enum SubscribeError {
    /// The query reads zero or several tables; subscriptions watch exactly one
    /// registry slot.
    NotSingleTable {
        /// How many tables the query reads.
        tables: usize,
    },
    /// The registry serves no snapshot for the query's table.
    UnknownTable(String),
    /// The initial execution failed.
    Query(QueryError),
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscribeError::NotSingleTable { tables } => {
                write!(f, "subscriptions read exactly one table (this query reads {tables})")
            }
            SubscribeError::UnknownTable(table) => {
                write!(f, "registry serves no table `{table}`")
            }
            SubscribeError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for SubscribeError {}

/// One registered continuous query.
struct Subscription {
    query: Arc<PreparedQuery>,
    text: String,
    table: String,
    family: FamilyKind,
    semantics: Semantics,
    /// The full answer at `generation` (sorted, de-duplicated — the shape
    /// [`crate::AnswerSet`] yields).
    rows: Vec<Vec<Value>>,
    generation: u64,
    queue: VecDeque<SubscriptionEvent>,
    lagged: bool,
    /// Report-strategy state: what the subscriber was told, pending coalesced
    /// deltas, the last-N window (see [`crate::window`]).
    report: ReportState,
    /// Per-subscription queue bound; `None` falls back to [`DEFAULT_QUEUE_CAPACITY`].
    queue_capacity: Option<usize>,
}

#[derive(Default)]
struct ManagerInner {
    next_id: u64,
    subscriptions: BTreeMap<u64, Subscription>,
}

/// The continuous-query manager: registers subscriptions, observes registry swaps,
/// proves answers unchanged where it can, and queues [`AnswerDelta`]s where it
/// cannot. See the [module docs](self).
///
/// Attach it to a registry once with [`SubscriptionManager::attach`]; everything else
/// goes through subscription ids.
pub struct SubscriptionManager {
    parallelism: Parallelism,
    inner: Mutex<ManagerInner>,
    deltas_pushed: AtomicU64,
    skipped_unchanged: AtomicU64,
    executions: AtomicU64,
    lagged_resyncs: AtomicU64,
    window_counters: WindowCounters,
}

impl SubscriptionManager {
    /// A manager executing affected queries with `parallelism` workers. Each
    /// subscriber's queue is bounded by its [`SubscribeOptions::queue_capacity`].
    pub fn new(parallelism: Parallelism) -> Arc<Self> {
        Arc::new(SubscriptionManager {
            parallelism,
            inner: Mutex::new(ManagerInner::default()),
            deltas_pushed: AtomicU64::new(0),
            skipped_unchanged: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            lagged_resyncs: AtomicU64::new(0),
            window_counters: WindowCounters::default(),
        })
    }

    /// Registers this manager as `registry`'s swap observer. Call once per registry;
    /// subscriptions registered before or after both work.
    pub fn attach(self: &Arc<Self>, registry: &SnapshotRegistry) {
        registry.register_observer(Arc::clone(self) as Arc<dyn SwapObserver>);
    }

    /// Registers a continuous query and returns its id plus the initial full answer.
    ///
    /// The initial execution and the registration happen under the manager lock, and
    /// swap notifications take the same lock *after* the slot swapped — so a swap
    /// concurrent with `subscribe` either lands before the initial read (the answer
    /// already reflects it) or notifies after registration (a delta arrives). No swap
    /// can fall between the initial answer and the first delta.
    pub fn subscribe(
        &self,
        registry: &SnapshotRegistry,
        query: Arc<PreparedQuery>,
        family: FamilyKind,
        semantics: Semantics,
    ) -> Result<Subscribed, SubscribeError> {
        self.subscribe_with(registry, query, family, semantics, SubscribeOptions::default())
    }

    /// [`SubscriptionManager::subscribe`] with explicit [`SubscribeOptions`]: a
    /// report strategy (`EVERY n` / `WINDOW n` / `COALESCE ms` on the wire) and an
    /// optional per-subscription queue bound (`QUEUE n`).
    pub fn subscribe_with(
        &self,
        registry: &SnapshotRegistry,
        query: Arc<PreparedQuery>,
        family: FamilyKind,
        semantics: Semantics,
        options: SubscribeOptions,
    ) -> Result<Subscribed, SubscribeError> {
        let tables = query.relations();
        let [table] = tables else {
            return Err(SubscribeError::NotSingleTable { tables: tables.len() });
        };
        let table = table.clone();
        let mut inner = self.inner.lock().expect("subscription manager lock");
        let lease =
            registry.read(&table).ok_or_else(|| SubscribeError::UnknownTable(table.clone()))?;
        let answer = query
            .execute_with(lease.snapshot(), family, semantics, self.parallelism)
            .map_err(SubscribeError::Query)?;
        self.executions.fetch_add(1, Ordering::Relaxed);
        let columns: Vec<String> = answer.columns().to_vec();
        let rows: Vec<Vec<Value>> = answer.rows().to_vec();
        inner.next_id += 1;
        let id = inner.next_id;
        let text = query.source().map_or_else(|| query.formula().to_string(), str::to_string);
        inner.subscriptions.insert(
            id,
            Subscription {
                query,
                text,
                table,
                family,
                semantics,
                rows: rows.clone(),
                generation: lease.generation(),
                queue: VecDeque::new(),
                lagged: false,
                report: ReportState::new(options.strategy, rows.clone(), lease.generation()),
                queue_capacity: options.queue_capacity.map(|c| c.max(1)),
            },
        );
        Ok(Subscribed { id, generation: lease.generation(), columns, rows })
    }

    /// Drops a subscription (undrained events are discarded). Returns whether it
    /// existed.
    pub fn unsubscribe(&self, id: u64) -> bool {
        self.inner.lock().expect("subscription manager lock").subscriptions.remove(&id).is_some()
    }

    /// Takes every queued event of subscription `id`, oldest first. A lagged
    /// subscriber gets exactly one [`SubscriptionEvent::Lagged`] resync instead of
    /// its lost deltas — and any pending coalesced delta is dropped, never replayed,
    /// because the resync's full answer already contains it. Draining is also when
    /// coalesced deadlines resolve: a pending delta whose `max_delay` elapsed is
    /// flushed onto the returned events (observers run under the writer lock, so the
    /// swap path cannot wait on timers). Unknown ids drain nothing.
    pub fn drain(&self, id: u64) -> Vec<SubscriptionEvent> {
        let mut inner = self.inner.lock().expect("subscription manager lock");
        let Some(subscription) = inner.subscriptions.get_mut(&id) else {
            return Vec::new();
        };
        if subscription.lagged {
            subscription.lagged = false;
            subscription.queue.clear();
            let rows = subscription.report.resync(&subscription.rows, &self.window_counters);
            return vec![SubscriptionEvent::Lagged { generation: subscription.generation, rows }];
        }
        let mut events: Vec<SubscriptionEvent> = subscription.queue.drain(..).collect();
        if let Some(delta) = subscription.report.flush_due(
            subscription.generation,
            &subscription.rows,
            &self.window_counters,
        ) {
            self.deltas_pushed.fetch_add(1, Ordering::Relaxed);
            events.push(SubscriptionEvent::Delta(delta));
        }
        events
    }

    /// The manager's counters at one instant.
    pub fn stats(&self) -> SubscribeStats {
        SubscribeStats {
            subscribers: self.inner.lock().expect("subscription manager lock").subscriptions.len(),
            deltas_pushed: self.deltas_pushed.load(Ordering::Relaxed),
            skipped_unchanged: self.skipped_unchanged.load(Ordering::Relaxed),
            executions: self.executions.load(Ordering::Relaxed),
            lagged_resyncs: self.lagged_resyncs.load(Ordering::Relaxed),
        }
    }

    /// Report-strategy counters: how many subscribers coalesce or window, how many
    /// swaps folded, flushed, expired or were dropped at a resync.
    pub fn window_stats(&self) -> WindowStats {
        let (mut coalesced, mut windowed) = (0usize, 0usize);
        {
            let inner = self.inner.lock().expect("subscription manager lock");
            for subscription in inner.subscriptions.values() {
                match subscription.report.strategy() {
                    ReportStrategy::Coalesced { .. } => coalesced += 1,
                    ReportStrategy::WindowedLastN { .. } => windowed += 1,
                    ReportStrategy::PerGeneration => {}
                }
            }
        }
        WindowStats {
            coalesced_subscribers: coalesced,
            windowed_subscribers: windowed,
            folded_swaps: self.window_counters.folded_swaps.load(Ordering::Relaxed),
            coalesced_flushes: self.window_counters.coalesced_flushes.load(Ordering::Relaxed),
            expiry_deltas: self.window_counters.expiry_deltas.load(Ordering::Relaxed),
            pending_dropped: self.window_counters.pending_dropped.load(Ordering::Relaxed),
        }
    }

    /// Every live subscription, in id order.
    pub fn list(&self) -> Vec<SubscriptionInfo> {
        let inner = self.inner.lock().expect("subscription manager lock");
        inner
            .subscriptions
            .iter()
            .map(|(&id, s)| SubscriptionInfo {
                id,
                query: s.text.clone(),
                table: s.table.clone(),
                family: s.family,
                semantics: s.semantics,
                generation: s.generation,
                pending: s.queue.len(),
                lagged: s.lagged,
                strategy: s.report.strategy(),
            })
            .collect()
    }

    /// How many live subscriptions watch `table`.
    pub fn subscriber_count_for(&self, table: &str) -> usize {
        let inner = self.inner.lock().expect("subscription manager lock");
        inner.subscriptions.values().filter(|s| s.table == table).count()
    }

    /// Whether `scope` proves `subscription`'s answer unchanged across the swap.
    ///
    /// * a swap of a **different table** cannot touch it (subscriptions bind to one
    ///   registry slot);
    /// * a [`ChangeScope::Mutation`] that names none of the query's relations carried
    ///   the relation's tuples, components and memo entries over verbatim;
    /// * a [`ChangeScope::Priority`] is invisible to `Rep`-family answers, to queries
    ///   that do not read the revised relation, and to every query when the revision
    ///   touched no component (`affected` is empty). When the query *does* read the
    ///   revised relation and components were touched, its answer depends on all of
    ///   that relation's components, so no finer test applies;
    /// * a [`ChangeScope::Schema`] (an FD added as a delta) is invisible to queries
    ///   that do not read the altered relation, and to every query when the FD added
    ///   no conflict edge (`affected` is empty — the snapshot's repairs are identical).
    ///   Unlike a priority revision there is **no `Rep` exemption**: new conflict
    ///   edges change the repair space of every family.
    fn provably_unchanged(subscription: &Subscription, event: &SwapEvent<'_>) -> bool {
        if subscription.table != event.table {
            return true;
        }
        match event.scope {
            ChangeScope::Rebuild => false,
            ChangeScope::Mutation { relations } => {
                !subscription.query.relations().iter().any(|read| relations.contains(read))
            }
            ChangeScope::Priority { relation, affected } => {
                subscription.family == FamilyKind::Rep
                    || affected.is_empty()
                    || !subscription.query.relations().iter().any(|read| read == relation)
            }
            ChangeScope::Schema { relation, affected } => {
                affected.is_empty()
                    || !subscription.query.relations().iter().any(|read| read == relation)
            }
        }
    }

    /// Enqueues `event` on `subscription`'s bounded queue, collapsing to lagged on
    /// overflow.
    fn enqueue(&self, subscription: &mut Subscription, event: SubscriptionEvent) {
        if subscription.lagged {
            // Already collapsed: the next drain resyncs from the stored full answer,
            // which this swap just updated. Queueing more deltas would re-order them
            // around the resync.
            return;
        }
        let capacity = subscription.queue_capacity.unwrap_or(DEFAULT_QUEUE_CAPACITY);
        if subscription.queue.len() >= capacity {
            subscription.queue.clear();
            subscription.lagged = true;
            self.lagged_resyncs.fetch_add(1, Ordering::Relaxed);
            return;
        }
        subscription.queue.push_back(event);
    }

    /// Runs the subscription's report strategy across a swap of its table and
    /// enqueues whatever delta it produces.
    fn advance(&self, subscription: &mut Subscription, generation: u64, changed: bool) {
        subscription.generation = generation;
        let delta = subscription.report.advance(
            generation,
            &subscription.rows,
            changed,
            &self.window_counters,
        );
        if let Some(delta) = delta {
            self.deltas_pushed.fetch_add(1, Ordering::Relaxed);
            self.enqueue(subscription, SubscriptionEvent::Delta(delta));
        }
    }
}

/// Two-pointer diff of sorted, de-duplicated row sets.
pub(crate) fn diff_rows(
    old: &[Vec<Value>],
    new: &[Vec<Value>],
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed.push(old[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j].clone());
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (added, removed)
}

impl SwapObserver for SubscriptionManager {
    fn on_swap(&self, event: &SwapEvent<'_>) {
        let mut inner = self.inner.lock().expect("subscription manager lock");
        let inner = &mut *inner;
        for subscription in inner.subscriptions.values_mut() {
            // The registration itself ran against this generation (or a per-table
            // writer delivered it already): nothing new to derive.
            if subscription.table == event.table && subscription.generation == event.generation {
                continue;
            }
            if Self::provably_unchanged(subscription, event) {
                self.skipped_unchanged.fetch_add(1, Ordering::Relaxed);
                if subscription.table == event.table {
                    // The stored answer is current at the new generation too. The
                    // strategy still advances: a window slides on every generation
                    // of its table, expiring old entries even when the new answer is
                    // unchanged.
                    self.advance(subscription, event.generation, false);
                }
                continue;
            }
            let answer = match subscription.query.execute_with(
                event.snapshot,
                subscription.family,
                subscription.semantics,
                self.parallelism,
            ) {
                Ok(answer) => answer,
                // Registered queries execute against schemas that mutations and
                // revisions cannot change; if execution fails anyway (e.g. a rebuild
                // replaced the table with an incompatible snapshot), keep the old
                // answer and force a resync so the subscriber learns its position
                // (any pending coalesced delta is dropped at that resync).
                Err(_) => {
                    subscription.lagged = true;
                    self.lagged_resyncs.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            self.executions.fetch_add(1, Ordering::Relaxed);
            let new_rows: Vec<Vec<Value>> = answer.rows().to_vec();
            let changed = new_rows != subscription.rows;
            subscription.rows = new_rows;
            // A re-execution that found the answer unchanged pushes nothing for
            // per-generation subscribers (a delta would be noise — and it does not
            // count as "proven" either: the proof failed, the execution decided),
            // but strategies advance regardless: windows slide, coalesced pendings
            // stay open.
            self.advance(subscription, event.generation, changed);
        }
    }
}

impl fmt::Debug for SubscriptionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubscriptionManager").field("stats", &self.stats()).finish()
    }
}
