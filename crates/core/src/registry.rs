//! The snapshot registry: the shared serving core behind sessions and the network
//! front end.
//!
//! The paper's workload shape — and the reason the snapshot pipeline exists — is *many
//! queries against a slowly-revising priority*. All of the repair-space cost is paid at
//! snapshot-build and first-enumeration time; serving consistent answers afterwards is
//! memo-bound and embarrassingly shareable. A [`SnapshotRegistry`] materialises that
//! split as an ownership structure:
//!
//! * the registry holds **one atomically-swappable [`Arc<EngineSnapshot>`] per table**;
//!   readers pin the current snapshot with a cheap `Mutex<Arc<_>>` clone-on-read (the
//!   lock is held only for the `Arc` bump, never across a query), so a request is
//!   answered entirely against one snapshot **generation** — bit-identical to calling
//!   [`crate::PreparedQuery::execute`] on that snapshot directly;
//! * **writes build off the serving path**: [`SnapshotRegistry::commit`] derives the
//!   replacement from a [`Change`] through
//!   [`EngineSnapshot::derive`](crate::EngineSnapshot::derive) while readers keep
//!   serving the old snapshot, then swaps the slot; [`SnapshotRegistry::revise_scoped`]
//!   does the same for an opaque replacement. Writers of one table — commits,
//!   revisions *and* direct publishes — serialise on a per-table lock; readers never
//!   block on a build;
//! * **a panic never bricks a table**: a panicking change closure, derivation or swap
//!   observer is contained at the write path — the slot keeps its last good generation
//!   (or, for an observer, the swap stands), the writer gets [`ReviseError::Panicked`],
//!   and [`RegistryStats::panics`] counts it;
//! * every slot carries a monotone **generation counter** plus read/swap statistics, so
//!   front ends can observe swap progress and tests can pin generation monotonicity.
//!
//! `sql::Session` (in the `pdqi-sql` crate) is a thin view over a registry — N sessions
//! sharing one registry serve one snapshot set — and the `pdqi-server` crate puts a
//! network front end on the same structure.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::change::{Change, ChangeError, ChangeReport};
use crate::parallel::Parallelism;
use crate::snapshot::EngineSnapshot;

/// What a swap changed relative to the previously served snapshot — the provenance a
/// [`SwapObserver`] needs to **prove** answers unchanged without re-executing.
///
/// The scope is deliberately conservative: it may over-approximate the change (a
/// [`ChangeScope::Rebuild`] claims nothing), but it must never under-report — every
/// relation or component the swap could have touched is included, so "my query's
/// footprint is disjoint from the scope" is a sound skip rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ChangeScope {
    /// The snapshot was replaced wholesale (a direct publish or an opaque revision):
    /// anything may have changed.
    #[default]
    Rebuild,
    /// A row-level [`crate::Mutation`] was applied as a delta: only the named relations (and
    /// their conflict components) changed; every other relation's tuples, components
    /// and memo entries were carried over verbatim.
    Mutation {
        /// The relations the mutation named, in lexicographic order.
        relations: Vec<String>,
    },
    /// One relation's priority was revised: tuples and conflict structure are
    /// untouched, and only the listed **global component ids** had their preferred
    /// repairs (and priority-sensitive answers) invalidated. `Rep`-family results
    /// never depend on the priority at all.
    Priority {
        /// The relation whose priority was replaced.
        relation: String,
        /// The global component ids the revision touched (empty when the new priority
        /// agrees with the old one on every component).
        affected: BTreeSet<usize>,
    },
    /// One relation's constraint set changed (`ALTER TABLE … ADD FD` applied as a
    /// delta): tuples are untouched, but conflict edges may have been added inside the
    /// new FD's LHS groups, merging components of the named relation. Unlike
    /// [`ChangeScope::Priority`] there is no `Rep` exemption — new conflict edges
    /// change the repair space of **every** family. An empty `affected` set means the
    /// FD added no edge at all (it was implied by the existing set on this instance)
    /// and nothing changed.
    Schema {
        /// The relation whose FD set was extended.
        relation: String,
        /// The **derived-snapshot** global component ids of the re-partitioned
        /// components (empty exactly when the FD added no edge — also when the new
        /// edges only touched previously conflict-free tuples, which form fresh
        /// components of their own).
        affected: BTreeSet<usize>,
    },
}

/// One generation swap, as seen by a [`SwapObserver`].
///
/// Observers run **under the per-table writer lock**, after the slot swapped: events
/// for one table arrive in strict generation order, and no later swap of that table
/// can begin until every observer returned.
#[derive(Debug)]
pub struct SwapEvent<'a> {
    /// The table whose slot swapped.
    pub table: &'a str,
    /// The generation the snapshot was published under.
    pub generation: u64,
    /// The snapshot that is now being served.
    pub snapshot: &'a Arc<EngineSnapshot>,
    /// What the swap changed relative to the previous snapshot.
    pub scope: &'a ChangeScope,
}

/// A callback invoked after every generation swap — see [`SwapEvent`] for the
/// ordering guarantees. Observers must be cheap or shed work internally: they run on
/// the writer's thread, under the per-table writer lock (readers are unaffected, but
/// other writers of the same table wait). A panicking observer is contained: the swap
/// stands, the remaining observers still run, and [`RegistryStats::panics`] counts it.
pub trait SwapObserver: Send + Sync {
    /// Called once per swap, after the new snapshot is visible to readers.
    fn on_swap(&self, event: &SwapEvent<'_>);
}

/// One table's serving slot: the current snapshot plus its counters.
struct TableSlot {
    /// The currently served snapshot **and its generation**, swapped together under one
    /// lock so a reader can never pair a snapshot with the wrong generation. Readers
    /// clone the `Arc` under the lock (an `Arc` bump, never a deep copy) and run
    /// queries outside it; writers swap the `Arc` and bump the generation atomically
    /// with respect to readers.
    current: Mutex<(Arc<EngineSnapshot>, u64)>,
    /// Number of reads served from this slot.
    reads: AtomicU64,
    /// Number of snapshots swapped into this slot (including the first publish).
    swaps: AtomicU64,
    /// Serialises **all writers** of this table: revisions build under this lock (off
    /// the serving path — readers only take `current`'s lock for an `Arc` clone), and
    /// direct publishes take it too, so a publish can never be silently overwritten by
    /// a revision that pinned its base before the publish landed.
    revision: Mutex<()>,
}

impl TableSlot {
    /// Swaps `snapshot` in and returns the new generation. Callers must hold the
    /// `revision` lock (all writers serialise on it).
    fn swap_in(&self, snapshot: Arc<EngineSnapshot>) -> u64 {
        let mut current = self.current.lock().expect("registry slot");
        current.0 = snapshot;
        current.1 += 1;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        current.1
    }
}

/// A snapshot pinned at read time: the [`Arc<EngineSnapshot>`] plus the generation it
/// was published under.
///
/// Everything executed against the lease sees exactly one generation, no matter how many
/// swaps happen concurrently.
#[derive(Clone)]
pub struct SnapshotLease {
    snapshot: Arc<EngineSnapshot>,
    generation: u64,
}

impl SnapshotLease {
    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snapshot
    }

    /// The generation the pinned snapshot was published under (monotone per table).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Unwraps the lease into the pinned snapshot.
    pub fn into_snapshot(self) -> Arc<EngineSnapshot> {
        self.snapshot
    }
}

impl fmt::Debug for SnapshotLease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotLease").field("generation", &self.generation).finish()
    }
}

/// Per-table registry counters, taken at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Current generation (0 means the table was never published).
    pub generation: u64,
    /// Reads served from the slot since it was created.
    pub reads: u64,
    /// Snapshots swapped into the slot (the first publish counts).
    pub swaps: u64,
}

/// Registry-wide counters: the sums of every table's [`TableStats`], plus contained
/// panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Number of tables currently registered.
    pub tables: usize,
    /// Total reads across all tables.
    pub reads: u64,
    /// Total swaps across all tables.
    pub swaps: u64,
    /// Panics contained at the write path: in change closures, derivations and swap
    /// observers.
    pub panics: u64,
}

/// Errors raised by [`SnapshotRegistry::commit`] and [`SnapshotRegistry::revise_scoped`].
/// Every variant leaves the slot untouched.
#[derive(Debug)]
pub enum ReviseError<E> {
    /// The registry has no snapshot published under this table name.
    UnknownTable(String),
    /// The table's generation was not the expected one; nothing was built.
    Conflict {
        /// The generation the writer expected.
        expected: u64,
        /// The generation the table is at.
        current: u64,
    },
    /// The caller's closure failed.
    Build(E),
    /// The derivation rejected the change.
    Change(ChangeError),
    /// The closure or the derivation panicked (the rendered panic message).
    Panicked(String),
}

impl<E: fmt::Display> fmt::Display for ReviseError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReviseError::UnknownTable(table) => {
                write!(f, "registry serves no table `{table}`")
            }
            ReviseError::Conflict { expected, current } => {
                write!(f, "table is at generation {current}, expected {expected}")
            }
            ReviseError::Build(e) => write!(f, "revision failed: {e}"),
            ReviseError::Change(e) => write!(f, "revision failed: {e}"),
            ReviseError::Panicked(message) => write!(f, "revision panicked: {message}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for ReviseError<E> {}

/// A shared serving core: one atomically-swappable [`Arc<EngineSnapshot>`] per table,
/// with generation counters and read/swap statistics. See the [module docs](self).
///
/// ```
/// use std::sync::Arc;
/// use pdqi_core::{EngineBuilder, SnapshotRegistry};
/// # use pdqi_relation::{RelationInstance, RelationSchema, Value, ValueType};
/// # use pdqi_constraints::FdSet;
/// # let schema = Arc::new(RelationSchema::from_pairs(
/// #     "R", &[("A", ValueType::Int), ("B", ValueType::Int)]).unwrap());
/// # let instance = RelationInstance::from_rows(Arc::clone(&schema), vec![
/// #     vec![Value::int(1), Value::int(1)], vec![Value::int(1), Value::int(2)],
/// # ]).unwrap();
/// # let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
/// let registry = SnapshotRegistry::new();
/// let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
/// assert_eq!(registry.publish("R", snapshot), 1);
/// let lease = registry.read("R").unwrap();
/// assert_eq!(lease.generation(), 1);
/// assert_eq!(lease.snapshot().count_repairs(), 2);
/// ```
#[derive(Default)]
pub struct SnapshotRegistry {
    tables: RwLock<BTreeMap<String, Arc<TableSlot>>>,
    /// Swap observers, notified under the per-table writer lock (see [`SwapObserver`]).
    observers: RwLock<Vec<Arc<dyn SwapObserver>>>,
    /// Panics contained at the write path.
    panics: AtomicU64,
}

impl SnapshotRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SnapshotRegistry::default()
    }

    /// An empty registry behind an [`Arc`], ready to be shared by sessions and servers.
    pub fn shared() -> Arc<Self> {
        Arc::new(SnapshotRegistry::new())
    }

    fn slot(&self, table: &str) -> Option<Arc<TableSlot>> {
        self.tables.read().expect("registry lock").get(table).cloned()
    }

    /// Registers a [`SwapObserver`]: from now on every generation swap — publishes,
    /// revisions, deltas — notifies it under the swapped table's writer lock, so the
    /// observer sees each table's events in strict generation order. Observers cannot
    /// be unregistered; long-lived consumers (like a subscription manager) deregister
    /// their *clients* instead.
    pub fn register_observer(&self, observer: Arc<dyn SwapObserver>) {
        self.observers.write().expect("registry observer lock").push(observer);
    }

    /// Notifies every observer of one swap. Callers hold the swapped table's writer
    /// lock, which is what makes per-table event order equal generation order.
    fn notify(
        &self,
        table: &str,
        generation: u64,
        snapshot: &Arc<EngineSnapshot>,
        scope: &ChangeScope,
    ) {
        let observers = self.observers.read().expect("registry observer lock");
        if observers.is_empty() {
            return;
        }
        let event = SwapEvent { table, generation, snapshot, scope };
        for observer in observers.iter() {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| observer.on_swap(&event)))
            {
                self.count_panic(payload.as_ref());
            }
        }
    }

    /// Publishes `snapshot` as `table`'s current snapshot, swapping out whatever was
    /// served before, and returns the new generation (1 for a first publish).
    ///
    /// Publishes serialise with in-flight [`SnapshotRegistry::commit`] calls on the
    /// same table (a commit holds the writer lock from base-pin to swap, so it can
    /// never overwrite a publish it did not see). Readers holding a [`SnapshotLease`]
    /// on the old snapshot keep it alive and keep serving from it; new reads see the
    /// new snapshot.
    pub fn publish(&self, table: &str, snapshot: EngineSnapshot) -> u64 {
        let snapshot = Arc::new(snapshot);
        loop {
            if let Some(slot) = self.slot(table) {
                // Take the writer lock *after* the map guard dropped — waiting for an
                // in-flight build while holding the map lock would stall every reader
                // of every table.
                let _serialised = slot.revision.lock().unwrap_or_else(PoisonError::into_inner);
                if !self.slot_is_current(table, &slot) {
                    // The table was removed (or removed and re-created) while we
                    // waited for the writer lock: swapping into the detached slot
                    // would silently lose this publish. Start over.
                    continue;
                }
                let generation = slot.swap_in(Arc::clone(&snapshot));
                self.notify(table, generation, &snapshot, &ChangeScope::Rebuild);
                return generation;
            }
            let slot = Arc::new(TableSlot {
                current: Mutex::new((Arc::clone(&snapshot), 1)),
                reads: AtomicU64::new(0),
                swaps: AtomicU64::new(1),
                revision: Mutex::new(()),
            });
            // Hold the fresh slot's writer lock across map-insert → notify: a writer
            // that finds the slot the moment it lands in the map blocks until our
            // generation-1 notification ran, so observers see generations in order
            // even across the very first publish.
            let serialised = slot.revision.lock().unwrap_or_else(PoisonError::into_inner);
            {
                let mut tables = self.tables.write().expect("registry lock");
                // A racing first publish may have created the slot since the fast
                // path; loop back to the slow-but-safe swap path above.
                if tables.contains_key(table) {
                    continue;
                }
                tables.insert(table.to_string(), Arc::clone(&slot));
            }
            self.notify(table, 1, &snapshot, &ChangeScope::Rebuild);
            drop(serialised);
            return 1;
        }
    }

    /// Whether `slot` is still the slot the map serves for `table` (a concurrent
    /// [`SnapshotRegistry::remove`] may have detached it).
    fn slot_is_current(&self, table: &str, slot: &Arc<TableSlot>) -> bool {
        self.tables
            .read()
            .expect("registry lock")
            .get(table)
            .is_some_and(|current| Arc::ptr_eq(current, slot))
    }

    /// Pins `table`'s current snapshot: an `Arc` clone under the slot lock (held only
    /// for the bump), tagged with the generation it was published under. Snapshot and
    /// generation live under one lock, so the pair is always consistent: a given
    /// generation identifies exactly one snapshot.
    pub fn read(&self, table: &str) -> Option<SnapshotLease> {
        let slot = self.slot(table)?;
        let (snapshot, generation) = {
            let current = slot.current.lock().expect("registry slot");
            (Arc::clone(&current.0), current.1)
        };
        slot.reads.fetch_add(1, Ordering::Relaxed);
        Some(SnapshotLease { snapshot, generation })
    }

    /// Derives and publishes one [`Change`] to `table`'s snapshot **off the serving
    /// path**: `change` builds the change against a pinned copy of the current snapshot
    /// while readers keep serving it, [`EngineSnapshot::derive`] applies it (eagerly
    /// re-enumerating the invalidated slice across `parallelism` workers), and one swap
    /// publishes the result with the report's [`ChangeScope`]. Returns the new
    /// generation and what the derivation did.
    ///
    /// With `expected`, the current generation is checked **under the per-table
    /// revision lock** and a mismatch fails with [`ReviseError::Conflict`] before
    /// `change` runs — the compare-and-swap a writer needs when it computed its change
    /// from a generation it read earlier, since applying it on top of a snapshot some
    /// other writer published since would act on state the writer never saw. Writers
    /// that build their change from the pinned snapshot `change` receives (the server,
    /// `sql::Session`) pass `None`. Writers of one table serialise, so no published
    /// snapshot is lost to a build/swap interleaving.
    pub fn commit<E>(
        &self,
        table: &str,
        expected: Option<u64>,
        parallelism: Parallelism,
        change: impl FnOnce(&EngineSnapshot) -> Result<Change, E>,
    ) -> Result<(u64, ChangeReport), ReviseError<E>> {
        self.write(table, expected, |base| {
            let change = change(base).map_err(ReviseError::Build)?;
            base.derive(&change, parallelism).map_err(ReviseError::Change)
        })
    }

    /// Publishes an opaque replacement for `table`'s snapshot: `build` derives it from a
    /// pinned copy of the current snapshot (under the same writer serialisation as
    /// [`SnapshotRegistry::commit`]) and states the [`ChangeScope`] observers receive —
    /// an over-approximation is safe, an under-approximation is not. Returns the new
    /// generation.
    pub fn revise_scoped<E>(
        &self,
        table: &str,
        build: impl FnOnce(&EngineSnapshot) -> Result<(EngineSnapshot, ChangeScope), E>,
    ) -> Result<u64, ReviseError<E>> {
        let built = self.write(table, None, |base| {
            let (snapshot, scope) = build(base).map_err(ReviseError::Build)?;
            Ok((snapshot, ChangeReport { scope, ..ChangeReport::default() }))
        });
        built.map(|(generation, _)| generation)
    }

    /// The one locked write path: pin the base under the table's revision lock, check
    /// `expected`, build, swap, notify. A panic in `build` leaves the slot untouched
    /// and surfaces as [`ReviseError::Panicked`]; the lock is never poisoned.
    fn write<E>(
        &self,
        table: &str,
        expected: Option<u64>,
        build: impl FnOnce(&EngineSnapshot) -> Result<(EngineSnapshot, ChangeReport), ReviseError<E>>,
    ) -> Result<(u64, ChangeReport), ReviseError<E>> {
        let Some(slot) = self.slot(table) else {
            return Err(ReviseError::UnknownTable(table.to_string()));
        };
        let _serialised = slot.revision.lock().unwrap_or_else(PoisonError::into_inner);
        // All writers hold the revision lock across base-pin → swap, so the generation
        // read here cannot move before our swap lands.
        let (base, current) = {
            let current = slot.current.lock().expect("registry slot");
            (Arc::clone(&current.0), current.1)
        };
        if let Some(expected) = expected.filter(|&expected| expected != current) {
            return Err(ReviseError::Conflict { expected, current });
        }
        let (revised, report) = match panic::catch_unwind(AssertUnwindSafe(|| build(&base))) {
            Ok(built) => built?,
            Err(payload) => return Err(ReviseError::Panicked(self.count_panic(payload.as_ref()))),
        };
        // The table may have been removed (or removed and re-created) during the
        // build; swapping into the detached slot would report success for a revision
        // nobody can ever read. Surface the removal instead.
        if !self.slot_is_current(table, &slot) {
            return Err(ReviseError::UnknownTable(table.to_string()));
        }
        let revised = Arc::new(revised);
        let generation = slot.swap_in(Arc::clone(&revised));
        self.notify(table, generation, &revised, &report.scope);
        Ok((generation, report))
    }

    /// Counts a contained panic and renders its payload.
    fn count_panic(&self, payload: &(dyn Any + Send)) -> String {
        self.panics.fetch_add(1, Ordering::Relaxed);
        match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
            (Some(message), _) => message.to_string(),
            (_, Some(message)) => message.clone(),
            _ => "non-string panic payload".to_string(),
        }
    }

    /// Removes `table`'s slot. Outstanding leases keep their snapshot alive; an
    /// in-flight [`SnapshotRegistry::commit`] of the table fails with
    /// [`ReviseError::UnknownTable`] rather than swapping into the detached slot, and
    /// a re-publish after removal starts a **fresh generation sequence at 1** (the
    /// generation counter lives in the slot).
    pub fn remove(&self, table: &str) -> bool {
        self.tables.write().expect("registry lock").remove(table).is_some()
    }

    /// Whether the registry currently serves `table`.
    pub fn contains(&self, table: &str) -> bool {
        self.tables.read().expect("registry lock").contains_key(table)
    }

    /// The names of every served table, in lexicographic order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().expect("registry lock").keys().cloned().collect()
    }

    /// `table`'s current generation (0 when the table was never published).
    pub fn generation(&self, table: &str) -> u64 {
        self.slot(table).map_or(0, |slot| slot.current.lock().expect("registry slot").1)
    }

    /// `table`'s counters at one instant.
    pub fn table_stats(&self, table: &str) -> Option<TableStats> {
        let slot = self.slot(table)?;
        let generation = slot.current.lock().expect("registry slot").1;
        Some(TableStats {
            generation,
            reads: slot.reads.load(Ordering::Relaxed),
            swaps: slot.swaps.load(Ordering::Relaxed),
        })
    }

    /// Registry-wide counters: table count, total reads and swaps, contained panics.
    pub fn stats(&self) -> RegistryStats {
        let tables = self.tables.read().expect("registry lock");
        let mut stats = RegistryStats {
            tables: tables.len(),
            panics: self.panics.load(Ordering::Relaxed),
            ..RegistryStats::default()
        };
        for slot in tables.values() {
            stats.reads += slot.reads.load(Ordering::Relaxed);
            stats.swaps += slot.swaps.load(Ordering::Relaxed);
        }
        stats
    }
}

impl fmt::Debug for SnapshotRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotRegistry")
            .field("tables", &self.table_names())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::fixtures::*;
    use crate::snapshot::EngineBuilder;
    use crate::{FamilyKind, Mutation, Parallelism};
    use pdqi_relation::{TupleId, Value};
    use std::convert::Infallible;

    fn example1_snapshot() -> EngineSnapshot {
        let ctx = example1();
        EngineBuilder::new().relation(ctx.instance().clone(), ctx.fds().clone()).build().unwrap()
    }

    /// Example 1's priority `0 ≻ 2`, oriented over `current`'s graph.
    fn reprioritise(current: &EngineSnapshot) -> Result<Change, String> {
        let priority = current
            .context()
            .priority_from_pairs(&[(TupleId(0), TupleId(2))])
            .map_err(|e| e.to_string())?;
        Ok(Change::Priority { relation: "Mgr".to_string(), priority })
    }

    fn mary_it() -> Mutation {
        Mutation::new()
            .delete("Mgr", vec!["Mary".into(), "IT".into(), Value::int(20), Value::int(1)])
    }

    #[test]
    fn publish_read_and_generations() {
        let registry = SnapshotRegistry::new();
        assert!(registry.read("Mgr").is_none());
        assert_eq!(registry.generation("Mgr"), 0);
        assert_eq!(registry.publish("Mgr", example1_snapshot()), 1);
        let lease = registry.read("Mgr").unwrap();
        assert_eq!(lease.generation(), 1);
        assert_eq!(lease.snapshot().count_repairs(), 3);
        assert_eq!(registry.publish("Mgr", example1_snapshot()), 2);
        assert_eq!(registry.generation("Mgr"), 2);
        // The old lease still serves its pinned snapshot.
        assert_eq!(lease.generation(), 1);
        assert_eq!(lease.snapshot().count_repairs(), 3);
        let stats = registry.table_stats("Mgr").unwrap();
        assert_eq!(stats.generation, 2);
        assert_eq!(stats.swaps, 2);
        assert_eq!(stats.reads, 1);
        assert_eq!(registry.table_names(), vec!["Mgr".to_string()]);
        assert_eq!(registry.stats(), RegistryStats { tables: 1, reads: 1, swaps: 2, panics: 0 });
    }

    #[test]
    fn commit_swaps_against_the_current_snapshot() {
        let ctx = example1();
        let registry = SnapshotRegistry::new();
        registry.publish("Mgr", example1_snapshot());
        let (generation, report) = registry
            .commit("Mgr", None, Parallelism::sequential(), reprioritise)
            .expect("revision builds");
        assert_eq!(generation, 2);
        assert!(matches!(report.scope, ChangeScope::Priority { .. }));
        let lease = registry.read("Mgr").unwrap();
        assert_eq!(lease.snapshot().priority().edge_count(), 1);
        // Structure is shared with the pre-revision snapshot, not rebuilt.
        let fresh = EngineBuilder::new()
            .relation(ctx.instance().clone(), ctx.fds().clone())
            .build()
            .unwrap();
        assert_eq!(lease.snapshot().graph().edges(), fresh.graph().edges());
    }

    #[test]
    fn failed_revisions_leave_the_slot_untouched() {
        let registry = SnapshotRegistry::new();
        registry.publish("Mgr", example1_snapshot());
        let result =
            registry.revise_scoped("Mgr", |_| Err::<(EngineSnapshot, ChangeScope), _>("nope"));
        assert!(matches!(result, Err(ReviseError::Build("nope"))));
        assert_eq!(registry.generation("Mgr"), 1);
        let missing =
            registry.revise_scoped("Nope", |s| Ok::<_, String>((s.clone(), ChangeScope::Rebuild)));
        assert!(matches!(missing, Err(ReviseError::UnknownTable(_))));
    }

    #[test]
    fn commit_publishes_delta_derived_snapshots_with_generations() {
        let registry = SnapshotRegistry::new();
        registry.publish("Mgr", example1_snapshot());
        let before = registry.read("Mgr").unwrap();
        // Delete one of Example 1's conflicting managers: a repair disappears.
        let seq = Parallelism::sequential();
        let (generation, report) = registry
            .commit("Mgr", None, seq, |_| Ok::<_, Infallible>(Change::Mutation(mary_it())))
            .expect("delta applies");
        assert_eq!(generation, 2);
        assert_eq!(report.deleted, 1);
        assert_eq!(report.inserted, 0);
        let after = registry.read("Mgr").unwrap();
        assert_eq!(after.generation(), 2);
        assert_eq!(after.snapshot().count_repairs(), 2);
        // The pinned pre-mutation lease still serves the old state.
        assert_eq!(before.snapshot().count_repairs(), 3);
        // Errors surface without touching the slot.
        let bad = Mutation::new().insert("Nope", vec![Value::int(1)]);
        assert!(matches!(
            registry.commit("Mgr", None, seq, |_| Ok::<_, Infallible>(Change::Mutation(bad))),
            Err(ReviseError::Change(crate::ChangeError::UnknownRelation { .. }))
        ));
        assert_eq!(registry.generation("Mgr"), 2);
        assert!(matches!(
            registry.commit("Nope", None, seq, |_| Ok::<_, Infallible>(Change::Mutation(
                Mutation::new()
            ))),
            Err(ReviseError::UnknownTable(_))
        ));
    }

    #[test]
    fn commit_refuses_stale_expectations() {
        let registry = SnapshotRegistry::new();
        registry.publish("Mgr", example1_snapshot());
        let seq = Parallelism::sequential();
        let change = |_: &EngineSnapshot| Ok::<_, Infallible>(Change::Mutation(mary_it()));
        // The expectation matches: the delta swaps and reports the new generation.
        let applied = registry.commit("Mgr", Some(1), seq, change).expect("table exists");
        assert_eq!(applied.0, 2);
        // The same expectation is now stale: no swap, slot untouched.
        let stale = registry.commit("Mgr", Some(1), seq, change);
        assert!(matches!(stale, Err(ReviseError::Conflict { expected: 1, current: 2 })));
        assert_eq!(registry.generation("Mgr"), 2);
        assert!(matches!(
            registry.commit("Nope", Some(1), seq, change),
            Err(ReviseError::UnknownTable(_))
        ));
    }

    #[test]
    fn remove_drops_the_slot_but_not_outstanding_leases() {
        let registry = SnapshotRegistry::new();
        registry.publish("Mgr", example1_snapshot());
        let lease = registry.read("Mgr").unwrap();
        assert!(registry.remove("Mgr"));
        assert!(!registry.remove("Mgr"));
        assert!(!registry.contains("Mgr"));
        assert!(registry.read("Mgr").is_none());
        assert_eq!(lease.snapshot().count_repairs(), 3);
        // Re-publishing after removal starts a fresh slot: generations restart at 1.
        assert_eq!(registry.publish("Mgr", example1_snapshot()), 1);
        assert_eq!(registry.read("Mgr").unwrap().generation(), 1);
    }

    #[test]
    fn publishes_and_revisions_serialise_as_writers() {
        // Mixed writers: direct publishes racing commits. Every writer must get its own
        // generation (no lost swaps) and generations must stay dense.
        let registry = SnapshotRegistry::new();
        registry.publish("Mgr", example1_snapshot());
        let rounds = 20usize;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..rounds {
                    registry.publish("Mgr", example1_snapshot());
                }
            });
            scope.spawn(|| {
                for _ in 0..rounds {
                    registry
                        .commit("Mgr", None, Parallelism::sequential(), reprioritise)
                        .expect("revision builds");
                }
            });
        });
        assert_eq!(registry.generation("Mgr"), 1 + 2 * rounds as u64);
        assert_eq!(registry.table_stats("Mgr").unwrap().swaps, 1 + 2 * rounds as u64);
    }

    #[test]
    fn concurrent_revisions_serialise_and_never_lose_a_swap() {
        let registry = SnapshotRegistry::new();
        registry.publish("Mgr", example1_snapshot());
        let rounds = 16usize;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..rounds {
                        registry
                            .commit("Mgr", None, Parallelism::sequential(), reprioritise)
                            .expect("revision builds");
                    }
                });
            }
        });
        // 1 initial publish + 4 threads × rounds revisions, none lost.
        assert_eq!(registry.generation("Mgr"), 1 + 4 * rounds as u64);
        // The served snapshot answers exactly like a directly derived one.
        let base = example1_snapshot();
        let expected = base
            .derive(&reprioritise(&base).unwrap(), Parallelism::sequential())
            .unwrap()
            .0
            .preferred_repair_count(FamilyKind::Global);
        let lease = registry.read("Mgr").unwrap();
        assert_eq!(lease.snapshot().preferred_repair_count(FamilyKind::Global), expected);
    }
}
