//! Snapshot derivation: priority revisions, row mutations and added functional
//! dependencies through one [`Change`] pipeline.
//!
//! The paper's families factorise over connected components of the conflict graph:
//! conflicts and priority edges never cross components, so a change can only affect
//! the components it touches. [`EngineSnapshot::derive`] exploits that the same way
//! for every kind of [`Change`]; each kind contributes only its per-relation step:
//!
//! ```text
//! Change::Priority { relation, priority }   edge diff → components whose orientation changed
//! Change::Mutation(Mutation)                id remap (survivors keep their order, inserts
//!                                           append) + a scan for edges touching inserted tuples
//! Change::AddFd { relation, fd }            scan of the new FD's LHS groups for new edges
//!      │
//!      ├─ affected region   changed components plus conflict-free tuples a new edge drags in
//!      ├─ re-partition      components recomputed for the region only (BFS in ascending id
//!      │                    order); untouched components carry over, remapped
//!      ├─ stitch            component offsets and shard plans in relation order
//!      ├─ carry             every untouched (component, family) memo entry, answer and plan
//!      │                    survives with tuple ids and global component ids remapped
//!      └─ re-enumerate      the invalidated slice, eagerly across workers, largest first
//!                           (priority: exactly the dropped entries; mutation and FD: each
//!                           family the parent had memoised, on every re-partitioned component)
//! ```
//!
//! A derived snapshot is **bit-identical to a fresh build** of the changed state — same
//! tuple ids, conflict graph, component order and global ids, shard plans, preferred
//! repairs in enumeration order and answers — at every degree of parallelism (pinned by
//! the `incremental`, `schema_delta` and `prepared_api` suites). A no-op mutation or an
//! FD the existing set already implies shares the parent's graph and its whole memo; an
//! FD derivation shares the columnar view, since the instance does not change.
//!
//! The returned [`ChangeReport`] carries the [`ChangeScope`] a registry swap hands to
//! its observers; [`crate::SnapshotRegistry::commit`] derives and publishes in one step.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use pdqi_constraints::{
    fd_conflict_edges, fd_conflict_edges_touching, ConflictGraph, FunctionalDependency,
};
use pdqi_priority::{Priority, PriorityError};
use pdqi_relation::{RelationError, RelationInstance, TupleId, TupleSet, Value};

use crate::families::FamilyKind;
use crate::parallel::Parallelism;
use crate::registry::ChangeScope;
use crate::repair::RepairContext;
use crate::snapshot::{EngineSnapshot, Memo, RelationEntry, SnapshotInner};

/// One change to a snapshot: the unit [`EngineSnapshot::derive`] applies and
/// [`crate::SnapshotRegistry::commit`] publishes.
#[derive(Debug, Clone)]
pub enum Change {
    /// Replace `relation`'s priority; it must orient the relation's conflict graph.
    Priority {
        /// The relation whose priority is replaced.
        relation: String,
        /// The new priority.
        priority: Priority,
    },
    /// Insert and delete rows.
    Mutation(Mutation),
    /// Add `fd` to `relation`'s FD set; it must be over that relation's schema (parse
    /// it with [`FunctionalDependency::parse`] against the schema).
    AddFd {
        /// The relation whose FD set is extended.
        relation: String,
        /// The added dependency.
        fd: FunctionalDependency,
    },
}

/// A batch of row insertions and deletions, grouped per relation.
///
/// Rows are given by **value** (the wire protocol and the SQL surface address tuples by
/// value; set semantics make values canonical). Within one batch, deletes are applied
/// before inserts: deleting a row and inserting an equal row in the same batch removes
/// the old tuple and appends a fresh one with a new id — exactly what rebuilding from
/// the edited row list would produce.
///
/// ```
/// use pdqi_core::Mutation;
/// use pdqi_relation::Value;
/// let mutation = Mutation::new()
///     .insert("R", vec![Value::int(7), Value::int(0)])
///     .delete("R", vec![Value::int(1), Value::int(1)]);
/// assert_eq!(mutation.relation_names(), vec!["R".to_string()]);
/// assert!(!mutation.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mutation {
    relations: BTreeMap<String, RelationMutation>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RelationMutation {
    deletes: Vec<Vec<Value>>,
    inserts: Vec<Vec<Value>>,
}

impl Mutation {
    /// An empty batch.
    pub fn new() -> Self {
        Mutation::default()
    }

    /// Adds one row to insert into `relation`.
    pub fn insert(mut self, relation: &str, row: Vec<Value>) -> Self {
        self.relations.entry(relation.to_string()).or_default().inserts.push(row);
        self
    }

    /// Adds one row to delete from `relation` (a no-op if the row is not stored).
    pub fn delete(mut self, relation: &str, row: Vec<Value>) -> Self {
        self.relations.entry(relation.to_string()).or_default().deletes.push(row);
        self
    }

    /// Adds several rows to insert into `relation`.
    pub fn insert_rows(self, relation: &str, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        rows.into_iter().fold(self, |m, row| m.insert(relation, row))
    }

    /// Adds several rows to delete from `relation`.
    pub fn delete_rows(self, relation: &str, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        rows.into_iter().fold(self, |m, row| m.delete(relation, row))
    }

    /// Whether the batch contains no row at all.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(|m| m.inserts.is_empty() && m.deletes.is_empty())
    }

    /// The relations the batch touches, in lexicographic order.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }
}

/// Errors raised while deriving a snapshot from a [`Change`]. Every error is reported
/// before the derived snapshot exists; the parent is never modified.
#[derive(Debug)]
pub enum ChangeError {
    /// The change names a relation the snapshot does not contain.
    UnknownRelation {
        /// The offending relation name.
        relation: String,
    },
    /// A mutation row did not fit the relation's schema (wrong arity or value type).
    Relation {
        /// The relation the row was aimed at.
        relation: String,
        /// The underlying schema error.
        source: RelationError,
    },
    /// A new priority was built over a different conflict graph than the relation's.
    GraphMismatch {
        /// The relation whose graph the priority should have oriented.
        relation: String,
    },
    /// The carried-over priority could not be re-installed over the changed graph.
    /// Surviving priority edges stay conflict edges and acyclic, so this is defensive:
    /// it cannot fire for priorities the snapshot itself produced.
    Priority {
        /// The relation whose priority failed.
        relation: String,
        /// The underlying priority error.
        source: PriorityError,
    },
}

impl fmt::Display for ChangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeError::UnknownRelation { relation } => {
                write!(f, "snapshot has no relation `{relation}`")
            }
            ChangeError::Relation { relation, source } => {
                write!(f, "row does not fit `{relation}`: {source}")
            }
            ChangeError::GraphMismatch { relation } => {
                write!(
                    f,
                    "the priority orients a different conflict graph than relation `{relation}`'s"
                )
            }
            ChangeError::Priority { relation, source } => {
                write!(f, "priority of `{relation}` cannot be carried over: {source}")
            }
        }
    }
}

impl std::error::Error for ChangeError {}

/// What a derivation actually did, for swap observers, wire responses and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeReport {
    /// What the derived snapshot changed relative to its parent: the scope a registry
    /// swap hands to its observers. Priority and schema scopes name **derived-snapshot**
    /// global component ids (a priority revision keeps every id).
    pub scope: ChangeScope,
    /// Rows genuinely inserted (duplicates of stored tuples collapse under set
    /// semantics and do not count).
    pub inserted: usize,
    /// Tuples genuinely removed (deletes of absent rows are no-ops).
    pub deleted: usize,
    /// Conflict edges an added FD genuinely added (edges the existing FDs already
    /// implied do not count).
    pub new_edges: usize,
    /// Parent components invalidated: re-partitioned, or (for a priority revision)
    /// touched by the edge diff.
    pub invalidated_components: usize,
    /// `(component, family)` memo entries carried over from the parent snapshot.
    pub carried_entries: usize,
    /// `(component, family)` memo entries eagerly re-enumerated across workers.
    pub recomputed_entries: usize,
}

/// One relation's derived entry plus what the shared stitch needs to know.
struct Step {
    /// The new entry, before offset and shard stitching.
    entry: RelationEntry,
    /// Old local component → new local component; `None` marks a re-partitioned one.
    carried: Vec<Option<usize>>,
    /// Old tuple id → new tuple id (`None` = deleted); `None` when ids are unchanged.
    id_map: Option<Vec<Option<TupleId>>>,
    /// New local components produced by re-partitioning.
    fresh: Vec<usize>,
    /// Old local components whose priority-sensitive memo entries drop (the component
    /// itself carries: priority revisions never re-partition).
    touched: BTreeSet<usize>,
}

impl Step {
    /// The identity step: ids, components and memo entries all carry.
    fn unchanged(entry: RelationEntry) -> Step {
        Step {
            carried: (0..entry.components.len()).map(Some).collect(),
            entry,
            id_map: None,
            fresh: Vec::new(),
            touched: BTreeSet::new(),
        }
    }

    /// Whether the relation's repair space changed for every family: answers and plans
    /// reading it cannot be carried.
    fn reshaped(&self) -> bool {
        self.id_map.is_some() || !self.fresh.is_empty()
    }
}

/// The priority step: the components every added or removed priority edge lies in.
fn priority_step(
    entry: &RelationEntry,
    relation: &str,
    priority: &Priority,
) -> Result<Step, ChangeError> {
    let graph = entry.ctx.graph();
    let same_graph = Arc::ptr_eq(priority.graph(), graph)
        || (priority.graph().vertex_count() == graph.vertex_count()
            && priority.graph().edges() == graph.edges());
    if !same_graph {
        return Err(ChangeError::GraphMismatch { relation: relation.to_string() });
    }
    let old: BTreeSet<(TupleId, TupleId)> = entry.priority.edges().into_iter().collect();
    let new: BTreeSet<(TupleId, TupleId)> = priority.edges().into_iter().collect();
    let mut step = Step::unchanged(entry.share());
    step.entry.priority = priority.clone();
    for (winner, loser) in old.symmetric_difference(&new) {
        for t in [winner, loser] {
            let comp = entry.comp_of[t.index()];
            if comp != usize::MAX {
                step.touched.insert(comp);
            }
        }
    }
    Ok(step)
}

/// The mutation step: the id remap, survivor edges plus edges touching inserted
/// tuples, and the affected region (inserted tuples, components that lost a tuple or
/// gained an edge, and conflict-free tuples an inserted tuple now conflicts with).
fn mutation_step(
    entry: &RelationEntry,
    rows: &RelationMutation,
    report: &mut ChangeReport,
) -> Result<Step, ChangeError> {
    let old_instance = entry.ctx.instance();
    let schema = Arc::clone(old_instance.schema());
    let relation = || schema.name().to_string();
    let fit = |row: &Vec<Value>| {
        schema
            .tuple(row.clone())
            .map_err(|source| ChangeError::Relation { relation: relation(), source })
    };

    // Deletes first, resolved to old ids; then survivors in old-id order (so the remap
    // is monotone and every enumeration order is preserved) and fresh inserts appended —
    // exactly the ids `RelationInstance::from_rows` assigns to the edited row list.
    let mut deleted = TupleSet::with_capacity(old_instance.len());
    for row in &rows.deletes {
        if let Some(id) = old_instance.id_of(&fit(row)?) {
            deleted.insert(id);
        }
    }
    let mut instance = RelationInstance::new(Arc::clone(&schema));
    let mut id_map: Vec<Option<TupleId>> = vec![None; old_instance.len()];
    let mut old_of: Vec<TupleId> = Vec::with_capacity(old_instance.len());
    for (id, tuple) in old_instance.iter() {
        if !deleted.contains(id) {
            id_map[id.index()] = Some(instance.insert_tuple(tuple.clone()).0);
            old_of.push(id);
        }
    }
    let mut added = TupleSet::new();
    for row in &rows.inserts {
        let (id, fresh) = instance.insert_tuple(fit(row)?);
        if fresh {
            added.insert(id);
        }
    }
    if added.is_empty() && deleted.is_empty() {
        return Ok(Step::unchanged(entry.share()));
    }
    report.inserted += added.len();
    report.deleted += deleted.len();

    // Edges among survivors carry over (a conflict depends only on its two tuples) —
    // the remap is monotone, so the list stays sorted — plus the per-FD edges incident
    // to inserted tuples. Surviving priority pairs stay conflict edges and acyclic.
    let remap = |(a, b): (TupleId, TupleId)| Some((id_map[a.index()]?, id_map[b.index()]?));
    let survivors = entry.ctx.graph().edges().iter().filter_map(|&edge| remap(edge)).collect();
    let mut lists = vec![survivors];
    for fd in entry.ctx.fds().fds() {
        lists.push(fd_conflict_edges_touching(&instance, fd, &added));
    }
    let graph = Arc::new(ConflictGraph::from_edge_lists(instance.len(), &lists));
    let pairs: Vec<_> = entry.priority.edges().into_iter().filter_map(remap).collect();
    let priority = Priority::from_pairs(Arc::clone(&graph), &pairs)
        .map_err(|source| ChangeError::Priority { relation: relation(), source })?;

    let mut affected = vec![false; entry.components.len()];
    for id in deleted.iter() {
        let comp = entry.comp_of[id.index()];
        if comp != usize::MAX {
            affected[comp] = true;
        }
    }
    let mut region = TupleSet::with_capacity(instance.len());
    for id in added.iter() {
        region.insert(id);
        for neighbor in graph.neighbors(id).iter().filter(|&n| !added.contains(n)) {
            // A conflict-free tuple joins a component, or a component grows.
            match entry.comp_of[old_of[neighbor.index()].index()] {
                usize::MAX => {
                    region.insert(neighbor);
                }
                comp => affected[comp] = true,
            }
        }
    }
    let ctx = RepairContext::with_graph(instance, entry.ctx.fds().clone(), graph);
    Ok(repartition(entry, ctx, priority, Some(id_map), &affected, region))
}

/// The added-FD step: the new FD's conflicts (only its own LHS groups are scanned) minus
/// edges the graph already has. With none left, only the FD set changes; otherwise the
/// affected region is every component incident to a new edge plus the conflict-free
/// tuples a new edge drags in (adding edges only merges components).
fn fd_step(
    entry: &RelationEntry,
    relation: &str,
    fd: &FunctionalDependency,
    report: &mut ChangeReport,
) -> Result<Step, ChangeError> {
    let instance = entry.ctx.instance();
    let old_graph = entry.ctx.graph();
    let new_edges: Vec<(TupleId, TupleId)> = fd_conflict_edges(instance, fd)
        .into_iter()
        .filter(|&(a, b)| !old_graph.are_conflicting(a, b))
        .collect();
    report.new_edges += new_edges.len();
    let mut fds = entry.ctx.fds().clone();
    fds.push(fd.clone());
    if new_edges.is_empty() {
        // Sharing the graph `Arc` keeps the priority valid and the memo exact.
        let mut step = Step::unchanged(entry.share());
        step.entry.ctx =
            Arc::new(RepairContext::with_columns_from(&entry.ctx, fds, Arc::clone(old_graph)));
        return Ok(step);
    }

    let mut affected = vec![false; entry.components.len()];
    let mut region = TupleSet::with_capacity(instance.len());
    for id in new_edges.iter().flat_map(|&(a, b)| [a, b]) {
        match entry.comp_of[id.index()] {
            usize::MAX => {
                region.insert(id);
            }
            comp => affected[comp] = true,
        }
    }
    // `from_edge_lists` is a set union, so this equals a full rebuild; the priority
    // carries verbatim (an acyclic orientation stays acyclic under edge addition).
    let lists = [old_graph.edges().to_vec(), new_edges];
    let graph = Arc::new(ConflictGraph::from_edge_lists(instance.len(), &lists));
    let priority = Priority::from_pairs(Arc::clone(&graph), &entry.priority.edges())
        .map_err(|source| ChangeError::Priority { relation: relation.to_string(), source })?;
    let ctx = RepairContext::with_columns_from(&entry.ctx, fds, graph);
    Ok(repartition(entry, ctx, priority, None, &affected, region))
}

/// The one re-partition routine. `region` (new-id space) plus the surviving members of
/// every `affected` old component is closed under new-graph adjacency — old edges never
/// cross components and new edges always touch the region — so a BFS from its vertices
/// in ascending id order finds exactly the components a full `connected_components` pass
/// would (each discovered at its minimal member). Untouched components carry over,
/// remapped, and everything is ordered by minimal member like a fresh build.
fn repartition(
    entry: &RelationEntry,
    ctx: RepairContext,
    priority: Priority,
    id_map: Option<Vec<Option<TupleId>>>,
    affected: &[bool],
    mut region: TupleSet,
) -> Step {
    let new_id = |old: TupleId| match &id_map {
        Some(map) => map[old.index()],
        None => Some(old),
    };
    let graph = Arc::clone(ctx.graph());
    let n = ctx.instance().len();
    let mut parts: Vec<(TupleId, TupleSet, Option<usize>)> = Vec::new();
    for (old_local, members) in entry.components.iter().enumerate() {
        if affected[old_local] {
            members.iter().filter_map(new_id).for_each(|id| {
                region.insert(id);
            });
        } else {
            let members: TupleSet = match &id_map {
                Some(_) => {
                    members.iter().map(|id| new_id(id).expect("untouched survive")).collect()
                }
                None => members.clone(),
            };
            parts.push((
                members.first().expect("components are non-empty"),
                members,
                Some(old_local),
            ));
        }
    }
    let mut visited = TupleSet::with_capacity(n);
    for start in region.iter() {
        if !visited.insert(start) {
            continue;
        }
        let mut members = TupleSet::with_capacity(n);
        let mut stack = vec![start];
        while let Some(vertex) = stack.pop() {
            members.insert(vertex);
            for neighbor in graph.neighbors(vertex).iter() {
                if visited.insert(neighbor) {
                    stack.push(neighbor);
                }
            }
        }
        // Singletons fall back to the conflict-free base.
        if members.len() >= 2 {
            parts.push((start, members, None));
        }
    }
    parts.sort_by_key(|&(min, _, _)| min);

    let mut carried = vec![None; entry.components.len()];
    let mut fresh = Vec::new();
    let mut components = Vec::with_capacity(parts.len());
    for (new_local, (_, members, origin)) in parts.into_iter().enumerate() {
        match origin {
            Some(old_local) => carried[old_local] = Some(new_local),
            None => fresh.push(new_local),
        }
        components.push(members);
    }
    let entry = RelationEntry::from_components(Arc::new(ctx), priority, components);
    Step { entry, carried, id_map, fresh, touched: BTreeSet::new() }
}

impl EngineSnapshot {
    /// Derives the snapshot `change` produces — **bit-identical to a fresh build** of
    /// the changed state at every degree of parallelism — re-partitioning only the
    /// affected components, carrying every untouched memo entry, answer and plan, and
    /// eagerly re-enumerating the invalidated slice across `parallelism` workers. See
    /// the [module docs](self).
    pub fn derive(
        &self,
        change: &Change,
        parallelism: Parallelism,
    ) -> Result<(EngineSnapshot, ChangeReport), ChangeError> {
        let entries = self.entries();
        let index = |relation: &str| {
            self.entry_index(relation)
                .ok_or_else(|| ChangeError::UnknownRelation { relation: relation.to_string() })
        };
        let mut report = ChangeReport::default();
        let mut steps: Vec<Step> = entries.iter().map(|e| Step::unchanged(e.share())).collect();
        match change {
            Change::Priority { relation, priority } => {
                let rel = index(relation)?;
                steps[rel] = priority_step(&entries[rel], relation, priority)?;
            }
            Change::AddFd { relation, fd } => {
                let rel = index(relation)?;
                steps[rel] = fd_step(&entries[rel], relation, fd, &mut report)?;
            }
            Change::Mutation(mutation) => {
                for relation in mutation.relations.keys() {
                    index(relation)?;
                }
                for (rel, entry) in entries.iter().enumerate() {
                    let name = entry.ctx.instance().schema().name();
                    if let Some(rows) = mutation.relations.get(name) {
                        steps[rel] = mutation_step(entry, rows, &mut report)?;
                    }
                }
            }
        }
        let (derived, affected) = self.assemble(steps, parallelism, &mut report);
        report.scope = match change {
            Change::Priority { relation, .. } => {
                ChangeScope::Priority { relation: relation.clone(), affected }
            }
            Change::Mutation(mutation) => {
                ChangeScope::Mutation { relations: mutation.relation_names() }
            }
            Change::AddFd { relation, .. } => {
                ChangeScope::Schema { relation: relation.clone(), affected }
            }
        };
        Ok((derived, report))
    }

    /// [`EngineSnapshot::derive`] of a [`Change::Mutation`], without the report.
    pub fn with_mutations(
        &self,
        mutation: &Mutation,
        parallelism: Parallelism,
    ) -> Result<EngineSnapshot, ChangeError> {
        self.derive(&Change::Mutation(mutation.clone()), parallelism).map(|(snapshot, _)| snapshot)
    }

    /// [`EngineSnapshot::derive`] of a [`Change::Mutation`].
    pub fn with_mutations_reported(
        &self,
        mutation: &Mutation,
        parallelism: Parallelism,
    ) -> Result<(EngineSnapshot, ChangeReport), ChangeError> {
        self.derive(&Change::Mutation(mutation.clone()), parallelism)
    }

    /// [`EngineSnapshot::derive`] of a [`Change::Priority`] for relation `name`.
    pub fn with_priority_revalidated_reported_for(
        &self,
        name: &str,
        priority: Priority,
        parallelism: Parallelism,
    ) -> Result<(EngineSnapshot, ChangeReport), ChangeError> {
        self.derive(&Change::Priority { relation: name.to_string(), priority }, parallelism)
    }

    /// The one stitch/carry/re-enumerate routine behind [`EngineSnapshot::derive`]:
    /// assigns component offsets and shard plans in relation order, carries the memo,
    /// answers and plans through the old → new global component map, and eagerly
    /// re-enumerates the invalidated slice. Returns the derived snapshot plus the global
    /// ids of its re-partitioned and priority-touched components.
    fn assemble(
        &self,
        steps: Vec<Step>,
        parallelism: Parallelism,
        report: &mut ChangeReport,
    ) -> (EngineSnapshot, BTreeSet<usize>) {
        let entries = self.entries();
        let mut relations = Vec::with_capacity(steps.len());
        let mut global_map: Vec<Option<usize>> = vec![None; self.component_count()];
        let mut touched = vec![false; self.component_count()];
        let mut reshaped = Vec::with_capacity(steps.len());
        let mut id_maps = Vec::with_capacity(steps.len());
        let mut fresh_jobs: Vec<(usize, usize)> = Vec::new();
        let mut affected = BTreeSet::new();
        let mut offset = 0usize;
        for (rel, step) in steps.into_iter().enumerate() {
            let old = &entries[rel];
            for (old_local, new_local) in step.carried.iter().enumerate() {
                global_map[old.comp_offset + old_local] = new_local.map(|local| offset + local);
            }
            for &local in &step.touched {
                touched[old.comp_offset + local] = true;
                affected.insert(offset + local);
            }
            for &local in &step.fresh {
                fresh_jobs.push((rel, local));
                affected.insert(offset + local);
            }
            report.invalidated_components +=
                step.touched.len() + step.carried.iter().filter(|c| c.is_none()).count();
            reshaped.push(step.reshaped());
            id_maps.push(step.id_map);
            // The shard plan is a function of the component list and the offset only.
            let entry = if Arc::ptr_eq(&step.entry.components, &old.components)
                && old.comp_offset == offset
            {
                step.entry
            } else {
                step.entry.with_offset(rel, offset)
            };
            offset += entry.components.len();
            relations.push(entry);
        }

        // Component memo: every entry of a carried component survives with its global
        // id and tuple ids remapped (the monotone remap preserves the repairs and their
        // order) — except priority-sensitive entries of touched components, which are
        // the priority revision's re-enumeration set. Families seen per relation feed
        // the re-enumeration of re-partitioned components.
        let memo = Memo::default();
        let mut families: Vec<Vec<FamilyKind>> = vec![Vec::new(); entries.len()];
        let mut jobs: Vec<(usize, FamilyKind)> = Vec::new();
        self.inner.memo.components.for_each(|&(old_global, kind), sets| {
            let (rel, _) = self.locate_component(old_global);
            if !families[rel].contains(&kind) {
                families[rel].push(kind);
            }
            let Some(new_global) = global_map[old_global] else { return };
            if touched[old_global] && kind != FamilyKind::Rep {
                jobs.push((new_global, kind));
                return;
            }
            let value = match &id_maps[rel] {
                None => Arc::clone(sets),
                Some(id_map) => Arc::new(
                    sets.iter()
                        .map(|set| {
                            set.iter().map(|id| id_map[id.index()].expect("survivor")).collect()
                        })
                        .collect(),
                ),
            };
            memo.components.insert_if_missing((new_global, kind), &value);
            report.carried_entries += 1;
        });

        // Answers and plans survive unless they read a reshaped relation or, when
        // priority-sensitive, depend on a touched component; their component ids remap.
        let keep = |relations: &[usize], depends_on: &[usize], sensitive: bool| {
            let dropped = relations.iter().any(|&rel| reshaped[rel])
                || (sensitive && depends_on.iter().any(|&comp| touched[comp]));
            let remap = || depends_on.iter().map(|&comp| global_map[comp]).collect();
            (!dropped).then(remap).flatten()
        };
        memo.carry_answers_from(&self.inner.memo, |a| {
            keep(&a.relations, &a.depends_on, a.priority_sensitive)
        });
        memo.carry_plans_from(&self.inner.memo, |p| {
            keep(&p.relations, &p.depends_on, p.priority_sensitive)
        });

        let derived = EngineSnapshot {
            inner: Arc::new(SnapshotInner { relations, by_name: self.inner.by_name.clone(), memo }),
        };
        for (rel, local) in fresh_jobs {
            let global = derived.entries()[rel].comp_offset + local;
            jobs.extend(families[rel].iter().map(|&kind| (global, kind)));
        }
        // `Rep` first within a component: the other families derive from its memo
        // entry instead of re-running the independent-set search.
        jobs.sort_unstable_by_key(|&(global, kind)| (global, kind as u8));
        let weights: Vec<u128> = jobs
            .iter()
            .map(|&(global, _)| {
                let (rel, local) = derived.locate_component(global);
                derived.entries()[rel].components[local].len() as u128
            })
            .collect();
        let order = pdqi_solve::mis::schedule_by_descending_weight(&weights);
        let jobs: Vec<(usize, FamilyKind)> = order.into_iter().map(|i| jobs[i]).collect();
        crate::parallel::run_jobs(parallelism, jobs.len(), |i| {
            let (global, kind) = jobs[i];
            let (rel, local) = derived.locate_component(global);
            derived.component_preferred(rel, local, kind);
        });
        report.recomputed_entries = jobs.len();
        (derived, affected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::EngineBuilder;
    use pdqi_constraints::FdSet;
    use pdqi_relation::{RelationSchema, ValueType};

    fn schema(columns: &[&str]) -> Arc<RelationSchema> {
        let pairs: Vec<(&str, ValueType)> = columns.iter().map(|&c| (c, ValueType::Int)).collect();
        Arc::new(RelationSchema::from_pairs("R", &pairs).unwrap())
    }

    fn snapshot_of(columns: &[&str], rows: &[&[i64]], fds: &[&str]) -> EngineSnapshot {
        let rows = rows.iter().map(|row| row.iter().map(|&v| Value::int(v)).collect()).collect();
        let instance = RelationInstance::from_rows(schema(columns), rows).unwrap();
        let fds = FdSet::parse(schema(columns), fds).unwrap();
        EngineBuilder::new().relation(instance, fds).build().unwrap()
    }

    /// A snapshot of `R(A, B)` under `A -> B`.
    fn pairs_of(rows: &[(i64, i64)]) -> EngineSnapshot {
        let rows: Vec<[i64; 2]> = rows.iter().map(|&(a, b)| [a, b]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|row| &row[..]).collect();
        snapshot_of(&["A", "B"], &rows, &["A -> B"])
    }

    fn row(a: i64, b: i64) -> Vec<Value> {
        vec![Value::int(a), Value::int(b)]
    }

    fn mutate(base: &EngineSnapshot, mutation: Mutation) -> (EngineSnapshot, ChangeReport) {
        base.derive(&Change::Mutation(mutation), Parallelism::sequential()).unwrap()
    }

    fn add_fd(base: &EngineSnapshot, fd: &str) -> (EngineSnapshot, ChangeReport) {
        let fd = FunctionalDependency::parse(&schema(&["A", "B", "C"]), fd).unwrap();
        let change = Change::AddFd { relation: "R".to_string(), fd };
        base.derive(&change, Parallelism::sequential()).unwrap()
    }

    #[test]
    fn mutation_batches_collect_rows_per_relation() {
        let mutation =
            Mutation::new().insert_rows("R", [row(1, 0), row(2, 0)]).delete_rows("S", [row(3, 0)]);
        assert_eq!(mutation.relation_names(), vec!["R".to_string(), "S".to_string()]);
        assert!(!mutation.is_empty());
        assert!(Mutation::new().is_empty());
    }

    #[test]
    fn inserts_extend_and_deletes_shrink_bit_identically_to_a_rebuild() {
        // Three two-tuple components; mutate the middle one.
        let base = pairs_of(&[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        let (derived, report) =
            mutate(&base, Mutation::new().delete("R", row(1, 1)).insert("R", row(1, 2)));
        assert_eq!((report.inserted, report.deleted), (1, 1));
        assert_eq!(report.scope, ChangeScope::Mutation { relations: vec!["R".to_string()] });
        let fresh = pairs_of(&[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (1, 2)]);
        assert_eq!(derived.graph().edges(), fresh.graph().edges());
        assert_eq!(derived.component_count(), fresh.component_count());
        assert_eq!(derived.shards(), fresh.shards());
        assert_eq!(
            derived.preferred_repairs(FamilyKind::Rep, usize::MAX),
            fresh.preferred_repairs(FamilyKind::Rep, usize::MAX)
        );
    }

    #[test]
    fn untouched_component_memo_entries_carry_over() {
        let base = pairs_of(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        base.preferred_repairs(FamilyKind::Rep, usize::MAX);
        assert_eq!(base.memo_stats().component_misses, 2);
        // Insert a tuple conflicting with component 1 only.
        let (derived, report) = mutate(&base, Mutation::new().insert("R", row(1, 2)));
        assert_eq!(report.invalidated_components, 1);
        assert_eq!(report.carried_entries, 1);
        // Component 0 was carried; only the grown component was re-enumerated (eagerly).
        assert_eq!(report.recomputed_entries, 1);
        assert_eq!(derived.memo_stats().component_misses, 1);
        derived.preferred_repairs(FamilyKind::Rep, usize::MAX);
        assert_eq!(derived.memo_stats().component_misses, 1, "no further enumeration needed");
    }

    #[test]
    fn noop_mutations_share_everything() {
        let base = pairs_of(&[(0, 0), (0, 1)]);
        base.preferred_repairs(FamilyKind::Local, usize::MAX);
        // Deleting an absent row and re-inserting a stored row are both no-ops.
        let (derived, report) =
            mutate(&base, Mutation::new().delete("R", row(9, 9)).insert("R", row(0, 0)));
        let expected = ChangeReport {
            scope: ChangeScope::Mutation { relations: vec!["R".to_string()] },
            carried_entries: 1,
            ..ChangeReport::default()
        };
        assert_eq!(report, expected);
        assert!(Arc::ptr_eq(base.graph(), derived.graph()));
        derived.preferred_repairs(FamilyKind::Local, usize::MAX);
        assert_eq!(derived.memo_stats().component_misses, 0);
    }

    #[test]
    fn errors_are_reported_before_any_work() {
        let base = pairs_of(&[(0, 0), (0, 1)]);
        let seq = Parallelism::sequential();
        let derive = |mutation: Mutation| base.derive(&Change::Mutation(mutation), seq).err();
        let unknown = derive(Mutation::new().insert("Nope", row(1, 1)));
        assert!(matches!(unknown, Some(ChangeError::UnknownRelation { .. })));
        let bad_arity = derive(Mutation::new().insert("R", vec![Value::int(1)]));
        assert!(matches!(bad_arity, Some(ChangeError::Relation { .. })));
        let bad_type = derive(Mutation::new().delete("R", vec![Value::name("x"), Value::int(0)]));
        assert!(matches!(bad_type, Some(ChangeError::Relation { .. })));
        let fd = FunctionalDependency::parse(&schema(&["A", "B"]), "B -> A").unwrap();
        let unknown = base.derive(&Change::AddFd { relation: "Nope".to_string(), fd }, seq);
        assert!(matches!(unknown, Err(ChangeError::UnknownRelation { .. })));
        let foreign = pairs_of(&[(0, 0), (0, 1), (1, 0), (1, 1)]).priority().clone();
        let mismatch =
            base.derive(&Change::Priority { relation: "R".into(), priority: foreign }, seq);
        assert!(matches!(mismatch, Err(ChangeError::GraphMismatch { .. })));
    }

    #[test]
    fn priorities_carry_over_minus_deleted_edges() {
        let base = pairs_of(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let priority = base
            .context()
            .priority_from_pairs(&[(TupleId(0), TupleId(1)), (TupleId(2), TupleId(3))])
            .unwrap();
        let change = Change::Priority { relation: "R".to_string(), priority };
        let (prioritised, report) = base.derive(&change, Parallelism::sequential()).unwrap();
        let affected = BTreeSet::from([0, 1]);
        assert_eq!(report.scope, ChangeScope::Priority { relation: "R".to_string(), affected });
        let derived = mutate(&prioritised, Mutation::new().delete("R", row(0, 1))).0;
        // The (0,1) edge died with its loser; the (2,3) edge survives remapped to (1,2).
        assert_eq!(derived.priority().edges(), vec![(TupleId(1), TupleId(2))]);
        assert_eq!(derived.preferred_repair_count(FamilyKind::Global), 1);
    }

    const ABC: [&str; 3] = ["A", "B", "C"];

    #[test]
    fn adding_an_fd_matches_a_fresh_build() {
        let rows: [&[i64]; 7] =
            [&[0, 0, 0], &[0, 0, 1], &[1, 0, 0], &[1, 1, 0], &[2, 0, 0], &[2, 0, 0], &[3, 5, 5]];
        let base = snapshot_of(&ABC, &rows, &["A -> B"]);
        base.preferred_repairs(FamilyKind::Rep, usize::MAX);
        let (derived, report) = add_fd(&base, "A -> C");
        let fresh = snapshot_of(&ABC, &rows, &["A -> B", "A -> C"]);
        assert_eq!(derived.graph().edges(), fresh.graph().edges());
        assert_eq!(derived.component_count(), fresh.component_count());
        assert_eq!(derived.shards(), fresh.shards());
        assert_eq!(
            derived.preferred_repairs(FamilyKind::Rep, usize::MAX),
            fresh.preferred_repairs(FamilyKind::Rep, usize::MAX)
        );
        assert!(report.new_edges > 0);
    }

    #[test]
    fn implied_fds_share_the_whole_snapshot() {
        // Every edge `A -> B, C` could create already exists (any pair agreeing on A
        // and differing on B or C violates A -> B or A -> C alike).
        let base = snapshot_of(&ABC, &[&[0, 0, 0], &[0, 1, 1], &[1, 0, 0]], &["A -> B", "A -> C"]);
        base.preferred_repairs(FamilyKind::Global, usize::MAX);
        let (derived, report) = add_fd(&base, "A -> B, C");
        assert_eq!(report.new_edges, 0);
        assert_eq!(report.invalidated_components, 0);
        assert_eq!(report.recomputed_entries, 0);
        let affected = BTreeSet::new();
        assert_eq!(report.scope, ChangeScope::Schema { relation: "R".to_string(), affected });
        assert!(Arc::ptr_eq(base.graph(), derived.graph()));
        assert_eq!(derived.context().fds().len(), 3);
        derived.preferred_repairs(FamilyKind::Global, usize::MAX);
        assert_eq!(derived.memo_stats().component_misses, 0, "memo fully carried");
    }

    #[test]
    fn untouched_components_keep_their_memo_entries() {
        // Under A -> C: components {0,1} and {2,3}, free tuples 4 and 5. Adding
        // B -> C re-creates the (0,1) and (2,3) edges (not new) and one genuinely new
        // edge (4,5) between the previously conflict-free b=9 pair: both old
        // components carry their memo entries; only the fresh {4,5} is enumerated.
        let rows: [&[i64]; 6] =
            [&[0, 0, 0], &[0, 0, 1], &[1, 5, 2], &[1, 5, 3], &[2, 9, 7], &[3, 9, 8]];
        let base = snapshot_of(&ABC, &rows, &["A -> C"]);
        base.preferred_repairs(FamilyKind::Rep, usize::MAX);
        assert_eq!(base.memo_stats().component_misses, 2);
        let (derived, report) = add_fd(&base, "B -> C");
        assert_eq!(report.new_edges, 1);
        assert_eq!(report.invalidated_components, 0);
        assert_eq!(report.carried_entries, 2);
        assert_eq!(report.recomputed_entries, 1);
        derived.preferred_repairs(FamilyKind::Rep, usize::MAX);
        assert_eq!(derived.memo_stats().component_misses, 1, "only the fresh component");
    }
}
