//! The prepared-query engine: [`EngineBuilder`] and [`EngineSnapshot`].
//!
//! The paper's framework fixes the database, its constraints and the priority once and
//! then answers *many* queries against the induced families of preferred repairs. The
//! snapshot API mirrors that shape:
//!
//! * [`EngineBuilder`] assembles one or more relations (each with its functional
//!   dependencies and a priority source) and freezes them into an immutable
//!   [`EngineSnapshot`]. Building computes each relation's conflict graph and its
//!   connected components once; everything is shared behind [`Arc`]s, so cloning a
//!   snapshot and deriving new snapshots is cheap.
//! * [`EngineSnapshot`] answers repair-space questions (counts, enumeration, checking,
//!   cleaning) through a **per-component memo**: for every connected component of a
//!   conflict graph and every [`FamilyKind`], the component's preferred repairs are
//!   enumerated at most once per snapshot and reused by every later operation — repeated
//!   queries, overlapping queries, counting, enumeration. The memo is safe because every
//!   family of the paper factorises over connected components: conflicts and priority
//!   edges never cross components, so a repair is preferred iff its restriction to each
//!   component is preferred within that component (see `component_preferred` below for
//!   the per-family component tests).
//! * [`EngineSnapshot::derive`] (in [`crate::change`]) derives a snapshot from a
//!   priority revision, a row mutation or an added FD without rebuilding: only the
//!   components the change touches are re-partitioned and re-enumerated, everything
//!   else — graph, components, memo entries — is shared or carried over.
//!
//! # The shard layer
//!
//! Construction and revalidation are **sharded** so they fan out over the
//! [`crate::parallel`] pool, exploiting the same observation that makes the memo safe:
//! conflicts and priority edges never cross connected components. The decomposition,
//! from coarse to fine:
//!
//! ```text
//! instance ──(per-FD conflict scans, one shard job per (relation, FD))──► conflict graph
//!    │                                                                        │
//!    └► relation entry ◄──(per-relation assembly: priority + components)──────┘
//!            │
//!            ├── components [c₀, c₁, …]      (global ids assigned via comp_offset)
//!            ├── shards     [Shard {components: i..j, tuples}]   (contiguous,
//!            │                tuple-balanced runs of components — the unit of
//!            │                revalidation fan-out and adaptive chunk estimates)
//!            └── memo       component id → stripe (id mod STRIPES) → preferred repairs
//! ```
//!
//! Every parallel path is **bit-identical** to its sequential counterpart: per-FD edge
//! shards merge by set union, component order is a deterministic function of the graph,
//! and `comp_offset` is assigned in relation insertion order after the fan-out — so a
//! snapshot built with any [`Parallelism`] has the same components, the same global
//! component ids, the same repairs and the same answers as a sequential build.
//!
//! Queries are executed against snapshots through [`crate::prepared::PreparedQuery`],
//! which adds a second memo level keyed by `(component set, family, query fingerprint)`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use pdqi_constraints::{fd_conflict_edges, ConflictGraph, FdSet};
use pdqi_priority::{
    priority_from_scores, priority_from_source_reliability, Priority, PriorityError, SourceOrder,
};
use pdqi_relation::{RelationError, RelationInstance, TupleId, TupleSet};
use pdqi_solve::maximal_independent_sets_within;

use crate::clean::{clean_with_total_priority, common_repairs_within, CleaningError};
use crate::cqa::CqaOutcome;
use crate::families::FamilyKind;
use crate::optimality::{is_locally_optimal, is_semi_globally_optimal, preferred_over};
use crate::parallel::Parallelism;
use crate::prepared::{AnswerSet, ClosedProfile, SelectionCursor};
use crate::repair::RepairContext;

/// Errors raised while assembling a snapshot.
#[derive(Debug)]
pub enum BuildError {
    /// Two relations with the same name were added.
    DuplicateRelation {
        /// The offending relation name.
        relation: String,
    },
    /// A priority source was declared before any relation.
    PriorityWithoutRelation,
    /// A priority source did not fit its relation (bad pair, cycle, ...).
    Priority(PriorityError),
    /// A per-tuple annotation (scores, provenance) had the wrong length.
    AnnotationLength {
        /// The relation the annotation was attached to.
        relation: String,
        /// Number of annotations supplied.
        supplied: usize,
        /// Number of tuples in the relation.
        expected: usize,
    },
    /// An underlying relation error.
    Relation(RelationError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateRelation { relation } => {
                write!(f, "relation `{relation}` was added twice")
            }
            BuildError::PriorityWithoutRelation => {
                f.write_str("a priority source must follow the relation it applies to")
            }
            BuildError::Priority(e) => write!(f, "priority cannot be installed: {e}"),
            BuildError::AnnotationLength { relation, supplied, expected } => write!(
                f,
                "relation `{relation}` has {expected} tuples but {supplied} annotations were supplied"
            ),
            BuildError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<PriorityError> for BuildError {
    fn from(e: PriorityError) -> Self {
        BuildError::Priority(e)
    }
}

impl BuildError {
    /// The underlying [`PriorityError`], if that is what went wrong.
    pub fn as_priority_error(&self) -> Option<&PriorityError> {
        match self {
            BuildError::Priority(e) => Some(e),
            _ => None,
        }
    }
}

/// How a relation's priority is derived when the snapshot is built.
#[derive(Debug, Clone)]
enum PrioritySource {
    Empty,
    Pairs(Vec<(TupleId, TupleId)>),
    Scores(Vec<i64>),
    Sources(Vec<String>, SourceOrder),
}

#[derive(Debug, Clone)]
struct RelationSpec {
    instance: RelationInstance,
    fds: FdSet,
    priority: PrioritySource,
}

/// Conflict edges (smaller tuple id first), as produced by one per-FD shard scan.
type EdgeList = Vec<(TupleId, TupleId)>;

/// One relation's per-FD edge shards, in FD order.
type EdgeShards = Vec<EdgeList>;

/// Assembles relations, constraints and priority sources into an [`EngineSnapshot`].
///
/// ```
/// use pdqi_core::{EngineBuilder, FamilyKind};
/// # use std::sync::Arc;
/// # use pdqi_relation::{RelationInstance, RelationSchema, Value, ValueType};
/// # use pdqi_constraints::FdSet;
/// # let schema = Arc::new(RelationSchema::from_pairs(
/// #     "R", &[("A", ValueType::Int), ("B", ValueType::Int)]).unwrap());
/// # let instance = RelationInstance::from_rows(Arc::clone(&schema), vec![
/// #     vec![Value::int(1), Value::int(1)], vec![Value::int(1), Value::int(2)],
/// # ]).unwrap();
/// # let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
/// let snapshot = EngineBuilder::new()
///     .relation(instance, fds)
///     .priority_from_scores(&[5, 3])
///     .build()
///     .unwrap();
/// assert_eq!(snapshot.preferred_repair_count(FamilyKind::Global), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    relations: Vec<RelationSpec>,
    orphan_priority: bool,
    parallelism: Parallelism,
}

impl EngineBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Sets the degree of parallelism [`EngineBuilder::build`] fans shard jobs out with
    /// (sequential by default). Parallel builds are **bit-identical** to sequential
    /// builds — same components, same `comp_offset` assignment, same repairs and
    /// answers; the degree only trades threads for build latency.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Adds a relation with its functional dependencies (and, initially, the empty
    /// priority). Priority-source methods apply to the most recently added relation.
    pub fn relation(mut self, instance: RelationInstance, fds: FdSet) -> Self {
        self.relations.push(RelationSpec { instance, fds, priority: PrioritySource::Empty });
        self
    }

    fn set_priority(mut self, priority: PrioritySource) -> Self {
        match self.relations.last_mut() {
            Some(spec) => spec.priority = priority,
            // Remembered and reported as an error by `build` so the fluent chain
            // stays ergonomic.
            None => self.orphan_priority = true,
        }
        self
    }

    /// Installs explicit `winner ≻ loser` tuple-id pairs for the last added relation.
    pub fn priority_pairs(self, pairs: &[(TupleId, TupleId)]) -> Self {
        self.set_priority(PrioritySource::Pairs(pairs.to_vec()))
    }

    /// Installs a priority derived from per-tuple scores (higher score wins each
    /// conflict) for the last added relation.
    pub fn priority_from_scores(self, scores: &[i64]) -> Self {
        self.set_priority(PrioritySource::Scores(scores.to_vec()))
    }

    /// Installs a priority derived from per-tuple provenance and a source-reliability
    /// order (the paper's Example 3 scenario) for the last added relation.
    pub fn priority_from_sources(self, source_of: &[String], order: &SourceOrder) -> Self {
        self.set_priority(PrioritySource::Sources(source_of.to_vec(), order.clone()))
    }

    /// Freezes the builder into an immutable snapshot, computing every relation's
    /// conflict graph and connected components once.
    ///
    /// The build runs in three stages. With a parallel configuration (see
    /// [`EngineBuilder::parallelism`]) the first two fan out over the worker pool; the
    /// result is bit-identical either way:
    ///
    /// 1. **edge shards** — one job per `(relation, FD)` pair scans that FD's conflict
    ///    pairs (per-FD scans only compare tuples agreeing on the FD's left-hand side,
    ///    so they are independent);
    /// 2. **relation assembly** — one job per relation merges its edge shards into the
    ///    conflict graph (a set union, order-insensitive), orients the priority and
    ///    partitions the graph into components;
    /// 3. **sequential stitching** — duplicate checks, error selection, `comp_offset`
    ///    assignment and shard planning walk the relations in insertion order, so names,
    ///    global component ids and reported errors match the sequential build exactly.
    ///
    /// Stages 1–2 run speculatively for *every* relation so that stage 3 can replay the
    /// sequential walk's error selection verbatim: a failing build therefore pays the
    /// full fan-out cost before reporting. That trade (cold error path for exact error
    /// parity) is deliberate — callers feeding invalid specs get the same error at any
    /// parallelism degree.
    pub fn build(self) -> Result<EngineSnapshot, BuildError> {
        let parallelism = self.parallelism;
        self.build_with(parallelism)
    }

    /// [`EngineBuilder::build`] with an explicit degree of parallelism (overriding
    /// [`EngineBuilder::parallelism`]).
    pub fn build_with(self, parallelism: Parallelism) -> Result<EngineSnapshot, BuildError> {
        if self.orphan_priority {
            return Err(BuildError::PriorityWithoutRelation);
        }
        let specs = self.relations;
        let names: Vec<String> =
            specs.iter().map(|spec| spec.instance.schema().name().to_string()).collect();

        // Stage 1 — per-(relation, FD) conflict-edge shards, heaviest relations first so
        // the atomic work index keeps workers balanced.
        let mut edge_jobs: Vec<(usize, usize)> = Vec::new();
        for (rel, spec) in specs.iter().enumerate() {
            for fd in 0..spec.fds.fds().len() {
                edge_jobs.push((rel, fd));
            }
        }
        let weights: Vec<u128> =
            edge_jobs.iter().map(|&(rel, _)| specs[rel].instance.len() as u128).collect();
        let order = pdqi_solve::mis::schedule_by_descending_weight(&weights);
        let edge_jobs: Vec<(usize, usize)> = order.into_iter().map(|i| edge_jobs[i]).collect();
        let edge_shards: Vec<((usize, usize), EdgeList)> =
            crate::parallel::run_jobs(parallelism, edge_jobs.len(), |i| {
                let (rel, fd) = edge_jobs[i];
                let spec = &specs[rel];
                ((rel, fd), fd_conflict_edges(&spec.instance, &spec.fds.fds()[fd]))
            });
        let mut edge_lists: Vec<EdgeShards> =
            specs.iter().map(|spec| vec![Vec::new(); spec.fds.fds().len()]).collect();
        for ((rel, fd), edges) in edge_shards {
            edge_lists[rel][fd] = edges;
        }

        // Stage 2 — per-relation assembly. Each slot hands its job ownership of the spec
        // and edge shards without cloning; jobs run heaviest relation first.
        let rel_weights: Vec<u128> = specs.iter().map(|spec| spec.instance.len() as u128).collect();
        let slots: Vec<Mutex<Option<(RelationSpec, EdgeShards)>>> = specs
            .into_iter()
            .zip(edge_lists)
            .map(|(spec, lists)| Mutex::new(Some((spec, lists))))
            .collect();
        let rel_jobs = pdqi_solve::mis::schedule_by_descending_weight(&rel_weights);
        let assembled: Vec<(usize, Result<RelationEntry, BuildError>)> =
            crate::parallel::run_jobs(parallelism, rel_jobs.len(), |i| {
                let rel = rel_jobs[i];
                let (spec, lists) =
                    slots[rel].lock().expect("builder slot").take().expect("slot taken once");
                (rel, assemble_relation(spec, &lists))
            });
        let mut by_relation: Vec<Option<Result<RelationEntry, BuildError>>> =
            (0..names.len()).map(|_| None).collect();
        for (rel, result) in assembled {
            by_relation[rel] = Some(result);
        }

        // Stage 3 — sequential stitching in insertion order: the duplicate check and the
        // first reported error interleave per relation exactly like the sequential
        // single-pass build, and `comp_offset` / shard plans are assigned in order.
        let mut entries = Vec::with_capacity(names.len());
        let mut by_name = BTreeMap::new();
        let mut comp_offset = 0usize;
        for (rel, result) in by_relation.into_iter().enumerate() {
            if by_name.insert(names[rel].clone(), entries.len()).is_some() {
                return Err(BuildError::DuplicateRelation { relation: names[rel].clone() });
            }
            let entry = result.expect("every relation was assembled")?;
            let entry = entry.with_offset(rel, comp_offset);
            comp_offset += entry.components.len();
            entries.push(entry);
        }
        Ok(EngineSnapshot {
            inner: Arc::new(SnapshotInner { relations: entries, by_name, memo: Memo::default() }),
        })
    }
}

/// Stage-2 assembly of one relation: merge its per-FD edge shards into the conflict
/// graph, orient the priority source over it, and partition the components (the
/// `comp_offset` and shard plan are stitched in afterwards, in relation order).
fn assemble_relation(
    spec: RelationSpec,
    edge_lists: &[EdgeList],
) -> Result<RelationEntry, BuildError> {
    let name = spec.instance.schema().name().to_string();
    let graph = Arc::new(ConflictGraph::from_edge_lists(spec.instance.len(), edge_lists));
    let priority = match spec.priority {
        PrioritySource::Empty => Priority::empty(Arc::clone(&graph)),
        PrioritySource::Pairs(pairs) => Priority::from_pairs(Arc::clone(&graph), &pairs)?,
        PrioritySource::Scores(scores) => {
            if scores.len() != graph.vertex_count() {
                return Err(BuildError::AnnotationLength {
                    relation: name,
                    supplied: scores.len(),
                    expected: graph.vertex_count(),
                });
            }
            priority_from_scores(Arc::clone(&graph), &scores)
        }
        PrioritySource::Sources(sources, order) => {
            if sources.len() != graph.vertex_count() {
                return Err(BuildError::AnnotationLength {
                    relation: name,
                    supplied: sources.len(),
                    expected: graph.vertex_count(),
                });
            }
            priority_from_source_reliability(Arc::clone(&graph), &sources, &order)
        }
    };
    let ctx = RepairContext::with_graph(spec.instance, spec.fds, Arc::clone(&graph));
    Ok(RelationEntry::new(Arc::new(ctx), priority))
}

/// One shard of a relation's conflict structure: a contiguous, tuple-balanced run of the
/// relation's non-trivial connected components.
///
/// Shards are planned deterministically at build time (a pure function of the component
/// partition, independent of the build's parallelism) and are the coarse unit of the
/// shard layer described in the [module docs](self): builds fan out per `(relation,
/// FD)` and per relation, revalidation and warming fan out per component, and the
/// component memo is striped by global component id. Shard metadata is what ties those
/// levels together for observability (`.shards` in the CLI) and for the adaptive
/// chunking estimates of [`crate::PreparedQuery::execute_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Index of the relation inside its snapshot.
    relation: usize,
    /// Local (per-relation) component indices covered by this shard.
    local_components: Range<usize>,
    /// Global id of the shard's first component.
    comp_offset: usize,
    /// Total tuples across the shard's components.
    tuples: usize,
}

impl Shard {
    /// Index of the relation this shard belongs to (snapshot entry order).
    pub fn relation(&self) -> usize {
        self.relation
    }

    /// The **global** component ids covered by this shard (contiguous by construction).
    pub fn component_range(&self) -> Range<usize> {
        self.comp_offset..self.comp_offset + self.local_components.len()
    }

    /// Number of components in this shard (always at least 1).
    pub fn component_count(&self) -> usize {
        self.local_components.len()
    }

    /// Total tuples across this shard's components.
    pub fn tuple_count(&self) -> usize {
        self.tuples
    }
}

/// Upper bound on the number of shards one relation's components are partitioned into.
/// Shards are scheduling metadata, not storage: a small fixed fan-out keeps planning
/// O(components) while still feeding enough independent units to the worker pool.
const MAX_SHARDS_PER_RELATION: usize = 16;

/// Partitions `components` into at most [`MAX_SHARDS_PER_RELATION`] contiguous shards
/// balancing tuple counts (components stay in component-id order, so shard boundaries
/// are deterministic and independent of parallelism).
pub(crate) fn plan_shards(
    relation: usize,
    comp_offset: usize,
    components: &[TupleSet],
) -> Vec<Shard> {
    if components.is_empty() {
        return Vec::new();
    }
    let shard_count = components.len().min(MAX_SHARDS_PER_RELATION);
    let total_tuples: usize = components.iter().map(TupleSet::len).sum();
    let target = total_tuples.div_ceil(shard_count);
    let mut shards = Vec::with_capacity(shard_count);
    let mut start = 0usize;
    let mut tuples = 0usize;
    for (index, component) in components.iter().enumerate() {
        tuples += component.len();
        let remaining_components = components.len() - index - 1;
        let remaining_shards = shard_count - shards.len() - 1;
        // Close the shard once it reaches the tuple target — but never leave fewer
        // components than shards still to fill, and never close the last shard early.
        let must_close = remaining_components == remaining_shards;
        if remaining_shards > 0
            && remaining_components >= remaining_shards
            && (tuples >= target || must_close)
        {
            shards.push(Shard {
                relation,
                local_components: start..index + 1,
                comp_offset: comp_offset + start,
                tuples,
            });
            start = index + 1;
            tuples = 0;
        }
    }
    shards.push(Shard {
        relation,
        local_components: start..components.len(),
        comp_offset: comp_offset + start,
        tuples,
    });
    shards
}

/// One relation frozen inside a snapshot.
pub(crate) struct RelationEntry {
    /// Instance, constraints and conflict graph (shared with derived snapshots).
    pub(crate) ctx: Arc<RepairContext>,
    /// The priority orienting this relation's conflict graph.
    pub(crate) priority: Priority,
    /// The *non-trivial* connected components (≥ 2 tuples) of the conflict graph.
    pub(crate) components: Arc<Vec<TupleSet>>,
    /// Conflict-free tuples: members of every repair, of every family.
    pub(crate) base: Arc<TupleSet>,
    /// Per-tuple component index (`usize::MAX` for conflict-free tuples).
    pub(crate) comp_of: Arc<Vec<usize>>,
    /// Global id of this relation's first component within the snapshot.
    pub(crate) comp_offset: usize,
    /// The shard plan: contiguous, tuple-balanced runs of this relation's components.
    pub(crate) shards: Arc<Vec<Shard>>,
}

impl RelationEntry {
    fn new(ctx: Arc<RepairContext>, priority: Priority) -> Self {
        // Pushed rather than collected in place, which would keep the buffer sized for
        // every component, singletons included, alive in the snapshot.
        let mut components = Vec::new();
        for component in ctx.graph().connected_components() {
            if component.len() >= 2 {
                components.push(component);
            }
        }
        RelationEntry::from_components(ctx, priority, components)
    }

    /// An entry over the given non-trivial components (in component-id order); every
    /// other tuple is conflict-free. Offset and shard plan are stitched in afterwards.
    pub(crate) fn from_components(
        ctx: Arc<RepairContext>,
        priority: Priority,
        components: Vec<TupleSet>,
    ) -> Self {
        let mut comp_of = vec![usize::MAX; ctx.instance().len()];
        for (index, members) in components.iter().enumerate() {
            for t in members.iter() {
                comp_of[t.index()] = index;
            }
        }
        let mut base = TupleSet::with_capacity(comp_of.len());
        for t in ctx.instance().ids().filter(|t| comp_of[t.index()] == usize::MAX) {
            base.insert(t);
        }
        RelationEntry {
            ctx,
            priority,
            components: Arc::new(components),
            base: Arc::new(base),
            comp_of: Arc::new(comp_of),
            comp_offset: 0,
            shards: Arc::new(Vec::new()),
        }
    }

    /// Stitches in the relation's position and global component offset (assigned
    /// sequentially in relation order) and plans the shards over them.
    pub(crate) fn with_offset(mut self, relation: usize, comp_offset: usize) -> Self {
        self.comp_offset = comp_offset;
        self.shards = Arc::new(plan_shards(relation, comp_offset, &self.components));
        self
    }

    /// A copy of this entry sharing every [`Arc`]-held part (the cheap "clone").
    pub(crate) fn share(&self) -> RelationEntry {
        RelationEntry {
            ctx: Arc::clone(&self.ctx),
            priority: self.priority.clone(),
            components: Arc::clone(&self.components),
            base: Arc::clone(&self.base),
            comp_of: Arc::clone(&self.comp_of),
            comp_offset: self.comp_offset,
            shards: Arc::clone(&self.shards),
        }
    }
}

/// Key of a memoised answer: query fingerprint, family and execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AnswerKey {
    pub(crate) fingerprint: u64,
    pub(crate) family: FamilyKind,
    pub(crate) mode: AnswerMode,
}

/// What kind of result an [`AnswerKey`] caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AnswerMode {
    /// Certain answers (rows in every preferred repair).
    Certain,
    /// Possible answers (rows in some preferred repair).
    Possible,
    /// The closed answer: the ground fast path's [`CqaOutcome`] and the walk's
    /// [`ClosedProfile`].
    Closed,
}

/// A memoised execution result.
#[derive(Clone)]
pub(crate) struct AnswerEntry {
    /// The exact formula this entry answers. The memo key holds only a 64-bit
    /// fingerprint, so hits re-check the formula to rule out hash collisions.
    pub(crate) formula: pdqi_query::Formula,
    /// The open answer: sorted, de-duplicated rows under their columns (empty for
    /// closed answers).
    pub(crate) answers: AnswerSet,
    /// The polynomial ground fast path's closed outcome (`examined == 0`).
    pub(crate) ground: Option<CqaOutcome>,
    /// The walk's closed profile; every other closed outcome is its replay. Each
    /// closed part is filled by the path that computes it, and a later store keeps
    /// the parts it does not bring, so a closed read hits exactly when its part is
    /// here, whatever order the reads came in.
    pub(crate) profile: Option<ClosedProfile>,
    /// Global component ids this result depends on (used by priority invalidation).
    pub(crate) depends_on: Vec<usize>,
    /// Snapshot relation indices the query mentions (used by mutation invalidation —
    /// a conflict-free relation contributes no component to `depends_on`, so component
    /// ids alone cannot tell whether a mutation touched the answer).
    pub(crate) relations: Vec<usize>,
    /// Whether the result depends on the priority at all.
    pub(crate) priority_sensitive: bool,
}

/// A memoised physical plan: the cost-based planner's choice for one
/// `(fingerprint, family)` on this snapshot, plus the invalidation footprint that
/// decides whether a derived snapshot may keep it. Mirrors [`AnswerEntry`]: plans are
/// carried across priority/mutation/schema derivations exactly when the cardinalities
/// they were costed from survived, and re-costed otherwise.
#[derive(Clone)]
pub(crate) struct PlanEntry {
    /// The exact formula this plan was costed for (the cache key holds only a 64-bit
    /// fingerprint, so hits re-check the formula to rule out hash collisions).
    pub(crate) formula: pdqi_query::Formula,
    /// The chosen physical plan.
    pub(crate) plan: Arc<pdqi_query::PhysicalPlan>,
    /// Global component ids whose memoised repair counts fed the cost model.
    pub(crate) depends_on: Vec<usize>,
    /// Snapshot relation indices the query mentions (mutation invalidation; see
    /// [`AnswerEntry::relations`]).
    pub(crate) relations: Vec<usize>,
    /// Whether the plan's cardinalities depend on the priority (non-`Rep` families).
    pub(crate) priority_sensitive: bool,
}

/// Cap on memoised answers per snapshot. The component memo is naturally
/// bounded (components × families), but answers grow with the number of distinct
/// queries; past this limit the **oldest** entry is evicted (insertion order), which
/// keeps long-lived sessions at a bounded footprint with O(1) amortised insertions while
/// retaining the recently stored answers a serving workload is most likely to repeat.
const ANSWER_MEMO_LIMIT: usize = 4096;

/// Cap on memoised physical plans per snapshot. Plans are tiny (a few vectors of
/// indices), so a simple insert-refusal bound suffices: past the cap new plans are
/// handed back uncached and re-costed per execution.
const PLAN_MEMO_LIMIT: usize = 4096;

/// Hit/miss/eviction counters of a snapshot's memo, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Per-component preferred-repair enumerations served from the memo.
    pub component_hits: u64,
    /// Per-component preferred-repair enumerations actually computed.
    pub component_misses: u64,
    /// Query executions served from the memo.
    pub answer_hits: u64,
    /// Query executions actually computed.
    pub answer_misses: u64,
    /// Answers evicted from the bounded memo (oldest first).
    pub answer_evictions: u64,
}

/// Number of lock stripes the component memo is split into. Global component ids map to
/// stripes by `id % MEMO_STRIPES`; shard planning assigns ids contiguously, so the
/// components of a hot shard spread across stripes instead of serialising on one lock
/// when builds, warms and queries race.
const MEMO_STRIPES: usize = 16;

/// One lock stripe of the component memo.
type MemoStripe = RwLock<HashMap<(usize, FamilyKind), Arc<Vec<TupleSet>>>>;

/// `(global component id, family)` → that component's preferred repairs, striped by
/// component id (each shard's memo slice spans several stripes; see [`MEMO_STRIPES`]).
pub(crate) struct ComponentMemo {
    stripes: Vec<MemoStripe>,
}

impl Default for ComponentMemo {
    fn default() -> Self {
        ComponentMemo { stripes: (0..MEMO_STRIPES).map(|_| RwLock::default()).collect() }
    }
}

impl ComponentMemo {
    fn stripe(&self, comp: usize) -> &MemoStripe {
        &self.stripes[comp % MEMO_STRIPES]
    }

    fn get(&self, key: &(usize, FamilyKind)) -> Option<Arc<Vec<TupleSet>>> {
        self.stripe(key.0).read().expect("memo lock").get(key).cloned()
    }

    fn contains(&self, key: &(usize, FamilyKind)) -> bool {
        self.stripe(key.0).read().expect("memo lock").contains_key(key)
    }

    /// Inserts `value` unless a racing computation beat this one to the key (both
    /// computed the same deterministic result; the first stays, keeping every
    /// outstanding `Arc` consistent).
    pub(crate) fn insert_if_missing(&self, key: (usize, FamilyKind), value: &Arc<Vec<TupleSet>>) {
        self.stripe(key.0)
            .write()
            .expect("memo lock")
            .entry(key)
            .or_insert_with(|| Arc::clone(value));
    }

    /// Visits every memoised entry, holding one stripe lock at a time.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&(usize, FamilyKind), &Arc<Vec<TupleSet>>)) {
        for stripe in &self.stripes {
            for (key, value) in stripe.read().expect("memo lock").iter() {
                f(key, value);
            }
        }
    }
}

/// The answer memo, bounded by [`ANSWER_MEMO_LIMIT`]: entries plus their insertion
/// order. Invariant: `order` holds exactly the keys of `entries`, each once, oldest
/// first.
#[derive(Default)]
struct AnswerMemo {
    entries: HashMap<AnswerKey, Arc<AnswerEntry>>,
    order: VecDeque<AnswerKey>,
}

#[derive(Default)]
pub(crate) struct Memo {
    pub(crate) components: ComponentMemo,
    /// Memoised query executions.
    answers: RwLock<AnswerMemo>,
    /// Memoised physical plans, keyed by `(query fingerprint, family)`.
    plans: RwLock<HashMap<(u64, FamilyKind), Arc<PlanEntry>>>,
    component_hits: AtomicU64,
    component_misses: AtomicU64,
    answer_hits: AtomicU64,
    answer_misses: AtomicU64,
    answer_evictions: AtomicU64,
}

impl Memo {
    /// Carries answer entries over from `parent` into this (fresh) memo, walking the
    /// old insertion order so surviving entries keep their age. `keep` decides per
    /// entry: `None` drops it, `Some(depends_on)` keeps it with the given (possibly
    /// remapped) component dependencies — the entry is shared when they are unchanged
    /// and re-assembled otherwise. A closed entry carries its outcome and its profile
    /// together. Every derivation (priority revision, mutation delta) funnels through
    /// here, so the entries/order invariant lives in one place.
    pub(crate) fn carry_answers_from(
        &self,
        parent: &Memo,
        mut keep: impl FnMut(&AnswerEntry) -> Option<Vec<usize>>,
    ) {
        let old = parent.answers.read().expect("memo lock");
        let mut new = self.answers.write().expect("memo lock");
        for key in old.order.iter() {
            let answer = &old.entries[key];
            let Some(depends_on) = keep(answer) else {
                continue;
            };
            let entry = if depends_on == answer.depends_on {
                Arc::clone(answer)
            } else {
                Arc::new(AnswerEntry { depends_on, ..AnswerEntry::clone(answer) })
            };
            new.order.push_back(*key);
            new.entries.insert(*key, entry);
        }
    }

    /// The plan-cache analogue of [`Memo::carry_answers_from`]: every derivation calls
    /// both with the *same* keep closure, so a plan survives a swap exactly when the
    /// memoised cardinalities it was costed from did — anything else is dropped here
    /// and re-costed by the first execution to need it.
    pub(crate) fn carry_plans_from(
        &self,
        parent: &Memo,
        mut keep: impl FnMut(&PlanEntry) -> Option<Vec<usize>>,
    ) {
        let old = parent.plans.read().expect("memo lock");
        let mut new = self.plans.write().expect("memo lock");
        for (key, plan) in old.iter() {
            let Some(depends_on) = keep(plan) else {
                continue;
            };
            let entry = if depends_on == plan.depends_on {
                Arc::clone(plan)
            } else {
                Arc::new(PlanEntry { depends_on, ..PlanEntry::clone(plan) })
            };
            new.insert(*key, entry);
        }
    }
}

pub(crate) struct SnapshotInner {
    pub(crate) relations: Vec<RelationEntry>,
    pub(crate) by_name: BTreeMap<String, usize>,
    pub(crate) memo: Memo,
}

/// An immutable, shareable engine state: relations, constraints, conflict graphs,
/// connected components and priorities, plus the per-component and per-query memo.
///
/// Cloning is cheap (an [`Arc`] bump) and clones share the memo. See the
/// [module docs](self) for the overall design and [`EngineBuilder`] for construction.
#[derive(Clone)]
pub struct EngineSnapshot {
    pub(crate) inner: Arc<SnapshotInner>,
}

impl fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.memo_stats();
        f.debug_struct("EngineSnapshot")
            .field("relations", &self.relation_names())
            .field("components", &self.component_count())
            .field("memo", &stats)
            .finish()
    }
}

impl EngineSnapshot {
    /// A fresh builder (convenience for `EngineBuilder::new()`).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Number of relations in the snapshot.
    pub fn relation_count(&self) -> usize {
        self.inner.relations.len()
    }

    /// The relation names, in lexicographic order.
    pub fn relation_names(&self) -> Vec<String> {
        self.inner.by_name.keys().cloned().collect()
    }

    /// Whether the snapshot contains a relation called `name`.
    pub fn has_relation(&self, name: &str) -> bool {
        self.inner.by_name.contains_key(name)
    }

    /// Total number of non-trivial conflict components across all relations.
    pub fn component_count(&self) -> usize {
        self.inner.relations.iter().map(|r| r.components.len()).sum()
    }

    pub(crate) fn entries(&self) -> &[RelationEntry] {
        &self.inner.relations
    }

    pub(crate) fn entry_index(&self, name: &str) -> Option<usize> {
        self.inner.by_name.get(name).copied()
    }

    fn single(&self) -> &RelationEntry {
        assert_eq!(
            self.inner.relations.len(),
            1,
            "this accessor requires a single-relation snapshot; use the *_of(name) variant"
        );
        &self.inner.relations[0]
    }

    /// The repair context of a single-relation snapshot.
    ///
    /// # Panics
    /// If the snapshot holds more than one relation (use [`EngineSnapshot::context_of`]).
    pub fn context(&self) -> &RepairContext {
        &self.single().ctx
    }

    /// The repair context of relation `name`.
    pub fn context_of(&self, name: &str) -> Option<&RepairContext> {
        self.entry_index(name).map(|i| &*self.inner.relations[i].ctx)
    }

    /// The conflict graph of a single-relation snapshot.
    pub fn graph(&self) -> &Arc<ConflictGraph> {
        self.single().ctx.graph()
    }

    /// The priority of a single-relation snapshot.
    pub fn priority(&self) -> &Priority {
        &self.single().priority
    }

    /// The priority of relation `name`.
    pub fn priority_of(&self, name: &str) -> Option<&Priority> {
        self.entry_index(name).map(|i| &self.inner.relations[i].priority)
    }

    /// Whether every relation of the snapshot is consistent.
    pub fn is_consistent(&self) -> bool {
        self.inner.relations.iter().all(|r| r.ctx.is_consistent())
    }

    /// The number of repairs of the whole snapshot: the product of per-component repair
    /// counts, computed from the memoised component enumerations and saturating at
    /// `u128::MAX`.
    pub fn count_repairs(&self) -> u128 {
        self.preferred_repair_count(FamilyKind::Rep)
    }

    /// The number of preferred repairs of the given family (product of per-component
    /// counts, saturating at `u128::MAX`).
    pub fn preferred_repair_count(&self, kind: FamilyKind) -> u128 {
        let mut total = 1u128;
        for (rel, entry) in self.inner.relations.iter().enumerate() {
            for comp in 0..entry.components.len() {
                let count = self.component_preferred(rel, comp, kind).len() as u128;
                total = total.saturating_mul(count);
            }
        }
        total
    }

    /// Memo hit/miss/eviction counters (fresh counters on derived snapshots).
    pub fn memo_stats(&self) -> MemoStats {
        let memo = &self.inner.memo;
        MemoStats {
            component_hits: memo.component_hits.load(Ordering::Relaxed),
            component_misses: memo.component_misses.load(Ordering::Relaxed),
            answer_hits: memo.answer_hits.load(Ordering::Relaxed),
            answer_misses: memo.answer_misses.load(Ordering::Relaxed),
            answer_evictions: memo.answer_evictions.load(Ordering::Relaxed),
        }
    }

    /// The preferred repairs of one component under one family, served from the memo
    /// when the pair was enumerated before.
    ///
    /// The component tests exploit that every family factorises over components:
    /// * `Rep` — every maximal independent set of the component;
    /// * `L-Rep` / `S-Rep` — the optimality scans only inspect tuples adjacent to the
    ///   candidate, so running them on a component-restricted candidate is exactly the
    ///   component-local test;
    /// * `G-Rep` — `≪`-maximality among the component's repairs (pairwise, which also
    ///   sidesteps the co-NP search of the monolithic check);
    /// * `C-Rep` — Algorithm 1 restricted to the component's tuples.
    pub(crate) fn component_preferred(
        &self,
        rel: usize,
        comp: usize,
        kind: FamilyKind,
    ) -> Arc<Vec<TupleSet>> {
        let entry = &self.inner.relations[rel];
        let key = (entry.comp_offset + comp, kind);
        let memo = &self.inner.memo;
        if let Some(cached) = memo.components.get(&key) {
            memo.component_hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        memo.component_misses.fetch_add(1, Ordering::Relaxed);
        let graph = entry.ctx.graph();
        let priority = &entry.priority;
        let component = &entry.components[comp];
        // The planner's derive-from-Rep strategy: `L-Rep`/`S-Rep`/`G-Rep` all filter
        // the maximal-independent-set list, and a memoised `Rep` entry *is* that list
        // verbatim — reuse it instead of re-running the MIS search. Bit-identical by
        // construction; `PDQI_FORCE_NAIVE_PLAN` keeps the recomputing path exercised.
        let derive_eligible =
            matches!(kind, FamilyKind::Local | FamilyKind::SemiGlobal | FamilyKind::Global)
                && !pdqi_query::naive_plan_forced();
        let derived =
            derive_eligible.then(|| memo.components.get(&(key.0, FamilyKind::Rep))).flatten();
        let mis = match derived {
            Some(rep) => {
                pdqi_query::planner::note_derived_component();
                rep.as_ref().clone()
            }
            None => maximal_independent_sets_within(graph, component),
        };
        let preferred: Vec<TupleSet> = match kind {
            FamilyKind::Rep => mis,
            FamilyKind::Local => {
                mis.into_iter().filter(|m| is_locally_optimal(graph, priority, m)).collect()
            }
            FamilyKind::SemiGlobal => {
                mis.into_iter().filter(|m| is_semi_globally_optimal(graph, priority, m)).collect()
            }
            FamilyKind::Global => {
                let keep: Vec<bool> = mis
                    .iter()
                    .map(|m| {
                        !mis.iter().any(|other| other != m && preferred_over(priority, m, other))
                    })
                    .collect();
                mis.into_iter().zip(keep).filter_map(|(m, k)| k.then_some(m)).collect()
            }
            FamilyKind::Common => common_repairs_within(graph, priority, component, usize::MAX),
        };
        let preferred = Arc::new(preferred);
        memo.components.insert_if_missing(key, &preferred);
        preferred
    }

    /// The per-component choice lists of the requested relations, in enumeration order
    /// (relations as given, components in component-id order). Returns `None` if some
    /// component has no preferred repair at all (impossible for families satisfying P1,
    /// but representable): the cartesian product is empty.
    pub(crate) fn selection_lists(
        &self,
        kind: FamilyKind,
        relations: &[usize],
    ) -> Option<Vec<(usize, Arc<Vec<TupleSet>>)>> {
        let mut lists: Vec<(usize, Arc<Vec<TupleSet>>)> = Vec::new();
        for &rel in relations {
            let entry = &self.inner.relations[rel];
            for comp in 0..entry.components.len() {
                let choices = self.component_preferred(rel, comp, kind);
                if choices.is_empty() {
                    return None;
                }
                lists.push((rel, choices));
            }
        }
        Some(lists)
    }

    /// A fresh base selection: one [`TupleSet`] per relation holding its conflict-free
    /// tuples, index-aligned with [`EngineSnapshot::entries`].
    pub(crate) fn base_selection(&self) -> Vec<TupleSet> {
        self.inner.relations.iter().map(|entry| TupleSet::clone(&entry.base)).collect()
    }

    /// Enumerates the preferred repairs of every *missing* `(component, family)` memo
    /// entry in parallel, returning the number of components actually computed.
    ///
    /// Per-component enumeration is pure (it reads only the immutable graph and
    /// priority), so fanning components out over workers is safe and the memo contents
    /// are bit-identical to a sequential warm-up. Two serving uses:
    ///
    /// * right after [`EngineBuilder::build`], to pay the whole enumeration cost up
    ///   front across cores before queries arrive;
    /// * right after [`EngineSnapshot::with_cleared_memo`], to re-warm a cold copy —
    ///   components already memoised are skipped.
    pub fn warm_components(&self, kind: FamilyKind, parallelism: Parallelism) -> usize {
        let all: Vec<usize> = (0..self.inner.relations.len()).collect();
        self.warm_relation_components(kind, &all, parallelism)
    }

    /// [`EngineSnapshot::warm_components`] restricted to the given relation indices
    /// (used by query execution to warm only the components a query depends on).
    pub(crate) fn warm_relation_components(
        &self,
        kind: FamilyKind,
        relations: &[usize],
        parallelism: Parallelism,
    ) -> usize {
        let mut missing: Vec<(usize, usize)> = Vec::new();
        for &rel in relations {
            let entry = &self.inner.relations[rel];
            for comp in 0..entry.components.len() {
                if !self.inner.memo.components.contains(&(entry.comp_offset + comp, kind)) {
                    missing.push((rel, comp));
                }
            }
        }
        // Largest components first: they dominate enumeration time, and scheduling them
        // early keeps the workers balanced.
        let sizes: Vec<usize> = missing
            .iter()
            .map(|&(rel, comp)| self.inner.relations[rel].components[comp].len())
            .collect();
        let order = pdqi_solve::mis::schedule_by_descending_size(&sizes);
        let jobs: Vec<(usize, usize)> = order.into_iter().map(|i| missing[i]).collect();
        crate::parallel::run_jobs(parallelism, jobs.len(), |i| {
            let (rel, comp) = jobs[i];
            self.component_preferred(rel, comp, kind);
        });
        jobs.len()
    }

    /// A snapshot sharing this snapshot's relations, graphs and priorities but starting
    /// from an **empty** memo: component repairs, answers (closed profiles included),
    /// plans and counters. Useful for benchmarking cold-start behaviour and for
    /// reclaiming memo memory in long-lived servers.
    pub fn with_cleared_memo(&self) -> EngineSnapshot {
        let relations: Vec<RelationEntry> =
            self.inner.relations.iter().map(RelationEntry::share).collect();
        let by_name = self.inner.by_name.clone();
        EngineSnapshot {
            inner: Arc::new(SnapshotInner { relations, by_name, memo: Memo::default() }),
        }
    }

    /// Visits every preferred repair of a single-relation snapshot; the callback may
    /// stop early. Returns `true` if the enumeration ran to completion.
    pub fn for_each_preferred(
        &self,
        kind: FamilyKind,
        callback: &mut dyn FnMut(&TupleSet) -> ControlFlow<()>,
    ) -> bool {
        self.single();
        let Some(lists) = self.selection_lists(kind, &[0]) else {
            return true;
        };
        !SelectionCursor::new(self, &lists, 0).walk(
            None,
            || false,
            |selection| callback(&selection[0]),
        )
    }

    /// Up to `limit` preferred repairs of a single-relation snapshot.
    pub fn preferred_repairs(&self, kind: FamilyKind, limit: usize) -> Vec<TupleSet> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        self.for_each_preferred(kind, &mut |repair| {
            out.push(repair.clone());
            if out.len() >= limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        out
    }

    /// Up to `limit` plain repairs of a single-relation snapshot.
    pub fn repairs(&self, limit: usize) -> Vec<TupleSet> {
        self.preferred_repairs(FamilyKind::Rep, limit)
    }

    /// X-repair checking on a single-relation snapshot: whether `candidate` is a
    /// preferred repair of the given family.
    pub fn is_preferred_repair(&self, kind: FamilyKind, candidate: &TupleSet) -> bool {
        let entry = self.single();
        kind.family().is_preferred(&entry.ctx, &entry.priority, candidate)
    }

    /// Algorithm 1 on a single-relation snapshot: the unique cleaning outcome for a
    /// total priority.
    pub fn clean(&self) -> Result<TupleSet, CleaningError> {
        let entry = self.single();
        clean_with_total_priority(entry.ctx.graph(), &entry.priority)
    }

    /// Maps a global component id back to `(relation index, local component index)`.
    pub(crate) fn locate_component(&self, global: usize) -> (usize, usize) {
        for (rel, entry) in self.inner.relations.iter().enumerate() {
            if global >= entry.comp_offset && global < entry.comp_offset + entry.components.len() {
                return (rel, global - entry.comp_offset);
            }
        }
        panic!("global component id {global} is out of range for this snapshot");
    }

    /// Total number of shards across all relations (each relation's components are
    /// partitioned into contiguous, tuple-balanced [`Shard`]s at build time).
    pub fn shard_count(&self) -> usize {
        self.inner.relations.iter().map(|r| r.shards.len()).sum()
    }

    /// The shard plan of relation `name` (empty when the relation is conflict-free).
    pub fn shards_of(&self, name: &str) -> Option<&[Shard]> {
        self.entry_index(name).map(|i| self.inner.relations[i].shards.as_slice())
    }

    /// The shard plan of a single-relation snapshot.
    ///
    /// # Panics
    /// If the snapshot holds more than one relation (use [`EngineSnapshot::shards_of`]).
    pub fn shards(&self) -> &[Shard] {
        &self.single().shards
    }

    /// Estimated evaluation cost of one repair selection over the given relations, in
    /// tuples: the conflict-free base plus the average memoised per-component preferred
    /// repair size. Adaptive chunking uses this to convert the repair-product size into
    /// estimated work (see [`crate::PreparedQuery::execute_with`]).
    pub(crate) fn estimate_selection_cost(
        &self,
        relations: &[usize],
        lists: &[(usize, Arc<Vec<TupleSet>>)],
    ) -> u128 {
        let base: u128 =
            relations.iter().map(|&rel| self.inner.relations[rel].base.len() as u128).sum();
        let per_component: u128 = lists
            .iter()
            .map(|(_, choices)| {
                let tuples: u128 = choices.iter().map(|c| c.len() as u128).sum();
                tuples / (choices.len() as u128).max(1)
            })
            .sum();
        (base + per_component).max(1)
    }

    /// The global ids of every component of the given relations: the footprint a
    /// memoised answer or plan over them depends on.
    fn component_ids(&self, relations: &[usize]) -> Vec<usize> {
        let entries = relations.iter().map(|&rel| &self.inner.relations[rel]);
        entries
            .flat_map(|entry| entry.comp_offset..entry.comp_offset + entry.components.len())
            .collect()
    }

    /// Looks up a memoised answer and reads the part `read` asks for; a hit is counted
    /// only when that part is there (a closed entry holding only a ground outcome is a
    /// miss for a profile). The key carries only a fingerprint, so a hit is trusted
    /// only when the stored formula matches `formula` exactly — a 64-bit hash collision
    /// between distinct queries degrades to a miss instead of a wrong answer.
    pub(crate) fn cached_answer<T>(
        &self,
        key: &AnswerKey,
        formula: &pdqi_query::Formula,
        read: impl FnOnce(&AnswerEntry) -> Option<T>,
    ) -> Option<T> {
        let memo = &self.inner.memo;
        let hit = memo
            .answers
            .read()
            .expect("memo lock")
            .entries
            .get(key)
            .filter(|entry| entry.formula == *formula)
            .and_then(|entry| read(entry));
        match &hit {
            Some(_) => memo.answer_hits.fetch_add(1, Ordering::Relaxed),
            None => memo.answer_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Stores a memoised answer. `relations` are the indices of the relations the query
    /// mentions; the entry records their components so priority derivation can decide
    /// whether to keep it. A closed answer keeps the parts of the entry it replaces
    /// that it does not bring itself. The memo is bounded ([`ANSWER_MEMO_LIMIT`]): when
    /// full, the oldest entry is evicted and counted in [`MemoStats::answer_evictions`].
    pub(crate) fn store_answer(
        &self,
        key: AnswerKey,
        formula: &pdqi_query::Formula,
        relations: &[usize],
        answers: AnswerSet,
        ground: Option<CqaOutcome>,
        profile: Option<ClosedProfile>,
    ) -> Arc<AnswerEntry> {
        let mut entry = AnswerEntry {
            formula: formula.clone(),
            answers,
            ground,
            profile,
            depends_on: self.component_ids(relations),
            relations: relations.to_vec(),
            priority_sensitive: key.family != FamilyKind::Rep,
        };
        let mut answers = self.inner.memo.answers.write().expect("memo lock");
        if let Some(old) = answers.entries.get(&key).filter(|old| old.formula == *formula) {
            entry.ground = entry.ground.or(old.ground);
            entry.profile = entry.profile.or(old.profile);
        }
        let entry = Arc::new(entry);
        if !answers.entries.contains_key(&key) {
            while answers.entries.len() >= ANSWER_MEMO_LIMIT {
                let Some(oldest) = answers.order.pop_front() else { break };
                if answers.entries.remove(&oldest).is_some() {
                    self.inner.memo.answer_evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            answers.order.push_back(key);
        }
        answers.entries.insert(key, Arc::clone(&entry));
        entry
    }

    /// The memoised preferred-repair count of one component, when the `(component,
    /// family)` pair has been enumerated before — the exact cardinality the cost-based
    /// planner feeds on (`None` keeps the planner on its structural estimate).
    pub(crate) fn memoised_component_count(
        &self,
        rel: usize,
        comp: usize,
        kind: FamilyKind,
    ) -> Option<usize> {
        let entry = &self.inner.relations[rel];
        self.inner.memo.components.get(&(entry.comp_offset + comp, kind)).map(|sets| sets.len())
    }

    /// Looks up a memoised physical plan; like [`EngineSnapshot::cached_answer`], a
    /// fingerprint hit is trusted only when the stored formula matches exactly.
    pub(crate) fn cached_plan(
        &self,
        fingerprint: u64,
        family: FamilyKind,
        formula: &pdqi_query::Formula,
    ) -> Option<Arc<PlanEntry>> {
        self.inner
            .memo
            .plans
            .read()
            .expect("memo lock")
            .get(&(fingerprint, family))
            .filter(|entry| entry.formula == *formula)
            .cloned()
    }

    /// Caches a costed physical plan under `(fingerprint, family)`, recording the
    /// component/relation footprint derivations use to decide whether it survives a
    /// swap. Bounded ([`PLAN_MEMO_LIMIT`]): at capacity the plan is handed back
    /// uncached instead of evicting.
    pub(crate) fn store_plan(
        &self,
        fingerprint: u64,
        family: FamilyKind,
        formula: &pdqi_query::Formula,
        relations: &[usize],
        plan: pdqi_query::PhysicalPlan,
    ) -> Arc<PlanEntry> {
        let entry = Arc::new(PlanEntry {
            formula: formula.clone(),
            plan: Arc::new(plan),
            depends_on: self.component_ids(relations),
            relations: relations.to_vec(),
            priority_sensitive: family != FamilyKind::Rep,
        });
        let mut plans = self.inner.memo.plans.write().expect("memo lock");
        let key = (fingerprint, family);
        if plans.len() < PLAN_MEMO_LIMIT || plans.contains_key(&key) {
            plans.insert(key, Arc::clone(&entry));
        }
        entry
    }

    /// Whether the plan cache holds a costed plan for this query fingerprint and
    /// family — the invalidation-test observability hook: after a swap, exactly the
    /// plans whose cardinality footprint the swap left alone should still be here.
    pub fn has_cached_plan(&self, fingerprint: u64, family: FamilyKind) -> bool {
        self.inner.memo.plans.read().expect("memo lock").contains_key(&(fingerprint, family))
    }

    /// Number of memoised physical plans on this snapshot.
    pub fn cached_plan_count(&self) -> usize {
        self.inner.memo.plans.read().expect("memo lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::{Change, ChangeReport};
    use crate::repair::fixtures::*;

    fn snapshot_of(ctx: &RepairContext) -> EngineSnapshot {
        EngineBuilder::new().relation(ctx.instance().clone(), ctx.fds().clone()).build().unwrap()
    }

    /// Derives a single-relation `snapshot` under `priority`.
    fn revised(snapshot: &EngineSnapshot, priority: Priority) -> (EngineSnapshot, ChangeReport) {
        let relation = snapshot.context().instance().schema().name().to_string();
        snapshot
            .derive(&Change::Priority { relation, priority }, Parallelism::sequential())
            .unwrap()
    }

    #[test]
    fn builder_builds_and_counts_repairs_through_the_memo() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        assert_eq!(snapshot.relation_count(), 1);
        assert!(!snapshot.is_consistent());
        assert_eq!(snapshot.count_repairs(), 3);
        // Counting again is served from the memo.
        let before = snapshot.memo_stats();
        assert_eq!(snapshot.count_repairs(), 3);
        let after = snapshot.memo_stats();
        assert_eq!(after.component_misses, before.component_misses);
        assert!(after.component_hits > before.component_hits);
    }

    #[test]
    fn component_product_reproduces_the_repairs() {
        let ctx = example4(5);
        let snapshot = snapshot_of(&ctx);
        assert_eq!(snapshot.count_repairs(), 32);
        let enumerated = snapshot.repairs(usize::MAX);
        assert_eq!(enumerated.len(), 32);
        for repair in &enumerated {
            assert!(ctx.is_repair(repair));
        }
    }

    #[test]
    fn per_family_component_pipeline_matches_the_legacy_family_objects() {
        for (ctx, priority) in [example7(), example8(), example9(), example9_intended()] {
            let snapshot = revised(&snapshot_of(&ctx), priority.clone()).0;
            for kind in FamilyKind::ALL {
                let legacy = kind.family().preferred_repairs(&ctx, &priority, usize::MAX);
                let piped = snapshot.preferred_repairs(kind, usize::MAX);
                assert_eq!(piped.len(), legacy.len(), "{} count", kind.label());
                for repair in &legacy {
                    assert!(piped.contains(repair), "{} misses {repair:?}", kind.label());
                }
                assert_eq!(
                    snapshot.preferred_repair_count(kind),
                    legacy.len() as u128,
                    "{} preferred_repair_count",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn priority_changes_share_structure_and_keep_unaffected_memo_entries() {
        let ctx = example9();
        let (ctx, priority) = (ctx.0, ctx.1);
        let base = snapshot_of(&ctx);
        // Warm the memo for Rep and Local.
        base.preferred_repairs(FamilyKind::Rep, usize::MAX);
        base.preferred_repairs(FamilyKind::Local, usize::MAX);
        let warmed = base.memo_stats();
        let (derived, report) = revised(&base, priority);
        // The graph and instance are shared, not rebuilt.
        assert!(Arc::ptr_eq(base.graph(), derived.graph()));
        // Rep entries survive (priority-independent): re-enumeration is all hits, the
        // only misses are the eagerly re-enumerated L-Rep entries.
        derived.preferred_repairs(FamilyKind::Rep, usize::MAX);
        let stats = derived.memo_stats();
        assert_eq!(
            stats.component_misses, report.recomputed_entries as u64,
            "Rep memo entries must survive derivation"
        );
        assert!(stats.component_hits > 0);
        assert!(warmed.component_misses > 0);
    }

    #[test]
    fn priority_changes_invalidate_only_affected_components() {
        // Example 4 with n = 3: three independent two-tuple components.
        let ctx = example4(3);
        let base = snapshot_of(&ctx);
        base.preferred_repairs(FamilyKind::Global, usize::MAX);
        // Orient only the first component's conflict edge.
        let priority = ctx.priority_from_pairs(&[(TupleId(0), TupleId(1))]).unwrap();
        let derived = revised(&base, priority).0;
        derived.preferred_repairs(FamilyKind::Global, usize::MAX);
        let stats = derived.memo_stats();
        // Components 2 and 3 were untouched: only the first was recomputed.
        assert_eq!(stats.component_misses, 1);
        assert_eq!(derived.preferred_repair_count(FamilyKind::Global), 4);
    }

    #[test]
    fn multi_relation_snapshots_address_relations_by_name() {
        let first = example1();
        let second = example4(2);
        let snapshot = EngineBuilder::new()
            .relation(first.instance().clone(), first.fds().clone())
            .relation(second.instance().clone(), second.fds().clone())
            .build()
            .unwrap();
        assert_eq!(snapshot.relation_count(), 2);
        assert_eq!(snapshot.relation_names(), vec!["Mgr".to_string(), "R".to_string()]);
        assert!(snapshot.context_of("Mgr").is_some());
        assert!(snapshot.priority_of("R").is_some());
        assert!(snapshot.context_of("Nope").is_none());
        // 3 repairs of Mgr × 4 repairs of R.
        assert_eq!(snapshot.count_repairs(), 12);
    }

    #[test]
    fn builder_errors_are_reported() {
        let ctx = example1();
        let duplicate = EngineBuilder::new()
            .relation(ctx.instance().clone(), ctx.fds().clone())
            .relation(ctx.instance().clone(), ctx.fds().clone())
            .build();
        assert!(matches!(duplicate, Err(BuildError::DuplicateRelation { .. })));
        let orphan = EngineBuilder::new().priority_from_scores(&[1]).build();
        assert!(matches!(orphan, Err(BuildError::PriorityWithoutRelation)));
        let wrong_len = EngineBuilder::new()
            .relation(ctx.instance().clone(), ctx.fds().clone())
            .priority_from_scores(&[1, 2])
            .build();
        assert!(matches!(wrong_len, Err(BuildError::AnnotationLength { .. })));
        let bad_pair = EngineBuilder::new()
            .relation(ctx.instance().clone(), ctx.fds().clone())
            .priority_pairs(&[(TupleId(0), TupleId(3))])
            .build();
        assert!(bad_pair.err().and_then(|e| e.as_priority_error().cloned()).is_some());
    }

    #[test]
    fn answer_memo_evicts_oldest_entries_and_counts_them() {
        use crate::{FamilyKind, PreparedQuery, Semantics};
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let queries: Vec<PreparedQuery> = (0..=ANSWER_MEMO_LIMIT)
            .map(|bound| {
                PreparedQuery::parse(&format!("EXISTS d,r . Mgr(x,d,s,r) AND s > {bound}"))
            })
            .collect::<Result<_, _>>()
            .unwrap();
        let (oldest, second, last) = (&queries[0], &queries[1], &queries[ANSWER_MEMO_LIMIT]);
        for query in &queries {
            query.execute(&snapshot, FamilyKind::Rep, Semantics::Possible).unwrap();
        }
        // One insert past the bound: the oldest (first) entry was evicted.
        let stats = snapshot.memo_stats();
        assert_eq!(stats.answer_evictions, 1);
        let hits_before = stats.answer_hits;
        // The youngest entries are still served from the memo...
        second.execute(&snapshot, FamilyKind::Rep, Semantics::Possible).unwrap();
        last.execute(&snapshot, FamilyKind::Rep, Semantics::Possible).unwrap();
        assert_eq!(snapshot.memo_stats().answer_hits, hits_before + 2);
        // ...while the evicted one is recomputed (a miss, and it evicts the next oldest,
        // which is the second query — the last one survives).
        oldest.execute(&snapshot, FamilyKind::Rep, Semantics::Possible).unwrap();
        let stats = snapshot.memo_stats();
        assert_eq!(stats.answer_hits, hits_before + 2);
        assert_eq!(stats.answer_evictions, 2);
        last.execute(&snapshot, FamilyKind::Rep, Semantics::Possible).unwrap();
        assert_eq!(snapshot.memo_stats().answer_hits, hits_before + 3);
    }

    #[test]
    fn warm_components_fills_the_memo_once_for_any_parallelism() {
        let ctx = example4(5);
        for parallelism in [Parallelism::sequential(), Parallelism::threads(4)] {
            let snapshot = snapshot_of(&ctx);
            let warmed = snapshot.warm_components(FamilyKind::Local, parallelism);
            assert_eq!(warmed, 5);
            let stats = snapshot.memo_stats();
            assert_eq!(stats.component_misses, 5);
            // Everything is memoised now: re-warming computes nothing...
            assert_eq!(snapshot.warm_components(FamilyKind::Local, parallelism), 0);
            // ...and enumeration is all hits.
            snapshot.preferred_repairs(FamilyKind::Local, usize::MAX);
            assert_eq!(snapshot.memo_stats().component_misses, stats.component_misses);
        }
    }

    #[test]
    fn warm_after_derivation_recomputes_only_invalidated_components() {
        let ctx = example4(3);
        let base = snapshot_of(&ctx);
        base.warm_components(FamilyKind::Global, Parallelism::threads(2));
        let priority = ctx.priority_from_pairs(&[(TupleId(0), TupleId(1))]).unwrap();
        let (derived, report) = revised(&base, priority);
        // Only the component touched by the new priority edge was re-enumerated.
        assert_eq!(report.recomputed_entries, 1);
        assert_eq!(derived.warm_components(FamilyKind::Global, Parallelism::threads(2)), 0);
        assert_eq!(derived.memo_stats().component_misses, 1);
    }

    #[test]
    fn cleared_memo_shares_structure_but_recomputes() {
        let ctx = example4(4);
        let snapshot = snapshot_of(&ctx);
        snapshot.preferred_repairs(FamilyKind::Rep, usize::MAX);
        assert!(snapshot.memo_stats().component_misses > 0);
        let cold = snapshot.with_cleared_memo();
        assert!(Arc::ptr_eq(snapshot.graph(), cold.graph()));
        assert_eq!(cold.memo_stats(), MemoStats::default());
        assert_eq!(cold.count_repairs(), 16);
        assert!(cold.memo_stats().component_misses > 0);
    }

    #[test]
    fn snapshot_cleaning_and_checking_work() {
        let (ctx, priority) = example9();
        let snapshot = revised(&snapshot_of(&ctx), priority).0;
        let cleaned = snapshot.clean().unwrap();
        assert!(snapshot.is_preferred_repair(FamilyKind::Common, &cleaned));
        assert_eq!(snapshot.preferred_repairs(FamilyKind::Common, 10), vec![cleaned]);
    }

    #[test]
    fn parallel_builds_are_bit_identical_to_sequential_builds() {
        let first = example1();
        let second = example4(6);
        let build = |parallelism: Parallelism| {
            EngineBuilder::new()
                .relation(first.instance().clone(), first.fds().clone())
                .relation(second.instance().clone(), second.fds().clone())
                .parallelism(parallelism)
                .build()
                .unwrap()
        };
        let sequential = build(Parallelism::sequential());
        for workers in [2, 4, 8] {
            let parallel = build(Parallelism::threads(workers));
            assert_eq!(parallel.relation_names(), sequential.relation_names());
            assert_eq!(parallel.component_count(), sequential.component_count());
            for name in sequential.relation_names() {
                let s = sequential.context_of(&name).unwrap();
                let p = parallel.context_of(&name).unwrap();
                assert_eq!(s.graph().edges(), p.graph().edges(), "{name} edges");
                assert_eq!(parallel.shards_of(&name), sequential.shards_of(&name), "{name}");
            }
            assert_eq!(parallel.count_repairs(), sequential.count_repairs());
            // Enumeration order (not just the set of repairs) must match.
            let enumerate = |snapshot: &EngineSnapshot| {
                let mut seen = Vec::new();
                let lists = snapshot.selection_lists(FamilyKind::Rep, &[0, 1]).unwrap();
                SelectionCursor::new(snapshot, &lists, 0).walk(
                    None,
                    || false,
                    |sel| {
                        seen.push(sel.to_vec());
                        ControlFlow::Continue(())
                    },
                );
                seen
            };
            assert_eq!(enumerate(&parallel), enumerate(&sequential));
        }
    }

    #[test]
    fn parallel_builds_report_the_same_errors_as_sequential_builds() {
        let ctx = example1();
        for workers in [1usize, 4] {
            let parallelism = Parallelism::threads(workers);
            let duplicate = EngineBuilder::new()
                .relation(ctx.instance().clone(), ctx.fds().clone())
                .relation(ctx.instance().clone(), ctx.fds().clone())
                .build_with(parallelism);
            assert!(matches!(duplicate, Err(BuildError::DuplicateRelation { .. })));
            let wrong_len = EngineBuilder::new()
                .relation(ctx.instance().clone(), ctx.fds().clone())
                .priority_from_scores(&[1, 2])
                .build_with(parallelism);
            assert!(matches!(wrong_len, Err(BuildError::AnnotationLength { .. })));
        }
    }

    #[test]
    fn shard_plans_are_contiguous_tuple_balanced_covers() {
        // 40 two-tuple components: the plan caps at MAX_SHARDS_PER_RELATION shards
        // covering every component exactly once, in order.
        let ctx = example4(40);
        let snapshot = snapshot_of(&ctx);
        let shards = snapshot.shards();
        assert_eq!(shards.len(), MAX_SHARDS_PER_RELATION);
        assert_eq!(snapshot.shard_count(), shards.len());
        let mut next = 0usize;
        for shard in shards {
            assert_eq!(shard.relation(), 0);
            assert_eq!(shard.component_range().start, next);
            assert!(shard.component_count() >= 1);
            assert_eq!(shard.tuple_count(), 2 * shard.component_count());
            next = shard.component_range().end;
        }
        assert_eq!(next, snapshot.component_count());
        // Fewer components than the cap: one shard per component.
        let small = snapshot_of(&example4(3));
        assert_eq!(small.shards().len(), 3);
        // A conflict-free relation has no shards.
        let consistent = snapshot_of(&example4(0));
        assert!(consistent.shards().is_empty());
    }

    #[test]
    fn revalidated_derivation_recomputes_exactly_the_invalidated_entries() {
        let ctx = example4(5);
        let base = snapshot_of(&ctx);
        base.warm_components(FamilyKind::Global, Parallelism::sequential());
        base.warm_components(FamilyKind::Local, Parallelism::sequential());
        let priority = ctx.priority_from_pairs(&[(TupleId(0), TupleId(1))]).unwrap();
        let change = Change::Priority { relation: "R".to_string(), priority };
        for workers in [1usize, 4] {
            let (derived, report) = base.derive(&change, Parallelism::threads(workers)).unwrap();
            assert_eq!(report.recomputed_entries, 2, "{workers} workers");
            // Global and Local of the touched component were re-enumerated eagerly...
            let stats = derived.memo_stats();
            assert_eq!(stats.component_misses, 2, "{workers} workers");
            // ...so everything the parent had memoised is warm again: no further misses.
            derived.preferred_repairs(FamilyKind::Global, usize::MAX);
            derived.preferred_repairs(FamilyKind::Local, usize::MAX);
            assert_eq!(derived.memo_stats().component_misses, 2, "{workers} workers");
            // And the derived snapshot answers exactly like a fresh build.
            let fresh = EngineBuilder::new()
                .relation(ctx.instance().clone(), ctx.fds().clone())
                .priority_pairs(&[(TupleId(0), TupleId(1))])
                .build()
                .unwrap();
            assert_eq!(
                derived.preferred_repairs(FamilyKind::Global, usize::MAX),
                fresh.preferred_repairs(FamilyKind::Global, usize::MAX)
            );
        }
    }
}
