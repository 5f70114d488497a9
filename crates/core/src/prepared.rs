//! Prepared queries and the unified answer pipeline.
//!
//! A [`PreparedQuery`] parses, classifies and fingerprints a first-order query **once**
//! and can then be executed any number of times, against any [`EngineSnapshot`], under
//! any [`FamilyKind`] and [`Semantics`]. Execution runs through one pipeline for every
//! query shape:
//!
//! 1. look up the query's entry in the snapshot's memo under `(fingerprint, family)` —
//!    repeated executions return immediately;
//! 2. otherwise plan the query (the plan is memoised in the same entry) and walk the
//!    product of the preferred repairs of the *relevant* components only (the
//!    components of the relations the query mentions), assembled from the snapshot's
//!    per-component memo, evaluating the query per repair;
//! 3. store the result in the memo and hand back a streaming [`AnswerSet`] cursor over
//!    the shared row buffer.
//!
//! Open rows and closed profiles come from one walk over that product: contiguous
//! chunks of the enumeration order, each folded on its own (sequential execution is
//! the one-chunk case) and merged in chunk order.
//!
//! A closed query has one answer path, [`PreparedQuery::closed_profile_with`]: its
//! [`ClosedProfile`] is memoised in the query's memo entry, and the preferred
//! consistent answer ([`PreparedQuery::consistent_answer`]) is the profile's replay.
//! So `CLOSED` and `PROFILE` reads of one query share one walk and one memo entry,
//! and neither depends on which came first. Ground queries under the plain repair
//! family keep their polynomial fast path ([`crate::cqa_ground`]), reported with
//! `examined == 0` and memoised in the same entry.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pdqi_query::classify::{classify, QueryClass};
use pdqi_query::{parse_formula, Evaluator, Formula, PhysicalPlan, QueryError};
use pdqi_relation::{TupleSet, Value};

use crate::cqa::CqaOutcome;
use crate::cqa_ground::ground_consistent_answer;
use crate::families::FamilyKind;
use crate::parallel::{run_jobs, Parallelism};
use crate::snapshot::{EngineSnapshot, QueryParts};

/// Which answers an open-query execution returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Rows that are answers in **every** preferred repair (certain answers).
    Certain,
    /// Rows that are answers in **some** preferred repair (possible answers).
    Possible,
}

/// A query parsed, classified and fingerprinted once, executable many times.
///
/// ```
/// use pdqi_core::{EngineBuilder, FamilyKind, PreparedQuery, Semantics};
/// # use std::sync::Arc;
/// # use pdqi_relation::{RelationInstance, RelationSchema, Value, ValueType};
/// # use pdqi_constraints::FdSet;
/// # let schema = Arc::new(RelationSchema::from_pairs(
/// #     "R", &[("A", ValueType::Int), ("B", ValueType::Int)]).unwrap());
/// # let instance = RelationInstance::from_rows(Arc::clone(&schema), vec![
/// #     vec![Value::int(1), Value::int(1)], vec![Value::int(1), Value::int(2)],
/// # ]).unwrap();
/// # let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
/// let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
/// let query = PreparedQuery::parse("EXISTS b . R(x,b)").unwrap();
/// let answers = query.execute(&snapshot, FamilyKind::Rep, Semantics::Certain).unwrap();
/// assert_eq!(answers.columns(), ["x"]);
/// assert_eq!(answers.count(), 1); // A = 1 appears in every repair
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    source: Option<String>,
    formula: Formula,
    class: QueryClass,
    free: Vec<String>,
    relations: Vec<String>,
    fingerprint: u64,
}

impl PreparedQuery {
    /// Parses and prepares a textual query.
    pub fn parse(text: &str) -> Result<Self, QueryError> {
        let formula = parse_formula(text)?;
        let mut prepared = PreparedQuery::from_formula(formula);
        prepared.source = Some(text.to_string());
        Ok(prepared)
    }

    /// Prepares an already-built formula.
    pub fn from_formula(formula: Formula) -> Self {
        let class = classify(&formula);
        let free = formula.free_vars();
        let relations = formula.relations().into_iter().collect();
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        formula.hash(&mut hasher);
        let fingerprint = hasher.finish();
        PreparedQuery { source: None, formula, class, free, relations, fingerprint }
    }

    /// The parsed formula.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The original query text, when prepared from text.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Attaches a source text to a formula-built query (builder style). [`parse`]
    /// records it automatically; front ends that lower their own surface syntax —
    /// SQL `SELECT`s, say — set it so [`explain`](PreparedQuery::explain) reports
    /// the statement the user actually wrote instead of the raw fingerprint.
    ///
    /// [`parse`]: PreparedQuery::parse
    pub fn with_source(mut self, text: &str) -> Self {
        self.source = Some(text.to_string());
        self
    }

    /// The query's most specific class (ground, quantifier-free, conjunctive, ...).
    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// The free variables, in lexicographic order — the columns of every answer set.
    pub fn free_vars(&self) -> &[String] {
        &self.free
    }

    /// Whether the query is closed (no free variable).
    pub fn is_closed(&self) -> bool {
        self.free.is_empty()
    }

    /// The relation names the query mentions.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// The memo fingerprint: stable across executions, snapshots and clones.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The snapshot relation indices this query's answers depend on.
    fn relevant_relations(&self, snapshot: &EngineSnapshot) -> Vec<usize> {
        let mut relevant: Vec<usize> =
            self.relations.iter().filter_map(|name| snapshot.entry_index(name)).collect();
        relevant.sort_unstable();
        relevant.dedup();
        relevant
    }

    /// Executes the query against a snapshot, returning a streaming [`AnswerSet`].
    ///
    /// Works for open and closed queries alike: a closed query yields one zero-column
    /// row when the chosen semantics holds and no row otherwise. Results are memoised in
    /// the snapshot under `(fingerprint, family)` — a second execution with the same
    /// key and semantics streams from the shared buffer without re-enumerating
    /// anything.
    pub fn execute(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
    ) -> Result<AnswerSet, QueryError> {
        self.execute_with(snapshot, kind, semantics, Parallelism::sequential())
    }

    /// [`PreparedQuery::execute`] with an explicit degree of parallelism.
    ///
    /// With a parallel configuration, the relevant components are warmed across workers
    /// and the cartesian product of per-component preferred repairs is split into
    /// contiguous chunks evaluated concurrently. The chunk count is derived from the
    /// memoised per-component preferred-repair counts and the estimated per-selection
    /// evaluation cost (see [`adaptive_chunk_count`]), so small products pay few cursor
    /// setups while heavy or skewed products hand the pool enough chunks for the shared
    /// atomic work index to steal from. The answer set is **bit-identical** to the
    /// sequential execution, errors included — certain/possible folding is a set
    /// intersection/union, so merging per-chunk folds in chunk order reproduces the
    /// sequential fold exactly — and the memoised entry is indistinguishable too.
    pub fn execute_with(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
        parallelism: Parallelism,
    ) -> Result<AnswerSet, QueryError> {
        let memoised = |parts: &QueryParts| match semantics {
            Semantics::Certain => parts.certain.clone(),
            Semantics::Possible => parts.possible.clone(),
        };
        if let Some(answers) = snapshot.cached_answer(self, kind, memoised) {
            return Ok(answers);
        }
        let relevant = self.relevant_relations(snapshot);
        let plan = self.plan_for(snapshot, kind, &relevant, parallelism);
        let (_, folds) = self.walk(
            snapshot,
            kind,
            &relevant,
            parallelism,
            plan.as_deref(),
            &|| None,
            &|fold, evaluator| {
                let folded = fold_rows(fold, evaluator.answer_rows(&self.formula)?, semantics);
                // Certain answers only shrink; once empty the outcome is settled.
                Ok(semantics == Semantics::Certain && folded.is_empty())
            },
        )?;
        let mut merged = None;
        for rows in folds.into_iter().flatten() {
            fold_rows(&mut merged, rows, semantics);
        }
        let rows: Arc<Vec<Vec<Value>>> = Arc::new(merged.unwrap_or_default().into_iter().collect());
        let answers = AnswerSet::new(Arc::new(self.free.clone()), rows);
        let mut parts = QueryParts::default();
        match semantics {
            Semantics::Certain => parts.certain = Some(answers.clone()),
            Semantics::Possible => parts.possible = Some(answers.clone()),
        }
        snapshot.store_query(self, kind, &relevant, parts);
        Ok(answers)
    }

    /// The preferred consistent answer to a closed query (Definition 3): whether the
    /// query holds in every preferred repair, fails in every preferred repair, or is
    /// left undetermined by the inconsistency.
    ///
    /// Ground queries under [`FamilyKind::Rep`] on single-relation snapshots use the
    /// polynomial conflict-graph algorithm (`examined == 0`); every other combination
    /// replays the memoised [`ClosedProfile`] of [`PreparedQuery::closed_profile`].
    pub fn consistent_answer(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
    ) -> Result<CqaOutcome, QueryError> {
        self.consistent_answer_with(snapshot, kind, Parallelism::sequential())
    }

    /// [`PreparedQuery::consistent_answer`] with an explicit degree of parallelism.
    ///
    /// The ground fast path's outcome is memoised beside the profile; every other
    /// outcome is [`PreparedQuery::closed_profile_with`] replayed under the sequential
    /// early-exit rule ([`ClosedProfile::outcome`]). Either way the outcome — the
    /// `examined` counter included — is bit-identical to a sequential answer on a fresh
    /// snapshot, whatever ran before it.
    pub fn consistent_answer_with(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        parallelism: Parallelism,
    ) -> Result<CqaOutcome, QueryError> {
        self.require_closed()?;
        // The polynomial conflict-graph algorithm answers ground queries under Rep on a
        // single-relation snapshot.
        let ground = kind == FamilyKind::Rep && self.class == QueryClass::Ground;
        if ground && snapshot.relation_count() == 1 {
            if let Some(outcome) = snapshot.cached_answer(self, kind, |parts| parts.ground) {
                return Ok(outcome);
            }
            if let Some(outcome) = self.ground_outcome(snapshot) {
                let relevant = self.relevant_relations(snapshot);
                let parts = QueryParts { ground: Some(outcome), ..QueryParts::default() };
                snapshot.store_query(self, kind, &relevant, parts);
                return Ok(outcome);
            }
        }
        Ok(self.closed_profile_with(snapshot, kind, parallelism)?.outcome())
    }

    /// The polynomial conflict-graph answer to a ground query; `None` on analysis
    /// errors, so the walk gives the standard error reporting.
    fn ground_outcome(&self, snapshot: &EngineSnapshot) -> Option<CqaOutcome> {
        let ctx = snapshot.context();
        let negated = Formula::Not(Box::new(self.formula.clone()));
        let certainly_true = ground_consistent_answer(ctx, &self.formula).ok()?;
        let certainly_false = ground_consistent_answer(ctx, &negated).ok()?;
        Some(CqaOutcome { certainly_true, certainly_false, examined: 0 })
    }

    /// The enumeration-order [`ClosedProfile`] of a closed query: the size of the
    /// preferred-repair product plus the positions of the first `true` and first
    /// `false` verdicts, in the exact order the sequential fold visits selections.
    /// This is what the scatter-gather coordinator's `PROFILE` surface merges across
    /// shards.
    ///
    /// The profile is memoised in the query's memo entry, beside the query's closed
    /// outcome, so a second profile — or a later
    /// [`PreparedQuery::consistent_answer`] — of the same query and family is a memo
    /// hit.
    pub fn closed_profile(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
    ) -> Result<ClosedProfile, QueryError> {
        self.closed_profile_with(snapshot, kind, Parallelism::sequential())
    }

    /// [`PreparedQuery::closed_profile`] with an explicit degree of parallelism: the one
    /// walk behind every closed answer.
    ///
    /// A memo miss plans the query and walks its repair product: contiguous chunks run
    /// across the workers, each folding a chunk-local profile that stops as soon as it
    /// holds both verdicts (everything after the later of the two can no longer change
    /// the profile), and the profiles concatenate in chunk order. The result is
    /// bit-identical to the sequential walk, and so is the stored entry. (For
    /// undetermined queries the workers may evaluate repairs the sequential walk would
    /// have skipped; that extra work never changes the profile.)
    pub fn closed_profile_with(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        parallelism: Parallelism,
    ) -> Result<ClosedProfile, QueryError> {
        self.require_closed()?;
        if let Some(profile) = snapshot.cached_answer(self, kind, |parts| parts.profile) {
            return Ok(profile);
        }
        let relevant = self.relevant_relations(snapshot);
        let plan = self.plan_for(snapshot, kind, &relevant, parallelism);
        let (total, chunks) = self.walk(
            snapshot,
            kind,
            &relevant,
            parallelism,
            plan.as_deref(),
            &ClosedProfile::default,
            &|profile, evaluator| {
                profile.record(evaluator.eval_closed(&self.formula)?);
                Ok(profile.is_settled())
            },
        )?;
        let walked = chunks.into_iter().fold(ClosedProfile::default(), ClosedProfile::then);
        let profile = ClosedProfile { total, ..walked };
        let parts = QueryParts { profile: Some(profile), ..QueryParts::default() };
        snapshot.store_query(self, kind, &relevant, parts);
        Ok(profile)
    }

    /// Closed answers need a closed query.
    fn require_closed(&self) -> Result<(), QueryError> {
        match self.free.is_empty() {
            true => Ok(()),
            false => Err(QueryError::FreeVariables { variables: self.free.clone() }),
        }
    }

    /// The one walk over a repair product behind every answer. It visits the product
    /// of the relevant relations' preferred repairs in enumeration order, split into
    /// contiguous chunks that run across the workers (sequential execution is the
    /// one-chunk case). Each chunk folds its own state from `init`: `step` folds an
    /// evaluator over one selection into it and says whether the fold is settled.
    ///
    /// A chunk ends early when its fold is settled or `step` fails, and it is cut short
    /// only when an *earlier* chunk ended early: the chunks after the earliest early
    /// exit cannot change the answer, but every chunk before it must be seen. Returns
    /// the product size and the states of the chunks the answer depends on — every
    /// chunk up to and including the earliest that ended early — in chunk order.
    ///
    /// An evaluation error among those chunks re-runs the walk as one chunk, whose
    /// first error is exactly the sequential one: a chunk cannot tell whether the
    /// selections before it would have settled the fold before its failing selection.
    /// A product that saturates `u128` cannot be indexed, so it runs as one chunk that
    /// ends when the cursor wraps.
    #[allow(clippy::too_many_arguments)]
    fn walk<S: Send>(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        relevant: &[usize],
        parallelism: Parallelism,
        plan: Option<&PhysicalPlan>,
        init: &(impl Fn() -> S + Sync),
        step: &(impl Fn(&mut S, Evaluator<'_>) -> Result<bool, QueryError> + Sync),
    ) -> Result<(u128, Vec<S>), QueryError> {
        if !parallelism.is_sequential() {
            snapshot.warm_relation_components(kind, relevant, parallelism);
        }
        let Some(lists) = snapshot.selection_lists(kind, relevant) else {
            // Some component has no preferred repair: the product is empty.
            return Ok((0, Vec::new()));
        };
        let total = product_size(&lists);
        let ranges: Vec<(u128, Option<u128>)> = if total == u128::MAX {
            vec![(0, None)]
        } else if parallelism.is_sequential() {
            vec![(0, Some(total))]
        } else {
            // The plan's per-selection estimate when one was costed, the uniform
            // structural heuristic under the naive strategy. Either way the number only
            // shapes the split, never the answers.
            let cost = match plan {
                Some(plan) => u128::from(plan.est_selection_cost).max(1),
                None => snapshot.estimate_selection_cost(relevant, &lists),
            };
            chunk_ranges(total, adaptive_chunk_count(total, cost, parallelism))
                .into_iter()
                .map(|(start, end)| (start, Some(end - start)))
                .collect()
        };
        // The earliest chunk that ended early. It only tells later chunks to stop; the
        // states reach the merge through the workers' joins, so `Relaxed` suffices.
        let earliest_exit = AtomicUsize::new(usize::MAX);
        let walked = run_jobs(parallelism, ranges.len(), |index| {
            let (start, len) = ranges[index];
            let mut state = init();
            let mut error = None;
            let exited = SelectionCursor::new(snapshot, &lists, start).walk(
                len,
                || earliest_exit.load(Ordering::Relaxed) < index,
                |selection| {
                    let evaluator = self.evaluator_for(snapshot, relevant, selection, plan);
                    match step(&mut state, evaluator) {
                        Ok(false) => ControlFlow::Continue(()),
                        Ok(true) => ControlFlow::Break(()),
                        Err(e) => {
                            error = Some(e);
                            ControlFlow::Break(())
                        }
                    }
                },
            );
            if exited {
                earliest_exit.fetch_min(index, Ordering::Relaxed);
            }
            (error.map_or(Ok(state), Err), exited)
        });
        let mut states = Vec::with_capacity(walked.len());
        for (state, exited) in walked {
            match state {
                Ok(state) => states.push(state),
                Err(e) if ranges.len() == 1 => return Err(e),
                Err(_) => {
                    let sequential = Parallelism::sequential();
                    return self.walk(snapshot, kind, relevant, sequential, plan, init, step);
                }
            }
            if exited {
                break;
            }
        }
        Ok((total, states))
    }

    /// Certain answers as an eager, sorted row list (convenience over
    /// [`PreparedQuery::execute`]).
    pub fn certain_answers(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
    ) -> Result<Vec<Vec<Value>>, QueryError> {
        Ok(self.execute(snapshot, kind, Semantics::Certain)?.collect())
    }

    /// Possible answers as an eager, sorted row list.
    pub fn possible_answers(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
    ) -> Result<Vec<Vec<Value>>, QueryError> {
        Ok(self.execute(snapshot, kind, Semantics::Possible)?.collect())
    }

    /// An evaluator exposing every snapshot relation, with the relations this query
    /// mentions restricted to the current repair selection. A [`PhysicalPlan`] supplies
    /// the evaluation hints — the chosen join order and eval path — both pinned
    /// bit-identical to the unhinted evaluator.
    fn evaluator_for<'a>(
        &self,
        snapshot: &'a EngineSnapshot,
        relevant: &[usize],
        selection: &'a [TupleSet],
        plan: Option<&PhysicalPlan>,
    ) -> Evaluator<'a> {
        let mut evaluator = Evaluator::new();
        if let Some(plan) = plan {
            evaluator.set_atom_order(plan.atom_order.clone());
            evaluator.set_prefer_scalar(!plan.vectorized);
        }
        for (index, entry) in snapshot.entries().iter().enumerate() {
            if relevant.contains(&index) {
                evaluator.add_restricted_columnar(
                    entry.ctx.instance(),
                    &selection[index],
                    entry.ctx.columns(),
                );
            } else {
                evaluator.add_relation_columnar(entry.ctx.instance(), entry.ctx.columns());
            }
        }
        evaluator
    }

    /// The physical plan for this query on this snapshot: served from the query's memo
    /// entry when this `(fingerprint, family)` was costed before (and the swap
    /// derivations carried it), costed fresh from the memo's cardinalities otherwise.
    /// `None` when the naive fixed strategy is forced (`PDQI_FORCE_NAIVE_PLAN=1` /
    /// [`pdqi_query::force_naive_plan`]).
    fn plan_for(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        relevant: &[usize],
        parallelism: Parallelism,
    ) -> Option<Arc<PhysicalPlan>> {
        if pdqi_query::naive_plan_forced() {
            pdqi_query::planner::note_naive();
            return None;
        }
        if let Some(plan) = snapshot.memoised_part(self, kind, |parts| parts.plan.clone()) {
            pdqi_query::planner::note_plan_cache_hit();
            return Some(plan);
        }
        let inputs = self.planner_inputs(snapshot, kind, relevant, parallelism);
        let plan = Arc::new(pdqi_query::planner::plan(&self.formula, &inputs));
        let parts = QueryParts { plan: Some(Arc::clone(&plan)), ..QueryParts::default() };
        snapshot.store_query(self, kind, relevant, parts);
        Some(plan)
    }

    /// Assembles the planner's cardinality inputs from the snapshot: relation row
    /// counts, per-component conflict sizes and whatever repair counts the memo already
    /// holds (a cold component stays `None` and is estimated structurally).
    fn planner_inputs(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        relevant: &[usize],
        parallelism: Parallelism,
    ) -> pdqi_query::PlannerInputs {
        let entries = snapshot.entries();
        let relations: Vec<pdqi_query::RelationStats> = relevant
            .iter()
            .map(|&rel| {
                let entry = &entries[rel];
                pdqi_query::RelationStats {
                    name: entry.ctx.instance().schema().name().to_string(),
                    rows: entry.ctx.instance().len(),
                    base_rows: entry.base.len(),
                }
            })
            .collect();
        let mut components = Vec::new();
        for (position, &rel) in relevant.iter().enumerate() {
            let entry = &entries[rel];
            for comp in 0..entry.components.len() {
                components.push(pdqi_query::ComponentStats {
                    relation: position,
                    tuples: entry.components[comp].len(),
                    repairs: snapshot.memoised_component_count(rel, comp, kind),
                    rep_repairs: snapshot.memoised_component_count(rel, comp, FamilyKind::Rep),
                });
            }
        }
        pdqi_query::PlannerInputs {
            relations,
            components,
            family: kind.label(),
            derive_eligible: matches!(
                kind,
                FamilyKind::Local | FamilyKind::SemiGlobal | FamilyKind::Global
            ),
            workers: parallelism.thread_count(),
        }
    }

    /// Renders the costed physical plan for this query on this snapshot, executes it,
    /// and appends the **actual** cardinalities next to the estimates — the engine half
    /// of `EXPLAIN SELECT …` / `.explain`. Deterministic for a given query and
    /// snapshot: no timings, no pointers, stable tree layout.
    ///
    /// Closed queries report the replayed outcome (verdict and `examined`); open
    /// queries report the answer row count. Either way the execution is the ordinary
    /// memoising one, so explaining a query warms the same caches running it would.
    pub fn explain(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
        parallelism: Parallelism,
    ) -> Result<String, QueryError> {
        let relevant = self.relevant_relations(snapshot);
        let summary = match &self.source {
            Some(text) => format!("query {text}"),
            None => format!("query fingerprint={:016x}", self.fingerprint),
        };
        let mut out = match self.plan_for(snapshot, kind, &relevant, parallelism) {
            Some(plan) => plan.render(Some(&summary)),
            None => format!(
                "plan family={} naive (PDQI_FORCE_NAIVE_PLAN)\n├─ {summary}\n",
                kind.label()
            ),
        };
        snapshot.warm_relation_components(kind, &relevant, parallelism);
        let product =
            snapshot.selection_lists(kind, &relevant).map_or(0, |lists| product_size(&lists));
        if self.is_closed() {
            let outcome = self.consistent_answer_with(snapshot, kind, parallelism)?;
            out.push_str(&format!(
                "actual product={product} examined={} certainly_true={} certainly_false={}\n",
                outcome.examined, outcome.certainly_true, outcome.certainly_false
            ));
        } else {
            let answers = self.execute_with(snapshot, kind, semantics, parallelism)?;
            out.push_str(&format!("actual product={product} rows={}\n", answers.rows().len()));
        }
        Ok(out)
    }
}

/// The enumeration-order truth profile of a closed query over one snapshot: the size
/// of the preferred-repair product and the positions of the first `true` and first
/// `false` verdicts, counted in the exact order the sequential fold enumerates
/// selections (components in ascending-minimum-tuple-id order, last component varying
/// fastest).
///
/// A profile is what a scatter-gather coordinator needs to reproduce
/// [`PreparedQuery::consistent_answer`] — verdict *and* the `examined` counter —
/// bit-identically from per-shard state: when the global repair product is the
/// shard-ordered cartesian product of per-shard products (no conflict component
/// crosses shards) and a combination's verdict is the OR of per-shard verdicts
/// (single-positive-atom existential queries), the global profile derives from
/// per-shard profiles by mixed-radix weight arithmetic alone, and
/// [`ClosedProfile::outcome`] turns it back into the sequential outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClosedProfile {
    /// The size of the preferred-repair product (0 when some component has no
    /// preferred repair at all).
    pub total: u128,
    /// The enumeration index of the first selection where the query holds.
    pub first_true: Option<u128>,
    /// The enumeration index of the first selection where the query fails.
    pub first_false: Option<u128>,
}

impl ClosedProfile {
    /// Replays the profile under the sequential early-exit rule, reproducing
    /// [`PreparedQuery::consistent_answer`]'s outcome exactly: a determined outcome
    /// examines the whole product, an undetermined one stops right after the later of
    /// the first-`true` / first-`false` positions.
    pub fn outcome(&self) -> CqaOutcome {
        let clamp = |n: u128| usize::try_from(n).unwrap_or(usize::MAX);
        if self.total == 0 {
            return CqaOutcome { certainly_true: true, certainly_false: true, examined: 0 };
        }
        match (self.first_true, self.first_false) {
            (Some(t), Some(f)) => CqaOutcome {
                certainly_true: false,
                certainly_false: false,
                examined: clamp(t.max(f).saturating_add(1)),
            },
            (Some(_), None) => CqaOutcome {
                certainly_true: true,
                certainly_false: false,
                examined: clamp(self.total),
            },
            (None, _) => CqaOutcome {
                certainly_true: false,
                certainly_false: true,
                examined: clamp(self.total),
            },
        }
    }

    /// Appends one verdict at the next position; `total` counts the verdicts so far.
    fn record(&mut self, verdict: bool) {
        let first = if verdict { &mut self.first_true } else { &mut self.first_false };
        if first.is_none() {
            *first = Some(self.total);
        }
        self.total += 1;
    }

    /// Whether both verdicts were seen: no later selection can change the profile.
    fn is_settled(&self) -> bool {
        self.first_true.is_some() && self.first_false.is_some()
    }

    /// The profile of this range of the enumeration followed by the next range.
    fn then(self, next: ClosedProfile) -> ClosedProfile {
        let shift = |position: Option<u128>| position.map(|p| self.total + p);
        ClosedProfile {
            total: self.total + next.total,
            first_true: self.first_true.or(shift(next.first_true)),
            first_false: self.first_false.or(shift(next.first_false)),
        }
    }
}

/// One fold step of the certain/possible accumulation, returning the folded rows.
/// Intersection and union are associative and commutative, so folding per chunk and
/// merging chunks in order is bit-identical to the sequential left fold.
fn fold_rows(
    fold: &mut Option<BTreeSet<Vec<Value>>>,
    mut rows: BTreeSet<Vec<Value>>,
    semantics: Semantics,
) -> &BTreeSet<Vec<Value>> {
    let folded = match fold.take() {
        None => rows,
        Some(mut previous) => {
            match semantics {
                Semantics::Certain => previous.retain(|row| rows.contains(row)),
                Semantics::Possible => previous.append(&mut rows),
            }
            previous
        }
    };
    fold.insert(folded)
}

/// The size of the cartesian repair product described by `lists`, saturating at
/// `u128::MAX` (an empty list set describes the single base selection).
fn product_size(lists: &[(usize, Arc<Vec<TupleSet>>)]) -> u128 {
    lists.iter().fold(1u128, |total, (_, choices)| total.saturating_mul(choices.len() as u128))
}

/// The number of chunks a repair product of `total` selections is split into at
/// `parallelism`: [`pdqi_query::planner::adaptive_chunk_count`] at its worker count,
/// the same split `EXPLAIN` previews as `chunks≈`.
pub fn adaptive_chunk_count(total: u128, cost_per_item: u128, parallelism: Parallelism) -> u128 {
    pdqi_query::planner::adaptive_chunk_count(total, cost_per_item, parallelism.thread_count())
}

/// Hard ceiling on the ranges [`chunk_ranges`] materialises. One entry per chunk is
/// allocated, so an unclamped caller-supplied count could otherwise loop (and allocate)
/// itself to death; engine callers stay far below this via [`adaptive_chunk_count`].
const MAX_CHUNKS: u128 = 65_536;

/// Splits `[0, total)` into `chunks` contiguous ranges of near-equal length (the first
/// `total % chunks` ranges are one longer). The ranges cover the product exactly once:
/// no gaps, no overlaps, in ascending order. Everything is `u128` — repair products
/// routinely exceed `usize::MAX`, and truncating here would silently drop repairs.
/// `chunks` is clamped to `[1, min(total, 65536)]` (one allocation per chunk; see
/// the private `MAX_CHUNKS` bound).
pub fn chunk_ranges(total: u128, chunks: u128) -> Vec<(u128, u128)> {
    let chunks = chunks.min(total).clamp(1, MAX_CHUNKS);
    let base = total / chunks;
    let remainder = total % chunks;
    let mut ranges = Vec::with_capacity(usize::try_from(chunks).unwrap_or(0));
    let mut start = 0u128;
    for index in 0..chunks {
        let len = base + u128::from(index < remainder);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// An odometer over the cartesian product of per-component preferred repairs, visiting
/// selections in enumeration order: relations as given, components in component-id
/// order, the last list varying fastest (row-major). `advance` touches only the
/// components whose digit changed, so stepping is cheap even with many components.
pub(crate) struct SelectionCursor<'a> {
    lists: &'a [(usize, Arc<Vec<TupleSet>>)],
    digits: Vec<usize>,
    current: Vec<TupleSet>,
}

impl<'a> SelectionCursor<'a> {
    /// A cursor positioned on the `start`-th selection (row-major index).
    pub(crate) fn new(
        snapshot: &EngineSnapshot,
        lists: &'a [(usize, Arc<Vec<TupleSet>>)],
        start: u128,
    ) -> Self {
        let mut digits = vec![0usize; lists.len()];
        let mut remainder = start;
        for (index, (_, choices)) in lists.iter().enumerate().rev() {
            let len = choices.len() as u128;
            digits[index] = (remainder % len) as usize;
            remainder /= len;
        }
        let mut current = snapshot.base_selection();
        for (index, (rel, choices)) in lists.iter().enumerate() {
            current[*rel].union_with(&choices[digits[index]]);
        }
        SelectionCursor { lists, digits, current }
    }

    /// The current selection, index-aligned with the snapshot's relations.
    fn selection(&self) -> &[TupleSet] {
        &self.current
    }

    /// Steps to the next selection in enumeration order. Returns `false` when it wrapped
    /// past the last selection back to the first. Distinct components are
    /// vertex-disjoint, so swapping one component's choice in and out never disturbs
    /// the others.
    fn advance(&mut self) -> bool {
        for index in (0..self.lists.len()).rev() {
            let (rel, choices) = &self.lists[index];
            self.current[*rel].remove_all(&choices[self.digits[index]]);
            if self.digits[index] + 1 < choices.len() {
                self.digits[index] += 1;
                self.current[*rel].union_with(&choices[self.digits[index]]);
                return true;
            }
            self.digits[index] = 0;
            self.current[*rel].union_with(&choices[0]);
        }
        false
    }

    /// Visits `len` selections from the current one on (`None`: every selection up to
    /// the last), until `visit` breaks or `stop` turns true. Returns whether `visit`
    /// broke.
    pub(crate) fn walk(
        &mut self,
        len: Option<u128>,
        stop: impl Fn() -> bool,
        mut visit: impl FnMut(&[TupleSet]) -> ControlFlow<()>,
    ) -> bool {
        let mut left = len;
        while left != Some(0) && !stop() {
            if visit(self.selection()).is_break() {
                return true;
            }
            left = left.map(|n| n - 1);
            if left != Some(0) && !self.advance() {
                break;
            }
        }
        false
    }
}

/// A streaming cursor over the (memoised, shared) answer rows of one execution.
///
/// Rows are sorted and de-duplicated; the row buffer lives behind an [`Arc`], so cloning
/// a cursor or re-executing the same prepared query shares it instead of copying.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    columns: Arc<Vec<String>>,
    rows: Arc<Vec<Vec<Value>>>,
    next: usize,
}

impl AnswerSet {
    fn new(columns: Arc<Vec<String>>, rows: Arc<Vec<Vec<Value>>>) -> Self {
        AnswerSet { columns, rows, next: 0 }
    }

    /// Column headers: the query's free variables, in lexicographic order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Zero-copy view of all rows (independent of the cursor position).
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Whether the answer set has no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Iterator for AnswerSet {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        let row = self.rows.get(self.next)?.clone();
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.rows.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for AnswerSet {}

impl fmt::Display for AnswerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in self.rows.iter() {
            let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", rendered.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::fixtures::*;
    use crate::snapshot::EngineBuilder;
    use crate::RepairContext;

    const Q1: &str =
        "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 < s2";

    fn snapshot_of(ctx: &RepairContext) -> EngineSnapshot {
        EngineBuilder::new().relation(ctx.instance().clone(), ctx.fds().clone()).build().unwrap()
    }

    #[test]
    fn preparation_happens_once_and_is_reusable() {
        let query = PreparedQuery::parse(Q1).unwrap();
        assert_eq!(query.class(), QueryClass::Conjunctive);
        assert!(query.is_closed());
        assert_eq!(query.relations(), ["Mgr".to_string()]);
        assert_eq!(query.source(), Some(Q1));
        // Fingerprints are stable across re-preparation.
        assert_eq!(query.fingerprint(), PreparedQuery::parse(Q1).unwrap().fingerprint());
    }

    #[test]
    fn closed_profiles_replay_to_the_consistent_answer() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        // A conjunctive closed query, a ground query, and family-sensitive variants.
        let queries = [
            Q1,
            "Mgr('Mary','R&D',40,3)",
            "EXISTS n,s,r . Mgr(n,'R&D',s,r)",
            "EXISTS d,s,r . Mgr('Mary',d,s,r) AND s > 25",
        ];
        for text in queries {
            let query = PreparedQuery::parse(text).unwrap();
            for kind in FamilyKind::ALL {
                let profile = query.closed_profile(&snapshot, kind).unwrap();
                let replayed = profile.outcome();
                let direct = query.consistent_answer(&snapshot, kind).unwrap();
                assert_eq!(replayed.certainly_true, direct.certainly_true, "{text} {kind:?}");
                assert_eq!(replayed.certainly_false, direct.certainly_false, "{text} {kind:?}");
                // Ground queries under Rep answer through the polynomial fast path
                // (examined == 0); every other combination walks the same enumeration
                // the profile records, so the replayed counter must match exactly.
                if direct.examined != 0 {
                    assert_eq!(replayed.examined, direct.examined, "{text} {kind:?}");
                }
            }
        }
        // An open query has no closed profile.
        let open = PreparedQuery::parse("EXISTS d,s,r . Mgr(x,d,s,r)").unwrap();
        assert!(open.closed_profile(&snapshot, FamilyKind::Rep).is_err());
    }

    #[test]
    fn closed_answers_match_the_legacy_cqa_procedure() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let query = PreparedQuery::parse(Q1).unwrap();
        for kind in FamilyKind::ALL {
            let piped = query.consistent_answer(&snapshot, kind).unwrap();
            let legacy = crate::cqa::preferred_consistent_answer(
                &ctx,
                &ctx.empty_priority(),
                kind.family().as_ref(),
                query.formula(),
            )
            .unwrap();
            assert_eq!(piped.certainly_true, legacy.certainly_true, "{}", kind.label());
            assert_eq!(piped.certainly_false, legacy.certainly_false, "{}", kind.label());
        }
    }

    #[test]
    fn repeated_executions_hit_the_answer_memo() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let query = PreparedQuery::parse("EXISTS d,s,r . Mgr(x,d,s,r)").unwrap();
        let first: Vec<_> =
            query.execute(&snapshot, FamilyKind::Rep, Semantics::Certain).unwrap().collect();
        let after_first = snapshot.memo_stats();
        assert_eq!(after_first.answer_hits, 0);
        let second: Vec<_> =
            query.execute(&snapshot, FamilyKind::Rep, Semantics::Certain).unwrap().collect();
        assert_eq!(first, second);
        let after_second = snapshot.memo_stats();
        assert_eq!(after_second.answer_hits, 1);
        // The second execution did not re-enumerate any component.
        assert_eq!(after_second.component_misses, after_first.component_misses);
    }

    #[test]
    fn repeated_profiles_hit_the_answer_memo() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let query = PreparedQuery::parse(Q1).unwrap();
        for kind in FamilyKind::ALL {
            let first = query.closed_profile(&snapshot, kind).unwrap();
            let before = snapshot.memo_stats();
            let second = query.closed_profile(&snapshot, kind).unwrap();
            let after = snapshot.memo_stats();
            assert_eq!(second, first, "{}", kind.label());
            assert_eq!(after.answer_hits, before.answer_hits + 1, "{}", kind.label());
            assert_eq!(after.component_misses, before.component_misses, "{}", kind.label());
            let fresh = query.closed_profile(&snapshot_of(&ctx), kind).unwrap();
            assert_eq!(second, fresh, "{}", kind.label());
        }
    }

    #[test]
    fn closed_answers_do_not_depend_on_request_order() {
        let ctx = example1();
        let fresh = || snapshot_of(&ctx);
        let rep = FamilyKind::Rep;
        // A ground query under Rep: CLOSED keeps its fast path after a PROFILE walked...
        let ground = PreparedQuery::parse("Mgr('Mary','R&D',40,3)").unwrap();
        let snapshot = fresh();
        assert!(ground.closed_profile(&snapshot, rep).unwrap().total > 0);
        let outcome = ground.consistent_answer(&snapshot, rep).unwrap();
        assert_eq!(outcome.examined, 0);
        assert_eq!(outcome, ground.consistent_answer(&fresh(), rep).unwrap());
        // ...and a PROFILE after a CLOSED walks instead of reusing the fast path's entry.
        let snapshot = fresh();
        ground.consistent_answer(&snapshot, rep).unwrap();
        let profile = ground.closed_profile(&snapshot, rep).unwrap();
        assert_eq!(profile, ground.closed_profile(&fresh(), rep).unwrap());
        // The entry now holds both parts: asking again is two hits.
        let hits = snapshot.memo_stats().answer_hits;
        assert_eq!(ground.consistent_answer(&snapshot, rep).unwrap(), outcome);
        assert_eq!(ground.closed_profile(&snapshot, rep).unwrap(), profile);
        assert_eq!(snapshot.memo_stats().answer_hits, hits + 2);
        // A quantified query: CLOSED after PROFILE is a memo hit with the fresh outcome.
        let quantified = PreparedQuery::parse(Q1).unwrap();
        for kind in FamilyKind::ALL {
            let snapshot = fresh();
            quantified.closed_profile(&snapshot, kind).unwrap();
            let hits = snapshot.memo_stats().answer_hits;
            let outcome = quantified.consistent_answer(&snapshot, kind).unwrap();
            assert_eq!(snapshot.memo_stats().answer_hits, hits + 1, "{}", kind.label());
            let expected = quantified.consistent_answer(&fresh(), kind).unwrap();
            assert_eq!(outcome, expected, "{}", kind.label());
        }
    }

    #[test]
    fn derivations_carry_profiles_like_every_memoised_answer() {
        let (mgr, other) = (example1(), example4(2));
        let build = |snapshot: &EngineSnapshot| {
            EngineBuilder::new()
                .relation(snapshot.context_of("Mgr").unwrap().instance().clone(), mgr.fds().clone())
                .relation(snapshot.context_of("R").unwrap().instance().clone(), other.fds().clone())
                .build()
                .unwrap()
        };
        let base = EngineBuilder::new()
            .relation(mgr.instance().clone(), mgr.fds().clone())
            .relation(other.instance().clone(), other.fds().clone())
            .build()
            .unwrap();
        let query = PreparedQuery::parse(Q1).unwrap();
        let john_pr = vec!["John".into(), "PR".into(), Value::int(30), Value::int(4)];
        // A mutation of the other relation carries the profile; one of Mgr drops it.
        let cases = [
            (crate::Mutation::new().insert("R", vec![Value::int(5), Value::int(0)]), 1),
            (crate::Mutation::new().delete("Mgr", john_pr), 0),
        ];
        for kind in FamilyKind::ALL {
            query.closed_profile(&base, kind).unwrap();
            for (mutation, hits) in &cases {
                let derived = base.with_mutations(mutation, Parallelism::sequential()).unwrap();
                let profile = query.closed_profile(&derived, kind).unwrap();
                assert_eq!(derived.memo_stats().answer_hits, *hits, "{}", kind.label());
                let fresh = query.closed_profile(&build(&derived), kind).unwrap();
                assert_eq!(profile, fresh, "{}", kind.label());
            }
        }
    }

    #[test]
    fn answer_sets_stream_sorted_rows_with_columns() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let query = PreparedQuery::parse("EXISTS s,r . Mgr('Mary',x,s,r)").unwrap();
        let possible = query.execute(&snapshot, FamilyKind::Rep, Semantics::Possible).unwrap();
        assert_eq!(possible.columns(), ["x".to_string()]);
        assert_eq!(possible.len(), 2);
        let rows: Vec<_> = possible.clone().collect();
        assert_eq!(rows.len(), 2);
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted, "rows stream in sorted order");
        assert!(possible.to_string().contains('x'));
        let certain = query.execute(&snapshot, FamilyKind::Rep, Semantics::Certain).unwrap();
        assert!(certain.is_empty());
    }

    #[test]
    fn closed_queries_flow_through_execute_as_zero_column_rows() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let query = PreparedQuery::parse(Q1).unwrap();
        // Q1 is undetermined: true in some repairs (→ possible) but not all (→ certain).
        let certain = query.execute(&snapshot, FamilyKind::Rep, Semantics::Certain).unwrap();
        assert!(certain.is_empty());
        let possible = query.execute(&snapshot, FamilyKind::Rep, Semantics::Possible).unwrap();
        assert_eq!(possible.len(), 1);
        assert_eq!(possible.columns().len(), 0);
    }

    #[test]
    fn ground_fast_path_is_preserved_and_memoised() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let query =
            PreparedQuery::parse("Mgr('Mary','R&D',40,3) OR Mgr('Mary','IT',20,1)").unwrap();
        assert_eq!(query.class(), QueryClass::Ground);
        let outcome = query.consistent_answer(&snapshot, FamilyKind::Rep).unwrap();
        assert!(outcome.certainly_true);
        assert_eq!(outcome.examined, 0);
        let again = query.consistent_answer(&snapshot, FamilyKind::Rep).unwrap();
        assert_eq!(outcome, again);
        assert!(snapshot.memo_stats().answer_hits >= 1);
        // Other families run the generic pipeline and examine repairs.
        let outcome = query.consistent_answer(&snapshot, FamilyKind::Global).unwrap();
        assert!(outcome.certainly_true);
        assert!(outcome.examined > 0);
    }

    #[test]
    fn errors_are_propagated_like_the_legacy_path() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let open = PreparedQuery::parse("EXISTS s,r . Mgr(x,'R&D',s,r)").unwrap();
        assert!(matches!(
            open.consistent_answer(&snapshot, FamilyKind::Rep),
            Err(QueryError::FreeVariables { .. })
        ));
        let unknown = PreparedQuery::parse("Nope(x)").unwrap();
        assert!(matches!(
            unknown.execute(&snapshot, FamilyKind::Rep, Semantics::Certain),
            Err(QueryError::UnknownRelation { .. })
        ));
        assert!(PreparedQuery::parse("Mgr(").is_err());
    }

    #[test]
    fn queries_join_across_relations_of_a_multi_relation_snapshot() {
        let mgr = example1();
        let other = example4(2);
        let snapshot = EngineBuilder::new()
            .relation(mgr.instance().clone(), mgr.fds().clone())
            .relation(other.instance().clone(), other.fds().clone())
            .build()
            .unwrap();
        // Mentions only R: certain answers over R's repairs, Mgr is irrelevant.
        let query = PreparedQuery::parse("EXISTS b . R(x,b)").unwrap();
        let certain = query.certain_answers(&snapshot, FamilyKind::Rep).unwrap();
        assert_eq!(certain, vec![vec![Value::int(0)], vec![Value::int(1)]]);
        // A cross-relation conjunction mentions both.
        let join = PreparedQuery::parse("EXISTS d,s,r,b . Mgr('Mary',d,s,r) AND R(x,b) AND s > 15")
            .unwrap();
        let possible = join.possible_answers(&snapshot, FamilyKind::Rep).unwrap();
        assert_eq!(possible, vec![vec![Value::int(0)], vec![Value::int(1)]]);
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_sequential() {
        let (ctx, priority) = example9();
        let change = crate::Change::Priority { relation: "R".to_string(), priority };
        let snapshot = snapshot_of(&ctx).derive(&change, Parallelism::sequential()).unwrap().0;
        let queries = [
            PreparedQuery::parse("EXISTS b,c,d . R(a,b,c,d)").unwrap(),
            PreparedQuery::parse("EXISTS a,c,d . R(a,b,c,d) AND b >= 0").unwrap(),
            PreparedQuery::parse("EXISTS a,b,c,d . R(a,b,c,d) AND a > b").unwrap(),
        ];
        for query in &queries {
            for kind in FamilyKind::ALL {
                for semantics in [Semantics::Certain, Semantics::Possible] {
                    // Fresh memos so both paths really execute.
                    let sequential_snapshot = snapshot.with_cleared_memo();
                    let parallel_snapshot = snapshot.with_cleared_memo();
                    let sequential: Vec<_> =
                        query.execute(&sequential_snapshot, kind, semantics).unwrap().collect();
                    let parallel: Vec<_> = query
                        .execute_with(
                            &parallel_snapshot,
                            kind,
                            semantics,
                            crate::Parallelism::threads(4),
                        )
                        .unwrap()
                        .collect();
                    assert_eq!(sequential, parallel, "{} {:?}", kind.label(), semantics);
                }
            }
        }
    }

    #[test]
    fn parallel_closed_outcomes_match_including_examined() {
        let ctx = example1();
        let queries = [Q1, "EXISTS d,s,r . Mgr('Mary',d,s,r) AND s > 15"];
        for text in queries {
            let query = PreparedQuery::parse(text).unwrap();
            for kind in FamilyKind::ALL {
                let sequential_snapshot = snapshot_of(&ctx);
                let parallel_snapshot = snapshot_of(&ctx);
                let sequential = query.consistent_answer(&sequential_snapshot, kind).unwrap();
                let parallel = query
                    .consistent_answer_with(
                        &parallel_snapshot,
                        kind,
                        crate::Parallelism::threads(3),
                    )
                    .unwrap();
                assert_eq!(sequential, parallel, "{} on {text}", kind.label());
            }
        }
    }

    #[test]
    fn parallel_errors_match_the_sequential_path() {
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let unknown = PreparedQuery::parse("Nope(x)").unwrap();
        let sequential =
            unknown.execute(&snapshot.with_cleared_memo(), FamilyKind::Rep, Semantics::Certain);
        let parallel = unknown.execute_with(
            &snapshot.with_cleared_memo(),
            FamilyKind::Rep,
            Semantics::Certain,
            crate::Parallelism::threads(4),
        );
        assert_eq!(sequential.unwrap_err(), parallel.unwrap_err());
    }

    #[test]
    fn batch_executor_matches_per_query_execution() {
        use crate::{BatchExecutor, BatchRequest, BatchResponse, Parallelism};
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let open = Arc::new(PreparedQuery::parse("EXISTS d,s,r . Mgr(x,d,s,r)").unwrap());
        let closed = Arc::new(PreparedQuery::parse(Q1).unwrap());
        let mut requests = Vec::new();
        for kind in FamilyKind::ALL {
            requests.push(BatchRequest::execute(Arc::clone(&open), kind, Semantics::Certain));
            requests.push(BatchRequest::execute(Arc::clone(&open), kind, Semantics::Possible));
            requests.push(BatchRequest::consistent_answer(Arc::clone(&closed), kind));
            requests.push(BatchRequest::profile(Arc::clone(&closed), kind));
        }
        let executor = BatchExecutor::with_parallelism(snapshot.clone(), Parallelism::threads(4));
        let responses = executor.run(&requests);
        assert_eq!(responses.len(), requests.len());
        let reference = snapshot_of(&ctx);
        for (request, response) in requests.iter().zip(responses) {
            match (request, response.unwrap()) {
                (crate::BatchRequest::Execute { query, family, semantics }, batched) => {
                    let direct: Vec<_> =
                        query.execute(&reference, *family, *semantics).unwrap().collect();
                    let batched: Vec<_> = batched.rows().unwrap().clone().collect();
                    assert_eq!(direct, batched);
                }
                (crate::BatchRequest::ConsistentAnswer { query, family }, batched) => {
                    let direct = query.consistent_answer(&reference, *family).unwrap();
                    assert_eq!(direct, batched.outcome().unwrap());
                }
                (crate::BatchRequest::Profile { query, family }, batched) => {
                    let direct = query.closed_profile(&reference, *family).unwrap();
                    assert!(matches!(batched, BatchResponse::Profile(p) if p == direct));
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_partition_exactly_even_beyond_usize() {
        for (total, chunks) in
            [(0u128, 4u128), (1, 4), (7, 3), (4096, 16), (1 << 80, 64), (u128::MAX - 1, 37)]
        {
            let ranges = chunk_ranges(total, chunks);
            assert!(!ranges.is_empty());
            assert_eq!(ranges[0].0, 0, "total {total} chunks {chunks}");
            for window in ranges.windows(2) {
                assert_eq!(window[0].1, window[1].0, "gap/overlap at {window:?}");
                assert!(window[0].0 <= window[0].1);
            }
            assert_eq!(ranges.last().unwrap().1, total, "total {total} chunks {chunks}");
        }
    }

    #[test]
    fn single_request_batches_split_across_the_pool_bit_identically() {
        use crate::{BatchExecutor, BatchRequest, Parallelism};
        let ctx = example4(9);
        let snapshot = snapshot_of(&ctx);
        let executor =
            BatchExecutor::with_parallelism(snapshot.with_cleared_memo(), Parallelism::threads(2));
        let query = Arc::new(PreparedQuery::parse("EXISTS y . R(x,y)").unwrap());
        let request =
            BatchRequest::execute(Arc::clone(&query), FamilyKind::Rep, Semantics::Possible);
        let responses = executor.run(std::slice::from_ref(&request));
        assert_eq!(responses.len(), 1);
        let rows: Vec<_> = responses[0].as_ref().unwrap().rows().unwrap().clone().collect();
        let direct: Vec<_> = query
            .execute(&snapshot_of(&ctx), FamilyKind::Rep, Semantics::Possible)
            .unwrap()
            .collect();
        assert_eq!(rows, direct);
    }

    #[test]
    fn repair_products_beyond_u64_execute_in_parallel_without_truncation() {
        // 80 independent two-repair components: 2^80 repairs, far beyond usize::MAX.
        // A certain-answer query that empties immediately exercises the chunked path
        // (cursor seeks into the >2^64 product) and terminates through the shared
        // early-exit flag; any usize truncation in chunking would panic or misindex.
        let ctx = example4(80);
        let snapshot = snapshot_of(&ctx);
        assert_eq!(snapshot.count_repairs(), 1u128 << 80);
        assert!(snapshot.count_repairs() > u64::MAX as u128);
        let query = PreparedQuery::parse("EXISTS y . R(x,y) AND x < 0").unwrap();
        let sequential: Vec<_> = query
            .execute(&snapshot.with_cleared_memo(), FamilyKind::Rep, Semantics::Certain)
            .unwrap()
            .collect();
        let parallel: Vec<_> = query
            .execute_with(
                &snapshot.with_cleared_memo(),
                FamilyKind::Rep,
                Semantics::Certain,
                crate::Parallelism::threads(4),
            )
            .unwrap()
            .collect();
        assert_eq!(sequential, parallel);
        assert!(parallel.is_empty());
    }

    #[test]
    fn selection_cursor_seeks_correctly_past_u64_boundaries() {
        // The cursor must decompose start indices above 2^64 digit-exactly: seeking to
        // `start` and advancing must agree with seeking to `start + 1`.
        let ctx = example4(80);
        let snapshot = snapshot_of(&ctx);
        let lists = snapshot.selection_lists(FamilyKind::Rep, &[0]).unwrap();
        for start in [0u128, 1, (1 << 70) - 1, 1 << 70, (1 << 80) - 2] {
            let mut cursor = SelectionCursor::new(&snapshot, &lists, start);
            cursor.advance();
            let next = SelectionCursor::new(&snapshot, &lists, start + 1);
            assert_eq!(cursor.selection(), next.selection(), "start {start}");
        }
    }

    #[test]
    fn reuse_across_snapshots_and_derived_priorities() {
        let (ctx, priority) = example9();
        let query = PreparedQuery::parse("R(1,1,0,0)").unwrap();
        let base = snapshot_of(&ctx);
        let change = crate::Change::Priority { relation: "R".to_string(), priority };
        let with_priority = base.derive(&change, Parallelism::sequential()).unwrap().0;
        // One prepared query, three snapshots: the plain one, the derived one, and a
        // fresh build; answers agree between derived and fresh.
        let fresh = EngineBuilder::new()
            .relation(ctx.instance().clone(), ctx.fds().clone())
            .priority_pairs(&[
                (pdqi_relation::TupleId(0), pdqi_relation::TupleId(1)),
                (pdqi_relation::TupleId(1), pdqi_relation::TupleId(2)),
                (pdqi_relation::TupleId(2), pdqi_relation::TupleId(3)),
                (pdqi_relation::TupleId(3), pdqi_relation::TupleId(4)),
            ])
            .build()
            .unwrap();
        for kind in FamilyKind::ALL {
            let derived = query.consistent_answer(&with_priority, kind).unwrap();
            let rebuilt = query.consistent_answer(&fresh, kind).unwrap();
            assert_eq!(derived.certainly_true, rebuilt.certainly_true, "{}", kind.label());
            assert_eq!(derived.certainly_false, rebuilt.certainly_false, "{}", kind.label());
        }
    }
}
