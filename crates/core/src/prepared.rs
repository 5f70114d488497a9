//! Prepared queries and the unified answer pipeline.
//!
//! A [`PreparedQuery`] parses, classifies and fingerprints a first-order query **once**
//! and can then be executed any number of times, against any [`EngineSnapshot`], under
//! any [`FamilyKind`] and [`Semantics`]. Execution runs through one pipeline for every
//! query shape:
//!
//! 1. look up the snapshot's answer memo under `(components, family, fingerprint)` —
//!    repeated executions return immediately;
//! 2. otherwise enumerate the preferred repairs of the *relevant* components only (the
//!    components of the relations the query mentions), assembled from the snapshot's
//!    per-component memo, evaluating the query per repair;
//! 3. store the result in the memo and hand back a streaming [`AnswerSet`] cursor over
//!    the shared row buffer.
//!
//! Ground queries under the plain repair family keep their polynomial fast path
//! ([`crate::cqa_ground`]), reported with `examined == 0` as before.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pdqi_query::classify::{classify, QueryClass};
use pdqi_query::{parse_formula, Evaluator, Formula, QueryError};
use pdqi_relation::{TupleSet, Value};

use crate::cqa::CqaOutcome;
use crate::cqa_ground::ground_consistent_answer;
use crate::families::FamilyKind;
use crate::parallel::{run_jobs, Parallelism};
use crate::snapshot::{AnswerKey, AnswerMode, EngineSnapshot};

/// Which answers an open-query execution returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Rows that are answers in **every** preferred repair (certain answers).
    Certain,
    /// Rows that are answers in **some** preferred repair (possible answers).
    Possible,
}

impl Semantics {
    fn mode(self) -> AnswerMode {
        match self {
            Semantics::Certain => AnswerMode::Certain,
            Semantics::Possible => AnswerMode::Possible,
        }
    }
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
    /// the snapshot under `(components, family, fingerprint)` — a second execution with
    /// the same key streams from the shared buffer without re-enumerating anything.
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
    /// contiguous chunks evaluated concurrently. Chunking is **adaptive**: the chunk
    /// count is derived from the memoised per-component preferred-repair counts and the
    /// estimated per-selection evaluation cost (see [`adaptive_chunk_count`]), so small
    /// products pay few cursor setups while heavy or skewed products hand the pool
    /// enough chunks for the shared atomic work index to steal from. The answer set is
    /// **bit-identical** to the sequential execution — certain/possible folding is a set
    /// intersection/union, so merging per-chunk folds in chunk order reproduces the
    /// sequential fold exactly — and the memoised entry is indistinguishable too.
    /// Products that saturate the `u128` counter fall back to the sequential path
    /// rather than trusting truncated chunk boundaries.
    pub fn execute_with(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
        parallelism: Parallelism,
    ) -> Result<AnswerSet, QueryError> {
        self.execute_inner(snapshot, kind, semantics, parallelism, None)
    }

    /// [`PreparedQuery::execute_with`] with a [`ChunkTuner`] in the loop: chunk sizes
    /// come from the tuner's measured per-chunk cost target, and every fully-evaluated
    /// chunk's wall-clock is recorded back. Results are bit-identical either way; only
    /// the split of the repair product changes.
    pub fn execute_tuned(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
        parallelism: Parallelism,
        tuner: &ChunkTuner,
    ) -> Result<AnswerSet, QueryError> {
        self.execute_inner(snapshot, kind, semantics, parallelism, Some(tuner))
    }

    fn execute_inner(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
        parallelism: Parallelism,
        tuner: Option<&ChunkTuner>,
    ) -> Result<AnswerSet, QueryError> {
        let key = AnswerKey { fingerprint: self.fingerprint, family: kind, mode: semantics.mode() };
        if let Some(entry) = snapshot.cached_answer(&key, &self.formula) {
            return Ok(AnswerSet::new(Arc::clone(&entry.columns), Arc::clone(&entry.rows)));
        }
        let relevant = self.relevant_relations(snapshot);
        let plan = self.plan_for(snapshot, kind, &relevant, parallelism, tuner);
        let accumulated = self.accumulate_rows(
            snapshot,
            kind,
            semantics,
            &relevant,
            parallelism,
            tuner,
            plan.as_deref(),
        )?;
        let rows: Arc<Vec<Vec<Value>>> = Arc::new(accumulated.into_iter().collect());
        let columns = Arc::new(self.free.clone());
        let entry = snapshot.store_answer(key, &self.formula, &relevant, rows, columns, None);
        Ok(AnswerSet::new(Arc::clone(&entry.columns), Arc::clone(&entry.rows)))
    }

    /// Folds per-repair answer rows under the chosen semantics, parallel when asked.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_rows(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
        relevant: &[usize],
        parallelism: Parallelism,
        tuner: Option<&ChunkTuner>,
        plan: Option<&pdqi_query::PhysicalPlan>,
    ) -> Result<BTreeSet<Vec<Value>>, QueryError> {
        if !parallelism.is_sequential() {
            if let Some(rows) = self.accumulate_rows_parallel(
                snapshot,
                kind,
                semantics,
                relevant,
                parallelism,
                tuner,
                plan,
            ) {
                return Ok(rows);
            }
            // Fall back to the sequential path: either a worker hit an evaluation
            // error (rerunning sequentially makes error reporting, and its interaction
            // with early exits, match exactly — redundant work only on the failure
            // path), or the repair product saturated `u128` (the sequential recursion
            // never indexes the product, so it needs no chunk boundaries).
        }
        self.accumulate_rows_sequential(snapshot, kind, semantics, relevant, plan)
    }

    fn accumulate_rows_sequential(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
        relevant: &[usize],
        plan: Option<&pdqi_query::PhysicalPlan>,
    ) -> Result<BTreeSet<Vec<Value>>, QueryError> {
        let mut accumulated: Option<BTreeSet<Vec<Value>>> = None;
        let mut error: Option<QueryError> = None;
        snapshot.for_each_preferred_selection(kind, relevant, &mut |selection| {
            let evaluator = self.evaluator_for(snapshot, relevant, selection, plan);
            let rows = match evaluator.answer_rows(&self.formula) {
                Ok(rows) => rows,
                Err(e) => {
                    error = Some(e);
                    return ControlFlow::Break(());
                }
            };
            accumulated = Some(fold_rows(accumulated.take(), rows, semantics));
            // Certain answers only shrink; once empty the outcome is settled.
            if semantics == Semantics::Certain
                && accumulated.as_ref().is_some_and(BTreeSet::is_empty)
            {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        Ok(accumulated.unwrap_or_default())
    }

    /// The parallel row fold: `None` means the caller must fall back to the sequential
    /// path — either a worker hit an evaluation error (rerunning sequentially reproduces
    /// its exact reporting), or the repair product saturated `u128` and indexed chunking
    /// is off the table.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_rows_parallel(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        semantics: Semantics,
        relevant: &[usize],
        parallelism: Parallelism,
        tuner: Option<&ChunkTuner>,
        plan: Option<&pdqi_query::PhysicalPlan>,
    ) -> Option<BTreeSet<Vec<Value>>> {
        snapshot.warm_relation_components(kind, relevant, parallelism);
        let Some(lists) = snapshot.selection_lists(kind, relevant) else {
            // Some component has no preferred repair: the product is empty.
            return Some(BTreeSet::new());
        };
        let total = product_size(&lists);
        if total == u128::MAX {
            // The product saturated the counter: chunk boundaries could no longer be
            // trusted to cover every selection, so fall back to the sequential path
            // (which enumerates recursively and never indexes the product).
            return None;
        }
        let cost = self.selection_cost(snapshot, relevant, &lists, plan);
        let target = tuner.map_or(TARGET_CHUNK_COST, |t| t.target_chunk_cost_for(self.fingerprint));
        let chunks =
            chunk_ranges(total, adaptive_chunk_count_with_target(total, cost, parallelism, target));
        // The parallel analogue of the sequential Certain early exit: the merged result
        // is an intersection, so one empty chunk fold empties it globally and every
        // worker can stop.
        let globally_empty = std::sync::atomic::AtomicBool::new(false);
        let folds: Vec<Result<Option<BTreeSet<Vec<Value>>>, QueryError>> =
            run_jobs(parallelism, chunks.len(), |index| {
                let (start, end) = chunks[index];
                let started = tuner.map(|_| Instant::now());
                let mut cursor = SelectionCursor::new(snapshot, &lists, start);
                let mut accumulated: Option<BTreeSet<Vec<Value>>> = None;
                let mut at = start;
                while at < end {
                    if semantics == Semantics::Certain
                        && globally_empty.load(std::sync::atomic::Ordering::Relaxed)
                    {
                        return Ok(Some(BTreeSet::new()));
                    }
                    let evaluator =
                        self.evaluator_for(snapshot, relevant, cursor.selection(), plan);
                    let rows = evaluator.answer_rows(&self.formula)?;
                    accumulated = Some(fold_rows(accumulated.take(), rows, semantics));
                    if semantics == Semantics::Certain
                        && accumulated.as_ref().is_some_and(BTreeSet::is_empty)
                    {
                        globally_empty.store(true, std::sync::atomic::Ordering::Relaxed);
                        return Ok(accumulated);
                    }
                    at += 1;
                    if at < end {
                        cursor.advance();
                    }
                }
                // Only fully-evaluated chunks feed the tuner: an early exit's timing
                // reflects the cut-off, not the per-selection cost.
                if let (Some(tuner), Some(started)) = (tuner, started) {
                    tuner.record_for(
                        self.fingerprint,
                        (end - start).saturating_mul(cost),
                        started.elapsed().as_nanos(),
                    );
                }
                Ok(accumulated)
            });
        let mut merged: Option<BTreeSet<Vec<Value>>> = None;
        for fold in folds {
            match fold {
                Err(_) => return None,
                Ok(None) => {}
                Ok(Some(rows)) => merged = Some(fold_rows(merged.take(), rows, semantics)),
            }
        }
        Some(merged.unwrap_or_default())
    }

    /// The preferred consistent answer to a closed query (Definition 3): whether the
    /// query holds in every preferred repair, fails in every preferred repair, or is
    /// left undetermined by the inconsistency.
    ///
    /// Ground queries under [`FamilyKind::Rep`] on single-relation snapshots use the
    /// polynomial conflict-graph algorithm (`examined == 0`); every other combination
    /// runs through the memoised component pipeline.
    pub fn consistent_answer(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
    ) -> Result<CqaOutcome, QueryError> {
        self.consistent_answer_with(snapshot, kind, Parallelism::sequential())
    }

    /// [`PreparedQuery::consistent_answer`] with an explicit degree of parallelism.
    ///
    /// Workers evaluate contiguous chunks of the repair product and record per-repair
    /// truth values **in enumeration order**; the outcome is then replayed with the
    /// sequential early-exit rule, so the result — including the `examined` counter —
    /// is bit-identical to the sequential path. (For undetermined outcomes the workers
    /// may evaluate repairs the sequential path would have skipped; that extra work
    /// never changes the answer.)
    pub fn consistent_answer_with(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        parallelism: Parallelism,
    ) -> Result<CqaOutcome, QueryError> {
        self.consistent_answer_inner(snapshot, kind, parallelism, None)
    }

    /// [`PreparedQuery::consistent_answer_with`] with a [`ChunkTuner`] in the loop (see
    /// [`PreparedQuery::execute_tuned`]).
    pub fn consistent_answer_tuned(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        parallelism: Parallelism,
        tuner: &ChunkTuner,
    ) -> Result<CqaOutcome, QueryError> {
        self.consistent_answer_inner(snapshot, kind, parallelism, Some(tuner))
    }

    fn consistent_answer_inner(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        parallelism: Parallelism,
        tuner: Option<&ChunkTuner>,
    ) -> Result<CqaOutcome, QueryError> {
        if !self.free.is_empty() {
            return Err(QueryError::FreeVariables { variables: self.free.clone() });
        }
        let key =
            AnswerKey { fingerprint: self.fingerprint, family: kind, mode: AnswerMode::Closed };
        if let Some(entry) = snapshot.cached_answer(&key, &self.formula) {
            if let Some(outcome) = entry.outcome {
                return Ok(outcome);
            }
        }
        let relevant = self.relevant_relations(snapshot);
        if kind == FamilyKind::Rep
            && self.class == QueryClass::Ground
            && snapshot.relation_count() == 1
        {
            let ctx = snapshot.context();
            let negated = Formula::Not(Box::new(self.formula.clone()));
            let certainly_true = ground_consistent_answer(ctx, &self.formula);
            let certainly_false = ground_consistent_answer(ctx, &negated);
            if let (Ok(certainly_true), Ok(certainly_false)) = (certainly_true, certainly_false) {
                let outcome = CqaOutcome { certainly_true, certainly_false, examined: 0 };
                snapshot.store_answer(
                    key,
                    &self.formula,
                    &relevant,
                    Arc::new(Vec::new()),
                    Arc::new(Vec::new()),
                    Some(outcome),
                );
                return Ok(outcome);
            }
            // Fall through to the generic pipeline on analysis errors so the caller
            // gets the standard error reporting.
        }
        let plan = self.plan_for(snapshot, kind, &relevant, parallelism, tuner);
        let outcome =
            self.closed_outcome(snapshot, kind, &relevant, parallelism, tuner, plan.as_deref())?;
        snapshot.store_answer(
            key,
            &self.formula,
            &relevant,
            Arc::new(Vec::new()),
            Arc::new(Vec::new()),
            Some(outcome),
        );
        Ok(outcome)
    }

    fn closed_outcome(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        relevant: &[usize],
        parallelism: Parallelism,
        tuner: Option<&ChunkTuner>,
        plan: Option<&pdqi_query::PhysicalPlan>,
    ) -> Result<CqaOutcome, QueryError> {
        if !parallelism.is_sequential() {
            if let Some(verdicts) =
                self.closed_verdicts_parallel(snapshot, kind, relevant, parallelism, tuner, plan)
            {
                // Replay the per-repair truth values in enumeration order under the
                // sequential early-exit rule: identical outcome, identical `examined`.
                let mut outcome =
                    CqaOutcome { certainly_true: true, certainly_false: true, examined: 0 };
                for verdict in verdicts {
                    match verdict {
                        true => outcome.certainly_false = false,
                        false => outcome.certainly_true = false,
                    }
                    outcome.examined += 1;
                    if outcome.is_undetermined() {
                        break;
                    }
                }
                return Ok(outcome);
            }
            // Evaluation error or saturated product: rerun sequentially (see
            // `accumulate_rows`).
        }
        self.closed_outcome_sequential(snapshot, kind, relevant, plan)
    }

    fn closed_outcome_sequential(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        relevant: &[usize],
        plan: Option<&pdqi_query::PhysicalPlan>,
    ) -> Result<CqaOutcome, QueryError> {
        let mut outcome = CqaOutcome { certainly_true: true, certainly_false: true, examined: 0 };
        let mut error: Option<QueryError> = None;
        snapshot.for_each_preferred_selection(kind, relevant, &mut |selection| {
            let evaluator = self.evaluator_for(snapshot, relevant, selection, plan);
            match evaluator.eval_closed(&self.formula) {
                Ok(true) => outcome.certainly_false = false,
                Ok(false) => outcome.certainly_true = false,
                Err(e) => {
                    error = Some(e);
                    return ControlFlow::Break(());
                }
            }
            outcome.examined += 1;
            if outcome.is_undetermined() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        Ok(outcome)
    }

    /// Per-repair truth values in enumeration order, evaluated across workers. `None`
    /// means fall back to the sequential path: a worker hit an evaluation error, or the
    /// repair product saturated `u128`.
    ///
    /// The sequential path stops at the first position whose prefix holds both a true
    /// and a false verdict (undetermined). The parallel analogue: a chunk that becomes
    /// undetermined *within itself* stops immediately — the replay is guaranteed to
    /// break at (or before) that position — and publishes its chunk index, so every
    /// later chunk, whose verdicts the replay can then never reach, stops as well.
    /// Earlier chunks still run to completion: their verdicts feed the replayed
    /// `examined` count, which must match the sequential path exactly.
    #[allow(clippy::too_many_arguments)]
    fn closed_verdicts_parallel(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        relevant: &[usize],
        parallelism: Parallelism,
        tuner: Option<&ChunkTuner>,
        plan: Option<&pdqi_query::PhysicalPlan>,
    ) -> Option<Vec<bool>> {
        snapshot.warm_relation_components(kind, relevant, parallelism);
        let Some(lists) = snapshot.selection_lists(kind, relevant) else {
            return Some(Vec::new());
        };
        let total = product_size(&lists);
        if total == u128::MAX {
            // Saturated product: fall back to the sequential path (see
            // `accumulate_rows_parallel`).
            return None;
        }
        let cost = self.selection_cost(snapshot, relevant, &lists, plan);
        let target = tuner.map_or(TARGET_CHUNK_COST, |t| t.target_chunk_cost_for(self.fingerprint));
        let chunks =
            chunk_ranges(total, adaptive_chunk_count_with_target(total, cost, parallelism, target));
        let undetermined_chunk = std::sync::atomic::AtomicUsize::new(usize::MAX);
        let verdicts: Vec<Result<Vec<bool>, QueryError>> =
            run_jobs(parallelism, chunks.len(), |index| {
                let (start, end) = chunks[index];
                let started = tuner.map(|_| Instant::now());
                let mut cursor = SelectionCursor::new(snapshot, &lists, start);
                let mut mine = Vec::new();
                let (mut saw_true, mut saw_false) = (false, false);
                let mut at = start;
                while at < end {
                    if undetermined_chunk.load(std::sync::atomic::Ordering::Relaxed) < index {
                        // An earlier chunk is undetermined: the replay stops inside it
                        // and never consults this chunk's verdicts.
                        return Ok(mine);
                    }
                    let verdict = {
                        let evaluator =
                            self.evaluator_for(snapshot, relevant, cursor.selection(), plan);
                        evaluator.eval_closed(&self.formula)?
                    };
                    mine.push(verdict);
                    match verdict {
                        true => saw_true = true,
                        false => saw_false = true,
                    }
                    if saw_true && saw_false {
                        // This chunk is undetermined on its own: the replay breaks at
                        // this verdict, so the rest of the chunk is irrelevant too.
                        undetermined_chunk.fetch_min(index, std::sync::atomic::Ordering::Relaxed);
                        return Ok(mine);
                    }
                    at += 1;
                    if at < end {
                        cursor.advance();
                    }
                }
                if let (Some(tuner), Some(started)) = (tuner, started) {
                    tuner.record_for(
                        self.fingerprint,
                        (end - start).saturating_mul(cost),
                        started.elapsed().as_nanos(),
                    );
                }
                Ok(mine)
            });
        let mut ordered = Vec::new();
        for chunk in verdicts {
            match chunk {
                Err(_) => return None,
                Ok(mine) => ordered.extend(mine),
            }
        }
        Some(ordered)
    }

    /// The enumeration-order [`ClosedProfile`] of a closed query: the size of the
    /// preferred-repair product plus the positions of the first `true` and first
    /// `false` verdicts, in the exact order the sequential fold visits selections.
    ///
    /// The walk stops as soon as both positions are known (everything after the later
    /// of the two can no longer change the profile), so the cost matches
    /// [`PreparedQuery::consistent_answer`]'s undetermined early exit on undetermined
    /// outcomes and the full enumeration otherwise. Results are not memoised — the
    /// caller (the scatter-gather coordinator's `PROFILE` surface) asks each shard
    /// once per merge.
    pub fn closed_profile(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
    ) -> Result<ClosedProfile, QueryError> {
        if !self.free.is_empty() {
            return Err(QueryError::FreeVariables { variables: self.free.clone() });
        }
        let relevant = self.relevant_relations(snapshot);
        snapshot.warm_relation_components(kind, &relevant, Parallelism::sequential());
        let Some(lists) = snapshot.selection_lists(kind, &relevant) else {
            return Ok(ClosedProfile { total: 0, first_true: None, first_false: None });
        };
        let total = product_size(&lists);
        let mut first_true = None;
        let mut first_false = None;
        if total > 0 {
            let mut cursor = SelectionCursor::new(snapshot, &lists, 0);
            let mut at = 0u128;
            loop {
                let verdict = {
                    let evaluator =
                        self.evaluator_for(snapshot, &relevant, cursor.selection(), None);
                    evaluator.eval_closed(&self.formula)?
                };
                match verdict {
                    true => first_true = first_true.or(Some(at)),
                    false => first_false = first_false.or(Some(at)),
                }
                if first_true.is_some() && first_false.is_some() {
                    break;
                }
                at += 1;
                if at >= total {
                    break;
                }
                cursor.advance();
            }
        }
        Ok(ClosedProfile { total, first_true, first_false })
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
    ///
    /// [`PhysicalPlan`]: pdqi_query::PhysicalPlan
    fn evaluator_for<'a>(
        &self,
        snapshot: &'a EngineSnapshot,
        relevant: &[usize],
        selection: &'a [TupleSet],
        plan: Option<&pdqi_query::PhysicalPlan>,
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

    /// The per-selection evaluation cost fed to adaptive chunking: the physical plan's
    /// estimate when one was costed, the uniform structural heuristic under the naive
    /// strategy. Either way the number only shapes the chunk split, never the answers.
    fn selection_cost(
        &self,
        snapshot: &EngineSnapshot,
        relevant: &[usize],
        lists: &[(usize, Arc<Vec<TupleSet>>)],
        plan: Option<&pdqi_query::PhysicalPlan>,
    ) -> u128 {
        match plan {
            Some(plan) => (plan.est_selection_cost as u128).max(1),
            None => snapshot.estimate_selection_cost(relevant, lists),
        }
    }

    /// The physical plan for this query on this snapshot: served from the snapshot's
    /// plan cache when this `(fingerprint, family)` was costed before (and the swap
    /// derivations carried it), costed fresh from the memo's cardinalities otherwise.
    /// `None` when the naive fixed strategy is forced (`PDQI_FORCE_NAIVE_PLAN=1` /
    /// [`pdqi_query::force_naive_plan`]).
    fn plan_for(
        &self,
        snapshot: &EngineSnapshot,
        kind: FamilyKind,
        relevant: &[usize],
        parallelism: Parallelism,
        tuner: Option<&ChunkTuner>,
    ) -> Option<Arc<pdqi_query::PhysicalPlan>> {
        if pdqi_query::naive_plan_forced() {
            pdqi_query::planner::note_naive();
            return None;
        }
        if let Some(entry) = snapshot.cached_plan(self.fingerprint, kind, &self.formula) {
            pdqi_query::planner::note_plan_cache_hit();
            return Some(Arc::clone(&entry.plan));
        }
        let inputs = self.planner_inputs(snapshot, kind, relevant, parallelism, tuner);
        let plan = pdqi_query::planner::plan(&self.formula, &inputs);
        let entry = snapshot.store_plan(self.fingerprint, kind, &self.formula, relevant, plan);
        Some(Arc::clone(&entry.plan))
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
        tuner: Option<&ChunkTuner>,
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
            target_chunk_cost: tuner
                .map_or(TARGET_CHUNK_COST, |t| t.target_chunk_cost_for(self.fingerprint))
                .try_into()
                .unwrap_or(u64::MAX),
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
        let mut out = match self.plan_for(snapshot, kind, &relevant, parallelism, None) {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

/// One fold step of the certain/possible accumulation. Intersection and union are
/// associative and commutative, so folding per-chunk and merging chunks in order is
/// bit-identical to the sequential left fold.
fn fold_rows(
    accumulated: Option<BTreeSet<Vec<Value>>>,
    rows: BTreeSet<Vec<Value>>,
    semantics: Semantics,
) -> BTreeSet<Vec<Value>> {
    match accumulated {
        None => rows,
        Some(previous) => match semantics {
            Semantics::Certain => previous.intersection(&rows).cloned().collect(),
            Semantics::Possible => previous.union(&rows).cloned().collect(),
        },
    }
}

/// The size of the cartesian repair product described by `lists`, saturating at
/// `u128::MAX` (an empty list set describes the single base selection).
fn product_size(lists: &[(usize, Arc<Vec<TupleSet>>)]) -> u128 {
    lists.iter().fold(1u128, |total, (_, choices)| total.saturating_mul(choices.len() as u128))
}

/// Ceiling on chunks per worker. More chunks give the atomic work index finer stealing
/// granularity on skewed products (early exits make chunk costs uneven even when
/// per-item cost is uniform), but each chunk pays one cursor setup; 16 bounds that
/// overhead while still letting a worker that drew cheap chunks pull many more.
const MAX_CHUNKS_PER_WORKER: u128 = 16;

/// Target estimated work per chunk, in tuple-evaluations (the cost unit of
/// [`EngineSnapshot`]'s selection-cost estimate). Products whose total estimated work is
/// below `workers × TARGET_CHUNK_COST` get fewer, larger chunks — a tiny product is not
/// worth 64 cursor setups — while heavy products saturate at the per-worker ceiling.
const TARGET_CHUNK_COST: u128 = 4096;

/// The number of chunks a repair product of `total` selections is split into, derived
/// from the **memoised per-component preferred-repair counts**: `total` is their
/// product and `cost_per_item` the estimated tuples per selection, so the division
/// balances estimated work rather than blindly cutting index ranges four per worker.
/// Clamped to `[workers, workers × MAX_CHUNKS_PER_WORKER]` (and never more than one
/// chunk per selection).
pub fn adaptive_chunk_count(total: u128, cost_per_item: u128, parallelism: Parallelism) -> u128 {
    adaptive_chunk_count_with_target(total, cost_per_item, parallelism, TARGET_CHUNK_COST)
}

/// [`adaptive_chunk_count`] with an explicit per-chunk work target (the knob a
/// [`ChunkTuner`] moves from measured chunk wall-clocks).
fn adaptive_chunk_count_with_target(
    total: u128,
    cost_per_item: u128,
    parallelism: Parallelism,
    target: u128,
) -> u128 {
    let workers = parallelism.thread_count() as u128;
    let work = total.saturating_mul(cost_per_item.max(1));
    let ideal = work / target.max(1);
    ideal.clamp(workers, workers.saturating_mul(MAX_CHUNKS_PER_WORKER)).min(total).max(1)
}

/// Wall-clock a chunk should take. The static [`TARGET_CHUNK_COST`] assumes one
/// tuple-evaluation costs roughly the same everywhere; measured chunk timings replace
/// that guess with the session's real cost, converging the chunk *duration* (the thing
/// scheduling actually cares about) to this target instead.
const TARGET_CHUNK_NANOS: u128 = 500_000;

/// Clamps on the tuned per-chunk work target: never below one cursor-setup's worth of
/// work, never so high that a heavy product degenerates to one chunk per worker.
const MIN_TARGET_CHUNK_COST: u64 = 64;
const MAX_TARGET_CHUNK_COST: u64 = 1 << 24;

/// Cap on per-query calibration cells a [`ChunkTuner`] retains. Past the cap a new
/// fingerprint still updates the aggregate counters but reads the static default — a
/// bounded footprint beats perfect calibration for the cache-busting tail.
const TUNER_QUERY_LIMIT: usize = 1024;

/// A [`ChunkTuner`]'s counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTunerStats {
    /// The aggregate per-chunk work target over every recorded chunk, in estimated
    /// tuple-evaluations (observability; chunk sizing reads the per-query targets).
    pub target_chunk_cost: u64,
    /// Fully-evaluated chunks whose wall-clock fed a target so far.
    pub samples: u64,
}

/// One EWMA calibration cell: a target and the number of samples that moved it.
#[derive(Debug)]
struct TunerCell {
    /// Current target, in estimated tuple-evaluations per chunk.
    target: AtomicU64,
    /// Number of recorded chunk timings.
    samples: AtomicU64,
}

impl TunerCell {
    fn new() -> Self {
        TunerCell { target: AtomicU64::new(TARGET_CHUNK_COST as u64), samples: AtomicU64::new(0) }
    }

    /// Records one fully-evaluated chunk: `work` estimated tuple-evaluations took
    /// `elapsed_nanos` of wall-clock. Moves the target an eighth of the way towards the
    /// work volume that would have taken `TARGET_CHUNK_NANOS`.
    fn record(&self, work: u128, elapsed_nanos: u128) {
        let ideal = work.saturating_mul(TARGET_CHUNK_NANOS) / elapsed_nanos.max(1);
        let ideal = ideal.clamp(MIN_TARGET_CHUNK_COST as u128, MAX_TARGET_CHUNK_COST as u128);
        let current = self.target.load(Ordering::Relaxed) as u128;
        let moved = (current * 7 + ideal) / 8;
        self.target.store(
            (moved as u64).clamp(MIN_TARGET_CHUNK_COST, MAX_TARGET_CHUNK_COST),
            Ordering::Relaxed,
        );
        self.samples.fetch_add(1, Ordering::Relaxed);
    }
}

/// Feedback from measured per-chunk wall-clock into the next execution's chunk sizing.
///
/// [`adaptive_chunk_count`] converts a repair product into chunks using a *static*
/// work-per-chunk target (`TARGET_CHUNK_COST`, 4096 tuple-evaluations). That guess is off
/// whenever the per-tuple evaluation cost differs from the assumed one — complex
/// formulas, wide tuples, cold caches. A `ChunkTuner` closes the loop for long-lived
/// sessions: every fully-evaluated chunk records its estimated work and measured
/// wall-clock, and an exponentially-weighted average moves the target so chunks
/// converge towards `TARGET_CHUNK_NANOS` (0.5 ms) of real time each. Early-exited chunks
/// (certain-empty cut-offs, undetermined closes) are not recorded — their timings
/// reflect the exit, not the work.
///
/// Calibration is **per prepared-query fingerprint**: every query reads and feeds its
/// own EWMA cell, so one pathological query (huge formula, cold columnar views) cannot
/// distort chunking for every other prepared query sharing the server's tuner. A
/// fingerprint without samples starts from the static default, and an aggregate cell
/// feeds [`ChunkTuner::stats`] for observability.
///
/// Tuning only changes how the product is *split*; every execution stays bit-identical
/// to the sequential path regardless of the chunk count. Share one tuner per session
/// (or per [`crate::BatchExecutor`]) — it is internally synchronised and updates are
/// deliberately racy-but-monotonic (a lost update costs one sample, never correctness).
#[derive(Debug)]
pub struct ChunkTuner {
    /// The aggregate cell: every recorded chunk moves it, regardless of fingerprint.
    aggregate: TunerCell,
    /// Per-fingerprint calibration cells, bounded by [`TUNER_QUERY_LIMIT`].
    per_query: std::sync::RwLock<std::collections::HashMap<u64, Arc<TunerCell>>>,
}

impl Default for ChunkTuner {
    fn default() -> Self {
        ChunkTuner::new()
    }
}

impl ChunkTuner {
    /// A tuner starting from the static `TARGET_CHUNK_COST` guess.
    pub fn new() -> Self {
        ChunkTuner {
            aggregate: TunerCell::new(),
            per_query: std::sync::RwLock::new(std::collections::HashMap::new()),
        }
    }

    /// A shared tuner, ready to hand to a session or executor.
    pub fn shared() -> Arc<Self> {
        Arc::new(ChunkTuner::new())
    }

    /// The aggregate per-chunk work target, in estimated tuple-evaluations. Chunk
    /// sizing reads [`ChunkTuner::target_chunk_cost_for`] instead; this is the
    /// observability view over every recorded chunk.
    pub fn target_chunk_cost(&self) -> u128 {
        self.aggregate.target.load(Ordering::Relaxed) as u128
    }

    /// The calibrated per-chunk work target for one query fingerprint: its own cell
    /// when that query's chunks have been measured before, the static default
    /// otherwise — never another query's measurements.
    pub fn target_chunk_cost_for(&self, fingerprint: u64) -> u128 {
        let cells = self.per_query.read().expect("tuner lock");
        match cells.get(&fingerprint) {
            Some(cell) if cell.samples.load(Ordering::Relaxed) > 0 => {
                cell.target.load(Ordering::Relaxed) as u128
            }
            _ => TARGET_CHUNK_COST,
        }
    }

    /// The aggregate counters at one instant.
    pub fn stats(&self) -> ChunkTunerStats {
        ChunkTunerStats {
            target_chunk_cost: self.aggregate.target.load(Ordering::Relaxed),
            samples: self.aggregate.samples.load(Ordering::Relaxed),
        }
    }

    /// Records one fully-evaluated chunk of the given query: `work` estimated
    /// tuple-evaluations took `elapsed_nanos` of wall-clock. Feeds the query's own
    /// cell (created on first sample, up to [`TUNER_QUERY_LIMIT`] queries) and the
    /// aggregate.
    fn record_for(&self, fingerprint: u64, work: u128, elapsed_nanos: u128) {
        if work == 0 {
            return;
        }
        let cell = {
            let cells = self.per_query.read().expect("tuner lock");
            cells.get(&fingerprint).cloned()
        };
        let cell = match cell {
            Some(cell) => Some(cell),
            None => {
                let mut cells = self.per_query.write().expect("tuner lock");
                if cells.len() < TUNER_QUERY_LIMIT || cells.contains_key(&fingerprint) {
                    Some(Arc::clone(
                        cells.entry(fingerprint).or_insert_with(|| Arc::new(TunerCell::new())),
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(cell) = cell {
            cell.record(work, elapsed_nanos);
        }
        self.aggregate.record(work, elapsed_nanos);
    }
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
/// selections in the exact order of the sequential recursion (the last list varies
/// fastest — row-major). `advance` touches only the components whose digit changed, so
/// stepping is cheap even with many components.
struct SelectionCursor<'a> {
    lists: &'a [(usize, Arc<Vec<TupleSet>>)],
    digits: Vec<usize>,
    current: Vec<TupleSet>,
}

impl<'a> SelectionCursor<'a> {
    /// A cursor positioned on the `start`-th selection (row-major index).
    fn new(
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

    /// Steps to the next selection in enumeration order (wraps at the end). Distinct
    /// components are vertex-disjoint, so swapping one component's choice in and out
    /// never disturbs the others.
    fn advance(&mut self) {
        for index in (0..self.lists.len()).rev() {
            let (rel, choices) = &self.lists[index];
            self.current[*rel].remove_all(&choices[self.digits[index]]);
            if self.digits[index] + 1 < choices.len() {
                self.digits[index] += 1;
                self.current[*rel].union_with(&choices[self.digits[index]]);
                return;
            }
            self.digits[index] = 0;
            self.current[*rel].union_with(&choices[0]);
        }
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
        use crate::{BatchExecutor, BatchRequest, Parallelism};
        let ctx = example1();
        let snapshot = snapshot_of(&ctx);
        let open = Arc::new(PreparedQuery::parse("EXISTS d,s,r . Mgr(x,d,s,r)").unwrap());
        let closed = Arc::new(PreparedQuery::parse(Q1).unwrap());
        let mut requests = Vec::new();
        for kind in FamilyKind::ALL {
            requests.push(BatchRequest::execute(Arc::clone(&open), kind, Semantics::Certain));
            requests.push(BatchRequest::execute(Arc::clone(&open), kind, Semantics::Possible));
            requests.push(BatchRequest::consistent_answer(Arc::clone(&closed), kind));
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
    fn adaptive_chunk_counts_scale_with_estimated_work() {
        let four = crate::Parallelism::threads(4);
        // Tiny products collapse to one chunk per selection.
        assert_eq!(adaptive_chunk_count(3, 10, four), 3);
        // Small-but-parallel products stay at one chunk per worker.
        assert_eq!(adaptive_chunk_count(64, 1, four), 4);
        // Heavier work grows the chunk count between the clamps...
        let mid = adaptive_chunk_count(4096, 12, four);
        assert!(mid > 4 && mid < 64, "mid-size product got {mid} chunks");
        // ...and heavy products saturate at MAX_CHUNKS_PER_WORKER per worker.
        assert_eq!(adaptive_chunk_count(1 << 80, 100, four), 64);
        // Saturated work products do not overflow.
        assert_eq!(adaptive_chunk_count(u128::MAX - 1, u128::MAX, four), 64);
    }

    #[test]
    fn chunk_tuner_moves_the_target_with_measured_costs() {
        let tuner = ChunkTuner::new();
        let fp = 0xfeed;
        assert_eq!(tuner.stats(), ChunkTunerStats { target_chunk_cost: 4096, samples: 0 });
        assert_eq!(tuner.target_chunk_cost_for(fp), 4096);
        // Chunks that finish far faster than the wall-clock target pull the target up...
        for _ in 0..64 {
            tuner.record_for(fp, 4096, 1_000); // 4096 evals in 1µs — dirt cheap
        }
        let fast = tuner.stats();
        assert!(fast.target_chunk_cost > 4096, "cheap chunks must grow, got {fast:?}");
        assert_eq!(fast.samples, 64);
        assert!(tuner.target_chunk_cost_for(fp) > 4096);
        // ...and chunks that blow through it pull the target down, within the clamps.
        for _ in 0..128 {
            tuner.record_for(fp, 4096, 4_000_000_000); // 4096 evals in 4s — very expensive
        }
        let slow = tuner.stats();
        assert!(slow.target_chunk_cost < fast.target_chunk_cost, "{slow:?}");
        assert!(slow.target_chunk_cost >= MIN_TARGET_CHUNK_COST);
        // Degenerate samples never move the target or the counter.
        let before = tuner.stats();
        tuner.record_for(fp, 0, 12345);
        assert_eq!(tuner.stats(), before);
    }

    #[test]
    fn chunk_tuner_calibration_is_per_fingerprint() {
        // The historical bug: one pathological query dragged the process-global EWMA
        // down for every prepared query sharing the tuner. Calibration cells are now
        // keyed by fingerprint, so a distorted query leaves its neighbours on their
        // own (or the default) target.
        let tuner = ChunkTuner::new();
        let (pathological, innocent) = (0xbad, 0x600d);
        for _ in 0..128 {
            tuner.record_for(pathological, 4096, 4_000_000_000);
        }
        assert!(tuner.target_chunk_cost_for(pathological) < 4096);
        assert_eq!(
            tuner.target_chunk_cost_for(innocent),
            4096,
            "an unsampled query must read the static default, not its neighbour's EWMA"
        );
        for _ in 0..64 {
            tuner.record_for(innocent, 4096, 1_000);
        }
        assert!(tuner.target_chunk_cost_for(innocent) > 4096);
        assert!(tuner.target_chunk_cost_for(pathological) < 4096, "still isolated");
    }

    #[test]
    fn tuned_executions_feed_the_tuner_and_stay_bit_identical() {
        let ctx = example4(9);
        let snapshot = snapshot_of(&ctx);
        let tuner = ChunkTuner::new();
        let query = PreparedQuery::parse("EXISTS y . R(x,y)").unwrap();
        let tuned: Vec<_> = query
            .execute_tuned(
                &snapshot.with_cleared_memo(),
                FamilyKind::Rep,
                Semantics::Possible,
                crate::Parallelism::threads(2),
                &tuner,
            )
            .unwrap()
            .collect();
        let sequential: Vec<_> = query
            .execute(&snapshot.with_cleared_memo(), FamilyKind::Rep, Semantics::Possible)
            .unwrap()
            .collect();
        assert_eq!(tuned, sequential);
        let stats = tuner.stats();
        assert!(stats.samples > 0, "fully-evaluated chunks must be recorded: {stats:?}");
        assert_ne!(stats.target_chunk_cost, 4096, "measured costs must move the target");
        // Closed executions feed the same loop.
        let closed = PreparedQuery::parse("EXISTS x,y . R(x,y) AND x > 100").unwrap();
        let before = tuner.stats().samples;
        let outcome = closed
            .consistent_answer_tuned(
                &snapshot.with_cleared_memo(),
                FamilyKind::Rep,
                crate::Parallelism::threads(2),
                &tuner,
            )
            .unwrap();
        assert!(outcome.certainly_false);
        assert!(tuner.stats().samples > before);
    }

    #[test]
    fn single_request_batches_use_the_pool_and_the_shared_tuner() {
        use crate::{BatchExecutor, BatchRequest, Parallelism};
        let ctx = example4(9);
        let snapshot = snapshot_of(&ctx);
        let tuner = ChunkTuner::shared();
        let executor = BatchExecutor::with_tuner(
            snapshot.with_cleared_memo(),
            Parallelism::threads(2),
            Arc::clone(&tuner),
        );
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
        assert!(tuner.stats().samples > 0, "single-request batches must chunk and record");
        assert!(Arc::ptr_eq(executor.tuner(), &tuner));
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
