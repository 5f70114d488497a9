//! The parallel execution subsystem: a scoped-thread worker pool and the
//! [`BatchExecutor`] for multi-query serving.
//!
//! The paper's tractability results rest on conflict graphs factorising into independent
//! connected components, and the snapshot architecture materialises exactly that
//! structure: per-component preferred-repair enumeration is pure (it reads only the
//! immutable conflict graph and priority), and the component memo behind
//! [`EngineSnapshot`] is already synchronised. Parallelism is therefore an *execution
//! strategy*, never a semantics change — every parallel entry point produces results
//! bit-identical to its sequential counterpart:
//!
//! * [`EngineSnapshot::warm_components`](crate::EngineSnapshot::warm_components) fans
//!   per-component enumeration out across workers (components are independent jobs and
//!   each component's preferred repairs are a deterministic function of the snapshot);
//! * [`PreparedQuery::execute_with`](crate::PreparedQuery::execute_with) and
//!   [`PreparedQuery::closed_profile_with`](crate::PreparedQuery::closed_profile_with)
//!   (behind every closed outcome) split the cartesian repair product into contiguous
//!   chunks, fold each chunk on a worker, and merge the folds in chunk order — set
//!   union/intersection make the merge order-insensitive, and closed profiles
//!   concatenate in enumeration order so even the `examined` counter matches the
//!   sequential path. A chunk is cut short only
//!   when an earlier chunk already settled the answer, and an evaluation error re-runs
//!   the walk as one chunk, so errors match the sequential path too;
//! * [`BatchExecutor`] answers many prepared queries against one shared snapshot
//!   concurrently (the multi-user serving shape), one query per worker at a time, and
//!   splits a lone query's repair product across the pool;
//! * [`EngineBuilder::build`](crate::EngineBuilder::build) fans conflict-graph shard
//!   scans and relation assembly out per `(relation, FD)` and per relation, and
//!   [`EngineSnapshot::derive`](crate::EngineSnapshot::derive) re-enumerates the
//!   invalidated memo entries across workers (see [`crate::change`]).
//!
//! The pool is dependency-free: plain [`std::thread::scope`] workers pulling job indices
//! from an atomic counter. Nothing here allocates threads when
//! [`Parallelism::sequential`] is in effect, so single-threaded callers pay nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pdqi_query::QueryError;

use crate::cqa::CqaOutcome;
use crate::families::FamilyKind;
use crate::prepared::{AnswerSet, ClosedProfile, PreparedQuery, Semantics};
use crate::snapshot::EngineSnapshot;

/// How many worker threads an operation may use.
///
/// A degree of `1` ([`Parallelism::sequential`], the default) runs everything inline on
/// the calling thread; higher degrees fan independent jobs out over scoped threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

/// Hard ceiling on the worker count. Repair work is CPU-bound, so degrees beyond the
/// hardware thread count only add scheduling overhead — and an unbounded user-supplied
/// degree (`--threads 100000`) would make the scoped spawn abort the process when the
/// OS refuses a thread.
///
/// This constant is the **single source of truth** for the clamp: front ends (the CLI's
/// `--threads` / `.threads`) must report it rather than hard-coding their own limit, so
/// the message a user sees can never drift from what the pool actually does.
pub const MAX_THREADS: usize = 256;

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}

impl Parallelism {
    /// Run everything on the calling thread (the default).
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// Use up to `threads` workers (clamped to `1..=`[`MAX_THREADS`]).
    pub fn threads(threads: usize) -> Self {
        Parallelism { threads: threads.clamp(1, MAX_THREADS) }
    }

    /// Use one worker per hardware thread, as reported by
    /// [`std::thread::available_parallelism`] (falling back to 1).
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Parallelism::threads(threads)
    }

    /// The configured degree of parallelism (always at least 1).
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Whether work runs inline on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Workers actually worth spawning for `jobs` independent jobs.
    pub(crate) fn workers_for(&self, jobs: usize) -> usize {
        self.threads.min(jobs).max(1)
    }
}

/// Runs `jobs` independent jobs across the configured workers and returns their results
/// **in job order**, regardless of which worker finished which job when.
///
/// Jobs are pulled from a shared atomic counter (dynamic load balancing: a worker that
/// drew a cheap job immediately pulls the next one). With a sequential configuration, or
/// with fewer than two jobs, everything runs inline. A panicking job propagates its
/// panic to the caller.
pub(crate) fn run_jobs<T, F>(parallelism: Parallelism, jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = parallelism.workers_for(jobs);
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs {
                            break;
                        }
                        mine.push((index, run(index)));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mine) => collected.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    collected.sort_unstable_by_key(|&(index, _)| index);
    collected.into_iter().map(|(_, value)| value).collect()
}

/// One request of a [`BatchExecutor`] batch.
#[derive(Debug, Clone)]
pub enum BatchRequest {
    /// Evaluate an open (or closed) query under the given family and semantics.
    Execute {
        /// The prepared query (shared, so batches can repeat queries cheaply).
        query: Arc<PreparedQuery>,
        /// The family of preferred repairs to quantify over.
        family: FamilyKind,
        /// Certain or possible answers.
        semantics: Semantics,
    },
    /// Compute the preferred consistent answer to a closed query.
    ConsistentAnswer {
        /// The prepared (closed) query.
        query: Arc<PreparedQuery>,
        /// The family of preferred repairs to quantify over.
        family: FamilyKind,
    },
    /// Compute the enumeration-order [`ClosedProfile`] of a closed query.
    Profile {
        /// The prepared (closed) query.
        query: Arc<PreparedQuery>,
        /// The family of preferred repairs to quantify over.
        family: FamilyKind,
    },
}

impl BatchRequest {
    /// Convenience constructor for [`BatchRequest::Execute`].
    pub fn execute(query: Arc<PreparedQuery>, family: FamilyKind, semantics: Semantics) -> Self {
        BatchRequest::Execute { query, family, semantics }
    }

    /// Convenience constructor for [`BatchRequest::ConsistentAnswer`].
    pub fn consistent_answer(query: Arc<PreparedQuery>, family: FamilyKind) -> Self {
        BatchRequest::ConsistentAnswer { query, family }
    }

    /// Convenience constructor for [`BatchRequest::Profile`].
    pub fn profile(query: Arc<PreparedQuery>, family: FamilyKind) -> Self {
        BatchRequest::Profile { query, family }
    }

    /// Answers this request on `snapshot` with `parallelism` workers.
    fn answer(
        &self,
        snapshot: &EngineSnapshot,
        parallelism: Parallelism,
    ) -> Result<BatchResponse, QueryError> {
        match self {
            BatchRequest::Execute { query, family, semantics } => query
                .execute_with(snapshot, *family, *semantics, parallelism)
                .map(BatchResponse::Rows),
            BatchRequest::ConsistentAnswer { query, family } => query
                .consistent_answer_with(snapshot, *family, parallelism)
                .map(BatchResponse::Outcome),
            BatchRequest::Profile { query, family } => query
                .closed_profile_with(snapshot, *family, parallelism)
                .map(BatchResponse::Profile),
        }
    }
}

/// One successful batch result, mirroring the request shape.
#[derive(Debug, Clone)]
pub enum BatchResponse {
    /// Result of a [`BatchRequest::Execute`] request.
    Rows(AnswerSet),
    /// Result of a [`BatchRequest::ConsistentAnswer`] request.
    Outcome(CqaOutcome),
    /// Result of a [`BatchRequest::Profile`] request.
    Profile(ClosedProfile),
}

impl BatchResponse {
    /// The answer set, when the request was an [`BatchRequest::Execute`].
    pub fn rows(&self) -> Option<&AnswerSet> {
        match self {
            BatchResponse::Rows(answers) => Some(answers),
            _ => None,
        }
    }

    /// The closed outcome, when the request was a [`BatchRequest::ConsistentAnswer`].
    pub fn outcome(&self) -> Option<CqaOutcome> {
        match self {
            BatchResponse::Outcome(outcome) => Some(*outcome),
            _ => None,
        }
    }
}

/// Answers many prepared queries against one immutable snapshot concurrently — the
/// multi-user serving shape: one snapshot, many sessions, interleaved queries. Open
/// answers, closed outcomes and closed profiles are all requests of one batch.
///
/// Each request of a multi-request batch is answered on one worker (queries inside such
/// a batch do not split further), so concurrent requests share the snapshot's component
/// and answer memos: the first query touching a component enumerates it, every later
/// query on any worker reuses it, and a closed outcome and a profile of the same query
/// share one memo entry.
/// Responses come back **in request order**, and every response is bit-identical to what
/// [`PreparedQuery::execute`] / [`PreparedQuery::consistent_answer`] /
/// [`PreparedQuery::closed_profile`] would have produced sequentially.
///
/// ```
/// use std::sync::Arc;
/// use pdqi_core::{
///     BatchExecutor, BatchRequest, EngineBuilder, FamilyKind, Parallelism, PreparedQuery,
///     Semantics,
/// };
/// # use pdqi_relation::{RelationInstance, RelationSchema, Value, ValueType};
/// # use pdqi_constraints::FdSet;
/// # let schema = Arc::new(RelationSchema::from_pairs(
/// #     "R", &[("A", ValueType::Int), ("B", ValueType::Int)]).unwrap());
/// # let instance = RelationInstance::from_rows(Arc::clone(&schema), vec![
/// #     vec![Value::int(1), Value::int(1)], vec![Value::int(1), Value::int(2)],
/// # ]).unwrap();
/// # let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
/// let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
/// let query = Arc::new(PreparedQuery::parse("EXISTS b . R(x,b)").unwrap());
/// let executor = BatchExecutor::with_parallelism(snapshot, Parallelism::threads(4));
/// let requests = vec![
///     BatchRequest::execute(Arc::clone(&query), FamilyKind::Rep, Semantics::Certain),
///     BatchRequest::execute(query, FamilyKind::Rep, Semantics::Possible),
/// ];
/// let responses = executor.run(&requests);
/// assert_eq!(responses.len(), 2);
/// assert!(responses.iter().all(Result::is_ok));
/// ```
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    snapshot: EngineSnapshot,
    parallelism: Parallelism,
}

impl BatchExecutor {
    /// An executor over `snapshot` with an explicit degree of parallelism.
    pub fn with_parallelism(snapshot: EngineSnapshot, parallelism: Parallelism) -> Self {
        BatchExecutor { snapshot, parallelism }
    }

    /// Answers every request, returning responses in request order.
    ///
    /// Multi-request batches run one request per worker (requests are the parallel
    /// unit, sharing the snapshot's memos). A **single-request** batch instead splits
    /// its repair product into chunks across the whole pool — otherwise a lone `EXEC`
    /// would leave every other worker idle. Either way each response is bit-identical to
    /// the sequential answer on the same snapshot.
    pub fn run(&self, requests: &[BatchRequest]) -> Vec<Result<BatchResponse, QueryError>> {
        let per_request =
            if requests.len() == 1 { self.parallelism } else { Parallelism::sequential() };
        run_jobs(self.parallelism, requests.len(), |index| {
            requests[index].answer(&self.snapshot, per_request)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_clamps_and_reports() {
        assert!(Parallelism::sequential().is_sequential());
        assert_eq!(Parallelism::threads(0).thread_count(), 1);
        assert_eq!(Parallelism::threads(8).thread_count(), 8);
        // Pathological degrees are clamped instead of spawning until the OS refuses.
        assert_eq!(Parallelism::threads(100_000).thread_count(), MAX_THREADS);
        assert_eq!(Parallelism::threads(usize::MAX).thread_count(), MAX_THREADS);
        assert!(Parallelism::auto().thread_count() >= 1);
        assert_eq!(Parallelism::threads(8).workers_for(3), 3);
        assert_eq!(Parallelism::threads(2).workers_for(100), 2);
        assert_eq!(Parallelism::threads(4).workers_for(0), 1);
        assert_eq!(Parallelism::default(), Parallelism::sequential());
    }

    #[test]
    fn run_jobs_preserves_job_order() {
        for parallelism in [Parallelism::sequential(), Parallelism::threads(4)] {
            let doubled = run_jobs(parallelism, 64, |i| i * 2);
            assert_eq!(doubled, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = run_jobs(Parallelism::threads(4), 0, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn run_jobs_runs_every_job_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_jobs(Parallelism::threads(8), 100, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
