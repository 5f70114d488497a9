//! The four workloads and what they share: the operation loop contract, outcome
//! collection, counters and answer checks.

pub mod adhoc;
pub mod churn;
pub mod hot_reads;
pub mod scatter;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdqi_core::{EngineSnapshot, PreparedQuery, SnapshotRegistry, SwapEvent, SwapObserver};
use pdqi_server::{Client, ClientError, ExecOutcome};

use crate::data::{Read, TABLE};
use crate::layers::LayerInput;
use crate::measure::{Report, Samples};
use crate::trace::Tracer;

/// One workload: a set-up, a fixed seeded operation sequence cut into rounds, and a
/// final check. Rounds leave the served instance as they found it, so running more
/// rounds measures more of the same work, never different work.
pub trait Workload: Sized {
    /// Rounds the traced run replays (a fixed block, so counters can repeat exactly).
    const TRACE_ROUNDS: u64;

    /// Builds and publishes the instance, starts serving, connects, prepares and
    /// warms up. With a tracer, the set-up phases are recorded as spans.
    fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Result<Self, String>;
    /// Runs round `round` of the operation sequence. With a tracer, every wire
    /// operation is a root span and the matching in-process layer calls its children.
    fn round(
        &mut self,
        round: u64,
        out: &mut Outcome,
        report: &mut Report,
        tracer: Option<&mut Tracer>,
    );
    /// Ends the operation sequence and runs the checks that need it to be over.
    fn finish(&mut self, out: &mut Outcome, report: &mut Report);
    /// The workload's counters at this instant.
    fn counters(&mut self) -> Counters;
    /// What the in-process layer probes run on.
    fn layer_input(&self) -> LayerInput;
    fn shutdown(self);
}

/// Samples and counts of one run.
#[derive(Default)]
pub struct Outcome {
    pub ops: u64,
    pub reads: Samples,
    pub writes: Samples,
    pub pushes: Samples,
    /// Push arrival minus write acknowledgement, per write.
    pub poll_waits: Samples,
    /// Coordinator round trip minus the slowest direct-to-shard round trip.
    pub coord_overheads: Vec<f64>,
}

/// Counter readings. The memo, planner, subscription-execution and write-batching
/// counts depend only on the operation sequence and must repeat exactly; the rest
/// depend on timing and are only reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub answer_hits: u64,
    pub answer_misses: u64,
    pub component_hits: u64,
    pub component_misses: u64,
    pub planned: u64,
    pub plan_cache_hits: u64,
    pub vectorized: u64,
    pub scalar: u64,
    pub sub_executions: u64,
    pub sub_skipped: u64,
    pub sub_lagged: u64,
    pub folded_swaps: u64,
    pub flushes: u64,
    pub write_frames: u64,
    pub write_batches: u64,
}

impl Counters {
    pub fn since(&self, before: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            answer_hits: d(self.answer_hits, before.answer_hits),
            answer_misses: d(self.answer_misses, before.answer_misses),
            component_hits: d(self.component_hits, before.component_hits),
            component_misses: d(self.component_misses, before.component_misses),
            planned: d(self.planned, before.planned),
            plan_cache_hits: d(self.plan_cache_hits, before.plan_cache_hits),
            vectorized: d(self.vectorized, before.vectorized),
            scalar: d(self.scalar, before.scalar),
            sub_executions: d(self.sub_executions, before.sub_executions),
            sub_skipped: d(self.sub_skipped, before.sub_skipped),
            sub_lagged: d(self.sub_lagged, before.sub_lagged),
            folded_swaps: d(self.folded_swaps, before.folded_swaps),
            flushes: d(self.flushes, before.flushes),
            write_frames: d(self.write_frames, before.write_frames),
            write_batches: d(self.write_batches, before.write_batches),
        }
    }

    /// The timing-independent counts, which two same-seed replays must reproduce.
    pub fn checked(&self) -> [u64; 10] {
        [
            self.answer_hits,
            self.answer_misses,
            self.component_hits,
            self.component_misses,
            self.planned,
            self.plan_cache_hits,
            self.sub_executions,
            self.sub_skipped,
            self.write_frames,
            self.write_batches,
        ]
    }

    /// Adds the process-wide planner and evaluation-path counters.
    pub fn with_process_counters(mut self) -> Counters {
        let plans = pdqi_core::plan_stats();
        let eval = pdqi_query::eval_path_stats();
        self.planned += plans.planned;
        self.plan_cache_hits += plans.cache_hits;
        self.vectorized += eval.vectorized;
        self.scalar += eval.scalar;
        self
    }

    /// Adds the `subscriptions`, `windows` and `writes` lines of a server's `STATS`.
    pub fn with_server_stats(mut self, stats: &str) -> Counters {
        self.sub_executions += tagged(stats, "subscriptions ", "executions");
        self.sub_skipped += tagged(stats, "subscriptions ", "skipped");
        self.sub_lagged += tagged(stats, "subscriptions ", "lagged");
        self.folded_swaps += tagged(stats, "windows ", "folded_swaps");
        self.flushes += tagged(stats, "windows ", "flushes");
        self.write_frames += tagged(stats, "writes ", "frames");
        self.write_batches += tagged(stats, "writes ", "batches");
        self
    }
}

/// `key=<n>` on the `STATS` line starting with `prefix` (0 when absent).
fn tagged(stats: &str, prefix: &str, key: &str) -> u64 {
    let token = format!("{key}=");
    stats
        .lines()
        .find(|line| line.starts_with(prefix))
        .and_then(|line| line.split_whitespace().find_map(|t| t.strip_prefix(token.as_str())))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Sums the memo counters of every snapshot a registry serves from attachment on
/// (each derived snapshot starts fresh counters). A retired snapshot's counters are
/// final once it is swapped out: this benchmark's reads and writes never overlap.
pub struct MemoWatch {
    state: Mutex<(Counters, Arc<EngineSnapshot>)>,
}

impl SwapObserver for MemoWatch {
    fn on_swap(&self, event: &SwapEvent<'_>) {
        let mut state = self.state.lock().expect("memo watch");
        state.0 = add_memo(state.0, &state.1);
        state.1 = Arc::clone(event.snapshot);
    }
}

impl MemoWatch {
    pub fn attach(registry: &SnapshotRegistry) -> Arc<MemoWatch> {
        let lease = registry.read(TABLE).expect("table is published");
        let watch = Arc::new(MemoWatch {
            state: Mutex::new((Counters::default(), Arc::clone(lease.snapshot()))),
        });
        registry.register_observer(Arc::clone(&watch) as Arc<dyn SwapObserver>);
        watch
    }

    pub fn add_to(&self, counters: Counters) -> Counters {
        let state = self.state.lock().expect("memo watch");
        let retired = state.0;
        let mut sum = add_memo(counters, &state.1);
        sum.answer_hits += retired.answer_hits;
        sum.answer_misses += retired.answer_misses;
        sum.component_hits += retired.component_hits;
        sum.component_misses += retired.component_misses;
        sum
    }
}

fn add_memo(mut counters: Counters, snapshot: &EngineSnapshot) -> Counters {
    let memo = snapshot.memo_stats();
    counters.answer_hits += memo.answer_hits;
    counters.answer_misses += memo.answer_misses;
    counters.component_hits += memo.component_hits;
    counters.component_misses += memo.component_misses;
    counters
}

/// The answer a server must give for `read`, computed in-process.
pub fn expected(snapshot: &EngineSnapshot, read: &Read) -> Result<ExecOutcome, String> {
    let query = PreparedQuery::parse(&read.text).map_err(|e| format!("{}: {e}", read.text))?;
    match read.mode.semantics() {
        Some(semantics) => {
            let answers =
                query.execute(snapshot, read.family, semantics).map_err(|e| e.to_string())?;
            Ok(ExecOutcome::Rows {
                columns: answers.columns().to_vec(),
                rows: answers
                    .rows()
                    .iter()
                    .map(|row| row.iter().map(|v| v.to_string()).collect())
                    .collect(),
            })
        }
        None => {
            let outcome =
                query.consistent_answer(snapshot, read.family).map_err(|e| e.to_string())?;
            let verdict = if outcome.certainly_true {
                "true"
            } else if outcome.certainly_false {
                "false"
            } else {
                "undetermined"
            };
            Ok(ExecOutcome::Outcome {
                verdict: verdict.to_string(),
                examined: outcome.examined as u64,
            })
        }
    }
}

/// Sends one `EXEC`, timing the round trip. A client error or `ERR` is a failure.
pub fn timed_exec(
    client: &mut Client,
    read: &Read,
    report: &mut Report,
) -> Option<(ExecOutcome, Duration)> {
    let start = Instant::now();
    let result = client.exec(&read.id, read.family, read.mode);
    let elapsed = start.elapsed();
    match result {
        Ok((outcome, _)) => Some((outcome, elapsed)),
        Err(e) => {
            report.fail(format!("EXEC {} {}: {}", read.id, read.family.label(), describe(&e)));
            None
        }
    }
}

pub fn describe(error: &ClientError) -> String {
    match error {
        ClientError::Server(message) => format!("ERR {message}"),
        other => other.to_string(),
    }
}

/// Compares a wire answer with the expected one; a mismatch is a failure.
pub fn check(report: &mut Report, what: &str, got: &ExecOutcome, want: &ExecOutcome) {
    if got != want {
        report.fail(format!(
            "{what}: wire answer {} differs from in-process {}",
            brief(got),
            brief(want)
        ));
    }
}

fn brief(outcome: &ExecOutcome) -> String {
    match outcome {
        ExecOutcome::Rows { rows, .. } => format!("rows({})", rows.len()),
        other => format!("{other:?}"),
    }
}

/// Times the set-up phase `name` as a span when tracing.
pub fn phase<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.time(name, f),
        None => f(),
    }
}
