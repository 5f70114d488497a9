//! `churn`: two connections. The writer sends one-row `MUTATE` inserts and deletes
//! of conflicting rows, a `SET-PRIORITY` over base chain edges every twentieth write,
//! and after every write one `EXEC` from a recurring pool that includes L-Rep and
//! S-Rep. The subscriber holds a per-generation subscription whose answer every write
//! changes and an `EVERY 4` subscription on the same query, and reads their pushes.
//!
//! Push latency is per-write freshness: from sending the write to the arrival of the
//! first pushed frame (`DELTA` or `LAGGED`) of the per-generation subscription whose
//! generation is at least the write's.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdqi_core::{FamilyKind, Semantics};
use pdqi_server::{Client, ExecMode, ExecOutcome, PushEvent, ReportSpec, ServerHandle};

use super::hot_reads::{start, traced_read};
use super::{describe, timed_exec, Counters, MemoWatch, Outcome, Workload};
use crate::data::{recurring_reads, Dataset, Read, Shape, HOT_ZONE_QUERY, TABLE};
use crate::layers::LayerInput;
use crate::measure::Report;
use crate::trace::Tracer;

/// A small relation: every write re-enumerates the touched component for each
/// memoised family, and L-Rep/S-Rep enumeration scans every tuple of the relation.
const SHAPE: Shape = Shape { chains: 4, chain_len: 4, filler: 1_000 };
const WRITES_PER_ROUND: usize = 40;
/// Writes that are `SET-PRIORITY` (one in twenty), flipping the toggle edge and back.
const FLIPS: [usize; 2] = [10, 30];
const EVERY: u64 = 4;
/// How long the subscriber keeps reading after the last write's push arrived, so a
/// final `EVERY` flush gets delivered (two idle polls of the server).
const SETTLE: Duration = Duration::from_millis(150);

enum Write {
    Insert(Vec<String>),
    Delete(Vec<String>),
    Priority(Vec<(u32, u32)>),
}

struct Pushed {
    at: Instant,
    sub: u64,
    generation: u64,
}

/// What the subscriber thread hands back when it stops.
struct Subscribed {
    per_generation: u64,
    pushed: Vec<Pushed>,
    problems: Vec<String>,
}

pub struct Churn {
    data: Dataset,
    server: ServerHandle,
    client: Client,
    reads: Vec<Read>,
    plan: Vec<Write>,
    /// Per write: sent, acknowledged, generation.
    log: Vec<(Instant, Instant, u64)>,
    stop: Arc<Mutex<Option<u64>>>,
    subscriber: Option<JoinHandle<Subscribed>>,
    watch: Arc<MemoWatch>,
}

/// One round of writes. Inserted rows conflict with a chain tuple and are deleted
/// later in the round; the toggle flips twice. Base rows are never deleted, so their
/// tuple ids, which `SET-PRIORITY` names, stay valid, and every round starts from and
/// returns to the same instance and priority. Inserts attach to the chain tuples in
/// turn, so every seed derives components of the same sizes.
fn plan(data: &Dataset) -> Vec<Write> {
    let anchors = data.chain_tuples();
    let inserts = (WRITES_PER_ROUND - FLIPS.len()) / 2;
    let (mut live, mut inserted, mut flipped) = (VecDeque::new(), 0, false);
    let mut plan = Vec::with_capacity(WRITES_PER_ROUND);
    for index in 0..WRITES_PER_ROUND {
        if FLIPS.contains(&index) {
            flipped = !flipped;
            let pairs = data.priority(flipped).iter().map(|&(w, l)| (w.0, l.0)).collect();
            plan.push(Write::Priority(pairs));
        } else if inserted < inserts && live.len() < 3 {
            let anchor = anchors[inserted % anchors.len()];
            let row: Vec<String> =
                data.conflicting_row(anchor, index as i64).iter().map(|v| v.to_string()).collect();
            live.push_back(row.clone());
            plan.push(Write::Insert(row));
            inserted += 1;
        } else {
            plan.push(Write::Delete(live.pop_front().expect("a live inserted row")));
        }
    }
    assert!(live.is_empty() && !flipped, "a round returns to the base instance");
    plan
}

/// The subscriber connection: subscribes, then records every pushed frame until told
/// the final generation; then checks each subscription's folded stream against an
/// `EXEC` at that generation.
fn subscriber(
    mut client: Client,
    subscribed_at: u64,
    subs: [(u64, FamilyKind, BTreeSet<Vec<String>>); 2],
    stop: Arc<Mutex<Option<u64>>>,
) -> Subscribed {
    let [(per_generation, ..), _] = &subs;
    let per_generation = *per_generation;
    let mut folded = subs.clone();
    let (mut pushed, mut problems) = (Vec::new(), Vec::new());
    let mut reached: Option<Instant> = None;
    let mut last_generation = subscribed_at;
    let mut waiting_since: Option<Instant> = None;
    loop {
        match client.wait_event(Duration::from_millis(50)) {
            Ok(Some(event)) => {
                let at = Instant::now();
                let (sub, generation) = match &event {
                    PushEvent::Delta { sub, generation, .. }
                    | PushEvent::Lagged { sub, generation, .. } => (*sub, *generation),
                };
                pushed.push(Pushed { at, sub, generation });
                if sub == per_generation {
                    last_generation = generation;
                }
                if let Some((_, _, answer)) = folded.iter_mut().find(|(id, ..)| *id == sub) {
                    match event {
                        PushEvent::Delta { added, removed, .. } => {
                            for row in removed {
                                answer.remove(&row);
                            }
                            answer.extend(added);
                        }
                        PushEvent::Lagged { rows, .. } => *answer = rows.into_iter().collect(),
                    }
                }
            }
            Ok(None) => {}
            Err(e) => {
                problems.push(format!("subscriber connection: {}", describe(&e)));
                break;
            }
        }
        let Some(final_generation) = *stop.lock().expect("stop signal") else { continue };
        let since = *waiting_since.get_or_insert_with(Instant::now);
        if last_generation >= final_generation {
            if reached.get_or_insert_with(Instant::now).elapsed() >= SETTLE {
                break;
            }
        } else if since.elapsed() > Duration::from_secs(10) {
            problems.push(format!(
                "no push reached generation {final_generation} (last {last_generation})"
            ));
            break;
        }
    }
    let final_generation = stop.lock().expect("stop signal").unwrap_or(0);
    for (sub, family, answer) in &folded {
        match client.exec("hot", *family, ExecMode::Possible) {
            Ok((ExecOutcome::Rows { rows, .. }, generation)) => {
                let rows: BTreeSet<Vec<String>> = rows.into_iter().collect();
                if generation != final_generation {
                    problems.push(format!(
                        "check EXEC ran at generation {generation}, not {final_generation}"
                    ));
                } else if rows != *answer {
                    problems.push(format!(
                        "subscription {sub} ({}) folds to {} rows, EXEC at generation {generation} gives {}",
                        family.label(),
                        answer.len(),
                        rows.len()
                    ));
                }
            }
            Ok((other, _)) => problems.push(format!("check EXEC returned {other:?}")),
            Err(e) => problems.push(format!("check EXEC: {}", describe(&e))),
        }
    }
    Subscribed { per_generation, pushed, problems }
}

impl Churn {
    fn stop_subscriber(&mut self) -> Option<Subscribed> {
        let generation = self.server.registry().generation(TABLE);
        *self.stop.lock().expect("stop signal") = Some(generation);
        self.subscriber.take().and_then(|handle| handle.join().ok())
    }

    fn write(&mut self, write: &Write, report: &mut Report) -> Option<u64> {
        let result = match write {
            Write::Insert(row) => {
                self.client.mutate(TABLE, std::slice::from_ref(row), &[]).map(|r| (r.0 == 1, r.2))
            }
            Write::Delete(row) => {
                self.client.mutate(TABLE, &[], std::slice::from_ref(row)).map(|r| (r.1 == 1, r.2))
            }
            Write::Priority(pairs) => self.client.set_priority(TABLE, pairs).map(|g| (true, g)),
        };
        match result {
            Ok((true, generation)) => Some(generation),
            Ok((false, generation)) => {
                report.fail(format!("write at generation {generation} changed no row"));
                None
            }
            Err(e) => {
                report.fail(format!("write: {}", describe(&e)));
                None
            }
        }
    }
}

impl Workload for Churn {
    const TRACE_ROUNDS: u64 = 4;

    fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let mut tracer = tracer;
        let data = Dataset::generate(SHAPE, seed);
        let reads = recurring_reads(&data, seed, false);
        let (server, client, _) = start(&data, &reads, &mut tracer)?;
        let stop = Arc::new(Mutex::new(None));
        type Subs = [(u64, FamilyKind, BTreeSet<Vec<String>>); 2];
        let subscribe = || -> Result<(Client, u64, Subs), String> {
            let mut client =
                Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            client.prepare("hot", HOT_ZONE_QUERY).map_err(|e| describe(&e))?;
            let mut at = 0;
            let mut subscribe = |family, report| {
                client
                    .subscribe_with("hot", family, Semantics::Possible, report, None)
                    .map(|reply| {
                        at = reply.generation;
                        (reply.sub, family, reply.rows.into_iter().collect())
                    })
                    .map_err(|e| format!("SUBSCRIBE: {}", describe(&e)))
            };
            let per_generation = subscribe(FamilyKind::Global, ReportSpec::PerGeneration)?;
            let every = subscribe(FamilyKind::Common, ReportSpec::Every(EVERY))?;
            Ok((client, at, [per_generation, every]))
        };
        let (sub_client, at, subs) = match tracer {
            Some(tracer) => tracer.time("setup.listen", subscribe)?,
            None => subscribe()?,
        };
        let signal = Arc::clone(&stop);
        let handle = std::thread::spawn(move || subscriber(sub_client, at, subs, signal));
        let watch = MemoWatch::attach(server.registry());
        let plan = plan(&data);
        Ok(Churn {
            data,
            server,
            client,
            reads,
            plan,
            log: Vec::new(),
            stop,
            subscriber: Some(handle),
            watch,
        })
    }

    fn round(
        &mut self,
        _round: u64,
        out: &mut Outcome,
        report: &mut Report,
        mut tracer: Option<&mut Tracer>,
    ) {
        let plan = std::mem::take(&mut self.plan);
        for (index, write) in plan.iter().enumerate() {
            out.ops += 1;
            let root = tracer.as_deref_mut().map(|t| t.root("op.write"));
            let sent = Instant::now();
            let generation = match (tracer.as_deref_mut(), root) {
                (Some(tracer), Some(root)) => {
                    tracer.child(root, "client.write", || self.write(write, report))
                }
                _ => self.write(write, report),
            };
            let acked = Instant::now();
            if let (Some(tracer), Some(root)) = (tracer.as_deref_mut(), root) {
                tracer.end(root);
            }
            if let Some(generation) = generation {
                out.writes.push(acked - sent);
                self.log.push((sent, acked, generation));
            }

            let read = &self.reads[index % self.reads.len()];
            out.ops += 1;
            match tracer.as_deref_mut() {
                None => {
                    if let Some((_, elapsed)) = timed_exec(&mut self.client, read, report) {
                        out.reads.push(elapsed);
                    }
                }
                Some(tracer) => {
                    let registry = Arc::clone(self.server.registry());
                    traced_read(
                        tracer,
                        &mut self.client,
                        &registry,
                        read,
                        false,
                        None,
                        out,
                        report,
                    );
                }
            }
        }
        self.plan = plan;
    }

    fn finish(&mut self, out: &mut Outcome, report: &mut Report) {
        let Some(subscribed) = self.stop_subscriber() else {
            report.fail("the subscriber thread panicked".to_string());
            return;
        };
        for problem in subscribed.problems {
            report.fail(problem);
        }
        // Pushes of one subscription arrive in generation order, as do the writes.
        let pushes: Vec<&Pushed> =
            subscribed.pushed.iter().filter(|p| p.sub == subscribed.per_generation).collect();
        let mut next = 0;
        for &(sent, acked, generation) in &self.log {
            while next < pushes.len() && pushes[next].generation < generation {
                next += 1;
            }
            match pushes.get(next) {
                Some(push) => {
                    out.pushes.push(push.at.saturating_duration_since(sent));
                    out.poll_waits.push(push.at.saturating_duration_since(acked));
                }
                None => report.fail(format!("the write at generation {generation} got no push")),
            }
        }
        self.log.clear();
    }

    fn counters(&mut self) -> Counters {
        let stats = self.client.stats().unwrap_or_default();
        self.watch.add_to(Counters::default()).with_process_counters().with_server_stats(&stats)
    }

    fn layer_input(&self) -> LayerInput {
        LayerInput::new(&self.data, self.server.registry(), self.reads.clone())
    }

    fn shutdown(mut self) {
        self.stop_subscriber();
        drop(self.client);
        self.server.shutdown();
    }
}
