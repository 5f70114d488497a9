//! `scatter`: `coordinate` over two in-process key-range shards, one client
//! connection. Recurring single-atom `EXEC`s (CLOSED ones go through the `PROFILE`
//! merge) plus routed `INSERT`/`DELETE` pairs, two operations in 29. Reads only
//! run while no inserted row is live, so every merged answer must equal the
//! single-snapshot answer over the unsplit instance.

use std::sync::Arc;
use std::time::Instant;

use pdqi_core::{EngineBuilder, FamilyKind, RouteSpec, SnapshotRegistry};
use pdqi_datagen::key_range_split;
use pdqi_query::QueryClass;
use pdqi_relation::{TupleId, Value};
use pdqi_server::{
    coordinate, serve, Client, CoordinatorConfig, CoordinatorHandle, ExecMode, ExecOutcome,
    ExecSpec, ServerConfig, ServerHandle,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::hot_reads::traced_read;
use super::{check, describe, expected, phase, timed_exec, Counters, MemoWatch, Outcome, Workload};
use crate::data::{recurring_reads, Dataset, Read, Shape, TABLE};
use crate::layers::LayerInput;
use crate::measure::Report;
use crate::trace::Tracer;

const SHAPE: Shape = Shape { chains: 4, chain_len: 6, filler: 4_000 };
const SHARDS: usize = 2;
/// Passes over the 9-read pool per routed insert/delete pair: two writes in 29
/// operations. After a write the first pass is cold on the written shard and the
/// others are warm, so two thirds of the reads are warm and the median falls inside
/// the warm reads, not on the edge between warm and cold ones.
const PASSES_PER_PAIR: usize = 3;
const PAIRS_PER_ROUND: usize = 2;

enum Step {
    Read(usize),
    Pair(Vec<String>),
}

pub struct Scatter {
    data: Dataset,
    shards: Vec<ServerHandle>,
    coordinator: CoordinatorHandle,
    client: Client,
    /// Direct connections to each shard: `STATS`, and the traced run's
    /// direct-to-shard round trips.
    direct: Vec<Client>,
    reads: Vec<Read>,
    /// Whether each read is ground (its CLOSED mode stays CLOSED on the shards).
    ground: Vec<bool>,
    answers: Vec<ExecOutcome>,
    steps: Vec<Step>,
    watches: Vec<Arc<MemoWatch>>,
    /// The unsplit instance served from one registry: the traced run's in-process side.
    reference: Option<Arc<SnapshotRegistry>>,
}

impl Workload for Scatter {
    const TRACE_ROUNDS: u64 = 20;

    fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let mut tracer = tracer;
        let data = Dataset::generate(SHAPE, seed);
        let reads = recurring_reads(&data, seed, true);
        let (parts, plan) = key_range_split(&data.instance, &data.fds, "A", SHARDS)
            .map_err(|e| format!("split: {e}"))?;
        // Shard s serves a contiguous block of rows: its tuple ids are shifted by the
        // rows before it, and no conflict edge (so no priority pair) crosses blocks.
        let mut offset = 0u32;
        let mut snapshots = Vec::new();
        phase(&mut tracer, "setup.build", || -> Result<(), String> {
            for part in &parts {
                let end = offset + part.len() as u32;
                let pairs: Vec<(TupleId, TupleId)> = data
                    .priority(false)
                    .into_iter()
                    .filter(|(w, _)| (offset..end).contains(&w.0))
                    .map(|(w, l)| (TupleId(w.0 - offset), TupleId(l.0 - offset)))
                    .collect();
                let snapshot = EngineBuilder::new()
                    .relation(part.clone(), data.fds.clone())
                    .priority_pairs(&pairs)
                    .build()
                    .map_err(|e| format!("shard build: {e}"))?;
                snapshots.push(snapshot);
                offset = end;
            }
            Ok(())
        })?;
        let (shards, coordinator, mut client, direct) =
            phase(&mut tracer, "setup.listen", || -> Result<_, String> {
                let mut shards = Vec::new();
                let mut addrs = Vec::new();
                for snapshot in snapshots {
                    let registry = SnapshotRegistry::shared();
                    registry.publish(TABLE, snapshot);
                    let shard = serve("127.0.0.1:0", registry, ServerConfig::default())
                        .map_err(|e| format!("serve: {e}"))?;
                    addrs.push(shard.local_addr().to_string());
                    shards.push(shard);
                }
                let route = RouteSpec {
                    table: TABLE.to_string(),
                    key_column: "A".to_string(),
                    splits: plan.splits().iter().map(Value::to_string).collect(),
                };
                let coordinator =
                    coordinate("127.0.0.1:0", &addrs, &[route], CoordinatorConfig::default())
                        .map_err(|e| format!("coordinate: {e}"))?;
                let mut client = Client::connect(coordinator.local_addr())
                    .map_err(|e| format!("connect: {e}"))?;
                for read in &reads {
                    client
                        .prepare(&read.id, &read.text)
                        .map_err(|e| format!("PREPARE {}: {}", read.id, describe(&e)))?;
                }
                let direct = addrs
                    .iter()
                    .map(|addr| Client::connect(addr.as_str()).map_err(|e| format!("connect: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((shards, coordinator, client, direct))
            })?;
        let answers = phase(&mut tracer, "setup.warm", || -> Result<Vec<ExecOutcome>, String> {
            reads
                .iter()
                .map(|read| {
                    client
                        .exec(&read.id, read.family, read.mode)
                        .map(|(outcome, _)| outcome)
                        .map_err(|e| format!("warm-up EXEC {}: {}", read.id, describe(&e)))
                })
                .collect()
        })?;
        let ground = reads
            .iter()
            .map(|read| {
                pdqi_core::PreparedQuery::parse(&read.text)
                    .is_ok_and(|q| q.class() == QueryClass::Ground)
            })
            .collect();

        // Each pair is followed by passes over the pool in a seeded order: the first
        // read of each query after a write finds the written shard's answers cold,
        // the later ones find them warm, for every seed alike.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca7);
        let anchors = data.chain_tuples();
        let mut steps = Vec::new();
        for pair in 0..PAIRS_PER_ROUND {
            let row = data.conflicting_row(anchors[pair % anchors.len()], pair as i64);
            steps.push(Step::Pair(row.iter().map(Value::to_string).collect()));
            for _ in 0..PASSES_PER_PAIR {
                let mut order: Vec<usize> = (0..reads.len()).collect();
                order.shuffle(&mut rng);
                steps.extend(order.into_iter().map(Step::Read));
            }
        }
        let watches = shards.iter().map(|shard| MemoWatch::attach(shard.registry())).collect();
        Ok(Scatter {
            data,
            shards,
            coordinator,
            client,
            direct,
            reads,
            ground,
            answers,
            steps,
            watches,
            reference: None,
        })
    }

    fn round(
        &mut self,
        _round: u64,
        out: &mut Outcome,
        report: &mut Report,
        mut tracer: Option<&mut Tracer>,
    ) {
        let steps = std::mem::take(&mut self.steps);
        for step in &steps {
            match step {
                Step::Read(index) => {
                    let read = &self.reads[*index];
                    out.ops += 1;
                    match tracer.as_deref_mut() {
                        None => {
                            if let Some((answer, elapsed)) =
                                timed_exec(&mut self.client, read, report)
                            {
                                out.reads.push(elapsed);
                                check(report, &read.id, &answer, &self.answers[*index]);
                            }
                        }
                        Some(tracer) => self.traced(tracer, *index, out, report),
                    }
                }
                Step::Pair(row) => {
                    let rows = std::slice::from_ref(row);
                    for insert in [true, false] {
                        out.ops += 1;
                        let start = Instant::now();
                        let result = if insert {
                            self.client.insert(TABLE, rows)
                        } else {
                            self.client.delete(TABLE, rows)
                        };
                        let elapsed = start.elapsed();
                        match result {
                            Ok((1, _)) => out.writes.push(elapsed),
                            Ok((n, _)) => {
                                report.fail(format!("routed write changed {n} rows, not 1"))
                            }
                            Err(e) => report.fail(format!("routed write: {}", describe(&e))),
                        }
                    }
                }
            }
        }
        self.steps = steps;
    }

    fn finish(&mut self, _out: &mut Outcome, report: &mut Report) {
        // The warm-up answers against one snapshot of the unsplit instance.
        let reference = self.data.snapshot();
        for (read, answer) in self.reads.iter().zip(&self.answers) {
            match expected(&reference, read) {
                Ok(want) => check(report, &read.id, answer, &want),
                Err(e) => report.fail(format!("in-process {}: {e}", read.id)),
            }
        }
    }

    fn counters(&mut self) -> Counters {
        let mut counters = Counters::default().with_process_counters();
        for (direct, watch) in self.direct.iter_mut().zip(&self.watches) {
            let stats = direct.stats().unwrap_or_default();
            counters = watch.add_to(counters).with_server_stats(&stats);
        }
        counters
    }

    fn layer_input(&self) -> LayerInput {
        LayerInput::from_snapshot(&self.data, self.data.snapshot(), self.reads.clone())
    }

    fn shutdown(self) {
        drop(self.client);
        drop(self.direct);
        self.coordinator.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

impl Scatter {
    /// A traced read: the coordinator round trip, the in-process single-snapshot
    /// layers, then the same request sent to each shard directly (the coordinator
    /// sends CLOSED entries as PROFILE unless ground under Rep).
    fn traced(
        &mut self,
        tracer: &mut Tracer,
        index: usize,
        out: &mut Outcome,
        report: &mut Report,
    ) {
        let reference = self
            .reference
            .get_or_insert_with(|| {
                let registry = SnapshotRegistry::shared();
                registry.publish(TABLE, self.data.snapshot());
                registry
            })
            .clone();
        let read = self.reads[index].clone();
        let Some(answer) =
            traced_read(tracer, &mut self.client, &reference, &read, false, None, out, report)
        else {
            return;
        };
        check(report, &read.id, &answer, &self.answers[index]);
        let mode = match read.mode {
            ExecMode::Closed if !(read.family == FamilyKind::Rep && self.ground[index]) => {
                ExecMode::Profile
            }
            mode => mode,
        };
        let spec = ExecSpec { id: read.id.clone(), family: read.family, mode };
        let coordinated = timed_exec(&mut self.client, &read, report).map(|(_, elapsed)| elapsed);
        let mut slowest = std::time::Duration::ZERO;
        for direct in &mut self.direct {
            let start = Instant::now();
            if direct.batch(vec![spec.clone()]).is_ok() {
                slowest = slowest.max(start.elapsed());
            }
        }
        if let Some(coordinated) = coordinated {
            out.coord_overheads.push((coordinated.as_secs_f64() - slowest.as_secs_f64()) * 1e6);
        }
    }
}
