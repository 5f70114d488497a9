//! `hot_reads`: one connection sending recurring prepared `EXEC`s that are all
//! answer-memo hits after the warm-up pass. Isolates the serving path: frame codec,
//! dispatch, lease pin, memo lookup and render.

use std::sync::Arc;

use pdqi_core::{PreparedQuery, SnapshotRegistry};
use pdqi_server::{serve, Client, ExecOutcome, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{check, describe, expected, phase, timed_exec, Counters, MemoWatch, Outcome, Workload};
use crate::data::{recurring_reads, Dataset, Read, Shape, TABLE};
use crate::layers::LayerInput;
use crate::measure::Report;
use crate::trace::Tracer;

/// Many conflict-free rows, a few small conflict components.
const SHAPE: Shape = Shape { chains: 4, chain_len: 5, filler: 10_000 };
/// Passes over the read pool per round.
const PASSES: usize = 8;

pub struct HotReads {
    data: Dataset,
    server: ServerHandle,
    client: Client,
    reads: Vec<Read>,
    /// The warm-up pass's answer to each read; every later answer must equal it.
    answers: Vec<ExecOutcome>,
    /// One round: read indices in a seeded order.
    sequence: Vec<usize>,
    watch: Arc<MemoWatch>,
}

/// Builds, serves, connects, prepares every read and runs the warm-up pass.
/// Shared with `adhoc_cqa`, which serves the same way but prepares per operation.
pub(super) fn start(
    data: &Dataset,
    reads: &[Read],
    tracer: &mut Option<&mut Tracer>,
) -> Result<(ServerHandle, Client, Vec<ExecOutcome>), String> {
    let snapshot = phase(tracer, "setup.build", || data.snapshot());
    let (server, mut client) = phase(tracer, "setup.listen", || -> Result<_, String> {
        let registry = SnapshotRegistry::shared();
        registry.publish(TABLE, snapshot);
        let server = serve("127.0.0.1:0", registry, ServerConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        for read in reads {
            client
                .prepare(&read.id, &read.text)
                .map_err(|e| format!("PREPARE {}: {}", read.id, describe(&e)))?;
        }
        Ok((server, client))
    })?;
    if reads.is_empty() {
        return Ok((server, client, Vec::new()));
    }
    let answers = phase(tracer, "setup.warm", || -> Result<Vec<ExecOutcome>, String> {
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
    Ok((server, client, answers))
}

impl Workload for HotReads {
    const TRACE_ROUNDS: u64 = 100;

    fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let mut tracer = tracer;
        let data = Dataset::generate(SHAPE, seed);
        let reads = recurring_reads(&data, seed, false);
        let (server, client, answers) = start(&data, &reads, &mut tracer)?;
        let mut sequence: Vec<usize> =
            (0..reads.len()).cycle().take(reads.len() * PASSES).collect();
        sequence.shuffle(&mut StdRng::seed_from_u64(seed));
        let watch = MemoWatch::attach(server.registry());
        Ok(HotReads { data, server, client, reads, answers, sequence, watch })
    }

    fn round(
        &mut self,
        _round: u64,
        out: &mut Outcome,
        report: &mut Report,
        mut tracer: Option<&mut Tracer>,
    ) {
        for &index in &self.sequence {
            let read = &self.reads[index];
            out.ops += 1;
            match tracer.as_deref_mut() {
                None => {
                    if let Some((answer, elapsed)) = timed_exec(&mut self.client, read, report) {
                        out.reads.push(elapsed);
                        check(report, &read.id, &answer, &self.answers[index]);
                    }
                }
                Some(tracer) => {
                    let registry = Arc::clone(self.server.registry());
                    let want = Some(&self.answers[index]);
                    traced_read(
                        tracer,
                        &mut self.client,
                        &registry,
                        read,
                        false,
                        want,
                        out,
                        report,
                    );
                }
            }
        }
    }

    fn finish(&mut self, _out: &mut Outcome, report: &mut Report) {
        // The warm-up answers against an identically built snapshot, in-process.
        let reference = self.data.snapshot();
        for (read, answer) in self.reads.iter().zip(&self.answers) {
            match expected(&reference, read) {
                Ok(want) => check(report, &read.id, answer, &want),
                Err(e) => report.fail(format!("in-process {}: {e}", read.id)),
            }
        }
    }

    fn counters(&mut self) -> Counters {
        let stats = self.client.stats().unwrap_or_default();
        self.watch.add_to(Counters::default()).with_process_counters().with_server_stats(&stats)
    }

    fn layer_input(&self) -> LayerInput {
        LayerInput::new(&self.data, self.server.registry(), self.reads.clone())
    }

    fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// One traced read: the wire `EXEC` (after a `PREPARE` when `prepare` is set) as the
/// root's first children, then the same request through the in-process layers (lease
/// pin, parse, memo-hit execute), then the same `EXEC` again over the wire, now a
/// memo hit on the server. Returns the wire answer.
#[allow(clippy::too_many_arguments)]
pub(super) fn traced_read(
    tracer: &mut Tracer,
    client: &mut Client,
    registry: &SnapshotRegistry,
    read: &Read,
    prepare: bool,
    want: Option<&ExecOutcome>,
    out: &mut Outcome,
    report: &mut Report,
) -> Option<ExecOutcome> {
    let root = tracer.root("op.read");
    let start = std::time::Instant::now();
    if prepare {
        let prepared =
            tracer.child(root, "client.prepare", || client.prepare(&read.id, &read.text));
        if let Err(e) = prepared {
            report.fail(format!("PREPARE {}: {}", read.id, describe(&e)));
            tracer.end(root);
            return None;
        }
    }
    let result = tracer.child(root, "client.read", || timed_exec(client, read, report));
    let answer = result.map(|(answer, _)| answer);
    if let Some(answer) = &answer {
        out.reads.push(start.elapsed());
        if let Some(want) = want {
            check(report, &read.id, answer, want);
        }
    }
    let lease = tracer.child(root, "registry.read", || registry.read(TABLE));
    let query = tracer.child(root, "prepared.parse", || PreparedQuery::parse(&read.text));
    if let (Some(lease), Ok(query)) = (lease, query) {
        tracer
            .child(root, "prepared.execute", || match read.mode.semantics() {
                Some(semantics) => {
                    query.execute(lease.snapshot(), read.family, semantics).map(|_| ())
                }
                None => query.consistent_answer(lease.snapshot(), read.family).map(|_| ()),
            })
            .ok();
    }
    tracer.child(root, "client.read_hit", || client.exec(&read.id, read.family, read.mode)).ok();
    tracer.end(root);
    answer
}
