//! `adhoc_cqa`: one connection; every operation `PREPARE`s query text the server has
//! never seen and `EXEC`s it. Templates: selective projections with random
//! constants, two-atom joins, Q1/Q2-style closed queries and ground probes, under
//! all five families (unoriented G-Rep included) and CERTAIN/POSSIBLE/CLOSED. The
//! component memo is warm; answer memo and plan cache are cold for every query.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use pdqi_core::FamilyKind;
use pdqi_server::{Client, ExecMode, ExecOutcome, ServerHandle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::hot_reads::{start, traced_read};
use super::{check, describe, expected, phase, Counters, MemoWatch, Outcome, Workload};
use crate::data::{recurring_reads, Dataset, Read, Shape, VALUE_DOMAIN};
use crate::layers::LayerInput;
use crate::measure::Report;
use crate::trace::Tracer;

/// Small enough that a cold execution (selections × rows) takes a few milliseconds.
const SHAPE: Shape = Shape { chains: 3, chain_len: 5, filler: 2_000 };

pub struct AdhocCqa {
    data: Dataset,
    server: ServerHandle,
    client: Client,
    rng: StdRng,
    seen: HashSet<String>,
    next_id: u64,
    /// Every executed operation with its wire answer, checked in `finish`.
    done: Vec<(Read, ExecOutcome)>,
    watch: Arc<MemoWatch>,
}

/// The templates, each with the modes it runs under. Comparisons over open variables
/// would force the scalar evaluator on every row, so open templates select by
/// constants; every template draws at least two constants, so fresh text never runs
/// out.
const TEMPLATES: [(Template, &[ExecMode]); 7] = [
    (Template::Projection, &[ExecMode::Certain, ExecMode::Possible]),
    (Template::ProjectionOfC, &[ExecMode::Certain, ExecMode::Possible]),
    (Template::JoinOnC, &[ExecMode::Certain, ExecMode::Possible]),
    (Template::JoinOnA, &[ExecMode::Certain, ExecMode::Possible]),
    (Template::Q1, &[ExecMode::Closed]),
    (Template::Q2, &[ExecMode::Closed]),
    (Template::Ground, &[ExecMode::Closed]),
];

#[derive(Clone, Copy)]
enum Template {
    Projection,
    ProjectionOfC,
    JoinOnC,
    JoinOnA,
    Q1,
    Q2,
    Ground,
}

impl AdhocCqa {
    /// One round: every template under each of its modes and every family, once,
    /// in a seeded order. Each round has the same mix; only constants and order vary.
    fn round_plan(&mut self) -> Vec<(Template, ExecMode, FamilyKind)> {
        let mut plan = Vec::new();
        for (template, modes) in TEMPLATES {
            for &mode in modes {
                for family in FamilyKind::ALL {
                    plan.push((template, mode, family));
                }
            }
        }
        plan.shuffle(&mut self.rng);
        plan
    }

    /// Query text for `template` with fresh constants; texts never repeat.
    fn text(&mut self, template: Template) -> String {
        let data = &self.data;
        let rng = &mut self.rng;
        // Keys shared by two chain tuples: each repair keeps one of them, so a Q1
        // query over such a key is decided only after every preferred repair.
        let paired: Vec<_> =
            data.chains.iter().flat_map(|c| c[..c.len() - 1].iter().step_by(2)).collect();
        loop {
            let (v, w) = (rng.gen_range(0..2 + VALUE_DOMAIN), rng.gen_range(0..2 + VALUE_DOMAIN));
            let tuple = pdqi_relation::TupleId(rng.gen_range(0..data.rows.len()) as u32);
            let text = match template {
                Template::Projection => format!("EXISTS c . R(x,{v},c,{w})"),
                Template::ProjectionOfC => format!("EXISTS a . R(a,{v},c,{w})"),
                Template::JoinOnC => format!("EXISTS d,b2 . R(x,{v},c,d) AND R(y,b2,c,{w})"),
                Template::JoinOnA => format!("EXISTS c,d,c2 . R(x,{v},c,d) AND R(x,y,c2,{w})"),
                Template::Q1 => {
                    let a1 = data.int(*paired[rng.gen_range(0..paired.len())], 0);
                    let a2 = data.int(tuple, 0);
                    format!("EXISTS b1,c1,d1,b2,c2,d2 . R({a1},b1,c1,d1) AND R({a2},b2,c2,d2) AND b1 < b2")
                }
                Template::Q2 => format!("EXISTS c . R({},{v},c,{w})", data.int(tuple, 0)),
                Template::Ground => {
                    let (a, b, c) = (data.int(tuple, 0), data.int(tuple, 1), data.int(tuple, 2));
                    format!("R({a},{b},{c},{w})")
                }
            };
            if self.seen.insert(text.clone()) {
                return text;
            }
        }
    }
}

impl Workload for AdhocCqa {
    const TRACE_ROUNDS: u64 = 4;

    fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let mut tracer = tracer;
        let data = Dataset::generate(SHAPE, seed);
        let (server, client, _) = start(&data, &[], &mut tracer)?;
        // Warm the component memo of every family; answers and plans stay cold.
        let lease = server.registry().read(crate::data::TABLE).expect("published");
        phase(&mut tracer, "setup.warm", || {
            for family in FamilyKind::ALL {
                lease.snapshot().warm_components(family, pdqi_core::Parallelism::sequential());
            }
        });
        let watch = MemoWatch::attach(server.registry());
        Ok(AdhocCqa {
            data,
            server,
            client,
            rng: StdRng::seed_from_u64(seed ^ 0xad0c),
            seen: HashSet::new(),
            next_id: 0,
            done: Vec::new(),
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
        for (template, mode, family) in self.round_plan() {
            self.next_id += 1;
            let read = Read::new(format!("q{}", self.next_id), self.text(template), family, mode);
            out.ops += 1;
            let answer = match tracer.as_deref_mut() {
                None => {
                    let start = Instant::now();
                    let answer = self
                        .client
                        .prepare(&read.id, &read.text)
                        .and_then(|()| self.client.exec(&read.id, read.family, read.mode));
                    let elapsed = start.elapsed();
                    match answer {
                        Ok((answer, _)) => {
                            out.reads.push(elapsed);
                            Some(answer)
                        }
                        Err(e) => {
                            report.fail(format!("PREPARE+EXEC {}: {}", read.text, describe(&e)));
                            None
                        }
                    }
                }
                Some(tracer) => {
                    let registry = Arc::clone(self.server.registry());
                    traced_read(tracer, &mut self.client, &registry, &read, true, None, out, report)
                }
            };
            if let Some(answer) = answer {
                self.done.push((read, answer));
            }
        }
    }

    fn finish(&mut self, _out: &mut Outcome, report: &mut Report) {
        // Every wire answer against an identically built snapshot, in-process.
        let reference = self.data.snapshot();
        for (read, answer) in std::mem::take(&mut self.done) {
            match expected(&reference, &read) {
                Ok(want) => check(report, &read.text, &answer, &want),
                Err(e) => report.fail(format!("in-process {}: {e}", read.text)),
            }
        }
    }

    fn counters(&mut self) -> Counters {
        let stats = self.client.stats().unwrap_or_default();
        self.watch.add_to(Counters::default()).with_process_counters().with_server_stats(&stats)
    }

    fn layer_input(&self) -> LayerInput {
        // The probes run on the recurring pool's shapes over this workload's instance.
        let reads = recurring_reads(&self.data, 0, false);
        LayerInput::new(&self.data, self.server.registry(), reads)
    }

    fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}
