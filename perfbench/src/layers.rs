//! In-process layer probes for the traced run, and the per-layer report.
//!
//! The traced replay already times the layers a wire operation passes through
//! (lease pin, parse, memo-hit execute). The probes here time what a replay cannot
//! isolate, on the workload's own snapshot and requests: the frame codec, cold
//! execution over the repair product, per-component enumeration, delta and priority
//! derivations, and the registry swap with and without subscription observers.

use std::sync::Arc;

use pdqi_core::{
    ChangeScope, EngineSnapshot, FamilyKind, Mutation, Parallelism, PreparedQuery, ReportStrategy,
    Semantics, SnapshotRegistry, SubscribeOptions, SubscriptionManager,
};
use pdqi_priority::Priority;
use pdqi_relation::{TupleId, Value};
use pdqi_server::protocol::{read_frame, write_frame};
use pdqi_server::{ExecSpec, Request};

use crate::data::{Dataset, Read, HOT_ZONE_QUERY, TABLE};
use crate::measure::{median, Report};
use crate::trace::Tracer;
use crate::workloads::{Counters, Outcome};

/// What the probes run on: the served snapshot (memo warm, as the workload left it)
/// and the workload's requests.
pub struct LayerInput {
    pub snapshot: EngineSnapshot,
    pub reads: Vec<Read>,
    /// A one-row insert conflicting with a chain tuple, inside the subscribed zone.
    pub insert: Vec<Value>,
    /// The two priorities `SET-PRIORITY` alternates between.
    pub priorities: [Vec<(TupleId, TupleId)>; 2],
}

impl LayerInput {
    pub fn new(data: &Dataset, registry: &SnapshotRegistry, reads: Vec<Read>) -> Self {
        let lease = registry.read(TABLE).expect("table is published");
        LayerInput::from_snapshot(data, EngineSnapshot::clone(lease.snapshot()), reads)
    }

    pub fn from_snapshot(data: &Dataset, snapshot: EngineSnapshot, reads: Vec<Read>) -> Self {
        let anchor = data.chains[0][0];
        LayerInput {
            snapshot,
            reads,
            insert: data.conflicting_row(anchor, 999_999),
            priorities: [data.priority(false), data.priority(true)],
        }
    }
}

/// Results of the probes that are not plain span medians.
#[derive(Default)]
pub struct Probed {
    selections: Vec<f64>,
    ns_per_selection_row: Vec<f64>,
    vectorized: u64,
    scalar: u64,
    per_component_us: Vec<(&'static str, f64)>,
}

fn seq() -> Parallelism {
    Parallelism::sequential()
}

fn execute(query: &PreparedQuery, snapshot: &EngineSnapshot, read: &Read) -> Option<u128> {
    match read.mode.semantics() {
        Some(semantics) => query.execute(snapshot, read.family, semantics).ok().map(|_| 0),
        None => query.consistent_answer(snapshot, read.family).ok().map(|o| o.examined as u128),
    }
}

/// Runs every probe, recording each timed call as a root span.
pub fn probe(input: &LayerInput, tracer: &mut Tracer) -> Probed {
    let mut probed = Probed::default();
    let snapshot = &input.snapshot;
    let rows = snapshot.context_of(TABLE).map_or(1, |ctx| ctx.instance().len()) as f64;

    // Frame codec on the workload's own request payloads, 100 round trips per span.
    let mut payloads: Vec<String> = Vec::new();
    for read in &input.reads {
        payloads.push(Request::Prepare { id: read.id.clone(), query: read.text.clone() }.render());
        let spec = ExecSpec { id: read.id.clone(), family: read.family, mode: read.mode };
        payloads.push(Request::Exec(spec).render());
    }
    let insert: Vec<String> = input.insert.iter().map(Value::to_string).collect();
    payloads.push(
        Request::Mutate { table: TABLE.into(), inserts: vec![insert], deletes: vec![] }.render(),
    );
    for payload in &payloads {
        let request = Request::parse(payload).expect("rendered requests parse");
        for _ in 0..5 {
            tracer.time("protocol.codec.x100", || {
                for _ in 0..100 {
                    let mut frame = Vec::with_capacity(payload.len() + 4);
                    write_frame(&mut frame, &request.render()).expect("in-memory write");
                    let text = read_frame(&mut frame.as_slice()).expect("in-memory read");
                    std::hint::black_box(Request::parse(&text).expect("round trip parses"));
                }
            });
        }
    }

    // Cold execution: empty memo, components warmed untimed, then one execution.
    let eval_before = pdqi_query::eval_path_stats();
    for read in &input.reads {
        let Ok(query) = PreparedQuery::parse(&read.text) else { continue };
        for _ in 0..3 {
            let cold = snapshot.with_cleared_memo();
            cold.warm_components(read.family, seq());
            let selections = cold.preferred_repair_count(read.family);
            let span = tracer.root("prepared.cold_exec");
            let examined = execute(&query, &cold, read);
            tracer.end(span);
            let Some(examined) = examined else { continue };
            let evaluated = if read.mode.semantics().is_some() { selections } else { examined };
            probed.selections.push(evaluated as f64);
            if evaluated > 0 {
                let ns = tracer.last_duration_ns() as f64;
                probed.ns_per_selection_row.push(ns / (evaluated as f64 * rows));
            }
        }
    }
    let eval_after = pdqi_query::eval_path_stats();
    probed.vectorized = eval_after.vectorized - eval_before.vectorized;
    probed.scalar = eval_after.scalar - eval_before.scalar;

    // Per-component enumeration of each family on an empty memo.
    for (label, family) in [
        ("rep", FamilyKind::Rep),
        ("l", FamilyKind::Local),
        ("s", FamilyKind::SemiGlobal),
        ("g", FamilyKind::Global),
        ("c", FamilyKind::Common),
    ] {
        let mut per = Vec::new();
        for _ in 0..3 {
            let cold = snapshot.with_cleared_memo();
            let span = tracer.root("enumerate.warm_components");
            let computed = cold.warm_components(family, seq());
            tracer.end(span);
            per.push(tracer.last_duration_ns() as f64 / 1e3 / computed.max(1) as f64);
        }
        probed.per_component_us.push((label, median(&per)));
    }

    // Delta derivation of a one-row insert and of a priority revision.
    let mutation = Mutation::new().insert(TABLE, input.insert.clone());
    for _ in 0..7 {
        tracer
            .time("derive.mutation", || snapshot.with_mutations_reported(&mutation, seq()))
            .expect("one-row insert derives");
    }
    let graph = Arc::clone(snapshot.context_of(TABLE).expect("served relation").graph());
    for round in 0..8 {
        let pairs = &input.priorities[round % 2];
        let priority = Priority::from_pairs(Arc::clone(&graph), pairs).expect("chain edges orient");
        tracer
            .time("derive.priority", || {
                snapshot.with_priority_revalidated_reported_for(TABLE, priority, seq())
            })
            .expect("toggle revision derives");
    }

    // The swap alone, then the same swap with the churn subscriptions attached.
    let inserted = snapshot.with_mutations(&mutation, seq()).expect("insert derives");
    let scope = || ChangeScope::Mutation { relations: vec![TABLE.to_string()] };
    let registry = SnapshotRegistry::new();
    registry.publish(TABLE, snapshot.clone());
    for round in 0..20 {
        let next = if round % 2 == 0 { inserted.clone() } else { snapshot.clone() };
        tracer
            .time("registry.swap", || {
                registry.revise_scoped(TABLE, |_| Ok::<_, String>((next, scope())))
            })
            .expect("swap publishes");
    }
    let watched = SnapshotRegistry::new();
    watched.publish(TABLE, snapshot.clone());
    let manager = SubscriptionManager::new(seq());
    manager.attach(&watched);
    let query = Arc::new(PreparedQuery::parse(HOT_ZONE_QUERY).expect("hot-zone query parses"));
    for (family, strategy) in [
        (FamilyKind::Global, ReportStrategy::PerGeneration),
        (FamilyKind::Common, ReportStrategy::every(4)),
    ] {
        let options = SubscribeOptions { strategy, queue_capacity: None };
        manager
            .subscribe_with(&watched, Arc::clone(&query), family, Semantics::Possible, options)
            .expect("churn subscription registers");
    }
    let delete = Mutation::new().delete(TABLE, input.insert.clone());
    for round in 0..20 {
        let current = watched.read(TABLE).expect("published");
        let change = if round % 2 == 0 { &mutation } else { &delete };
        let next =
            current.snapshot().with_mutations(change, seq()).expect("churn mutation derives");
        tracer
            .time("registry.notify", || {
                watched.revise_scoped(TABLE, |_| Ok::<_, String>((next, scope())))
            })
            .expect("swap publishes");
        for info in manager.list() {
            manager.drain(info.id);
        }
    }
    probed
}

/// Adds the per-layer metrics of a traced run to `report`.
pub fn report(
    report: &mut Report,
    tracer: &Tracer,
    probed: &Probed,
    counters: &Counters,
    untraced: &Outcome,
    traced: &Outcome,
) {
    let us = |name: &str| tracer.median_self_us(name).unwrap_or(0.0);
    let read_hit = us("client.read_hit");
    let in_process = us("registry.read") + us("prepared.execute");
    report.metric(
        "wire.overhead_us",
        read_hit - in_process,
        "us",
        format!("memo-hit EXEC {read_hit:.3} - in-process read+execute {in_process:.3}"),
    );
    report.metric(
        "protocol.codec_us",
        us("protocol.codec.x100") / 100.0,
        "us",
        "render+frame+parse".into(),
    );
    report.metric("registry.read_us", us("registry.read"), "us", "SnapshotRegistry::read".into());
    report.metric(
        "prepared.memo_hit_us",
        us("prepared.execute"),
        "us",
        "execute on a memo hit".into(),
    );
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    report.metric(
        "memo.answer_hit_ratio",
        ratio(counters.answer_hits, counters.answer_misses),
        "ratio",
        format!("hits={} misses={}", counters.answer_hits, counters.answer_misses),
    );
    report.metric(
        "memo.component_hit_ratio",
        ratio(counters.component_hits, counters.component_misses),
        "ratio",
        format!("hits={} misses={}", counters.component_hits, counters.component_misses),
    );
    report.metric("prepared.parse_us", us("prepared.parse"), "us", "PreparedQuery::parse".into());
    report.metric("planner.planned", counters.planned as f64, "count", "plan_stats delta".into());
    report.metric(
        "planner.cache_hits",
        counters.plan_cache_hits as f64,
        "count",
        "plan_stats delta".into(),
    );
    report.metric(
        "prepared.cold_exec_us",
        us("prepared.cold_exec"),
        "us",
        "empty answer memo".into(),
    );
    report.metric(
        "prepared.selections",
        median(&probed.selections),
        "count",
        "per cold exec".into(),
    );
    report.metric(
        "eval.ns_per_selection_row",
        median(&probed.ns_per_selection_row),
        "ns",
        "cold exec / (selections x rows)".into(),
    );
    report.metric(
        "eval.vectorized_share",
        ratio(probed.vectorized, probed.scalar),
        "ratio",
        format!("vectorized={} scalar={}", probed.vectorized, probed.scalar),
    );
    for (label, value) in &probed.per_component_us {
        let name = format!("enumerate.us_per_component.{label}");
        report.metric(&name, *value, "us", "warm_components / components".into());
    }
    report.metric("derive.mutation_us", us("derive.mutation"), "us", "one-row insert".into());
    report.metric("derive.priority_us", us("derive.priority"), "us", "toggle revision".into());
    let swap = us("registry.swap");
    report.metric("registry.swap_us", swap, "us", "revise_scoped, no observers".into());
    report.metric(
        "registry.notify_us",
        us("registry.notify") - swap,
        "us",
        "two subscriptions attached, minus swap".into(),
    );
    report.metric(
        "subscribe.executions",
        counters.sub_executions as f64,
        "count",
        "STATS delta".into(),
    );
    report.metric("subscribe.skipped", counters.sub_skipped as f64, "count", "STATS delta".into());
    report.metric(
        "subscribe.lagged",
        counters.sub_lagged as f64,
        "count",
        "timing-dependent".into(),
    );
    report.metric(
        "window.folded_swaps",
        counters.folded_swaps as f64,
        "count",
        "STATS delta".into(),
    );
    report.metric("window.flushes", counters.flushes as f64, "count", "STATS delta".into());
    if untraced.writes.len() > 0 {
        let per_batch = counters.write_frames as f64 / counters.write_batches.max(1) as f64;
        let note = format!("frames={} batches={}", counters.write_frames, counters.write_batches);
        report.line("writes.frames_per_batch", Some(per_batch), "ratio", note);
    }
    if untraced.poll_waits.len() > 0 {
        let waits = &untraced.poll_waits;
        let note = format!("push arrival - write ack, median of {}", waits.len());
        report.line("push.poll_wait_us", Some(waits.median_us()), "us", note);
    }
    if !traced.coord_overheads.is_empty() {
        let note = format!(
            "coordinator RTT - slowest direct shard RTT, median of {}",
            traced.coord_overheads.len()
        );
        report.line("coord.overhead_us", Some(median(&traced.coord_overheads)), "us", note);
    }
}
