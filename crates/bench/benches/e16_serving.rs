//! E16 — the serving front end: loopback protocol throughput and swap-under-load
//! latency over the snapshot registry.
//!
//! Four measurements:
//!
//! * `loopback/exec` and `loopback/batch/8` — full wire round-trips (frame → dispatch
//!   through `BatchExecutor` against the registry snapshot → frame back) for a single
//!   `EXEC` and for an 8-entry `BATCH`; after the first iteration these serve from the
//!   snapshot's answer memo, so they measure the serving overhead itself;
//! * `inprocess/exec` — the same query through `SnapshotRegistry::read` +
//!   `PreparedQuery::execute` without the network, isolating the protocol cost;
//! * `swap_under_load/exec` — wire round-trips while another connection continuously
//!   publishes `SET-PRIORITY` revisions (built + revalidated off the serving path,
//!   swapped atomically): the acceptance criterion is that reads never block on a
//!   swap, so this should stay near `loopback/exec`;
//! * `swap/revise` — the latency of one revision publish itself (derive + revalidate
//!   exactly the invalidated memo entries + swap).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pdqi_core::{Change, EngineBuilder, FamilyKind, Parallelism, PreparedQuery, SnapshotRegistry};
use pdqi_datagen::{revision_trace, TraceEvent};
use pdqi_priority::Priority;
use pdqi_server::{serve, Client, ExecMode, ExecSpec, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_serving");
    group
        .sample_size(15)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));

    // The serving workload: 4 independent conflict chains, a recurring query pool, and
    // a stream of single-chain priority revisions.
    let mut rng = StdRng::seed_from_u64(2006);
    let trace = revision_trace(4, 6, 400, 4, &mut rng);
    let revisions: Vec<_> = trace
        .events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Revision(pairs) => Some(pairs.clone()),
            TraceEvent::Query(_) => None,
        })
        .collect();
    let registry = SnapshotRegistry::shared();
    registry.publish(
        "R",
        EngineBuilder::new()
            .relation(trace.instance.clone(), trace.fds.clone())
            .build()
            .expect("trace instance builds"),
    );
    let handle = serve("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default())
        .expect("loopback server binds");
    let addr = handle.local_addr();

    let query_text = "EXISTS b,c,d . R(x,b,c,d)";
    let mut client = Client::connect(addr).expect("client connects");
    client.prepare("q", query_text).expect("query prepares");

    group.bench_function("loopback/exec", |b| {
        b.iter(|| {
            let (outcome, generation) =
                client.exec("q", FamilyKind::Global, ExecMode::Certain).unwrap();
            (outcome, generation)
        })
    });

    group.bench_function("loopback/batch/8", |b| {
        b.iter(|| {
            let specs: Vec<ExecSpec> = (0..8)
                .map(|_| ExecSpec {
                    id: "q".to_string(),
                    family: FamilyKind::Global,
                    mode: ExecMode::Certain,
                })
                .collect();
            client.batch(specs).unwrap()
        })
    });

    // The in-process equivalent of loopback/exec: registry read + prepared execution.
    let prepared = PreparedQuery::parse(query_text).unwrap();
    group.bench_function("inprocess/exec", |b| {
        b.iter(|| {
            let lease = registry.read("R").unwrap();
            prepared
                .execute(lease.snapshot(), FamilyKind::Global, pdqi_core::Semantics::Certain)
                .unwrap()
                .count()
        })
    });

    // Reads while a second connection publishes revisions as fast as the registry
    // swaps them: revision builds run off the serving path, so exec latency should
    // stay in the same regime as the unloaded loopback/exec.
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let stop = Arc::clone(&stop);
        let revisions = revisions.clone();
        std::thread::spawn(move || {
            let mut publisher = Client::connect(addr).expect("publisher connects");
            let mut index = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let pairs: Vec<(u32, u32)> =
                    revisions[index % revisions.len()].iter().map(|&(w, l)| (w.0, l.0)).collect();
                publisher.set_priority("R", &pairs).expect("revision publishes");
                index += 1;
            }
        })
    };
    group.bench_function("swap_under_load/exec", |b| {
        b.iter(|| client.exec("q", FamilyKind::Global, ExecMode::Certain).unwrap())
    });
    stop.store(true, Ordering::Relaxed);
    publisher.join().expect("publisher stops cleanly");

    // The publish path itself, without the wire: one priority-change commit (derive +
    // re-enumerate + swap).
    let mut index = 0usize;
    group.bench_function("swap/revise", |b| {
        b.iter(|| {
            let pairs = &revisions[index % revisions.len()];
            index += 1;
            registry
                .commit("R", None, Parallelism::sequential(), |current| {
                    let graph = Arc::clone(current.context().graph());
                    let priority = Priority::from_pairs(graph, pairs)?;
                    Ok::<_, pdqi_priority::PriorityError>(Change::Priority {
                        relation: "R".to_string(),
                        priority,
                    })
                })
                .unwrap()
                .0
        })
    });

    client.shutdown().expect("server answers the shutdown");
    handle.wait();
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
