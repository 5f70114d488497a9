//! E22 — write-pipelined pushes: a coalesced k-write burst versus k per-generation
//! swaps.
//!
//! Two measurements per burst size (k conflict-free single-row writes against a
//! 2-chain instance with one attached per-generation subscriber):
//!
//! * `coalesced/<k>` — the PR 10 path: the burst enters the [`WriteCoalescer`] as k
//!   frames folded into **one** net `Mutation`, one derivation, one
//!   swap and one pushed delta (then the mirror-image delete burst restores the
//!   instance the same way). Per iteration: 2 derivations, 2 pushes, regardless of k.
//! * `pergen/<k>` — what the same burst cost before: k sequential
//!   `SnapshotRegistry::commit` calls, each deriving its own snapshot, publishing its
//!   own swap and pushing its own delta (drained after every swap, as the server's
//!   push cycle would). Per iteration: 2k derivations, 2k pushes.
//!
//! The gap is the pipelining win and should grow linearly with k: the coalesced
//! side's fold is a row-set replay (cheap), while every per-generation swap pays a
//! delta derivation plus a subscriber re-execution.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pdqi_core::{
    Change, EngineBuilder, EngineSnapshot, FamilyKind, Mutation, Parallelism, PreparedQuery,
    Semantics, SnapshotRegistry, SubscriptionManager, WriteCoalescer, WriteFrame,
};
use pdqi_datagen::multi_chain_instance;
use pdqi_relation::Value;

/// Commits `mutation` to `table` as one delta derivation and swap.
fn apply(registry: &SnapshotRegistry, table: &str, mutation: &Mutation, parallelism: Parallelism) {
    let change = |_: &EngineSnapshot| Ok::<_, Infallible>(Change::Mutation(mutation.clone()));
    registry.commit(table, None, parallelism, change).unwrap();
}

const QUERY: &str = "EXISTS b,c,d . R(x,b,c,d)";

/// The burst: k conflict-free rows with fresh keys (inserting them grows the
/// certain answer by exactly k values; deleting them restores it).
fn burst_rows(k: usize) -> Vec<Vec<Value>> {
    (0..k)
        .map(|i| {
            vec![
                Value::int(900_000 + i as i64),
                Value::int(9),
                Value::int(9_000_000 + i as i64),
                Value::int(9),
            ]
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e22_window");
    group
        .sample_size(15)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));
    let parallelism = Parallelism::sequential();
    let (instance, fds) = multi_chain_instance(2, 3);

    for k in [4usize, 16, 64] {
        let rows = burst_rows(k);

        // Coalesced: the whole burst is one batch — one derivation, one push.
        {
            let registry = SnapshotRegistry::shared();
            registry.publish(
                "R",
                EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap(),
            );
            let manager = SubscriptionManager::new(parallelism);
            manager.attach(&registry);
            let query = Arc::new(PreparedQuery::parse(QUERY).unwrap());
            let sub = manager
                .subscribe(&registry, query, FamilyKind::Global, Semantics::Certain)
                .unwrap();
            let coalescer = WriteCoalescer::new(Arc::clone(&registry), parallelism);
            let inserts: Vec<WriteFrame> =
                rows.iter().map(|row| WriteFrame::new(vec![row.clone()], Vec::new())).collect();
            let deletes: Vec<WriteFrame> =
                rows.iter().map(|row| WriteFrame::new(Vec::new(), vec![row.clone()])).collect();
            group.bench_function(format!("coalesced/{k}"), |b| {
                b.iter(|| {
                    for outcome in coalescer.apply_frames("R", inserts.clone()) {
                        outcome.unwrap();
                    }
                    let up = manager.drain(sub.id);
                    for outcome in coalescer.apply_frames("R", deletes.clone()) {
                        outcome.unwrap();
                    }
                    let down = manager.drain(sub.id);
                    assert_eq!(up.len() + down.len(), 2, "one delta per burst direction");
                });
            });
            let stats = coalescer.stats();
            assert_eq!(stats.derivations_saved, stats.frames - stats.batches);
        }

        // Per-generation: every write pays its own derivation, swap and push.
        {
            let registry = SnapshotRegistry::shared();
            registry.publish(
                "R",
                EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap(),
            );
            let manager = SubscriptionManager::new(parallelism);
            manager.attach(&registry);
            let query = Arc::new(PreparedQuery::parse(QUERY).unwrap());
            let sub = manager
                .subscribe(&registry, query, FamilyKind::Global, Semantics::Certain)
                .unwrap();
            let inserts: Vec<Mutation> =
                rows.iter().map(|row| Mutation::new().insert("R", row.clone())).collect();
            let deletes: Vec<Mutation> =
                rows.iter().map(|row| Mutation::new().delete("R", row.clone())).collect();
            group.bench_function(format!("pergen/{k}"), |b| {
                b.iter(|| {
                    let mut pushed = 0usize;
                    for mutation in inserts.iter().chain(&deletes) {
                        apply(&registry, "R", mutation, parallelism);
                        pushed += manager.drain(sub.id).len();
                    }
                    assert_eq!(pushed, 2 * k, "one delta per swap");
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
