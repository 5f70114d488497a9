//! E18 — continuous queries: push-mode subscriptions versus poll-mode re-execution.
//!
//! Three measurements per instance size (`chains` independent 6-tuple conflict
//! chains):
//!
//! * `push/<chains>` — the subscription path: one answer-changing mutation swap
//!   (insert a conflict-free tuple, then delete it again) with an attached
//!   [`SubscriptionManager`]; the delta is derived once at swap time and the
//!   subscriber merely drains it.
//! * `poll/<chains>` — what a client paid before the subsystem: the same two swaps,
//!   but the subscriber re-executes the prepared query in full on every generation
//!   and diffs consecutive answers itself. One push derivation costs one poll, so
//!   these two track each other at a single subscriber — the push side wins by
//!   skipping provably-unchanged swaps, not by cheaper execution.
//! * `skip/<chains>` — that provably-unchanged path: the same mutation pair applied
//!   to a *second* table the subscribed query never reads. The swap metadata proves
//!   the answer unchanged, so the manager pushes nothing and runs zero executions —
//!   this is the subsystem's fixed per-swap overhead, flat in `chains`.
//!
//! The sizes stay small on purpose: an answer-changing swap invalidates the full
//! certain-answer memo, and re-deriving it under the unoriented `Global` family
//! enumerates a repair family that grows exponentially with the number of conflict
//! components (the paper's co-NP-hard regime — ~40× per two extra chains). That
//! blow-up is exactly why the `skip` line matters: proving a swap irrelevant costs
//! microseconds where one re-execution costs milliseconds and up.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pdqi_core::{
    Change, EngineBuilder, EngineSnapshot, FamilyKind, Mutation, Parallelism, PreparedQuery,
    Semantics, SnapshotRegistry, SubscriptionManager,
};
use pdqi_datagen::{multi_chain_instance, multi_chain_relations};
use pdqi_relation::Value;

/// Commits `mutation` to `table` as one delta derivation and swap.
fn apply(registry: &SnapshotRegistry, table: &str, mutation: &Mutation, parallelism: Parallelism) {
    let change = |_: &EngineSnapshot| Ok::<_, Infallible>(Change::Mutation(mutation.clone()));
    registry.commit(table, None, parallelism, change).unwrap();
}

const QUERY: &str = "EXISTS b,c,d . R(x,b,c,d)";

/// A conflict-free row with a fresh key: inserting it grows the certain answer by
/// exactly one value, deleting it shrinks it back.
fn toggle_row() -> Vec<Value> {
    vec![Value::int(900_001), Value::int(9), Value::int(9_000_000), Value::int(9)]
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_subscribe");
    group
        .sample_size(15)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));
    let parallelism = Parallelism::sequential();

    for chains in [2usize, 3, 4] {
        let (instance, fds) = multi_chain_instance(chains, 6);
        let row = toggle_row();
        let insert = Mutation::new().insert("R", row.clone());
        let delete = Mutation::new().delete("R", row.clone());

        // Push: the manager derives each delta at swap time; the subscriber drains.
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
            group.bench_function(format!("push/{chains}"), |b| {
                b.iter(|| {
                    apply(&registry, "R", &insert, parallelism);
                    let up = manager.drain(sub.id);
                    apply(&registry, "R", &delete, parallelism);
                    let down = manager.drain(sub.id);
                    assert_eq!(up.len() + down.len(), 2, "both swaps change the answer");
                    (up, down)
                })
            });
        }

        // Poll: the subscriber re-executes in full on every generation and diffs.
        {
            let registry = SnapshotRegistry::shared();
            registry.publish(
                "R",
                EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap(),
            );
            let query = PreparedQuery::parse(QUERY).unwrap();
            let mut previous: Vec<Vec<Value>> = {
                let lease = registry.read("R").unwrap();
                query
                    .execute_with(
                        lease.snapshot(),
                        FamilyKind::Global,
                        Semantics::Certain,
                        parallelism,
                    )
                    .unwrap()
                    .rows()
                    .to_vec()
            };
            group.bench_function(format!("poll/{chains}"), |b| {
                b.iter(|| {
                    let mut changes = 0usize;
                    for mutation in [&insert, &delete] {
                        apply(&registry, "R", mutation, parallelism);
                        let lease = registry.read("R").unwrap();
                        let rows = query
                            .execute_with(
                                lease.snapshot(),
                                FamilyKind::Global,
                                Semantics::Certain,
                                parallelism,
                            )
                            .unwrap()
                            .rows()
                            .to_vec();
                        let old: BTreeSet<&Vec<Value>> = previous.iter().collect();
                        let new: BTreeSet<&Vec<Value>> = rows.iter().collect();
                        changes += new.difference(&old).count() + old.difference(&new).count();
                        previous = rows;
                    }
                    assert_eq!(changes, 2, "both swaps change the answer");
                    changes
                })
            });
        }

        // Skip: mutate a table the query never reads; the scope proves the answer
        // unchanged and nothing executes.
        {
            let tables = multi_chain_relations(2, chains, 6);
            let registry = SnapshotRegistry::shared();
            for (instance, fds) in &tables {
                let name = instance.schema().name().to_string();
                registry.publish(
                    &name,
                    EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap(),
                );
            }
            let manager = SubscriptionManager::new(parallelism);
            manager.attach(&registry);
            let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R0(x,b,c,d)").unwrap());
            let sub = manager
                .subscribe(&registry, query, FamilyKind::Global, Semantics::Certain)
                .unwrap();
            let other_insert = Mutation::new().insert("R1", row.clone());
            let other_delete = Mutation::new().delete("R1", row.clone());
            group.bench_function(format!("skip/{chains}"), |b| {
                b.iter(|| {
                    apply(&registry, "R1", &other_insert, parallelism);
                    apply(&registry, "R1", &other_delete, parallelism);
                    let events = manager.drain(sub.id);
                    assert!(events.is_empty(), "unrelated swaps must be proven away");
                    events
                })
            });
            assert_eq!(manager.stats().executions, 1, "only the registration execution ran");
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
