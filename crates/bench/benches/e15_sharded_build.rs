//! E15 — scaling of the sharded snapshot builder and of shard revalidation.
//!
//! Three workloads, each at 1/2/4/8 workers so the fan-out curve is read directly off
//! the report:
//!
//! * `build` — [`EngineBuilder::build_with`] over 8 relations × 2 FDs: stage 1 fans one
//!   conflict-scan job per `(relation, FD)` shard, stage 2 one assembly job per
//!   relation, stage 3 stitches `comp_offset`s sequentially (bit-identical output at
//!   every degree);
//! * `revalidate` — [`EngineSnapshot::derive`] of a priority change on a warmed skewed
//!   instance: only the components the priority change touches are re-enumerated,
//!   fanned across workers largest-first;
//! * `query_skewed` — one certain-answer query over a skewed repair product, exercising
//!   the adaptive chunk split (chunk counts derived from memoised per-component repair
//!   counts) plus work stealing via the shared atomic work index.
//!
//! Parallelism is an execution strategy, not a semantics change: every iteration
//! asserts (cheaply) that the output matches the sequential path.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdqi_core::{
    Change, EngineBuilder, EngineSnapshot, FamilyKind, Parallelism, PreparedQuery, Semantics,
};
use pdqi_datagen::{multi_chain_relations, skewed_chain_instance};
use pdqi_relation::TupleId;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn skewed_snapshot(chains: usize, max_length: usize) -> EngineSnapshot {
    let (instance, fds) = skewed_chain_instance(chains, max_length);
    EngineBuilder::new().relation(instance, fds).build().expect("skewed snapshot builds")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_sharded_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(150));

    // Workload 1: building a multi-relation snapshot (8 relations, 2 FDs each: 16
    // conflict-scan shards + 8 assembly jobs per build).
    let relations = multi_chain_relations(8, 16, 12);
    let reference = {
        let mut builder = EngineBuilder::new();
        for (instance, fds) in &relations {
            builder = builder.relation(instance.clone(), fds.clone());
        }
        builder.build().expect("reference build")
    };
    let expected_components = reference.component_count();
    let expected_shards = reference.shard_count();
    for workers in WORKERS {
        group.bench_with_input(BenchmarkId::new("build/threads", workers), &workers, |b, &n| {
            b.iter(|| {
                let mut builder = EngineBuilder::new().parallelism(Parallelism::threads(n));
                for (instance, fds) in &relations {
                    builder = builder.relation(instance.clone(), fds.clone());
                }
                let snapshot = builder.build().expect("sharded build");
                assert_eq!(snapshot.component_count(), expected_components);
                assert_eq!(snapshot.shard_count(), expected_shards);
                snapshot.component_count()
            })
        });
    }

    // Workload 2: derive-and-revalidate on a warmed skewed snapshot. The priority edge
    // touches the largest chain, so revalidation re-enumerates the most expensive
    // component (and only that one) per family.
    let warm_base = skewed_snapshot(8, 16);
    warm_base.warm_components(FamilyKind::Global, Parallelism::threads(4));
    warm_base.warm_components(FamilyKind::Local, Parallelism::threads(4));
    let priority = pdqi_priority::Priority::from_pairs(
        std::sync::Arc::clone(warm_base.graph()),
        &[(TupleId(0), TupleId(1))],
    )
    .expect("priority over the largest chain");
    let change = Change::Priority { relation: "R".to_string(), priority };
    for workers in WORKERS {
        group.bench_with_input(
            BenchmarkId::new("revalidate/threads", workers),
            &workers,
            |b, &n| {
                b.iter(|| {
                    let (derived, _) = warm_base
                        .derive(&change, Parallelism::threads(n))
                        .expect("revalidated derivation");
                    // Revalidation already recomputed the dropped entries: Global and
                    // Local of the touched component, nothing else.
                    assert_eq!(derived.memo_stats().component_misses, 2);
                    derived.component_count()
                })
            },
        );
    }

    // Workload 3: a possible-answer query over the skewed repair product (per-component
    // repair counts differ by orders of magnitude), split adaptively and stolen from
    // the shared work index. Possible semantics never exits early, so sequential and
    // parallel runs evaluate exactly the same selections and the curve isolates the
    // chunking/stealing machinery. (A Certain query that empties mid-product would
    // instead measure early-exit luck: the sequential fold stops at the emptying
    // selection while chunk-local folds rarely empty locally — inherent amplification
    // on the parallel path, not scheduler overhead.)
    // Lengths 12, 6, 3, 2, 2, 2: per-component repair counts 28/5/2/2/2/2, a ~2.2k
    // selection product with order-of-magnitude skew between digits.
    let query_base = skewed_snapshot(6, 12);
    let open = PreparedQuery::parse("EXISTS a,c,d . R(a,x,c,d)").unwrap();
    let sequential_rows = open
        .execute(&query_base.with_cleared_memo(), FamilyKind::Rep, Semantics::Possible)
        .unwrap()
        .count();
    for workers in WORKERS {
        group.bench_with_input(
            BenchmarkId::new("query_skewed/threads", workers),
            &workers,
            |b, &n| {
                b.iter(|| {
                    let cold = query_base.with_cleared_memo();
                    let rows = open
                        .execute_with(
                            &cold,
                            FamilyKind::Rep,
                            Semantics::Possible,
                            Parallelism::threads(n),
                        )
                        .unwrap()
                        .count();
                    assert_eq!(rows, sequential_rows);
                    rows
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
