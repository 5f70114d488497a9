//! Concurrency contracts of the parallel snapshot engine.
//!
//! Three families of guarantees:
//!
//! * **thread-safety by type** — `EngineSnapshot`, `PreparedQuery` and friends are
//!   `Send + Sync` (asserted statically, so a regression is a compile error);
//! * **shared-snapshot serving** — one snapshot answering interleaved queries from many
//!   threads produces exactly the single-threaded answers;
//! * **determinism** — parallel execution (`execute_with`, `consistent_answer_with`,
//!   `warm_components`, `BatchExecutor`) is bit-identical to sequential execution,
//!   including row order, the `examined` counter and evaluation errors, for all five
//!   families, on fixed instances and on random ones whose chunk boundaries vary.

use std::sync::Arc;

use pdqi::constraints::FdSet;
use pdqi::datagen::{example4_instance, multi_chain_instance};
use pdqi::query::QueryError;
use pdqi::{
    AnswerSet, BatchExecutor, BatchRequest, EngineBuilder, EngineSnapshot, FamilyKind, Parallelism,
    PreparedQuery, RelationInstance, RelationSchema, Semantics, Value, ValueType,
};
use proptest::prelude::*;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn engine_types_are_send_and_sync() {
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<AnswerSet>();
    assert_send_sync::<BatchExecutor>();
    assert_send_sync::<BatchRequest>();
    assert_send_sync::<Parallelism>();
}

/// Example 4 with `n` independent components and a score-derived priority, so every
/// family is non-trivial.
fn prioritised_snapshot(n: usize) -> EngineSnapshot {
    let (instance, fds) = example4_instance(n);
    let scores: Vec<i64> = (0..2 * n as i64).map(|i| if i % 4 == 0 { 5 } else { i % 3 }).collect();
    EngineBuilder::new().relation(instance, fds).priority_from_scores(&scores).build().unwrap()
}

const QUERIES: [&str; 4] = [
    "EXISTS y . R(x,y)",
    "R(x,0)",
    "EXISTS x . R(x,1) AND x < 3",
    "EXISTS x,y . R(x,y) AND x >= 2",
];

#[test]
fn one_snapshot_shared_across_four_threads_answers_interleaved_queries() {
    let snapshot = prioritised_snapshot(6);
    // Single-threaded reference answers, computed on a separate snapshot so the shared
    // one starts cold.
    let reference = prioritised_snapshot(6);
    let mut expected: Vec<Vec<Vec<Value>>> = Vec::new();
    for text in QUERIES {
        let query = PreparedQuery::parse(text).unwrap();
        for kind in FamilyKind::ALL {
            for semantics in [Semantics::Certain, Semantics::Possible] {
                expected.push(query.execute(&reference, kind, semantics).unwrap().collect());
            }
        }
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|worker| {
                let snapshot = snapshot.clone();
                scope.spawn(move || {
                    // Each thread interleaves queries, families and semantics in a
                    // different order (rotated by its index).
                    let mut results = Vec::new();
                    let mut index = 0usize;
                    for text in QUERIES {
                        let query = PreparedQuery::parse(text).unwrap();
                        for kind in FamilyKind::ALL {
                            for semantics in [Semantics::Certain, Semantics::Possible] {
                                results.push((index, query.clone(), kind, semantics));
                                index += 1;
                            }
                        }
                    }
                    let rotation = worker * 7 % results.len();
                    results.rotate_left(rotation);
                    results
                        .into_iter()
                        .map(|(index, query, kind, semantics)| {
                            let rows: Vec<Vec<Value>> =
                                query.execute(&snapshot, kind, semantics).unwrap().collect();
                            (index, rows)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (index, rows) in handle.join().unwrap() {
                assert_eq!(rows, expected[index], "query #{index}");
            }
        }
    });
    // Sanity: the shared memo actually served concurrent executions.
    let stats = snapshot.memo_stats();
    assert!(stats.answer_hits + stats.answer_misses >= 4 * 40);
}

#[test]
fn parallel_answer_sets_are_bit_identical_to_sequential_for_all_families() {
    let snapshot = prioritised_snapshot(6);
    for text in QUERIES {
        let query = PreparedQuery::parse(text).unwrap();
        for kind in FamilyKind::ALL {
            for semantics in [Semantics::Certain, Semantics::Possible] {
                let sequential = query
                    .execute_with(
                        &snapshot.with_cleared_memo(),
                        kind,
                        semantics,
                        Parallelism::sequential(),
                    )
                    .unwrap();
                let parallel = query
                    .execute_with(
                        &snapshot.with_cleared_memo(),
                        kind,
                        semantics,
                        Parallelism::threads(4),
                    )
                    .unwrap();
                assert_eq!(sequential.columns(), parallel.columns());
                // Bit-identical including order: compare the streamed row sequences.
                let sequential: Vec<Vec<Value>> = sequential.collect();
                let parallel: Vec<Vec<Value>> = parallel.collect();
                assert_eq!(sequential, parallel, "{text} / {} / {semantics:?}", kind.label());
            }
        }
    }
}

#[test]
fn parallel_closed_outcomes_match_sequential_including_examined() {
    let snapshot = prioritised_snapshot(5);
    for text in ["EXISTS x . R(x,0)", "R(0,0)", "EXISTS x . R(x,0) AND x > 99"] {
        let query = PreparedQuery::parse(text).unwrap();
        for kind in FamilyKind::ALL {
            let sequential = query
                .consistent_answer_with(
                    &snapshot.with_cleared_memo(),
                    kind,
                    Parallelism::sequential(),
                )
                .unwrap();
            let parallel = query
                .consistent_answer_with(
                    &snapshot.with_cleared_memo(),
                    kind,
                    Parallelism::threads(4),
                )
                .unwrap();
            assert_eq!(sequential, parallel, "{text} / {}", kind.label());
        }
    }
}

#[test]
fn warm_components_is_deterministic_on_a_64_component_instance() {
    let (instance, fds) = multi_chain_instance(64, 8);
    let base = EngineBuilder::new().relation(instance, fds).build().unwrap();
    assert!(base.component_count() >= 64);
    for kind in FamilyKind::ALL {
        let sequential = base.with_cleared_memo();
        sequential.warm_components(kind, Parallelism::sequential());
        let parallel = base.with_cleared_memo();
        parallel.warm_components(kind, Parallelism::threads(4));
        // The memoised per-component enumerations agree exactly: identical counts...
        assert_eq!(
            sequential.preferred_repair_count(kind),
            parallel.preferred_repair_count(kind),
            "{}",
            kind.label()
        );
        // ...and the warmed memo satisfies every later read without recomputation.
        assert_eq!(parallel.warm_components(kind, Parallelism::threads(4)), 0);
        assert_eq!(parallel.memo_stats().component_misses, 64);
    }
}

#[test]
fn batch_executor_serves_interleaved_requests_in_order() {
    let snapshot = prioritised_snapshot(6);
    let reference = prioritised_snapshot(6);
    let mut requests = Vec::new();
    for text in QUERIES {
        let query = Arc::new(PreparedQuery::parse(text).unwrap());
        for kind in FamilyKind::ALL {
            requests.push(BatchRequest::execute(Arc::clone(&query), kind, Semantics::Certain));
        }
    }
    let executor = BatchExecutor::with_parallelism(snapshot, Parallelism::threads(4));
    let responses = executor.run(&requests);
    assert_eq!(responses.len(), requests.len());
    for (request, response) in requests.iter().zip(responses) {
        let BatchRequest::Execute { query, family, semantics } = request else {
            unreachable!("only Execute requests were enqueued")
        };
        let direct: Vec<Vec<Value>> =
            query.execute(&reference, *family, *semantics).unwrap().collect();
        let batched: Vec<Vec<Value>> = response.unwrap().rows().unwrap().clone().collect();
        assert_eq!(direct, batched);
    }
}

/// `R(A int, B)` holding `rows`, with the key dependency `A -> B`.
fn keyed_relation(b: ValueType, rows: Vec<Vec<Value>>) -> (RelationInstance, FdSet) {
    let schema =
        Arc::new(RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", b)]).unwrap());
    let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
    (instance, FdSet::parse(schema, &["A -> B"]).unwrap())
}

/// `R(A int, B name)` keyed by `A`: `(0,'p')`, `(0,'q')` and `(i,'a<i>')`, `(i,'b<i>')`
/// for `i = 1..=m`, so `m + 1` two-tuple components and `2^(m+1)` repairs.
fn two_way_keys(m: i64) -> EngineSnapshot {
    let mut rows =
        vec![vec![Value::int(0), Value::name("p")], vec![Value::int(0), Value::name("q")]];
    for i in 1..=m {
        rows.push(vec![Value::int(i), Value::name(&format!("a{i}"))]);
        rows.push(vec![Value::int(i), Value::name(&format!("b{i}"))]);
    }
    let (instance, fds) = keyed_relation(ValueType::Name, rows);
    EngineBuilder::new().relation(instance, fds).build().unwrap()
}

#[test]
fn errors_raised_by_one_repair_surface_at_every_parallelism() {
    // Only the repair holding (0,'p') and every (i,'b<i>') reaches `y < 'z'`, which is a
    // type error on names. It is the last repair of the half that holds (0,'p'), where
    // 'p' stays a certain answer, so the sequential walk fails there before the half
    // holding (0,'q') empties the certain answers. Each product splits into one chunk
    // per worker: the chunks of the (0,'q') half settle within two repairs while an
    // earlier chunk is still on its way to the failing repair, and must not hide it.
    for (workers, m) in [(2, 5), (4, 6)] {
        let snapshot = two_way_keys(m);
        let all_b: String = (1..=m).map(|i| format!(" AND R({i},'b{i}')")).collect();
        let guard = format!("(y = 'p'{all_b}) -> y < 'z'");
        let open = PreparedQuery::parse(&format!(
            "EXISTS x . R(x,y) AND (y = 'p' OR x = {m}) AND ({guard})"
        ))
        .unwrap();
        let closed =
            PreparedQuery::parse(&format!("EXISTS x,y . R(x,y) AND y = 'p' AND ({guard})"))
                .unwrap();
        let fresh = || snapshot.with_cleared_memo();
        let open_error =
            open.execute(&fresh(), FamilyKind::Rep, Semantics::Certain).map(|_| ()).unwrap_err();
        let closed_error = closed.consistent_answer(&fresh(), FamilyKind::Rep).unwrap_err();
        assert!(matches!(open_error, QueryError::TypeError(_)), "{open_error}");
        assert_eq!(closed.closed_profile(&fresh(), FamilyKind::Rep).unwrap_err(), closed_error);
        let parallelism = Parallelism::threads(workers);
        for _ in 0..8 {
            let shared = fresh();
            for _ in 0..2 {
                // The second execution on the same snapshot would serve a memoised
                // answer, had the first one stored one.
                let rows =
                    open.execute_with(&shared, FamilyKind::Rep, Semantics::Certain, parallelism);
                assert_eq!(rows.map(|_| ()).unwrap_err(), open_error, "{workers} workers");
            }
            let outcome = closed.consistent_answer_with(&fresh(), FamilyKind::Rep, parallelism);
            assert_eq!(outcome.unwrap_err(), closed_error, "{workers} workers");
        }
    }
}

/// Open and closed queries over `R(x,y)`: the shapes of the prepared-query parallel
/// test plus a closed join.
const RANDOM_QUERIES: [&str; 4] = [
    "EXISTS y . R(x,y)",
    "EXISTS x . R(x,y) AND y >= 1",
    "EXISTS x,y . R(x,y) AND x > y",
    "EXISTS x,y . R(x,0) AND R(y,1) AND x < y",
];

/// A relation keyed by `A` with one conflict component per `(draw, offset)` entry —
/// three tuples sharing the key when `draw` is 3 and two otherwise, with distinct `B`
/// values from `offset` on — plus `clean` conflict-free rows, prioritised by per-tuple
/// `scores` (higher wins; ties stay unoriented, so the priority is acyclic). Drawing
/// three-tuple components a quarter of the time keeps the products, and the debug-build
/// runtime, small.
fn random_components(components: &[(usize, i64)], clean: usize, scores: &[i64]) -> EngineSnapshot {
    let mut rows = Vec::new();
    for (key, &(draw, offset)) in components.iter().enumerate() {
        let size = if draw == 3 { 3 } else { 2 };
        for j in 0..size {
            rows.push(vec![Value::int(key as i64), Value::int((offset + j) % 4)]);
        }
    }
    for j in 0..clean as i64 {
        rows.push(vec![Value::int(100 + j), Value::int(j % 4)]);
    }
    let scores = &scores[..rows.len()];
    let (instance, fds) = keyed_relation(ValueType::Int, rows);
    EngineBuilder::new().relation(instance, fds).priority_from_scores(scores).build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunk boundaries move with the component count, the component sizes and the
    /// worker count; answers, closed outcomes (`examined` included) and closed profiles
    /// must not.
    #[test]
    fn randomised_instances_answer_identically_at_every_parallelism(
        components in prop::collection::vec((0usize..4, 0i64..4), 1..9),
        clean in 0usize..4,
        scores in prop::collection::vec(0i64..3, 27..28),
    ) {
        let snapshot = random_components(&components, clean, &scores);
        for text in RANDOM_QUERIES {
            let query = PreparedQuery::parse(text).unwrap();
            for kind in FamilyKind::ALL {
                for semantics in [Semantics::Certain, Semantics::Possible] {
                    let rows = |workers: usize| -> Vec<Vec<Value>> {
                        let parallelism = Parallelism::threads(workers);
                        let fresh = snapshot.with_cleared_memo();
                        query.execute_with(&fresh, kind, semantics, parallelism).unwrap().collect()
                    };
                    let sequential = rows(1);
                    for workers in 2..=4 {
                        prop_assert_eq!(&rows(workers), &sequential);
                    }
                }
                if query.is_closed() {
                    let outcome = |workers: usize| {
                        let parallelism = Parallelism::threads(workers);
                        let fresh = snapshot.with_cleared_memo();
                        query.consistent_answer_with(&fresh, kind, parallelism).unwrap()
                    };
                    let sequential = outcome(1);
                    for workers in 2..=4 {
                        prop_assert_eq!(outcome(workers), sequential);
                    }
                    let profile = query.closed_profile(&snapshot.with_cleared_memo(), kind);
                    let profile = profile.unwrap();
                    prop_assert_eq!(profile.outcome(), sequential);
                    for workers in 2..=4 {
                        let parallelism = Parallelism::threads(workers);
                        let fresh = snapshot.with_cleared_memo();
                        let parallel = query.closed_profile_with(&fresh, kind, parallelism);
                        prop_assert_eq!(parallel.unwrap(), profile);
                    }
                }
            }
        }
    }
}
