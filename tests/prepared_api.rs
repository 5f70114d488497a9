//! Integration tests for the prepared-query engine API: `EngineBuilder`,
//! `EngineSnapshot`, `PreparedQuery` and the snapshot memo. Covers the contracts the
//! redesign promises: snapshot immutability, derivation-equals-fresh-build under
//! priority changes, prepared-query reuse across snapshots and families, and the
//! no-repeat-enumeration guarantee of the memo.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pdqi::datagen::{random_conflict_instance, random_priority};
use pdqi::{
    Change, ChangeError, EngineBuilder, EngineSnapshot, FamilyKind, FdSet, Parallelism,
    PreparedQuery, Priority, RelationInstance, RelationSchema, Semantics, TupleId, Value,
    ValueType,
};

/// Derives a single-relation `snapshot` under `priority`.
fn revise(snapshot: &EngineSnapshot, priority: Priority) -> Result<EngineSnapshot, ChangeError> {
    let relation = snapshot.context().instance().schema().name().to_string();
    let change = Change::Priority { relation, priority };
    snapshot.derive(&change, Parallelism::sequential()).map(|(derived, _)| derived)
}

/// The paper's Example 1 instance with its two key dependencies.
fn example1() -> (RelationInstance, FdSet) {
    let schema = Arc::new(
        RelationSchema::from_pairs(
            "Mgr",
            &[
                ("Name", ValueType::Name),
                ("Dept", ValueType::Name),
                ("Salary", ValueType::Int),
                ("Reports", ValueType::Int),
            ],
        )
        .unwrap(),
    );
    let instance = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec!["Mary".into(), "R&D".into(), Value::int(40), Value::int(3)],
            vec!["John".into(), "R&D".into(), Value::int(10), Value::int(2)],
            vec!["Mary".into(), "IT".into(), Value::int(20), Value::int(1)],
            vec!["John".into(), "PR".into(), Value::int(30), Value::int(4)],
        ],
    )
    .unwrap();
    let fds = FdSet::parse(schema, &["Dept -> Name Salary Reports", "Name -> Dept Salary Reports"])
        .unwrap();
    (instance, fds)
}

fn example1_snapshot() -> EngineSnapshot {
    let (instance, fds) = example1();
    EngineBuilder::new().relation(instance, fds).build().unwrap()
}

const Q2: &str = "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 > s2 AND r1 < r2";

#[test]
fn snapshots_are_immutable_and_cheap_to_share() {
    let snapshot = example1_snapshot();
    let clone = snapshot.clone();
    // Clones share everything, including the conflict graph and the memo.
    assert!(Arc::ptr_eq(snapshot.graph(), clone.graph()));
    clone.preferred_repairs(FamilyKind::Local, usize::MAX);
    assert!(snapshot.memo_stats().component_misses > 0, "clones share one memo");

    // Deriving a revised snapshot leaves the original untouched.
    let priority = snapshot
        .context()
        .priority_from_pairs(&[(TupleId(0), TupleId(2)), (TupleId(1), TupleId(3))])
        .unwrap();
    let revised = revise(&snapshot, priority).unwrap();
    assert_eq!(snapshot.priority().edge_count(), 0, "original priority unchanged");
    assert_eq!(revised.priority().edge_count(), 2);
    assert_eq!(snapshot.preferred_repairs(FamilyKind::Global, 10).len(), 3);
    assert_eq!(revised.preferred_repairs(FamilyKind::Global, 10).len(), 2);
}

#[test]
fn executing_twice_repeats_no_component_enumeration() {
    let snapshot = example1_snapshot();
    let query = PreparedQuery::parse(Q2).unwrap();
    let first = query.consistent_answer(&snapshot, FamilyKind::Global).unwrap();
    let after_first = snapshot.memo_stats();
    assert!(after_first.component_misses > 0, "the first run enumerates components");
    assert_eq!(after_first.answer_hits, 0);

    let second = query.consistent_answer(&snapshot, FamilyKind::Global).unwrap();
    let after_second = snapshot.memo_stats();
    assert_eq!(first, second);
    // The acceptance criterion of the redesign: a prepared query executed twice against
    // the same snapshot does not re-enumerate any component.
    assert_eq!(
        after_second.component_misses, after_first.component_misses,
        "second execution must not enumerate components again"
    );
    assert!(after_second.answer_hits > 0, "second execution is an answer-memo hit");

    // The same holds for open-query executions.
    let open = PreparedQuery::parse("EXISTS d,s,r . Mgr(x,d,s,r)").unwrap();
    let rows: Vec<_> =
        open.execute(&snapshot, FamilyKind::Rep, Semantics::Certain).unwrap().collect();
    let mid = snapshot.memo_stats();
    let again: Vec<_> =
        open.execute(&snapshot, FamilyKind::Rep, Semantics::Certain).unwrap().collect();
    let end = snapshot.memo_stats();
    assert_eq!(rows, again);
    assert_eq!(mid.component_misses, end.component_misses);
}

#[test]
fn with_priority_answers_match_a_fresh_build() {
    // On random instances and random priorities: deriving a snapshot via a priority change
    // must be indistinguishable (answer-wise) from building from scratch.
    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..8 {
        let (instance, fds) = random_conflict_instance(8, 0.8, &mut rng);
        let base = EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap();
        // Warm the memo so derivation has something to selectively invalidate.
        for kind in FamilyKind::ALL {
            base.preferred_repair_count(kind);
        }
        let priority = random_priority(Arc::clone(base.graph()), 0.7, &mut rng);
        let pairs = priority.edges();
        let derived = revise(&base, priority).unwrap();
        let fresh =
            EngineBuilder::new().relation(instance, fds).priority_pairs(&pairs).build().unwrap();
        for kind in FamilyKind::ALL {
            let mut from_derived = derived.preferred_repairs(kind, usize::MAX);
            let mut from_fresh = fresh.preferred_repairs(kind, usize::MAX);
            from_derived.sort_by_key(|s| s.iter().collect::<Vec<_>>());
            from_fresh.sort_by_key(|s| s.iter().collect::<Vec<_>>());
            assert_eq!(
                from_derived,
                from_fresh,
                "round {round}: derived and fresh {} repairs differ",
                kind.label()
            );
        }
        let query = PreparedQuery::parse("EXISTS a,b,c . R(a,b,c) AND b < 2").unwrap();
        for kind in FamilyKind::ALL {
            let a = query.consistent_answer(&derived, kind).unwrap();
            let b = query.consistent_answer(&fresh, kind).unwrap();
            assert_eq!(a.certainly_true, b.certainly_true, "round {round} {}", kind.label());
            assert_eq!(a.certainly_false, b.certainly_false, "round {round} {}", kind.label());
        }
    }
}

#[test]
fn with_priority_keeps_priority_independent_memo_entries() {
    let snapshot = example1_snapshot();
    snapshot.count_repairs(); // warm the Rep entries
    let warmed = snapshot.memo_stats();
    assert!(warmed.component_misses > 0);
    let priority = snapshot.context().priority_from_pairs(&[(TupleId(0), TupleId(1))]).unwrap();
    let revised = revise(&snapshot, priority).unwrap();
    assert_eq!(revised.count_repairs(), 3);
    let stats = revised.memo_stats();
    assert_eq!(stats.component_misses, 0, "Rep enumeration must carry over");
    assert!(stats.component_hits > 0);
}

#[test]
fn one_prepared_query_serves_every_snapshot_and_family() {
    let (instance, fds) = example1();
    let query = PreparedQuery::parse(Q2).unwrap();

    let plain = EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap();
    // Example 3's reliability priority via explicit pairs.
    let pairs = [(TupleId(0), TupleId(2)), (TupleId(1), TupleId(3))];
    let preferred = revise(&plain, plain.context().priority_from_pairs(&pairs).unwrap()).unwrap();

    // Same PreparedQuery object across two snapshots and all five families.
    assert!(query.consistent_answer(&plain, FamilyKind::Rep).unwrap().is_undetermined());
    for kind in FamilyKind::ALL {
        let outcome = query.consistent_answer(&preferred, kind).unwrap();
        match kind {
            FamilyKind::Rep => assert!(outcome.is_undetermined()),
            _ => assert!(outcome.certainly_true, "{} should settle Q2", kind.label()),
        }
    }
    // Fingerprints do not depend on the snapshot.
    assert_eq!(query.fingerprint(), PreparedQuery::parse(Q2).unwrap().fingerprint());
}

#[test]
fn derived_snapshots_agree_with_fresh_builds_on_random_workloads() {
    let mut rng = StdRng::seed_from_u64(7);
    let queries =
        ["EXISTS a,b,c . R(a,b,c)", "EXISTS a,c . R(a,0,c)", "EXISTS a,b,c . R(a,b,c) AND b > 0"];
    for _ in 0..6 {
        let (instance, fds) = random_conflict_instance(7, 0.7, &mut rng);
        let snapshot =
            EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap();
        let priority = random_priority(Arc::clone(snapshot.graph()), 0.5, &mut rng);
        let pairs = priority.edges();
        let snapshot = revise(&snapshot, priority).unwrap();
        // A fresh build with the same priority pairs: no carried-over memo at all.
        let fresh =
            EngineBuilder::new().relation(instance, fds).priority_pairs(&pairs).build().unwrap();
        for text in queries {
            let prepared = PreparedQuery::parse(text).unwrap();
            for kind in FamilyKind::ALL {
                let piped = prepared.consistent_answer(&snapshot, kind).unwrap();
                let scratch = prepared.consistent_answer(&fresh, kind).unwrap();
                assert_eq!(piped.certainly_true, scratch.certainly_true, "{text} {}", kind.label());
                assert_eq!(
                    piped.certainly_false,
                    scratch.certainly_false,
                    "{text} {}",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn answer_sets_stream_and_expose_columns() {
    let snapshot = example1_snapshot();
    let query = PreparedQuery::parse("EXISTS s,r . Mgr('Mary',x,s,r)").unwrap();
    let mut possible = query.execute(&snapshot, FamilyKind::Rep, Semantics::Possible).unwrap();
    assert_eq!(possible.columns(), ["x".to_string()]);
    assert_eq!(possible.len(), 2);
    // Streaming: the cursor yields rows one by one, in sorted order.
    let first = possible.next().unwrap();
    assert_eq!(possible.len(), 1);
    let second = possible.next().unwrap();
    assert!(possible.next().is_none());
    assert!(first < second);
}

#[test]
fn multi_relation_snapshots_answer_cross_relation_queries() {
    let (mgr, mgr_fds) = example1();
    let schema = Arc::new(
        RelationSchema::from_pairs("Dept", &[("Name", ValueType::Name), ("Floor", ValueType::Int)])
            .unwrap(),
    );
    let dept = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec!["R&D".into(), Value::int(1)],
            vec!["R&D".into(), Value::int(2)], // conflicting floor reports
            vec!["IT".into(), Value::int(3)],
        ],
    )
    .unwrap();
    let dept_fds = FdSet::parse(schema, &["Name -> Floor"]).unwrap();
    let snapshot = EngineBuilder::new()
        .relation(mgr, mgr_fds)
        .relation(dept, dept_fds)
        .priority_pairs(&[(TupleId(0), TupleId(1))]) // floor 1 beats floor 2
        .build()
        .unwrap();
    assert_eq!(snapshot.relation_count(), 2);
    // 3 Mgr repairs × 2 Dept repairs.
    assert_eq!(snapshot.count_repairs(), 6);
    assert_eq!(snapshot.preferred_repair_count(FamilyKind::Global), 3);

    // Which floors certainly host a manager's department? Under G-Rep the Dept conflict
    // resolves to floor 1, but Mgr's manager set stays uncertain, so the join is only
    // certain where every Mgr repair supplies the department.
    let query = PreparedQuery::parse("EXISTS n,d,s,r . Mgr(n,d,s,r) AND Dept(d,x)").unwrap();
    let possible = query.possible_answers(&snapshot, FamilyKind::Global).unwrap();
    assert_eq!(possible, vec![vec![Value::int(1)], vec![Value::int(3)]]);
    let certain = query.certain_answers(&snapshot, FamilyKind::Global).unwrap();
    assert!(certain.is_empty());
}

#[test]
fn builder_reports_errors_and_snapshot_rejects_foreign_priorities() {
    let (instance, fds) = example1();
    let err = EngineBuilder::new()
        .relation(instance.clone(), fds.clone())
        .relation(instance.clone(), fds.clone())
        .build();
    assert!(err.is_err());
    let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
    // A priority over a different conflict graph is rejected.
    let (other, other_fds) = {
        let schema = Arc::new(
            RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", ValueType::Int)])
                .unwrap(),
        );
        let instance = RelationInstance::from_rows(
            Arc::clone(&schema),
            vec![vec![Value::int(1), Value::int(1)], vec![Value::int(1), Value::int(2)]],
        )
        .unwrap();
        (instance, FdSet::parse(schema, &["A -> B"]).unwrap())
    };
    let foreign = EngineBuilder::new().relation(other, other_fds).build().unwrap();
    let priority = foreign.context().priority_from_pairs(&[(TupleId(0), TupleId(1))]).unwrap();
    assert!(revise(&snapshot, priority).is_err());
}
