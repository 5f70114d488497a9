//! Integration tests replaying every worked example and figure of the paper end to end,
//! through the public façade API only.

use std::sync::Arc;

use pdqi::core::clean_with_total_priority;
use pdqi::priority::priority_from_source_reliability;
use pdqi::priority::SourceOrder;
use pdqi::{
    Change, ConflictGraph, EngineBuilder, EngineSnapshot, FamilyKind, FdSet, Parallelism,
    PreparedQuery, RelationInstance, RelationSchema, TupleId, TupleSet, Value, ValueType,
};

const Q1: &str =
    "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 < s2";
const Q2: &str = "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 > s2 AND r1 < r2";

fn mgr_schema() -> Arc<RelationSchema> {
    Arc::new(
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
    )
}

fn example1_snapshot() -> EngineSnapshot {
    let schema = mgr_schema();
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
    EngineBuilder::new().relation(instance, fds).build().unwrap()
}

/// The Example 3 reliability priority (`s3` below `s1` and `s2`) over a snapshot's
/// conflict graph.
fn example3_priority(snapshot: &EngineSnapshot) -> pdqi::Priority {
    let mut order = SourceOrder::new();
    order.prefer("s1", "s3").prefer("s2", "s3");
    let sources = vec!["s1".to_string(), "s2".to_string(), "s3".to_string(), "s3".to_string()];
    priority_from_source_reliability(Arc::clone(snapshot.graph()), &sources, &order)
}

/// `snapshot` revised under the Example 3 priority.
fn example3_revision(snapshot: &EngineSnapshot) -> EngineSnapshot {
    let priority = example3_priority(snapshot);
    let change = Change::Priority { relation: "Mgr".to_string(), priority };
    snapshot.derive(&change, Parallelism::sequential()).unwrap().0
}

fn answer(snapshot: &EngineSnapshot, query: &str, kind: FamilyKind) -> pdqi::CqaOutcome {
    PreparedQuery::parse(query).unwrap().consistent_answer(snapshot, kind).unwrap()
}

#[test]
fn example_1_the_integrated_instance_has_three_conflicts_and_a_misleading_q1() {
    let snapshot = example1_snapshot();
    assert!(!snapshot.is_consistent());
    assert_eq!(snapshot.graph().edge_count(), 3);
    // Evaluating Q1 directly over the inconsistent instance yields the misleading `true`.
    let direct = pdqi::Evaluator::with_relation(snapshot.context().instance())
        .eval_closed(&pdqi::parse_formula(Q1).unwrap())
        .unwrap();
    assert!(direct);
}

#[test]
fn example_2_the_three_repairs_and_the_classic_consistent_answer_to_q1() {
    let snapshot = example1_snapshot();
    assert_eq!(snapshot.count_repairs(), 3);
    let outcome = answer(&snapshot, Q1, FamilyKind::Rep);
    assert!(!outcome.certainly_true, "true is not a consistent answer to Q1");
}

#[test]
fn example_3_partial_reliability_makes_q2_certainly_true_under_preferred_repairs() {
    let snapshot = example1_snapshot();
    // Without preferences neither true nor false is a consistent answer to Q2.
    let before = answer(&snapshot, Q2, FamilyKind::Rep);
    assert!(before.is_undetermined());

    // Revising the priority derives a snapshot sharing the graph and components.
    let revised = example3_revision(&snapshot);

    // The preferred repairs are r1 and r2 of Example 2 (r3 uses only the unreliable s3).
    let preferred = revised.preferred_repairs(FamilyKind::Global, 10);
    assert_eq!(preferred.len(), 2);
    let r3 = TupleSet::from_ids([TupleId(2), TupleId(3)]);
    assert!(!preferred.contains(&r3));

    let after = answer(&revised, Q2, FamilyKind::Global);
    assert!(after.certainly_true, "true is the preferred consistent answer to Q2");
}

#[test]
fn example_4_and_figure_1_the_repair_space_is_two_to_the_n() {
    let schema = Arc::new(
        RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", ValueType::Int)]).unwrap(),
    );
    for n in [1i64, 4, 12] {
        let mut rows = Vec::new();
        for i in 0..n {
            rows.push(vec![Value::int(i), Value::int(0)]);
            rows.push(vec![Value::int(i), Value::int(1)]);
        }
        let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
        let fds = FdSet::parse(Arc::clone(&schema), &["A -> B"]).unwrap();
        let graph = ConflictGraph::build(&instance, &fds);
        // Figure 1: the conflict graph is a perfect matching of n edges.
        assert_eq!(graph.edge_count(), n as usize);
        assert_eq!(graph.max_degree(), 1);
        let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
        assert_eq!(snapshot.count_repairs(), 1u128 << n);
    }
    // A consistent relation has exactly one repair: itself.
    let consistent = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![vec![Value::int(0), Value::int(0)], vec![Value::int(1), Value::int(1)]],
    )
    .unwrap();
    let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
    let snapshot = EngineBuilder::new().relation(consistent, fds).build().unwrap();
    assert_eq!(snapshot.count_repairs(), 1);
}

#[test]
fn example_7_and_figure_2_local_optimality_uses_the_priority_on_a_key_relation() {
    let schema = Arc::new(
        RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", ValueType::Int)]).unwrap(),
    );
    let instance = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec![Value::int(1), Value::int(1)], // ta
            vec![Value::int(1), Value::int(2)], // tb
            vec![Value::int(1), Value::int(3)], // tc
        ],
    )
    .unwrap();
    let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
    let snapshot = EngineBuilder::new()
        .relation(instance, fds)
        .priority_pairs(&[(TupleId(0), TupleId(2)), (TupleId(0), TupleId(1))])
        .build()
        .unwrap();
    // Figure 2: the conflict graph is a triangle; the three singletons are the repairs.
    assert_eq!(snapshot.graph().edge_count(), 3);
    assert_eq!(snapshot.count_repairs(), 3);
    // Only r1 = {ta} is locally preferred.
    assert_eq!(
        snapshot.preferred_repairs(FamilyKind::Local, 10),
        vec![TupleSet::from_ids([TupleId(0)])]
    );
}

#[test]
fn example_8_and_figure_3_non_categoricity_of_l_rep_but_not_of_s_rep() {
    let schema = Arc::new(
        RelationSchema::from_pairs(
            "R",
            &[("A", ValueType::Int), ("B", ValueType::Int), ("C", ValueType::Int)],
        )
        .unwrap(),
    );
    let instance = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec![Value::int(1), Value::int(1), Value::int(1)], // ta
            vec![Value::int(1), Value::int(1), Value::int(2)], // tb
            vec![Value::int(1), Value::int(2), Value::int(3)], // tc
        ],
    )
    .unwrap();
    let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
    let snapshot = EngineBuilder::new()
        .relation(instance, fds)
        .priority_pairs(&[(TupleId(2), TupleId(0)), (TupleId(2), TupleId(1))])
        .build()
        .unwrap();
    assert!(snapshot.priority().is_total());
    // Figure 3: tc conflicts with both ta and tb; the repairs are {ta,tb} and {tc}.
    assert_eq!(snapshot.count_repairs(), 2);
    // Both repairs are locally optimal (P4 fails for L-Rep) ...
    assert_eq!(snapshot.preferred_repairs(FamilyKind::Local, 10).len(), 2);
    // ... but S-Rep, G-Rep and C-Rep all select only {tc}.
    let tc_only = vec![TupleSet::from_ids([TupleId(2)])];
    assert_eq!(snapshot.preferred_repairs(FamilyKind::SemiGlobal, 10), tc_only);
    assert_eq!(snapshot.preferred_repairs(FamilyKind::Global, 10), tc_only);
    assert_eq!(snapshot.preferred_repairs(FamilyKind::Common, 10), tc_only);
}

#[test]
fn example_9_and_figure_4_the_path_conflict_graph_and_the_family_hierarchy() {
    // The literal tuple data of Example 9 (see EXPERIMENTS.md for the erratum note: the
    // printed repair list of the paper omits two of the path's maximal independent sets).
    let schema = Arc::new(
        RelationSchema::from_pairs(
            "R",
            &[
                ("A", ValueType::Int),
                ("B", ValueType::Int),
                ("C", ValueType::Int),
                ("D", ValueType::Int),
            ],
        )
        .unwrap(),
    );
    let instance = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec![Value::int(1), Value::int(1), Value::int(0), Value::int(0)], // ta
            vec![Value::int(1), Value::int(2), Value::int(1), Value::int(1)], // tb
            vec![Value::int(2), Value::int(1), Value::int(1), Value::int(2)], // tc
            vec![Value::int(2), Value::int(2), Value::int(2), Value::int(1)], // td
            vec![Value::int(0), Value::int(0), Value::int(2), Value::int(2)], // te
        ],
    )
    .unwrap();
    let fds = FdSet::parse(schema, &["A -> B", "C -> D"]).unwrap();
    let snapshot = EngineBuilder::new()
        .relation(instance, fds)
        .priority_pairs(&[
            (TupleId(0), TupleId(1)),
            (TupleId(1), TupleId(2)),
            (TupleId(2), TupleId(3)),
            (TupleId(3), TupleId(4)),
        ])
        .build()
        .unwrap();
    // Figure 4: the conflict graph is the path ta – tb – tc – td – te.
    assert_eq!(snapshot.graph().edge_count(), 4);
    assert_eq!(snapshot.graph().max_degree(), 2);
    // The paper's r1 and r2 are repairs; the alternating r1 is the preferred one for
    // every optimality-based family, and Algorithm 1 computes exactly r1.
    let r1 = TupleSet::from_ids([TupleId(0), TupleId(2), TupleId(4)]);
    let r2 = TupleSet::from_ids([TupleId(1), TupleId(3)]);
    let repairs = snapshot.repairs(10);
    assert!(repairs.contains(&r1) && repairs.contains(&r2));
    assert_eq!(snapshot.preferred_repairs(FamilyKind::Global, 10), vec![r1.clone()]);
    assert_eq!(snapshot.preferred_repairs(FamilyKind::Common, 10), vec![r1.clone()]);
    let cleaned = clean_with_total_priority(snapshot.graph(), snapshot.priority()).unwrap();
    assert_eq!(cleaned, r1);
}

#[test]
fn figure_5_family_inclusion_chain_on_the_motivating_instance() {
    // C-Rep ⊆ G-Rep ⊆ S-Rep ⊆ L-Rep ⊆ Rep under the Example 3 priority.
    let base = example1_snapshot();
    let snapshot = example3_revision(&base);
    let by_kind: Vec<Vec<TupleSet>> =
        FamilyKind::ALL.iter().map(|kind| snapshot.preferred_repairs(*kind, 100)).collect();
    let [rep, local, semi, global, common] = &by_kind[..] else { unreachable!() };
    for set in local {
        assert!(rep.contains(set));
    }
    for set in semi {
        assert!(local.contains(set));
    }
    for set in global {
        assert!(semi.contains(set));
    }
    for set in common {
        assert!(global.contains(set));
    }
}
