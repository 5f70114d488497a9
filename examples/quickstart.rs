//! Quickstart: the paper's running example (Examples 1–3) end to end.
//!
//! Run with `cargo run --example quickstart`.
//!
//! The example integrates the three sources of Example 1 into an inconsistent manager
//! relation, freezes it into an engine snapshot, prepares the paper's queries Q1 and Q2
//! once, and then derives a snapshot from a `Change` installing the Example 3 reliability
//! preferences to see how the preferred consistent answers change — the
//! builder/prepared/derive flow that amortizes all repair-space work across executions.

use std::sync::Arc;

use pdqi::priority::{priority_from_source_reliability, SourceOrder};
use pdqi::{
    Change, EngineBuilder, FamilyKind, FdSet, Parallelism, PreparedQuery, RelationInstance,
    RelationSchema, Value, ValueType,
};

fn main() {
    // Schema and key dependencies of Example 1.
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
        .expect("valid schema"),
    );
    let fds = FdSet::parse(
        Arc::clone(&schema),
        &["Dept -> Name Salary Reports", "Name -> Dept Salary Reports"],
    )
    .expect("valid functional dependencies");

    // The integrated instance r = s1 ∪ s2 ∪ s3.
    let instance = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec!["Mary".into(), "R&D".into(), Value::int(40), Value::int(3)], // from s1
            vec!["John".into(), "R&D".into(), Value::int(10), Value::int(2)], // from s2
            vec!["Mary".into(), "IT".into(), Value::int(20), Value::int(1)],  // from s3
            vec!["John".into(), "PR".into(), Value::int(30), Value::int(4)],  // from s3
        ],
    )
    .expect("rows match the schema");

    // Build the immutable snapshot once: conflict graph and components are computed
    // here and shared by everything below.
    let snapshot = EngineBuilder::new().relation(instance, fds).build().expect("snapshot builds");
    let stored = snapshot.context().instance();
    println!("Integrated instance:\n{}", pdqi::relation::text::render_instance(stored));
    println!("Consistent? {}", snapshot.is_consistent());
    println!("Number of repairs (Example 2): {}", snapshot.count_repairs());
    for (i, repair) in snapshot.repairs(10).iter().enumerate() {
        let tuples: Vec<String> =
            repair.iter().map(|id| stored.tuple_unchecked(id).to_string()).collect();
        println!("  repair r{}: {}", i + 1, tuples.join(", "));
    }

    // Prepare the paper's queries once; they can run against any snapshot and family.
    // Q1: does John earn more than Mary?  Q2: does Mary earn more with fewer reports?
    let q1 = PreparedQuery::parse(
        "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 < s2",
    )
    .expect("valid query");
    let q2 = PreparedQuery::parse(
        "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 > s2 AND r1 < r2",
    )
    .expect("valid query");

    println!("\nWithout preferences (classic consistent query answers):");
    for (name, query) in [("Q1", &q1), ("Q2", &q2)] {
        let outcome = query.consistent_answer(&snapshot, FamilyKind::Rep).expect("valid query");
        println!(
            "  {name}: certainly true = {}, certainly false = {}, undetermined = {}",
            outcome.certainly_true,
            outcome.certainly_false,
            outcome.is_undetermined()
        );
    }

    // Example 3: source s3 is less reliable than s1 and s2 (s1 vs s2 unknown).
    // Deriving a snapshot from the priority change is cheap: the conflict graph is shared
    // and only the components the priority touches are re-enumerated.
    let mut order = SourceOrder::new();
    order.prefer("s1", "s3").prefer("s2", "s3");
    let sources = vec!["s1".to_string(), "s2".to_string(), "s3".to_string(), "s3".to_string()];
    let priority = priority_from_source_reliability(Arc::clone(snapshot.graph()), &sources, &order);
    let change = Change::Priority { relation: "Mgr".to_string(), priority };
    let (revised, report) =
        snapshot.derive(&change, Parallelism::sequential()).expect("the priority fits");

    println!("\nWith the Example 3 reliability priority, under G-Rep:");
    println!(
        "  derivation: {} component(s) touched, {} memo entries carried, {} re-enumerated",
        report.invalidated_components, report.carried_entries, report.recomputed_entries
    );
    println!("  preferred repairs: {}", revised.preferred_repairs(FamilyKind::Global, 10).len());
    for (name, query) in [("Q1", &q1), ("Q2", &q2)] {
        let outcome = query.consistent_answer(&revised, FamilyKind::Global).expect("valid query");
        println!(
            "  {name}: certainly true = {}, certainly false = {}",
            outcome.certainly_true, outcome.certainly_false
        );
    }
    println!("\n(The paper's point: Q2 becomes certainly true once the preferences are used,");
    println!(" while cleaning the database with the same information would answer false.)");
}
