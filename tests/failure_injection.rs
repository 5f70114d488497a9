//! Failure injection across the public surface: malformed queries, malformed SQL,
//! schema violations, illegal priorities and unsupported closed-form requests must all
//! surface as errors (never panics) and must leave the surrounding state usable — and a
//! panic inside a registry write (a change closure, a derivation or a swap observer)
//! must never leave a table unusable.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pdqi::aggregate::{range_closed_form, AggregateFunction, AggregateQuery, ClosedFormError};
use pdqi::core::cqa::preferred_consistent_answer;
use pdqi::core::{ReviseError, SwapEvent, SwapObserver};
use pdqi::datagen::multi_chain_instance;
use pdqi::priority::PriorityError;
use pdqi::query::parse_formula;
use pdqi::sql::Session;
use pdqi::{
    Change, ChangeScope, EngineBuilder, EngineSnapshot, FamilyKind, FdSet, Mutation, Parallelism,
    PreparedQuery, RelationInstance, RelationSchema, RepairContext, Semantics, SnapshotRegistry,
    TupleId, Value, ValueType, WriteCoalescer, WriteFrame,
};

fn mgr_context() -> RepairContext {
    let schema = Arc::new(
        RelationSchema::from_pairs(
            "Mgr",
            &[("Name", ValueType::Name), ("Dept", ValueType::Name), ("Salary", ValueType::Int)],
        )
        .unwrap(),
    );
    let instance = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec!["Mary".into(), "R&D".into(), Value::int(40)],
            vec!["Mary".into(), "IT".into(), Value::int(20)],
            vec!["John".into(), "PR".into(), Value::int(30)],
        ],
    )
    .unwrap();
    let fds = FdSet::parse(schema, &["Name -> Dept Salary"]).unwrap();
    RepairContext::new(instance, fds)
}

#[test]
fn malformed_formulas_are_parse_errors_not_panics() {
    for text in [
        "",
        "EXISTS . R(x)",
        "R(x,, y)",
        "EXISTS x R(x)",       // missing the dot
        "R(x) AND",            // dangling connective
        "FORALL x . R(x",      // unbalanced parenthesis
        "R('unterminated, 3)", // unterminated string literal
        "1 <",                 // incomplete comparison
    ] {
        assert!(parse_formula(text).is_err(), "`{text}` should not parse");
    }
}

#[test]
fn open_formulas_are_rejected_by_closed_query_answering() {
    let ctx = mgr_context();
    let open = parse_formula("Mgr(x, 'R&D', s)").unwrap();
    let result = preferred_consistent_answer(
        &ctx,
        &ctx.empty_priority(),
        FamilyKind::Rep.family().as_ref(),
        &open,
    );
    assert!(result.is_err());
}

#[test]
fn queries_over_unknown_relations_or_wrong_arity_fail_cleanly() {
    let ctx = mgr_context();
    for text in [
        "EXISTS x . Unknown(x)",
        "EXISTS x . Mgr(x)",                        // wrong arity
        "EXISTS x, y, z . Mgr(x, y, z) AND y < 10", // name attribute compared to an int
    ] {
        let query = parse_formula(text).unwrap();
        let result = preferred_consistent_answer(
            &ctx,
            &ctx.empty_priority(),
            FamilyKind::Rep.family().as_ref(),
            &query,
        );
        assert!(result.is_err(), "`{text}` should fail to evaluate");
    }
}

#[test]
fn illegal_priorities_are_rejected_with_specific_errors() {
    let ctx = mgr_context();
    // t0 and t2 belong to different key groups: not conflicting.
    assert!(matches!(
        ctx.priority_from_pairs(&[(TupleId(0), TupleId(2))]),
        Err(PriorityError::NotConflicting { .. })
    ));
    // A cycle on the only conflicting pair.
    assert!(matches!(
        ctx.priority_from_pairs(&[(TupleId(0), TupleId(1)), (TupleId(1), TupleId(0))]),
        Err(PriorityError::WouldCreateCycle { .. })
    ));
    // Unknown tuple ids.
    assert!(matches!(
        ctx.priority_from_pairs(&[(TupleId(0), TupleId(77))]),
        Err(PriorityError::UnknownTuple { .. })
    ));
    // The builder surfaces the same failures.
    let build = EngineBuilder::new()
        .relation(ctx.instance().clone(), ctx.fds().clone())
        .priority_pairs(&[(TupleId(0), TupleId(2))])
        .build();
    assert!(build.is_err());
}

#[test]
fn schema_violations_are_rejected_at_insertion_and_at_fd_parsing() {
    let schema = Arc::new(
        RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", ValueType::Name)]).unwrap(),
    );
    let mut instance = RelationInstance::new(Arc::clone(&schema));
    assert!(instance.insert(vec![Value::int(1)]).is_err()); // wrong arity
    assert!(instance.insert(vec![Value::name("x"), Value::name("y")]).is_err()); // wrong type
    assert!(instance.insert(vec![Value::int(1), Value::name("y")]).is_ok());
    // FDs over unknown attributes or without an arrow are rejected.
    assert!(FdSet::parse(Arc::clone(&schema), &["A -> Nope"]).is_err());
    assert!(FdSet::parse(Arc::clone(&schema), &["Nope -> B"]).is_err());
    assert!(FdSet::parse(Arc::clone(&schema), &["A B"]).is_err());
    // Duplicate attribute names are rejected when the schema is built.
    assert!(
        RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("A", ValueType::Int)]).is_err()
    );
}

#[test]
fn the_sql_session_reports_errors_and_stays_usable() {
    let mut session = Session::new();
    session.execute("CREATE TABLE T (A INT, B TEXT)").unwrap();
    // Re-creating, unknown tables, bad FDs, bad rows, bad family names.
    assert!(session.execute("CREATE TABLE T (A INT)").is_err());
    assert!(session.execute("INSERT INTO Nope VALUES (1, 'x')").is_err());
    assert!(session.execute("ALTER TABLE T ADD FD A -> Nope").is_err());
    assert!(session.execute("INSERT INTO T VALUES (1)").is_err());
    assert!(session.execute("INSERT INTO T VALUES ('text', 'x')").is_err());
    assert!(session.execute("SELECT A FROM T WITH REPAIRS NOPE").is_err());
    assert!(session.execute("PREFER (1, 'x') OVER (2, 'y') IN T").is_err());
    assert!(session.execute("completely not sql").is_err());
    // The session is still fully usable after all of the failures above.
    session.execute("ALTER TABLE T ADD FD A -> B").unwrap();
    session.execute("INSERT INTO T VALUES (1, 'x'), (1, 'y')").unwrap();
    let snapshot = session.snapshot("T").unwrap();
    assert_eq!(snapshot.count_repairs(), 2);
}

#[test]
fn closed_form_refusals_name_the_reason() {
    let ctx = mgr_context();
    let schema = ctx.instance().schema();
    // COUNT DISTINCT has no closed form.
    let distinct =
        AggregateQuery::over(schema, AggregateFunction::CountDistinct, "Salary").unwrap();
    assert_eq!(range_closed_form(&ctx, &distinct), Err(ClosedFormError::CountDistinctUnsupported));
    // AVG under a selection that only part of a clique satisfies.
    let avg = AggregateQuery::over(schema, AggregateFunction::Avg, "Salary")
        .unwrap()
        .filtered(schema, "Dept", Value::name("R&D"))
        .unwrap();
    assert_eq!(range_closed_form(&ctx, &avg), Err(ClosedFormError::AvgSelectionUnsupported));
    // Aggregating a name attribute is a validation error.
    let bad = AggregateQuery::over(schema, AggregateFunction::Sum, "Dept").unwrap();
    assert!(bad.validate(schema).is_err());
}

#[test]
fn cleaning_without_a_total_priority_is_an_error_not_a_guess() {
    let ctx = mgr_context();
    let snapshot =
        EngineBuilder::new().relation(ctx.instance().clone(), ctx.fds().clone()).build().unwrap();
    assert!(snapshot.clean().is_err());
    let scored = EngineBuilder::new()
        .relation(ctx.instance().clone(), ctx.fds().clone())
        .priority_from_scores(&[2, 1, 0])
        .build()
        .unwrap();
    assert!(scored.priority().is_total());
    assert!(scored.clean().is_ok());
}

/// A served two-chain table `R` plus a write coalescer over the same registry.
fn served_table() -> (Arc<SnapshotRegistry>, Arc<WriteCoalescer>) {
    let (instance, fds) = multi_chain_instance(2, 3);
    let registry = SnapshotRegistry::shared();
    registry.publish("R", EngineBuilder::new().relation(instance, fds).build().unwrap());
    let coalescer = WriteCoalescer::new(Arc::clone(&registry), Parallelism::sequential());
    (registry, coalescer)
}

/// A conflict-free row keyed `9_000 + key`: certain once inserted.
fn fresh_row(key: i64) -> Vec<Value> {
    vec![Value::int(9_000 + key), Value::int(0), Value::int(9_000_000 + key), Value::int(0)]
}

/// A commit, a coalesced write and a read on `R` all succeed, starting at `generation`.
fn assert_table_usable(registry: &SnapshotRegistry, coalescer: &WriteCoalescer, generation: u64) {
    let insert = |_: &EngineSnapshot| {
        Ok::<_, Infallible>(Change::Mutation(Mutation::new().insert("R", fresh_row(1))))
    };
    let seq = Parallelism::sequential();
    let (committed, report) = registry.commit("R", Some(generation), seq, insert).unwrap();
    assert_eq!((committed, report.inserted), (generation + 1, 1));
    let outcome = coalescer.apply("R", WriteFrame::new(vec![fresh_row(2)], Vec::new())).unwrap();
    assert_eq!((outcome.generation, outcome.inserted), (generation + 2, 1));
    let lease = registry.read("R").expect("the table is still served");
    assert_eq!(lease.generation(), generation + 2);
    let query = PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap();
    let certain: Vec<Vec<Value>> =
        query.execute(lease.snapshot(), FamilyKind::Rep, Semantics::Certain).unwrap().collect();
    assert!(certain.contains(&vec![Value::int(9_001)]), "committed row is served");
    assert!(certain.contains(&vec![Value::int(9_002)]), "coalesced row is served");
}

#[test]
fn a_panicking_change_leaves_the_table_at_its_last_good_generation() {
    let (registry, coalescer) = served_table();
    let seq = Parallelism::sequential();
    let committed = registry.commit("R", None, seq, |_| -> Result<Change, Infallible> {
        panic!("injected change failure")
    });
    assert!(
        matches!(&committed, Err(ReviseError::Panicked(message)) if message.contains("injected")),
        "{committed:?}"
    );
    let revised =
        registry.revise_scoped("R", |_| -> Result<(EngineSnapshot, ChangeScope), Infallible> {
            panic!("injected revision failure")
        });
    assert!(matches!(revised, Err(ReviseError::Panicked(_))));
    assert_eq!(registry.generation("R"), 1, "the slot is untouched");
    assert_eq!(registry.stats().panics, 2);
    assert_table_usable(&registry, &coalescer, 1);
}

/// Panics on every swap.
struct PanickingObserver;

impl SwapObserver for PanickingObserver {
    fn on_swap(&self, _: &SwapEvent<'_>) {
        panic!("injected observer failure");
    }
}

/// Counts the swaps it sees.
#[derive(Default)]
struct CountingObserver(AtomicU64);

impl SwapObserver for CountingObserver {
    fn on_swap(&self, _: &SwapEvent<'_>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn a_panicking_observer_neither_undoes_the_swap_nor_starves_later_observers() {
    let (registry, coalescer) = served_table();
    let counting = Arc::new(CountingObserver::default());
    registry.register_observer(Arc::new(PanickingObserver));
    registry.register_observer(Arc::clone(&counting) as Arc<dyn SwapObserver>);
    let delete = |_: &EngineSnapshot| {
        Ok::<_, Infallible>(Change::Mutation(Mutation::new().delete("R", fresh_row(0))))
    };
    let (generation, _) = registry.commit("R", None, Parallelism::sequential(), delete).unwrap();
    assert_eq!(generation, 2, "the swap stands");
    assert_eq!(counting.0.load(Ordering::Relaxed), 1, "later observers still run");
    assert_eq!(registry.stats().panics, 1);
    assert_table_usable(&registry, &coalescer, 2);
    assert_eq!(counting.0.load(Ordering::Relaxed), 3);
    assert_eq!(registry.stats().panics, 3, "every swap's observer panic is counted");
}
