//! The cost-based planner end to end.
//!
//! The pinned acceptance properties:
//!
//! * the planner path is **bit-identical to the naive fixed-strategy path** — rows,
//!   row order, and closed verdicts including `examined` — across all five repair
//!   families, both semantics, and parallelism 1, 2, 4 and 8, on fresh snapshots per
//!   path so the answer memo cannot mask a divergence;
//! * the plan cache serves repeat executions of a fingerprint and
//!   `PDQI_FORCE_NAIVE_PLAN` bypasses planning entirely (no plan is stored);
//! * snapshot derivations re-cost **only the affected fingerprints**: a priority swap
//!   drops priority-sensitive plans over touched components (`Rep` plans and plans
//!   over other relations survive), a mutation drops exactly the plans reading the
//!   mutated relation, and an FD addition drops plans over the reshaped relation only
//!   when it actually adds conflict edges.
//!
//! Every test takes the same global lock: the naive-plan switch and the planner
//! counters are process-wide, so concurrently running tests would otherwise observe
//! each other's toggles.

use std::sync::{Mutex, MutexGuard};

use pdqi::datagen::{multi_chain_instance, multi_chain_relations};
use pdqi::{
    force_naive_plan, naive_plan_forced, plan_stats, Change, ChangeScope, EngineBuilder,
    EngineSnapshot, FamilyKind, FunctionalDependency, Mutation, Parallelism, PreparedQuery,
    Priority, Semantics,
};

/// Serialises the tests in this binary: they flip the process-wide naive-plan switch
/// and read the process-wide planner counters.
static PLANNER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A panicking test must not wedge the rest of the suite.
    PLANNER_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Restores the pre-test path choice (e.g. a CI run under `PDQI_FORCE_NAIVE_PLAN=1`)
/// even if an assertion panics.
struct Restore(bool);

impl Drop for Restore {
    fn drop(&mut self) {
        force_naive_plan(self.0);
    }
}

/// A single-relation snapshot whose conflict chains carry a *partial* priority (every
/// other conflict edge oriented towards the lower tuple id), so all five families
/// produce genuinely different repair sets.
fn prioritised_snapshot() -> EngineSnapshot {
    let (instance, fds) = multi_chain_instance(3, 4);
    let base = EngineBuilder::new().relation(instance, fds).build().unwrap();
    let pairs: Vec<_> = base
        .graph()
        .edges()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, &(a, b))| (a, b))
        .collect();
    assert!(!pairs.is_empty(), "the chain workload must conflict");
    let priority = base.context().priority_from_pairs(&pairs).unwrap();
    let change = Change::Priority { relation: "R".to_string(), priority };
    base.derive(&change, Parallelism::sequential()).unwrap().0
}

/// Open queries spanning the planner's decision space: a single scan, a selection, a
/// two-atom self-join, and a three-atom join whose order the cost model gets to pick.
fn open_queries() -> Vec<PreparedQuery> {
    [
        "EXISTS b,c,d . R(x,b,c,d)",
        "EXISTS b,c,d . R(x,b,c,d) AND b > 0",
        "EXISTS b,c,d,a2,c2,d2 . R(x,b,c,d) AND R(a2,b,c2,d2) AND a2 > x",
        "EXISTS a,c,d,a2,c2,d2,a3,c3,d3 . R(a,x,c,d) AND R(a2,x,c2,d2) AND R(a3,x,c3,d3) \
         AND a < a2 AND a2 < a3",
    ]
    .map(|text| PreparedQuery::parse(text).unwrap())
    .into_iter()
    .collect()
}

/// Closed queries: a selective existence check, a self-join, and a certainly-false
/// query whose early exit makes `examined` sensitive to evaluation order.
fn closed_queries() -> Vec<PreparedQuery> {
    [
        "EXISTS a,b,c,d . R(a,b,c,d) AND b > 0",
        "EXISTS a,b,c,d,a2,c2,d2 . R(a,b,c,d) AND R(a2,b,c2,d2) AND a < a2",
        "EXISTS a,b,c,d . R(a,b,c,d) AND b > 5",
    ]
    .map(|text| PreparedQuery::parse(text).unwrap())
    .into_iter()
    .collect()
}

/// The differential suite: the cost-based planner must be indistinguishable from the
/// naive fixed-strategy path — same rows in the same order for open queries under both
/// semantics, same closed verdicts including `examined` — for every family at
/// parallelism 1, 2, 4 and 8. Each path runs on its own cold snapshot so nothing is
/// served from a memo the other path populated.
#[test]
fn planner_and_naive_paths_are_bit_identical() {
    let _guard = lock();
    let _restore = Restore(naive_plan_forced());

    let open = open_queries();
    let closed = closed_queries();
    for workers in [1usize, 2, 4, 8] {
        let parallelism = Parallelism::threads(workers);
        force_naive_plan(true);
        let naive_snapshot = prioritised_snapshot();
        force_naive_plan(false);
        let planned_snapshot = prioritised_snapshot();
        for kind in FamilyKind::ALL {
            for query in &open {
                for semantics in [Semantics::Certain, Semantics::Possible] {
                    force_naive_plan(true);
                    let naive: Vec<_> = query
                        .execute_with(&naive_snapshot, kind, semantics, parallelism)
                        .unwrap()
                        .collect();
                    force_naive_plan(false);
                    let planned: Vec<_> = query
                        .execute_with(&planned_snapshot, kind, semantics, parallelism)
                        .unwrap()
                        .collect();
                    assert_eq!(
                        planned,
                        naive,
                        "{} {:?} workers={workers} `{}`",
                        kind.label(),
                        semantics,
                        query.source().unwrap_or("?"),
                    );
                }
            }
            for query in &closed {
                force_naive_plan(true);
                let naive = query.consistent_answer_with(&naive_snapshot, kind, parallelism);
                force_naive_plan(false);
                let planned = query.consistent_answer_with(&planned_snapshot, kind, parallelism);
                // `assert_eq!` on `CqaOutcome` covers `examined` too.
                assert_eq!(
                    planned.unwrap(),
                    naive.unwrap(),
                    "{} closed workers={workers} `{}`",
                    kind.label(),
                    query.source().unwrap_or("?"),
                );
            }
        }
    }
}

/// The plan cache serves repeat plans of one fingerprint: the first execution plans
/// and stores, a second execution under the other semantics (same `(fingerprint,
/// family)` key, different answer-memo key) hits the cached plan instead of
/// re-costing.
#[test]
fn repeat_executions_hit_the_plan_cache() {
    let _guard = lock();
    let _restore = Restore(naive_plan_forced());
    force_naive_plan(false);

    let snapshot = prioritised_snapshot();
    let query =
        PreparedQuery::parse("EXISTS b,c,d,a2,c2,d2 . R(x,b,c,d) AND R(a2,b,c2,d2) AND a2 > x")
            .unwrap();
    assert!(!snapshot.has_cached_plan(query.fingerprint(), FamilyKind::Global));

    let before = plan_stats();
    query
        .execute_with(&snapshot, FamilyKind::Global, Semantics::Certain, Parallelism::threads(2))
        .unwrap();
    let after_first = plan_stats();
    assert!(after_first.planned > before.planned, "the first execution must plan");
    assert!(snapshot.has_cached_plan(query.fingerprint(), FamilyKind::Global));

    // Possible-semantics answers memoise under a different key, so this execution
    // reaches the planner again — and must be served from the plan cache.
    query
        .execute_with(&snapshot, FamilyKind::Global, Semantics::Possible, Parallelism::threads(2))
        .unwrap();
    let after_second = plan_stats();
    assert_eq!(after_second.planned, after_first.planned, "no re-costing on a warm cache");
    assert!(after_second.cache_hits > after_first.cache_hits);
}

/// `PDQI_FORCE_NAIVE_PLAN` bypasses the planner: executions are counted as naive and
/// no plan is stored in the snapshot's cache.
#[test]
fn the_naive_switch_bypasses_planning_entirely() {
    let _guard = lock();
    let _restore = Restore(naive_plan_forced());
    force_naive_plan(true);

    let snapshot = prioritised_snapshot();
    let query = PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d) AND b > 0").unwrap();
    let before = plan_stats();
    query.execute(&snapshot, FamilyKind::SemiGlobal, Semantics::Certain).unwrap();
    let after = plan_stats();
    assert!(after.naive > before.naive, "the naive path must be counted");
    assert_eq!(after.planned, before.planned, "no planning under the switch");
    assert!(!snapshot.has_cached_plan(query.fingerprint(), FamilyKind::SemiGlobal));
    assert_eq!(snapshot.cached_plan_count(), 0);
}

/// A two-relation snapshot with one query per relation, both executed (and therefore
/// planned) under the given family — plus, optionally, extra families for `R0`.
fn two_relation_fixture(
    families_for_r0: &[FamilyKind],
) -> (EngineSnapshot, PreparedQuery, PreparedQuery) {
    let relations = multi_chain_relations(2, 3, 5);
    let mut builder = EngineBuilder::new();
    for (instance, fds) in &relations {
        builder = builder.relation(instance.clone(), fds.clone());
    }
    let snapshot = builder.build().unwrap();
    let q0 = PreparedQuery::parse("EXISTS b,c,d . R0(x,b,c,d) AND b > 0").unwrap();
    let q1 = PreparedQuery::parse("EXISTS b,c,d . R1(x,b,c,d) AND b > 0").unwrap();
    for &kind in families_for_r0 {
        q0.execute(&snapshot, kind, Semantics::Certain).unwrap();
    }
    q1.execute(&snapshot, FamilyKind::Global, Semantics::Certain).unwrap();
    (snapshot, q0, q1)
}

/// A priority swap re-costs only the affected fingerprints: plans over the revised
/// relation are dropped for priority-sensitive families, while `Rep` plans (priority
/// cannot change which repairs exist) and plans over the untouched relation carry.
#[test]
fn a_priority_swap_drops_only_priority_sensitive_plans_over_the_revised_relation() {
    let _guard = lock();
    let _restore = Restore(naive_plan_forced());
    force_naive_plan(false);

    let (snapshot, q0, q1) = two_relation_fixture(&[FamilyKind::Global, FamilyKind::Rep]);
    assert!(snapshot.has_cached_plan(q0.fingerprint(), FamilyKind::Global));
    assert!(snapshot.has_cached_plan(q0.fingerprint(), FamilyKind::Rep));
    assert!(snapshot.has_cached_plan(q1.fingerprint(), FamilyKind::Global));

    // Orient one conflict edge of R0: a real priority change touching one component.
    let graph = std::sync::Arc::clone(snapshot.context_of("R0").unwrap().graph());
    let &(winner, loser) = graph.edges().first().expect("R0 must conflict");
    let priority = Priority::from_pairs(graph, &[(winner, loser)]).unwrap();
    let change = Change::Priority { relation: "R0".to_string(), priority };
    let (derived, report) = snapshot.derive(&change, Parallelism::sequential()).unwrap();
    let ChangeScope::Priority { affected, .. } = report.scope else { panic!("priority scope") };
    assert!(!affected.is_empty());

    assert!(
        !derived.has_cached_plan(q0.fingerprint(), FamilyKind::Global),
        "the G-Rep plan over the revised relation must be re-costed"
    );
    assert!(
        derived.has_cached_plan(q0.fingerprint(), FamilyKind::Rep),
        "Rep plans are priority-insensitive and must carry"
    );
    assert!(
        derived.has_cached_plan(q1.fingerprint(), FamilyKind::Global),
        "plans over the untouched relation must carry"
    );
    assert_eq!(derived.cached_plan_count(), snapshot.cached_plan_count() - 1);
}

/// A mutation re-costs exactly the plans reading the mutated relation — including
/// `Rep` plans, whose cardinalities the row change shifts — and carries the rest with
/// their component dependencies remapped.
#[test]
fn a_mutation_drops_only_plans_reading_the_mutated_relation() {
    let _guard = lock();
    let _restore = Restore(naive_plan_forced());
    force_naive_plan(false);

    let (snapshot, q0, q1) = two_relation_fixture(&[FamilyKind::Global, FamilyKind::Rep]);
    // Delete the middle tuple of R0's first chain: its component splits, so R1's
    // global component ids shift — the carried plan must survive the remap.
    let victim = snapshot
        .context_of("R0")
        .unwrap()
        .instance()
        .tuple_unchecked(pdqi::TupleId(2))
        .values()
        .to_vec();
    let mutation = Mutation::new().delete("R0", victim);
    let derived = snapshot.with_mutations(&mutation, Parallelism::threads(2)).unwrap();
    assert_eq!(derived.component_count(), snapshot.component_count() + 1);

    assert!(!derived.has_cached_plan(q0.fingerprint(), FamilyKind::Global));
    assert!(!derived.has_cached_plan(q0.fingerprint(), FamilyKind::Rep));
    assert!(
        derived.has_cached_plan(q1.fingerprint(), FamilyKind::Global),
        "plans over the untouched relation must carry across the id remap"
    );
    assert_eq!(derived.cached_plan_count(), snapshot.cached_plan_count() - 2);

    // Re-executing the invalidated fingerprint re-plans and re-populates the cache.
    let before = plan_stats();
    q0.execute(&derived, FamilyKind::Global, Semantics::Certain).unwrap();
    assert!(plan_stats().planned > before.planned);
    assert!(derived.has_cached_plan(q0.fingerprint(), FamilyKind::Global));
}

/// An FD addition re-costs plans over the reshaped relation only when it actually adds
/// conflict edges; an FD the data already satisfies carries every plan.
#[test]
fn an_fd_addition_drops_plans_only_when_it_adds_conflict_edges() {
    let _guard = lock();
    let _restore = Restore(naive_plan_forced());
    force_naive_plan(false);

    let (snapshot, q0, q1) = two_relation_fixture(&[FamilyKind::Global]);
    let schema = snapshot.context_of("R0").unwrap().instance().schema().clone();

    // `B -> D` already holds on the chain workload: no new edges, everything carries.
    let held = FunctionalDependency::parse(&schema, "B -> D").unwrap();
    let add_fd = |fd| Change::AddFd { relation: "R0".to_string(), fd };
    let derived = snapshot.derive(&add_fd(held), Parallelism::threads(2)).unwrap().0;
    assert_eq!(derived.cached_plan_count(), snapshot.cached_plan_count());
    assert!(derived.has_cached_plan(q0.fingerprint(), FamilyKind::Global));

    // `B -> C` conflicts across chains: new edges reshape R0, so its plans re-cost
    // while R1's carry.
    let merging = FunctionalDependency::parse(&schema, "B -> C").unwrap();
    let (derived, report) = snapshot.derive(&add_fd(merging), Parallelism::threads(2)).unwrap();
    assert!(report.new_edges > 0, "the merging FD must add edges");
    assert!(!derived.has_cached_plan(q0.fingerprint(), FamilyKind::Global));
    assert!(derived.has_cached_plan(q1.fingerprint(), FamilyKind::Global));
    assert_eq!(derived.cached_plan_count(), snapshot.cached_plan_count() - 1);
}

/// The rendered plan is deterministic for a given snapshot and query: planning twice
/// from cold yields byte-identical reports up to the actuals, and the report names the
/// query, the family, and both the estimated and the actual cardinalities.
#[test]
fn explain_reports_are_deterministic_and_name_estimates_and_actuals() {
    let _guard = lock();
    let _restore = Restore(naive_plan_forced());
    force_naive_plan(false);

    let query = PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d) AND b > 0").unwrap();
    let first = query
        .explain(
            &prioritised_snapshot(),
            FamilyKind::Global,
            Semantics::Certain,
            Parallelism::threads(2),
        )
        .unwrap();
    let second = query
        .explain(
            &prioritised_snapshot(),
            FamilyKind::Global,
            Semantics::Certain,
            Parallelism::threads(2),
        )
        .unwrap();
    assert_eq!(first, second, "cold plans must be deterministic");
    assert!(first.starts_with("plan family=G-Rep"), "{first}");
    assert!(first.contains("est_cost="), "{first}");
    assert!(first.contains("actual product="), "{first}");
    assert!(first.contains("rows="), "{first}");
}
