//! Schema/constraint deltas and the columnar evaluation hot path, end to end.
//!
//! The pinned acceptance properties:
//!
//! * deriving a [`Change::AddFd`] is **bit-identical to a fresh build** with the
//!   extended FD set — conflict graph, component order and global ids, shard plans,
//!   per-family preferred repairs in enumeration order, open and closed answers
//!   (including `examined`) — at every degree of parallelism, for within-chain merges
//!   and cross-chain merges alike;
//! * an added FD that produces **no new conflict edges** takes the shared fast path:
//!   no re-partitioning, no re-enumeration, the full memo carries over;
//! * the **vectorized** columnar evaluation path answers bit-identically to the
//!   scalar interpreter — same rows, same order, same closed verdicts including
//!   `examined` — across all five families, both semantics, open and closed queries;
//! * an `ALTER` frame over the wire swaps in a delta-derived snapshot equal to a
//!   fresh build, without restarting the server.

use std::sync::Arc;

use pdqi::datagen::multi_chain_instance;
use pdqi::query::{eval_path_stats, force_scalar_eval};
use pdqi::server::{serve, Client, ServerConfig};
use pdqi::{
    Change, ChangeReport, ChangeScope, EngineBuilder, EngineSnapshot, FamilyKind, FdSet,
    FunctionalDependency, Parallelism, PreparedQuery, RelationInstance, Semantics,
    SnapshotRegistry,
};

/// Derives `base` with `fd` added to relation `R`.
fn add_fd(
    base: &EngineSnapshot,
    fd: FunctionalDependency,
    parallelism: Parallelism,
) -> (EngineSnapshot, ChangeReport) {
    base.derive(&Change::AddFd { relation: "R".to_string(), fd }, parallelism).unwrap()
}

/// The re-partitioned components a schema change reports.
fn affected(report: &ChangeReport) -> &std::collections::BTreeSet<usize> {
    let ChangeScope::Schema { affected, .. } = &report.scope else { panic!("schema scope") };
    affected
}

/// Builds one snapshot over `instance` under the given FD specs.
fn build(instance: &RelationInstance, fd_specs: &[&str]) -> EngineSnapshot {
    let fds = FdSet::parse(Arc::clone(instance.schema()), fd_specs).unwrap();
    EngineBuilder::new().relation(instance.clone(), fds).build().unwrap()
}

/// Asserts two snapshots are indistinguishable: structure, enumeration and answers.
fn assert_bit_identical(derived: &EngineSnapshot, fresh: &EngineSnapshot, context: &str) {
    assert_eq!(derived.relation_names(), fresh.relation_names(), "{context}: names");
    assert_eq!(derived.component_count(), fresh.component_count(), "{context}: components");
    for name in fresh.relation_names() {
        let d = derived.context_of(&name).unwrap();
        let f = fresh.context_of(&name).unwrap();
        assert_eq!(d.fds().len(), f.fds().len(), "{context}: {name} fd count");
        assert_eq!(d.instance().len(), f.instance().len(), "{context}: {name} tuples");
        for (id, tuple) in f.instance().iter() {
            assert_eq!(d.instance().tuple_unchecked(id), tuple, "{context}: {name} tuple {id}");
        }
        assert_eq!(d.graph().edges(), f.graph().edges(), "{context}: {name} edges");
        assert_eq!(derived.shards_of(&name), fresh.shards_of(&name), "{context}: {name} shards");
        assert_eq!(
            derived.priority_of(&name).unwrap().edges(),
            fresh.priority_of(&name).unwrap().edges(),
            "{context}: {name} priority"
        );
    }
    for kind in FamilyKind::ALL {
        // Not just the same count: the same repairs in the same enumeration order.
        assert_eq!(
            derived.preferred_repairs(kind, usize::MAX),
            fresh.preferred_repairs(kind, usize::MAX),
            "{context}: {} enumeration",
            kind.label()
        );
    }
}

/// Asserts a query answers identically (both semantics and the closed outcome,
/// including `examined`) on both snapshots, at the given parallelism.
fn assert_same_answers(
    derived: &EngineSnapshot,
    fresh: &EngineSnapshot,
    open: &PreparedQuery,
    closed: &PreparedQuery,
    parallelism: Parallelism,
    context: &str,
) {
    for kind in FamilyKind::ALL {
        for semantics in [Semantics::Certain, Semantics::Possible] {
            let d: Vec<_> =
                open.execute_with(derived, kind, semantics, parallelism).unwrap().collect();
            let f: Vec<_> = open.execute(fresh, kind, semantics).unwrap().collect();
            assert_eq!(d, f, "{context}: {} {:?}", kind.label(), semantics);
        }
        let d = closed.consistent_answer_with(derived, kind, parallelism).unwrap();
        let f = closed.consistent_answer(fresh, kind).unwrap();
        assert_eq!(d, f, "{context}: {} closed", kind.label());
    }
}

/// Adding `C -> D` to chains built under `A -> B` alone merges each chain's
/// conflict-pair components into the full path — checked bit-identical to a rebuild
/// with both FDs at parallelism 1, 2, 4 and 8.
#[test]
fn adding_an_fd_is_bit_identical_to_a_fresh_build_at_every_parallelism() {
    let (instance, _) = multi_chain_instance(4, 5);
    let fresh = build(&instance, &["A -> B", "C -> D"]);
    let added = FunctionalDependency::parse(instance.schema(), "C -> D").unwrap();

    let open = PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap();
    let closed = PreparedQuery::parse("EXISTS a,b,c,d . R(a,b,c,d) AND b > 0").unwrap();
    for workers in [1usize, 2, 4, 8] {
        let parallelism = Parallelism::threads(workers);
        let base = build(&instance, &["A -> B"]);
        // Warm every family so the carry-over machinery is exercised for all of them.
        for kind in FamilyKind::ALL {
            base.warm_components(kind, parallelism);
        }
        assert!(base.component_count() > fresh.component_count(), "the FD must merge");
        let derived = add_fd(&base, added.clone(), parallelism).0;
        assert_bit_identical(&derived, &fresh, &format!("{workers} workers"));
        assert_same_answers(
            &derived,
            &fresh,
            &open,
            &closed,
            parallelism,
            &format!("{workers} workers"),
        );
    }
}

/// A new FD whose LHS groups span chains (`B -> C`: every even-position tuple shares
/// `B = 0` but carries a distinct `C`) merges components **across** chains.
#[test]
fn a_cross_chain_fd_merges_components_identically_to_a_rebuild() {
    let (instance, fds) = multi_chain_instance(3, 4);
    let base = EngineBuilder::new().relation(instance.clone(), fds).build().unwrap();
    let fresh = build(&instance, &["A -> B", "C -> D", "B -> C"]);
    assert!(fresh.component_count() < base.component_count(), "chains must merge");

    let added = FunctionalDependency::parse(instance.schema(), "B -> C").unwrap();
    let (derived, report) = add_fd(&base, added, Parallelism::threads(2));
    assert!(report.new_edges > 0);
    assert!(!affected(&report).is_empty());
    assert_bit_identical(&derived, &fresh, "cross-chain merge");
}

/// `B -> D` already holds on the chain workload (even positions pair `B = 0` with
/// `D = 1`, odd ones the reverse): adding it creates no edges, so the derivation
/// shares the graph and carries the whole memo — only the FD set grows.
#[test]
fn an_fd_without_new_edges_shares_the_graph_and_the_whole_memo() {
    let (instance, fds) = multi_chain_instance(4, 5);
    let base = EngineBuilder::new().relation(instance.clone(), fds).build().unwrap();
    for kind in FamilyKind::ALL {
        base.warm_components(kind, Parallelism::sequential());
    }

    let added = FunctionalDependency::parse(instance.schema(), "B -> D").unwrap();
    let (derived, report) = add_fd(&base, added, Parallelism::threads(4));
    assert_eq!(report.new_edges, 0);
    assert!(affected(&report).is_empty());
    assert_eq!(report.recomputed_entries, 0);
    let ctx = derived.context_of("R").unwrap();
    assert_eq!(ctx.fds().len(), 3);
    assert!(Arc::ptr_eq(ctx.graph(), base.context_of("R").unwrap().graph()));
    // The memo came over wholesale: re-warming computes nothing new.
    for kind in FamilyKind::ALL {
        assert_eq!(derived.warm_components(kind, Parallelism::sequential()), 0, "{}", kind.label());
    }
    assert_eq!(derived.memo_stats().component_misses, 0);
    assert_bit_identical(&derived, &build(&instance, &["A -> B", "C -> D", "B -> D"]), "no-edge");
}

/// The vectorized columnar path and the scalar interpreter agree bit for bit —
/// rows, row order, and closed verdicts including `examined` — across all five
/// families, both semantics, selections and self-joins. Fresh snapshots per path so
/// the answer memo cannot mask a divergence.
#[test]
fn vectorized_and_scalar_evaluation_are_bit_identical() {
    /// Restores the pre-test path choice (e.g. a CI run under
    /// `PDQI_FORCE_SCALAR_EVAL=1`) even if an assertion panics.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            force_scalar_eval(self.0);
        }
    }
    let _restore = Restore(pdqi::query::scalar_eval_forced());

    let (instance, fds) = multi_chain_instance(3, 4);
    let rebuild = || EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap();
    let open_queries = [
        PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap(),
        PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d) AND b > 0").unwrap(),
        // Comparison before the atom binding its variable (regression: used to panic
        // the vectorized plan compiler).
        PreparedQuery::parse("EXISTS b,c,d . b > 0 AND R(x,b,c,d)").unwrap(),
    ];
    let closed_queries = [
        PreparedQuery::parse("EXISTS a,b,c,d . R(a,b,c,d) AND b > 0").unwrap(),
        // A self-join: exercises the depth-first vectorized join, not just selection.
        PreparedQuery::parse("EXISTS a,b,c,d,a2,c2,d2 . R(a,b,c,d) AND R(a2,b,c2,d2) AND a < a2")
            .unwrap(),
    ];

    for workers in [1usize, 4] {
        let parallelism = Parallelism::threads(workers);
        for kind in FamilyKind::ALL {
            for semantics in [Semantics::Certain, Semantics::Possible] {
                for (index, open) in open_queries.iter().enumerate() {
                    force_scalar_eval(false);
                    let before = eval_path_stats().vectorized;
                    let vectorized: Vec<_> = open
                        .execute_with(&rebuild(), kind, semantics, parallelism)
                        .unwrap()
                        .collect();
                    assert!(
                        eval_path_stats().vectorized > before,
                        "query {index} must engage the vectorized path"
                    );
                    force_scalar_eval(true);
                    let scalar: Vec<_> = open
                        .execute_with(&rebuild(), kind, semantics, parallelism)
                        .unwrap()
                        .collect();
                    assert_eq!(
                        vectorized,
                        scalar,
                        "open {index}: {} {:?} at {workers} workers",
                        kind.label(),
                        semantics
                    );
                }
            }
            for (index, closed) in closed_queries.iter().enumerate() {
                force_scalar_eval(false);
                let vectorized = closed.consistent_answer_with(&rebuild(), kind, parallelism);
                force_scalar_eval(true);
                let scalar = closed.consistent_answer_with(&rebuild(), kind, parallelism);
                assert_eq!(
                    vectorized.unwrap(),
                    scalar.unwrap(),
                    "closed {index}: {} at {workers} workers",
                    kind.label()
                );
            }
        }
    }
}

/// `ALTER` over the wire: the server revises the registry through the FD-delta path
/// and the swapped-in snapshot equals a fresh build with the extended FD set.
#[test]
fn alter_over_the_wire_swaps_in_a_delta_derived_snapshot() {
    let (instance, _) = multi_chain_instance(2, 4);
    let registry = SnapshotRegistry::shared();
    registry.publish("R", build(&instance, &["A -> B"]));

    let handle = serve("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let generation = client.alter("R", "C -> D").unwrap();
    assert_eq!(generation, 2);
    let lease = registry.read("R").unwrap();
    assert_eq!(lease.generation(), 2);
    assert_bit_identical(lease.snapshot(), &build(&instance, &["A -> B", "C -> D"]), "wire alter");

    // Malformed FDs and unknown tables surface as errors without a swap.
    assert!(client.alter("R", "Nope -> B").is_err());
    assert!(client.alter("S", "A -> B").is_err());
    assert_eq!(registry.generation("R"), 2);

    client.shutdown().unwrap();
    handle.wait();
}
