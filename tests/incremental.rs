//! The incremental delta-maintenance subsystem end to end.
//!
//! The pinned acceptance properties:
//!
//! * [`EngineSnapshot::with_mutations`] is **bit-identical to a fresh build** of the
//!   mutated row list — conflict graph, component order and global ids, shard plans,
//!   per-family preferred repairs in enumeration order, open and closed answers
//!   (including `examined`) — at every degree of parallelism, including mutations that
//!   **split** a component (deleting a cut tuple) and **merge** two (inserting a
//!   bridging tuple);
//! * untouched `(component, family)` memo entries carry over (no re-enumeration),
//!   invalidated ones are re-enumerated eagerly, and answers over untouched relations
//!   survive with their global component ids remapped;
//! * readers pinning registry leases while a writer replays a mutation trace through
//!   [`SnapshotRegistry::commit`] observe monotone generations and internally
//!   consistent snapshots, and the final published state equals a fresh build of the
//!   folded row list;
//! * a remote client can `INSERT`/`DELETE` over the wire, with generation-carrying
//!   responses bit-identical to the in-process replay.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pdqi::datagen::{multi_chain_instance, multi_chain_relations, mutation_trace, MutationEvent};
use pdqi::server::{serve, Client, ExecMode, ExecOutcome, ServerConfig};
use pdqi::{
    Change, ChangeReport, EngineBuilder, EngineSnapshot, FamilyKind, Mutation, Parallelism,
    PreparedQuery, RelationInstance, Semantics, SnapshotRegistry, Value,
};

/// Commits `mutation` to `table` through the registry's delta path.
fn apply(
    registry: &SnapshotRegistry,
    table: &str,
    mutation: &Mutation,
    parallelism: Parallelism,
) -> (u64, ChangeReport) {
    let change = |_: &EngineSnapshot| Ok::<_, Infallible>(Change::Mutation(mutation.clone()));
    registry.commit(table, None, parallelism, change).unwrap()
}

/// Applies a [`MutationEvent`] stream to a raw row list the way a rebuild would see
/// it: deletes remove every matching row (order-preserving), inserts append.
fn fold_rows(rows: &mut Vec<Vec<Value>>, event: &MutationEvent) {
    match event {
        MutationEvent::Query(_) => {}
        MutationEvent::Insert(inserted) => rows.extend(inserted.iter().cloned()),
        MutationEvent::Delete(deleted) => {
            rows.retain(|row| !deleted.contains(row));
        }
    }
}

/// Converts a [`MutationEvent`] into the [`Mutation`] batch the delta path applies.
fn mutation_of(relation: &str, event: &MutationEvent) -> Option<Mutation> {
    match event {
        MutationEvent::Query(_) => None,
        MutationEvent::Insert(rows) => {
            Some(Mutation::new().insert_rows(relation, rows.iter().cloned()))
        }
        MutationEvent::Delete(rows) => {
            Some(Mutation::new().delete_rows(relation, rows.iter().cloned()))
        }
    }
}

/// Asserts two snapshots are indistinguishable: structure, enumeration and answers.
fn assert_bit_identical(derived: &EngineSnapshot, fresh: &EngineSnapshot, context: &str) {
    assert_eq!(derived.relation_names(), fresh.relation_names(), "{context}: names");
    assert_eq!(derived.component_count(), fresh.component_count(), "{context}: components");
    for name in fresh.relation_names() {
        let d = derived.context_of(&name).unwrap();
        let f = fresh.context_of(&name).unwrap();
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
        assert_eq!(
            derived.preferred_repair_count(kind),
            fresh.preferred_repair_count(kind),
            "{context}: {} count",
            kind.label()
        );
        if fresh.relation_count() == 1 {
            // Not just the same set: the same repairs in the same enumeration order.
            assert_eq!(
                derived.preferred_repairs(kind, usize::MAX),
                fresh.preferred_repairs(kind, usize::MAX),
                "{context}: {} enumeration",
                kind.label()
            );
        }
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

/// A split (delete a chain-interior tuple) plus a merge (insert a tuple bridging two
/// chains), checked bit-identical to a rebuild at parallelism 1, 2, 4 and 8.
#[test]
fn splits_and_merges_are_bit_identical_to_rebuilds_at_every_parallelism() {
    let (instance, fds) = multi_chain_instance(4, 5);
    let rows: Vec<Vec<Value>> = instance.iter().map(|(_, t)| t.values().to_vec()).collect();
    // Chain 0's middle tuple (index 2) is a cut vertex: deleting it splits the path.
    let split_victim = rows[2].clone();
    // A tuple sharing chain 1's first A-group and chain 2's second C-group conflicts
    // with both chains: inserting it merges their components.
    let bridge = vec![rows[5][0].clone(), Value::int(9), rows[11][2].clone(), Value::int(9)];
    let mutation = Mutation::new().delete("R", split_victim.clone()).insert("R", bridge.clone());

    let mut mutated_rows = rows.clone();
    mutated_rows.retain(|row| *row != split_victim);
    mutated_rows.push(bridge);
    let fresh = EngineBuilder::new()
        .relation(
            RelationInstance::from_rows(Arc::clone(instance.schema()), mutated_rows).unwrap(),
            fds.clone(),
        )
        .build()
        .unwrap();
    // The split adds a component, the merge removes one: still four, but reshaped.
    assert_eq!(fresh.component_count(), 4);

    let open = PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap();
    let closed = PreparedQuery::parse("EXISTS a,b,c,d . R(a,b,c,d) AND b > 50").unwrap();
    for workers in [1usize, 2, 4, 8] {
        let parallelism = Parallelism::threads(workers);
        let base = EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap();
        // Warm every family so the carry-over path is exercised for all of them.
        for kind in FamilyKind::ALL {
            base.warm_components(kind, parallelism);
        }
        let derived = base.with_mutations(&mutation, parallelism).unwrap();
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

/// Memo-hit accounting: untouched components carry over, the re-partitioned region is
/// re-enumerated eagerly (and only it), and later enumerations are all hits.
#[test]
fn untouched_memo_entries_carry_over_and_invalidated_ones_recompute_eagerly() {
    let (instance, fds) = multi_chain_instance(6, 5);
    let rows: Vec<Vec<Value>> = instance.iter().map(|(_, t)| t.values().to_vec()).collect();
    let base = EngineBuilder::new().relation(instance, fds).build().unwrap();
    for kind in FamilyKind::ALL {
        base.warm_components(kind, Parallelism::sequential());
    }
    assert_eq!(base.memo_stats().component_misses, 30, "6 components × 5 families");

    // Deleting chain 0's middle tuple splits one component into two.
    let mutation = Mutation::new().delete("R", rows[2].clone());
    let (derived, report) =
        base.with_mutations_reported(&mutation, Parallelism::threads(4)).unwrap();
    assert_eq!(report.deleted, 1);
    assert_eq!(report.invalidated_components, 1);
    assert_eq!(report.carried_entries, 25, "5 untouched components × 5 families");
    assert_eq!(report.recomputed_entries, 10, "2 split halves × 5 families");
    assert_eq!(derived.component_count(), 7);
    let eager = derived.memo_stats();
    assert_eq!(eager.component_misses, 10);
    // Everything is warm: re-warming any family computes nothing new, and counting
    // (which walks every component's memoised repairs) is all hits.
    for kind in FamilyKind::ALL {
        assert_eq!(derived.warm_components(kind, Parallelism::sequential()), 0, "{}", kind.label());
        derived.preferred_repair_count(kind);
    }
    assert_eq!(derived.memo_stats().component_misses, eager.component_misses);
}

/// Multi-relation snapshots: answers over untouched relations survive the mutation,
/// even though the mutated relation's component-count change shifts every later
/// relation's global component ids.
#[test]
fn answers_over_untouched_relations_survive_with_remapped_component_ids() {
    let relations = multi_chain_relations(2, 3, 5);
    let mut builder = EngineBuilder::new();
    for (instance, fds) in &relations {
        builder = builder.relation(instance.clone(), fds.clone());
    }
    let base = builder.build().unwrap();
    let query = PreparedQuery::parse("EXISTS b,c,d . R1(x,b,c,d)").unwrap();
    let before: Vec<_> =
        query.execute(&base, FamilyKind::Global, Semantics::Certain).unwrap().collect();

    // Delete the middle tuple of R0's first 5-chain: R0 splits from 3 into 4
    // components, shifting R1's global component ids by one.
    let victim = relations[0].0.tuple_unchecked(pdqi::TupleId(2)).values().to_vec();
    let mutation = Mutation::new().delete("R0", victim);
    let derived = base.with_mutations(&mutation, Parallelism::sequential()).unwrap();
    assert_eq!(derived.component_count(), base.component_count() + 1);

    let misses_before = derived.memo_stats().answer_misses;
    let after: Vec<_> =
        query.execute(&derived, FamilyKind::Global, Semantics::Certain).unwrap().collect();
    assert_eq!(before, after);
    let stats = derived.memo_stats();
    assert_eq!(stats.answer_misses, misses_before, "the carried answer must be a hit");
    assert!(stats.answer_hits >= 1);

    // A query over the *mutated* relation was invalidated and recomputes.
    let mutated_query = PreparedQuery::parse("EXISTS b,c,d . R0(x,b,c,d)").unwrap();
    mutated_query.execute(&base, FamilyKind::Global, Semantics::Certain).unwrap();
    let derived = base.with_mutations(&mutation, Parallelism::sequential()).unwrap();
    let misses = derived.memo_stats().answer_misses;
    mutated_query.execute(&derived, FamilyKind::Global, Semantics::Certain).unwrap();
    assert_eq!(derived.memo_stats().answer_misses, misses + 1);
}

/// Swap-under-load: readers pin leases and query while a writer replays a mutation
/// trace through `SnapshotRegistry::commit`. Generations stay monotone per reader,
/// every pinned snapshot answers self-consistently, and the final published snapshot
/// equals a fresh build of the folded row list.
#[test]
fn readers_pin_leases_while_a_writer_replays_a_mutation_trace() {
    let mut rng = StdRng::seed_from_u64(42);
    let trace = mutation_trace(3, 4, 30, 3, &mut rng);
    let registry = SnapshotRegistry::shared();
    registry.publish(
        "R",
        EngineBuilder::new().relation(trace.instance.clone(), trace.fds.clone()).build().unwrap(),
    );
    let queries: Vec<PreparedQuery> = trace
        .events
        .iter()
        .filter_map(|event| match event {
            MutationEvent::Query(text) => Some(text.clone()),
            _ => None,
        })
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|text| PreparedQuery::parse(&text).unwrap())
        .collect();

    let done = AtomicBool::new(false);
    let mutations = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut last_generation = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let lease = registry.read("R").unwrap();
                    assert!(
                        lease.generation() >= last_generation,
                        "generations must be monotone per reader"
                    );
                    last_generation = lease.generation();
                    for query in &queries {
                        // Twice on one lease: a pinned snapshot never changes answers.
                        let first: Vec<_> = query
                            .execute(lease.snapshot(), FamilyKind::Local, Semantics::Possible)
                            .unwrap()
                            .collect();
                        let second: Vec<_> = query
                            .execute(lease.snapshot(), FamilyKind::Local, Semantics::Possible)
                            .unwrap()
                            .collect();
                        assert_eq!(first, second);
                    }
                }
            });
        }
        let mut applied = 0u64;
        for event in &trace.events {
            if let Some(mutation) = mutation_of("R", event) {
                let (generation, _) = apply(&registry, "R", &mutation, Parallelism::threads(2));
                applied += 1;
                assert_eq!(generation, 1 + applied, "every mutation gets its own swap");
            }
        }
        done.store(true, Ordering::Relaxed);
        applied
    });

    // The final published snapshot equals a fresh build of the folded rows.
    let mut rows: Vec<Vec<Value>> =
        trace.instance.iter().map(|(_, t)| t.values().to_vec()).collect();
    for event in &trace.events {
        fold_rows(&mut rows, event);
    }
    let fresh = EngineBuilder::new()
        .relation(
            RelationInstance::from_rows(Arc::clone(trace.instance.schema()), rows).unwrap(),
            trace.fds.clone(),
        )
        .build()
        .unwrap();
    let lease = registry.read("R").unwrap();
    assert_eq!(lease.generation(), 1 + mutations);
    assert_bit_identical(lease.snapshot(), &fresh, "post-trace");
}

/// Wire-level mutations: replaying the mutation trace through `INSERT`/`DELETE`
/// frames matches the in-process replay event for event — same counts, same
/// generations, same answers.
#[test]
fn replaying_a_mutation_trace_through_the_wire_matches_the_in_process_replay() {
    let mut rng = StdRng::seed_from_u64(2024);
    let trace = mutation_trace(3, 4, 30, 3, &mut rng);
    let build = || {
        EngineBuilder::new().relation(trace.instance.clone(), trace.fds.clone()).build().unwrap()
    };
    let registry = SnapshotRegistry::shared();
    registry.publish("R", build());
    let shadow = SnapshotRegistry::shared();
    shadow.publish("R", build());

    let handle = serve("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut prepared: std::collections::HashMap<String, String> = Default::default();
    for (index, event) in trace.events.iter().enumerate() {
        match event {
            MutationEvent::Query(text) => {
                let id = prepared.entry(text.clone()).or_insert_with(|| {
                    let id = format!("q{index}");
                    client.prepare(&id, text).unwrap();
                    id
                });
                let (outcome, generation) =
                    client.exec(id, FamilyKind::Rep, ExecMode::Possible).unwrap();
                let lease = shadow.read("R").unwrap();
                assert_eq!(generation, lease.generation(), "event {index}");
                let direct = PreparedQuery::parse(text)
                    .unwrap()
                    .execute(lease.snapshot(), FamilyKind::Rep, Semantics::Possible)
                    .unwrap();
                let expected: Vec<Vec<String>> = direct
                    .rows()
                    .iter()
                    .map(|row| row.iter().map(|v| v.to_string()).collect())
                    .collect();
                assert_eq!(
                    outcome,
                    ExecOutcome::Rows { columns: direct.columns().to_vec(), rows: expected },
                    "event {index}: `{text}`"
                );
            }
            mutation_event => {
                let (rows, insert) = match mutation_event {
                    MutationEvent::Insert(rows) => (rows, true),
                    MutationEvent::Delete(rows) => (rows, false),
                    MutationEvent::Query(_) => unreachable!(),
                };
                let wire_rows: Vec<Vec<String>> =
                    rows.iter().map(|row| row.iter().map(|v| v.to_string()).collect()).collect();
                let (count, generation) = if insert {
                    client.insert("R", &wire_rows).unwrap()
                } else {
                    client.delete("R", &wire_rows).unwrap()
                };
                let mutation = mutation_of("R", mutation_event).unwrap();
                let (shadow_generation, report) =
                    apply(&shadow, "R", &mutation, Parallelism::sequential());
                let expected = if insert { report.inserted } else { report.deleted };
                assert_eq!((count, generation), (expected, shadow_generation), "event {index}");
            }
        }
    }
    assert_eq!(registry.generation("R"), shadow.generation("R"));
    client.shutdown().unwrap();
    handle.wait();
}
