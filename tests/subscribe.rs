//! The continuous-query subscription subsystem end to end.
//!
//! The pinned acceptance properties:
//!
//! * **push equals poll**: replaying a mutation trace (and a revision trace) through
//!   the registry, every pushed [`AnswerDelta`] is bit-identical to the diff of two
//!   full executions on consecutive snapshots — at every degree of parallelism — and
//!   the post-swap answer matches a fresh `EngineBuilder` rebuild of the folded rows;
//! * **provable skips**: a swap whose [`ChangeScope`] cannot touch a query's answer
//!   (different table, mutation of unread relations, priority revision under `Rep`,
//!   empty affected set) pushes nothing and runs **zero** re-executions,
//!   counter-verified through [`SubscriptionManager::stats`];
//! * **no lost or reordered deltas under load**: a subscriber draining concurrently
//!   with a writer observes strictly increasing generations whose deltas fold to the
//!   final answer;
//! * **bounded queues**: a slow subscriber overflows into exactly one `Lagged` resync
//!   carrying the current full answer, then resumes incremental service;
//! * the same guarantees hold **over the wire**: `SUBSCRIBE`, a `MUTATE` batch, a
//!   pushed `DELTA`, and a clean `UNSUBSCRIBE` through the TCP front end.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pdqi::datagen::{
    multi_chain_instance, multi_chain_relations, mutation_trace, revision_trace, MutationEvent,
    TraceEvent,
};
use pdqi::priority::PriorityError;
use pdqi::server::{serve, Client, PushEvent, ServerConfig};
use pdqi::{
    AnswerDelta, Change, ChangeReport, EngineBuilder, EngineSnapshot, FamilyKind, Mutation,
    Parallelism, PreparedQuery, Priority, RelationInstance, Semantics, SnapshotRegistry,
    SubscribeOptions, SubscriptionEvent, SubscriptionManager, TupleId, Value,
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

/// Commits the priority `pairs` orient over `table`'s conflict graph.
fn reprioritise(
    registry: &SnapshotRegistry,
    table: &str,
    pairs: &[(TupleId, TupleId)],
    parallelism: Parallelism,
) -> u64 {
    let change = |current: &EngineSnapshot| {
        let priority = Priority::from_pairs(Arc::clone(current.context().graph()), pairs)?;
        Ok::<_, PriorityError>(Change::Priority { relation: table.to_string(), priority })
    };
    registry.commit(table, None, parallelism, change).unwrap().0
}

/// One polling shadow of a subscription: re-executes in full and diffs.
struct Poller {
    query: Arc<PreparedQuery>,
    family: FamilyKind,
    rows: Vec<Vec<Value>>,
}

impl Poller {
    /// Executes in full on the registry's current snapshot and returns the diff
    /// against the previously observed answer, plus the observed generation.
    fn poll(
        &mut self,
        registry: &SnapshotRegistry,
        parallelism: Parallelism,
    ) -> (Vec<Vec<Value>>, Vec<Vec<Value>>, u64) {
        let lease = registry.read("R").expect("table is served");
        let answer = self
            .query
            .execute_with(lease.snapshot(), self.family, Semantics::Certain, parallelism)
            .unwrap();
        let new_rows = answer.rows().to_vec();
        let old: BTreeSet<&Vec<Value>> = self.rows.iter().collect();
        let new: BTreeSet<&Vec<Value>> = new_rows.iter().collect();
        let added: Vec<Vec<Value>> = new.difference(&old).map(|row| (*row).clone()).collect();
        let removed: Vec<Vec<Value>> = old.difference(&new).map(|row| (*row).clone()).collect();
        self.rows = new_rows;
        (added, removed, lease.generation())
    }
}

/// Asserts a drained event stream is exactly the expected delta (or nothing).
fn assert_delta(
    events: &[SubscriptionEvent],
    added: Vec<Vec<Value>>,
    removed: Vec<Vec<Value>>,
    generation: u64,
    context: &str,
) {
    if added.is_empty() && removed.is_empty() {
        assert!(events.is_empty(), "{context}: unchanged answer must push nothing: {events:?}");
        return;
    }
    assert_eq!(
        events,
        &[SubscriptionEvent::Delta(AnswerDelta { generation, added, removed })],
        "{context}"
    );
}

#[test]
fn pushed_deltas_are_bit_identical_to_polling_at_every_parallelism() {
    for threads in [1usize, 2, 4, 8] {
        let parallelism = Parallelism::threads(threads);
        let mut rng = StdRng::seed_from_u64(7);
        let trace = mutation_trace(4, 5, 36, 3, &mut rng);
        let schema = Arc::clone(trace.instance.schema());
        let mut folded: Vec<Vec<Value>> =
            trace.instance.iter().map(|(_, tuple)| tuple.values().to_vec()).collect();

        let registry = SnapshotRegistry::shared();
        let snapshot = EngineBuilder::new()
            .relation(trace.instance.clone(), trace.fds.clone())
            .parallelism(parallelism)
            .build()
            .unwrap();
        registry.publish("R", snapshot);
        let manager = SubscriptionManager::new(parallelism);
        manager.attach(&registry);

        // Two live subscriptions: an open projection under a priority-sensitive
        // family and a key projection under the plain repair family.
        let specs = [
            ("EXISTS b,c,d . R(x,b,c,d)", FamilyKind::Global),
            ("EXISTS a,c,d . R(a,x,c,d)", FamilyKind::Rep),
        ];
        let mut subscriptions = Vec::new();
        for (text, family) in specs {
            let query = Arc::new(PreparedQuery::parse(text).unwrap());
            let subscribed = manager
                .subscribe(&registry, Arc::clone(&query), family, Semantics::Certain)
                .unwrap();
            let poller = Poller { query, family, rows: subscribed.rows.clone() };
            subscriptions.push((subscribed.id, poller));
        }

        for (index, event) in trace.events.iter().enumerate() {
            let mutation = match event {
                MutationEvent::Query(_) => continue,
                MutationEvent::Insert(rows) => {
                    folded.extend(rows.iter().cloned());
                    Mutation::new().insert_rows("R", rows.iter().cloned())
                }
                MutationEvent::Delete(rows) => {
                    folded.retain(|row| !rows.contains(row));
                    Mutation::new().delete_rows("R", rows.iter().cloned())
                }
            };
            apply(&registry, "R", &mutation, parallelism);
            // A from-scratch build of the folded rows is the ground truth the pushed
            // state must agree with.
            let fresh = EngineBuilder::new()
                .relation(
                    RelationInstance::from_rows(Arc::clone(&schema), folded.clone()).unwrap(),
                    trace.fds.clone(),
                )
                .build()
                .unwrap();
            for (id, poller) in &mut subscriptions {
                let (added, removed, generation) = poller.poll(&registry, parallelism);
                let ground = poller
                    .query
                    .execute_with(&fresh, poller.family, Semantics::Certain, parallelism)
                    .unwrap();
                assert_eq!(
                    poller.rows,
                    ground.rows(),
                    "event {index} ({threads} thread(s)): served answer diverged from rebuild"
                );
                assert_delta(
                    &manager.drain(*id),
                    added,
                    removed,
                    generation,
                    &format!("event {index}, subscription {id} ({threads} thread(s))"),
                );
            }
        }
        let stats = manager.stats();
        assert!(stats.deltas_pushed > 0, "trace never changed an answer ({threads} thread(s))");
    }
}

#[test]
fn revision_deltas_match_polling_and_rep_subscribers_never_reexecute() {
    let parallelism = Parallelism::threads(2);
    let mut rng = StdRng::seed_from_u64(11);
    let trace = revision_trace(3, 4, 30, 3, &mut rng);
    let registry = SnapshotRegistry::shared();
    let snapshot =
        EngineBuilder::new().relation(trace.instance.clone(), trace.fds.clone()).build().unwrap();
    registry.publish("R", snapshot);

    // Two managers on one registry so the executions counter isolates each
    // subscription: `global` must re-execute on real priority changes, `rep` must
    // prove every one of them away.
    let global = SubscriptionManager::new(parallelism);
    global.attach(&registry);
    let rep = SubscriptionManager::new(parallelism);
    rep.attach(&registry);

    let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap());
    let subscribed = global
        .subscribe(&registry, Arc::clone(&query), FamilyKind::Global, Semantics::Certain)
        .unwrap();
    let mut poller =
        Poller { query: Arc::clone(&query), family: FamilyKind::Global, rows: subscribed.rows };
    let rep_sub =
        rep.subscribe(&registry, Arc::clone(&query), FamilyKind::Rep, Semantics::Certain).unwrap();

    let mut revisions = 0u64;
    for (index, event) in trace.events.iter().enumerate() {
        let TraceEvent::Revision(pairs) = event else {
            continue;
        };
        revisions += 1;
        reprioritise(&registry, "R", pairs, parallelism);
        let (added, removed, generation) = poller.poll(&registry, parallelism);
        assert_delta(
            &global.drain(subscribed.id),
            added,
            removed,
            generation,
            &format!("revision at event {index}"),
        );
        // The plain-repair answer is priority-insensitive: every revision is proven
        // away without touching the executor, and the subscription stays current.
        assert!(rep.drain(rep_sub.id).is_empty(), "event {index}: Rep answer changed");
    }
    assert!(revisions >= 8, "trace produced too few revisions");
    let rep_stats = rep.stats();
    assert_eq!(rep_stats.executions, 1, "only the registration execution is allowed");
    assert_eq!(rep_stats.skipped_unchanged, revisions);
    assert_eq!(rep_stats.deltas_pushed, 0);
    assert_eq!(rep.list()[0].generation, registry.generation("R"), "skips still advance");
}

#[test]
fn swaps_that_cannot_affect_a_query_run_zero_reexecutions() {
    let parallelism = Parallelism::sequential();
    let tables = multi_chain_relations(2, 3, 4);
    let registry = SnapshotRegistry::shared();
    for (instance, fds) in &tables {
        let name = instance.schema().name().to_string();
        let snapshot =
            EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap();
        registry.publish(&name, snapshot);
    }
    let manager = SubscriptionManager::new(parallelism);
    manager.attach(&registry);
    let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R0(x,b,c,d)").unwrap());
    let subscribed = manager
        .subscribe(&registry, Arc::clone(&query), FamilyKind::Global, Semantics::Certain)
        .unwrap();
    assert_eq!(manager.stats().executions, 1);

    // A mutation of a table the query does not read: proven unchanged, no execution.
    let victim: Vec<Value> = tables[1].0.iter().next().unwrap().1.values().to_vec();
    apply(&registry, "R1", &Mutation::new().delete_rows("R1", [victim]), parallelism);
    assert!(manager.drain(subscribed.id).is_empty());
    let stats = manager.stats();
    assert_eq!(stats.executions, 1, "unrelated mutation must not re-execute");
    assert_eq!(stats.skipped_unchanged, 1);

    // A genuine priority revision of the watched table re-executes (the answer may
    // or may not change; the counter must move either way)...
    let pairs: Vec<_> = {
        let lease = registry.read("R0").unwrap();
        let edges = lease.snapshot().graph().edges().to_vec();
        edges.into_iter().take(2).collect()
    };
    let revise = |pairs: &[(TupleId, TupleId)]| reprioritise(&registry, "R0", pairs, parallelism);
    revise(&pairs);
    assert_eq!(manager.stats().executions, 2, "a real revision must re-execute");

    // ... but re-setting the *identical* priority reports an empty affected set,
    // which proves the answer unchanged even for a priority-sensitive family.
    revise(&pairs);
    manager.drain(subscribed.id);
    let stats = manager.stats();
    assert_eq!(stats.executions, 2, "an identical revision must be proven away");
    assert_eq!(stats.skipped_unchanged, 2);
    assert_eq!(manager.list()[0].generation, registry.generation("R0"));
}

#[test]
fn concurrent_writer_produces_gapless_ordered_deltas_that_fold_to_the_final_answer() {
    let parallelism = Parallelism::sequential();
    let (instance, fds) = multi_chain_instance(3, 4);
    let schema = Arc::clone(instance.schema());
    let registry = SnapshotRegistry::shared();
    registry.publish(
        "R",
        EngineBuilder::new().relation(instance.clone(), fds.clone()).build().unwrap(),
    );
    let manager = SubscriptionManager::new(parallelism);
    manager.attach(&registry);
    let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap());
    let subscribed = manager
        .subscribe(&registry, Arc::clone(&query), FamilyKind::Global, Semantics::Certain)
        .unwrap();

    // Every insert adds a conflict-free tuple with a fresh key, so each swap grows
    // the certain answer by exactly one row — every generation must surface.
    let writes = 24usize;
    let mut deltas: Vec<AnswerDelta> = Vec::new();
    std::thread::scope(|scope| {
        let registry = &registry;
        let writer = scope.spawn(move || {
            for i in 0..writes {
                let row = vec![
                    Value::int(5_000 + i as i64),
                    Value::int(0),
                    Value::int(6_000_000 + i as i64),
                    Value::int(0),
                ];
                let mutation = Mutation::new().insert_rows("R", [row]);
                apply(registry, "R", &mutation, Parallelism::sequential());
            }
        });
        while !writer.is_finished() {
            for event in manager.drain(subscribed.id) {
                match event {
                    SubscriptionEvent::Delta(delta) => deltas.push(delta),
                    SubscriptionEvent::Lagged { .. } => panic!("queue must not overflow"),
                }
            }
            std::thread::yield_now();
        }
        writer.join().unwrap();
    });
    for event in manager.drain(subscribed.id) {
        match event {
            SubscriptionEvent::Delta(delta) => deltas.push(delta),
            SubscriptionEvent::Lagged { .. } => panic!("queue must not overflow"),
        }
    }

    assert_eq!(deltas.len(), writes, "every answer-changing swap pushes exactly one delta");
    for pair in deltas.windows(2) {
        assert!(pair[0].generation < pair[1].generation, "generations must be ordered");
    }
    // Folding the deltas over the initial answer reproduces the final full answer on
    // the final published snapshot.
    let mut folded: BTreeSet<Vec<Value>> = subscribed.rows.into_iter().collect();
    for delta in &deltas {
        for row in &delta.removed {
            assert!(folded.remove(row), "removed row was never present");
        }
        for row in &delta.added {
            assert!(folded.insert(row.clone()), "added row was already present");
        }
    }
    let final_rows: Vec<Vec<Value>> = folded.into_iter().collect();
    let lease = registry.read("R").unwrap();
    let full = query
        .execute_with(lease.snapshot(), FamilyKind::Global, Semantics::Certain, parallelism)
        .unwrap();
    assert_eq!(final_rows, full.rows());
    // Sanity: the folded catalog really grew.
    let rebuilt = EngineBuilder::new()
        .relation(
            RelationInstance::from_rows(
                schema,
                lease
                    .snapshot()
                    .context()
                    .instance()
                    .iter()
                    .map(|(_, tuple)| tuple.values().to_vec())
                    .collect(),
            )
            .unwrap(),
            fds,
        )
        .build()
        .unwrap();
    assert_eq!(
        full.rows(),
        query
            .execute_with(&rebuilt, FamilyKind::Global, Semantics::Certain, parallelism)
            .unwrap()
            .rows()
    );
}

#[test]
fn overflowing_subscribers_get_one_lagged_resync_then_resume() {
    let parallelism = Parallelism::sequential();
    let (instance, fds) = multi_chain_instance(2, 3);
    let registry = SnapshotRegistry::shared();
    registry.publish("R", EngineBuilder::new().relation(instance, fds).build().unwrap());
    let manager = SubscriptionManager::new(parallelism);
    manager.attach(&registry);
    let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap());
    let options = SubscribeOptions { queue_capacity: Some(1), ..SubscribeOptions::default() };
    let subscribed = manager
        .subscribe_with(
            &registry,
            Arc::clone(&query),
            FamilyKind::Global,
            Semantics::Certain,
            options,
        )
        .unwrap();

    let insert = |i: i64| {
        let row =
            vec![Value::int(7_000 + i), Value::int(0), Value::int(8_000_000 + i), Value::int(0)];
        apply(&registry, "R", &Mutation::new().insert_rows("R", [row]), parallelism).0
    };
    insert(1);
    insert(2);
    insert(3);
    // Three undrained answer-changing swaps against a capacity-1 queue: the queue
    // collapsed into a single resync carrying the *current* full answer.
    let events = manager.drain(subscribed.id);
    let lease = registry.read("R").unwrap();
    let full = query
        .execute_with(lease.snapshot(), FamilyKind::Global, Semantics::Certain, parallelism)
        .unwrap();
    assert_eq!(
        events,
        vec![SubscriptionEvent::Lagged {
            generation: lease.generation(),
            rows: full.rows().to_vec()
        }]
    );
    assert_eq!(manager.stats().lagged_resyncs, 1);
    // The resync cleared the flag: the next swap is incremental again.
    let generation = insert(4);
    let events = manager.drain(subscribed.id);
    assert_eq!(events.len(), 1);
    let SubscriptionEvent::Delta(delta) = &events[0] else {
        panic!("expected a delta after the resync, got {events:?}");
    };
    assert_eq!(delta.generation, generation);
    assert_eq!(delta.added, vec![vec![Value::int(7_004)]]);
    assert!(delta.removed.is_empty());
}

#[test]
fn wire_subscriptions_push_deltas_for_mutate_batches() {
    let (instance, fds) = multi_chain_instance(2, 3);
    let registry = SnapshotRegistry::shared();
    registry.publish("R", EngineBuilder::new().relation(instance, fds).build().unwrap());
    let handle = serve("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client.prepare("q", "EXISTS b,c,d . R(x,b,c,d)").unwrap();
    let reply = client.subscribe("q", FamilyKind::Global, Semantics::Certain).unwrap();
    assert_eq!(reply.columns, vec!["x".to_string()]);
    let direct = {
        let lease = registry.read("R").unwrap();
        PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)")
            .unwrap()
            .execute(lease.snapshot(), FamilyKind::Global, Semantics::Certain)
            .unwrap()
            .rows()
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect::<Vec<String>>())
            .collect::<Vec<_>>()
    };
    assert_eq!(reply.rows, direct);

    // One MUTATE batch: insert a conflict-free tuple and delete nothing — a single
    // generation swap whose pushed delta adds exactly the new key.
    let fresh = vec!["777".to_string(), "1".to_string(), "999999".to_string(), "0".to_string()];
    let (inserted, deleted, generation) =
        client.mutate("R", std::slice::from_ref(&fresh), &[]).unwrap();
    assert_eq!((inserted, deleted), (1, 0));
    let event = client.wait_event(Duration::from_secs(10)).unwrap().expect("a delta was pushed");
    assert_eq!(
        event,
        PushEvent::Delta {
            sub: reply.sub,
            generation,
            added: vec![vec!["777".to_string()]],
            removed: vec![],
        }
    );

    // The reverse batch removes it again.
    let (_, deleted, generation) = client.mutate("R", &[], std::slice::from_ref(&fresh)).unwrap();
    assert_eq!(deleted, 1);
    let event = client.wait_event(Duration::from_secs(10)).unwrap().expect("a delta was pushed");
    assert_eq!(
        event,
        PushEvent::Delta {
            sub: reply.sub,
            generation,
            added: vec![],
            removed: vec![vec!["777".to_string()]],
        }
    );

    // Server-side observability: the STATS response reports the subscriber.
    let stats = client.stats().unwrap();
    assert!(stats.contains("subscriptions subscribers=1"), "{stats}");
    assert!(stats.lines().any(|l| l.starts_with("table R") && l.ends_with("subs=1")), "{stats}");

    // After UNSUBSCRIBE, further swaps push nothing to this connection.
    client.unsubscribe(reply.sub).unwrap();
    client.mutate("R", &[fresh], &[]).unwrap();
    assert_eq!(client.wait_event(Duration::from_millis(300)).unwrap(), None);

    client.shutdown().unwrap();
    handle.wait();
}
