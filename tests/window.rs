//! Windowed continuous queries and the write-pipelined push path, end to end.
//!
//! The pinned acceptance properties:
//!
//! * **fold identity across strategies**: replaying a mutation trace (and a revision
//!   trace), the per-generation stream, a coalesced stream and a windowed stream all
//!   fold to the same final answer — which equals a fresh `EngineBuilder` rebuild of
//!   the folded rows — at every degree of parallelism. Coalescing may *cancel*
//!   intermediate churn but never changes where the fold lands;
//! * **windows expire on schedule**: a `WindowedLastN` subscription reports the union
//!   of the last N per-generation answers; every pushed delta is bit-identical to
//!   diffing that union against the previous one, and a deleted row only leaves the
//!   reported answer once the last generation that supported it slides out;
//! * **a k-write burst costs one derivation and one push**: k frames through the
//!   [`WriteCoalescer`] net into a single `Mutation`, one `with_mutations` derivation,
//!   one swap and one pushed delta — counter-verified (`batches`, `coalesced_writes`,
//!   `derivations_saved`, manager `executions`) and bit-identical to applying the
//!   frames one at a time;
//! * **bounded queues still bound**: a per-subscription `QUEUE n` override lags
//!   independently of the manager default, and the resync *drops* any pending
//!   coalesced delta rather than replaying it across the full answer;
//! * the strategy clauses ride **over the wire**: `SUBSCRIBE … EVERY n QUEUE n`
//!   folds a MUTATE burst into one pushed `DELTA`, `COALESCE ms` flushes on the
//!   server's drain cycle, and `STATS` reports the `windows`/`writes` counters.

use std::collections::{BTreeSet, VecDeque};
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pdqi::datagen::{
    multi_chain_instance, mutation_trace, revision_trace, MutationEvent, TraceEvent,
};
use pdqi::priority::PriorityError;
use pdqi::server::{serve, Client, PushEvent, ReportSpec, ServerConfig};
use pdqi::{
    Change, ChangeReport, ChangeScope, EngineBuilder, EngineSnapshot, FamilyKind, Mutation,
    Parallelism, PreparedQuery, Priority, RelationInstance, ReportStrategy, Semantics,
    SnapshotRegistry, SubscribeOptions, SubscriptionEvent, SubscriptionManager, TupleId, Value,
    WriteCoalescer, WriteFrame,
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

/// Folds a drained event stream onto `rows`, asserting internal consistency
/// (removed rows were present, added rows were absent, generations increase).
fn fold_events(rows: &mut BTreeSet<Vec<Value>>, events: &[SubscriptionEvent], context: &str) {
    let mut last_generation = 0u64;
    for event in events {
        match event {
            SubscriptionEvent::Delta(delta) => {
                assert!(delta.generation > last_generation, "{context}: unordered generations");
                last_generation = delta.generation;
                for row in &delta.removed {
                    assert!(rows.remove(row), "{context}: removed row was never reported");
                }
                for row in &delta.added {
                    assert!(rows.insert(row.clone()), "{context}: added row already reported");
                }
            }
            SubscriptionEvent::Lagged { rows: full, .. } => {
                *rows = full.iter().cloned().collect();
            }
        }
    }
}

/// The current full answer of `query` on the registry's published snapshot.
fn full_answer(
    registry: &SnapshotRegistry,
    query: &PreparedQuery,
    parallelism: Parallelism,
) -> Vec<Vec<Value>> {
    let lease = registry.read("R").expect("table is served");
    query
        .execute_with(lease.snapshot(), FamilyKind::Global, Semantics::Certain, parallelism)
        .unwrap()
        .rows()
        .to_vec()
}

/// A swap of `R` that provably changes nothing: deleting an absent row re-executes
/// to the identical answer, advancing every window by one generation.
fn noop_swap(registry: &SnapshotRegistry, parallelism: Parallelism) {
    let absent = vec![Value::int(999_999), Value::int(0), Value::int(0), Value::int(0)];
    apply(registry, "R", &Mutation::new().delete_rows("R", [absent]), parallelism);
}

#[test]
fn coalesced_and_windowed_streams_fold_to_the_per_generation_answer() {
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

        let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap());
        let window_n = 3usize;
        let subscribe = |options: SubscribeOptions| {
            manager
                .subscribe_with(
                    &registry,
                    Arc::clone(&query),
                    FamilyKind::Global,
                    Semantics::Certain,
                    options,
                )
                .unwrap()
        };
        let pergen = subscribe(SubscribeOptions::default());
        let coalesced = subscribe(SubscribeOptions {
            strategy: ReportStrategy::coalesce(Duration::ZERO),
            ..SubscribeOptions::default()
        });
        let windowed = subscribe(SubscribeOptions {
            strategy: ReportStrategy::window(window_n),
            ..SubscribeOptions::default()
        });

        let mut pergen_fold: BTreeSet<Vec<Value>> = pergen.rows.into_iter().collect();
        let mut coalesced_fold: BTreeSet<Vec<Value>> = coalesced.rows.into_iter().collect();
        let mut windowed_fold: BTreeSet<Vec<Value>> = windowed.rows.iter().cloned().collect();
        // Shadow of the windowed subscription: the last N per-generation answers.
        let mut shadow: VecDeque<Vec<Vec<Value>>> = VecDeque::from([windowed.rows]);
        let mut shadow_reported: BTreeSet<Vec<Value>> = shadow[0].iter().cloned().collect();

        let mut events_seen = 0usize;
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
            events_seen += 1;

            // The per-generation stream drains (and folds) every swap.
            fold_events(&mut pergen_fold, &manager.drain(pergen.id), "per-generation");

            // The windowed stream is pinned swap by swap against the shadow: its
            // delta must be exactly the diff of consecutive last-N unions.
            let current = full_answer(&registry, &query, parallelism);
            shadow.push_back(current);
            while shadow.len() > window_n {
                shadow.pop_front();
            }
            let union: BTreeSet<Vec<Value>> = shadow.iter().flatten().cloned().collect();
            let events = manager.drain(windowed.id);
            if union == shadow_reported {
                assert!(events.is_empty(), "event {index}: unchanged union pushed {events:?}");
            } else {
                assert_eq!(events.len(), 1, "event {index}: expected one windowed delta");
                let SubscriptionEvent::Delta(delta) = &events[0] else {
                    panic!("event {index}: windowed stream lagged");
                };
                let added: BTreeSet<Vec<Value>> =
                    union.difference(&shadow_reported).cloned().collect();
                let removed: BTreeSet<Vec<Value>> =
                    shadow_reported.difference(&union).cloned().collect();
                assert_eq!(delta.added.iter().cloned().collect::<BTreeSet<_>>(), added);
                assert_eq!(delta.removed.iter().cloned().collect::<BTreeSet<_>>(), removed);
                shadow_reported = union;
            }
            fold_events(&mut windowed_fold, &events, "windowed");

            // The coalesced stream only drains every fifth swap: intermediate churn
            // folds into one pending delta flushed (max_delay = 0) at drain time.
            if events_seen.is_multiple_of(5) {
                fold_events(&mut coalesced_fold, &manager.drain(coalesced.id), "coalesced");
            }
        }

        // Quiescence: flush the coalesced remainder and slide the window until the
        // last N generations share one answer, then every fold must agree with a
        // fresh build of the folded rows.
        for _ in 0..window_n {
            noop_swap(&registry, parallelism);
            fold_events(&mut windowed_fold, &manager.drain(windowed.id), "windowed (quiesce)");
        }
        fold_events(&mut coalesced_fold, &manager.drain(coalesced.id), "coalesced (quiesce)");
        fold_events(&mut pergen_fold, &manager.drain(pergen.id), "per-generation (quiesce)");

        let fresh = EngineBuilder::new()
            .relation(
                RelationInstance::from_rows(Arc::clone(&schema), folded.clone()).unwrap(),
                trace.fds.clone(),
            )
            .build()
            .unwrap();
        let ground: BTreeSet<Vec<Value>> = query
            .execute_with(&fresh, FamilyKind::Global, Semantics::Certain, parallelism)
            .unwrap()
            .rows()
            .iter()
            .cloned()
            .collect();
        let served: BTreeSet<Vec<Value>> =
            full_answer(&registry, &query, parallelism).into_iter().collect();
        assert_eq!(served, ground, "{threads} thread(s): served diverged from rebuild");
        assert_eq!(pergen_fold, ground, "{threads} thread(s): per-generation fold");
        assert_eq!(coalesced_fold, ground, "{threads} thread(s): coalesced fold");
        assert_eq!(windowed_fold, ground, "{threads} thread(s): windowed fold");

        let windows = manager.window_stats();
        assert_eq!(windows.coalesced_subscribers, 1);
        assert_eq!(windows.windowed_subscribers, 1);
        assert!(windows.folded_swaps > 0, "trace never folded a swap");
        assert!(windows.coalesced_flushes > 0, "coalesced stream never flushed");
    }
}

#[test]
fn revision_streams_fold_identically_across_strategies() {
    let parallelism = Parallelism::threads(2);
    let mut rng = StdRng::seed_from_u64(11);
    let trace = revision_trace(3, 4, 30, 3, &mut rng);
    let registry = SnapshotRegistry::shared();
    registry.publish(
        "R",
        EngineBuilder::new().relation(trace.instance.clone(), trace.fds.clone()).build().unwrap(),
    );
    let manager = SubscriptionManager::new(parallelism);
    manager.attach(&registry);

    let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap());
    let window_n = 2usize;
    let subscribe = |options: SubscribeOptions| {
        manager
            .subscribe_with(
                &registry,
                Arc::clone(&query),
                FamilyKind::Global,
                Semantics::Certain,
                options,
            )
            .unwrap()
    };
    let pergen = subscribe(SubscribeOptions::default());
    let coalesced = subscribe(SubscribeOptions {
        strategy: ReportStrategy::coalesce(Duration::ZERO),
        ..SubscribeOptions::default()
    });
    let windowed = subscribe(SubscribeOptions {
        strategy: ReportStrategy::window(window_n),
        ..SubscribeOptions::default()
    });
    let mut pergen_fold: BTreeSet<Vec<Value>> = pergen.rows.into_iter().collect();
    let mut coalesced_fold: BTreeSet<Vec<Value>> = coalesced.rows.into_iter().collect();
    let mut windowed_fold: BTreeSet<Vec<Value>> = windowed.rows.into_iter().collect();

    let mut revisions = 0usize;
    for event in &trace.events {
        let TraceEvent::Revision(pairs) = event else {
            continue;
        };
        revisions += 1;
        reprioritise(&registry, "R", pairs, parallelism);
        fold_events(&mut pergen_fold, &manager.drain(pergen.id), "per-generation");
        fold_events(&mut windowed_fold, &manager.drain(windowed.id), "windowed");
        if revisions.is_multiple_of(3) {
            fold_events(&mut coalesced_fold, &manager.drain(coalesced.id), "coalesced");
        }
    }
    assert!(revisions >= 8, "trace produced too few revisions");

    // Quiesce through *empty* mutations: the scope names no relation, so the swap is
    // proven away without re-execution — and the window must still slide on it.
    for _ in 0..window_n {
        apply(&registry, "R", &Mutation::new(), parallelism);
        fold_events(&mut windowed_fold, &manager.drain(windowed.id), "windowed (quiesce)");
    }
    fold_events(&mut coalesced_fold, &manager.drain(coalesced.id), "coalesced (quiesce)");
    fold_events(&mut pergen_fold, &manager.drain(pergen.id), "per-generation (quiesce)");

    let served: BTreeSet<Vec<Value>> =
        full_answer(&registry, &query, parallelism).into_iter().collect();
    assert_eq!(pergen_fold, served, "per-generation fold");
    assert_eq!(coalesced_fold, served, "coalesced fold");
    assert_eq!(windowed_fold, served, "windowed fold");
}

#[test]
fn window_expiry_deltas_match_diffing_n_generation_snapshots() {
    let parallelism = Parallelism::sequential();
    let (instance, fds) = multi_chain_instance(2, 3);
    let registry = SnapshotRegistry::shared();
    registry.publish("R", EngineBuilder::new().relation(instance, fds).build().unwrap());
    let manager = SubscriptionManager::new(parallelism);
    manager.attach(&registry);
    let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap());
    let subscribed = manager
        .subscribe_with(
            &registry,
            Arc::clone(&query),
            FamilyKind::Global,
            Semantics::Certain,
            SubscribeOptions { strategy: ReportStrategy::window(3), ..SubscribeOptions::default() },
        )
        .unwrap();

    // Swap 1: a conflict-free insert enters the answer — and the window — at once.
    let row = vec![Value::int(7_777), Value::int(0), Value::int(8_888_888), Value::int(0)];
    let key = vec![Value::int(7_777)];
    let (g1, _) =
        apply(&registry, "R", &Mutation::new().insert_rows("R", [row.clone()]), parallelism);
    let events = manager.drain(subscribed.id);
    assert_eq!(
        events,
        vec![SubscriptionEvent::Delta(pdqi::AnswerDelta {
            generation: g1,
            added: vec![key.clone()],
            removed: vec![],
        })],
        "an insert is reported immediately"
    );

    // Swap 2: delete it again. The per-generation answer loses the key, but the
    // window still holds the generation that had it — nothing is pushed.
    apply(&registry, "R", &Mutation::new().delete_rows("R", [row]), parallelism);
    assert!(manager.drain(subscribed.id).is_empty(), "a windowed delete must not report early");

    // Swap 3: the insert generation is still inside the 3-wide window.
    noop_swap(&registry, parallelism);
    assert!(manager.drain(subscribed.id).is_empty(), "the supporting generation has not expired");

    // Swap 4: the insert generation slides out — the expiry delta appears, exactly
    // the diff of the last-3 union before and after the slide.
    noop_swap(&registry, parallelism);
    let lease = registry.read("R").unwrap();
    let g4 = lease.generation();
    drop(lease);
    let events = manager.drain(subscribed.id);
    assert_eq!(
        events,
        vec![SubscriptionEvent::Delta(pdqi::AnswerDelta {
            generation: g4,
            added: vec![],
            removed: vec![key],
        })],
        "the deletion surfaces exactly when its last supporting generation expires"
    );
    assert_eq!(manager.window_stats().expiry_deltas, 1);

    // From here the window is converged: its union equals the live answer.
    let served: BTreeSet<Vec<Value>> =
        full_answer(&registry, &query, parallelism).into_iter().collect();
    let reported: BTreeSet<Vec<Value>> = {
        let infos = manager.list();
        assert_eq!(infos.len(), 1);
        // Folding the stream: initial rows + delta1 − delta4 = initial rows.
        subscribed.rows.iter().cloned().collect()
    };
    assert_eq!(reported, served);
}

#[test]
fn per_subscription_queue_bounds_lag_and_resyncs_drop_pending_coalesced_deltas() {
    let parallelism = Parallelism::sequential();
    let (instance, fds) = multi_chain_instance(2, 3);
    let registry = SnapshotRegistry::shared();
    registry.publish("R", EngineBuilder::new().relation(instance, fds).build().unwrap());
    let manager = SubscriptionManager::new(parallelism);
    manager.attach(&registry);
    let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap());
    // `EVERY 2` against a queue of 1: every second change enqueues one delta.
    let tight = manager
        .subscribe_with(
            &registry,
            Arc::clone(&query),
            FamilyKind::Global,
            Semantics::Certain,
            SubscribeOptions { strategy: ReportStrategy::every(2), queue_capacity: Some(1) },
        )
        .unwrap();
    // A default subscription on the same manager: the override must not leak.
    let roomy = manager
        .subscribe(&registry, Arc::clone(&query), FamilyKind::Global, Semantics::Certain)
        .unwrap();

    let insert = |i: i64| {
        let row =
            vec![Value::int(7_000 + i), Value::int(0), Value::int(8_000_000 + i), Value::int(0)];
        apply(&registry, "R", &Mutation::new().insert_rows("R", [row]), parallelism).0
    };
    // Changes 1-4: two flushed deltas against capacity 1 — the second overflows.
    // Change 5 folds into a *pending* delta behind the lag.
    for i in 1..=5 {
        insert(i);
    }
    assert_eq!(manager.stats().lagged_resyncs, 1, "the tight queue must collapse exactly once");

    // The resync carries the current full answer and DROPS the pending delta: rows
    // 7_001..=7_005 are all present, none is replayed afterwards.
    let events = manager.drain(tight.id);
    let full: Vec<Vec<Value>> = full_answer(&registry, &query, parallelism);
    assert_eq!(events.len(), 1);
    let SubscriptionEvent::Lagged { rows, .. } = &events[0] else {
        panic!("expected a lagged resync, got {events:?}");
    };
    assert_eq!(rows, &full);
    assert_eq!(manager.window_stats().pending_dropped, 1, "the pending delta must be dropped");

    // Service resumes incrementally: two more changes flush one clean delta that
    // folds correctly onto the resync baseline.
    insert(6);
    let g7 = insert(7);
    let events = manager.drain(tight.id);
    assert_eq!(
        events,
        vec![SubscriptionEvent::Delta(pdqi::AnswerDelta {
            generation: g7,
            added: vec![vec![Value::int(7_006)], vec![Value::int(7_007)]],
            removed: vec![],
        })]
    );

    // The roomy default subscription saw every change individually, no lag.
    let mut fold: BTreeSet<Vec<Value>> = roomy.rows.into_iter().collect();
    let events = manager.drain(roomy.id);
    assert_eq!(events.len(), 7, "default capacity must not lag under 7 queued deltas");
    fold_events(&mut fold, &events, "roomy");
    assert_eq!(fold, full_answer(&registry, &query, parallelism).into_iter().collect());
}

#[test]
fn a_k_write_burst_costs_one_derivation_and_one_push() {
    let parallelism = Parallelism::sequential();
    let (instance, fds) = multi_chain_instance(2, 3);
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
    let coalescer = WriteCoalescer::new(Arc::clone(&registry), parallelism);

    let generation_before = registry.generation("R");
    let k = 8usize;
    let frames: Vec<WriteFrame> = (0..k)
        .map(|i| {
            let row = vec![
                Value::int(5_000 + i as i64),
                Value::int(0),
                Value::int(6_000_000 + i as i64),
                Value::int(0),
            ];
            WriteFrame::new(vec![row], Vec::new())
        })
        .collect();
    let outcomes: Vec<_> =
        coalescer.apply_frames("R", frames).into_iter().map(|r| r.unwrap()).collect();

    // One batch: one generation, shared by all k frames, one swap on the registry.
    assert_eq!(registry.generation("R"), generation_before + 1, "exactly one swap");
    for outcome in &outcomes {
        assert_eq!(outcome.generation, generation_before + 1);
        assert_eq!((outcome.inserted, outcome.deleted), (1, 0));
        assert_eq!(outcome.batched_with, k - 1);
    }
    let stats = coalescer.stats();
    assert_eq!(stats.frames, k as u64);
    assert_eq!(stats.batches, 1, "k frames must share one derivation");
    assert_eq!(stats.coalesced_writes, k as u64);
    assert_eq!(stats.derivations_saved, (k - 1) as u64);

    // One push: a single delta carrying all k new keys, and a single re-execution.
    let events = manager.drain(subscribed.id);
    assert_eq!(events.len(), 1, "one burst, one delta");
    let SubscriptionEvent::Delta(delta) = &events[0] else {
        panic!("burst must push a delta, got {events:?}");
    };
    assert_eq!(delta.added.len(), k);
    assert!(delta.removed.is_empty());
    assert_eq!(manager.stats().executions, 2, "registration plus one for the whole burst");

    // Bit identity: the batched result equals a fresh build of the same rows.
    let mut rows: Vec<Vec<Value>> =
        instance.iter().map(|(_, tuple)| tuple.values().to_vec()).collect();
    for i in 0..k {
        rows.push(vec![
            Value::int(5_000 + i as i64),
            Value::int(0),
            Value::int(6_000_000 + i as i64),
            Value::int(0),
        ]);
    }
    let fresh = EngineBuilder::new()
        .relation(RelationInstance::from_rows(schema, rows).unwrap(), fds)
        .build()
        .unwrap();
    assert_eq!(
        full_answer(&registry, &query, parallelism),
        query
            .execute_with(&fresh, FamilyKind::Global, Semantics::Certain, parallelism)
            .unwrap()
            .rows()
    );

    // Fully cancelled churn: an insert frame and a delete frame of the same row net
    // to an empty mutation — both frames report their effect, nobody is pushed.
    let churn = vec![Value::int(4_444), Value::int(0), Value::int(5_555_555), Value::int(0)];
    let outcomes: Vec<_> = coalescer
        .apply_frames(
            "R",
            vec![
                WriteFrame::new(vec![churn.clone()], Vec::new()),
                WriteFrame::new(Vec::new(), vec![churn]),
            ],
        )
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!((outcomes[0].inserted, outcomes[0].deleted), (1, 0));
    assert_eq!((outcomes[1].inserted, outcomes[1].deleted), (0, 1));
    assert!(manager.drain(subscribed.id).is_empty(), "cancelled churn must push nothing");
    assert_eq!(manager.stats().executions, 2, "an empty net mutation is proven away");

    // Error rendering matches the un-coalesced path verbatim.
    let error = coalescer.apply("Ghost", WriteFrame::new(Vec::new(), Vec::new())).unwrap_err();
    assert_eq!(error.to_string(), "registry serves no table `Ghost`");
}

#[test]
fn concurrent_writers_coalesce_through_the_revision_lock() {
    let parallelism = Parallelism::sequential();
    let (instance, fds) = multi_chain_instance(2, 3);
    let registry = SnapshotRegistry::shared();
    registry.publish("R", EngineBuilder::new().relation(instance, fds).build().unwrap());
    let manager = SubscriptionManager::new(parallelism);
    manager.attach(&registry);
    let query = Arc::new(PreparedQuery::parse("EXISTS b,c,d . R(x,b,c,d)").unwrap());
    let subscribed = manager
        .subscribe(&registry, Arc::clone(&query), FamilyKind::Global, Semantics::Certain)
        .unwrap();
    let coalescer = WriteCoalescer::new(Arc::clone(&registry), parallelism);

    // Hold R's revision lock from a scoped no-op revision while k writers enqueue:
    // when the gate opens, whichever writer leads drains every queued frame inside
    // one derivation — deterministically, because the writers start only once the
    // holder is inside the lock, and all k frames are pending before it frees.
    let gate = Arc::new(AtomicBool::new(false));
    let held = Arc::new(AtomicBool::new(false));
    let k = 6usize;
    std::thread::scope(|scope| {
        let holder = {
            let registry = &registry;
            let gate = Arc::clone(&gate);
            let held = Arc::clone(&held);
            scope.spawn(move || {
                registry
                    .revise_scoped("R", |current| {
                        held.store(true, Ordering::Release);
                        while !gate.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Ok::<_, pdqi::BuildError>((
                            current.clone(),
                            ChangeScope::Mutation { relations: Vec::new() },
                        ))
                    })
                    .unwrap();
            })
        };
        while !held.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let writers: Vec<_> = (0..k)
            .map(|i| {
                let coalescer = Arc::clone(&coalescer);
                scope.spawn(move || {
                    let row = vec![
                        Value::int(5_000 + i as i64),
                        Value::int(0),
                        Value::int(6_000_000 + i as i64),
                        Value::int(0),
                    ];
                    coalescer.apply("R", WriteFrame::new(vec![row], Vec::new())).unwrap()
                })
            })
            .collect();
        // Wait until every writer's frame is enqueued, then free the lock.
        while coalescer.stats().frames < k as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.store(true, Ordering::Release);
        holder.join().unwrap();
        let outcomes: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        let generation = outcomes[0].generation;
        for outcome in &outcomes {
            assert_eq!(outcome.generation, generation, "all frames share one swap");
            assert_eq!(outcome.batched_with, k - 1);
        }
    });

    let stats = coalescer.stats();
    assert_eq!(stats.batches, 1, "the burst must fold into one derivation");
    assert_eq!(stats.coalesced_writes, k as u64);
    assert_eq!(stats.derivations_saved, (k - 1) as u64);

    // The subscriber paid once for the whole burst: fewer executions than writes,
    // and the single delta folds to the served answer.
    let events = manager.drain(subscribed.id);
    assert_eq!(events.len(), 1);
    let SubscriptionEvent::Delta(delta) = &events[0] else {
        panic!("expected one delta, got {events:?}");
    };
    assert_eq!(delta.added.len(), k);
    let executions = manager.stats().executions;
    assert!(
        executions - 1 < k as u64,
        "burst coalescing must re-execute less than once per write ({executions})"
    );
}

#[test]
fn burst_rounds_save_derivations_with_identical_final_answers() {
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
    let coalescer = WriteCoalescer::new(Arc::clone(&registry), parallelism);

    let rounds = 6usize;
    let per_round = 4usize;
    let mut extra: Vec<Vec<Value>> = Vec::new();
    for round in 0..rounds {
        let frames: Vec<WriteFrame> = (0..per_round)
            .map(|i| {
                let key = (round * per_round + i) as i64;
                let row = vec![
                    Value::int(5_000 + key),
                    Value::int(0),
                    Value::int(6_000_000 + key),
                    Value::int(0),
                ];
                extra.push(row.clone());
                WriteFrame::new(vec![row], Vec::new())
            })
            .collect();
        for outcome in coalescer.apply_frames("R", frames) {
            outcome.unwrap();
        }
    }
    let writes = (rounds * per_round) as u64;
    let stats = coalescer.stats();
    assert_eq!(stats.frames, writes);
    assert_eq!(stats.batches, rounds as u64, "each round folds into one derivation");
    assert_eq!(stats.derivations_saved, writes - rounds as u64);
    let executions = manager.stats().executions - 1;
    assert!(executions < writes, "executions ({executions}) must stay below writes ({writes})");
    assert_eq!(executions, rounds as u64);

    // Fold the pushed stream and compare against a fresh build of all rows.
    let mut fold: BTreeSet<Vec<Value>> = subscribed.rows.into_iter().collect();
    fold_events(&mut fold, &manager.drain(subscribed.id), "burst rounds");
    let mut rows: Vec<Vec<Value>> =
        instance.iter().map(|(_, tuple)| tuple.values().to_vec()).collect();
    rows.extend(extra);
    let fresh = EngineBuilder::new()
        .relation(RelationInstance::from_rows(schema, rows).unwrap(), fds)
        .build()
        .unwrap();
    let ground: BTreeSet<Vec<Value>> = query
        .execute_with(&fresh, FamilyKind::Global, Semantics::Certain, parallelism)
        .unwrap()
        .rows()
        .iter()
        .cloned()
        .collect();
    assert_eq!(fold, ground);
    assert_eq!(
        full_answer(&registry, &query, parallelism).into_iter().collect::<BTreeSet<_>>(),
        ground
    );
}

#[test]
fn wire_report_strategies_fold_mutate_bursts_into_one_delta() {
    let (instance, fds) = multi_chain_instance(2, 3);
    let registry = SnapshotRegistry::shared();
    registry.publish("R", EngineBuilder::new().relation(instance, fds).build().unwrap());
    let handle = serve("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client.prepare("q", "EXISTS b,c,d . R(x,b,c,d)").unwrap();
    // `EVERY 3 QUEUE 8`: three answer-changing MUTATEs flush exactly one delta.
    let every = client
        .subscribe_with("q", FamilyKind::Global, Semantics::Certain, ReportSpec::Every(3), Some(8))
        .unwrap();
    let mut generation = 0;
    for key in ["8101", "8102", "8103"] {
        let row = vec![key.to_string(), "1".to_string(), "999999".to_string(), "0".to_string()];
        let (inserted, _, gen) = client.mutate("R", std::slice::from_ref(&row), &[]).unwrap();
        assert_eq!(inserted, 1);
        generation = gen;
    }
    let event = client.wait_event(Duration::from_secs(10)).unwrap().expect("the flushed delta");
    assert_eq!(
        event,
        PushEvent::Delta {
            sub: every.sub,
            generation,
            added: vec![
                vec!["8101".to_string()],
                vec!["8102".to_string()],
                vec!["8103".to_string()],
            ],
            removed: vec![],
        },
        "three swaps, one pushed delta"
    );
    assert_eq!(client.wait_event(Duration::from_millis(300)).unwrap(), None);

    // `COALESCE 1`: the pending delta flushes on the server's idle drain cycle.
    let coalesce = client
        .subscribe_with("q", FamilyKind::Global, Semantics::Certain, ReportSpec::Coalesce(1), None)
        .unwrap();
    let row = vec!["8104".to_string(), "1".to_string(), "999999".to_string(), "0".to_string()];
    let (_, _, generation) = client.mutate("R", std::slice::from_ref(&row), &[]).unwrap();
    let event = client.wait_event(Duration::from_secs(10)).unwrap().expect("the coalesced delta");
    assert_eq!(
        event,
        PushEvent::Delta {
            sub: coalesce.sub,
            generation,
            added: vec![vec!["8104".to_string()]],
            removed: vec![],
        }
    );

    // Observability: STATS renders the report-strategy and write-coalescing lines,
    // and the typed client accessor parses the latter.
    let stats = client.stats().unwrap();
    assert!(
        stats.lines().any(|l| l.starts_with("windows coalesced=2 windowed=0")),
        "missing windows line in {stats}"
    );
    assert!(
        stats.lines().any(|l| l.starts_with("writes frames=")),
        "missing writes line in {stats}"
    );
    let writes = client.write_stats().unwrap();
    assert!(writes.frames >= 4, "four MUTATE frames went through the coalescer: {writes:?}");
    assert!(writes.batches >= 1);

    client.unsubscribe(every.sub).unwrap();
    client.unsubscribe(coalesce.sub).unwrap();
    client.shutdown().unwrap();
    handle.wait();
}
