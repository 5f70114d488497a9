//! The serving core end to end: registry swap-under-load, protocol round-trips over
//! loopback, and the snapshot-consistency guarantee of the network front end.
//!
//! The pinned acceptance properties:
//!
//! * threads serving queries while another thread commits priority changes
//!   revisions only ever observe a **fully-built** old or new snapshot — generations
//!   are monotone per reader and every answer is bit-identical to recomputing on a
//!   cold copy of the observed snapshot (a torn priority/memo pair would break that);
//! * a client request is answered entirely against one snapshot generation,
//!   bit-identical to calling `PreparedQuery::execute` directly on that snapshot;
//! * malformed frames answer `ERR` and close; protocol-level errors keep the
//!   connection usable.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pdqi::datagen::{revision_trace, TraceEvent};
use pdqi::server::{serve, Client, ExecMode, ExecOutcome, ExecSpec, ServerConfig};
use pdqi::{
    Change, EngineBuilder, EngineSnapshot, FamilyKind, Parallelism, PreparedQuery, Priority,
    Semantics, SnapshotRegistry,
};

/// The change installing the priority `pairs` orient over `current`'s graph.
fn priority_change(
    current: &EngineSnapshot,
    pairs: &[(pdqi::TupleId, pdqi::TupleId)],
) -> Result<Change, pdqi::priority::PriorityError> {
    let priority = Priority::from_pairs(Arc::clone(current.context().graph()), pairs)?;
    Ok(Change::Priority { relation: "R".to_string(), priority })
}

/// A registry serving one multi-chain table, plus the trace that revises it.
fn traced_registry(
    chains: usize,
    length: usize,
    events: usize,
    revision_every: usize,
    seed: u64,
) -> (Arc<SnapshotRegistry>, pdqi::datagen::RevisionTrace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = revision_trace(chains, length, events, revision_every, &mut rng);
    let snapshot =
        EngineBuilder::new().relation(trace.instance.clone(), trace.fds.clone()).build().unwrap();
    let registry = SnapshotRegistry::shared();
    registry.publish("R", snapshot);
    (registry, trace)
}

#[test]
fn swap_under_load_readers_only_observe_fully_built_snapshots() {
    let (registry, trace) = traced_registry(4, 6, 60, 4, 42);
    let queries: Vec<Arc<PreparedQuery>> = trace
        .events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Query(text) => Some(Arc::new(PreparedQuery::parse(text).unwrap())),
            TraceEvent::Revision(_) => None,
        })
        .take(4)
        .collect();
    let revisions: Vec<_> = trace
        .events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Revision(pairs) => Some(pairs.clone()),
            TraceEvent::Query(_) => None,
        })
        .collect();
    assert!(revisions.len() >= 10);

    let done = AtomicBool::new(false);
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        // Readers: pin a lease, answer against it, and verify the observed snapshot is
        // internally consistent by recomputing the same answer on a cold (empty-memo)
        // copy of the *same* snapshot. Generations must never move backwards.
        for reader in 0..4 {
            let registry = &registry;
            let done = &done;
            let violations = &violations;
            let queries = &queries;
            scope.spawn(move || {
                let mut last_generation = 0u64;
                let mut round = 0usize;
                // Check `done` at the bottom: every reader completes at least one
                // read/verify round even if the publisher finishes first (revisions
                // through the delta path can outrun thread startup).
                loop {
                    let lease = registry.read("R").expect("table is always served");
                    if lease.generation() < last_generation {
                        violations.lock().unwrap().push(format!(
                            "reader {reader}: generation went backwards ({} after {})",
                            lease.generation(),
                            last_generation
                        ));
                        return;
                    }
                    last_generation = lease.generation();
                    let query = &queries[round % queries.len()];
                    round += 1;
                    let snapshot = lease.snapshot();
                    let warm: Vec<Vec<pdqi::Value>> = query
                        .execute(snapshot, FamilyKind::Global, Semantics::Certain)
                        .unwrap()
                        .collect();
                    let cold: Vec<Vec<pdqi::Value>> = query
                        .execute(
                            &snapshot.with_cleared_memo(),
                            FamilyKind::Global,
                            Semantics::Certain,
                        )
                        .unwrap()
                        .collect();
                    if warm != cold {
                        violations.lock().unwrap().push(format!(
                            "reader {reader}: memoised answer diverged from cold recomputation \
                             at generation {last_generation} (torn snapshot?)"
                        ));
                        return;
                    }
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        // The publisher: replay every revision through the registry, building each
        // revised snapshot off the serving path with eager revalidation.
        for pairs in &revisions {
            registry
                .commit("R", None, Parallelism::threads(2), |current| {
                    priority_change(current, pairs)
                })
                .expect("revision builds");
        }
        done.store(true, Ordering::Relaxed);
    });
    let violations = violations.into_inner().unwrap();
    assert!(violations.is_empty(), "{violations:?}");
    // Every revision swapped exactly once, in order.
    assert_eq!(registry.generation("R"), 1 + revisions.len() as u64);
    let stats = registry.table_stats("R").unwrap();
    assert_eq!(stats.swaps, 1 + revisions.len() as u64);
    assert!(stats.reads > 0);
}

#[test]
fn served_answers_are_bit_identical_to_direct_execution_on_the_leased_snapshot() {
    let (registry, _) = traced_registry(3, 5, 10, 5, 7);
    let handle = serve("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let text = "EXISTS b,c,d . R(x,b,c,d)";
    client.prepare("q", text).unwrap();
    for (family, mode, semantics) in [
        (FamilyKind::Rep, ExecMode::Certain, Semantics::Certain),
        (FamilyKind::Rep, ExecMode::Possible, Semantics::Possible),
        (FamilyKind::Global, ExecMode::Certain, Semantics::Certain),
        (FamilyKind::Common, ExecMode::Possible, Semantics::Possible),
    ] {
        let (outcome, generation) = client.exec("q", family, mode).unwrap();
        // Re-read the registry: no revisions run, so this is the served snapshot.
        let lease = registry.read("R").unwrap();
        assert_eq!(generation, lease.generation());
        let direct = PreparedQuery::parse(text)
            .unwrap()
            .execute(lease.snapshot(), family, semantics)
            .unwrap();
        let expected_rows: Vec<Vec<String>> =
            direct.rows().iter().map(|row| row.iter().map(|v| v.to_string()).collect()).collect();
        assert_eq!(
            outcome,
            ExecOutcome::Rows { columns: direct.columns().to_vec(), rows: expected_rows },
            "{} {mode:?}",
            family.label()
        );
    }
    // A closed query through CLOSED matches consistent_answer on the same snapshot.
    client.prepare("ground", "EXISTS b,c,d . R(0,b,c,d)").unwrap();
    let (outcome, _) = client.exec("ground", FamilyKind::Rep, ExecMode::Closed).unwrap();
    let lease = registry.read("R").unwrap();
    let direct = PreparedQuery::parse("EXISTS b,c,d . R(0,b,c,d)")
        .unwrap()
        .consistent_answer(lease.snapshot(), FamilyKind::Rep)
        .unwrap();
    let verdict = if direct.certainly_true {
        "true"
    } else if direct.certainly_false {
        "false"
    } else {
        "undetermined"
    };
    assert_eq!(
        outcome,
        ExecOutcome::Outcome { verdict: verdict.to_string(), examined: direct.examined as u64 }
    );
    handle.shutdown();
}

#[test]
fn explain_over_the_wire_reports_the_plan_and_the_actuals() {
    let (registry, _) = traced_registry(3, 5, 10, 5, 7);
    let handle = serve("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.prepare("q", "EXISTS b,c,d . R(x,b,c,d)").unwrap();
    let (report, generation) = client.explain("q", FamilyKind::Global, Semantics::Certain).unwrap();
    assert_eq!(generation, registry.read("R").unwrap().generation());
    // The report is the deterministic plan tree (or the naive marker when
    // PDQI_FORCE_NAIVE_PLAN is exported into the test environment) plus actuals.
    assert!(report.contains("plan family=G-Rep"), "{report}");
    assert!(report.contains("actual product="), "{report}");
    // Unknown prepared ids error cleanly; the connection stays usable.
    assert!(client.explain("nope", FamilyKind::Rep, Semantics::Certain).is_err());
    // The planner's process-wide counters surface through STATS.
    let stats = client.stats().unwrap();
    assert!(stats.contains("planner planned="), "{stats}");
    handle.shutdown();
}

#[test]
fn a_batch_pins_one_generation_even_while_revisions_swap() {
    let (registry, trace) = traced_registry(3, 5, 40, 3, 99);
    let config =
        ServerConfig { parallelism: Parallelism::threads(2), acceptors: 2, ..Default::default() };
    let handle = serve("127.0.0.1:0", Arc::clone(&registry), config).unwrap();
    let addr = handle.local_addr();

    let mut setup = Client::connect(addr).unwrap();
    setup.prepare("open", "EXISTS b,c,d . R(x,b,c,d)").unwrap();
    setup.prepare("closed", "EXISTS a,b,c,d . R(a,b,c,d)").unwrap();

    let revisions: Vec<_> = trace
        .events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Revision(pairs) => Some(pairs.clone()),
            TraceEvent::Query(_) => None,
        })
        .collect();

    std::thread::scope(|scope| {
        // One thread hammers BATCH requests; its generations must be monotone and each
        // batch must be answered wholly at one generation.
        let exec_thread = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut last_generation = 0u64;
            for _ in 0..40 {
                let specs = vec![
                    ExecSpec {
                        id: "open".to_string(),
                        family: FamilyKind::Global,
                        mode: ExecMode::Certain,
                    },
                    ExecSpec {
                        id: "closed".to_string(),
                        family: FamilyKind::Global,
                        mode: ExecMode::Closed,
                    },
                ];
                let (outcomes, generation) = client.batch(specs).unwrap();
                assert!(generation >= last_generation, "batch generations must be monotone");
                last_generation = generation;
                assert_eq!(outcomes.len(), 2);
                assert!(matches!(outcomes[0], ExecOutcome::Rows { .. }));
                assert!(matches!(outcomes[1], ExecOutcome::Outcome { .. }));
            }
        });
        // Another connection publishes every revision through SET-PRIORITY.
        let revise_thread = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut last_generation = 1u64;
            for pairs in &revisions {
                let wire: Vec<(u32, u32)> = pairs.iter().map(|&(w, l)| (w.0, l.0)).collect();
                let generation = client.set_priority("R", &wire).unwrap();
                assert_eq!(generation, last_generation + 1, "swaps are serialised");
                last_generation = generation;
            }
            last_generation
        });
        exec_thread.join().unwrap();
        let final_generation = revise_thread.join().unwrap();
        assert_eq!(registry.generation("R"), final_generation);
    });
    handle.shutdown();
}

#[test]
fn malformed_frames_close_the_connection_but_errors_do_not() {
    let (registry, _) = traced_registry(2, 4, 5, 3, 1);
    let handle = serve("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // Protocol-level errors: the connection answers ERR and stays usable.
    let mut client = Client::connect(addr).unwrap();
    for (request, expected) in [
        ("NONSENSE", "ERR unknown command"),
        ("EXEC ghost ALL CERTAIN", "ERR unknown prepared query"),
        ("PREPARE bad ((", "ERR query error"),
        ("PREPARE multi EXISTS b . R(x,b,0,0) AND S(x)", "ERR"),
        ("SET-PRIORITY Ghost 0>1", "ERR registry serves no table"),
        ("SET-PRIORITY R 0>999", "ERR revision failed: priority cannot be installed"),
        ("BATCH", "ERR BATCH needs"),
    ] {
        let response = client.request_raw(request).unwrap();
        assert!(response.starts_with(expected), "{request} -> {response}");
    }
    client.ping().unwrap();

    // An oversized announcement: ERR frame, then EOF.
    let mut oversized = TcpStream::connect(addr).unwrap();
    oversized.write_all(&(u32::MAX).to_be_bytes()).unwrap();
    let mut response = Vec::new();
    oversized.read_to_end(&mut response).unwrap();
    assert!(String::from_utf8_lossy(&response).contains("ERR frame too large"));

    // Binary junk that is not UTF-8: ERR frame, then EOF.
    let mut binary = TcpStream::connect(addr).unwrap();
    binary.write_all(&3u32.to_be_bytes()).unwrap();
    binary.write_all(&[0xff, 0x00, 0xfe]).unwrap();
    let mut response = Vec::new();
    binary.read_to_end(&mut response).unwrap();
    assert!(String::from_utf8_lossy(&response).contains("ERR frame payload is not valid UTF-8"));

    // A peer that vanishes mid-frame just drops; the server keeps serving others.
    let mut truncated = TcpStream::connect(addr).unwrap();
    truncated.write_all(&100u32.to_be_bytes()).unwrap();
    truncated.write_all(b"partial").unwrap();
    drop(truncated);
    client.ping().unwrap();

    handle.shutdown();
}

#[test]
fn frames_split_across_poll_timeouts_are_reassembled_not_dropped() {
    let (registry, _) = traced_registry(2, 4, 5, 3, 3);
    let handle = serve("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    // Deliver one PING frame in three slow pieces: length prefix, then the payload in
    // two halves, each gap longer than the server's 50ms shutdown-poll timeout. The
    // server must keep waiting for the remainder instead of re-parsing mid-frame.
    let mut stream = TcpStream::connect(addr).unwrap();
    let payload = b"PING";
    stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(120));
    stream.write_all(&payload[..2]).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(120));
    stream.write_all(&payload[2..]).unwrap();
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).unwrap();
    let mut response = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut response).unwrap();
    assert_eq!(String::from_utf8(response).unwrap(), "OK pong");
    handle.shutdown();
}

#[test]
fn remote_shutdown_drains_every_acceptor_thread() {
    let (registry, _) = traced_registry(2, 4, 5, 3, 4);
    let config =
        ServerConfig { parallelism: Parallelism::sequential(), acceptors: 3, ..Default::default() };
    let handle = serve("127.0.0.1:0", registry, config).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.shutdown().unwrap();
    // With 3 acceptors blocked in accept(), wait() only returns if the remote
    // SHUTDOWN woke all of them (the regression hung here).
    handle.wait();
}

#[test]
fn values_with_tabs_and_newlines_survive_the_wire() {
    use pdqi::{FdSet, RelationInstance, RelationSchema, ValueType};
    let schema = Arc::new(
        RelationSchema::from_pairs("Notes", &[("Id", ValueType::Int), ("Text", ValueType::Name)])
            .unwrap(),
    );
    let tricky = "a\tb\nc\\d";
    let instance = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec![pdqi::Value::int(1), pdqi::Value::name(tricky)],
            vec![pdqi::Value::int(2), pdqi::Value::name("plain")],
        ],
    )
    .unwrap();
    let fds = FdSet::parse(schema, &[]).unwrap();
    let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
    let registry = SnapshotRegistry::shared();
    registry.publish("Notes", snapshot);
    let handle = serve("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.prepare("notes", "EXISTS i . Notes(i,x)").unwrap();
    let (outcome, _) = client.exec("notes", FamilyKind::Rep, ExecMode::Certain).unwrap();
    let ExecOutcome::Rows { columns, rows } = outcome else {
        panic!("expected rows, got {outcome:?}");
    };
    assert_eq!(columns, vec!["x".to_string()]);
    // The embedded tab, newline and backslash come back intact, one value per row.
    assert_eq!(rows, vec![vec![tricky.to_string()], vec!["plain".to_string()]]);
    handle.shutdown();
}

#[test]
fn replaying_a_revision_trace_through_the_wire_matches_the_in_process_replay() {
    let (registry, trace) = traced_registry(3, 4, 24, 4, 123);
    // In-process replay: registry + prepared queries directly.
    let shadow = {
        let snapshot = EngineBuilder::new()
            .relation(trace.instance.clone(), trace.fds.clone())
            .build()
            .unwrap();
        let registry = SnapshotRegistry::shared();
        registry.publish("R", snapshot);
        registry
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut prepared_ids: std::collections::HashMap<String, String> =
        std::collections::HashMap::new();
    for (index, event) in trace.events.iter().enumerate() {
        match event {
            TraceEvent::Query(text) => {
                let id = prepared_ids.entry(text.clone()).or_insert_with(|| {
                    let id = format!("q{index}");
                    client.prepare(&id, text).unwrap();
                    id
                });
                let (outcome, _) = client.exec(id, FamilyKind::Global, ExecMode::Certain).unwrap();
                // Shadow execution against the in-process registry.
                let lease = shadow.read("R").unwrap();
                let direct = PreparedQuery::parse(text)
                    .unwrap()
                    .execute(lease.snapshot(), FamilyKind::Global, Semantics::Certain)
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
            TraceEvent::Revision(pairs) => {
                let wire: Vec<(u32, u32)> = pairs.iter().map(|&(w, l)| (w.0, l.0)).collect();
                client.set_priority("R", &wire).unwrap();
                shadow
                    .commit("R", None, Parallelism::sequential(), |current| {
                        priority_change(current, pairs)
                    })
                    .unwrap();
            }
        }
    }
    assert_eq!(registry.generation("R"), shadow.generation("R"));
    client.shutdown().unwrap();
    handle.wait();
}
