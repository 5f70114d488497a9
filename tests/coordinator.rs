//! The scatter-gather coordinator end to end: bit-identity to single-snapshot
//! execution across shard counts, mutation routing, failure surfacing, and
//! generation-vector monotonicity.
//!
//! The pinned acceptance property is the coordinator's whole reason to exist: for
//! every query family and both semantics, a coordinator over 2, 3 or 4 key-range
//! shards answers **bit-identically** (rows, order, verdicts, examined counts) to
//! executing the same prepared query on one snapshot holding all the rows — and the
//! identity survives interleaved cross-shard INSERT/DELETE and priority revisions.

use std::sync::Arc;

use pdqi::datagen::{key_range_split, multi_chain_instance};
use pdqi::server::{
    coordinate, serve, Client, ClientError, CoordinatorConfig, CoordinatorHandle, ExecMode,
    ExecOutcome, ServerConfig, ServerHandle,
};
use pdqi::{
    Change, EngineBuilder, EngineSnapshot, FamilyKind, FdSet, Parallelism, PreparedQuery,
    RelationInstance, RouteSpec, Semantics, ShardPlan, SnapshotRegistry, TupleId, Value,
};

const FAMILIES: [FamilyKind; 5] = [
    FamilyKind::Rep,
    FamilyKind::Local,
    FamilyKind::SemiGlobal,
    FamilyKind::Global,
    FamilyKind::Common,
];

/// Free-variable queries the coordinator can distribute (one positive atom each).
const OPEN_QUERIES: [(&str, &str); 2] =
    [("open_a", "EXISTS b,c,d . R(x,b,c,d)"), ("open_bd", "EXISTS a,c . R(a,x,c,y)")];

/// Closed queries: one ground (the `ALL` fast path answers it with `examined=0`) and
/// one quantified (merged through per-shard `PROFILE` folds).
const CLOSED_QUERIES: [(&str, &str); 2] =
    [("ground", "R(0,0,1000000,1)"), ("closed_q", "EXISTS b,c,d . R(1,b,c,d)")];

/// A running cluster: one serving process (thread) per shard plus the coordinator.
struct Cluster {
    shard_handles: Vec<ServerHandle>,
    shard_addrs: Vec<String>,
    coordinator: CoordinatorHandle,
}

impl Cluster {
    /// Serves each part on its own loopback endpoint and a coordinator over them.
    fn launch(parts: &[RelationInstance], fds: &FdSet, plan: &ShardPlan) -> Cluster {
        let mut shard_handles = Vec::new();
        let mut shard_addrs = Vec::new();
        for part in parts {
            let snapshot =
                EngineBuilder::new().relation(part.clone(), fds.clone()).build().unwrap();
            let registry = SnapshotRegistry::shared();
            registry.publish("R", snapshot);
            let handle = serve("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
            shard_addrs.push(handle.local_addr().to_string());
            shard_handles.push(handle);
        }
        let route = RouteSpec {
            table: "R".to_string(),
            key_column: "A".to_string(),
            splits: plan.splits().iter().map(Value::to_string).collect(),
        };
        let coordinator =
            coordinate("127.0.0.1:0", &shard_addrs, &[route], CoordinatorConfig::default())
                .unwrap();
        Cluster { shard_handles, shard_addrs, coordinator }
    }

    fn client(&self) -> Client {
        Client::connect(self.coordinator.local_addr()).unwrap()
    }

    fn stop(self) {
        self.coordinator.shutdown();
        for handle in self.shard_handles {
            handle.shutdown();
        }
    }
}

/// The single-snapshot mirror the coordinator must match: all tracked rows, in
/// shard-concatenation order (which is exactly the coordinator's global id space).
fn mirror_snapshot(tracked: &[Vec<Vec<Value>>], fds: &FdSet) -> EngineSnapshot {
    let rows: Vec<Vec<Value>> = tracked.iter().flatten().cloned().collect();
    let schema = Arc::clone(fds.schema());
    let instance = RelationInstance::from_rows(schema, rows).unwrap();
    EngineBuilder::new().relation(instance, fds.clone()).build().unwrap()
}

fn verdict_of(outcome: &pdqi::CqaOutcome) -> &'static str {
    if outcome.certainly_true {
        "true"
    } else if outcome.certainly_false {
        "false"
    } else {
        "undetermined"
    }
}

/// Asserts every family × semantics × query answered through `client` equals direct
/// execution on `mirror`, bit for bit.
fn assert_bit_identical(client: &mut Client, mirror: &EngineSnapshot, context: &str) {
    for family in FAMILIES {
        for (id, text) in OPEN_QUERIES {
            for (mode, semantics) in
                [(ExecMode::Certain, Semantics::Certain), (ExecMode::Possible, Semantics::Possible)]
            {
                let (outcome, _) = client.exec(id, family, mode).unwrap();
                let direct =
                    PreparedQuery::parse(text).unwrap().execute(mirror, family, semantics).unwrap();
                let expected: Vec<Vec<String>> = direct
                    .rows()
                    .iter()
                    .map(|row| row.iter().map(Value::to_string).collect())
                    .collect();
                assert_eq!(
                    outcome,
                    ExecOutcome::Rows { columns: direct.columns().to_vec(), rows: expected },
                    "{context}: {id} {} {mode:?}",
                    family.label()
                );
            }
        }
        for (id, text) in CLOSED_QUERIES {
            let (outcome, _) = client.exec(id, family, ExecMode::Closed).unwrap();
            let direct =
                PreparedQuery::parse(text).unwrap().consistent_answer(mirror, family).unwrap();
            assert_eq!(
                outcome,
                ExecOutcome::Outcome {
                    verdict: verdict_of(&direct).to_string(),
                    examined: direct.examined as u64,
                },
                "{context}: {id} {}",
                family.label()
            );
        }
    }
}

fn as_strings(row: &[Value]) -> Vec<String> {
    row.iter().map(Value::to_string).collect()
}

/// The global (mirror) tuple id of `row` within the tracked shard-concatenation.
fn global_id_of(tracked: &[Vec<Vec<Value>>], row: &[Value]) -> u32 {
    let mut id = 0u32;
    for shard in tracked {
        for held in shard {
            if held == row {
                return id;
            }
            id += 1;
        }
    }
    panic!("row {row:?} is not tracked");
}

#[test]
fn coordinator_answers_are_bit_identical_across_shard_counts() {
    // 4 chains of 3 rows: enough for 4 shards (3 chain boundaries) and real conflicts,
    // small enough that the two-free-variable mirror executions stay fast in debug.
    let (instance, fds) = multi_chain_instance(4, 3);
    for shards in [2usize, 3, 4] {
        let (parts, plan) = key_range_split(&instance, &fds, "A", shards).unwrap();
        let cluster = Cluster::launch(&parts, &fds, &plan);
        let mut client = cluster.client();
        for (id, text) in OPEN_QUERIES.iter().chain(CLOSED_QUERIES.iter()) {
            client.prepare(id, text).unwrap();
        }

        // Tracked per-shard rows: the model of what each shard serves. The mirror is
        // their concatenation — one snapshot over all rows in shard order.
        let mut tracked: Vec<Vec<Vec<Value>>> = parts
            .iter()
            .map(|part| part.iter().map(|(_, tuple)| tuple.values().to_vec()).collect())
            .collect();
        assert_bit_identical(
            &mut client,
            &mirror_snapshot(&tracked, &fds),
            &format!("{shards} shards, initial"),
        );

        // Cross-shard INSERT in one request: a conflicting row on the first shard
        // (duplicate A-key of chain 0) and a conflict-free row on the last shard.
        let conflicting = vec![Value::int(0), Value::int(7), Value::int(5_000_000), Value::int(0)];
        let last_key = tracked.last().unwrap()[0][0].clone();
        let fresh = vec![last_key.clone(), Value::int(9), Value::int(5_000_001), Value::int(9)];
        let (inserted, _) =
            client.insert("R", &[as_strings(&conflicting), as_strings(&fresh)]).unwrap();
        assert_eq!(inserted, 2);
        tracked[0].push(conflicting.clone());
        tracked[shards - 1].push(fresh.clone());
        assert_bit_identical(
            &mut client,
            &mirror_snapshot(&tracked, &fds),
            &format!("{shards} shards, after insert"),
        );

        // A priority revision through the coordinator: global ids against the tracked
        // concatenation, translated to per-shard local ids by the coordinator. The
        // inserted conflicting row beats both chain-0 rows it conflicts with.
        let winner = global_id_of(&tracked, &conflicting);
        let pairs = [
            (winner, global_id_of(&tracked, &tracked[0][0].clone())),
            (winner, global_id_of(&tracked, &tracked[0][1].clone())),
        ];
        client.set_priority("R", &pairs).unwrap();
        let prioritised = {
            let base = mirror_snapshot(&tracked, &fds);
            let typed: Vec<(TupleId, TupleId)> =
                pairs.iter().map(|&(w, l)| (TupleId(w), TupleId(l))).collect();
            let priority = base.context().priority_from_pairs(&typed).unwrap();
            let change = Change::Priority { relation: "R".to_string(), priority };
            base.derive(&change, Parallelism::sequential()).unwrap().0
        };
        assert_bit_identical(
            &mut client,
            &prioritised,
            &format!("{shards} shards, after priority"),
        );

        // Cross-shard DELETE of both inserted rows in one request: the priority pairs
        // reference the deleted winner, so clear the priority first (same replace
        // semantics on the mirror: an empty pair list).
        client.set_priority("R", &[]).unwrap();
        let (deleted, _) =
            client.delete("R", &[as_strings(&conflicting), as_strings(&fresh)]).unwrap();
        assert_eq!(deleted, 2);
        tracked[0].pop();
        tracked[shards - 1].pop();
        assert_bit_identical(
            &mut client,
            &mirror_snapshot(&tracked, &fds),
            &format!("{shards} shards, after delete"),
        );

        cluster.stop();
    }
}

#[test]
fn mutations_route_to_the_owning_shard_only() {
    let (instance, fds) = multi_chain_instance(4, 4);
    let (parts, plan) = key_range_split(&instance, &fds, "A", 2).unwrap();
    let cluster = Cluster::launch(&parts, &fds, &plan);
    let mut coord = cluster.client();
    let mut shard0 = Client::connect(cluster.shard_addrs[0].as_str()).unwrap();
    let mut shard1 = Client::connect(cluster.shard_addrs[1].as_str()).unwrap();
    let before = (shard0.describe("R").unwrap().rows, shard1.describe("R").unwrap().rows);

    // A key in the second shard's range: only shard 1 gains a row.
    let high_key = parts[1].iter().next().unwrap().1.values()[0].clone();
    let row = vec![high_key, Value::int(9), Value::int(6_000_000), Value::int(9)];
    let (inserted, _) = coord.insert("R", &[as_strings(&row)]).unwrap();
    assert_eq!(inserted, 1);
    assert_eq!(shard0.describe("R").unwrap().rows, before.0, "shard 0 must be untouched");
    assert_eq!(shard1.describe("R").unwrap().rows, before.1 + 1);

    // The coordinator's own DESCRIBE sums the shards.
    let described = coord.describe("R").unwrap();
    assert_eq!(described.rows, before.0 + before.1 + 1);
    assert_eq!(described.columns.len(), 4);

    // Cross-shard priority pairs are rejected outright: such tuples never conflict.
    let crossing = coord.set_priority("R", &[(0, before.0 as u32)]);
    let Err(ClientError::Server(message)) = crossing else {
        panic!("a cross-shard priority pair must be rejected, got {crossing:?}");
    };
    assert!(message.contains("crosses shards"), "{message}");

    cluster.stop();
}

#[test]
fn a_dead_shard_surfaces_as_an_error_naming_it() {
    let (instance, fds) = multi_chain_instance(4, 4);
    let (parts, plan) = key_range_split(&instance, &fds, "A", 2).unwrap();
    let mut cluster = Cluster::launch(&parts, &fds, &plan);
    let mut client = cluster.client();
    client.prepare("q", "EXISTS b,c,d . R(x,b,c,d)").unwrap();
    client.exec("q", FamilyKind::Global, ExecMode::Certain).unwrap();

    // Kill shard 1; the scatter must fail loudly, naming the dead endpoint, rather
    // than silently answering from the surviving shard.
    cluster.shard_handles.remove(1).shutdown();
    let result = client.exec("q", FamilyKind::Global, ExecMode::Certain);
    let Err(ClientError::Server(message)) = result else {
        panic!("a dead shard must surface as an error, got {result:?}");
    };
    assert!(message.contains("shard 1"), "{message}");
    assert!(message.contains(&cluster.shard_addrs[1]), "{message}");

    // Mutations routed to the dead shard fail the same way; the coordinator itself
    // stays up and still answers PING.
    let dead_key = parts[1].iter().next().unwrap().1.values()[0].clone();
    let row = vec![dead_key, Value::int(9), Value::int(7_000_000), Value::int(9)];
    assert!(client.insert("R", &[as_strings(&row)]).is_err());
    client.ping().unwrap();

    cluster.stop();
}

#[test]
fn a_write_that_partly_lands_names_the_shards_that_applied_it() {
    let (instance, fds) = multi_chain_instance(4, 4);
    let (parts, plan) = key_range_split(&instance, &fds, "A", 2).unwrap();
    let mut cluster = Cluster::launch(&parts, &fds, &plan);
    let mut client = cluster.client();

    // Stop shard 0, then insert one row into each shard's key range in one request:
    // shard 1 applies its row, shard 0 cannot.
    cluster.shard_handles.remove(0).shutdown();
    let rows: Vec<Vec<String>> = parts
        .iter()
        .map(|part| {
            let key = part.iter().next().unwrap().1.values()[0].clone();
            as_strings(&[key, Value::int(9), Value::int(9_000_000), Value::int(9)])
        })
        .collect();
    let result = client.insert("R", &rows);
    let Err(ClientError::Server(message)) = result else {
        panic!("a write that failed on one shard must answer ERR, got {result:?}");
    };
    let applied = Client::connect(cluster.shard_addrs[1].as_str()).unwrap().describe("R").unwrap();
    assert!(message.starts_with("shard 0"), "{message}");
    assert!(message.contains(&cluster.shard_addrs[0]), "{message}");
    assert!(
        message.ends_with(&format!("; applied on shard 1 gen={}", applied.generation)),
        "{message}"
    );

    // The coordinator recorded shard 1's new generation although the request failed.
    let stats = client.stats().unwrap();
    let shard1 = format!("shard 1 addr={} gen={}", cluster.shard_addrs[1], applied.generation);
    assert!(stats.lines().any(|line| line == shard1), "{stats}");

    cluster.stop();
}

#[test]
fn generation_vectors_are_per_shard_monotone_under_a_concurrent_writer() {
    let (instance, fds) = multi_chain_instance(4, 4);
    let (parts, plan) = key_range_split(&instance, &fds, "A", 2).unwrap();
    let cluster = Cluster::launch(&parts, &fds, &plan);
    let mut setup = cluster.client();
    setup.prepare("q", "EXISTS b,c,d . R(x,b,c,d)").unwrap();
    let low_key = parts[0].iter().next().unwrap().1.values()[0].clone();
    let high_key = parts[1].iter().next().unwrap().1.values()[0].clone();

    std::thread::scope(|scope| {
        // The writer alternates shards through the coordinator, each round a fresh row.
        let writer = scope.spawn(|| {
            let mut client = cluster.client();
            for round in 0..12i64 {
                let key = if round % 2 == 0 { low_key.clone() } else { high_key.clone() };
                let row = vec![key, Value::int(9), Value::int(8_000_000 + round), Value::int(9)];
                client.insert("R", &[as_strings(&row)]).unwrap();
                client.delete("R", &[as_strings(&row)]).unwrap();
            }
        });
        // The reader parses the per-shard generation vector off every response head;
        // each component must be non-decreasing even while the writer swaps shards.
        let reader = scope.spawn(|| {
            let mut client = cluster.client();
            let mut last = [0u64; 2];
            for _ in 0..40 {
                let response = client.request_raw("EXEC q ALL CERTAIN").unwrap();
                let head = response.lines().next().unwrap();
                let gens: Vec<u64> = head
                    .split_whitespace()
                    .find_map(|token| token.strip_prefix("gens="))
                    .unwrap_or_else(|| panic!("no gens= vector in `{head}`"))
                    .split(',')
                    .map(|g| g.parse().unwrap())
                    .collect();
                assert_eq!(gens.len(), 2, "{head}");
                for (shard, (&now, seen)) in gens.iter().zip(last.iter_mut()).enumerate() {
                    assert!(
                        now >= *seen,
                        "shard {shard} generation went backwards ({now} after {seen})"
                    );
                    *seen = now;
                }
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });
    cluster.stop();
}
