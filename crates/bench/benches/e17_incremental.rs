//! E17 — incremental delta maintenance: applying an INSERT/DELETE batch as a
//! snapshot delta versus rebuilding the snapshot from scratch.
//!
//! Three measurements per instance size (`chains` independent 6-tuple conflict
//! chains, the factorised shape the paper's components give us):
//!
//! * `delta_apply/<chains>` — `EngineSnapshot::derive` of a mutation on a warmed base:
//!   one deleted chain-interior tuple (a component split) plus one inserted
//!   conflicting tuple (a component grows). Only the two affected components are
//!   re-partitioned and re-enumerated; every other `(component, family)` memo entry
//!   carries over.
//! * `full_rebuild/<chains>` — what the serving path paid before this subsystem: a
//!   fresh `EngineBuilder` build of the mutated row list plus re-warming the families
//!   the base had memoised (the delta-derived snapshot arrives warm, so a fair
//!   comparison must re-warm too).
//! * `revise/<chains>` — `derive` of a priority change for scale: the other derivation
//!   the registry publishes, invalidating one component's priority-sensitive entries.
//!
//! The gap between `delta_apply` and `full_rebuild` grows with the number of
//! untouched components — that is the whole point: mutation cost tracks the *delta*,
//! not the instance.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pdqi_core::{Change, EngineBuilder, FamilyKind, Mutation, Parallelism};
use pdqi_datagen::multi_chain_instance;
use pdqi_relation::{RelationInstance, TupleId, Value};

/// The families a serving snapshot typically has warm; both sides of the comparison
/// enumerate exactly these.
const WARM: [FamilyKind; 2] = [FamilyKind::Rep, FamilyKind::Global];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_incremental");
    group
        .sample_size(15)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));

    for chains in [4usize, 16, 64] {
        let (instance, fds) = multi_chain_instance(chains, 6);
        let rows: Vec<Vec<Value>> =
            instance.iter().map(|(_, tuple)| tuple.values().to_vec()).collect();
        let base = EngineBuilder::new()
            .relation(instance.clone(), fds.clone())
            .build()
            .expect("multi-chain instance builds");
        for kind in WARM {
            base.warm_components(kind, Parallelism::sequential());
        }

        // The mutation: delete chain 0's interior tuple (splits its path component)
        // and insert a tuple conflicting with chain 1's first A-group (grows it).
        let split_victim = rows[2].clone();
        let grow = vec![rows[6][0].clone(), Value::int(9), Value::int(9_000_000), Value::int(9)];
        let mutation = Mutation::new().delete("R", split_victim.clone()).insert("R", grow.clone());
        let change = Change::Mutation(mutation);

        group.bench_function(format!("delta_apply/{chains}"), |b| {
            b.iter(|| base.derive(&change, Parallelism::sequential()).expect("delta applies"))
        });

        // The pre-subsystem alternative: rebuild the mutated row list and re-warm.
        let mut mutated_rows = rows.clone();
        mutated_rows.retain(|row| *row != split_victim);
        mutated_rows.push(grow);
        let schema = Arc::clone(instance.schema());
        group.bench_function(format!("full_rebuild/{chains}"), |b| {
            b.iter(|| {
                let rebuilt = EngineBuilder::new()
                    .relation(
                        RelationInstance::from_rows(Arc::clone(&schema), mutated_rows.clone())
                            .expect("mutated rows build"),
                        fds.clone(),
                    )
                    .build()
                    .expect("rebuild succeeds");
                for kind in WARM {
                    rebuilt.warm_components(kind, Parallelism::sequential());
                }
                rebuilt
            })
        });

        // For scale: the registry's other derivation, a one-component priority change.
        group.bench_function(format!("revise/{chains}"), |b| {
            b.iter(|| {
                let priority = base
                    .context()
                    .priority_from_pairs(&[(TupleId(0), TupleId(1))])
                    .expect("chain edge orients");
                let change = Change::Priority { relation: "R".to_string(), priority };
                base.derive(&change, Parallelism::sequential()).expect("revision derives")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
