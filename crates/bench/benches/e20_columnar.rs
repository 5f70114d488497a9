//! E20 — the columnar evaluation hot path and FD additions as snapshot deltas.
//!
//! Two comparisons, each at growing instance sizes:
//!
//! * `vector_select`/`scalar_select` and `vector_join`/`scalar_join` — the same
//!   formula evaluated through an [`Evaluator`] with the relation's
//!   [`ColumnarView`] attached (bitmask selection, depth-first vectorized join,
//!   gather) versus the row-at-a-time interpreter. Both paths are pinned
//!   bit-identical, so the gap is pure evaluation cost.
//! * `fd_delta`/`fd_rebuild` — adding one functional dependency to a warmed
//!   snapshot through [`EngineSnapshot::derive`] of a [`pdqi_core::Change::AddFd`] (new edges only in the
//!   added FD's LHS groups, untouched components carry their memo entries) versus
//!   the pre-delta alternative: a fresh `EngineBuilder` build under the extended
//!   FD set plus re-warming what the base had memoised.
//!
//! The delta gap grows with the number of untouched chains — schema-change cost
//! tracks the affected region, not the instance.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pdqi_constraints::{FdSet, FunctionalDependency};
use pdqi_core::{Change, EngineBuilder, EngineSnapshot, FamilyKind, Parallelism};
use pdqi_datagen::multi_chain_instance;
use pdqi_query::{parse_formula, Evaluator};
use pdqi_relation::{ColumnarView, RelationInstance, RelationSchema, Value, ValueType};

/// The families a serving snapshot typically has warm; both sides of the FD-delta
/// comparison enumerate exactly these.
const WARM: [FamilyKind; 2] = [FamilyKind::Rep, FamilyKind::Global];

/// `chains` disjoint 6-tuple conflict chains under `A -> B` (each chain three
/// conflict pairs), where only **chain 0** carries shared `C`-values. Adding
/// `C -> D` therefore creates new edges in chain 0 alone: the delta path scans the
/// new FD's LHS groups, re-partitions chain 0 and carries every other chain's memo
/// entries, while a rebuild pays for the whole instance again.
fn localized_fd_workload(chains: usize) -> (RelationInstance, FdSet, FunctionalDependency) {
    let schema = Arc::new(
        RelationSchema::from_pairs(
            "R",
            &[
                ("A", ValueType::Int),
                ("B", ValueType::Int),
                ("C", ValueType::Int),
                ("D", ValueType::Int),
            ],
        )
        .expect("ABCD schema builds"),
    );
    let length = 6usize;
    let stride = (length + 2) as i64;
    let mut rows = Vec::with_capacity(chains * length);
    for chain in 0..chains {
        for i in 0..length {
            let a = chain as i64 * stride + (i / 2) as i64;
            let b = (i % 2) as i64;
            // Chain 0: consecutive pairs share a C-value (violating C -> D through
            // distinct D). Every other chain: all C-values unique, so C -> D holds.
            let c = if chain == 0 {
                1_000_000 + i.div_ceil(2) as i64
            } else {
                2_000_000 + chain as i64 * stride + i as i64
            };
            let d = ((i + 1) % 2) as i64;
            rows.push(vec![Value::int(a), Value::int(b), Value::int(c), Value::int(d)]);
        }
    }
    let instance =
        RelationInstance::from_rows(Arc::clone(&schema), rows).expect("workload rows build");
    let base_fds = FdSet::parse(Arc::clone(&schema), &["A -> B"]).expect("base FD set parses");
    let added = FunctionalDependency::parse(&schema, "C -> D").expect("added FD parses");
    (instance, base_fds, added)
}

/// An open selection: one atom plus a comparison, the bitmask-selection shape.
const SELECT: &str = "EXISTS b,c,d . R(x,b,c,d) AND b > 0";
/// A closed self-join: two atoms sharing `b`, the depth-first join shape.
const JOIN: &str = "EXISTS a,b,c,d,a2,c2,d2 . R(a,b,c,d) AND R(a2,b,c2,d2) AND a < a2";

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_columnar");
    group
        .sample_size(15)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));

    let select = parse_formula(SELECT).expect("selection parses");
    let join = parse_formula(JOIN).expect("join parses");

    for chains in [4usize, 16, 64] {
        let (instance, _) = multi_chain_instance(chains, 6);
        let columns = ColumnarView::build(&instance);

        group.bench_function(format!("vector_select/{chains}"), |b| {
            let mut eval = Evaluator::new();
            eval.add_relation_columnar(&instance, &columns);
            b.iter(|| eval.answer_rows(&select).expect("selection evaluates").len())
        });
        group.bench_function(format!("scalar_select/{chains}"), |b| {
            let eval = Evaluator::with_relation(&instance);
            b.iter(|| eval.answer_rows(&select).expect("selection evaluates").len())
        });
        group.bench_function(format!("vector_join/{chains}"), |b| {
            let mut eval = Evaluator::new();
            eval.add_relation_columnar(&instance, &columns);
            b.iter(|| eval.eval_closed(&join).expect("join evaluates"))
        });
        group.bench_function(format!("scalar_join/{chains}"), |b| {
            let eval = Evaluator::with_relation(&instance);
            b.iter(|| eval.eval_closed(&join).expect("join evaluates"))
        });

        // The FD delta versus what `ALTER` paid before: a full rebuild under the
        // extended FD set plus re-warming what the base had memoised.
        let (fd_instance, base_fds, added) = localized_fd_workload(chains);
        let mut full_fds = base_fds.clone();
        full_fds.push(added.clone());
        let base = EngineBuilder::new()
            .relation(fd_instance.clone(), base_fds)
            .build()
            .expect("reduced-FD instance builds");
        for kind in WARM {
            base.warm_components(kind, Parallelism::sequential());
        }
        let change = Change::AddFd { relation: "R".to_string(), fd: added.clone() };
        group.bench_function(format!("fd_delta/{chains}"), |b| {
            b.iter(|| base.derive(&change, Parallelism::sequential()).expect("delta derives"))
        });
        group.bench_function(format!("fd_rebuild/{chains}"), |b| {
            b.iter(|| {
                let rebuilt: EngineSnapshot = EngineBuilder::new()
                    .relation(fd_instance.clone(), full_fds.clone())
                    .build()
                    .expect("rebuild succeeds");
                for kind in WARM {
                    rebuilt.warm_components(kind, Parallelism::sequential());
                }
                rebuilt
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
