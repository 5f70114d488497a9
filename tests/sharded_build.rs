//! Contracts of the sharded snapshot builder and of adaptive chunking.
//!
//! * **builder bit-identity** — a snapshot built with any degree of parallelism has the
//!   same conflict graphs, components, global component ids, shard plans, preferred
//!   repairs (all five families, in enumeration order) and answers as a sequential
//!   build, including after a priority change with parallel re-enumeration;
//! * **chunk coverage** — the adaptive repair-product split covers `[0, total)` exactly
//!   once, with no gaps and no overlaps, for arbitrary totals (property-tested well
//!   beyond `u64`, where `usize` arithmetic would silently truncate);
//! * **overflow fallback** — products beyond `2^64` execute identically in parallel and
//!   sequentially.

use std::sync::Arc;

use pdqi::core::prepared::{adaptive_chunk_count, chunk_ranges};
use pdqi::datagen::{example4_instance, multi_chain_relations, skewed_chain_instance};
use pdqi::{
    Change, EngineBuilder, EngineSnapshot, FamilyKind, Parallelism, PreparedQuery, Priority,
    Semantics, TupleId,
};
use proptest::prelude::*;

const WORKERS: [usize; 3] = [2, 4, 8];

/// A skewed single-relation snapshot with a score-derived priority, so every family is
/// non-trivial, built at the given degree of parallelism.
fn skewed_snapshot(parallelism: Parallelism) -> EngineSnapshot {
    let (instance, fds) = skewed_chain_instance(4, 8);
    let scores: Vec<i64> =
        (0..instance.len() as i64).map(|i| if i % 3 == 0 { 7 } else { i % 5 }).collect();
    EngineBuilder::new()
        .relation(instance, fds)
        .priority_from_scores(&scores)
        .parallelism(parallelism)
        .build()
        .unwrap()
}

#[test]
fn sharded_builds_are_bit_identical_for_all_families() {
    let sequential = skewed_snapshot(Parallelism::sequential());
    for workers in WORKERS {
        let parallel = skewed_snapshot(Parallelism::threads(workers));
        assert_eq!(parallel.graph().edges(), sequential.graph().edges());
        assert_eq!(parallel.component_count(), sequential.component_count());
        assert_eq!(parallel.shards(), sequential.shards());
        for kind in FamilyKind::ALL {
            // Same preferred repairs, in the same enumeration order.
            assert_eq!(
                parallel.preferred_repairs(kind, usize::MAX),
                sequential.preferred_repairs(kind, usize::MAX),
                "{} at {workers} workers",
                kind.label()
            );
            assert_eq!(
                parallel.preferred_repair_count(kind),
                sequential.preferred_repair_count(kind)
            );
        }
    }
}

#[test]
fn sharded_multi_relation_builds_answer_exactly_like_sequential_ones() {
    let relations = multi_chain_relations(3, 3, 5);
    let build = |parallelism: Parallelism| {
        let mut builder = EngineBuilder::new().parallelism(parallelism);
        for (instance, fds) in &relations {
            builder = builder.relation(instance.clone(), fds.clone());
        }
        builder.build().unwrap()
    };
    let sequential = build(Parallelism::sequential());
    let join =
        PreparedQuery::parse("EXISTS a,c,d,a2,c2,d2 . R0(a,x,c,d) AND R1(a2,x,c2,d2)").unwrap();
    let single = PreparedQuery::parse("EXISTS a,c,d . R2(a,x,c,d)").unwrap();
    for workers in WORKERS {
        let parallel = build(Parallelism::threads(workers));
        assert_eq!(parallel.relation_names(), sequential.relation_names());
        assert_eq!(parallel.count_repairs(), sequential.count_repairs());
        for name in sequential.relation_names() {
            assert_eq!(parallel.shards_of(&name), sequential.shards_of(&name), "{name}");
            assert_eq!(
                parallel.context_of(&name).unwrap().graph().edges(),
                sequential.context_of(&name).unwrap().graph().edges(),
                "{name}"
            );
        }
        for query in [&join, &single] {
            for semantics in [Semantics::Certain, Semantics::Possible] {
                let s: Vec<_> = query
                    .execute(&sequential.with_cleared_memo(), FamilyKind::Rep, semantics)
                    .unwrap()
                    .collect();
                let p: Vec<_> = query
                    .execute_with(
                        &parallel.with_cleared_memo(),
                        FamilyKind::Rep,
                        semantics,
                        Parallelism::threads(workers),
                    )
                    .unwrap()
                    .collect();
                assert_eq!(s, p, "{workers} workers, {semantics:?}");
            }
        }
    }
}

#[test]
fn revalidated_derivations_match_fresh_builds_for_all_families() {
    let (instance, fds) = skewed_chain_instance(4, 8);
    let base = EngineBuilder::new()
        .relation(instance.clone(), fds.clone())
        .parallelism(Parallelism::threads(4))
        .build()
        .unwrap();
    for kind in FamilyKind::ALL {
        base.warm_components(kind, Parallelism::threads(4));
    }
    // Orient two conflict edges: one in the largest chain, one in the smallest.
    let pairs = [(TupleId(0), TupleId(1)), (TupleId(13), TupleId(12))];
    let priority = Priority::from_pairs(Arc::clone(base.graph()), &pairs).unwrap();
    let change = Change::Priority { relation: "R".to_string(), priority };
    for workers in [1usize, 4] {
        let derived = base.derive(&change, Parallelism::threads(workers)).unwrap().0;
        let fresh = EngineBuilder::new()
            .relation(instance.clone(), fds.clone())
            .priority_pairs(&pairs)
            .build()
            .unwrap();
        for kind in FamilyKind::ALL {
            assert_eq!(
                derived.preferred_repairs(kind, usize::MAX),
                fresh.preferred_repairs(kind, usize::MAX),
                "{} at {workers} workers",
                kind.label()
            );
        }
        // Revalidation left the derived snapshot fully warm: re-enumerating every
        // family computes nothing new.
        let misses = derived.memo_stats().component_misses;
        for kind in FamilyKind::ALL {
            derived.preferred_repairs(kind, usize::MAX);
        }
        assert_eq!(derived.memo_stats().component_misses, misses, "{workers} workers");
    }
}

#[test]
fn repair_products_beyond_u64_answer_identically_in_parallel() {
    // 70 independent binary components: 2^70 repairs. The chunked parallel path must
    // seek its selection cursors past u64 territory and agree with the sequential
    // early-exit exactly.
    let (instance, fds) = example4_instance(70);
    let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
    assert_eq!(snapshot.count_repairs(), 1u128 << 70);
    assert!(snapshot.count_repairs() > u64::MAX as u128);
    let query = PreparedQuery::parse("EXISTS y . R(x,y) AND x < 0").unwrap();
    let sequential: Vec<_> = query
        .execute(&snapshot.with_cleared_memo(), FamilyKind::Rep, Semantics::Certain)
        .unwrap()
        .collect();
    let parallel: Vec<_> = query
        .execute_with(
            &snapshot.with_cleared_memo(),
            FamilyKind::Rep,
            Semantics::Certain,
            Parallelism::threads(4),
        )
        .unwrap()
        .collect();
    assert_eq!(sequential, parallel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chunk split covers `[0, total)` exactly once — no gaps, no overlaps — for
    /// totals spanning the full `u128` range (`hi` lifts the product far beyond the
    /// `usize`/`u64` boundary where truncating arithmetic would fold chunks onto each
    /// other).
    #[test]
    fn chunk_partitions_cover_the_product_exactly_once(
        hi in 0u64..u64::MAX,
        lo in 0u64..u64::MAX,
        chunks in 1u64..5000,
    ) {
        let total = ((hi as u128) << 64) | lo as u128;
        let ranges = chunk_ranges(total, chunks as u128);
        prop_assert!(!ranges.is_empty());
        prop_assert_eq!(ranges[0].0, 0);
        for window in ranges.windows(2) {
            prop_assert_eq!(window[0].1, window[1].0); // contiguous: no gap, no overlap
        }
        for &(start, end) in &ranges {
            prop_assert!(start <= end);
        }
        prop_assert_eq!(ranges.last().unwrap().1, total);
        let expected = (chunks as u128).min(total).max(1);
        prop_assert_eq!(ranges.len() as u128, expected);
    }

    /// Adaptive chunk counts always stay within the work-stealing clamp and never
    /// exceed the product itself.
    #[test]
    fn adaptive_chunk_counts_respect_the_clamp(
        total in 0u64..u64::MAX,
        cost in 0u64..u64::MAX,
        workers in 1usize..64,
    ) {
        let parallelism = Parallelism::threads(workers);
        let chunks = adaptive_chunk_count(total as u128, cost as u128, parallelism);
        prop_assert!(chunks >= 1);
        prop_assert!(chunks <= (workers as u128 * 16).max(1));
        prop_assert!(chunks <= (total as u128).max(1));
    }
}
