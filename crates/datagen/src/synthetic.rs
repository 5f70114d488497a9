//! Instance generators shaped after the paper's examples.

use std::sync::Arc;

use pdqi_constraints::FdSet;
use pdqi_relation::{RelationInstance, RelationSchema, Value, ValueType};
use rand::Rng;

fn ab_schema() -> Arc<RelationSchema> {
    Arc::new(
        RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", ValueType::Int)]).unwrap(),
    )
}

fn abc_schema() -> Arc<RelationSchema> {
    Arc::new(
        RelationSchema::from_pairs(
            "R",
            &[("A", ValueType::Int), ("B", ValueType::Int), ("C", ValueType::Int)],
        )
        .unwrap(),
    )
}

fn abcd_schema_named(name: &str) -> Arc<RelationSchema> {
    Arc::new(
        RelationSchema::from_pairs(
            name,
            &[
                ("A", ValueType::Int),
                ("B", ValueType::Int),
                ("C", ValueType::Int),
                ("D", ValueType::Int),
            ],
        )
        .unwrap(),
    )
}

fn abcd_schema() -> Arc<RelationSchema> {
    abcd_schema_named("R")
}

/// Example 4: `r_n = {(i, 0), (i, 1) | i < n}` with the FD `A → B`; the instance has
/// exactly `2ⁿ` repairs (one independent binary choice per key value).
pub fn example4_instance(n: usize) -> (RelationInstance, FdSet) {
    let schema = ab_schema();
    let mut rows = Vec::with_capacity(2 * n);
    for i in 0..n {
        rows.push(vec![Value::int(i as i64), Value::int(0)]);
        rows.push(vec![Value::int(i as i64), Value::int(1)]);
    }
    let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
    let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
    (instance, fds)
}

/// Example 8-style duplicate-heavy instances: `groups` key values, each with
/// `duplicates` tuples sharing the same `B`-value plus one tuple with a different
/// `B`-value (and a distinguishing `C`). The FD is the non-key dependency `A → B`.
pub fn duplicate_instance(groups: usize, duplicates: usize) -> (RelationInstance, FdSet) {
    let schema = abc_schema();
    let mut rows = Vec::new();
    for g in 0..groups {
        for d in 0..duplicates {
            rows.push(vec![Value::int(g as i64), Value::int(0), Value::int(d as i64)]);
        }
        rows.push(vec![Value::int(g as i64), Value::int(1), Value::int(duplicates as i64)]);
    }
    let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
    let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
    (instance, fds)
}

/// Example 9-style conflict chains: `length` tuples forming a path in the conflict graph,
/// alternating between violations of `A → B` and violations of `C → D`.
pub fn chain_instance(length: usize) -> (RelationInstance, FdSet) {
    let schema = abcd_schema();
    let mut rows = Vec::with_capacity(length);
    for i in 0..length {
        // Consecutive tuples 2k, 2k+1 share the A-value k (violating A → B through
        // distinct B); consecutive tuples 2k+1, 2k+2 share the C-value k (violating
        // C → D through distinct D). All other values are unique.
        let a = (i / 2) as i64;
        let b = (i % 2) as i64;
        let c = i.div_ceil(2) as i64 + 1_000_000;
        let d = ((i + 1) % 2) as i64;
        rows.push(vec![Value::int(a), Value::int(b), Value::int(c), Value::int(d)]);
    }
    let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
    let fds = FdSet::parse(schema, &["A -> B", "C -> D"]).unwrap();
    (instance, fds)
}

/// Many independent conflict chains: `chains` disjoint copies of [`chain_instance`]'s
/// path, each over its own key space, inside one relation. The conflict graph has
/// exactly `chains` non-trivial connected components (each a path of `length` tuples),
/// which makes this the canonical workload for component-parallel execution: per-chain
/// preferred-repair enumeration is sizeable (a path of `n` vertices has
/// Fibonacci-many maximal independent sets) and the components are embarrassingly
/// independent.
pub fn multi_chain_instance(chains: usize, length: usize) -> (RelationInstance, FdSet) {
    named_multi_chain_instance("R", chains, length)
}

fn named_multi_chain_instance(
    name: &str,
    chains: usize,
    length: usize,
) -> (RelationInstance, FdSet) {
    let schema = abcd_schema_named(name);
    let mut rows = Vec::with_capacity(chains * length);
    // Per-chain offsets keep the A- and C-key spaces of different chains disjoint, so
    // no conflict edge ever crosses chains.
    let stride = (length + 2) as i64;
    for chain in 0..chains {
        for i in 0..length {
            let a = chain as i64 * stride + (i / 2) as i64;
            let b = (i % 2) as i64;
            let c = 1_000_000 + chain as i64 * stride + i.div_ceil(2) as i64;
            let d = ((i + 1) % 2) as i64;
            rows.push(vec![Value::int(a), Value::int(b), Value::int(c), Value::int(d)]);
        }
    }
    let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
    let fds = FdSet::parse(schema, &["A -> B", "C -> D"]).unwrap();
    (instance, fds)
}

/// A **skewed-shard** workload: `chains` independent conflict chains whose lengths decay
/// geometrically from `max_length` down to 2 (chain `i` has `max(2, max_length >> i)`
/// tuples). The conflict graph has exactly `chains` non-trivial components of wildly
/// different sizes, so per-component preferred-repair counts — and with them the chunks
/// of the adaptive repair-product split and the largest-first component jobs of the
/// builder and of revalidation — are heavily skewed: the canonical adversary for
/// work-stealing schedulers that assume uniform components.
pub fn skewed_chain_instance(chains: usize, max_length: usize) -> (RelationInstance, FdSet) {
    assert!(max_length >= 2, "chains need at least 2 tuples to conflict");
    let schema = abcd_schema();
    let mut rows = Vec::new();
    // Offsets keyed off the *maximum* length keep every chain's A- and C-key spaces
    // disjoint regardless of its own length.
    let stride = (max_length + 2) as i64;
    for chain in 0..chains {
        // checked_shr: `>>` with a shift ≥ the bit width panics in debug and wraps in
        // release, which would hand chains past 64 their full length again.
        let length = max_length.checked_shr(chain as u32).unwrap_or(0).max(2);
        for i in 0..length {
            let a = chain as i64 * stride + (i / 2) as i64;
            let b = (i % 2) as i64;
            let c = 1_000_000 + chain as i64 * stride + i.div_ceil(2) as i64;
            let d = ((i + 1) % 2) as i64;
            rows.push(vec![Value::int(a), Value::int(b), Value::int(c), Value::int(d)]);
        }
    }
    let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
    let fds = FdSet::parse(schema, &["A -> B", "C -> D"]).unwrap();
    (instance, fds)
}

/// `relations` disjoint copies of [`multi_chain_instance`], each under its own schema
/// name (`R0`, `R1`, …) — the multi-relation workload of the sharded snapshot builder,
/// whose build stages fan out per `(relation, FD)` and per relation.
pub fn multi_chain_relations(
    relations: usize,
    chains: usize,
    length: usize,
) -> Vec<(RelationInstance, FdSet)> {
    (0..relations)
        .map(|index| named_multi_chain_instance(&format!("R{index}"), chains, length))
        .collect()
}

/// Random two-FD instances with a tunable conflict rate: `n` tuples over `R(A,B,C)` with
/// FDs `A → B` and `C → B`. Key values are drawn from a pool whose size controls how many
/// tuples collide; `conflict_rate ∈ [0, 1]` is the approximate fraction of tuples that
/// share a key value with some other tuple.
pub fn random_conflict_instance<R: Rng>(
    n: usize,
    conflict_rate: f64,
    rng: &mut R,
) -> (RelationInstance, FdSet) {
    assert!((0.0..=1.0).contains(&conflict_rate), "conflict_rate must be in [0, 1]");
    let schema = abc_schema();
    let mut rows = Vec::with_capacity(n);
    // Conflicting tuples draw their A-value from a small pool (pairs of tuples per value
    // on average); the rest get unique A-values. B is a coin flip so tuples sharing a key
    // conflict roughly half the time; C plays the same game for the second FD.
    let colliding = ((n as f64) * conflict_rate) as usize;
    let pool = (colliding / 2).max(1) as i64;
    for i in 0..n {
        let a = if i < colliding { rng.gen_range(0..pool) } else { 1_000_000 + i as i64 };
        let c =
            if i < colliding { 2_000_000 + rng.gen_range(0..pool) } else { 3_000_000 + i as i64 };
        let b = rng.gen_range(0..2i64);
        rows.push(vec![Value::int(a), Value::int(b), Value::int(c)]);
    }
    let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
    let fds = FdSet::parse(schema, &["A -> B", "C -> B"]).unwrap();
    (instance, fds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdqi_constraints::ConflictGraph;
    use pdqi_core::RepairContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn example4_has_two_to_the_n_repairs() {
        for n in [1usize, 5, 9] {
            let (instance, fds) = example4_instance(n);
            assert_eq!(instance.len(), 2 * n);
            let ctx = RepairContext::new(instance, fds);
            assert_eq!(ctx.count_repairs(), 1u128 << n);
        }
    }

    #[test]
    fn duplicate_instances_have_the_example_8_shape() {
        let (instance, fds) = duplicate_instance(3, 4);
        assert_eq!(instance.len(), 3 * 5);
        let graph = ConflictGraph::build(&instance, &fds);
        // Each group is a star: the odd tuple conflicts with each of the 4 duplicates.
        assert_eq!(graph.edge_count(), 3 * 4);
        assert_eq!(graph.max_degree(), 4);
        // Per group: either the duplicates (1 repair) or the odd tuple (1 repair) ⇒ 2 each.
        let ctx = RepairContext::new(instance, fds);
        assert_eq!(ctx.count_repairs(), 8);
    }

    #[test]
    fn multi_chain_instances_have_one_component_per_chain() {
        let (instance, fds) = multi_chain_instance(8, 6);
        assert_eq!(instance.len(), 48);
        let ctx = RepairContext::new(instance, fds);
        let components: Vec<_> =
            ctx.graph().connected_components().into_iter().filter(|c| c.len() >= 2).collect();
        assert_eq!(components.len(), 8);
        assert!(components.iter().all(|c| c.len() == 6));
        // Each chain is a path: same repair count per component as chain_instance.
        let (single, single_fds) = chain_instance(6);
        let single_ctx = RepairContext::new(single, single_fds);
        let per_chain = single_ctx.count_repairs();
        assert_eq!(ctx.count_repairs(), per_chain.pow(8));
    }

    #[test]
    fn skewed_chains_have_geometrically_decaying_components() {
        let (instance, fds) = skewed_chain_instance(4, 16);
        // Lengths 16, 8, 4, 2.
        assert_eq!(instance.len(), 30);
        let ctx = RepairContext::new(instance, fds);
        let mut sizes: Vec<usize> = ctx
            .graph()
            .connected_components()
            .into_iter()
            .filter(|c| c.len() >= 2)
            .map(|c| c.len())
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 4, 8, 16]);
        // Short chains floor at 2 tuples, so every requested chain exists — including
        // past the 64-chain shift width, where a plain `>>` would overflow (debug) or
        // wrap back to the full length (release).
        for chains in [8usize, 70] {
            let (deep, deep_fds) = skewed_chain_instance(chains, 16);
            let deep_ctx = RepairContext::new(deep, deep_fds);
            let components: Vec<_> = deep_ctx
                .graph()
                .connected_components()
                .into_iter()
                .filter(|c| c.len() >= 2)
                .collect();
            assert_eq!(components.len(), chains, "chains {chains}");
            assert!(components.iter().filter(|c| c.len() > 2).count() <= 3, "chains {chains}");
        }
    }

    #[test]
    fn multi_chain_relations_carry_distinct_names_and_identical_shapes() {
        let relations = multi_chain_relations(3, 4, 6);
        assert_eq!(relations.len(), 3);
        let names: Vec<&str> = relations.iter().map(|(r, _)| r.schema().name()).collect();
        assert_eq!(names, vec!["R0", "R1", "R2"]);
        for (instance, fds) in &relations {
            assert_eq!(instance.len(), 24);
            let ctx = RepairContext::new(instance.clone(), fds.clone());
            let components: Vec<_> =
                ctx.graph().connected_components().into_iter().filter(|c| c.len() >= 2).collect();
            assert_eq!(components.len(), 4);
        }
    }

    #[test]
    fn chain_instances_form_a_path() {
        for length in [2usize, 5, 9] {
            let (instance, fds) = chain_instance(length);
            assert_eq!(instance.len(), length);
            let graph = ConflictGraph::build(&instance, &fds);
            assert_eq!(graph.edge_count(), length - 1, "length {length}");
            assert_eq!(graph.connected_components().len(), 1);
            assert!(graph.max_degree() <= 2);
        }
    }

    #[test]
    fn random_instances_scale_conflicts_with_the_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let (low, low_fds) = random_conflict_instance(200, 0.1, &mut rng);
        let (high, high_fds) = random_conflict_instance(200, 0.9, &mut rng);
        let low_edges = ConflictGraph::build(&low, &low_fds).edge_count();
        let high_edges = ConflictGraph::build(&high, &high_fds).edge_count();
        assert!(high_edges > low_edges, "{high_edges} should exceed {low_edges}");
        let mut rng2 = StdRng::seed_from_u64(1);
        let (zero, zero_fds) = random_conflict_instance(100, 0.0, &mut rng2);
        assert_eq!(ConflictGraph::build(&zero, &zero_fds).edge_count(), 0);
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let (a, _) = random_conflict_instance(50, 0.5, &mut StdRng::seed_from_u64(7));
        let (b, _) = random_conflict_instance(50, 0.5, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.len(), b.len());
        for (id, tuple) in a.iter() {
            assert_eq!(Some(tuple), b.tuple(id).ok());
        }
    }
}
