//! Repairs and the repair context.
//!
//! Definition 1 of the paper: given an instance `r` and a set of functional dependencies
//! `F`, a *repair* is a maximal subset of `r` consistent with `F`. Repairs are exactly
//! the maximal independent sets of the conflict graph, which is how everything here
//! represents and manipulates them (a repair is a [`TupleSet`] against a fixed instance).
//!
//! [`RepairContext`] bundles the instance, its constraints and the conflict graph; it is
//! the shared input of the repair families, the cleaning algorithm and the CQA engines.

use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

use pdqi_constraints::{ConflictGraph, FdSet};
use pdqi_priority::Priority;
use pdqi_relation::{ColumnarView, RelationInstance, TupleSet};
use pdqi_solve::GraphMisEnumerator;

/// An inconsistent (or consistent) instance together with its constraints and conflict
/// graph — the fixed part of every repair-related computation.
#[derive(Debug, Clone)]
pub struct RepairContext {
    instance: RelationInstance,
    fds: FdSet,
    graph: Arc<ConflictGraph>,
    columns: OnceLock<Arc<ColumnarView>>,
}

impl RepairContext {
    /// Builds the context (and the conflict graph) for `instance` under `fds`.
    pub fn new(instance: RelationInstance, fds: FdSet) -> Self {
        let graph = Arc::new(ConflictGraph::build(&instance, &fds));
        RepairContext { instance, fds, graph, columns: OnceLock::new() }
    }

    /// A context over a conflict graph computed elsewhere (the sharded snapshot builder
    /// fans per-FD edge scans across workers and merges them before assembling the
    /// context). The graph must be exactly `ConflictGraph::build(&instance, &fds)`.
    pub(crate) fn with_graph(
        instance: RelationInstance,
        fds: FdSet,
        graph: Arc<ConflictGraph>,
    ) -> Self {
        debug_assert_eq!(graph.vertex_count(), instance.len());
        RepairContext { instance, fds, graph, columns: OnceLock::new() }
    }

    /// A context sharing another context's instance and (already-built) columnar view
    /// but with a different FD set and conflict graph — used by schema deltas
    /// (an added FD through `EngineSnapshot::derive`) so the columnar transpose survives derivations
    /// whose instance is unchanged.
    pub(crate) fn with_columns_from(
        parent: &RepairContext,
        fds: FdSet,
        graph: Arc<ConflictGraph>,
    ) -> Self {
        debug_assert_eq!(graph.vertex_count(), parent.instance.len());
        RepairContext {
            instance: parent.instance.clone(),
            fds,
            graph,
            columns: parent.columns.clone(),
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &RelationInstance {
        &self.instance
    }

    /// The functional dependencies.
    pub fn fds(&self) -> &FdSet {
        &self.fds
    }

    /// The conflict graph.
    pub fn graph(&self) -> &Arc<ConflictGraph> {
        &self.graph
    }

    /// The columnar transpose of the instance, built lazily on first use and shared by
    /// every clone made after that point (snapshots clone their entries per derivation,
    /// so the transpose is paid once per distinct instance, not once per query).
    pub fn columns(&self) -> &Arc<ColumnarView> {
        self.columns.get_or_init(|| Arc::new(ColumnarView::build(&self.instance)))
    }

    /// Whether the instance is consistent (no conflict at all).
    pub fn is_consistent(&self) -> bool {
        self.graph.edge_count() == 0
    }

    /// Repair checking for the plain repair family: is `candidate` a maximal consistent
    /// subset of the instance? (First row of Fig. 5 — PTIME.)
    pub fn is_repair(&self, candidate: &TupleSet) -> bool {
        candidate.is_subset_of(&self.instance.all_ids())
            && self.graph.is_maximal_independent(candidate)
    }

    /// Visits every repair exactly once; the callback may stop early. Returns `true` if
    /// the enumeration ran to completion.
    pub fn for_each_repair<F>(&self, callback: F) -> bool
    where
        F: FnMut(&TupleSet) -> ControlFlow<()>,
    {
        GraphMisEnumerator::new(&self.graph).for_each(callback)
    }

    /// Collects up to `limit` repairs.
    pub fn repairs(&self, limit: usize) -> Vec<TupleSet> {
        GraphMisEnumerator::new(&self.graph).collect(limit)
    }

    /// The number of repairs (product of per-component counts, saturating at `u128::MAX`).
    pub fn count_repairs(&self) -> u128 {
        GraphMisEnumerator::new(&self.graph).count()
    }

    /// One repair, produced greedily.
    pub fn some_repair(&self) -> TupleSet {
        GraphMisEnumerator::new(&self.graph).first()
    }

    /// The empty priority over this context's conflict graph.
    pub fn empty_priority(&self) -> Priority {
        Priority::empty(Arc::clone(&self.graph))
    }

    /// A priority built from explicit `winner ≻ loser` pairs over this context's graph.
    pub fn priority_from_pairs(
        &self,
        pairs: &[(pdqi_relation::TupleId, pdqi_relation::TupleId)],
    ) -> Result<Priority, pdqi_priority::PriorityError> {
        Priority::from_pairs(Arc::clone(&self.graph), pairs)
    }

    /// Materialises the sub-instance corresponding to a repair (fresh tuple ids).
    pub fn materialise(&self, repair: &TupleSet) -> RelationInstance {
        self.instance.restrict(repair)
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! Shared test fixtures mirroring the paper's running examples.

    use super::*;
    use pdqi_relation::{RelationSchema, TupleId, Value, ValueType};

    /// Example 1: the integrated `Mgr` instance with its two key dependencies.
    /// Tuple ids: 0 = (Mary,R&D,40,3), 1 = (John,R&D,10,2), 2 = (Mary,IT,20,1),
    /// 3 = (John,PR,30,4).
    pub fn example1() -> RepairContext {
        let schema = Arc::new(
            RelationSchema::from_pairs(
                "Mgr",
                &[
                    ("Name", ValueType::Name),
                    ("Dept", ValueType::Name),
                    ("Salary", ValueType::Int),
                    ("Reports", ValueType::Int),
                ],
            )
            .unwrap(),
        );
        let instance = RelationInstance::from_rows(
            Arc::clone(&schema),
            vec![
                vec!["Mary".into(), "R&D".into(), Value::int(40), Value::int(3)],
                vec!["John".into(), "R&D".into(), Value::int(10), Value::int(2)],
                vec!["Mary".into(), "IT".into(), Value::int(20), Value::int(1)],
                vec!["John".into(), "PR".into(), Value::int(30), Value::int(4)],
            ],
        )
        .unwrap();
        let fds =
            FdSet::parse(schema, &["Dept -> Name Salary Reports", "Name -> Dept Salary Reports"])
                .unwrap();
        RepairContext::new(instance, fds)
    }

    /// Example 7: `R(A,B)` with key `A → B` and three tuples sharing the key value.
    /// Tuple ids: 0 = ta = (1,1), 1 = tb = (1,2), 2 = tc = (1,3).
    pub fn example7() -> (RepairContext, Priority) {
        let schema = Arc::new(
            RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", ValueType::Int)])
                .unwrap(),
        );
        let instance = RelationInstance::from_rows(
            Arc::clone(&schema),
            vec![
                vec![Value::int(1), Value::int(1)],
                vec![Value::int(1), Value::int(2)],
                vec![Value::int(1), Value::int(3)],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
        let ctx = RepairContext::new(instance, fds);
        let priority =
            ctx.priority_from_pairs(&[(TupleId(0), TupleId(2)), (TupleId(0), TupleId(1))]).unwrap();
        (ctx, priority)
    }

    /// Example 8: `R(A,B,C)` with `A → B`; ta = (1,1,1), tb = (1,1,2), tc = (1,2,3) and
    /// the total priority tc ≻ ta, tc ≻ tb. Ids: 0 = ta, 1 = tb, 2 = tc.
    pub fn example8() -> (RepairContext, Priority) {
        let schema = Arc::new(
            RelationSchema::from_pairs(
                "R",
                &[("A", ValueType::Int), ("B", ValueType::Int), ("C", ValueType::Int)],
            )
            .unwrap(),
        );
        let instance = RelationInstance::from_rows(
            Arc::clone(&schema),
            vec![
                vec![Value::int(1), Value::int(1), Value::int(1)],
                vec![Value::int(1), Value::int(1), Value::int(2)],
                vec![Value::int(1), Value::int(2), Value::int(3)],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
        let ctx = RepairContext::new(instance, fds);
        let priority =
            ctx.priority_from_pairs(&[(TupleId(2), TupleId(0)), (TupleId(2), TupleId(1))]).unwrap();
        (ctx, priority)
    }

    /// Example 9: `R(A,B,C,D)` with `A → B` and `C → D`; the five tuples form a conflict
    /// path ta – tb – tc – td – te with the total priority ta ≻ tb ≻ tc ≻ td ≻ te.
    /// Ids: 0 = ta, 1 = tb, 2 = tc, 3 = td, 4 = te.
    pub fn example9() -> (RepairContext, Priority) {
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
            .unwrap(),
        );
        let instance = RelationInstance::from_rows(
            Arc::clone(&schema),
            vec![
                vec![Value::int(1), Value::int(1), Value::int(0), Value::int(0)],
                vec![Value::int(1), Value::int(2), Value::int(1), Value::int(1)],
                vec![Value::int(2), Value::int(1), Value::int(1), Value::int(2)],
                vec![Value::int(2), Value::int(2), Value::int(2), Value::int(1)],
                vec![Value::int(0), Value::int(0), Value::int(2), Value::int(2)],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(schema, &["A -> B", "C -> D"]).unwrap();
        let ctx = RepairContext::new(instance, fds);
        let priority = ctx
            .priority_from_pairs(&[
                (TupleId(0), TupleId(1)),
                (TupleId(1), TupleId(2)),
                (TupleId(2), TupleId(3)),
                (TupleId(3), TupleId(4)),
            ])
            .unwrap();
        (ctx, priority)
    }

    /// The *intended* Example 9 scenario (see the erratum note in `EXPERIMENTS.md`).
    ///
    /// The literal tuple data printed in the paper yields a 5-vertex conflict *path*,
    /// which has four repairs and — under the stated total priority — a single
    /// semi-globally optimal repair, so it cannot demonstrate the non-categoricity of
    /// `S-Rep` the example is meant to show. This fixture reconstructs the intended
    /// scenario described in Section 3.3: mutual conflicts generated by several
    /// functional dependencies with the user's priority covering only some of them.
    /// Conflict edges: the path ta–tb–tc–td–te plus the chords ta–td and tb–te; the
    /// priority orients only the path edges (ta ≻ tb ≻ tc ≻ td ≻ te) and is therefore
    /// *not* total. The repairs are exactly r1 = {ta,tc,te} and r2 = {tb,td}; both are
    /// semi-globally optimal, and only r1 is globally optimal.
    /// Ids: 0 = ta, 1 = tb, 2 = tc, 3 = td, 4 = te.
    pub fn example9_intended() -> (RepairContext, Priority) {
        let schema = Arc::new(
            RelationSchema::from_pairs(
                "R",
                &[
                    ("A1", ValueType::Int),
                    ("B1", ValueType::Int),
                    ("A2", ValueType::Int),
                    ("B2", ValueType::Int),
                    ("A3", ValueType::Int),
                    ("B3", ValueType::Int),
                ],
            )
            .unwrap(),
        );
        let row = |v: [i64; 6]| v.iter().map(|&n| Value::int(n)).collect::<Vec<_>>();
        let instance = RelationInstance::from_rows(
            Arc::clone(&schema),
            vec![
                row([1, 1, 10, 0, 5, 1]), // ta
                row([1, 2, 11, 1, 6, 1]), // tb
                row([2, 1, 11, 2, 7, 0]), // tc
                row([2, 2, 12, 1, 5, 2]), // td
                row([3, 0, 12, 2, 6, 2]), // te
            ],
        )
        .unwrap();
        let fds = FdSet::parse(schema, &["A1 -> B1", "A2 -> B2", "A3 -> B3"]).unwrap();
        let ctx = RepairContext::new(instance, fds);
        let priority = ctx
            .priority_from_pairs(&[
                (TupleId(0), TupleId(1)),
                (TupleId(1), TupleId(2)),
                (TupleId(2), TupleId(3)),
                (TupleId(3), TupleId(4)),
            ])
            .unwrap();
        (ctx, priority)
    }

    /// Example 4: the instance `r_n` with `2ⁿ` repairs.
    pub fn example4(n: i64) -> RepairContext {
        let schema = Arc::new(
            RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", ValueType::Int)])
                .unwrap(),
        );
        let mut rows = Vec::new();
        for i in 0..n {
            rows.push(vec![Value::int(i), Value::int(0)]);
            rows.push(vec![Value::int(i), Value::int(1)]);
        }
        let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).unwrap();
        let fds = FdSet::parse(schema, &["A -> B"]).unwrap();
        RepairContext::new(instance, fds)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use pdqi_relation::TupleId;

    #[test]
    fn example_2_repairs_are_recognised_and_enumerated() {
        let ctx = example1();
        assert!(!ctx.is_consistent());
        let r1 = TupleSet::from_ids([TupleId(0), TupleId(3)]);
        let r2 = TupleSet::from_ids([TupleId(1), TupleId(2)]);
        let r3 = TupleSet::from_ids([TupleId(2), TupleId(3)]);
        for repair in [&r1, &r2, &r3] {
            assert!(ctx.is_repair(repair));
        }
        // Non-maximal and inconsistent subsets are rejected.
        assert!(!ctx.is_repair(&TupleSet::from_ids([TupleId(2)])));
        assert!(!ctx.is_repair(&TupleSet::from_ids([TupleId(0), TupleId(1)])));
        // Sets mentioning unknown tuples are rejected.
        assert!(!ctx.is_repair(&TupleSet::from_ids([TupleId(2), TupleId(3), TupleId(9)])));
        assert_eq!(ctx.count_repairs(), 3);
        let all = ctx.repairs(10);
        assert_eq!(all.len(), 3);
        assert!(all.contains(&r1) && all.contains(&r2) && all.contains(&r3));
        assert!(ctx.is_repair(&ctx.some_repair()));
    }

    #[test]
    fn consistent_relations_have_a_single_repair() {
        let ctx = example1();
        let consistent = ctx.materialise(&TupleSet::from_ids([TupleId(2), TupleId(3)]));
        let sub_ctx = RepairContext::new(consistent, ctx.fds().clone());
        assert!(sub_ctx.is_consistent());
        assert_eq!(sub_ctx.count_repairs(), 1);
        assert_eq!(sub_ctx.repairs(10)[0], sub_ctx.instance().all_ids());
    }

    #[test]
    fn example_4_repair_counts() {
        for n in [0i64, 1, 4, 10] {
            let ctx = example4(n);
            assert_eq!(ctx.count_repairs(), 1u128 << n);
        }
    }

    #[test]
    fn early_termination_of_repair_enumeration() {
        let ctx = example4(12);
        let mut seen = 0;
        let completed = ctx.for_each_repair(|_| {
            seen += 1;
            if seen >= 100 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(!completed);
        assert_eq!(seen, 100);
    }

    #[test]
    fn materialised_repairs_are_consistent_instances() {
        let ctx = example1();
        for repair in ctx.repairs(10) {
            let materialised = ctx.materialise(&repair);
            assert!(pdqi_constraints::is_consistent(&materialised, ctx.fds()));
            assert_eq!(materialised.len(), repair.len());
        }
    }
}
