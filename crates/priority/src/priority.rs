//! The [`Priority`] relation (Definition 2).

use std::fmt;
use std::sync::Arc;

use pdqi_constraints::ConflictGraph;
use pdqi_relation::{TupleId, TupleSet};

/// Errors raised while building or extending a priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PriorityError {
    /// An edge was added between tuples that are not conflicting.
    NotConflicting {
        /// The dominating tuple of the rejected edge.
        winner: TupleId,
        /// The dominated tuple of the rejected edge.
        loser: TupleId,
    },
    /// Adding the edge would create a cycle in `≻`.
    WouldCreateCycle {
        /// The dominating tuple of the rejected edge.
        winner: TupleId,
        /// The dominated tuple of the rejected edge.
        loser: TupleId,
    },
    /// An edge between a tuple and itself was added.
    SelfEdge {
        /// The offending tuple.
        tuple: TupleId,
    },
    /// A tuple id was outside the conflict graph's vertex range.
    UnknownTuple {
        /// The offending tuple id.
        tuple: TupleId,
    },
}

impl fmt::Display for PriorityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityError::NotConflicting { winner, loser } => {
                write!(
                    f,
                    "{winner} and {loser} are not conflicting, so no priority may relate them"
                )
            }
            PriorityError::WouldCreateCycle { winner, loser } => {
                write!(f, "adding {winner} ≻ {loser} would make the priority cyclic")
            }
            PriorityError::SelfEdge { tuple } => write!(f, "{tuple} cannot dominate itself"),
            PriorityError::UnknownTuple { tuple } => {
                write!(f, "{tuple} is not a vertex of the conflict graph")
            }
        }
    }
}

impl std::error::Error for PriorityError {}

/// A priority `≻`: an acyclic orientation of a (subset of the) conflict graph.
///
/// The priority keeps a shared handle to the conflict graph it orients so that the
/// "defined only on conflicting tuples" invariant of Definition 2 can be enforced on
/// every insertion; acyclicity is enforced by a reachability check before each insertion.
/// Cloning is cheap: the per-tuple domination sets are shared until a clone is modified.
#[derive(Clone)]
pub struct Priority {
    graph: Arc<ConflictGraph>,
    /// `dominates[x]` = the set of tuples y with `x ≻ y`.
    dominates: Arc<Vec<TupleSet>>,
    /// `dominators[y]` = the set of tuples x with `x ≻ y`.
    dominators: Arc<Vec<TupleSet>>,
    edge_count: usize,
}

impl Priority {
    /// The empty priority over `graph` (no conflict edge is oriented).
    pub fn empty(graph: Arc<ConflictGraph>) -> Self {
        let n = graph.vertex_count();
        Priority {
            graph,
            dominates: Arc::new(vec![TupleSet::with_capacity(n); n]),
            dominators: Arc::new(vec![TupleSet::with_capacity(n); n]),
            edge_count: 0,
        }
    }

    /// Builds a priority from explicit `winner ≻ loser` pairs, rejecting pairs that are
    /// not conflicting or that would create a cycle.
    pub fn from_pairs(
        graph: Arc<ConflictGraph>,
        pairs: &[(TupleId, TupleId)],
    ) -> Result<Self, PriorityError> {
        let mut priority = Priority::empty(graph);
        for &(winner, loser) in pairs {
            priority.add(winner, loser)?;
        }
        Ok(priority)
    }

    /// Builds a priority from an *arbitrary* acyclic relation on the tuples by keeping
    /// only the pairs that are conflicting (the paper notes this user-interface variant
    /// is equivalent). Pairs between non-conflicting tuples are silently dropped; cycles
    /// among the remaining pairs are still rejected.
    pub fn from_relation(
        graph: Arc<ConflictGraph>,
        pairs: &[(TupleId, TupleId)],
    ) -> Result<Self, PriorityError> {
        let mut priority = Priority::empty(graph);
        for &(winner, loser) in pairs {
            match priority.add(winner, loser) {
                Ok(()) | Err(PriorityError::NotConflicting { .. }) => {}
                Err(other) => return Err(other),
            }
        }
        Ok(priority)
    }

    /// The conflict graph this priority orients.
    pub fn graph(&self) -> &Arc<ConflictGraph> {
        &self.graph
    }

    /// Number of oriented conflict edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether no conflict edge is oriented (the empty priority `∅`).
    pub fn is_empty(&self) -> bool {
        self.edge_count == 0
    }

    /// Adds `winner ≻ loser`, enforcing Definition 2. Adding an edge that is already
    /// present is a no-op.
    pub fn add(&mut self, winner: TupleId, loser: TupleId) -> Result<(), PriorityError> {
        let n = self.graph.vertex_count();
        for t in [winner, loser] {
            if t.index() >= n {
                return Err(PriorityError::UnknownTuple { tuple: t });
            }
        }
        if winner == loser {
            return Err(PriorityError::SelfEdge { tuple: winner });
        }
        if !self.graph.are_conflicting(winner, loser) {
            return Err(PriorityError::NotConflicting { winner, loser });
        }
        if self.dominates[winner.index()].contains(loser) {
            return Ok(());
        }
        // Acyclicity: the new edge winner→loser closes a cycle iff loser already reaches
        // winner through existing ≻ edges.
        if self.reaches(loser, winner) {
            return Err(PriorityError::WouldCreateCycle { winner, loser });
        }
        Arc::make_mut(&mut self.dominates)[winner.index()].insert(loser);
        Arc::make_mut(&mut self.dominators)[loser.index()].insert(winner);
        self.edge_count += 1;
        Ok(())
    }

    /// Whether `x ≻ y`.
    pub fn dominates(&self, x: TupleId, y: TupleId) -> bool {
        self.dominates[x.index()].contains(y)
    }

    /// All tuples dominated by `x` (`{y | x ≻ y}`).
    pub fn dominated_by(&self, x: TupleId) -> &TupleSet {
        &self.dominates[x.index()]
    }

    /// All tuples dominating `y` (`{x | x ≻ y}`).
    pub fn dominators_of(&self, y: TupleId) -> &TupleSet {
        &self.dominators[y.index()]
    }

    /// Whether the conflict edge between `a` and `b` is oriented (in either direction).
    pub fn orients_edge(&self, a: TupleId, b: TupleId) -> bool {
        self.dominates(a, b) || self.dominates(b, a)
    }

    /// Whether the priority is total: every conflict edge is oriented.
    pub fn is_total(&self) -> bool {
        self.edge_count == self.graph.edge_count()
    }

    /// The conflict edges not yet oriented.
    pub fn unoriented_edges(&self) -> Vec<(TupleId, TupleId)> {
        self.graph.edges().iter().copied().filter(|&(a, b)| !self.orients_edge(a, b)).collect()
    }

    /// All oriented edges as `(winner, loser)` pairs, in ascending order.
    pub fn edges(&self) -> Vec<(TupleId, TupleId)> {
        let mut edges = Vec::with_capacity(self.edge_count);
        for (i, dominated) in self.dominates.iter().enumerate() {
            let winner = TupleId(i as u32);
            for loser in dominated.iter() {
                edges.push((winner, loser));
            }
        }
        edges
    }

    /// Whether `self` is an extension of `other` (`other ⊆ self`): every pair oriented by
    /// `other` is oriented the same way by `self`.
    pub fn is_extension_of(&self, other: &Priority) -> bool {
        other.edges().into_iter().all(|(winner, loser)| self.dominates(winner, loser))
    }

    /// Merges every edge of `other` into `self`. Fails if a merged edge is not a conflict
    /// edge of *this* priority's graph or would create a cycle.
    pub fn extend_with(&mut self, other: &Priority) -> Result<(), PriorityError> {
        for (winner, loser) in other.edges() {
            self.add(winner, loser)?;
        }
        Ok(())
    }

    /// Whether `from` reaches `to` following `≻` edges (transitive domination).
    pub fn reaches(&self, from: TupleId, to: TupleId) -> bool {
        if from == to {
            return true;
        }
        let mut visited = TupleSet::with_capacity(self.graph.vertex_count());
        let mut stack = vec![from];
        visited.insert(from);
        while let Some(v) = stack.pop() {
            for next in self.dominates[v.index()].iter() {
                if next == to {
                    return true;
                }
                if visited.insert(next) {
                    stack.push(next);
                }
            }
        }
        false
    }

    /// Verifies the acyclicity invariant from scratch (used by property tests; insertion
    /// already maintains it incrementally).
    pub fn check_acyclic(&self) -> bool {
        // Kahn-style topological sort over the oriented edges only.
        let n = self.graph.vertex_count();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.dominators[i].len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            for w in self.dominates[v].iter() {
                indegree[w.index()] -= 1;
                if indegree[w.index()] == 0 {
                    queue.push(w.index());
                }
            }
        }
        seen == n
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Priority{{")?;
        for (i, (winner, loser)) in self.edges().into_iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{winner} ≻ {loser}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A triangle conflict graph t0 – t1 – t2 – t0 (Example 7's shape).
    fn triangle() -> Arc<ConflictGraph> {
        Arc::new(ConflictGraph::from_edges(
            3,
            &[(TupleId(0), TupleId(1)), (TupleId(1), TupleId(2)), (TupleId(0), TupleId(2))],
        ))
    }

    /// The path graph of Example 9: ta – tb – tc – td – te.
    fn path5() -> Arc<ConflictGraph> {
        Arc::new(ConflictGraph::from_edges(
            5,
            &[
                (TupleId(0), TupleId(1)),
                (TupleId(1), TupleId(2)),
                (TupleId(2), TupleId(3)),
                (TupleId(3), TupleId(4)),
            ],
        ))
    }

    #[test]
    fn example_7_priority_is_accepted() {
        // ≻ = {(ta,tc),(ta,tb)} on the triangle.
        let p =
            Priority::from_pairs(triangle(), &[(TupleId(0), TupleId(2)), (TupleId(0), TupleId(1))])
                .unwrap();
        assert!(p.dominates(TupleId(0), TupleId(2)));
        assert!(!p.dominates(TupleId(2), TupleId(0)));
        assert_eq!(p.edge_count(), 2);
        assert!(!p.is_total());
        assert_eq!(p.unoriented_edges(), vec![(TupleId(1), TupleId(2))]);
    }

    #[test]
    fn non_conflicting_pairs_are_rejected() {
        let graph = Arc::new(ConflictGraph::from_edges(3, &[(TupleId(0), TupleId(1))]));
        let mut p = Priority::empty(graph);
        assert!(matches!(p.add(TupleId(0), TupleId(2)), Err(PriorityError::NotConflicting { .. })));
        assert!(matches!(p.add(TupleId(0), TupleId(0)), Err(PriorityError::SelfEdge { .. })));
        assert!(matches!(p.add(TupleId(0), TupleId(9)), Err(PriorityError::UnknownTuple { .. })));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut p = Priority::empty(triangle());
        p.add(TupleId(0), TupleId(1)).unwrap();
        p.add(TupleId(1), TupleId(2)).unwrap();
        // 2 ≻ 0 would close a directed cycle through the transitive closure.
        assert!(matches!(
            p.add(TupleId(2), TupleId(0)),
            Err(PriorityError::WouldCreateCycle { .. })
        ));
        // The opposite orientation is fine and makes the priority total.
        p.add(TupleId(0), TupleId(2)).unwrap();
        assert!(p.is_total());
        assert!(p.check_acyclic());
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut p = Priority::empty(triangle());
        p.add(TupleId(0), TupleId(1)).unwrap();
        p.add(TupleId(0), TupleId(1)).unwrap();
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn from_relation_drops_non_conflicting_pairs() {
        let p = Priority::from_relation(
            path5(),
            &[
                (TupleId(0), TupleId(1)),
                (TupleId(0), TupleId(4)), // not a conflict edge: dropped
                (TupleId(3), TupleId(2)),
            ],
        )
        .unwrap();
        assert_eq!(p.edge_count(), 2);
        assert!(!p.dominates(TupleId(0), TupleId(4)));
    }

    #[test]
    fn extension_relation() {
        let smaller = Priority::from_pairs(path5(), &[(TupleId(0), TupleId(1))]).unwrap();
        let larger =
            Priority::from_pairs(path5(), &[(TupleId(0), TupleId(1)), (TupleId(1), TupleId(2))])
                .unwrap();
        assert!(larger.is_extension_of(&smaller));
        assert!(!smaller.is_extension_of(&larger));
        // Every priority extends the empty priority and itself.
        let empty = Priority::empty(path5());
        assert!(smaller.is_extension_of(&empty));
        assert!(smaller.is_extension_of(&smaller));
    }

    #[test]
    fn extend_with_merges_edges() {
        let mut p = Priority::from_pairs(path5(), &[(TupleId(0), TupleId(1))]).unwrap();
        let q = Priority::from_pairs(path5(), &[(TupleId(2), TupleId(1))]).unwrap();
        p.extend_with(&q).unwrap();
        assert_eq!(p.edge_count(), 2);
        assert!(p.is_extension_of(&q));
    }

    #[test]
    fn example_9_total_priority_on_the_path() {
        // ≻ = {(ta,tb),(tb,tc),(tc,td),(td,te)}: total and acyclic.
        let p = Priority::from_pairs(
            path5(),
            &[
                (TupleId(0), TupleId(1)),
                (TupleId(1), TupleId(2)),
                (TupleId(2), TupleId(3)),
                (TupleId(3), TupleId(4)),
            ],
        )
        .unwrap();
        assert!(p.is_total());
        assert!(p.reaches(TupleId(0), TupleId(4)));
        assert!(!p.reaches(TupleId(4), TupleId(0)));
        assert_eq!(p.dominators_of(TupleId(1)).len(), 1);
        assert_eq!(p.dominated_by(TupleId(1)).len(), 1);
    }

    #[test]
    fn debug_rendering_lists_oriented_edges() {
        let p = Priority::from_pairs(triangle(), &[(TupleId(0), TupleId(1))]).unwrap();
        assert_eq!(format!("{p:?}"), "Priority{t0 ≻ t1}");
    }
}
