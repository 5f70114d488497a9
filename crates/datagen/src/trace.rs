//! Serving traces: interleaved streams of queries and priority revisions.
//!
//! The serving architecture (snapshot registry + network front end) is exercised by a
//! workload the other generators do not produce: **queries racing revisions**. A
//! [`revision_trace`] builds a [`multi_chain_instance`]
//! and a deterministic event stream over it, where most events execute a query from a
//! small recurring pool (serving workloads repeat — that is what the answer memo is
//! for) and every `revision_every`-th event publishes a revised priority. Replaying the
//! stream against a `SnapshotRegistry` — queries on serving threads, revisions through
//! `SnapshotRegistry::commit` of a priority `Change` — is exactly the swap-under-load shape the
//! `e16_serving` bench and the serving tests pin down.
//!
//! [`mutation_trace`] is the incremental-maintenance analogue: the same recurring
//! query pool, but every k-th event **inserts or deletes rows** instead of revising
//! the priority. Replaying it — queries on serving threads, mutations through
//! `SnapshotRegistry::commit` of a `Change::Mutation` — drives the delta
//! subsystem the `e17_incremental` bench and the `incremental` tests pin down.

use pdqi_constraints::FdSet;
use pdqi_relation::{RelationInstance, TupleId, Value};
use rand::Rng;

use crate::synthetic::multi_chain_instance;

/// One event of a serving trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Execute this query (text for `PreparedQuery::parse`, or `PREPARE`/`EXEC` over
    /// the wire).
    Query(String),
    /// Publish a priority built from these explicit `winner ≻ loser` pairs (every pair
    /// is a conflict edge of the trace's instance, and the orientation is acyclic).
    Revision(Vec<(TupleId, TupleId)>),
}

/// A serving workload: the instance, its FDs, and the interleaved event stream.
#[derive(Debug, Clone)]
pub struct RevisionTrace {
    /// The relation the trace runs against (`chains` independent conflict chains).
    pub instance: RelationInstance,
    /// Its functional dependencies (`A -> B`, `C -> D`).
    pub fds: FdSet,
    /// `events` entries; every `revision_every`-th is a [`TraceEvent::Revision`].
    pub events: Vec<TraceEvent>,
}

/// Builds an interleaved query/revision stream over a `chains × length` multi-chain
/// instance: `events` events, of which every `revision_every`-th is a priority
/// revision re-orienting the conflict edges of one randomly chosen chain (revisions
/// therefore invalidate exactly one component's memo entries, the incremental-swap
/// shape priority derivations are built for). Queries are drawn from a pool of
/// 8 recurring texts so answer-memo hits occur like they would in a serving workload.
///
/// Deterministic given the `rng` seed, like every generator in this crate.
pub fn revision_trace<R: Rng>(
    chains: usize,
    length: usize,
    events: usize,
    revision_every: usize,
    rng: &mut R,
) -> RevisionTrace {
    assert!(chains >= 1 && length >= 2, "need at least one chain of at least two tuples");
    assert!(revision_every >= 2, "a trace needs query events between revisions");
    let (instance, fds) = multi_chain_instance(chains, length);
    let name = instance.schema().name().to_string();

    // The recurring query pool: open projections plus ground probes of stored tuples.
    let mut pool =
        vec![format!("EXISTS b,c,d . {name}(x,b,c,d)"), format!("EXISTS a,c,d . {name}(a,x,c,d)")];
    while pool.len() < 8 {
        let id = TupleId(rng.gen_range(0..instance.len()) as u32);
        let tuple = instance.tuple_unchecked(id);
        let values: Vec<String> = tuple.values().iter().map(|v| v.to_string()).collect();
        pool.push(format!("{name}({})", values.join(",")));
    }

    // Priority state: one orientation bit per (chain, edge), re-rolled per revision for
    // one chain. The emitted pairs always cover every chain, so each revision replaces
    // the full priority while *changing* only the chosen chain's component.
    let mut orientations: Vec<Vec<bool>> =
        (0..chains).map(|_| (0..length - 1).map(|_| rng.gen_bool(0.5)).collect()).collect();
    let emit_pairs = |orientations: &[Vec<bool>]| -> Vec<(TupleId, TupleId)> {
        let mut pairs = Vec::new();
        for (chain, bits) in orientations.iter().enumerate() {
            let offset = chain * length;
            for (i, &forward) in bits.iter().enumerate() {
                let a = TupleId((offset + i) as u32);
                let b = TupleId((offset + i + 1) as u32);
                // A path's edges can be oriented freely: no underlying cycle exists, so
                // the priority is acyclic by construction.
                pairs.push(if forward { (a, b) } else { (b, a) });
            }
        }
        pairs
    };

    let mut trace_events = Vec::with_capacity(events);
    for event in 0..events {
        if event % revision_every == revision_every - 1 {
            let chain = rng.gen_range(0..chains);
            for bit in &mut orientations[chain] {
                *bit = rng.gen_bool(0.5);
            }
            trace_events.push(TraceEvent::Revision(emit_pairs(&orientations)));
        } else {
            let pick = rng.gen_range(0..pool.len());
            trace_events.push(TraceEvent::Query(pool[pick].clone()));
        }
    }
    RevisionTrace { instance, fds, events: trace_events }
}

/// One event of a mutation trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationEvent {
    /// Execute this query (text for `PreparedQuery::parse`, or `PREPARE`/`EXEC` over
    /// the wire).
    Query(String),
    /// Insert these rows (each conflicts with an existing chain, growing — or
    /// re-bridging — its component).
    Insert(Vec<Vec<Value>>),
    /// Delete these rows by value (each targets a row stored at this point of the
    /// trace; deleting a chain-interior tuple splits its component).
    Delete(Vec<Vec<Value>>),
}

/// A mutation workload: the initial instance, its FDs, and the interleaved event
/// stream. Folding the inserts/deletes over the initial rows yields the row list the
/// instance holds after any prefix of the trace.
#[derive(Debug, Clone)]
pub struct MutationTrace {
    /// The initial relation (`chains` independent conflict chains).
    pub instance: RelationInstance,
    /// Its functional dependencies (`A -> B`, `C -> D`).
    pub fds: FdSet,
    /// `events` entries; every `mutate_every`-th is an insert or delete.
    pub events: Vec<MutationEvent>,
}

/// Builds an interleaved insert/delete/query stream over a `chains × length`
/// multi-chain instance — the incremental-maintenance analogue of [`revision_trace`].
/// Every `mutate_every`-th event is a mutation, alternating:
///
/// * **inserts** pick a stored row and add a fresh tuple sharing its `A` key with a
///   new `B` value, so the new tuple conflicts with everything in that `A`-group —
///   the affected chain component grows (or, after an earlier split, re-merges);
/// * **deletes** remove a row stored *at that point of the trace* — deleting a
///   chain-interior tuple splits its component in two.
///
/// All other events execute a query from a pool of 8 recurring texts (serving
/// workloads repeat; that is what the answer memo is for). Deterministic given the
/// `rng` seed, like every generator in this crate.
pub fn mutation_trace<R: Rng>(
    chains: usize,
    length: usize,
    events: usize,
    mutate_every: usize,
    rng: &mut R,
) -> MutationTrace {
    assert!(chains >= 1 && length >= 2, "need at least one chain of at least two tuples");
    assert!(mutate_every >= 2, "a trace needs query events between mutations");
    let (instance, fds) = multi_chain_instance(chains, length);
    let name = instance.schema().name().to_string();

    // The recurring query pool: open projections plus ground probes of stored tuples
    // (probed tuples may later be deleted — the query stays valid, its answer changes).
    let mut pool =
        vec![format!("EXISTS b,c,d . {name}(x,b,c,d)"), format!("EXISTS a,c,d . {name}(a,x,c,d)")];
    while pool.len() < 8 {
        let id = TupleId(rng.gen_range(0..instance.len()) as u32);
        let tuple = instance.tuple_unchecked(id);
        let values: Vec<String> = tuple.values().iter().map(|v| v.to_string()).collect();
        pool.push(format!("{name}({})", values.join(",")));
    }

    // Shadow row state, so deletes always target rows stored at that trace position.
    let mut rows: Vec<Vec<Value>> =
        instance.iter().map(|(_, tuple)| tuple.values().to_vec()).collect();
    // Fresh B/C values for inserted tuples: B outside {0, 1} makes the new tuple
    // conflict with every stored tuple of its A-group; a fresh C keeps the second FD
    // out of the picture.
    let mut fresh = 0i64;

    let mut trace_events = Vec::with_capacity(events);
    let mut mutations = 0usize;
    for event in 0..events {
        if event % mutate_every != mutate_every - 1 {
            let pick = rng.gen_range(0..pool.len());
            trace_events.push(MutationEvent::Query(pool[pick].clone()));
            continue;
        }
        mutations += 1;
        // Alternate inserts and deletes, but never shrink below two rows.
        if mutations % 2 == 1 || rows.len() <= 2 {
            let anchor = rows[rng.gen_range(0..rows.len())].clone();
            fresh += 1;
            let row = vec![
                anchor[0].clone(),
                Value::int(100 + fresh),
                Value::int(2_000_000 + fresh),
                Value::int(0),
            ];
            rows.push(row.clone());
            trace_events.push(MutationEvent::Insert(vec![row]));
        } else {
            let victim = rows.swap_remove(rng.gen_range(0..rows.len()));
            trace_events.push(MutationEvent::Delete(vec![victim]));
        }
    }
    MutationTrace { instance, fds, events: trace_events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn traces_are_deterministic_and_interleave_on_schedule() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let first = revision_trace(4, 6, 40, 5, &mut a);
        let second = revision_trace(4, 6, 40, 5, &mut b);
        assert_eq!(first.events, second.events);
        assert_eq!(first.events.len(), 40);
        for (index, event) in first.events.iter().enumerate() {
            let is_revision = matches!(event, TraceEvent::Revision(_));
            assert_eq!(is_revision, index % 5 == 4, "event {index}");
        }
    }

    #[test]
    fn mutation_traces_are_deterministic_and_replayable() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let first = mutation_trace(4, 6, 60, 4, &mut a);
        let second = mutation_trace(4, 6, 60, 4, &mut b);
        assert_eq!(first.events, second.events);
        assert_eq!(first.events.len(), 60);

        // Replay the shadow state: every delete targets a row stored at that point,
        // every insert is schema-valid and conflicts with an existing A-group, and the
        // mutation schedule holds.
        let mut rows: Vec<Vec<Value>> =
            first.instance.iter().map(|(_, tuple)| tuple.values().to_vec()).collect();
        let mut mutations = 0;
        for (index, event) in first.events.iter().enumerate() {
            let is_mutation = !matches!(event, MutationEvent::Query(_));
            assert_eq!(is_mutation, index % 4 == 3, "event {index}");
            match event {
                MutationEvent::Query(text) => {
                    pdqi_query::parse_formula(text).expect("trace queries parse");
                }
                MutationEvent::Insert(inserted) => {
                    mutations += 1;
                    for row in inserted {
                        assert_eq!(row.len(), 4);
                        assert!(
                            rows.iter().any(|stored| stored[0] == row[0]),
                            "inserts anchor to a stored A-group"
                        );
                        rows.push(row.clone());
                    }
                }
                MutationEvent::Delete(deleted) => {
                    mutations += 1;
                    for row in deleted {
                        let position = rows
                            .iter()
                            .position(|stored| stored == row)
                            .expect("deletes target stored rows");
                        rows.swap_remove(position);
                    }
                }
            }
        }
        assert_eq!(mutations, 15);
        assert!(rows.len() >= 2);
    }

    #[test]
    fn revision_pairs_are_installable_priorities_and_queries_parse() {
        use pdqi_query::parse_formula;
        let mut rng = StdRng::seed_from_u64(11);
        let trace = revision_trace(3, 5, 30, 3, &mut rng);
        let graph = std::sync::Arc::new(pdqi_constraints::ConflictGraph::build(
            &trace.instance,
            &trace.fds,
        ));
        let mut revisions = 0;
        for event in &trace.events {
            match event {
                TraceEvent::Query(text) => {
                    parse_formula(text).expect("trace queries parse");
                }
                TraceEvent::Revision(pairs) => {
                    revisions += 1;
                    // Every revision covers all chain edges and installs cleanly.
                    assert_eq!(pairs.len(), 3 * 4);
                    pdqi_priority::Priority::from_pairs(std::sync::Arc::clone(&graph), pairs)
                        .expect("trace revisions are valid priorities");
                }
            }
        }
        assert_eq!(revisions, 10);
    }
}
