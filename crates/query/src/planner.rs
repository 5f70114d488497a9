//! A small Volcano-style cost-based planner over the repair product.
//!
//! [`PreparedQuery`](https://docs.rs/pdqi) classifies a formula once and used to run a
//! fixed strategy. The engine's snapshot memo, however, already holds **real
//! cardinalities** — per-component preferred-repair counts and per-relation row counts —
//! sitting unused at planning time. This module turns them into costed physical
//! alternatives:
//!
//! ```text
//!                logical plan                      physical alternatives
//!   formula ──► scan(R, filters)          ──►  join orders (post-selection cards)
//!               join(R₁ ⋈ … ⋈ Rₙ)         ──►  vectorized vs scalar evaluation
//!               repair-product fold        ──►  per-component memo-derive vs enumerate
//!                                          ──►  chunk count from estimated cost
//! ```
//!
//! The planner is **engine-agnostic**: callers (the core crate's prepared-query
//! executor) supply [`PlannerInputs`] — relation row counts, per-component conflict
//! sizes and memoised repair counts, and the worker count — and get back a
//! [`PhysicalPlan`]. Every physical choice is pinned
//! **bit-identical** to the naive fixed strategy: join order only permutes the
//! vectorized join's atom slots (answers are collected into an order-insensitive sorted
//! set), the eval-path choice switches between two already-pinned interpreters, chunking
//! only re-splits the same enumeration, and memo-derivation reproduces the exact
//! preferred lists the naive enumeration computes.
//!
//! `PDQI_FORCE_NAIVE_PLAN=1` (or [`force_naive_plan`]) disables the planner wholesale so
//! the fixed-strategy path stays exercised; [`plan_stats`] counts the choices made.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::ast::{Formula, Term};

/// Process-wide switch disabling the cost-based planner, seeded from the
/// `PDQI_FORCE_NAIVE_PLAN` environment variable on first use.
fn force_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        AtomicBool::new(std::env::var("PDQI_FORCE_NAIVE_PLAN").is_ok_and(|v| v == "1"))
    })
}

/// Forces (or un-forces) the naive fixed strategy process-wide. The differential test
/// suites use this to run the same query through both paths; servers leave it to the
/// `PDQI_FORCE_NAIVE_PLAN` environment variable.
pub fn force_naive_plan(force: bool) {
    force_flag().store(force, Ordering::SeqCst);
}

/// Whether the naive fixed strategy is currently forced (env knob or programmatic
/// override).
pub fn naive_plan_forced() -> bool {
    force_flag().load(Ordering::SeqCst)
}

static PLANNED: AtomicU64 = AtomicU64::new(0);
static NAIVE: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static JOIN_REORDERS: AtomicU64 = AtomicU64::new(0);
static SCALAR_PICKS: AtomicU64 = AtomicU64::new(0);
static DERIVED_COMPONENTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters of the planner's choices (monotonic over the process
/// lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Physical plans costed and chosen (plan-cache misses).
    pub planned: u64,
    /// Executions that ran the naive fixed strategy (`PDQI_FORCE_NAIVE_PLAN` or
    /// [`force_naive_plan`]).
    pub naive: u64,
    /// Executions served by a cached physical plan.
    pub cache_hits: u64,
    /// Plans whose chosen join order differs from the formula's atom order.
    pub join_reorders: u64,
    /// Plans that picked the scalar interpreter over the vectorized path.
    pub scalar_picks: u64,
    /// Per-component preferred-repair lists derived by filtering a memoised `Rep`
    /// enumeration instead of recomputing the maximal-independent-set search.
    pub derived_components: u64,
}

/// The current planner counters.
pub fn plan_stats() -> PlanStats {
    PlanStats {
        planned: PLANNED.load(Ordering::Relaxed),
        naive: NAIVE.load(Ordering::Relaxed),
        cache_hits: CACHE_HITS.load(Ordering::Relaxed),
        join_reorders: JOIN_REORDERS.load(Ordering::Relaxed),
        scalar_picks: SCALAR_PICKS.load(Ordering::Relaxed),
        derived_components: DERIVED_COMPONENTS.load(Ordering::Relaxed),
    }
}

/// Records one execution that took the naive fixed strategy.
pub fn note_naive() {
    NAIVE.fetch_add(1, Ordering::Relaxed);
}

/// Records one execution served by a cached physical plan.
pub fn note_plan_cache_hit() {
    CACHE_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records one preferred-repair list derived from a memoised `Rep` enumeration.
pub fn note_derived_component() {
    DERIVED_COMPONENTS.fetch_add(1, Ordering::Relaxed);
}

/// Cardinality inputs for one relation a query mentions.
#[derive(Debug, Clone)]
pub struct RelationStats {
    /// The relation name (matched against atom relation names).
    pub name: String,
    /// Total rows of the relation instance.
    pub rows: usize,
    /// Conflict-free rows (present in every repair selection).
    pub base_rows: usize,
}

/// Cardinality inputs for one conflict component of the repair product, in enumeration
/// order.
#[derive(Debug, Clone)]
pub struct ComponentStats {
    /// Index into [`PlannerInputs::relations`] of the component's relation.
    pub relation: usize,
    /// Number of conflicting tuples in the component.
    pub tuples: usize,
    /// Memoised preferred-repair count under the **target family**, when the memo
    /// already holds it.
    pub repairs: Option<usize>,
    /// Memoised repair count under `Rep` (the maximal-independent-set list the other
    /// families filter), when the memo already holds it.
    pub rep_repairs: Option<usize>,
}

/// Everything the planner needs to cost alternatives: the caller (the engine) owns the
/// memo and instance statistics, the planner owns the cost model.
#[derive(Debug, Clone)]
pub struct PlannerInputs {
    /// The relations the query mentions, with row counts.
    pub relations: Vec<RelationStats>,
    /// The conflict components of those relations, in repair-product enumeration order.
    pub components: Vec<ComponentStats>,
    /// Short label of the target repair family (for plan rendering).
    pub family: &'static str,
    /// Whether the target family's preferred lists can be derived by filtering a
    /// memoised `Rep` enumeration (true for L-Rep, S-Rep and G-Rep; `Rep` needs no
    /// derivation and C-Rep runs its own algorithm).
    pub derive_eligible: bool,
    /// Worker threads available to chunked execution.
    pub workers: usize,
}

/// How one component's preferred-repair list will be obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentStrategy {
    /// Already memoised under the target family: free.
    Memoised,
    /// Derived by the pairwise filter over the memoised `Rep` list (no
    /// maximal-independent-set re-enumeration).
    DeriveFromRep,
    /// Full enumeration (maximal-independent-set search plus the family filter).
    Enumerate,
}

impl ComponentStrategy {
    fn label(self) -> &'static str {
        match self {
            ComponentStrategy::Memoised => "memo",
            ComponentStrategy::DeriveFromRep => "derive-from-rep",
            ComponentStrategy::Enumerate => "enumerate",
        }
    }
}

/// One costed scan in the chosen join order (for plan rendering).
#[derive(Debug, Clone)]
struct ScanNode {
    relation: String,
    rows: usize,
    filters: usize,
    est_rows: u128,
}

/// The chosen physical plan: every field is a degree of freedom the executor may apply
/// without changing results, plus the estimates that justified the choice.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Permutation of the formula's variable-binding atoms the vectorized join should
    /// use (`None`: the formula's own order was cheapest or the shape is not
    /// conjunctive).
    pub atom_order: Option<Vec<usize>>,
    /// Whether the vectorized path was chosen over the scalar interpreter.
    pub vectorized: bool,
    /// Estimated evaluation cost of one repair selection, in tuple-evaluations — the
    /// per-item cost fed to adaptive chunking (replacing the uniform per-selection
    /// heuristic).
    pub est_selection_cost: u64,
    /// Estimated size of the preferred-repair product.
    pub est_product: u128,
    /// Planned chunk count at [`PlannerInputs::workers`] workers.
    pub est_chunks: u64,
    /// Per-component strategies, in enumeration order.
    pub component_strategies: Vec<ComponentStrategy>,
    /// Short label of the target repair family.
    pub family: &'static str,
    /// The costed scans in chosen order (empty for non-conjunctive shapes).
    scans: Vec<ScanNode>,
    /// Total estimated cost (product × per-selection cost, saturating).
    pub est_total_cost: u128,
}

/// Ceiling on chunks per worker. More chunks give the executor's atomic work index
/// finer stealing granularity on skewed products (early exits make chunk costs uneven
/// even when per-item cost is uniform), but each chunk pays one cursor setup; 16 bounds
/// that overhead while still letting a worker that drew cheap chunks pull many more.
const MAX_CHUNKS_PER_WORKER: u128 = 16;

/// Target estimated work per chunk, in tuple-evaluations (the unit of
/// [`PhysicalPlan::est_selection_cost`]). Products whose total estimated work is below
/// `workers × TARGET_CHUNK_COST` get fewer, larger chunks — a tiny product is not worth
/// 64 cursor setups — while heavy products saturate at the per-worker ceiling.
const TARGET_CHUNK_COST: u128 = 4096;

/// The number of chunks a repair product of `total` selections is split into across
/// `workers` workers: the estimated work (`total` × `cost_per_item` tuple-evaluations)
/// divided by a fixed per-chunk target, so the split balances estimated work rather
/// than blindly cutting index ranges. Clamped to `[workers, workers × 16]`, and never
/// more than one chunk per selection.
///
/// This is both the executor's split and the `chunks≈` estimate [`plan`] previews.
pub fn adaptive_chunk_count(total: u128, cost_per_item: u128, workers: usize) -> u128 {
    let workers = workers.max(1) as u128;
    let work = total.saturating_mul(cost_per_item.max(1));
    let ideal = work / TARGET_CHUNK_COST;
    ideal.clamp(workers, workers.saturating_mul(MAX_CHUNKS_PER_WORKER)).min(total).max(1)
}

/// Join selectivity denominator: each equi-join binding or repeated variable is assumed
/// to keep one in four candidate pairs. Crude, but deterministic and directionally
/// right — what matters is the *ranking* of orders, not the absolute numbers.
const JOIN_SELECTIVITY_DIV: u128 = 4;

/// Constant-filter selectivity denominator: each `column = constant` filter is assumed
/// to keep one in four rows.
const CONST_SELECTIVITY_DIV: u128 = 4;

/// Per-row overhead factor of the scalar interpreter relative to the vectorized path
/// (string-keyed environments vs column slices).
const SCALAR_ROW_FACTOR: u128 = 8;

/// One variable-binding atom extracted from a conjunctive formula.
struct AtomShape<'f> {
    relation: &'f str,
    vars: Vec<&'f str>,
    const_filters: usize,
}

/// Extracts the variable-binding atoms of a conjunctive shape (an existential prefix
/// over atoms and comparisons), or `None` when the formula is outside that shape. The
/// returned list is index-aligned with the vectorized compiler's join slots.
fn conjunctive_atoms(formula: &Formula) -> Option<Vec<AtomShape<'_>>> {
    let mut body = formula;
    while let Formula::Exists(_, inner) = body {
        body = inner;
    }
    let mut stack = vec![body];
    let mut atoms = Vec::new();
    while let Some(conjunct) = stack.pop() {
        match conjunct {
            Formula::And(a, b) => {
                stack.push(b);
                stack.push(a);
            }
            Formula::Comparison(_) => {}
            Formula::Atom(atom) => {
                let vars: Vec<&str> = atom
                    .args
                    .iter()
                    .filter_map(|t| match t {
                        Term::Var(v) => Some(v.as_str()),
                        Term::Const(_) => None,
                    })
                    .collect();
                if !vars.is_empty() {
                    let const_filters = atom.args.len() - vars.len();
                    atoms.push(AtomShape { relation: &atom.relation, vars, const_filters });
                }
            }
            _ => return None,
        }
    }
    // `stack` pops reversed And-branches back into source order; no atom at all means
    // there is nothing to order.
    if atoms.is_empty() {
        None
    } else {
        Some(atoms)
    }
}

/// Estimated post-selection cardinality of one atom scan: relation rows cut by each
/// constant filter's selectivity.
fn scan_estimate(rows: usize, const_filters: usize) -> u128 {
    let mut est = rows as u128;
    for _ in 0..const_filters {
        est /= CONST_SELECTIVITY_DIV;
    }
    est.max(1)
}

/// Cost of evaluating the atoms in the given left-deep order: at every step the
/// current binding count fans out over the next atom's post-selection rows, cut by the
/// join selectivity of each already-bound variable. Returns `(total cost, final
/// binding estimate)`.
fn order_cost(atoms: &[AtomShape<'_>], ests: &[u128], order: &[usize]) -> (u128, u128) {
    let mut bound: Vec<&str> = Vec::new();
    let mut running = 1u128;
    let mut cost = 0u128;
    for &index in order {
        let atom = &atoms[index];
        let step = running.saturating_mul(ests[index]);
        cost = cost.saturating_add(step);
        let shared = atom.vars.iter().filter(|v| bound.contains(v)).count();
        let mut out = step;
        for _ in 0..shared {
            out /= JOIN_SELECTIVITY_DIV;
        }
        running = out.max(1);
        bound.extend(atom.vars.iter().copied());
    }
    (cost, running)
}

/// The cheapest join order over the atoms: exhaustive for up to six atoms, greedy
/// (cheapest next step, ties to the lowest index) beyond. Ties between whole orders
/// break to the lexicographically smallest permutation, so the choice is deterministic.
fn best_order(atoms: &[AtomShape<'_>], ests: &[u128]) -> (Vec<usize>, u128, u128) {
    let n = atoms.len();
    if n <= 6 {
        let mut best: Option<(Vec<usize>, u128, u128)> = None;
        let mut order: Vec<usize> = (0..n).collect();
        permute(&mut order, 0, &mut |candidate| {
            let (cost, out) = order_cost(atoms, ests, candidate);
            let better = match &best {
                None => true,
                Some((current, best_cost, _)) => {
                    cost < *best_cost || (cost == *best_cost && candidate < current.as_slice())
                }
            };
            if better {
                best = Some((candidate.to_vec(), cost, out));
            }
        });
        best.expect("at least one permutation")
    } else {
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut order = Vec::with_capacity(n);
        while !remaining.is_empty() {
            let next = remaining
                .iter()
                .copied()
                .min_by_key(|&candidate| {
                    let mut trial = order.clone();
                    trial.push(candidate);
                    (order_cost(atoms, ests, &trial).0, candidate)
                })
                .expect("non-empty remaining");
            order.push(next);
            remaining.retain(|&i| i != next);
        }
        let (cost, out) = order_cost(atoms, ests, &order);
        (order, cost, out)
    }
}

/// Visits every permutation of `items[at..]` (Heap-style recursion, deterministic
/// visit order).
fn permute(items: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        visit(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, visit);
        items.swap(at, i);
    }
}

/// Estimated preferred-repair count of a component with `tuples` conflicting tuples
/// when the memo holds no exact count yet. Conflict components in the paper's
/// workloads are chain-like, where the maximal-independent-set count grows roughly
/// linearly; `t/2 + 1` matches paths exactly and stays conservative on denser graphs.
fn estimated_component_repairs(tuples: usize) -> u128 {
    (tuples as u128).div_ceil(2) + 1
}

/// Costs the physical alternatives for `formula` over the supplied cardinalities and
/// picks the cheapest. Pure and deterministic: same inputs, same plan.
pub fn plan(formula: &Formula, inputs: &PlannerInputs) -> PhysicalPlan {
    // --- repair-product fold: size estimate and per-component strategy -------------
    let mut est_product = 1u128;
    let mut component_strategies = Vec::with_capacity(inputs.components.len());
    for comp in &inputs.components {
        let count = match (comp.repairs, comp.rep_repairs) {
            (Some(exact), _) => exact as u128,
            (None, Some(rep)) => rep as u128, // upper bound: families filter the Rep list
            (None, None) => estimated_component_repairs(comp.tuples),
        };
        est_product = est_product.saturating_mul(count.max(1));
        let strategy = match (comp.repairs, comp.rep_repairs, inputs.derive_eligible) {
            (Some(_), _, _) => ComponentStrategy::Memoised,
            (None, Some(_), true) => ComponentStrategy::DeriveFromRep,
            _ => ComponentStrategy::Enumerate,
        };
        component_strategies.push(strategy);
    }

    // --- join order + eval path over the conjunctive shape -------------------------
    let rows_of =
        |name: &str| inputs.relations.iter().find(|r| r.name == name).map(|r| r.rows).unwrap_or(1);
    let (atom_order, vectorized, scans, selection_cost) = match conjunctive_atoms(formula) {
        Some(atoms) => {
            let ests: Vec<u128> =
                atoms.iter().map(|a| scan_estimate(rows_of(a.relation), a.const_filters)).collect();
            let identity: Vec<usize> = (0..atoms.len()).collect();
            let (identity_cost, _) = order_cost(&atoms, &ests, &identity);
            let (order, cost, _) = best_order(&atoms, &ests);
            let reordered = order != identity && cost < identity_cost;
            if reordered {
                JOIN_REORDERS.fetch_add(1, Ordering::Relaxed);
            }
            let chosen: Vec<usize> = if reordered { order } else { identity };
            let chosen_cost = if reordered { cost } else { identity_cost };
            // Vectorized: one bitmask pass over each relation plus the pruned join.
            // Scalar: the same join shape but with per-row interpretation overhead.
            let mask_setup: u128 =
                atoms.iter().map(|a| (rows_of(a.relation) as u128) / 8 + 8).sum();
            let vector_cost = chosen_cost.saturating_add(mask_setup);
            let scalar_cost = chosen_cost.saturating_mul(SCALAR_ROW_FACTOR);
            let vectorized = vector_cost <= scalar_cost;
            if !vectorized {
                SCALAR_PICKS.fetch_add(1, Ordering::Relaxed);
            }
            let scans: Vec<ScanNode> = chosen
                .iter()
                .map(|&i| ScanNode {
                    relation: atoms[i].relation.to_string(),
                    rows: rows_of(atoms[i].relation),
                    filters: atoms[i].const_filters,
                    est_rows: ests[i],
                })
                .collect();
            let eval_cost = if vectorized { vector_cost } else { scalar_cost };
            (reordered.then_some(chosen), vectorized, scans, eval_cost)
        }
        None => {
            // Non-conjunctive shape: the vectorized compiler will refuse it anyway and
            // the scalar interpreter's cost scales with the full active domain.
            let total_rows: u128 = inputs.relations.iter().map(|r| r.rows as u128).sum();
            SCALAR_PICKS.fetch_add(1, Ordering::Relaxed);
            (None, false, Vec::new(), total_rows.saturating_mul(SCALAR_ROW_FACTOR).max(1))
        }
    };

    let est_selection_cost = u64::try_from(selection_cost.max(1)).unwrap_or(u64::MAX);
    let est_total_cost = est_product.saturating_mul(selection_cost.max(1));

    // --- chunking: the executor's adaptive split, previewed with the plan's cost ----
    let est_chunks = adaptive_chunk_count(est_product, selection_cost, inputs.workers);
    PLANNED.fetch_add(1, Ordering::Relaxed);

    PhysicalPlan {
        atom_order,
        vectorized,
        est_selection_cost,
        est_product,
        est_chunks: u64::try_from(est_chunks).unwrap_or(u64::MAX),
        component_strategies,
        family: inputs.family,
        scans,
        est_total_cost,
    }
}

impl PhysicalPlan {
    /// How many components this plan derives from memoised `Rep` lists.
    pub fn derived_components(&self) -> usize {
        self.component_strategies.iter().filter(|s| **s == ComponentStrategy::DeriveFromRep).count()
    }

    /// Renders the costed plan as a deterministic tree (stable across runs for the
    /// same inputs): the repair-product fold with per-component strategies, then the
    /// per-selection evaluation with the chosen join order. All numbers are estimates;
    /// the executor appends measured actuals after running the plan.
    pub fn render(&self, inputs_summary: Option<&str>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan family={} est_cost={} est_product={}\n",
            self.family, self.est_total_cost, self.est_product
        ));
        if let Some(summary) = inputs_summary {
            out.push_str(&format!("├─ {summary}\n"));
        }
        let memoised =
            self.component_strategies.iter().filter(|s| **s == ComponentStrategy::Memoised).count();
        out.push_str(&format!(
            "├─ repair-product components={} memoised={} derive-from-rep={} chunks≈{}\n",
            self.component_strategies.len(),
            memoised,
            self.derived_components(),
            self.est_chunks
        ));
        const LISTED: usize = 8;
        for (index, strategy) in self.component_strategies.iter().take(LISTED).enumerate() {
            out.push_str(&format!("│  ├─ component#{index} strategy={}\n", strategy.label()));
        }
        if self.component_strategies.len() > LISTED {
            out.push_str(&format!(
                "│  └─ … and {} more\n",
                self.component_strategies.len() - LISTED
            ));
        }
        let path = if self.vectorized { "vectorized" } else { "scalar" };
        let order = match &self.atom_order {
            Some(order) => format!(
                " order=[{}]",
                order.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",")
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "└─ eval path={path}{order} est_selection_cost={}\n",
            self.est_selection_cost
        ));
        for (position, scan) in self.scans.iter().enumerate() {
            let branch = if position + 1 == self.scans.len() { "└─" } else { "├─" };
            out.push_str(&format!(
                "   {branch} scan {} rows={} filters={} est_rows={}\n",
                scan.relation, scan.rows, scan.filters, scan.est_rows
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn inputs(relations: Vec<RelationStats>, components: Vec<ComponentStats>) -> PlannerInputs {
        PlannerInputs { relations, components, family: "G", derive_eligible: true, workers: 4 }
    }

    fn rel(name: &str, rows: usize) -> RelationStats {
        RelationStats { name: name.to_string(), rows, base_rows: rows }
    }

    #[test]
    fn skewed_joins_put_the_selective_atom_first() {
        // Big(x) is 1000 rows unfiltered; Small('k', y) is 1000 rows with a constant
        // filter. The cheapest left-deep order scans Small first.
        let formula = parse_formula("EXISTS x,y . Big(x,y) AND Small('k',y)").expect("parses");
        let plan = plan(&formula, &inputs(vec![rel("Big", 4096), rel("Small", 4096)], vec![]));
        assert_eq!(plan.atom_order, Some(vec![1, 0]));
        assert!(plan.vectorized);
    }

    #[test]
    fn already_optimal_orders_are_left_alone() {
        let formula = parse_formula("EXISTS x,y . Small('k',y) AND Big(x,y)").expect("parses");
        let plan = plan(&formula, &inputs(vec![rel("Big", 4096), rel("Small", 4096)], vec![]));
        assert_eq!(plan.atom_order, None);
    }

    #[test]
    fn component_strategies_follow_the_memo_state() {
        let formula = parse_formula("EXISTS y . R(x,y)").expect("parses");
        let components = vec![
            ComponentStats { relation: 0, tuples: 4, repairs: Some(3), rep_repairs: Some(3) },
            ComponentStats { relation: 0, tuples: 4, repairs: None, rep_repairs: Some(3) },
            ComponentStats { relation: 0, tuples: 4, repairs: None, rep_repairs: None },
        ];
        let plan = plan(&formula, &inputs(vec![rel("R", 16)], components));
        assert_eq!(
            plan.component_strategies,
            vec![
                ComponentStrategy::Memoised,
                ComponentStrategy::DeriveFromRep,
                ComponentStrategy::Enumerate,
            ]
        );
        assert_eq!(plan.derived_components(), 1);
        // 3 × 3 × (4/2 + 1) with the unknown component estimated.
        assert_eq!(plan.est_product, 27);
    }

    #[test]
    fn rendering_is_deterministic_and_mentions_every_choice() {
        let formula = parse_formula("EXISTS x,y . Big(x,y) AND Small('k',y)").expect("parses");
        let physical = plan(&formula, &inputs(vec![rel("Big", 4096), rel("Small", 4096)], vec![]));
        let first = physical.render(Some("query Q"));
        let second = physical.render(Some("query Q"));
        assert_eq!(first, second);
        assert!(first.contains("plan family=G"));
        assert!(first.contains("order=[1,0]"));
        assert!(first.contains("scan Small"));
        assert!(first.contains("repair-product components=0"));
    }

    #[test]
    fn non_conjunctive_shapes_plan_scalar_without_an_order() {
        let formula = parse_formula("NOT R('a','b')").expect("parses");
        let physical = plan(&formula, &inputs(vec![rel("R", 64)], vec![]));
        assert_eq!(physical.atom_order, None);
        assert!(!physical.vectorized);
    }

    #[test]
    fn adaptive_chunk_counts_scale_with_estimated_work() {
        let four = 4;
        // Tiny products collapse to one chunk per selection.
        assert_eq!(adaptive_chunk_count(3, 10, four), 3);
        // Small-but-parallel products stay at one chunk per worker.
        assert_eq!(adaptive_chunk_count(64, 1, four), 4);
        // Heavier work grows the chunk count between the clamps...
        let mid = adaptive_chunk_count(4096, 12, four);
        assert!(mid > 4 && mid < 64, "mid-size product got {mid} chunks");
        // ...and heavy products saturate at MAX_CHUNKS_PER_WORKER per worker.
        assert_eq!(adaptive_chunk_count(1 << 80, 100, four), 64);
        // Saturated work products do not overflow.
        assert_eq!(adaptive_chunk_count(u128::MAX - 1, u128::MAX, four), 64);
    }

    #[test]
    fn force_naive_round_trips() {
        let before = naive_plan_forced();
        force_naive_plan(true);
        assert!(naive_plan_forced());
        force_naive_plan(false);
        assert!(!naive_plan_forced());
        force_naive_plan(before);
    }
}
