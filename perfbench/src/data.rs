//! Seeded inputs: the served relation, its conflict structure and its priorities.
//!
//! Every workload serves one relation `R(A,B,C,D)` under the FDs `A → B` and
//! `C → D`. A few small conflict chains (the paper's Example 9 shape, where
//! unoriented G-Rep checking is co-NP-complete) and one two-tuple *toggle*
//! component carry all the conflicts; conflict-free filler rows carry the size.
//! Cold executions enumerate the repair product over every component and evaluate
//! over every row once per selection, so the chains stay few and short.

use pdqi_constraints::FdSet;
use pdqi_core::{EngineBuilder, EngineSnapshot, FamilyKind};
use pdqi_relation::{RelationInstance, RelationSchema, TupleId, Value, ValueType};
use pdqi_server::ExecMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The served table.
pub const TABLE: &str = "R";
/// `C` values of the toggle pair and, from `HOT_C + 100` up, of rows writes insert.
pub const HOT_C: i64 = 3_000_000;
const CHAIN_C: i64 = 1_000_000;
const FILLER_C: i64 = 5_000_000;
/// Filler rows draw `B` and `D` from `2..2 + VALUE_DOMAIN`; chain rows use 0 and 1.
pub const VALUE_DOMAIN: i64 = 1000;

/// How many chains of which length, and how many conflict-free filler rows.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub chains: usize,
    pub chain_len: usize,
    pub filler: usize,
}

/// One generated instance plus the tuple ids the workloads address directly.
pub struct Dataset {
    pub instance: RelationInstance,
    pub fds: FdSet,
    /// Row values in tuple-id order (the id of a row is its position).
    pub rows: Vec<Vec<Value>>,
    /// The tuple ids of each chain, in path order.
    pub chains: Vec<Vec<TupleId>>,
    /// The two tuples of the toggle component: one `A → B` conflict edge that
    /// `SET-PRIORITY` writes orient one way and then the other.
    pub toggle: (TupleId, TupleId),
    /// Every other chain edge, oriented in alternating directions; the other edges
    /// stay unoriented.
    pub chain_priority: Vec<(TupleId, TupleId)>,
}

fn row(a: i64, b: i64, c: i64, d: i64) -> Vec<Value> {
    vec![Value::int(a), Value::int(b), Value::int(c), Value::int(d)]
}

impl Dataset {
    /// Generates the instance for `shape` from `seed`. Rows come out sorted by `A`
    /// (so key-range splits apply). The chains sit at evenly spaced fixed positions
    /// of the key range and the toggle pair at a third of it, so a balanced key-range
    /// split gives every shard the same conflict components for every seed; the seed
    /// draws the filler values.
    pub fn generate(shape: Shape, seed: u64) -> Dataset {
        enum Slot {
            Filler,
            Chain(usize),
            Toggle,
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut slots = Vec::with_capacity(shape.filler + shape.chains + 1);
        for position in 0..shape.filler {
            if position == shape.filler / 3 {
                slots.push(Slot::Toggle);
            }
            for chain in 0..shape.chains {
                if position == (2 * chain + 1) * shape.filler / (2 * shape.chains) {
                    slots.push(Slot::Chain(chain));
                }
            }
            slots.push(Slot::Filler);
        }

        let mut rows = Vec::with_capacity(shape.filler + shape.chains * shape.chain_len + 2);
        let mut chains = vec![Vec::new(); shape.chains];
        let mut toggle = (TupleId(0), TupleId(0));
        let mut a = 0i64;
        let mut filler = 0i64;
        let id = |rows: &Vec<Vec<Value>>| TupleId(rows.len() as u32);
        for slot in slots {
            match slot {
                Slot::Filler => {
                    let b = rng.gen_range(2..2 + VALUE_DOMAIN);
                    let d = rng.gen_range(2..2 + VALUE_DOMAIN);
                    rows.push(row(a, b, FILLER_C + filler, d));
                    filler += 1;
                    a += 1;
                }
                Slot::Chain(chain) => {
                    // Tuples 2k, 2k+1 share A (distinct B); tuples 2k+1, 2k+2 share C
                    // (distinct D): a conflict path alternating the two FDs.
                    let c0 = CHAIN_C + (chain * (shape.chain_len + 2)) as i64;
                    for i in 0..shape.chain_len {
                        chains[chain].push(id(&rows));
                        let (i64_i, half_up) = (i as i64, i.div_ceil(2) as i64);
                        rows.push(row(a + i64_i / 2, i64_i % 2, c0 + half_up, (i64_i + 1) % 2));
                    }
                    a += (shape.chain_len / 2 + 1) as i64;
                }
                Slot::Toggle => {
                    toggle = (id(&rows), TupleId(rows.len() as u32 + 1));
                    rows.push(row(a, 0, HOT_C, 0));
                    rows.push(row(a, 1, HOT_C + 1, 0));
                    a += 1;
                }
            }
        }
        // Every other chain edge is oriented, in alternating directions; any
        // orientation of a path is acyclic. The pattern does not depend on the seed, so
        // every seed has the same preferred-repair counts and the same work per query.
        let mut chain_priority = Vec::new();
        for (index, chain) in chains.iter().enumerate() {
            for (position, edge) in chain.windows(2).enumerate().step_by(2) {
                let forward = (index + position / 2) % 2 == 0;
                chain_priority.push(if forward { (edge[0], edge[1]) } else { (edge[1], edge[0]) });
            }
        }
        let instance = RelationInstance::from_rows(schema(), rows.clone()).expect("rows fit R");
        let fds = FdSet::parse(schema(), &["A -> B", "C -> D"]).expect("FDs parse");
        Dataset { instance, fds, rows, chains, toggle, chain_priority }
    }

    /// The full priority with the toggle edge oriented by `flip`: what the snapshot
    /// starts with (`false`) and what alternating `SET-PRIORITY` writes install.
    pub fn priority(&self, flip: bool) -> Vec<(TupleId, TupleId)> {
        let (x, y) = self.toggle;
        let mut pairs = self.chain_priority.clone();
        pairs.push(if flip { (y, x) } else { (x, y) });
        pairs
    }

    /// Builds the snapshot a workload serves (sequential build, initial priority).
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineBuilder::new()
            .relation(self.instance.clone(), self.fds.clone())
            .priority_pairs(&self.priority(false))
            .build()
            .expect("generated instance builds")
    }

    /// A row that conflicts with chain tuple `anchor` (same `A`, a `B` no chain row
    /// has) and carries the unique hot-zone `C` value `HOT_C + 100 + serial`.
    pub fn conflicting_row(&self, anchor: TupleId, serial: i64) -> Vec<Value> {
        let a = self.rows[anchor.index()][0].clone();
        vec![
            a,
            Value::int(2 + serial % VALUE_DOMAIN),
            Value::int(HOT_C + 100 + serial),
            Value::int(0),
        ]
    }

    /// The value of column `col` of tuple `id` as an integer.
    pub fn int(&self, id: TupleId, col: usize) -> i64 {
        self.rows[id.index()][col].to_string().parse().expect("integer column")
    }

    /// All chain tuples, chain by chain.
    pub fn chain_tuples(&self) -> Vec<TupleId> {
        self.chains.iter().flatten().copied().collect()
    }
}

fn schema() -> Arc<RelationSchema> {
    Arc::new(
        RelationSchema::from_pairs(
            TABLE,
            &[
                ("A", ValueType::Int),
                ("B", ValueType::Int),
                ("C", ValueType::Int),
                ("D", ValueType::Int),
            ],
        )
        .expect("schema"),
    )
}

/// One read a workload issues: a query text with its family and answer mode.
#[derive(Debug, Clone)]
pub struct Read {
    pub id: String,
    pub text: String,
    pub family: FamilyKind,
    pub mode: ExecMode,
}

impl Read {
    pub fn new(
        id: impl Into<String>,
        text: impl Into<String>,
        family: FamilyKind,
        mode: ExecMode,
    ) -> Self {
        Read { id: id.into(), text: text.into(), family, mode }
    }
}

/// The subscribed query: the `C` values of the rows with `D = 0`, which are half of
/// the chain tuples, the toggle pair and every row writes insert. Each insert and
/// delete adds or removes a unique `C` value from its possible answers under every
/// family, and each toggle flip swaps which toggle tuple is possible under the
/// preferred families, so every write is a push sample.
pub const HOT_ZONE_QUERY: &str = "EXISTS a,b . R(a,b,c,0)";

/// Recurring reads over the chain rows, the filler and the hot zone: open queries
/// under CERTAIN and POSSIBLE, closed Q1/Q2-style and ground queries under CLOSED,
/// across all five families. `single_atom` restricts the pool to the queries a
/// coordinator can distribute.
pub fn recurring_reads(data: &Dataset, seed: u64, single_atom: bool) -> Vec<Read> {
    use ExecMode::{Certain, Closed, Possible};
    use FamilyKind::{Common, Global, Local, Rep, SemiGlobal};
    // Chain tuples at fixed chain positions: which tuple a closed query names decides
    // where in the repair product its outcome settles, so the positions stay the same
    // for every seed.
    let at = |chain: usize, position: usize| {
        let chain = &data.chains[chain % data.chains.len()];
        chain[position % chain.len()]
    };
    let (t1, t2, t3) = (at(0, 1), at(1, 2), at(2, 0));
    let filler_b = StdRng::seed_from_u64(seed ^ 0x5eed).gen_range(2..2 + VALUE_DOMAIN);
    let ground = format!(
        "R({},{},{},{})",
        data.int(t3, 0),
        data.int(t3, 1),
        data.int(t3, 2),
        data.int(t3, 3)
    );
    let mut reads = vec![
        Read::new("r_b0", "EXISTS c,d . R(x,0,c,d)", Rep, Certain),
        Read::new("g_b0", "EXISTS c,d . R(x,0,c,d)", Global, Possible),
        Read::new("l_b1", "EXISTS a,d . R(a,1,c,d)", Local, Certain),
        Read::new("s_d1", "EXISTS a,b . R(a,b,c,1)", SemiGlobal, Possible),
        Read::new("c_fill", format!("EXISTS c,d . R(x,{filler_b},c,d)"), Common, Certain),
        Read::new("g_hot", HOT_ZONE_QUERY, Global, Certain),
        Read::new("c_q2", format!("EXISTS c,d . R({},0,c,d)", data.int(t1, 0)), Common, Closed),
        Read::new("r_ground", ground, Rep, Closed),
        Read::new(
            "s_ground",
            format!("EXISTS c,d . R({},1,c,d)", data.int(t2, 0)),
            SemiGlobal,
            Closed,
        ),
    ];
    if !single_atom {
        reads.push(Read::new(
            "g_q1",
            format!(
                "EXISTS b1,c1,d1,b2,c2,d2 . R({},b1,c1,d1) AND R({},b2,c2,d2) AND b1 < b2",
                data.int(t1, 0),
                data.int(t2, 0)
            ),
            Global,
            Closed,
        ));
        reads.push(Read::new(
            "l_join",
            "EXISTS d,b2,d2 . R(x,0,c,d) AND R(y,b2,c,d2)",
            Local,
            Possible,
        ));
    }
    reads
}
