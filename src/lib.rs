//! `pdqi` — Preference-Driven Querying of Inconsistent relational databases.
//!
//! An executable reproduction (and scaling-up) of S. Staworko & J. Chomicki,
//! *Preference-Driven Querying of Inconsistent Relational Databases* (EDBT 2006
//! Workshops): repairs of an inconsistent database are the maximal consistent subsets,
//! a user *priority* orients conflicts, and queries are answered over the induced
//! families of preferred repairs.
//!
//! # The primary API: build a snapshot, prepare queries, execute many times
//!
//! The paper's setting fixes the database, its constraints and the priority once and
//! then asks many queries. The API mirrors that amortized shape:
//!
//! 1. [`EngineBuilder`] assembles relations + functional dependencies + a priority
//!    source into an immutable [`EngineSnapshot`]. Conflict graphs and their connected
//!    components are computed once and shared (`Arc`) by clones and derived snapshots.
//! 2. [`PreparedQuery`] parses and classifies a first-order query once; executing it
//!    against a snapshot under any [`FamilyKind`] and [`Semantics`] streams an
//!    [`AnswerSet`]. Per-component preferred repairs and full answers are memoised in
//!    the snapshot, so repeated and overlapping executions skip the expensive work.
//! 3. [`EngineSnapshot::derive`] applies a [`Change`] — a priority revision, a row
//!    [`Mutation`] or an added FD — without rebuilding, re-enumerating only the
//!    conflict components the change touches.
//!
//! ```
//! use std::sync::Arc;
//! use pdqi::{EngineBuilder, FamilyKind, PreparedQuery, Semantics};
//! use pdqi::{FdSet, RelationInstance, RelationSchema, Value, ValueType};
//!
//! // The paper's Example 1: two conflicting sources integrated into one relation.
//! let schema = Arc::new(RelationSchema::from_pairs("Mgr", &[
//!     ("Name", ValueType::Name), ("Dept", ValueType::Name),
//!     ("Salary", ValueType::Int), ("Reports", ValueType::Int),
//! ]).unwrap());
//! let instance = RelationInstance::from_rows(Arc::clone(&schema), vec![
//!     vec!["Mary".into(), "R&D".into(), Value::int(40), Value::int(3)],
//!     vec!["John".into(), "R&D".into(), Value::int(10), Value::int(2)],
//!     vec!["Mary".into(), "IT".into(), Value::int(20), Value::int(1)],
//!     vec!["John".into(), "PR".into(), Value::int(30), Value::int(4)],
//! ]).unwrap();
//! let fds = FdSet::parse(Arc::clone(&schema),
//!     &["Dept -> Name Salary Reports", "Name -> Dept Salary Reports"]).unwrap();
//!
//! // 1. Build once.
//! let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
//! assert_eq!(snapshot.count_repairs(), 3);
//!
//! // 2. Prepare once, execute as often as needed.
//! let q2 = PreparedQuery::parse(
//!     "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) \
//!      AND s1 > s2 AND r1 < r2",
//! ).unwrap();
//! assert!(q2.consistent_answer(&snapshot, FamilyKind::Rep).unwrap().is_undetermined());
//!
//! // 3. Revise preferences cheaply: source s3 (the last two tuples) is less reliable.
//! let mut order = pdqi::priority::SourceOrder::new();
//! order.prefer("s1", "s3").prefer("s2", "s3");
//! let sources: Vec<String> = ["s1", "s2", "s3", "s3"].map(String::from).into();
//! let priority = pdqi::priority::priority_from_source_reliability(
//!     Arc::clone(snapshot.graph()), &sources, &order);
//! let change = pdqi::Change::Priority { relation: "Mgr".to_string(), priority };
//! let (revised, _report) = snapshot.derive(&change, pdqi::Parallelism::sequential()).unwrap();
//! // Under the globally-optimal repairs the answer becomes certain.
//! assert!(q2.consistent_answer(&revised, FamilyKind::Global).unwrap().certainly_true);
//!
//! // Open queries stream certain/possible answers.
//! let depts = PreparedQuery::parse("EXISTS n,s,r . Mgr(n,x,s,r)").unwrap();
//! let certain = depts.execute(&revised, FamilyKind::Global, Semantics::Certain).unwrap();
//! assert_eq!(certain.collect::<Vec<_>>(), vec![vec![Value::name("R&D")]]);
//! ```
//!
//! For serving, a [`SnapshotRegistry`] holds one atomically-swappable snapshot per
//! table and publishes changes through [`SnapshotRegistry::commit`]; the SQL front end
//! ([`Session`]) is a thin view over it, holding a table only until its first read
//! publishes it and committing every later statement there, and the
//! `pdqi-server` crate puts a network front end (length-prefixed TCP protocol over
//! [`BatchExecutor`]) on the same registry.
//!
//! # Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`relation`] | relational substrate: values, schemas, tuples, instances, databases |
//! | [`constraints`] | functional dependencies, denial constraints, conflict graphs/hypergraphs |
//! | [`priority`] | priorities (acyclic conflict-graph orientations), winnow, generators |
//! | [`query`] | first-order queries: AST, parser, evaluator, classification |
//! | [`solve`] | repair enumeration, SAT, domination search, hardness reductions |
//! | [`core`] | the paper's framework **and the snapshot/prepared-query engine** |
//! | [`cleaning`] | the data-cleaning baseline the paper argues against |
//! | [`baselines`] | the Section 5 related-work baselines |
//! | [`aggregate`] | range-consistent aggregation (MIN/MAX/COUNT/SUM/AVG) |
//! | [`ext`] | future-work extensions: cyclic preferences, conflict hypergraphs |
//! | [`sql`] | SQL front end with `WITH REPAIRS <family>` and prepared-statement caching |
//! | [`datagen`] | synthetic workload generators used by the experiments |
//!
//! The most commonly used types are re-exported at the top level.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pdqi_aggregate as aggregate;
pub use pdqi_baselines as baselines;
pub use pdqi_cleaning as cleaning;
pub use pdqi_constraints as constraints;
pub use pdqi_core as core;
pub use pdqi_datagen as datagen;
pub use pdqi_ext as ext;
pub use pdqi_priority as priority;
pub use pdqi_query as query;
pub use pdqi_relation as relation;
pub use pdqi_server as server;
pub use pdqi_solve as solve;
pub use pdqi_sql as sql;

pub use pdqi_constraints::{ConflictGraph, FdSet, FunctionalDependency};
pub use pdqi_core::{
    force_naive_plan, naive_plan_forced, plan_stats, AnswerDelta, AnswerSet, BatchExecutor,
    BatchRequest, BatchResponse, BuildError, Change, ChangeError, ChangeReport, ChangeScope,
    CqaOutcome, EngineBuilder, EngineSnapshot, FamilyKind, MemoStats, Mutation, Parallelism,
    PhysicalPlan, PlanStats, PreparedQuery, RegistryStats, RepairContext, ReportStrategy,
    RouteSpec, Semantics, Shard, ShardPlan, SnapshotLease, SnapshotRegistry, SubscribeOptions,
    SubscribeStats, Subscribed, SubscriptionEvent, SubscriptionInfo, SubscriptionManager,
    TableStats, WindowStats, WriteCoalescer, WriteError, WriteFrame, WriteOutcome, WriteStats,
    MAX_THREADS,
};
pub use pdqi_priority::Priority;
pub use pdqi_query::{parse_formula, Evaluator, Formula};
pub use pdqi_relation::{RelationInstance, RelationSchema, TupleId, TupleSet, Value, ValueType};
pub use pdqi_sql::Session;
