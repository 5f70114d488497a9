//! Preference-driven querying of inconsistent relational databases.
//!
//! This crate is the heart of the `pdqi` workspace: it implements the framework of
//! S. Staworko, J. Chomicki and J. Marcinkowski, *Preference-Driven Querying of
//! Inconsistent Relational Databases* (EDBT 2006 Workshops):
//!
//! * **repairs** of an inconsistent instance w.r.t. functional dependencies — the maximal
//!   consistent subsets, represented through the conflict graph ([`repair`]),
//! * the paper's three **optimality notions** — local, semi-global and global — plus the
//!   `≪` lifting of a priority to repairs ([`optimality`]),
//! * the four **families of preferred repairs** `Rep ⊇ L-Rep ⊇ S-Rep ⊇ G-Rep ⊇ C-Rep`
//!   with membership tests (X-repair checking) and enumeration ([`families`]),
//! * **Algorithm 1**, the winnow-driven cleaning procedure whose possible outputs are
//!   exactly the common repairs C-Rep ([`clean`]),
//! * executable checks of the desirable **properties P1–P4** and of the paper's
//!   propositions and theorems ([`properties`]),
//! * **preferred consistent query answers** for every family, with both the generic
//!   enumeration-based procedure and the polynomial-time algorithm for quantifier-free
//!   queries under the plain repair family ([`cqa`], [`cqa_ground`]),
//! * the **prepared-query engine**: [`EngineBuilder`] / [`EngineSnapshot`] /
//!   [`PreparedQuery`], the primary API ([`snapshot`], [`prepared`]),
//! * the **serving core**: [`SnapshotRegistry`], one atomically-swappable
//!   [`Arc`](std::sync::Arc)-shared snapshot per table with generation counters, the
//!   structure SQL sessions and the `pdqi-server` network front end serve from
//!   ([`registry`]),
//! * **snapshot derivation**: a [`Change`] — a priority revision, a [`Mutation`] batch
//!   of row inserts/deletes, or an added FD — derives a new snapshot through
//!   [`EngineSnapshot::derive`], re-partitioning only the affected conflict components
//!   and carrying over every untouched memo entry, bit-identical to a fresh build; the
//!   registry publishes it through [`SnapshotRegistry::commit`] ([`change`]),
//! * the **continuous-query subsystem**: a [`SubscriptionManager`] observes registry
//!   generation swaps and pushes incremental [`AnswerDelta`]s to registered prepared
//!   queries — proving answers unchanged from the swap's [`ChangeScope`] (and skipping
//!   re-execution) whenever the mutation or priority revision cannot have touched the
//!   query's component footprint ([`subscribe`]).
//!
//! # Quick start
//!
//! The primary API separates the *fixed* part of the paper's setting — the database,
//! its constraints and the priority, frozen into an immutable [`EngineSnapshot`] — from
//! the *repeated* part, the queries, which are parsed and classified once into
//! [`PreparedQuery`] values and executed many times. Work done per snapshot (conflict
//! graph, connected components, per-component preferred repairs, answers) is memoised
//! and shared, so repeated and overlapping executions are cheap.
//!
//! ```
//! use std::sync::Arc;
//! use pdqi_relation::{RelationSchema, RelationInstance, Value, ValueType};
//! use pdqi_constraints::FdSet;
//! use pdqi_core::{EngineBuilder, FamilyKind, PreparedQuery, Semantics};
//!
//! // The integrated manager instance of the paper's Example 1.
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
//! // Fixed once: the snapshot. Conflict graph and components are computed here.
//! let snapshot = EngineBuilder::new().relation(instance, fds).build().unwrap();
//! assert_eq!(snapshot.count_repairs(), 3);         // Example 2
//!
//! // Prepared once, executed as often as needed.
//! let q1 = PreparedQuery::parse(
//!     "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 < s2",
//! ).unwrap();
//! let answer = q1.consistent_answer(&snapshot, FamilyKind::Rep).unwrap();
//! assert!(!answer.certainly_true);                 // true is NOT a consistent answer to Q1
//!
//! // Open queries stream their answers.
//! let managers = PreparedQuery::parse("EXISTS d,s,r . Mgr(x,d,s,r)").unwrap();
//! let certain = managers.execute(&snapshot, FamilyKind::Rep, Semantics::Certain).unwrap();
//! assert_eq!(certain.count(), 2);                  // Mary and John manage in every repair
//!
//! // Preferences revise cheaply: only affected components are recomputed.
//! use pdqi_core::{Change, Parallelism};
//! let priority = snapshot.context().priority_from_pairs(&[]).unwrap();
//! let change = Change::Priority { relation: "Mgr".to_string(), priority };
//! let (revised, report) = snapshot.derive(&change, Parallelism::sequential()).unwrap();
//! assert_eq!(revised.count_repairs(), 3);
//! assert_eq!(report.recomputed_entries, 0);        // the empty priority changed nothing
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod change;
pub mod clean;
pub mod cqa;
pub mod cqa_ground;
pub mod families;
pub mod hyper;
pub mod optimality;
pub mod parallel;
pub mod prepared;
pub mod properties;
pub mod registry;
pub mod repair;
pub mod shard_plan;
pub mod snapshot;
pub mod subscribe;
pub mod window;

pub use change::{Change, ChangeError, ChangeReport, Mutation};
pub use clean::{clean_with_total_priority, CleaningError};
pub use cqa::{preferred_consistent_answer, CqaOutcome};
pub use families::{
    AllRepairs, CommonOptimal, FamilyKind, GlobalOptimal, LocalOptimal, RepairFamily,
    SemiGlobalOptimal,
};
pub use hyper::HyperRepairContext;
pub use optimality::{
    is_globally_optimal, is_locally_optimal, is_semi_globally_optimal, preferred_over,
};
pub use parallel::{BatchExecutor, BatchRequest, BatchResponse, Parallelism, MAX_THREADS};
pub use pdqi_query::{force_naive_plan, naive_plan_forced, plan_stats, PhysicalPlan, PlanStats};
pub use prepared::{AnswerSet, ClosedProfile, PreparedQuery, Semantics};
pub use registry::{
    ChangeScope, RegistryStats, ReviseError, SnapshotLease, SnapshotRegistry, SwapEvent,
    SwapObserver, TableStats,
};
pub use repair::RepairContext;
pub use shard_plan::{RouteSpec, ShardPlan, ShardPlanError};
pub use snapshot::{BuildError, EngineBuilder, EngineSnapshot, MemoStats};
pub use subscribe::{
    AnswerDelta, SubscribeError, SubscribeOptions, SubscribeStats, Subscribed, SubscriptionEvent,
    SubscriptionInfo, SubscriptionManager,
};
pub use window::{
    ReportStrategy, WindowStats, WriteCoalescer, WriteError, WriteFrame, WriteOutcome, WriteStats,
    MAX_COALESCED_BATCH,
};
