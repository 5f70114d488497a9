//! Catalog and statement execution.
//!
//! [`Session`] is a thin view over a shared serving core: it owns the table *catalog*
//! (schemas, rows, FDs, preferences) but the snapshots themselves live in a
//! [`SnapshotRegistry`] — one atomically-swappable [`Arc<EngineSnapshot>`] per table.
//! Several sessions constructed with [`Session::with_registry`] serve **one snapshot
//! set**: a table published by any of them is readable by all, and a revision swapped
//! into the registry (for example by the `pdqi-server` front end) is what every later
//! `SELECT … WITH REPAIRS` answers against.
//!
//! Two cache layers keep repeated statements cheap, both flowing through the
//! `pdqi-core` prepared-query pipeline:
//!
//! * the registry's per-table snapshot, built on first use. `INSERT`, `DELETE`,
//!   `ALTER TABLE … ADD FD` and `PREFER` publish **delta-derived** replacements by
//!   committing a [`Change`] through [`SnapshotRegistry::commit`] — only the conflict
//!   components the change touches are re-partitioned and re-enumerated, everything
//!   else (including the memo) carries over. `PREFER` statements **coalesce**:
//!   consecutive preferences on one table batch into a single priority change + swap
//!   at the next read, mirroring how `MUTATE` batches rows. Every commit is a registry
//!   compare-and-swap on the generation this session last wrote, falling back to a
//!   rebuild only when another writer got between this session and the registry (see
//!   [`Session::schema_delta_stats`] for the accounting). Repeated `SELECT`s against
//!   an unchanged table share the snapshot's component and answer memos, across every
//!   session on the registry;
//! * a per-statement-text [`PreparedQuery`], so re-executing the same `SELECT` skips
//!   SQL-to-formula planning entirely. Prepared statements survive table mutations and
//!   FD additions — they depend only on the relation's column shape, which the current
//!   SQL surface never alters (FDs constrain rows, they do not reshape them).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

use pdqi_constraints::{FdSet, FunctionalDependency};
use pdqi_core::{
    Change, EngineBuilder, EngineSnapshot, Mutation, Parallelism, PreparedQuery, ReviseError,
    Semantics, SnapshotLease, SnapshotRegistry, SubscribeOptions, Subscribed, SubscriptionEvent,
    SubscriptionInfo, SubscriptionManager, WindowStats,
};
use pdqi_query::builder::{and_all, atom, exists, var};
use pdqi_query::{Evaluator, Formula, Term};
use pdqi_relation::{RelationInstance, RelationSchema, Value, ValueType};

use crate::parser::{
    parse_statement, ColumnType, ConditionRhs, SelectStatement, SqlParseError, Statement,
};

/// Errors raised while executing SQL statements.
#[derive(Debug)]
pub enum SqlError {
    /// The statement could not be parsed.
    Parse(SqlParseError),
    /// The statement refers to an unknown table.
    UnknownTable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// The statement refers to an unknown column.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A row, FD or preference did not fit the table's schema.
    Schema(String),
    /// A query could not be evaluated.
    Query(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            SqlError::TableExists(t) => write!(f, "table `{t}` already exists"),
            SqlError::UnknownColumn { table, column } => {
                write!(f, "table `{table}` has no column `{column}`")
            }
            SqlError::Schema(message) | SqlError::Query(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<SqlParseError> for SqlError {
    fn from(e: SqlParseError) -> Self {
        SqlError::Parse(e)
    }
}

/// A query result: column headers plus rows of values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Column headers (the projected columns).
    pub columns: Vec<String>,
    /// Result rows, sorted and de-duplicated.
    pub rows: Vec<Vec<Value>>,
}

/// The outcome of executing one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementOutcome {
    /// A table was created.
    Created,
    /// A functional dependency was recorded.
    FdAdded,
    /// Rows were inserted (duplicates collapse under set semantics).
    Inserted(usize),
    /// Tuples were removed (the count is distinct stored tuples actually deleted).
    Deleted(usize),
    /// A preference was recorded.
    PreferenceAdded,
    /// A query produced rows.
    Rows(QueryResult),
    /// An `EXPLAIN` produced a plan report: the costed physical plan the planner
    /// chose (or the naive marker when planning is disabled), followed by the
    /// post-execution actuals.
    Plan(String),
}

#[derive(Debug, Clone)]
struct Table {
    schema: Arc<RelationSchema>,
    rows: Vec<Vec<Value>>,
    fds: Vec<String>,
    preferences: Vec<(Vec<Value>, Vec<Value>)>,
}

/// Cap on cached `SELECT` plans per session (cleared wholesale when exceeded).
const PREPARED_CACHE_LIMIT: usize = 1024;

/// A `SELECT` planned once: the projected columns and the prepared formula.
#[derive(Debug, Clone)]
struct PreparedSelect {
    projected: Vec<String>,
    query: Arc<PreparedQuery>,
}

/// Schema/constraint delta accounting for one session: how many `ALTER TABLE … ADD FD`
/// and `PREFER` statements were applied as registry **deltas** (a derived snapshot
/// compare-and-swapped into the slot) versus falling back to full rebuilds, and how
/// effectively consecutive `PREFER`s coalesced into shared swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchemaDeltaStats {
    /// `ALTER TABLE … ADD FD` statements applied as a [`Change::AddFd`] commit.
    pub fds_delta: u64,
    /// `ALTER TABLE … ADD FD` statements that fell back to the mark-stale/rebuild path.
    pub fds_rebuild: u64,
    /// Coalesced `PREFER` flushes applied as priority-revalidation derivations — one
    /// swap per table per read boundary, however many statements were batched into it.
    pub prefers_delta: u64,
    /// `PREFER` statements whose installation fell back to the rebuild path.
    pub prefers_rebuild: u64,
    /// `PREFER` statements absorbed into delta flushes. Always `≥ prefers_delta`; the
    /// gap is statements that shared a swap with an earlier queued preference.
    pub prefers_coalesced: u64,
}

/// An interactive session: a catalog of tables, their constraints, their data and the
/// preferences accumulated so far, serving snapshots out of a (possibly shared)
/// [`SnapshotRegistry`] as described in the [module docs](self).
#[derive(Debug)]
pub struct Session {
    tables: BTreeMap<String, Table>,
    /// The serving core: per-table snapshots, shared with every other session (and
    /// server) constructed over the same registry.
    registry: Arc<SnapshotRegistry>,
    /// Tables whose published snapshot no longer reflects this session's catalog; the
    /// next snapshot read rebuilds and re-publishes through the registry. Every
    /// catalog-changing statement avoids this path when the registry still serves the
    /// snapshot this session last wrote: `INSERT`/`DELETE` apply **as mutation
    /// deltas** (see [`SnapshotRegistry::commit`]), `ALTER TABLE … ADD FD` as a
    /// schema delta, and queued `PREFER`s as one coalesced priority derivation.
    stale: BTreeSet<String>,
    /// Per-table count of `PREFER` statements recorded in the catalog but not yet
    /// installed into the served snapshot; they flush as **one** coalesced
    /// priority-change swap right before the next snapshot read.
    pending_prefers: BTreeMap<String, u64>,
    /// Delta-vs-rebuild accounting for `ALTER`/`PREFER` (see [`SchemaDeltaStats`]).
    schema_stats: SchemaDeltaStats,
    /// The registry generation of this session's last write per table. A delta only
    /// applies when the current generation still matches — another writer having
    /// swapped the slot since means the served snapshot no longer corresponds to this
    /// session's rows, so the mutation falls back to the rebuild path.
    published_gen: BTreeMap<String, u64>,
    /// Per-statement-text prepared `SELECT`s.
    prepared: HashMap<String, PreparedSelect>,
    /// Worker threads used by repair-quantified `SELECT`s (sequential by default).
    parallelism: Parallelism,
    /// Continuous queries registered through [`Session::subscribe`]; created (and
    /// attached to the registry) on first use.
    subscriptions: Option<Arc<SubscriptionManager>>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates an empty session over its own private registry.
    pub fn new() -> Self {
        Session::with_registry(SnapshotRegistry::shared())
    }

    /// Creates an empty session serving snapshots out of `registry`. Sessions sharing a
    /// registry share one snapshot set: publishes and revisions made by any of them
    /// (or by a server front end over the same registry) are visible to all.
    pub fn with_registry(registry: Arc<SnapshotRegistry>) -> Self {
        Session {
            tables: BTreeMap::new(),
            registry,
            stale: BTreeSet::new(),
            pending_prefers: BTreeMap::new(),
            schema_stats: SchemaDeltaStats::default(),
            published_gen: BTreeMap::new(),
            prepared: HashMap::new(),
            parallelism: Parallelism::default(),
            subscriptions: None,
        }
    }

    /// The registry this session serves snapshots from.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// Sets the degree of parallelism used by `SELECT … WITH REPAIRS` statements **and**
    /// by snapshot builds (the sharded builder fans conflict-graph shards across the
    /// same pool). Parallel execution and parallel builds are bit-identical to their
    /// sequential counterparts; this only trades threads for latency on large tables
    /// and repair spaces.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The degree of parallelism repair-quantified `SELECT`s and snapshot builds run
    /// with.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Parses and executes one statement.
    pub fn execute(&mut self, sql: &str) -> Result<StatementOutcome, SqlError> {
        let statement = parse_statement(sql)?;
        if let Statement::Select(select) = statement {
            return self.select(sql.trim(), &select);
        }
        if let Statement::Explain(select) = statement {
            // Strip the leading `EXPLAIN` keyword so the underlying SELECT shares
            // its prepared-statement cache entry (and engine fingerprint) with
            // direct executions of the same statement.
            let inner = sql.trim()["EXPLAIN".len()..].trim_start();
            return self.explain(inner, &select);
        }
        self.run(statement)
    }

    /// Executes a sequence of `;`-separated statements, returning the outcome of each.
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<StatementOutcome>, SqlError> {
        script
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty() && !s.starts_with("--"))
            .map(|statement| self.execute(statement))
            .collect()
    }

    fn run(&mut self, statement: Statement) -> Result<StatementOutcome, SqlError> {
        match statement {
            Statement::CreateTable { name, columns } => {
                if self.tables.contains_key(&name) {
                    return Err(SqlError::TableExists(name));
                }
                let defs: Vec<(&str, ValueType)> = columns
                    .iter()
                    .map(|(column, ty)| {
                        (
                            column.as_str(),
                            match ty {
                                ColumnType::Int => ValueType::Int,
                                ColumnType::Text => ValueType::Name,
                            },
                        )
                    })
                    .collect();
                let schema = RelationSchema::from_pairs(&name, &defs)
                    .map_err(|e| SqlError::Schema(e.to_string()))?;
                // Mark the new table stale: a shared registry may already serve a
                // same-named snapshot published by a sibling session, which must not
                // shadow the (empty) table this session just defined.
                self.stale.insert(name.clone());
                self.pending_prefers.remove(&name);
                self.tables.insert(
                    name,
                    Table {
                        schema: Arc::new(schema),
                        rows: Vec::new(),
                        fds: Vec::new(),
                        preferences: Vec::new(),
                    },
                );
                Ok(StatementOutcome::Created)
            }
            Statement::AddFd { table, fd } => {
                let entry = self.table_mut(&table)?;
                // Validate the FD against the schema before recording it.
                let parsed = FunctionalDependency::parse(&entry.schema, &fd)
                    .map_err(|e| SqlError::Schema(e.to_string()))?;
                entry.fds.push(fd);
                self.add_fd_or_mark_stale(&table, parsed);
                Ok(StatementOutcome::FdAdded)
            }
            Statement::Insert { table, rows } => {
                let entry = self.table_mut(&table)?;
                let count = rows.len();
                for row in &rows {
                    entry.schema.tuple(row.clone()).map_err(|e| SqlError::Schema(e.to_string()))?;
                }
                entry.rows.extend(rows.clone());
                self.apply_or_mark_stale(&table, Mutation::new().insert_rows(&table, rows));
                Ok(StatementOutcome::Inserted(count))
            }
            Statement::Delete { table, rows } => {
                let entry = self.table_mut(&table)?;
                // Validate and de-duplicate the targets once; tuple validation
                // normalises nothing beyond type checks, so stored rows (validated at
                // INSERT) compare against target values directly — the catalog is
                // walked exactly once, with no per-row conversion.
                let mut targets: Vec<Vec<Value>> = Vec::new();
                for row in &rows {
                    entry.schema.tuple(row.clone()).map_err(|e| SqlError::Schema(e.to_string()))?;
                    if !targets.contains(row) {
                        targets.push(row.clone());
                    }
                }
                // Drop every matching raw row, counting distinct stored tuples
                // actually removed (set semantics: duplicate raw rows of one tuple
                // count once).
                let mut matched = vec![false; targets.len()];
                entry.rows.retain(|row| match targets.iter().position(|t| t == row) {
                    Some(index) => {
                        matched[index] = true;
                        false
                    }
                    None => true,
                });
                let removed = matched.into_iter().filter(|&m| m).count();
                // Preferences relating a deleted tuple die with it — a rebuild would
                // otherwise fail to resolve them, and the delta path drops exactly the
                // priority edges incident to deleted tuples.
                entry.preferences.retain(|(winner, loser)| {
                    !targets.contains(winner) && !targets.contains(loser)
                });
                self.apply_or_mark_stale(&table, Mutation::new().delete_rows(&table, rows));
                Ok(StatementOutcome::Deleted(removed))
            }
            Statement::Prefer { table, winner, loser } => {
                // Both tuples must already be stored: a preference relates existing tuples.
                let instance = self.instance(&table)?;
                let entry = self.table_mut(&table)?;
                for row in [&winner, &loser] {
                    let tuple = entry
                        .schema
                        .tuple(row.clone())
                        .map_err(|e| SqlError::Schema(e.to_string()))?;
                    if !instance.contains_tuple(&tuple) {
                        return Err(SqlError::Schema(format!(
                            "PREFER references tuple {tuple}, which is not stored in `{table}`"
                        )));
                    }
                }
                entry.preferences.push((winner, loser));
                self.queue_prefer(&table);
                Ok(StatementOutcome::PreferenceAdded)
            }
            Statement::Select(_) | Statement::Explain(_) => {
                unreachable!("SELECT/EXPLAIN statements are routed through Session::execute")
            }
        }
    }

    fn table(&self, name: &str) -> Result<&Table, SqlError> {
        self.tables.get(name).ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// The names of the tables defined so far, in lexicographic order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Number of distinct `SELECT` statements planned so far (observability for the
    /// prepared-statement cache).
    pub fn prepared_statement_count(&self) -> usize {
        self.prepared.len()
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        self.tables.get_mut(name).ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// The instance currently stored for `table` (validated rows, set semantics).
    pub fn instance(&self, table: &str) -> Result<RelationInstance, SqlError> {
        let entry = self.table(table)?;
        RelationInstance::from_rows(Arc::clone(&entry.schema), entry.rows.clone())
            .map_err(|e| SqlError::Schema(e.to_string()))
    }

    /// The functional dependencies declared for `table`.
    pub fn fds(&self, table: &str) -> Result<FdSet, SqlError> {
        let entry = self.table(table)?;
        let texts: Vec<&str> = entry.fds.iter().map(String::as_str).collect();
        FdSet::parse(Arc::clone(&entry.schema), &texts).map_err(|e| SqlError::Schema(e.to_string()))
    }

    /// Builds the engine snapshot for `table` from the stored rows, FDs and preferences
    /// (no caching; prefer [`Session::snapshot`]).
    fn build_snapshot(&self, table: &str) -> Result<EngineSnapshot, SqlError> {
        let entry = self.table(table)?;
        let instance = self.instance(table)?;
        let fds = self.fds(table)?;
        let mut pairs = Vec::new();
        for (winner, loser) in &entry.preferences {
            let winner_tuple =
                entry.schema.tuple(winner.clone()).map_err(|e| SqlError::Schema(e.to_string()))?;
            let loser_tuple =
                entry.schema.tuple(loser.clone()).map_err(|e| SqlError::Schema(e.to_string()))?;
            let (Some(w), Some(l)) = (instance.id_of(&winner_tuple), instance.id_of(&loser_tuple))
            else {
                return Err(SqlError::Schema(
                    "PREFER statements must reference inserted tuples".to_string(),
                ));
            };
            pairs.push((w, l));
        }
        EngineBuilder::new()
            .relation(instance, fds)
            .priority_pairs(&pairs)
            // Builds fan conflict-graph shards out over the session's workers; the
            // snapshot is bit-identical to a sequential build.
            .parallelism(self.parallelism)
            .build()
            .map_err(|e| SqlError::Schema(format!("preference cannot be installed: {e}")))
    }

    /// The engine snapshot for `table`: the registry's current snapshot, pinned behind
    /// an [`Arc`] (no copies — every caller shares the snapshot and its memo).
    ///
    /// Built and published through the registry on first use; a statement that changes
    /// the table either swaps a delta-derived replacement into the registry right away
    /// (`INSERT`/`DELETE`/`ALTER`), queues for a coalesced swap at this read
    /// (`PREFER`), or marks the table stale so this read rebuilds and re-publishes.
    /// Tables this session never defined are still served when another session (or a
    /// server) published them into the shared registry.
    pub fn snapshot(&mut self, table: &str) -> Result<Arc<EngineSnapshot>, SqlError> {
        self.snapshot_lease(table).map(SnapshotLease::into_snapshot)
    }

    /// [`Session::snapshot`] plus the registry generation the snapshot was published
    /// under (monotone per table — useful for observing revision swaps).
    pub fn snapshot_lease(&mut self, table: &str) -> Result<SnapshotLease, SqlError> {
        if self.tables.contains_key(table) {
            self.publish_if_stale(table)?;
            // A racing `SnapshotRegistry::remove` on a shared registry can still take
            // the slot away between the publish and this read; surface it as an
            // unknown table rather than panicking inside library code.
            return self.registry.read(table).ok_or_else(|| {
                SqlError::UnknownTable(format!("{table} (removed from the shared registry)"))
            });
        }
        // Not in this session's catalog: serve it if a sibling session or server
        // published it into the shared registry.
        self.registry.read(table).ok_or_else(|| SqlError::UnknownTable(table.to_string()))
    }

    /// Builds and publishes `table`'s snapshot when this session mutated it since the
    /// last publish (or the registry does not serve it yet). Returns whether a publish
    /// happened. The single site of the build → publish → stale-clear sequence.
    fn publish_if_stale(&mut self, table: &str) -> Result<bool, SqlError> {
        // Queued PREFERs install first — as one coalesced priority derivation when the
        // delta path is available, otherwise by folding into the rebuild below.
        self.flush_pending_prefers(table)?;
        if !self.stale.contains(table) && self.registry.contains(table) {
            return Ok(false);
        }
        let snapshot = self.build_snapshot(table)?;
        let generation = self.registry.publish(table, snapshot);
        self.published_gen.insert(table.to_string(), generation);
        self.stale.remove(table);
        Ok(true)
    }

    /// Routes `ALTER TABLE … ADD FD` through the registry **as a schema delta** when
    /// the served snapshot is still the one this session last wrote: the published
    /// replacement scans for new conflict edges only inside the added FD's LHS groups
    /// and re-partitions only the components those edges touch. Like the
    /// `INSERT`/`DELETE` delta path, it commits against the expected generation;
    /// interference from another writer (or a delta error) falls back to mark-stale +
    /// rebuild.
    fn add_fd_or_mark_stale(&mut self, table: &str, fd: FunctionalDependency) {
        if !self.stale.contains(table) {
            if let Some(&expected) = self.published_gen.get(table) {
                let change = Change::AddFd { relation: table.to_string(), fd };
                if let Some(generation) = self.commit(table, expected, change) {
                    self.published_gen.insert(table.to_string(), generation);
                    self.schema_stats.fds_delta += 1;
                    return;
                }
            }
        }
        self.stale.insert(table.to_string());
        self.schema_stats.fds_rebuild += 1;
    }

    /// Records a `PREFER` for installation at the next read boundary. Preferences on a
    /// table whose served snapshot this session last wrote queue up and later flush as
    /// **one** coalesced swap ([`Session::flush_pending_prefers`]); anything else goes
    /// through the mark-stale/rebuild path directly.
    fn queue_prefer(&mut self, table: &str) {
        if !self.stale.contains(table) && self.published_gen.contains_key(table) {
            *self.pending_prefers.entry(table.to_string()).or_insert(0) += 1;
        } else {
            self.stale.insert(table.to_string());
            self.schema_stats.prefers_rebuild += 1;
        }
    }

    /// Installs every queued `PREFER` on `table` as **one** priority change + registry
    /// swap — the coalescing described in the [module
    /// docs](self). Runs right before any snapshot read of the table. A generation
    /// conflict (another writer swapped the slot since this session last wrote) falls
    /// back to the mark-stale/rebuild path; an installation error (for example a
    /// cyclic preference) also marks the table stale, so later reads keep surfacing
    /// the error through the rebuild until the catalog is fixed.
    fn flush_pending_prefers(&mut self, table: &str) -> Result<(), SqlError> {
        let Some(batched) = self.pending_prefers.remove(table) else {
            return Ok(());
        };
        if self.stale.contains(table) {
            // A later statement already forced a rebuild; it installs the whole
            // catalog, queued preferences included.
            self.schema_stats.prefers_rebuild += batched;
            return Ok(());
        }
        let Some(&expected) = self.published_gen.get(table) else {
            self.stale.insert(table.to_string());
            self.schema_stats.prefers_rebuild += batched;
            return Ok(());
        };
        let entry = self.table(table)?;
        let schema = Arc::clone(&entry.schema);
        let preferences = entry.preferences.clone();
        let name = table.to_string();
        let applied = self.registry.commit(table, Some(expected), self.parallelism, |base| {
            let ctx = base.context_of(&name).ok_or_else(|| SqlError::UnknownTable(name.clone()))?;
            let instance = ctx.instance();
            // Resolve the *whole* catalog preference list against the served
            // instance: the replacement priority carries every preference, old and
            // queued, so the result matches a fresh build exactly.
            let mut pairs = Vec::new();
            for (winner, loser) in &preferences {
                let winner_tuple =
                    schema.tuple(winner.clone()).map_err(|e| SqlError::Schema(e.to_string()))?;
                let loser_tuple =
                    schema.tuple(loser.clone()).map_err(|e| SqlError::Schema(e.to_string()))?;
                let (Some(w), Some(l)) =
                    (instance.id_of(&winner_tuple), instance.id_of(&loser_tuple))
                else {
                    return Err(SqlError::Schema(
                        "PREFER statements must reference inserted tuples".to_string(),
                    ));
                };
                pairs.push((w, l));
            }
            let priority = ctx
                .priority_from_pairs(&pairs)
                .map_err(|e| SqlError::Schema(format!("preference cannot be installed: {e}")))?;
            Ok(Change::Priority { relation: name.clone(), priority })
        });
        let error = match applied {
            Ok((generation, _)) => {
                self.published_gen.insert(table.to_string(), generation);
                self.schema_stats.prefers_delta += 1;
                self.schema_stats.prefers_coalesced += batched;
                return Ok(());
            }
            Err(error) => error,
        };
        self.stale.insert(table.to_string());
        self.schema_stats.prefers_rebuild += batched;
        match error {
            ReviseError::UnknownTable(_) | ReviseError::Conflict { .. } => Ok(()),
            ReviseError::Build(e) => Err(e),
            other => Err(SqlError::Schema(format!("preference cannot be installed: {other}"))),
        }
    }

    /// The delta-vs-rebuild accounting for this session's `ALTER TABLE … ADD FD` and
    /// `PREFER` statements (see [`SchemaDeltaStats`]). Counters only ever grow.
    pub fn schema_delta_stats(&self) -> SchemaDeltaStats {
        self.schema_stats
    }

    /// Routes an `INSERT`/`DELETE` through the registry **as a delta** when the served
    /// snapshot is still the one this session last wrote (the common single-writer
    /// case): the published replacement re-partitions only the affected conflict
    /// components and carries every untouched memo entry — no rebuild, no staleness.
    /// The generation check runs under the registry's per-table revision lock
    /// ([`SnapshotRegistry::commit`] with an expected generation), so a racing writer
    /// can never slip between the check and the swap: if anyone else published since
    /// this session last wrote, the delta is refused and the mutation falls back to
    /// the mark-stale path (the next read rebuilds from this session's catalog).
    fn apply_or_mark_stale(&mut self, table: &str, mutation: Mutation) {
        if !self.stale.contains(table) {
            if let Some(&expected) = self.published_gen.get(table) {
                if let Some(generation) = self.commit(table, expected, Change::Mutation(mutation)) {
                    self.published_gen.insert(table.to_string(), generation);
                    return;
                }
            }
        }
        self.stale.insert(table.to_string());
    }

    /// Commits a ready-made `change` to `table` if its generation is still `expected`,
    /// returning the new generation.
    fn commit(&self, table: &str, expected: u64, change: Change) -> Option<u64> {
        let change = |_: &EngineSnapshot| Ok::<_, Infallible>(change);
        let committed = self.registry.commit(table, Some(expected), self.parallelism, change);
        committed.ok().map(|(generation, _)| generation)
    }

    /// Builds and publishes every catalog table that is stale or unpublished, returning
    /// the number of snapshots published. Servers call this once after loading a script
    /// so the registry serves every table before the first request arrives.
    pub fn publish_tables(&mut self) -> Result<usize, SqlError> {
        let names: Vec<String> = self.tables.keys().cloned().collect();
        let mut published = 0;
        for table in names {
            if self.publish_if_stale(&table)? {
                published += 1;
            }
        }
        Ok(published)
    }

    /// The continuous-query manager this session registers subscriptions with,
    /// created (with the session's parallelism) and attached to the registry on
    /// first use. Sessions sharing a registry each attach their own manager; every
    /// manager observes every swap.
    pub fn subscription_manager(&mut self) -> Arc<SubscriptionManager> {
        if let Some(manager) = &self.subscriptions {
            return Arc::clone(manager);
        }
        let manager = SubscriptionManager::new(self.parallelism);
        manager.attach(&self.registry);
        self.subscriptions = Some(Arc::clone(&manager));
        manager
    }

    /// Registers a repair-quantified `SELECT … WITH REPAIRS <family>` as a continuous
    /// query: the statement is planned through the ordinary prepared-`SELECT` path,
    /// its table is published if this session holds it, and later generation swaps
    /// arrive as [`SubscriptionEvent`]s through [`Session::drain_subscription_events`].
    /// Returns the subscription id plus the initial full answer the deltas build on.
    pub fn subscribe(&mut self, sql: &str, semantics: Semantics) -> Result<Subscribed, SqlError> {
        self.subscribe_with(sql, semantics, SubscribeOptions::default())
    }

    /// [`Session::subscribe`] with an explicit report strategy and push-queue bound:
    /// `options.strategy` picks per-generation, coalesced or windowed delivery and
    /// `options.queue_capacity` overrides the manager's per-subscription queue bound.
    pub fn subscribe_with(
        &mut self,
        sql: &str,
        semantics: Semantics,
        options: SubscribeOptions,
    ) -> Result<Subscribed, SqlError> {
        let Statement::Select(select) = parse_statement(sql)? else {
            return Err(SqlError::Query("only SELECT statements can be subscribed".to_string()));
        };
        let Some(family) = select.repairs else {
            return Err(SqlError::Query(
                "subscriptions quantify over repairs; add WITH REPAIRS <family>".to_string(),
            ));
        };
        // Publish the table first so the registry serves a slot to register against.
        self.snapshot(&select.table)?;
        let prepared = self.prepare_select(sql.trim(), &select)?;
        let manager = self.subscription_manager();
        let mut subscribed = manager
            .subscribe_with(&self.registry, Arc::clone(&prepared.query), family, semantics, options)
            .map_err(|e| SqlError::Query(e.to_string()))?;
        // The engine reports free-variable names (`v_<Column>`); surface the SQL
        // column names instead.
        for column in &mut subscribed.columns {
            if let Some(stripped) = column.strip_prefix("v_") {
                *column = stripped.to_string();
            }
        }
        Ok(subscribed)
    }

    /// Drops a subscription registered through [`Session::subscribe`]. Returns whether
    /// it existed.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        self.subscriptions.as_ref().is_some_and(|manager| manager.unsubscribe(id))
    }

    /// The subscriptions this session registered, with their current positions.
    pub fn subscriptions(&self) -> Vec<SubscriptionInfo> {
        self.subscriptions.as_ref().map_or_else(Vec::new, |manager| manager.list())
    }

    /// Report-strategy counters across this session's subscriptions (all zero until
    /// a coalesced or windowed subscription exists).
    pub fn window_stats(&self) -> WindowStats {
        self.subscriptions.as_ref().map_or_else(WindowStats::default, |m| m.window_stats())
    }

    /// Takes every queued event across this session's subscriptions, tagged with the
    /// subscription id (oldest first per subscription).
    pub fn drain_subscription_events(&mut self) -> Vec<(u64, SubscriptionEvent)> {
        let Some(manager) = self.subscriptions.as_ref().map(Arc::clone) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for info in manager.list() {
            for event in manager.drain(info.id) {
                events.push((info.id, event));
            }
        }
        events
    }

    /// Builds the open conjunctive query corresponding to a `SELECT`: one variable per
    /// column, the table atom, and the `WHERE` conditions as comparisons; non-projected
    /// columns are existentially quantified.
    fn select_query(
        &self,
        entry: &Table,
        select: &SelectStatement,
    ) -> Result<(Vec<String>, Formula), SqlError> {
        let all_columns: Vec<String> =
            entry.schema.attributes().iter().map(|a| a.name.clone()).collect();
        let projected: Vec<String> =
            if select.star { all_columns.clone() } else { select.columns.clone() };
        for column in projected.iter().chain(select.conditions.iter().map(|c| &c.column)) {
            if !all_columns.contains(column) {
                return Err(SqlError::UnknownColumn {
                    table: entry.schema.name().to_string(),
                    column: column.clone(),
                });
            }
        }
        let column_var = |column: &str| format!("v_{column}");
        let args: Vec<Term> = all_columns.iter().map(|c| var(&column_var(c)).clone()).collect();
        let mut conjuncts = vec![atom(entry.schema.name(), args)];
        for condition in &select.conditions {
            let rhs = match &condition.rhs {
                ConditionRhs::Column(column) => {
                    if !all_columns.contains(column) {
                        return Err(SqlError::UnknownColumn {
                            table: entry.schema.name().to_string(),
                            column: column.clone(),
                        });
                    }
                    var(&column_var(column))
                }
                ConditionRhs::Constant(value) => Term::Const(value.clone()),
            };
            conjuncts.push(Formula::Comparison(pdqi_query::Comparison {
                left: var(&column_var(&condition.column)),
                op: condition.op,
                right: rhs,
            }));
        }
        let body = and_all(conjuncts);
        // Existentially quantify the non-projected columns.
        let hidden: Vec<String> =
            all_columns.iter().filter(|c| !projected.contains(c)).map(|c| column_var(c)).collect();
        let formula = if hidden.is_empty() {
            body
        } else {
            let refs: Vec<&str> = hidden.iter().map(String::as_str).collect();
            exists(&refs, body)
        };
        Ok((projected, formula))
    }

    /// Plans the `SELECT` once per distinct statement text (projection + prepared
    /// formula), caching the plan for later executions.
    fn prepare_select(
        &mut self,
        sql_text: &str,
        select: &SelectStatement,
    ) -> Result<PreparedSelect, SqlError> {
        if let Some(prepared) = self.prepared.get(sql_text) {
            return Ok(prepared.clone());
        }
        let entry = self.table(&select.table)?;
        let (projected, formula) = self.select_query(entry, select)?;
        let prepared = PreparedSelect {
            projected,
            query: Arc::new(PreparedQuery::from_formula(formula).with_source(sql_text)),
        };
        // Bound the plan cache so sessions fed parameter-inlined statement streams
        // (`... WHERE Salary >= 10`, `>= 11`, ...) stay at a fixed footprint.
        if self.prepared.len() >= PREPARED_CACHE_LIMIT {
            self.prepared.clear();
        }
        self.prepared.insert(sql_text.to_string(), prepared.clone());
        Ok(prepared)
    }

    fn select(
        &mut self,
        sql_text: &str,
        select: &SelectStatement,
    ) -> Result<StatementOutcome, SqlError> {
        let PreparedSelect { projected, query } = self.prepare_select(sql_text, select)?;
        let rows = match select.repairs {
            None => {
                // Plain evaluation over the stored (possibly inconsistent) instance.
                let instance = self.instance(&select.table)?;
                let evaluator = Evaluator::with_relation(&instance);
                let answers = evaluator
                    .answers(query.formula())
                    .map_err(|e| SqlError::Query(e.to_string()))?;
                answers
                    .into_iter()
                    .map(|assignment| {
                        projected.iter().map(|c| assignment[&format!("v_{c}")].clone()).collect()
                    })
                    .collect::<Vec<Vec<Value>>>()
            }
            Some(kind) => {
                // Certain answers over the preferred repairs, through the snapshot's
                // memoised pipeline. The answer rows come back in lexicographic order of
                // the *variable names*; rebuild them in projection order through the
                // free-variable order of the formula.
                let snapshot = self.snapshot(&select.table)?;
                let answers = query
                    .execute_with(&snapshot, kind, Semantics::Certain, self.parallelism)
                    .map_err(|e| SqlError::Query(e.to_string()))?;
                let free = query.free_vars();
                answers
                    .map(|row| {
                        projected
                            .iter()
                            .map(|c| {
                                let variable = format!("v_{c}");
                                let index = free
                                    .iter()
                                    .position(|v| *v == variable)
                                    .expect("projected columns are free variables");
                                row[index].clone()
                            })
                            .collect()
                    })
                    .collect::<Vec<Vec<Value>>>()
            }
        };
        let mut rows = rows;
        rows.sort();
        rows.dedup();
        Ok(StatementOutcome::Rows(QueryResult { columns: projected, rows }))
    }

    /// Executes `EXPLAIN SELECT … WITH REPAIRS <family>`: renders the costed
    /// physical plan the Volcano-style planner picked for the statement (estimated
    /// cardinalities, join order, per-component strategies, eval path), executes it
    /// through the ordinary memoising pipeline, and appends the actual product size
    /// and row count. Plain `SELECT`s without a repair clause evaluate directly over
    /// the stored instance — there is nothing to plan — so they are rejected.
    fn explain(
        &mut self,
        sql_text: &str,
        select: &SelectStatement,
    ) -> Result<StatementOutcome, SqlError> {
        let Some(kind) = select.repairs else {
            return Err(SqlError::Query(
                "EXPLAIN covers repair-quantified SELECTs; add WITH REPAIRS <family>".to_string(),
            ));
        };
        let PreparedSelect { query, .. } = self.prepare_select(sql_text, select)?;
        let snapshot = self.snapshot(&select.table)?;
        let report = query
            .explain(&snapshot, kind, Semantics::Certain, self.parallelism)
            .map_err(|e| SqlError::Query(e.to_string()))?;
        Ok(StatementOutcome::Plan(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SETUP: &str = "\
        CREATE TABLE Mgr (Name TEXT, Dept TEXT, Salary INT, Reports INT);\
        ALTER TABLE Mgr ADD FD Dept -> Name Salary Reports;\
        ALTER TABLE Mgr ADD FD Name -> Dept Salary Reports;\
        INSERT INTO Mgr VALUES ('Mary', 'R&D', 40, 3), ('John', 'R&D', 10, 2);\
        INSERT INTO Mgr VALUES ('Mary', 'IT', 20, 1), ('John', 'PR', 30, 4);";

    fn session_with_example1() -> Session {
        let mut session = Session::new();
        session.execute_script(SETUP).unwrap();
        session
    }

    fn rows(outcome: StatementOutcome) -> QueryResult {
        match outcome {
            StatementOutcome::Rows(result) => result,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn ddl_dml_and_plain_select() {
        let mut session = session_with_example1();
        let result = rows(session.execute("SELECT Name FROM Mgr WHERE Dept = 'R&D'").unwrap());
        assert_eq!(result.columns, vec!["Name"]);
        assert_eq!(result.rows.len(), 2);
    }

    #[test]
    fn certain_answers_under_the_plain_repair_family() {
        let mut session = session_with_example1();
        // Which departments certainly have a manager? None without preferences.
        let result = rows(session.execute("SELECT Dept FROM Mgr WITH REPAIRS ALL").unwrap());
        assert!(result.rows.is_empty());
        // But every repair has some manager called Mary and some called John.
        let result = rows(session.execute("SELECT Name FROM Mgr WITH REPAIRS ALL").unwrap());
        assert_eq!(result.rows.len(), 2);
    }

    #[test]
    fn preferences_change_the_certain_answers() {
        let mut session = session_with_example1();
        // Example 3's reliability information as explicit tuple preferences.
        session.execute("PREFER ('Mary', 'R&D', 40, 3) OVER ('Mary', 'IT', 20, 1) IN Mgr").unwrap();
        session.execute("PREFER ('John', 'R&D', 10, 2) OVER ('John', 'PR', 30, 4) IN Mgr").unwrap();
        let result = rows(session.execute("SELECT Dept FROM Mgr WITH REPAIRS GLOBAL").unwrap());
        assert_eq!(result.rows, vec![vec![Value::name("R&D")]]);
        // The star projection and WHERE clauses compose with the repair clause.
        let result = rows(
            session.execute("SELECT * FROM Mgr WHERE Salary >= 10 WITH REPAIRS GLOBAL").unwrap(),
        );
        assert_eq!(result.columns.len(), 4);
        assert!(result.rows.is_empty());
    }

    #[test]
    fn errors_are_reported() {
        let mut session = session_with_example1();
        assert!(matches!(session.execute("SELECT Name FROM Nope"), Err(SqlError::UnknownTable(_))));
        assert!(matches!(
            session.execute("SELECT Bogus FROM Mgr"),
            Err(SqlError::UnknownColumn { .. })
        ));
        assert!(matches!(
            session.execute("INSERT INTO Mgr VALUES (1, 'x', 1, 1)"),
            Err(SqlError::Schema(_))
        ));
        assert!(matches!(
            session.execute("CREATE TABLE Mgr (A INT)"),
            Err(SqlError::TableExists(_))
        ));
        assert!(matches!(
            session.execute("PREFER ('Ghost','X',1,1) OVER ('Mary','IT',20,1) IN Mgr"),
            Err(SqlError::Schema(_))
        ));
        assert!(matches!(session.execute("SELECT FROM"), Err(SqlError::Parse(_))));
    }

    #[test]
    fn snapshot_and_metadata_accessors() {
        let mut session = session_with_example1();
        assert_eq!(session.instance("Mgr").unwrap().len(), 4);
        assert_eq!(session.fds("Mgr").unwrap().len(), 2);
        let snapshot = session.snapshot("Mgr").unwrap();
        assert_eq!(snapshot.count_repairs(), 3);
    }

    #[test]
    fn deletes_remove_tuples_their_preferences_and_their_answers() {
        let mut session = session_with_example1();
        session.execute("PREFER ('Mary','R&D',40,3) OVER ('Mary','IT',20,1) IN Mgr").unwrap();
        assert_eq!(session.snapshot("Mgr").unwrap().priority().edge_count(), 1);
        // Deleting the losing tuple removes it, its conflicts and the preference.
        let outcome = session.execute("DELETE FROM Mgr VALUES ('Mary','IT',20,1)").unwrap();
        assert_eq!(outcome, StatementOutcome::Deleted(1));
        let snapshot = session.snapshot("Mgr").unwrap();
        assert_eq!(snapshot.context().instance().len(), 3);
        assert_eq!(snapshot.priority().edge_count(), 0);
        assert_eq!(snapshot.count_repairs(), 2);
        // Deleting an absent row is a no-op.
        let outcome = session.execute("DELETE FROM Mgr VALUES ('Ghost','X',1,1)").unwrap();
        assert_eq!(outcome, StatementOutcome::Deleted(0));
        // And the certain answers reflect the smaller instance: the remaining tuples
        // form one conflict path Mary-R&D — John-R&D — John-PR whose repairs are
        // {Mary-R&D, John-PR} and {John-R&D}, so only John manages certainly.
        let result = rows(session.execute("SELECT Name FROM Mgr WITH REPAIRS ALL").unwrap());
        assert_eq!(result.rows, vec![vec![Value::name("John")]]);
    }

    #[test]
    fn mutations_apply_as_deltas_once_the_table_is_published() {
        let mut session = session_with_example1();
        // First read publishes generation 1.
        assert_eq!(session.snapshot_lease("Mgr").unwrap().generation(), 1);
        // A mutation on a published table applies as a delta: the generation bumps
        // immediately, without waiting for the next read to rebuild.
        session.execute("INSERT INTO Mgr VALUES ('Eve','HR',15,2)").unwrap();
        assert_eq!(session.registry().generation("Mgr"), 2);
        let lease = session.snapshot_lease("Mgr").unwrap();
        assert_eq!(lease.generation(), 2);
        assert_eq!(lease.snapshot().context().instance().len(), 5);
        // The delta-derived snapshot matches a from-scratch session bit for bit.
        let mut fresh = session_with_example1();
        fresh.execute("INSERT INTO Mgr VALUES ('Eve','HR',15,2)").unwrap();
        let rebuilt = fresh.snapshot("Mgr").unwrap();
        assert_eq!(lease.snapshot().graph().edges(), rebuilt.graph().edges());
        assert_eq!(lease.snapshot().shards_of("Mgr"), rebuilt.shards_of("Mgr"));
        assert_eq!(lease.snapshot().count_repairs(), rebuilt.count_repairs());
        // DELETE applies as a delta too.
        session.execute("DELETE FROM Mgr VALUES ('Eve','HR',15,2)").unwrap();
        assert_eq!(session.registry().generation("Mgr"), 3);
        assert_eq!(session.snapshot("Mgr").unwrap().context().instance().len(), 4);
    }

    #[test]
    fn mutations_fall_back_to_rebuilds_when_another_writer_interferes() {
        let registry = pdqi_core::SnapshotRegistry::shared();
        let mut writer = Session::with_registry(Arc::clone(&registry));
        writer.execute_script(SETUP).unwrap();
        writer.snapshot("Mgr").unwrap();
        // A sibling session re-publishes the table: the writer's recorded generation
        // is now behind, so its next mutation must not delta against foreign state.
        let mut sibling = Session::with_registry(Arc::clone(&registry));
        sibling.execute_script(SETUP).unwrap();
        sibling.snapshot("Mgr").unwrap();
        writer.execute("INSERT INTO Mgr VALUES ('Eve','HR',15,2)").unwrap();
        // The insert fell back to mark-stale; the next read rebuilds and re-publishes.
        let snapshot = writer.snapshot("Mgr").unwrap();
        assert_eq!(snapshot.context().instance().len(), 5);
    }

    #[test]
    fn snapshots_are_cached_until_the_table_changes() {
        let mut session = session_with_example1();
        let first = session.snapshot("Mgr").unwrap();
        let second = session.snapshot("Mgr").unwrap();
        // Same snapshot object (shared memo), not a rebuild.
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        assert_eq!(session.snapshot_lease("Mgr").unwrap().generation(), 1);
        session.execute("INSERT INTO Mgr VALUES ('Eve', 'HR', 15, 2)").unwrap();
        let third = session.snapshot("Mgr").unwrap();
        assert_eq!(third.context().instance().len(), 5);
        session.execute("PREFER ('Mary','R&D',40,3) OVER ('Mary','IT',20,1) IN Mgr").unwrap();
        let fourth = session.snapshot_lease("Mgr").unwrap();
        assert_eq!(fourth.snapshot().priority().edge_count(), 1);
        // Each mutation bumped the published generation exactly once.
        assert_eq!(fourth.generation(), 3);
    }

    #[test]
    fn sessions_sharing_a_registry_serve_one_snapshot_set() {
        let registry = pdqi_core::SnapshotRegistry::shared();
        let mut writer = Session::with_registry(Arc::clone(&registry));
        writer.execute_script(SETUP).unwrap();
        let published = writer.snapshot("Mgr").unwrap();
        // A reader session that never defined the table serves the shared snapshot.
        let mut reader = Session::with_registry(Arc::clone(&registry));
        let shared = reader.snapshot("Mgr").unwrap();
        assert!(Arc::ptr_eq(&published, &shared));
        // A mutation in the writer re-publishes; the reader sees the new generation.
        writer.execute("INSERT INTO Mgr VALUES ('Eve', 'HR', 15, 2)").unwrap();
        writer.snapshot("Mgr").unwrap();
        assert_eq!(reader.snapshot("Mgr").unwrap().context().instance().len(), 5);
        // Tables nobody published are still unknown.
        assert!(matches!(reader.snapshot("Nope"), Err(SqlError::UnknownTable(_))));
        // A session defining its *own* table under a served name must not be shadowed
        // by the sibling's snapshot: CREATE TABLE marks the name stale, so the next
        // read publishes this session's (empty, differently-shaped) table.
        let mut third = Session::with_registry(Arc::clone(&registry));
        third.execute("CREATE TABLE Mgr (Id INT)").unwrap();
        let own = third.snapshot("Mgr").unwrap();
        assert_eq!(own.context().instance().len(), 0);
        assert_eq!(own.context().instance().schema().attributes().len(), 1);
    }

    #[test]
    fn publish_tables_publishes_the_whole_catalog_once() {
        let mut session = session_with_example1();
        session.execute("CREATE TABLE Clean (A INT, B INT)").unwrap();
        session.execute("INSERT INTO Clean VALUES (1, 2)").unwrap();
        assert_eq!(session.publish_tables().unwrap(), 2);
        assert_eq!(session.registry().table_names(), vec!["Clean", "Mgr"]);
        // Re-publishing without mutations is a no-op.
        assert_eq!(session.publish_tables().unwrap(), 0);
        // An insert into a published table applies as a delta and re-publishes
        // immediately, so there is nothing left for publish_tables to do.
        session.execute("INSERT INTO Clean VALUES (2, 3)").unwrap();
        assert_eq!(session.registry().generation("Clean"), 2);
        assert_eq!(session.publish_tables().unwrap(), 0);
        // An FD addition applies as a schema delta and re-publishes immediately too.
        session.execute("ALTER TABLE Clean ADD FD A -> B").unwrap();
        assert_eq!(session.registry().generation("Clean"), 3);
        assert_eq!(session.publish_tables().unwrap(), 0);
        assert_eq!(session.schema_delta_stats().fds_delta, 1);
    }

    #[test]
    fn consecutive_prefers_coalesce_into_one_swap() {
        let mut session = session_with_example1();
        assert_eq!(session.snapshot_lease("Mgr").unwrap().generation(), 1);
        // Three preferences, each a conflict edge of Example 1, queued back to back.
        session.execute("PREFER ('Mary','R&D',40,3) OVER ('Mary','IT',20,1) IN Mgr").unwrap();
        session.execute("PREFER ('John','R&D',10,2) OVER ('John','PR',30,4) IN Mgr").unwrap();
        session.execute("PREFER ('Mary','R&D',40,3) OVER ('John','R&D',10,2) IN Mgr").unwrap();
        // Nothing swapped yet; the flush happens at the read boundary, once.
        assert_eq!(session.registry().generation("Mgr"), 1);
        let lease = session.snapshot_lease("Mgr").unwrap();
        assert_eq!(lease.generation(), 2);
        assert_eq!(lease.snapshot().priority().edge_count(), 3);
        let stats = session.schema_delta_stats();
        assert_eq!(stats.prefers_delta, 1);
        assert_eq!(stats.prefers_coalesced, 3);
        assert_eq!(stats.prefers_rebuild, 0);
        // The coalesced delta matches a from-scratch build of the same catalog.
        let mut fresh = session_with_example1();
        fresh.execute("PREFER ('Mary','R&D',40,3) OVER ('Mary','IT',20,1) IN Mgr").unwrap();
        fresh.execute("PREFER ('John','R&D',10,2) OVER ('John','PR',30,4) IN Mgr").unwrap();
        fresh.execute("PREFER ('Mary','R&D',40,3) OVER ('John','R&D',10,2) IN Mgr").unwrap();
        let rebuilt = fresh.snapshot("Mgr").unwrap();
        assert_eq!(lease.snapshot().count_repairs(), rebuilt.count_repairs());
        let statement = "SELECT Dept FROM Mgr WITH REPAIRS GLOBAL";
        assert_eq!(
            rows(session.execute(statement).unwrap()),
            rows(fresh.execute(statement).unwrap())
        );
    }

    #[test]
    fn fd_additions_apply_as_schema_deltas_end_to_end() {
        let mut session = session_with_example1();
        let before = session.snapshot("Mgr").unwrap();
        // Salaries are pairwise distinct, so this FD adds no edge: the delta shares
        // the parent's conflict graph outright and still bumps the generation.
        session.execute("ALTER TABLE Mgr ADD FD Salary -> Dept").unwrap();
        assert_eq!(session.registry().generation("Mgr"), 2);
        let lease = session.snapshot_lease("Mgr").unwrap();
        assert!(Arc::ptr_eq(lease.snapshot().graph(), before.graph()));
        assert_eq!(lease.snapshot().context().fds().len(), 3);
        assert_eq!(session.schema_delta_stats().fds_delta, 1);
        // A later insert conflicts under the *new* FD (salary 40 twice, different
        // departments); the mutation delta over the FD-extended snapshot matches a
        // fresh session replaying the whole script.
        session.execute("INSERT INTO Mgr VALUES ('Zoe','HR',40,9)").unwrap();
        let delta = session.snapshot("Mgr").unwrap();
        let mut fresh = session_with_example1();
        fresh.execute("ALTER TABLE Mgr ADD FD Salary -> Dept").unwrap();
        fresh.execute("INSERT INTO Mgr VALUES ('Zoe','HR',40,9)").unwrap();
        let rebuilt = fresh.snapshot("Mgr").unwrap();
        assert_eq!(delta.graph().edges(), rebuilt.graph().edges());
        assert_eq!(delta.count_repairs(), rebuilt.count_repairs());
        let statement = "SELECT Name FROM Mgr WITH REPAIRS ALL";
        assert_eq!(
            rows(session.execute(statement).unwrap()),
            rows(fresh.execute(statement).unwrap())
        );
    }

    #[test]
    fn parallel_sessions_build_identical_snapshots() {
        let mut sequential = session_with_example1();
        let mut parallel = session_with_example1();
        parallel.set_parallelism(Parallelism::threads(4));
        let s = sequential.snapshot("Mgr").unwrap();
        let p = parallel.snapshot("Mgr").unwrap();
        assert_eq!(p.graph().edges(), s.graph().edges());
        assert_eq!(p.component_count(), s.component_count());
        assert_eq!(p.shards_of("Mgr"), s.shards_of("Mgr"));
        assert_eq!(p.count_repairs(), s.count_repairs());
    }

    #[test]
    fn parallel_sessions_answer_exactly_like_sequential_ones() {
        let statements = [
            "SELECT Name FROM Mgr WITH REPAIRS ALL",
            "SELECT Dept FROM Mgr WITH REPAIRS LOCAL",
            "SELECT * FROM Mgr WHERE Salary >= 10 WITH REPAIRS GLOBAL",
        ];
        let mut sequential = session_with_example1();
        let mut parallel = session_with_example1();
        parallel.set_parallelism(Parallelism::threads(4));
        assert_eq!(parallel.parallelism().thread_count(), 4);
        for statement in statements {
            assert_eq!(
                rows(sequential.execute(statement).unwrap()),
                rows(parallel.execute(statement).unwrap()),
                "{statement}"
            );
        }
    }

    #[test]
    fn explain_renders_the_plan_and_actuals() {
        let mut session = session_with_example1();
        let outcome = session.execute("EXPLAIN SELECT Name FROM Mgr WITH REPAIRS ALL").unwrap();
        let StatementOutcome::Plan(report) = outcome else {
            panic!("expected a plan report, got {outcome:?}");
        };
        assert!(report.starts_with("plan family=Rep"), "{report}");
        assert!(report.contains("query SELECT Name FROM Mgr WITH REPAIRS ALL"), "{report}");
        assert!(report.contains("actual product="), "{report}");
        assert!(report.contains("rows=2"), "{report}");
        // The EXPLAIN shares its prepared statement (and thereby the engine
        // fingerprint, answer memo and plan cache) with the bare SELECT.
        assert_eq!(session.prepared_statement_count(), 1);
        session.execute("SELECT Name FROM Mgr WITH REPAIRS ALL").unwrap();
        assert_eq!(session.prepared_statement_count(), 1);
    }

    #[test]
    fn explain_requires_a_repair_clause() {
        let mut session = session_with_example1();
        assert!(matches!(session.execute("EXPLAIN SELECT Name FROM Mgr"), Err(SqlError::Query(_))));
        assert!(matches!(
            session.execute("EXPLAIN INSERT INTO Mgr VALUES ('X','Y',1,1)"),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn repeated_selects_reuse_the_prepared_statement_and_snapshot_memo() {
        let mut session = session_with_example1();
        let statement = "SELECT Name FROM Mgr WITH REPAIRS ALL";
        let first = rows(session.execute(statement).unwrap());
        let stats = session.snapshot("Mgr").unwrap().memo_stats();
        assert_eq!(stats.answer_hits, 0);
        let second = rows(session.execute(statement).unwrap());
        assert_eq!(first, second);
        let stats = session.snapshot("Mgr").unwrap().memo_stats();
        // The second execution was served entirely from the answer memo.
        assert_eq!(stats.answer_hits, 1);
        assert_eq!(session.prepared_statement_count(), 1);
    }
}
