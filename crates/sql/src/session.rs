//! Catalog and statement execution.
//!
//! [`Session`] is a thin view over a [`SnapshotRegistry`]: the registry serves one
//! atomically-swappable [`Arc<EngineSnapshot>`] per table and is the only store of a
//! published table. A table this session creates is a *draft* (its rows, FDs and queued
//! preferences, held by the session) until its first read — any `SELECT`, `EXPLAIN`,
//! subscription or [`Session::snapshot`] — which builds and publishes it once, so loading
//! a script costs a single build. From then on:
//!
//! * `INSERT`, `DELETE` and `ALTER TABLE … ADD FD` each commit one [`Change`] through
//!   [`SnapshotRegistry::commit`] on top of whatever the registry serves, so they compose
//!   with every other writer of the table. Only the conflict components a change touches
//!   are re-partitioned and re-enumerated; everything else, the memo included, carries
//!   over.
//! * `PREFER` statements queue and install at the next read as **one** priority change:
//!   the served priority plus the queued pairs. An install that fails (a cyclic or
//!   non-conflicting preference) reports its error at that read and discards the queue;
//!   the table stays readable.
//! * every read answers from the served snapshot: a plain `SELECT` through its columnar
//!   view, `SELECT … WITH REPAIRS` through its memoised prepared-query pipeline.
//!
//! Several sessions constructed with [`Session::with_registry`] serve **one snapshot
//! set**: a table published by any of them, or by a `pdqi-server` front end over the same
//! registry, is readable and writable by all.
//!
//! Each distinct `SELECT` text is planned once into a cached [`PreparedQuery`], which
//! survives mutations and FD additions: a plan depends only on the table's column shape,
//! which no statement alters.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use pdqi_constraints::{FdSet, FunctionalDependency};
use pdqi_core::{
    Change, ChangeReport, EngineBuilder, EngineSnapshot, Mutation, Parallelism, PreparedQuery,
    RepairContext, ReviseError, Semantics, SnapshotLease, SnapshotRegistry, SubscribeOptions,
    Subscribed, SubscriptionEvent, SubscriptionInfo, SubscriptionManager, WindowStats,
};
use pdqi_query::builder::{and_all, atom, exists, var};
use pdqi_query::{Evaluator, Formula, Term};
use pdqi_relation::{RelationInstance, RelationSchema, Tuple, TupleId, Value, ValueType};

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

/// A table from `CREATE TABLE` until its first read publishes it.
#[derive(Debug)]
struct Draft {
    instance: RelationInstance,
    fds: FdSet,
}

/// A queued `PREFER`: the winner's values, then the loser's.
type Preference = (Vec<Value>, Vec<Value>);

/// Cap on cached `SELECT` plans per session (cleared wholesale when exceeded).
const PREPARED_CACHE_LIMIT: usize = 1024;

/// A `SELECT` planned once: the projected columns and the prepared formula.
#[derive(Debug, Clone)]
struct PreparedSelect {
    projected: Vec<String>,
    query: Arc<PreparedQuery>,
}

/// An interactive session: the tables it created, serving snapshots out of a (possibly
/// shared) [`SnapshotRegistry`] as described in the [module docs](self).
#[derive(Debug)]
pub struct Session {
    /// The tables this session created: `Some` while a draft, `None` once published.
    tables: BTreeMap<String, Option<Draft>>,
    /// The serving core: per-table snapshots, shared with every other session (and
    /// server) constructed over the same registry.
    registry: Arc<SnapshotRegistry>,
    /// Per-table `PREFER`s not yet installed; the next read of the table installs them
    /// as one priority change.
    pending_prefers: BTreeMap<String, Vec<Preference>>,
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
            pending_prefers: BTreeMap::new(),
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

    /// Executes a script of `;`-separated statements, returning the outcome of each. A
    /// `;` inside a quoted literal does not end a statement, and `--` starts a comment
    /// that runs to the end of its line.
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<StatementOutcome>, SqlError> {
        split_script(script).iter().map(|statement| self.execute(statement)).collect()
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
                let schema =
                    Arc::new(RelationSchema::from_pairs(&name, &defs).map_err(schema_error)?);
                // The draft shadows a same-named table a sibling session published, and
                // replaces it at its first read.
                self.pending_prefers.remove(&name);
                let draft = Draft {
                    instance: RelationInstance::new(Arc::clone(&schema)),
                    fds: FdSet::new(schema),
                };
                self.tables.insert(name, Some(draft));
                Ok(StatementOutcome::Created)
            }
            Statement::AddFd { table, fd } => {
                let parse = |schema: &RelationSchema| {
                    FunctionalDependency::parse(schema, &fd).map_err(schema_error)
                };
                match self.draft_mut(&table) {
                    Some(draft) => draft.fds.push(parse(draft.fds.schema())?),
                    None => {
                        self.commit(&table, |base| {
                            let fd = parse(context(base, &table)?.instance().schema())?;
                            Ok(Change::AddFd { relation: table.clone(), fd })
                        })?;
                    }
                }
                Ok(StatementOutcome::FdAdded)
            }
            Statement::Insert { table, rows } => {
                let count = rows.len();
                match self.draft_mut(&table) {
                    Some(draft) => {
                        for tuple in tuples(draft.instance.schema(), &rows)? {
                            draft.instance.insert_tuple(tuple);
                        }
                    }
                    None => {
                        let mutation = Mutation::new().insert_rows(&table, rows);
                        self.commit(&table, |_| Ok(Change::Mutation(mutation)))?;
                    }
                }
                Ok(StatementOutcome::Inserted(count))
            }
            Statement::Delete { table, rows } => {
                let removed = match self.draft_mut(&table) {
                    Some(draft) => {
                        let mut kept = draft.instance.all_ids();
                        for tuple in tuples(draft.instance.schema(), &rows)? {
                            if let Some(id) = draft.instance.id_of(&tuple) {
                                kept.remove(id);
                            }
                        }
                        let removed = draft.instance.len() - kept.len();
                        if removed > 0 {
                            draft.instance = draft.instance.restrict(&kept);
                        }
                        removed
                    }
                    None => {
                        let mutation = Mutation::new().delete_rows(&table, rows.iter().cloned());
                        self.commit(&table, |_| Ok(Change::Mutation(mutation)))?.deleted
                    }
                };
                // A queued preference relating a deleted tuple dies with it, as an
                // installed one does.
                if let Some(queue) = self.pending_prefers.get_mut(&table) {
                    queue.retain(|(winner, loser)| !rows.contains(winner) && !rows.contains(loser));
                }
                Ok(StatementOutcome::Deleted(removed))
            }
            Statement::Prefer { table, winner, loser } => {
                // Both tuples must already be stored: a preference relates existing tuples.
                self.inspect(&table, |instance, _| {
                    for row in [&winner, &loser] {
                        let tuple = instance.schema().tuple(row.clone()).map_err(schema_error)?;
                        if !instance.contains_tuple(&tuple) {
                            return Err(SqlError::Schema(format!(
                                "PREFER references tuple {tuple}, which is not stored in `{table}`"
                            )));
                        }
                    }
                    Ok(())
                })?;
                self.pending_prefers.entry(table).or_default().push((winner, loser));
                Ok(StatementOutcome::PreferenceAdded)
            }
            Statement::Select(_) | Statement::Explain(_) => {
                unreachable!("SELECT/EXPLAIN statements are routed through Session::execute")
            }
        }
    }

    /// The names of the tables this session created, in lexicographic order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Number of distinct `SELECT` statements planned so far (observability for the
    /// prepared-statement cache).
    pub fn prepared_statement_count(&self) -> usize {
        self.prepared.len()
    }

    fn draft_mut(&mut self, table: &str) -> Option<&mut Draft> {
        self.tables.get_mut(table).and_then(Option::as_mut)
    }

    /// Runs `f` over `table`'s instance and FDs: its draft's, or else those of the
    /// snapshot the registry serves (queued `PREFER`s change neither).
    fn inspect<T>(
        &self,
        table: &str,
        f: impl FnOnce(&RelationInstance, &FdSet) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if let Some(Some(draft)) = self.tables.get(table) {
            return f(&draft.instance, &draft.fds);
        }
        let lease =
            self.registry.read(table).ok_or_else(|| SqlError::UnknownTable(table.to_string()))?;
        let ctx = context(lease.snapshot(), table)?;
        f(ctx.instance(), ctx.fds())
    }

    /// The instance currently stored for `table` (validated rows, set semantics).
    pub fn instance(&self, table: &str) -> Result<RelationInstance, SqlError> {
        self.inspect(table, |instance, _| Ok(instance.clone()))
    }

    /// The functional dependencies declared for `table`.
    pub fn fds(&self, table: &str) -> Result<FdSet, SqlError> {
        self.inspect(table, |_, fds| Ok(fds.clone()))
    }

    /// The engine snapshot for `table`: the registry's current snapshot, pinned behind
    /// an [`Arc`] (no copies — every caller shares the snapshot and its memo).
    ///
    /// This is a read: it publishes the table if it is still a draft and installs its
    /// queued `PREFER`s first (see the [module docs](self)). Tables this session never
    /// created are served when another session (or a server) published them into the
    /// shared registry.
    pub fn snapshot(&mut self, table: &str) -> Result<Arc<EngineSnapshot>, SqlError> {
        self.snapshot_lease(table).map(SnapshotLease::into_snapshot)
    }

    /// [`Session::snapshot`] plus the registry generation the snapshot was published
    /// under (monotone per table — useful for observing revision swaps).
    pub fn snapshot_lease(&mut self, table: &str) -> Result<SnapshotLease, SqlError> {
        self.flush(table)?;
        self.registry.read(table).ok_or_else(|| SqlError::UnknownTable(table.to_string()))
    }

    /// Brings what the registry serves for `table` up to date with this session: a
    /// draft builds and publishes once, and queued `PREFER`s install as one priority
    /// change. Returns whether a draft was published. An install that fails discards
    /// the queue and leaves the table as it was, so the next read succeeds.
    fn flush(&mut self, table: &str) -> Result<bool, SqlError> {
        let queued = self.pending_prefers.remove(table).unwrap_or_default();
        if let Some(Some(draft)) = self.tables.get(table) {
            let pairs = resolve(&draft.instance, &queued)?;
            // Built from a copy: a failed install keeps the draft for the next read.
            let snapshot = EngineBuilder::new()
                .relation(draft.instance.clone(), draft.fds.clone())
                .priority_pairs(&pairs)
                .parallelism(self.parallelism)
                .build()
                .map_err(install_error)?;
            self.registry.publish(table, snapshot);
            self.tables.insert(table.to_string(), None);
            return Ok(true);
        }
        if !queued.is_empty() {
            self.commit(table, |base| {
                let (Some(ctx), Some(served)) = (base.context_of(table), base.priority_of(table))
                else {
                    return Err(SqlError::UnknownTable(table.to_string()));
                };
                let mut priority = served.clone();
                for (winner, loser) in resolve(ctx.instance(), &queued)? {
                    priority.add(winner, loser).map_err(install_error)?;
                }
                Ok(Change::Priority { relation: table.to_string(), priority })
            })?;
        }
        Ok(false)
    }

    /// Commits the change `change` builds from the snapshot the registry serves for
    /// `table`, whichever writer published it.
    fn commit(
        &self,
        table: &str,
        change: impl FnOnce(&EngineSnapshot) -> Result<Change, SqlError>,
    ) -> Result<ChangeReport, SqlError> {
        match self.registry.commit(table, None, self.parallelism, change) {
            Ok((_, report)) => Ok(report),
            Err(ReviseError::UnknownTable(_)) => Err(SqlError::UnknownTable(table.to_string())),
            Err(ReviseError::Build(e)) => Err(e),
            Err(other) => Err(schema_error(other)),
        }
    }

    /// Publishes every draft and installs every queued `PREFER`, returning the number of
    /// drafts published. Servers call this once after loading a script so the registry
    /// serves every table before the first request arrives.
    pub fn publish_tables(&mut self) -> Result<usize, SqlError> {
        let names: BTreeSet<String> =
            self.tables.keys().chain(self.pending_prefers.keys()).cloned().collect();
        let mut published = 0;
        for table in names {
            published += usize::from(self.flush(&table)?);
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
    /// query: the statement is planned through the ordinary prepared-`SELECT` path
    /// after a read of its table, and later generation swaps arrive as
    /// [`SubscriptionEvent`]s through [`Session::drain_subscription_events`]. Returns
    /// the subscription id plus the initial full answer the deltas build on.
    pub fn subscribe(&mut self, sql: &str, semantics: Semantics) -> Result<Subscribed, SqlError> {
        self.subscribe_with(sql, semantics, SubscribeOptions::default())
    }

    /// [`Session::subscribe`] with an explicit report strategy and push-queue bound:
    /// `options.strategy` picks per-generation, coalesced or windowed delivery and
    /// `options.queue_capacity` bounds this subscriber's push queue.
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
        // The read publishes the table, so the registry serves a slot to register against.
        let (_, prepared) = self.read_select(sql.trim(), &select)?;
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

    /// Reads `select`'s table (see [`Session::snapshot`]) and plans the statement
    /// against the served schema, once per distinct statement text.
    fn read_select(
        &mut self,
        sql_text: &str,
        select: &SelectStatement,
    ) -> Result<(Arc<EngineSnapshot>, PreparedSelect), SqlError> {
        let snapshot = self.snapshot(&select.table)?;
        if let Some(prepared) = self.prepared.get(sql_text) {
            return Ok((snapshot, prepared.clone()));
        }
        let (projected, formula) =
            select_query(context(&snapshot, &select.table)?.instance().schema(), select)?;
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
        Ok((snapshot, prepared))
    }

    fn select(
        &mut self,
        sql_text: &str,
        select: &SelectStatement,
    ) -> Result<StatementOutcome, SqlError> {
        let (snapshot, PreparedSelect { projected, query }) = self.read_select(sql_text, select)?;
        let query_error = |e: pdqi_query::QueryError| SqlError::Query(e.to_string());
        // Both paths yield rows in the formula's free-variable order.
        let answers: Vec<Vec<Value>> = match select.repairs {
            // Plain evaluation over the stored (possibly inconsistent) instance.
            None => {
                let ctx = context(&snapshot, &select.table)?;
                let mut evaluator = Evaluator::new();
                evaluator.add_relation_columnar(ctx.instance(), ctx.columns());
                evaluator.answer_rows(query.formula()).map_err(query_error)?.into_iter().collect()
            }
            // Certain answers over the preferred repairs, through the snapshot's
            // memoised pipeline.
            Some(kind) => query
                .execute_with(&snapshot, kind, Semantics::Certain, self.parallelism)
                .map_err(query_error)?
                .collect(),
        };
        let positions: Vec<usize> = projected
            .iter()
            .map(|column| {
                let variable = format!("v_{column}");
                query
                    .free_vars()
                    .iter()
                    .position(|v| *v == variable)
                    .expect("projected columns are free variables")
            })
            .collect();
        let mut rows: Vec<Vec<Value>> = answers
            .iter()
            .map(|row| positions.iter().map(|&index| row[index].clone()).collect())
            .collect();
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
        let (snapshot, PreparedSelect { query, .. }) = self.read_select(sql_text, select)?;
        let report = query
            .explain(&snapshot, kind, Semantics::Certain, self.parallelism)
            .map_err(|e| SqlError::Query(e.to_string()))?;
        Ok(StatementOutcome::Plan(report))
    }
}

/// Splits a script into statements at every `;` outside a quoted literal, dropping `--`
/// comments (which run to the end of their line) and blank statements — the split
/// [`Session::execute_script`] runs, for callers that execute statement by statement.
pub fn split_script(script: &str) -> Vec<String> {
    let mut statements = vec![String::new()];
    let mut quoted = false;
    let mut chars = script.chars().peekable();
    while let Some(c) = chars.next() {
        let current = statements.last_mut().expect("the statement list is never empty");
        match c {
            // The lexer's `''` escape toggles twice, so the literal stays open across it.
            '\'' => {
                quoted = !quoted;
                current.push(c);
            }
            ';' if !quoted => statements.push(String::new()),
            '-' if !quoted && chars.peek() == Some(&'-') => {
                while chars.next_if(|&c| c != '\n').is_some() {}
            }
            _ => current.push(c),
        }
    }
    statements.iter().map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
}

/// Builds the open conjunctive query corresponding to a `SELECT` over a table of
/// `schema`: one variable per column, the table atom, and the `WHERE` conditions as
/// comparisons; non-projected columns are existentially quantified.
fn select_query(
    schema: &RelationSchema,
    select: &SelectStatement,
) -> Result<(Vec<String>, Formula), SqlError> {
    let all_columns: Vec<String> = schema.attributes().iter().map(|a| a.name.clone()).collect();
    let projected: Vec<String> =
        if select.star { all_columns.clone() } else { select.columns.clone() };
    for column in projected.iter().chain(select.conditions.iter().map(|c| &c.column)) {
        if !all_columns.contains(column) {
            return Err(SqlError::UnknownColumn {
                table: schema.name().to_string(),
                column: column.clone(),
            });
        }
    }
    let column_var = |column: &str| format!("v_{column}");
    let args: Vec<Term> = all_columns.iter().map(|c| var(&column_var(c)).clone()).collect();
    let mut conjuncts = vec![atom(schema.name(), args)];
    for condition in &select.conditions {
        let rhs = match &condition.rhs {
            ConditionRhs::Column(column) => {
                if !all_columns.contains(column) {
                    return Err(SqlError::UnknownColumn {
                        table: schema.name().to_string(),
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

/// `table`'s repair context in `snapshot`.
fn context<'a>(snapshot: &'a EngineSnapshot, table: &str) -> Result<&'a RepairContext, SqlError> {
    snapshot.context_of(table).ok_or_else(|| SqlError::UnknownTable(table.to_string()))
}

/// Validates every row of a statement against `schema` before any of them applies.
fn tuples(schema: &RelationSchema, rows: &[Vec<Value>]) -> Result<Vec<Tuple>, SqlError> {
    rows.iter().map(|row| schema.tuple(row.clone()).map_err(schema_error)).collect()
}

/// Resolves queued preferences to tuple-id pairs of `instance`.
fn resolve(
    instance: &RelationInstance,
    queued: &[Preference],
) -> Result<Vec<(TupleId, TupleId)>, SqlError> {
    let id = |row: &Vec<Value>| {
        let tuple = instance.schema().tuple(row.clone()).map_err(schema_error)?;
        instance
            .id_of(&tuple)
            .ok_or_else(|| install_error(format!("tuple {tuple} is no longer stored")))
    };
    queued.iter().map(|(winner, loser)| Ok((id(winner)?, id(loser)?))).collect()
}

fn schema_error(e: impl fmt::Display) -> SqlError {
    SqlError::Schema(e.to_string())
}

/// The error of a `PREFER` batch that could not be installed (and was discarded).
fn install_error(e: impl fmt::Display) -> SqlError {
    SqlError::Schema(format!("queued PREFERs discarded: {e}"))
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
    fn mutations_commit_on_top_of_another_writers_publish() {
        let registry = pdqi_core::SnapshotRegistry::shared();
        let mut writer = Session::with_registry(Arc::clone(&registry));
        writer.execute_script(SETUP).unwrap();
        writer.snapshot("Mgr").unwrap();
        // A sibling session re-publishes the table over the writer's snapshot.
        let mut sibling = Session::with_registry(Arc::clone(&registry));
        sibling.execute_script(SETUP).unwrap();
        sibling.snapshot("Mgr").unwrap();
        writer.execute("INSERT INTO Mgr VALUES ('Eve','HR',15,2)").unwrap();
        // The insert commits on top of whatever the registry serves: the sibling's rows.
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
        // by the sibling's snapshot: CREATE TABLE starts a draft, so the next read
        // publishes this session's (empty, differently-shaped) table.
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

    #[test]
    fn scripts_split_outside_literals_and_drop_only_comment_lines() {
        let mut session = Session::new();
        let outcomes = session
            .execute_script(
                "CREATE TABLE T (K TEXT, V INT);\
                 INSERT INTO T VALUES ('a;b', 1), ('it''s;', 2);",
            )
            .unwrap();
        assert_eq!(outcomes, vec![StatementOutcome::Created, StatementOutcome::Inserted(2)]);
        let result = rows(session.execute("SELECT K FROM T").unwrap());
        assert_eq!(result.rows, vec![vec![Value::name("a;b")], vec![Value::name("it's;")]]);
        // A `--` comment ends at its line, so the statement after it still runs.
        let outcomes = session
            .execute_script(
                "CREATE TABLE U (A TEXT); -- don't skip; me\nINSERT INTO U VALUES ('x');",
            )
            .unwrap();
        assert_eq!(outcomes, vec![StatementOutcome::Created, StatementOutcome::Inserted(1)]);
        assert_eq!(session.instance("U").unwrap().len(), 1);
    }

    #[test]
    fn non_ascii_text_reads_back_as_written() {
        let mut session = Session::new();
        session
            .execute_script("CREATE TABLE C (K TEXT); INSERT INTO C VALUES ('café'), ('日本');")
            .unwrap();
        let result = rows(session.execute("SELECT K FROM C").unwrap());
        assert_eq!(result.rows, vec![vec![Value::name("café")], vec![Value::name("日本")]]);
        let matched = rows(session.execute("SELECT K FROM C WHERE K = 'café'").unwrap());
        assert_eq!(matched.rows, vec![vec![Value::name("café")]]);
    }

    #[test]
    fn a_session_queries_tables_a_sibling_defined() {
        let registry = SnapshotRegistry::shared();
        let mut writer = Session::with_registry(Arc::clone(&registry));
        writer.execute_script(SETUP).unwrap();
        assert_eq!(writer.publish_tables().unwrap(), 1);
        let mut reader = Session::with_registry(registry);
        let statement = "SELECT Name FROM Mgr WITH REPAIRS ALL";
        assert_eq!(
            rows(reader.execute(statement).unwrap()),
            rows(writer.execute(statement).unwrap())
        );
        let plain = rows(reader.execute("SELECT Name FROM Mgr WHERE Dept = 'R&D'").unwrap());
        assert_eq!(plain.rows.len(), 2);
        let explained = reader.execute(&format!("EXPLAIN {statement}")).unwrap();
        assert!(matches!(explained, StatementOutcome::Plan(_)), "{explained:?}");
        assert_eq!(reader.subscribe(statement, Semantics::Certain).unwrap().rows.len(), 2);
        // Columns resolve against the served schema.
        assert!(matches!(
            reader.execute("SELECT Bogus FROM Mgr"),
            Err(SqlError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn a_row_another_writer_commits_survives_the_sessions_next_insert() {
        let mut session = session_with_example1();
        session.snapshot("Mgr").unwrap();
        let row = vec![Value::name("Eve"), Value::name("HR"), Value::int(15), Value::int(2)];
        let insert = |_: &EngineSnapshot| {
            Ok::<_, std::convert::Infallible>(Change::Mutation(Mutation::new().insert("Mgr", row)))
        };
        session.registry().commit("Mgr", None, Parallelism::sequential(), insert).unwrap();
        session.execute("INSERT INTO Mgr VALUES ('Bob','FIN',12,1)").unwrap();
        assert_eq!(session.snapshot("Mgr").unwrap().context().instance().len(), 6);
    }

    #[test]
    fn a_failed_prefer_install_discards_the_queue_and_leaves_the_table_readable() {
        const GOOD: &str = "PREFER ('Mary','R&D',40,3) OVER ('Mary','IT',20,1) IN Mgr";
        // The reverse of GOOD closes a cycle; the other pair does not conflict.
        const CYCLIC: &str = "PREFER ('Mary','IT',20,1) OVER ('Mary','R&D',40,3) IN Mgr";
        const UNRELATED: &str = "PREFER ('Mary','R&D',40,3) OVER ('John','PR',30,4) IN Mgr";
        let select = "SELECT Dept FROM Mgr WITH REPAIRS GLOBAL";
        for bad in [CYCLIC, UNRELATED] {
            // Published: the failing read leaves the last good generation served.
            let mut published = session_with_example1();
            published.execute(GOOD).unwrap();
            assert_eq!(published.snapshot_lease("Mgr").unwrap().generation(), 1);
            published.execute(bad).unwrap();
            assert!(matches!(published.execute(select), Err(SqlError::Schema(_))), "{bad}");
            let lease = published.snapshot_lease("Mgr").unwrap();
            assert_eq!((lease.generation(), lease.snapshot().priority().edge_count()), (1, 1));
            published.execute(select).unwrap();
            // Draft: the failing read publishes nothing; the next publishes rows and FDs.
            let mut draft = session_with_example1();
            draft.execute(GOOD).unwrap();
            draft.execute(bad).unwrap();
            assert!(matches!(draft.execute(select), Err(SqlError::Schema(_))), "{bad}");
            assert!(!draft.registry().contains("Mgr"));
            let lease = draft.snapshot_lease("Mgr").unwrap();
            assert_eq!((lease.generation(), lease.snapshot().priority().edge_count()), (1, 0));
            assert_eq!(lease.snapshot().context().instance().len(), 4);
            assert_eq!(lease.snapshot().context().fds().len(), 2);
            for session in [&mut published, &mut draft] {
                session.execute("INSERT INTO Mgr VALUES ('Eve','HR',15,2)").unwrap();
                assert_eq!(session.snapshot("Mgr").unwrap().context().instance().len(), 5);
            }
        }
    }
}
