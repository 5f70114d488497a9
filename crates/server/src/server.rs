//! The server: request dispatch over one snapshot registry.
//!
//! The transport the server shares with the coordinator accepts connections, reads
//! frames and writes answers; [`ServerState`] answers each request over a
//! [`SnapshotRegistry`]. Dispatch is where the serving-core architecture shows:
//!
//! * `EXEC`/`BATCH` **pin one snapshot** per request — a [`SnapshotRegistry::read`]
//!   lease taken once, before any work — and run every entry of the request, `PROFILE`
//!   included, through one [`BatchExecutor`] over that snapshot. Answers are
//!   bit-identical to calling [`pdqi_core::PreparedQuery::execute`] on the leased
//!   snapshot directly, and the response reports the pinned generation;
//! * `SET-PRIORITY` and `ALTER` commit a [`Change`] **off the serving path** through
//!   [`SnapshotRegistry::commit`]: the replacement snapshot derives (and eagerly
//!   re-enumerates what the change invalidated) while in-flight readers keep their
//!   leases, then one atomic swap publishes it with the change's scope. An added FD
//!   is scanned only inside its LHS groups, never by re-pairing the whole relation;
//! * prepared queries are parsed once (`PREPARE`) into a shared plan cache keyed by
//!   client-chosen ids, so repeated `EXEC`s skip parsing and classification exactly
//!   like prepared statements in the SQL session;
//! * `SUBSCRIBE` registers a continuous query on the connection; its `DELTA`/`LAGGED`
//!   frames are the pushes the transport writes after each response and at each idle
//!   poll.

use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdqi_constraints::FunctionalDependency;
use pdqi_core::{
    BatchExecutor, BatchRequest, BatchResponse, Change, Parallelism, PreparedQuery,
    SnapshotRegistry, SubscribeOptions, SubscriptionEvent, SubscriptionManager, WriteCoalescer,
    WriteFrame,
};
use pdqi_priority::Priority;
use pdqi_relation::{TupleId, Value, ValueType};

use crate::protocol::{
    describe_response, exec_response, outcome_line, profile_line, push_rows, rows_block, ExecSpec,
    Prepared, PreparedMap, Request,
};
use crate::transport::{listen, Handle, Handler, WireStats};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads used by query execution and revision revalidation.
    pub parallelism: Parallelism,
    /// Group-commit delay for the write coalescer: the batch leader waits this long
    /// after taking a table's revision lock so concurrent writes join the batch
    /// (zero — the default — coalesces only writes already queued behind the lock).
    pub write_hold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { parallelism: Parallelism::sequential(), write_hold: Duration::ZERO }
    }
}

/// The state every connection of one server shares: the registry, the plan cache,
/// the subscription manager and the write coalescer.
pub struct ServerState {
    registry: Arc<SnapshotRegistry>,
    /// Prepared queries by client-chosen id; each reads one table, since the registry
    /// serves snapshots per table.
    prepared: PreparedMap<Arc<PreparedQuery>>,
    parallelism: Parallelism,
    /// The continuous-query manager, attached to `registry` as a swap observer:
    /// `SUBSCRIBE`d connections drain their bounded per-subscriber queues on idle
    /// polls and after every response.
    subscriptions: Arc<SubscriptionManager>,
    /// The write-pipelining front: every `MUTATE`/`INSERT`/`DELETE` goes through this
    /// bounded per-table coalescing queue, so frames arriving while the revision lock
    /// is busy fold into one `Mutation`, one derivation and one swap.
    writes: Arc<WriteCoalescer>,
    /// `ALTER` requests that swapped in an FD-delta-derived snapshot (the server has
    /// no rebuild fallback — a failed delta is an `ERR`, counted nowhere).
    alters_applied: AtomicU64,
}

/// A handle on a running server: its address, a shutdown trigger and a join point.
pub type ServerHandle = Handle<ServerState>;

impl Handle<ServerState> {
    /// The registry the server serves from.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.handler().registry
    }
}

/// Binds `addr` and starts serving `registry` — see the [module docs](self).
///
/// Returns once the listener is bound and accepting; the returned handle reports the
/// bound address (pass port 0 for an ephemeral port) and shuts the server down cleanly
/// when asked.
pub fn serve(
    addr: impl ToSocketAddrs,
    registry: Arc<SnapshotRegistry>,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let subscriptions = SubscriptionManager::new(config.parallelism);
    subscriptions.attach(&registry);
    let writes =
        WriteCoalescer::with_hold(Arc::clone(&registry), config.parallelism, config.write_hold);
    let state = ServerState {
        registry,
        prepared: PreparedMap::new(),
        parallelism: config.parallelism,
        subscriptions,
        writes,
        alters_applied: AtomicU64::new(0),
    };
    listen(addr, state)
}

/// The subscriptions registered on one connection. Dropping the tracker (connection
/// close, error paths included) unregisters every one of them — a vanished subscriber
/// must not keep accumulating queued deltas in the manager.
pub(crate) struct ConnectionSubs {
    manager: Arc<SubscriptionManager>,
    ids: Vec<u64>,
}

impl Drop for ConnectionSubs {
    fn drop(&mut self) {
        for &sub in &self.ids {
            self.manager.unsubscribe(sub);
        }
    }
}

/// Renders one pushed frame: `DELTA` with op-prefixed rows, or `LAGGED` with the
/// resync answer (header-less — the subscriber learned its columns at SUBSCRIBE time).
fn render_push(sub: u64, event: &SubscriptionEvent) -> String {
    match event {
        SubscriptionEvent::Delta(delta) => {
            let mut out = format!(
                "DELTA sub={sub} gen={} added={} removed={}",
                delta.generation,
                delta.added.len(),
                delta.removed.len()
            );
            push_rows(&mut out, Some('+'), &delta.added);
            push_rows(&mut out, Some('-'), &delta.removed);
            out
        }
        SubscriptionEvent::Lagged { generation, rows } => {
            let mut out = format!("LAGGED sub={sub} gen={generation} rows {}", rows.len());
            push_rows(&mut out, None, rows);
            out
        }
    }
}

impl Handler for ServerState {
    /// Pushed frames go to the connection that subscribed, and closing it unsubscribes.
    type Connection = ConnectionSubs;

    fn open(&self) -> ConnectionSubs {
        ConnectionSubs { manager: Arc::clone(&self.subscriptions), ids: Vec::new() }
    }

    /// Every queued event of this connection's subscriptions, oldest first, in
    /// subscription order.
    fn pushes(&self, subs: &ConnectionSubs) -> Vec<String> {
        let mut frames = Vec::new();
        for &sub in &subs.ids {
            for event in self.subscriptions.drain(sub) {
                frames.push(render_push(sub, &event));
            }
        }
        frames
    }

    fn dispatch(&self, subs: &mut ConnectionSubs, request: &Request, wire: &WireStats) -> String {
        match request {
            Request::Ping => "OK pong".to_string(),
            Request::Prepare { id, query } => match PreparedQuery::parse(query) {
                Err(e) => format!("ERR query error: {e}"),
                Ok(prepared) => {
                    let [table] = prepared.relations() else {
                        return format!(
                            "ERR queries must read exactly one table (this one reads {})",
                            prepared.relations().len()
                        );
                    };
                    let table = table.clone();
                    let response = format!(
                        "OK prepared {id} table={table} columns={}",
                        prepared.free_vars().join(",")
                    );
                    self.prepared.insert(id, Prepared { table, query: Arc::new(prepared) });
                    response
                }
            },
            Request::Exec(spec) => {
                exec_response(self.execute_specs(std::slice::from_ref(spec)), false)
            }
            Request::Batch(specs) => exec_response(self.execute_specs(specs), true),
            Request::Explain { id, family, semantics } => {
                let entry = match self.prepared.get(id) {
                    Ok(entry) => entry,
                    Err(message) => return format!("ERR {message}"),
                };
                let Some(lease) = self.registry.read(&entry.table) else {
                    return format!("ERR no snapshot published for table `{}`", entry.table);
                };
                // The plan renders against the pinned lease; the appended actuals execute
                // through the ordinary memoising pipeline on that same snapshot.
                match entry.query.explain(lease.snapshot(), *family, *semantics, self.parallelism) {
                    Ok(report) => format!(
                        "OK explain {id} {} gen={}\n{}",
                        family.label(),
                        lease.generation(),
                        report.trim_end()
                    ),
                    Err(e) => format!("ERR query error: {e}"),
                }
            }
            Request::Insert { table, rows } => self.apply_mutation(table, rows, true),
            Request::Delete { table, rows } => self.apply_mutation(table, rows, false),
            Request::Mutate { table, inserts, deletes } => {
                let inserts = match self.type_rows(table, inserts) {
                    Ok(rows) => rows,
                    Err(message) => return message,
                };
                let deletes = match self.type_rows(table, deletes) {
                    Ok(rows) => rows,
                    Err(message) => return message,
                };
                // One frame → one Mutation batch → one delta derivation → one generation
                // swap; the coalescing queue additionally folds frames from *other*
                // connections that arrive while this table's revision lock is busy into
                // the same derivation.
                match self.writes.apply(table, WriteFrame::new(inserts, deletes)) {
                    Ok(outcome) => format!(
                        "OK mutated inserted {} deleted {} gen={}",
                        outcome.inserted, outcome.deleted, outcome.generation
                    ),
                    Err(e) => format!("ERR {e}"),
                }
            }
            Request::Subscribe { id, family, semantics, report, queue } => {
                let entry = match self.prepared.get(id) {
                    Ok(entry) => entry,
                    Err(message) => return format!("ERR {message}"),
                };
                let options =
                    SubscribeOptions { strategy: report.to_strategy(), queue_capacity: *queue };
                match self.subscriptions.subscribe_with(
                    &self.registry,
                    Arc::clone(&entry.query),
                    *family,
                    *semantics,
                    options,
                ) {
                    Ok(subscribed) => {
                        subs.ids.push(subscribed.id);
                        format!(
                            "OK subscribed sub={} gen={} {}",
                            subscribed.id,
                            subscribed.generation,
                            rows_block(&subscribed.columns, subscribed.rows.iter())
                        )
                    }
                    Err(e) => format!("ERR {e}"),
                }
            }
            Request::Unsubscribe { sub } => {
                let Some(position) = subs.ids.iter().position(|id| id == sub) else {
                    // Subscriptions are per-connection: a foreign id must not be
                    // detachable from another session.
                    return format!("ERR no subscription `{sub}` on this connection");
                };
                subs.ids.remove(position);
                self.subscriptions.unsubscribe(*sub);
                format!("OK unsubscribed sub={sub}")
            }
            Request::Alter { table, fd } => {
                let committed = self.registry.commit(table, None, self.parallelism, |current| {
                    let ctx = current.context_of(table).ok_or_else(|| {
                        format!("registry snapshot for `{table}` does not contain that relation")
                    })?;
                    let fd = FunctionalDependency::parse(ctx.instance().schema(), fd)
                        .map_err(|e| e.to_string())?;
                    Ok::<_, String>(Change::AddFd { relation: table.clone(), fd })
                });
                match committed {
                    Ok((generation, _)) => {
                        self.alters_applied.fetch_add(1, Ordering::Relaxed);
                        format!("OK altered {table} gen={generation}")
                    }
                    Err(e) => format!("ERR {e}"),
                }
            }
            Request::SetPriority { table, pairs } => {
                let pairs: Vec<(TupleId, TupleId)> =
                    pairs.iter().map(|&(w, l)| (TupleId(w), TupleId(l))).collect();
                let committed = self.registry.commit(table, None, self.parallelism, |current| {
                    let ctx = current.context_of(table).ok_or_else(|| {
                        format!("registry snapshot for `{table}` does not contain that relation")
                    })?;
                    let priority = Priority::from_pairs(Arc::clone(ctx.graph()), &pairs)
                        .map_err(|e| format!("priority cannot be installed: {e}"))?;
                    Ok::<_, String>(Change::Priority { relation: table.clone(), priority })
                });
                match committed {
                    Ok((generation, _)) => format!("OK swapped {table} gen={generation}"),
                    Err(e) => format!("ERR {e}"),
                }
            }
            Request::Describe { table } => {
                let Some(lease) = self.registry.read(table) else {
                    return format!("ERR no snapshot published for table `{table}`");
                };
                let Some(ctx) = lease.snapshot().context_of(table) else {
                    return format!(
                        "ERR registry snapshot for `{table}` does not contain that relation"
                    );
                };
                let instance = ctx.instance();
                describe_response(
                    table,
                    instance.len(),
                    &format!("gen={}", lease.generation()),
                    instance.schema().attributes().iter().map(|a| (a.name.as_str(), a.ty)),
                )
            }
            Request::Stats => self.stats(wire),
            Request::Shutdown => unreachable!("the transport answers SHUTDOWN itself"),
        }
    }
}

impl ServerState {
    fn stats(&self, wire: &WireStats) -> String {
        let registry = self.registry.stats();
        let mut out = format!(
            "OK stats tables={} reads={} swaps={} panics={} prepared={} {wire}",
            registry.tables,
            registry.reads,
            registry.swaps,
            registry.panics,
            self.prepared.len(),
        );
        let subscribe = self.subscriptions.stats();
        out.push_str(&format!(
            "\nsubscriptions subscribers={} pushed={} skipped={} executions={} lagged={}",
            subscribe.subscribers,
            subscribe.deltas_pushed,
            subscribe.skipped_unchanged,
            subscribe.executions,
            subscribe.lagged_resyncs,
        ));
        // Report-strategy accounting: coalesced/windowed subscriber counts and
        // how much churn the strategies absorbed.
        let window = self.subscriptions.window_stats();
        out.push_str(&format!(
            "\nwindows coalesced={} windowed={} folded_swaps={} flushes={} \
             expiry_deltas={} pending_dropped={}",
            window.coalesced_subscribers,
            window.windowed_subscribers,
            window.folded_swaps,
            window.coalesced_flushes,
            window.expiry_deltas,
            window.pending_dropped,
        ));
        // Write-pipelining accounting: frames through the coalescing queue,
        // derivations actually run, and the folding win.
        let writes = self.writes.stats();
        out.push_str(&format!(
            "\nwrites frames={} batches={} coalesced_writes={} derivations_saved={}",
            writes.frames, writes.batches, writes.coalesced_writes, writes.derivations_saved,
        ));
        // Schema-delta and evaluation-path accounting. Every server-side ALTER is
        // a delta (there is no rebuild fallback over the wire); the eval counters
        // are process-wide — vectorized and scalar executions of the columnar hot
        // path, bit-identical by construction.
        out.push_str(&format!("\nschema alters={}", self.alters_applied.load(Ordering::Relaxed)));
        let eval = pdqi_query::eval_path_stats();
        out.push_str(&format!("\neval vectorized={} scalar={}", eval.vectorized, eval.scalar));
        // Cost-based planner accounting (process-wide, like the eval counters):
        // how many executions were planned fresh, served from the per-snapshot
        // plan cache, or ran naive (PDQI_FORCE_NAIVE_PLAN), and which non-default
        // physical choices the planner made.
        let plans = pdqi_core::plan_stats();
        out.push_str(&format!(
            "\nplanner planned={} cache_hits={} naive={} join_reorders={} \
             scalar_picks={} derived_components={}",
            plans.planned,
            plans.cache_hits,
            plans.naive,
            plans.join_reorders,
            plans.scalar_picks,
            plans.derived_components,
        ));
        for table in self.registry.table_names() {
            if let Some(stats) = self.registry.table_stats(&table) {
                out.push_str(&format!(
                    "\ntable {table} gen={} reads={} swaps={} subs={}",
                    stats.generation,
                    stats.reads,
                    stats.swaps,
                    self.subscriptions.subscriber_count_for(&table),
                ));
            }
        }
        out
    }

    /// Answers an `INSERT`/`DELETE` request: types the raw row fields against the served
    /// table's schema, then publishes a **delta-derived** snapshot through the server's
    /// [`WriteCoalescer`] — the replacement re-partitions only the conflict components
    /// the mutation touches and carries every untouched memo entry, building off the
    /// serving path under the same per-table writer lock `SET-PRIORITY` uses; frames
    /// queued while that lock is busy fold into one derivation. The response reports what
    /// the mutation actually did (set semantics: duplicate inserts and absent deletes are
    /// no-ops) and the generation its batch published.
    fn apply_mutation(&self, table: &str, rows: &[Vec<String>], insert: bool) -> String {
        let typed = match self.type_rows(table, rows) {
            Ok(typed) => typed,
            Err(message) => return message,
        };
        let frame = if insert {
            WriteFrame::new(typed, Vec::new())
        } else {
            WriteFrame::new(Vec::new(), typed)
        };
        match self.writes.apply(table, frame) {
            Ok(outcome) => {
                if insert {
                    format!("OK inserted {} gen={}", outcome.inserted, outcome.generation)
                } else {
                    format!("OK deleted {} gen={}", outcome.deleted, outcome.generation)
                }
            }
            Err(e) => format!("ERR {e}"),
        }
    }

    /// Types raw wire fields against `table`'s served schema, producing the value rows a
    /// [`Mutation`] takes. Errors are rendered `ERR` responses.
    fn type_rows(&self, table: &str, rows: &[Vec<String>]) -> Result<Vec<Vec<Value>>, String> {
        let Some(lease) = self.registry.read(table) else {
            return Err(format!("ERR no snapshot published for table `{table}`"));
        };
        let Some(ctx) = lease.snapshot().context_of(table) else {
            return Err(format!(
                "ERR registry snapshot for `{table}` does not contain that relation"
            ));
        };
        let attributes = ctx.instance().schema().attributes();
        let mut typed: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != attributes.len() {
                return Err(format!(
                    "ERR row has {} value(s) but `{table}` has {} column(s)",
                    row.len(),
                    attributes.len()
                ));
            }
            let mut values = Vec::with_capacity(row.len());
            for (field, attribute) in row.iter().zip(attributes) {
                match attribute.ty {
                    ValueType::Int => match field.parse::<i64>() {
                        Ok(n) => values.push(Value::int(n)),
                        Err(_) => {
                            return Err(format!(
                                "ERR `{field}` is not an integer (column `{}`)",
                                attribute.name
                            ))
                        }
                    },
                    ValueType::Name => values.push(Value::name(field)),
                }
            }
            typed.push(values);
        }
        Ok(typed)
    }

    /// Resolves `specs` against the plan cache, pins **one** snapshot lease for all of
    /// them, and answers every spec — open, closed and profile alike — in one
    /// [`BatchExecutor::run`] over that lease. Returns one rendered response block per
    /// spec and the lease's generation tag.
    fn execute_specs(&self, specs: &[ExecSpec]) -> Result<(Vec<String>, String), String> {
        let entries = self.prepared.resolve(specs)?;
        let table = &entries[0].table;
        let lease = self
            .registry
            .read(table)
            .ok_or_else(|| format!("no snapshot published for table `{table}`"))?;
        // One pinned snapshot for the whole request: every answer below is bit-identical
        // to the sequential PreparedQuery answer on this exact snapshot.
        let executor = BatchExecutor::with_parallelism(
            pdqi_core::EngineSnapshot::clone(lease.snapshot()),
            self.parallelism,
        );
        let requests: Vec<BatchRequest> = specs
            .iter()
            .zip(&entries)
            .map(|(spec, entry)| spec.request(Arc::clone(&entry.query)))
            .collect();
        let blocks = executor
            .run(&requests)
            .into_iter()
            .map(|result| match result {
                Err(e) => format!("error query error: {e}"),
                Ok(BatchResponse::Rows(answers)) => {
                    rows_block(answers.columns(), answers.rows().iter())
                }
                Ok(BatchResponse::Outcome(outcome)) => outcome_line(&outcome),
                Ok(BatchResponse::Profile(profile)) => profile_line(&profile),
            })
            .collect();
        Ok((blocks, format!("gen={}", lease.generation())))
    }
}
