//! The serving loop: accept threads, per-connection handlers, request dispatch.
//!
//! The server is **std-only** (this build environment has no async runtime): a
//! configurable number of accept-loop threads share one `TcpListener` (the kernel wakes
//! exactly one blocked acceptor per incoming connection — the thread-per-core accept
//! pattern), and every accepted connection gets a handler thread that reads frames,
//! dispatches them, and writes response frames back.
//!
//! Dispatch is where the serving-core architecture shows:
//!
//! * `EXEC`/`BATCH` **pin one snapshot** per request — a [`SnapshotRegistry::read`]
//!   lease taken once, before any work — and run every query of the request through a
//!   [`BatchExecutor`] over that snapshot. Answers are bit-identical to calling
//!   [`pdqi_core::PreparedQuery::execute`] on the leased snapshot directly, and the
//!   response reports the pinned generation;
//! * `SET-PRIORITY` and `ALTER` commit a [`Change`] **off the serving path** through
//!   [`SnapshotRegistry::commit`]: the replacement snapshot derives (and eagerly
//!   re-enumerates what the change invalidated) while in-flight readers keep their
//!   leases, then one atomic swap publishes it with the change's scope. An added FD
//!   is scanned only inside its LHS groups, never by re-pairing the whole relation;
//! * prepared queries are parsed once (`PREPARE`) into a shared plan cache keyed by
//!   client-chosen ids, so repeated `EXEC`s skip parsing and classification exactly
//!   like prepared statements in the SQL session.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use pdqi_constraints::FunctionalDependency;
use pdqi_core::{
    BatchExecutor, BatchRequest, BatchResponse, Change, ChunkTuner, Parallelism, PreparedQuery,
    SnapshotLease, SnapshotRegistry, SubscribeOptions, SubscriptionEvent, SubscriptionManager,
    WriteCoalescer, WriteFrame,
};
use pdqi_priority::Priority;
use pdqi_relation::{TupleId, Value, ValueType};

use crate::protocol::{
    escape_field, push_op_rows, write_frame, ExecMode, ExecSpec, FrameError, Request,
};

/// How often blocked connection reads wake up to check the shutdown flag. Connections
/// use a read timeout instead of a blocking read so a `shutdown` call (or a remote
/// `SHUTDOWN` command) drains handler threads promptly without poking every socket.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Cap on the shared `PREPARE` plan cache (cleared wholesale when exceeded): the ids
/// are client-chosen, so an unbounded map would let one misbehaving client grow a
/// long-lived server without limit.
const PREPARED_CACHE_LIMIT: usize = 4096;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads used by query execution and revision revalidation.
    pub parallelism: Parallelism,
    /// Accept-loop threads sharing the listener (thread-per-core accept; clamped to at
    /// least 1).
    pub acceptors: usize,
    /// Group-commit delay for the write coalescer: the batch leader waits this long
    /// after taking a table's revision lock so concurrent writes join the batch
    /// (zero — the default — coalesces only writes already queued behind the lock).
    pub write_hold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            parallelism: Parallelism::sequential(),
            acceptors: 1,
            write_hold: Duration::ZERO,
        }
    }
}

/// A prepared query stored under a client-chosen id.
struct PreparedEntry {
    query: Arc<PreparedQuery>,
    /// The single table the query reads (the registry serves snapshots per table).
    table: String,
}

/// State shared by every connection handler.
struct ServerState {
    registry: Arc<SnapshotRegistry>,
    prepared: RwLock<HashMap<String, Arc<PreparedEntry>>>,
    parallelism: Parallelism,
    /// One chunk-cost feedback loop per server: measured per-chunk wall-clock from
    /// single-query requests converges the chunk split for the whole process.
    tuner: Arc<ChunkTuner>,
    /// Accept-loop thread count: a remote `SHUTDOWN` must wake every one of them.
    acceptors: usize,
    /// The continuous-query manager, attached to `registry` as a swap observer:
    /// `SUBSCRIBE`d connections drain their bounded per-subscriber queues on idle
    /// polls and after every response.
    subscriptions: Arc<SubscriptionManager>,
    /// The write-pipelining front: every `MUTATE`/`INSERT`/`DELETE` goes through this
    /// bounded per-table coalescing queue, so frames arriving while the revision lock
    /// is busy fold into one `Mutation`, one derivation and one swap.
    writes: Arc<WriteCoalescer>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    /// `ALTER` requests that swapped in an FD-delta-derived snapshot (the server has
    /// no rebuild fallback — a failed delta is an `ERR`, counted nowhere).
    alters_applied: AtomicU64,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A handle on a running server: its address, a shutdown trigger, and a join point.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptors: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the server serves from.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.state.registry
    }

    /// Asks the server to stop and joins every thread: in-flight requests finish,
    /// acceptors wake and exit, handler threads drain.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
        // Wake every blocked acceptor: each connect is accepted by exactly one of them,
        // which then observes the flag and exits.
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.addr);
        }
        self.join_threads();
    }

    /// Blocks until the server stops (via [`ServerHandle::shutdown`] from another
    /// thread's clone of the trigger, or a remote `SHUTDOWN` command).
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for acceptor in self.acceptors.drain(..) {
            let _ = acceptor.join();
        }
        let connections = std::mem::take(&mut *self.connections.lock().expect("connection list"));
        for connection in connections {
            let _ = connection.join();
        }
    }
}

/// Binds `addr` and starts serving `registry` — see the [module docs](self).
///
/// Returns once the listener is bound and the accept loops are running; the returned
/// handle reports the bound address (pass port 0 for an ephemeral port) and shuts the
/// server down cleanly when asked.
pub fn serve(
    addr: impl ToSocketAddrs,
    registry: Arc<SnapshotRegistry>,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let acceptor_count = config.acceptors.max(1);
    let subscriptions = SubscriptionManager::new(config.parallelism);
    subscriptions.attach(&registry);
    let writes =
        WriteCoalescer::with_hold(Arc::clone(&registry), config.parallelism, config.write_hold);
    let state = Arc::new(ServerState {
        registry,
        prepared: RwLock::new(HashMap::new()),
        parallelism: config.parallelism,
        tuner: ChunkTuner::shared(),
        acceptors: acceptor_count,
        subscriptions,
        writes,
        shutdown: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        protocol_errors: AtomicU64::new(0),
        alters_applied: AtomicU64::new(0),
    });
    let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut acceptors = Vec::new();
    for _ in 0..acceptor_count {
        let listener = listener.try_clone()?;
        let state = Arc::clone(&state);
        let connections = Arc::clone(&connections);
        let wake_addr = addr;
        acceptors.push(std::thread::spawn(move || {
            accept_loop(&listener, wake_addr, &state, &connections);
        }));
    }
    Ok(ServerHandle { addr, state, acceptors, connections })
}

fn accept_loop(
    listener: &TcpListener,
    wake_addr: SocketAddr,
    state: &Arc<ServerState>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if state.shutting_down() {
                return;
            }
            // Persistent accept failures (e.g. EMFILE when handler threads exhaust
            // file descriptors) must not hot-spin a core; back off briefly so the
            // handlers that would free descriptors get to run.
            std::thread::sleep(SHUTDOWN_POLL);
            continue;
        };
        if state.shutting_down() {
            // The connection that woke us (or a late client): nothing more to serve.
            return;
        }
        let state = Arc::clone(state);
        let handle = std::thread::spawn(move || {
            // A remote SHUTDOWN must wake this server's own acceptors; connecting needs
            // the bound address, so the handler closes over it.
            handle_connection(stream, &state, wake_addr);
        });
        connections.lock().expect("connection list").push(handle);
        // Reap finished handlers so long-lived servers do not accumulate handles.
        let mut list = connections.lock().expect("connection list");
        let mut index = 0;
        while index < list.len() {
            if list[index].is_finished() {
                let _ = list.swap_remove(index).join();
            } else {
                index += 1;
            }
        }
    }
}

/// Reads one frame from a stream whose read timeout is [`SHUTDOWN_POLL`], resuming
/// across timeouts. A timeout **before** the first byte of a frame is an idle poll and
/// returns `Ok(None)`; a timeout **mid-frame** keeps waiting for the remaining bytes —
/// partially-read frames must never be abandoned and re-parsed from the middle, which
/// would desynchronise the stream (a client sending prefix and payload in separate
/// segments more than one poll apart would otherwise be cut off).
pub(crate) fn read_frame_patient(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Result<Option<String>, FrameError> {
    let mut len_bytes = [0u8; 4];
    if !fill_buffer(stream, shutdown, &mut len_bytes, true)? {
        return Ok(None);
    }
    let announced = u32::from_be_bytes(len_bytes) as usize;
    if announced > crate::protocol::MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { announced });
    }
    let mut payload = vec![0u8; announced];
    fill_buffer(stream, shutdown, &mut payload, false)?;
    String::from_utf8(payload).map(Some).map_err(|_| FrameError::NotUtf8)
}

/// Fills `buf` completely, retrying read timeouts. With `at_boundary`, a timeout before
/// the first byte returns `Ok(false)` (nothing started) and EOF reports
/// [`FrameError::Closed`]; once any byte of the frame has been consumed — or when
/// filling the payload — timeouts retry until the server shuts down, and EOF is a
/// transport error (the peer vanished mid-message).
fn fill_buffer(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<bool, FrameError> {
    use std::io::Read as _;
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Io(io::ErrorKind::UnexpectedEof.into())
                });
            }
            Ok(read) => filled += read,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if at_boundary && filled == 0 {
                    return Ok(false);
                }
                if shutdown.load(Ordering::Relaxed) {
                    return Err(FrameError::Closed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// The subscriptions registered on one connection. Dropping the tracker (connection
/// close, error paths included) unregisters every one of them — a vanished subscriber
/// must not keep accumulating queued deltas in the manager.
struct ConnectionSubs {
    manager: Arc<SubscriptionManager>,
    ids: Vec<u64>,
}

impl ConnectionSubs {
    /// Renders every queued event of this connection's subscriptions as pushed
    /// frames, oldest first, in subscription order.
    fn pending_frames(&self) -> Vec<String> {
        let mut frames = Vec::new();
        for &sub in &self.ids {
            for event in self.manager.drain(sub) {
                frames.push(render_push(sub, &event));
            }
        }
        frames
    }
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
    let render_rows = |rows: &[Vec<Value>]| -> Vec<Vec<String>> {
        rows.iter().map(|row| row.iter().map(|v| v.to_string()).collect()).collect()
    };
    match event {
        SubscriptionEvent::Delta(delta) => {
            let mut out = format!(
                "DELTA sub={sub} gen={} added={} removed={}",
                delta.generation,
                delta.added.len(),
                delta.removed.len()
            );
            push_op_rows(&mut out, '+', &render_rows(&delta.added));
            push_op_rows(&mut out, '-', &render_rows(&delta.removed));
            out
        }
        SubscriptionEvent::Lagged { generation, rows } => {
            let mut out = format!("LAGGED sub={sub} gen={generation} rows {}", rows.len());
            for row in rows {
                let rendered: Vec<String> =
                    row.iter().map(|v| escape_field(&v.to_string())).collect();
                out.push('\n');
                out.push_str(&rendered.join("\t"));
            }
            out
        }
    }
}

/// Writes every pending pushed frame of this connection's subscriptions. Returns
/// `false` when the peer is gone.
fn flush_pushes(writer: &mut impl io::Write, subs: &ConnectionSubs) -> bool {
    for frame in subs.pending_frames() {
        if write_frame(writer, &frame).is_err() {
            return false;
        }
    }
    true
}

fn handle_connection(stream: TcpStream, state: &Arc<ServerState>, wake_addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(SHUTDOWN_POLL));
    let mut reader = match stream.try_clone() {
        Ok(reader) => reader,
        Err(_) => return,
    };
    let mut writer = io::BufWriter::new(stream);
    let mut subs = ConnectionSubs { manager: Arc::clone(&state.subscriptions), ids: Vec::new() };
    loop {
        if state.shutting_down() {
            return;
        }
        let payload = match read_frame_patient(&mut reader, &state.shutdown) {
            Ok(Some(payload)) => payload,
            // Idle poll: no frame started; push queued subscription events, check the
            // shutdown flag and keep waiting.
            Ok(None) => {
                if !flush_pushes(&mut writer, &subs) {
                    return;
                }
                continue;
            }
            Err(FrameError::Closed) => return,
            Err(malformed) => {
                // Oversized, truncated or non-UTF-8 frame: the framing itself is gone,
                // so answer once and drop the connection instead of guessing where the
                // next frame starts.
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut writer, &format!("ERR {malformed}"));
                return;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let (mut response, shutdown) = match Request::parse(&payload) {
            Err(message) => {
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                (format!("ERR {message}"), false)
            }
            Ok(Request::Shutdown) => ("OK bye".to_string(), true),
            Ok(request) => (dispatch(state, &request, &mut subs), false),
        };
        if response.len() > crate::protocol::MAX_FRAME_BYTES {
            // A legitimately huge answer set cannot be framed; answer with a small
            // ERR instead of killing the connection (the query itself succeeded —
            // the client can narrow the projection or filter).
            response = format!(
                "ERR response too large ({} bytes exceeds the {}-byte frame limit); \
                 narrow the query",
                response.len(),
                crate::protocol::MAX_FRAME_BYTES
            );
        }
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
        // A request that swapped a generation (MUTATE/INSERT/DELETE/SET-PRIORITY on
        // this very connection) has its subscription events queued by now — the swap
        // notification runs before the dispatch returns. Push them immediately rather
        // than waiting for the next idle poll.
        if !flush_pushes(&mut writer, &subs) {
            return;
        }
        if shutdown {
            let _ = writer.flush();
            state.shutdown.store(true, Ordering::Relaxed);
            // Wake every blocked acceptor, exactly like ServerHandle::shutdown: one
            // connect per acceptor thread, each accepted (or queued) once.
            for _ in 0..state.acceptors {
                let _ = TcpStream::connect(wake_addr);
            }
            return;
        }
    }
}

/// Answers one well-formed request. Every error is a protocol-level `ERR` response;
/// the connection stays usable. `subs` tracks the subscriptions registered on this
/// connection (pushed frames go to the connection that subscribed, and close
/// unregisters them).
fn dispatch(state: &ServerState, request: &Request, subs: &mut ConnectionSubs) -> String {
    match request {
        Request::Ping => "OK pong".to_string(),
        Request::Prepare { id, query } => match PreparedQuery::parse(query) {
            Err(e) => format!("ERR query error: {e}"),
            Ok(prepared) => {
                let tables = prepared.relations();
                let [table] = tables else {
                    return format!(
                        "ERR queries must read exactly one table (this one reads {})",
                        tables.len()
                    );
                };
                let entry =
                    Arc::new(PreparedEntry { table: table.clone(), query: Arc::new(prepared) });
                let columns = entry.query.free_vars().join(",");
                let mut prepared = state.prepared.write().expect("prepared lock");
                // Bound the network-facing plan cache: a client minting fresh ids per
                // request must not grow a long-lived server without bound. Like the
                // SQL session's statement cache, overflow clears wholesale — clients
                // re-PREPARE on `unknown prepared query`, so this only costs a
                // re-parse.
                if prepared.len() >= PREPARED_CACHE_LIMIT && !prepared.contains_key(id) {
                    prepared.clear();
                }
                prepared.insert(id.clone(), Arc::clone(&entry));
                format!("OK prepared {id} table={} columns={columns}", entry.table)
            }
        },
        Request::Exec(spec) => match execute_specs(state, std::slice::from_ref(spec)) {
            Err(message) => format!("ERR {message}"),
            Ok((lease, mut blocks)) => {
                let block = blocks.pop().expect("one response per spec");
                match block.strip_prefix("error ") {
                    // A single failed execution reports as a plain ERR response.
                    Some(message) => format!("ERR {message}"),
                    None => {
                        // The generation tag belongs on the head line; the block may
                        // carry header and row lines after it.
                        let (head, rest) = match block.split_once('\n') {
                            Some((head, rest)) => (head, Some(rest)),
                            None => (block.as_str(), None),
                        };
                        let mut out = format!("OK {head} gen={}", lease.generation());
                        if let Some(rest) = rest {
                            out.push('\n');
                            out.push_str(rest);
                        }
                        out
                    }
                }
            }
        },
        Request::Explain { id, family, semantics } => {
            let entry = state.prepared.read().expect("prepared lock").get(id).cloned();
            let Some(entry) = entry else {
                return format!("ERR unknown prepared query `{id}` (PREPARE it first)");
            };
            let Some(lease) = state.registry.read(&entry.table) else {
                return format!("ERR no snapshot published for table `{}`", entry.table);
            };
            // The plan renders against the pinned lease; the appended actuals execute
            // through the ordinary memoising pipeline on that same snapshot.
            match entry.query.explain(lease.snapshot(), *family, *semantics, state.parallelism) {
                Ok(report) => format!(
                    "OK explain {id} {} gen={}\n{}",
                    family.label(),
                    lease.generation(),
                    report.trim_end()
                ),
                Err(e) => format!("ERR query error: {e}"),
            }
        }
        Request::Batch(specs) => match execute_specs(state, specs) {
            Err(message) => format!("ERR {message}"),
            Ok((lease, blocks)) => {
                let mut out = format!("OK batch {} gen={}", blocks.len(), lease.generation());
                for block in blocks {
                    out.push('\n');
                    out.push_str(&block);
                }
                out
            }
        },
        Request::Insert { table, rows } => apply_mutation(state, table, rows, true),
        Request::Delete { table, rows } => apply_mutation(state, table, rows, false),
        Request::Mutate { table, inserts, deletes } => {
            let inserts = match type_rows(state, table, inserts) {
                Ok(rows) => rows,
                Err(message) => return message,
            };
            let deletes = match type_rows(state, table, deletes) {
                Ok(rows) => rows,
                Err(message) => return message,
            };
            // One frame → one Mutation batch → one delta derivation → one generation
            // swap; the coalescing queue additionally folds frames from *other*
            // connections that arrive while this table's revision lock is busy into
            // the same derivation.
            match state.writes.apply(table, WriteFrame::new(inserts, deletes)) {
                Ok(outcome) => format!(
                    "OK mutated inserted {} deleted {} gen={}",
                    outcome.inserted, outcome.deleted, outcome.generation
                ),
                Err(e) => format!("ERR {e}"),
            }
        }
        Request::Subscribe { id, family, semantics, report, queue } => {
            let entry = state.prepared.read().expect("prepared lock").get(id).cloned();
            let Some(entry) = entry else {
                return format!("ERR unknown prepared query `{id}` (PREPARE it first)");
            };
            let options =
                SubscribeOptions { strategy: report.to_strategy(), queue_capacity: *queue };
            match state.subscriptions.subscribe_with(
                &state.registry,
                Arc::clone(&entry.query),
                *family,
                *semantics,
                options,
            ) {
                Ok(subscribed) => {
                    subs.ids.push(subscribed.id);
                    let mut out = format!(
                        "OK subscribed sub={} gen={} rows {}\n{}",
                        subscribed.id,
                        subscribed.generation,
                        subscribed.rows.len(),
                        subscribed.columns.join("\t")
                    );
                    for row in &subscribed.rows {
                        let rendered: Vec<String> =
                            row.iter().map(|v| escape_field(&v.to_string())).collect();
                        out.push('\n');
                        out.push_str(&rendered.join("\t"));
                    }
                    out
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
            state.subscriptions.unsubscribe(*sub);
            format!("OK unsubscribed sub={sub}")
        }
        Request::Alter { table, fd } => {
            let committed = state.registry.commit(table, None, state.parallelism, |current| {
                let ctx = current.context_of(table).ok_or_else(|| {
                    format!("registry snapshot for `{table}` does not contain that relation")
                })?;
                let fd = FunctionalDependency::parse(ctx.instance().schema(), fd)
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>(Change::AddFd { relation: table.clone(), fd })
            });
            match committed {
                Ok((generation, _)) => {
                    state.alters_applied.fetch_add(1, Ordering::Relaxed);
                    format!("OK altered {table} gen={generation}")
                }
                Err(e) => format!("ERR {e}"),
            }
        }
        Request::SetPriority { table, pairs } => {
            let pairs: Vec<(TupleId, TupleId)> =
                pairs.iter().map(|&(w, l)| (TupleId(w), TupleId(l))).collect();
            let committed = state.registry.commit(table, None, state.parallelism, |current| {
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
            let Some(lease) = state.registry.read(table) else {
                return format!("ERR no snapshot published for table `{table}`");
            };
            let Some(ctx) = lease.snapshot().context_of(table) else {
                return format!(
                    "ERR registry snapshot for `{table}` does not contain that relation"
                );
            };
            let instance = ctx.instance();
            let mut out =
                format!("OK describe {table} rows={} gen={}", instance.len(), lease.generation());
            for attribute in instance.schema().attributes() {
                let ty = match attribute.ty {
                    ValueType::Int => "INT",
                    ValueType::Name => "NAME",
                };
                out.push('\n');
                out.push_str(&escape_field(&attribute.name));
                out.push('\t');
                out.push_str(ty);
            }
            out
        }
        Request::Stats => {
            let registry = state.registry.stats();
            let mut out = format!(
                "OK stats tables={} reads={} swaps={} prepared={} requests={} protocol_errors={}",
                registry.tables,
                registry.reads,
                registry.swaps,
                state.prepared.read().expect("prepared lock").len(),
                state.requests.load(Ordering::Relaxed),
                state.protocol_errors.load(Ordering::Relaxed),
            );
            let subscribe = state.subscriptions.stats();
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
            let window = state.subscriptions.window_stats();
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
            let writes = state.writes.stats();
            out.push_str(&format!(
                "\nwrites frames={} batches={} coalesced_writes={} derivations_saved={}",
                writes.frames, writes.batches, writes.coalesced_writes, writes.derivations_saved,
            ));
            // Schema-delta and evaluation-path accounting. Every server-side ALTER is
            // a delta (there is no rebuild fallback over the wire); the eval counters
            // are process-wide — vectorized and scalar executions of the columnar hot
            // path, bit-identical by construction.
            out.push_str(&format!(
                "\nschema alters={}",
                state.alters_applied.load(Ordering::Relaxed)
            ));
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
            for table in state.registry.table_names() {
                if let Some(stats) = state.registry.table_stats(&table) {
                    out.push_str(&format!(
                        "\ntable {table} gen={} reads={} swaps={} subs={}",
                        stats.generation,
                        stats.reads,
                        stats.swaps,
                        state.subscriptions.subscriber_count_for(&table),
                    ));
                }
            }
            out
        }
        Request::Shutdown => unreachable!("SHUTDOWN is handled by the connection loop"),
    }
}

/// Answers an `INSERT`/`DELETE` request: types the raw row fields against the served
/// table's schema, then publishes a **delta-derived** snapshot through the server's
/// [`WriteCoalescer`] — the replacement re-partitions only the conflict components
/// the mutation touches and carries every untouched memo entry, building off the
/// serving path under the same per-table writer lock `SET-PRIORITY` uses; frames
/// queued while that lock is busy fold into one derivation. The response reports what
/// the mutation actually did (set semantics: duplicate inserts and absent deletes are
/// no-ops) and the generation its batch published.
fn apply_mutation(state: &ServerState, table: &str, rows: &[Vec<String>], insert: bool) -> String {
    let typed = match type_rows(state, table, rows) {
        Ok(typed) => typed,
        Err(message) => return message,
    };
    let frame = if insert {
        WriteFrame::new(typed, Vec::new())
    } else {
        WriteFrame::new(Vec::new(), typed)
    };
    match state.writes.apply(table, frame) {
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
fn type_rows(
    state: &ServerState,
    table: &str,
    rows: &[Vec<String>],
) -> Result<Vec<Vec<Value>>, String> {
    let Some(lease) = state.registry.read(table) else {
        return Err(format!("ERR no snapshot published for table `{table}`"));
    };
    let Some(ctx) = lease.snapshot().context_of(table) else {
        return Err(format!("ERR registry snapshot for `{table}` does not contain that relation"));
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
/// them, and runs them through a [`BatchExecutor`] over that lease. Returns the lease
/// (for the generation tag) and one rendered response block per spec.
fn execute_specs(
    state: &ServerState,
    specs: &[ExecSpec],
) -> Result<(SnapshotLease, Vec<String>), String> {
    let prepared = state.prepared.read().expect("prepared lock");
    let entries: Vec<Arc<PreparedEntry>> = specs
        .iter()
        .map(|spec| {
            prepared
                .get(&spec.id)
                .cloned()
                .ok_or_else(|| format!("unknown prepared query `{}` (PREPARE it first)", spec.id))
        })
        .collect::<Result<_, _>>()?;
    drop(prepared);
    let table = &entries[0].table;
    if let Some(mixed) = entries.iter().find(|entry| entry.table != *table) {
        return Err(format!(
            "a batch pins one snapshot: all queries must read one table (got `{table}` and `{}`)",
            mixed.table
        ));
    }
    let lease = state
        .registry
        .read(table)
        .ok_or_else(|| format!("no snapshot published for table `{table}`"))?;
    // One pinned snapshot for the whole request: every answer below is bit-identical
    // to PreparedQuery::execute / consistent_answer on this exact snapshot. The
    // server-wide tuner feeds measured chunk costs across requests, so single-EXEC
    // traffic converges its chunk split over the connection's lifetime.
    let executor = BatchExecutor::with_tuner(
        pdqi_core::EngineSnapshot::clone(lease.snapshot()),
        state.parallelism,
        Arc::clone(&state.tuner),
    );
    // PROFILE specs bypass the executor: a profile walks the repair product in
    // deterministic order on the leased snapshot itself. Executor blocks are
    // re-interleaved in spec order below, so mixed batches keep their shape.
    let requests: Vec<BatchRequest> = specs
        .iter()
        .zip(&entries)
        .filter(|(spec, _)| spec.mode != ExecMode::Profile)
        .map(|(spec, entry)| {
            let query = Arc::clone(&entry.query);
            match spec.mode.semantics() {
                Some(semantics) => BatchRequest::execute(query, spec.family, semantics),
                None => BatchRequest::consistent_answer(query, spec.family),
            }
        })
        .collect();
    let mut executor_blocks = executor
        .run(&requests)
        .into_iter()
        .map(|result| match result {
            Err(e) => format!("error query error: {e}"),
            Ok(BatchResponse::Rows(answers)) => {
                let mut block =
                    format!("rows {}\n{}", answers.rows().len(), answers.columns().join("\t"));
                for row in answers.rows() {
                    // Values are escaped so embedded tabs/newlines cannot shift the
                    // positional row structure (the client unescapes per field).
                    let rendered: Vec<String> =
                        row.iter().map(|v| escape_field(&v.to_string())).collect();
                    block.push('\n');
                    block.push_str(&rendered.join("\t"));
                }
                block
            }
            Ok(BatchResponse::Outcome(outcome)) => {
                let verdict = if outcome.certainly_true {
                    "true"
                } else if outcome.certainly_false {
                    "false"
                } else {
                    "undetermined"
                };
                format!("outcome {verdict} examined={}", outcome.examined)
            }
        })
        .collect::<Vec<String>>()
        .into_iter();
    let position = |at: Option<u128>| at.map_or("none".to_string(), |v| v.to_string());
    let blocks = specs
        .iter()
        .zip(&entries)
        .map(|(spec, entry)| {
            if spec.mode != ExecMode::Profile {
                return executor_blocks.next().expect("one executor block per non-profile spec");
            }
            match entry.query.closed_profile(lease.snapshot(), spec.family) {
                Ok(profile) => format!(
                    "profile total={} first_true={} first_false={}",
                    profile.total,
                    position(profile.first_true),
                    position(profile.first_false)
                ),
                Err(e) => format!("error query error: {e}"),
            }
        })
        .collect();
    Ok((lease, blocks))
}
