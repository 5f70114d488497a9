//! A blocking client for the `pdqi` wire protocol.
//!
//! [`Client`] is deliberately thin: one request frame out, one response frame in, plus
//! typed helpers that parse the response head. The CLI's `connect` subcommand and the
//! serving tests and benches all drive servers through it.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use pdqi_core::{FamilyKind, Semantics};
use pdqi_relation::ValueType;

use crate::protocol::{
    read_frame, read_frame_idle, write_frame, ExecMode, ExecSpec, FrameError, ReportSpec, Request,
};

/// Errors raised by client calls.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing failed.
    Frame(FrameError),
    /// The server answered `ERR …`.
    Server(String),
    /// The server answered `OK` but the response body did not have the promised shape.
    Malformed(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
            ClientError::Malformed(message) => write!(f, "malformed response: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// The result of one `EXEC` (or one entry of a `BATCH`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Open-query rows: column headers plus tab-split rows, sorted and de-duplicated.
    Rows {
        /// The column headers (the query's free variables).
        columns: Vec<String>,
        /// The answer rows, one `Vec<String>` per row.
        rows: Vec<Vec<String>>,
    },
    /// Closed-query verdict (`true`, `false` or `undetermined`).
    Outcome {
        /// The rendered verdict.
        verdict: String,
        /// Preferred repairs the server examined (0 for the polynomial fast path).
        examined: u64,
    },
    /// Closed-query profile: the repair-product size and the first true/false
    /// positions within it (`PROFILE` mode — the scatter-gather merge input).
    Profile {
        /// The size of the product of per-component preferred repairs.
        total: u128,
        /// Position of the first repair satisfying the query, if any.
        first_true: Option<u128>,
        /// Position of the first repair falsifying the query, if any.
        first_false: Option<u128>,
    },
    /// This batch entry failed (other entries may still have succeeded).
    Error(String),
}

/// The server's answer to a `DESCRIBE`: the served table's shape at one generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDescription {
    /// The described table.
    pub table: String,
    /// Its current row count.
    pub rows: usize,
    /// The snapshot generation the description was taken at.
    pub generation: u64,
    /// Column names and types, in schema order.
    pub columns: Vec<(String, ValueType)>,
}

/// One pushed subscription frame, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushEvent {
    /// An incremental answer change for one subscription.
    Delta {
        /// The subscription the delta belongs to.
        sub: u64,
        /// The snapshot generation the delta carries the answer to.
        generation: u64,
        /// Rows that entered the answer, tab-split and unescaped.
        added: Vec<Vec<String>>,
        /// Rows that left the answer.
        removed: Vec<Vec<String>>,
    },
    /// The subscriber fell behind and the server resynced it with a full answer.
    Lagged {
        /// The subscription that lagged.
        sub: u64,
        /// The generation of the full answer below.
        generation: u64,
        /// The complete current answer rows.
        rows: Vec<Vec<String>>,
    },
}

/// The server's answer to a successful `SUBSCRIBE`: the subscription id plus the full
/// initial answer every later [`PushEvent::Delta`] is relative to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeReply {
    /// The subscription id (`UNSUBSCRIBE` takes it; pushed frames carry it).
    pub sub: u64,
    /// The generation the initial answer was computed at.
    pub generation: u64,
    /// The column headers (the query's free variables).
    pub columns: Vec<String>,
    /// The initial answer rows.
    pub rows: Vec<Vec<String>>,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Pushed `DELTA `/`LAGGED ` frames that arrived interleaved with a response;
    /// drained by [`Client::try_event`] / [`Client::wait_event`] before the socket is.
    pending: VecDeque<String>,
}

impl Client {
    /// Connects to a `pdqi` server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: BufWriter::new(stream), pending: VecDeque::new() })
    }

    /// Sends one raw payload and returns the raw response payload. `ERR` responses are
    /// returned verbatim, not turned into [`ClientError::Server`] — this is the escape
    /// hatch scripted sessions (`pdqi connect`) use.
    ///
    /// Pushed subscription frames that arrive before the response are buffered for
    /// [`Client::try_event`] / [`Client::wait_event`], never returned from here.
    pub fn request_raw(&mut self, payload: &str) -> Result<String, ClientError> {
        write_frame(&mut self.writer, payload)?;
        loop {
            let response = read_frame(&mut self.reader)?;
            if response.starts_with("DELTA ") || response.starts_with("LAGGED ") {
                self.pending.push_back(response);
                continue;
            }
            return Ok(response);
        }
    }

    /// Sends a typed request; `ERR` responses become [`ClientError::Server`].
    fn request(&mut self, request: &Request) -> Result<String, ClientError> {
        let response = self.request_raw(&request.render())?;
        match response.strip_prefix("ERR ") {
            Some(message) => Err(ClientError::Server(message.to_string())),
            None => Ok(response),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// Parses and stores `query` under `id` on the server.
    pub fn prepare(&mut self, id: &str, query: &str) -> Result<(), ClientError> {
        self.request(&Request::Prepare { id: id.to_string(), query: query.to_string() }).map(|_| ())
    }

    /// Executes a prepared query; returns the outcome and the snapshot generation the
    /// server answered against.
    pub fn exec(
        &mut self,
        id: &str,
        family: FamilyKind,
        mode: ExecMode,
    ) -> Result<(ExecOutcome, u64), ClientError> {
        let spec = ExecSpec { id: id.to_string(), family, mode };
        let response = self.request(&Request::Exec(spec))?;
        // split('\n'), not lines(): a zero-column answer row renders as an empty line,
        // which lines() would silently drop at the end of the payload.
        let mut lines = response.split('\n');
        let head = lines.next().unwrap_or("");
        let head = head.strip_prefix("OK ").unwrap_or(head);
        let generation = parse_tagged(head, "gen")?;
        let outcome = parse_block(head, &mut lines)?;
        Ok((outcome, generation))
    }

    /// Executes several prepared queries against one pinned snapshot; outcomes come
    /// back in request order, all answered at the returned generation.
    pub fn batch(&mut self, specs: Vec<ExecSpec>) -> Result<(Vec<ExecOutcome>, u64), ClientError> {
        let expected = specs.len();
        let response = self.request(&Request::Batch(specs))?;
        let mut lines = response.split('\n');
        let head = lines.next().unwrap_or("");
        let generation = parse_tagged(head, "gen")?;
        let mut outcomes = Vec::with_capacity(expected);
        while let Some(line) = lines.next() {
            if line.trim().is_empty() {
                continue;
            }
            outcomes.push(parse_block(line, &mut lines)?);
        }
        if outcomes.len() != expected {
            return Err(ClientError::Malformed(format!(
                "expected {expected} batch responses, got {}",
                outcomes.len()
            )));
        }
        Ok((outcomes, generation))
    }

    /// Fetches the costed physical plan the server's planner picks for a prepared
    /// query — the deterministic plan tree (estimated cardinalities, join order,
    /// per-component strategies, eval path) followed by the post-execution actuals —
    /// plus the generation of the snapshot it was planned against.
    pub fn explain(
        &mut self,
        id: &str,
        family: FamilyKind,
        semantics: Semantics,
    ) -> Result<(String, u64), ClientError> {
        let response = self.request(&Request::Explain { id: id.to_string(), family, semantics })?;
        let (head, report) = response
            .split_once('\n')
            .ok_or_else(|| ClientError::Malformed(format!("no plan body in `{response}`")))?;
        let generation = parse_tagged(head, "gen")?;
        Ok((report.to_string(), generation))
    }

    /// Inserts rows into `table` over the wire. The server types the raw fields
    /// against the served schema and publishes a **delta-derived** snapshot (affected
    /// conflict components only — no rebuild). Returns how many rows were genuinely
    /// inserted (duplicates collapse under set semantics) and the new generation.
    pub fn insert(
        &mut self,
        table: &str,
        rows: &[Vec<String>],
    ) -> Result<(usize, u64), ClientError> {
        self.mutation_request(
            Request::Insert { table: table.to_string(), rows: rows.to_vec() },
            "inserted",
        )
    }

    /// Deletes rows (by value) from `table` over the wire; absent rows are no-ops.
    /// Returns how many tuples were genuinely removed and the new generation.
    pub fn delete(
        &mut self,
        table: &str,
        rows: &[Vec<String>],
    ) -> Result<(usize, u64), ClientError> {
        self.mutation_request(
            Request::Delete { table: table.to_string(), rows: rows.to_vec() },
            "deleted",
        )
    }

    /// Applies one mixed batch of inserts and deletes to `table` as a **single**
    /// generation swap (one delta derivation, one subscription delta). Returns
    /// `(inserted, deleted, generation)`.
    pub fn mutate(
        &mut self,
        table: &str,
        inserts: &[Vec<String>],
        deletes: &[Vec<String>],
    ) -> Result<(usize, usize, u64), ClientError> {
        let response = self.request(&Request::Mutate {
            table: table.to_string(),
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        })?;
        let head = response.lines().next().unwrap_or("");
        Ok((counted(head, "inserted")?, counted(head, "deleted")?, parse_tagged(head, "gen")?))
    }

    fn mutation_request(
        &mut self,
        request: Request,
        verb: &str,
    ) -> Result<(usize, u64), ClientError> {
        let response = self.request(&request)?;
        let head = response.lines().next().unwrap_or("");
        Ok((counted(head, verb)?, parse_tagged(head, "gen")?))
    }

    /// Registers a continuous query on the prepared query `id` and switches the
    /// connection into push mode: subsequent swaps of the query's table arrive as
    /// [`PushEvent`]s through [`Client::try_event`] / [`Client::wait_event`] /
    /// [`Client::events`].
    pub fn subscribe(
        &mut self,
        id: &str,
        family: FamilyKind,
        semantics: Semantics,
    ) -> Result<SubscribeReply, ClientError> {
        self.subscribe_with(id, family, semantics, ReportSpec::default(), None)
    }

    /// [`Client::subscribe`] with an explicit report strategy and queue bound: `report`
    /// maps to the wire's `EVERY n` / `WINDOW n` / `COALESCE ms` clause and `queue`
    /// to `QUEUE n` (a per-subscription override of the server's push-queue capacity).
    pub fn subscribe_with(
        &mut self,
        id: &str,
        family: FamilyKind,
        semantics: Semantics,
        report: ReportSpec,
        queue: Option<usize>,
    ) -> Result<SubscribeReply, ClientError> {
        let response = self.request(&Request::Subscribe {
            id: id.to_string(),
            family,
            semantics,
            report,
            queue,
        })?;
        let mut lines = response.split('\n');
        let head = lines.next().unwrap_or("");
        let sub = parse_tagged(head, "sub")?;
        let generation = parse_tagged(head, "gen")?;
        let rows_head = head
            .find("rows ")
            .map(|at| &head[at..])
            .ok_or_else(|| ClientError::Malformed(format!("no `rows <n>` in `{head}`")))?;
        match parse_block(rows_head, &mut lines)? {
            ExecOutcome::Rows { columns, rows } => {
                Ok(SubscribeReply { sub, generation, columns, rows })
            }
            other => Err(ClientError::Malformed(format!("unexpected subscribe body {other:?}"))),
        }
    }

    /// Drops a subscription registered on this connection.
    pub fn unsubscribe(&mut self, sub: u64) -> Result<(), ClientError> {
        self.request(&Request::Unsubscribe { sub }).map(|_| ())
    }

    /// Returns one pushed event if one is already buffered or immediately readable;
    /// never blocks longer than one short poll.
    pub fn try_event(&mut self) -> Result<Option<PushEvent>, ClientError> {
        self.wait_event(Duration::from_millis(1))
    }

    /// Waits up to `timeout` for one pushed event. The timeout only gates the wait for
    /// the **first** byte: once a frame starts arriving the read patiently finishes it
    /// (a half-read frame would desynchronise the stream). Returns `Ok(None)` on
    /// timeout; the socket is back in blocking mode either way.
    pub fn wait_event(&mut self, timeout: Duration) -> Result<Option<PushEvent>, ClientError> {
        if let Some(payload) = self.pending.pop_front() {
            return parse_push(&payload).map(Some);
        }
        let deadline = Instant::now() + timeout;
        let result = loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            if let Err(e) =
                self.reader.get_ref().set_read_timeout(Some(wait.max(Duration::from_millis(1))))
            {
                break Err(FrameError::Io(e));
            }
            match read_frame_idle(&mut self.reader, || true) {
                Ok(None) if Instant::now() < deadline => {}
                read => break read,
            }
        };
        self.reader.get_ref().set_read_timeout(None).ok();
        match result? {
            None => Ok(None),
            Some(payload) if payload.starts_with("DELTA ") || payload.starts_with("LAGGED ") => {
                parse_push(&payload).map(Some)
            }
            Some(payload) => {
                let head = payload.lines().next().unwrap_or("");
                Err(ClientError::Malformed(format!("unexpected non-push frame `{head}`")))
            }
        }
    }

    /// A blocking iterator over pushed events; ends when the server closes the
    /// connection, yields one final `Err` on any other failure.
    pub fn events(&mut self) -> Events<'_> {
        Events { client: self, done: false }
    }

    /// Replaces `table`'s priority with explicit `winner ≻ loser` tuple-id pairs and
    /// swaps the revised snapshot in; returns the new generation.
    pub fn set_priority(&mut self, table: &str, pairs: &[(u32, u32)]) -> Result<u64, ClientError> {
        let response = self
            .request(&Request::SetPriority { table: table.to_string(), pairs: pairs.to_vec() })?;
        parse_tagged(response.lines().next().unwrap_or(""), "gen")
    }

    /// Adds one functional dependency (`"lhs attrs -> rhs attrs"`, parsed against the
    /// served schema) to `table` and swaps in the delta-derived snapshot — new
    /// conflict edges are scanned only inside the FD's left-hand-side groups, never by
    /// re-pairing the whole relation. Returns the new generation.
    pub fn alter(&mut self, table: &str, fd: &str) -> Result<u64, ClientError> {
        let response =
            self.request(&Request::Alter { table: table.to_string(), fd: fd.to_string() })?;
        parse_tagged(response.lines().next().unwrap_or(""), "gen")
    }

    /// Fetches the closed-query profile of a prepared query: the repair-product size
    /// and the first true/false positions — what a coordinator merges across shards.
    pub fn profile(
        &mut self,
        id: &str,
        family: FamilyKind,
    ) -> Result<(ExecOutcome, u64), ClientError> {
        self.exec(id, family, ExecMode::Profile)
    }

    /// Describes a served table: row count, generation, column names and types.
    pub fn describe(&mut self, table: &str) -> Result<TableDescription, ClientError> {
        let response = self.request(&Request::Describe { table: table.to_string() })?;
        let mut lines = response.split('\n');
        let head = lines.next().unwrap_or("");
        // `OK describe <table> rows=<n> gen=<g>`: the table is the token after the verb.
        let table = head
            .split_whitespace()
            .skip_while(|token| *token != "describe")
            .nth(1)
            .ok_or_else(|| ClientError::Malformed(format!("no table in `{head}`")))?
            .to_string();
        let rows = usize::try_from(parse_tagged(head, "rows")?).unwrap_or(usize::MAX);
        let generation = parse_tagged(head, "gen")?;
        let mut columns = Vec::new();
        for line in lines {
            let Some((name, ty)) = line.split_once('\t') else {
                return Err(ClientError::Malformed(format!("bad column line `{line}`")));
            };
            let ty = match ty {
                "INT" => ValueType::Int,
                "NAME" => ValueType::Name,
                other => {
                    return Err(ClientError::Malformed(format!("unknown column type `{other}`")))
                }
            };
            columns.push((crate::protocol::unescape_field(name), ty));
        }
        Ok(TableDescription { table, rows, generation, columns })
    }

    /// The server's raw `STATS` response.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.request(&Request::Stats)
    }

    /// The server's write-coalescing counters, parsed from the `writes …` line of
    /// `STATS`: accepted frames, committed batches, frames that shared a batch with
    /// at least one other (`coalesced_writes`) and the derivations those shared
    /// batches saved.
    pub fn write_stats(&mut self) -> Result<pdqi_core::WriteStats, ClientError> {
        let stats = self.stats()?;
        let line = stats
            .lines()
            .find(|line| line.starts_with("writes "))
            .ok_or_else(|| ClientError::Malformed("no `writes` line in STATS".to_string()))?;
        Ok(pdqi_core::WriteStats {
            frames: parse_tagged(line, "frames")?,
            batches: parse_tagged(line, "batches")?,
            coalesced_writes: parse_tagged(line, "coalesced_writes")?,
            derivations_saved: parse_tagged(line, "derivations_saved")?,
        })
    }

    /// Asks the server to stop (the server answers, then shuts down).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

/// Blocking push-event iterator returned by [`Client::events`].
pub struct Events<'a> {
    client: &'a mut Client,
    done: bool,
}

impl Iterator for Events<'_> {
    type Item = Result<PushEvent, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match self.client.wait_event(Duration::from_secs(3600)) {
                Ok(Some(event)) => return Some(Ok(event)),
                Ok(None) => {}
                Err(ClientError::Frame(FrameError::Closed)) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Extracts `<verb> <count>` from a mutation response head.
fn counted(head: &str, verb: &str) -> Result<usize, ClientError> {
    head.split_whitespace()
        .skip_while(|token| *token != verb)
        .nth(1)
        .and_then(|token| token.parse().ok())
        .ok_or_else(|| ClientError::Malformed(format!("no `{verb} <n>` in `{head}`")))
}

/// Parses one pushed `DELTA `/`LAGGED ` frame into a [`PushEvent`].
fn parse_push(payload: &str) -> Result<PushEvent, ClientError> {
    let mut lines = payload.split('\n');
    let head = lines.next().unwrap_or("");
    if head.starts_with("DELTA ") {
        let sub = parse_tagged(head, "sub")?;
        let generation = parse_tagged(head, "gen")?;
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for line in lines {
            // `+\ta\tb` → op `+`, fields `[a, b]`; a bare op line is a zero-column row.
            let (op, fields) = match line.split_once('\t') {
                Some((op, rest)) => {
                    (op, rest.split('\t').map(crate::protocol::unescape_field).collect())
                }
                None => (line, Vec::new()),
            };
            match op {
                "+" => added.push(fields),
                "-" => removed.push(fields),
                _ => return Err(ClientError::Malformed(format!("bad delta row `{line}`"))),
            }
        }
        Ok(PushEvent::Delta { sub, generation, added, removed })
    } else if head.starts_with("LAGGED ") {
        let sub = parse_tagged(head, "sub")?;
        let generation = parse_tagged(head, "gen")?;
        let rows = lines
            .map(|line| {
                if line.is_empty() {
                    Vec::new()
                } else {
                    line.split('\t').map(crate::protocol::unescape_field).collect()
                }
            })
            .collect();
        Ok(PushEvent::Lagged { sub, generation, rows })
    } else {
        Err(ClientError::Malformed(format!("not a push frame `{head}`")))
    }
}

/// Extracts `tag=<u64>` from a response head line.
fn parse_tagged(line: &str, tag: &str) -> Result<u64, ClientError> {
    let prefix = format!("{tag}=");
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(&prefix))
        .and_then(|text| text.parse().ok())
        .ok_or_else(|| ClientError::Malformed(format!("no `{tag}=` in `{line}`")))
}

/// Parses one response block: `rows <n>` (consuming a header and `n` row lines from
/// `lines`), `outcome <verdict> examined=<k>`, or `error <message>`.
fn parse_block<'a>(
    head: &str,
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<ExecOutcome, ClientError> {
    let mut tokens = head.split_whitespace();
    match tokens.next() {
        Some("rows") => {
            let count: usize = tokens
                .next()
                .and_then(|text| text.parse().ok())
                .ok_or_else(|| ClientError::Malformed(format!("bad rows head `{head}`")))?;
            let header = lines
                .next()
                .ok_or_else(|| ClientError::Malformed("missing column header".to_string()))?;
            let columns: Vec<String> = if header.is_empty() {
                Vec::new()
            } else {
                header.split('\t').map(str::to_string).collect()
            };
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                let line = lines
                    .next()
                    .ok_or_else(|| ClientError::Malformed("missing answer row".to_string()))?;
                // A closed query executed under row semantics yields zero-column rows,
                // which render as empty lines — not as one empty value. Non-empty
                // fields are unescaped (the server escapes embedded tabs/newlines).
                let row: Vec<String> = if columns.is_empty() && line.is_empty() {
                    Vec::new()
                } else {
                    line.split('\t').map(crate::protocol::unescape_field).collect()
                };
                rows.push(row);
            }
            Ok(ExecOutcome::Rows { columns, rows })
        }
        Some("outcome") => {
            let verdict = tokens
                .next()
                .ok_or_else(|| ClientError::Malformed(format!("bad outcome head `{head}`")))?
                .to_string();
            let examined = parse_tagged(head, "examined")?;
            Ok(ExecOutcome::Outcome { verdict, examined })
        }
        Some("profile") => {
            let position = |tag: &str| -> Result<Option<u128>, ClientError> {
                let prefix = format!("{tag}=");
                let token = head
                    .split_whitespace()
                    .find_map(|token| token.strip_prefix(&prefix))
                    .ok_or_else(|| {
                    ClientError::Malformed(format!("no `{tag}=` in `{head}`"))
                })?;
                if token == "none" {
                    return Ok(None);
                }
                token
                    .parse::<u128>()
                    .map(Some)
                    .map_err(|_| ClientError::Malformed(format!("bad `{tag}=` in `{head}`")))
            };
            let total = position("total")?
                .ok_or_else(|| ClientError::Malformed(format!("no total in `{head}`")))?;
            Ok(ExecOutcome::Profile {
                total,
                first_true: position("first_true")?,
                first_false: position("first_false")?,
            })
        }
        Some("error") => {
            let message = head.strip_prefix("error ").unwrap_or(head).to_string();
            Ok(ExecOutcome::Error(message))
        }
        _ => Err(ClientError::Malformed(format!("unrecognised response block `{head}`"))),
    }
}
