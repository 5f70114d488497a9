//! The wire protocol: length-prefixed UTF-8 frames carrying one request or response.
//!
//! # Framing
//!
//! Every message — request and response alike — is one **frame**:
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 BE | payload: UTF-8 text |
//! +----------------+---------------------+
//! ```
//!
//! The length counts payload bytes only and must not exceed [`MAX_FRAME_BYTES`]; a
//! frame that is too large, truncated, or not valid UTF-8 is *malformed* and the peer
//! answers with an `ERR` frame and closes the connection (a malformed length prefix
//! leaves no trustworthy framing to resynchronise on).
//!
//! # Requests
//!
//! The payload's first line is the command; `BATCH` carries one extra line per entry:
//!
//! ```text
//! PING
//! PREPARE <id> <first-order query text>
//! EXEC <id> <family> <CERTAIN|POSSIBLE|CLOSED|PROFILE>
//! EXPLAIN <id> <family> [CERTAIN|POSSIBLE]
//! BATCH
//! <id> <family> <mode>                         (repeated, one line per entry)
//! DESCRIBE <table>
//! INSERT <table>
//! <value>\t<value>\t...                        (repeated, one escaped row per line)
//! DELETE <table>
//! <value>\t<value>\t...                        (repeated, one escaped row per line)
//! SET-PRIORITY <table> [<winner>><loser> ...]
//! ALTER <table> <lhs attrs -> rhs attrs>
//! MUTATE <table>
//! +\t<value>\t<value>\t...                     (one op-prefixed row per line:
//! -\t<value>\t<value>\t...                      `+` inserts, `-` deletes)
//! SUBSCRIBE <id> <family> <CERTAIN|POSSIBLE> [EVERY n|WINDOW n|COALESCE ms] [QUEUE n]
//! UNSUBSCRIBE <subscription-id>
//! STATS
//! SHUTDOWN
//! ```
//!
//! Families use the SQL tokens (`ALL`/`L`/`S`/`G`/`C` or the paper labels). Priorities
//! are explicit tuple-id pairs `3>7` (tuple 3 preferred over tuple 7). `INSERT` and
//! `DELETE` rows use the same tab-separated, [`escape_field`]-escaped encoding as
//! answer rows; values are typed against the served table's schema at dispatch, and
//! the mutation publishes a **delta-derived** snapshot (affected conflict components
//! only — no rebuild), so the response carries the new generation. `ALTER` adds one
//! functional dependency (parsed against the served schema, e.g. `ALTER Mgr Name ->
//! Dept Salary`) and likewise swaps in a delta-derived snapshot — new conflict edges
//! are scanned only inside the added FD's left-hand-side groups.
//!
//! # Responses
//!
//! The first line starts with `OK` or `ERR`. Row-bearing responses append one header
//! line and one tab-separated line per row:
//!
//! ```text
//! OK rows 2 gen=3                      OK outcome undetermined examined=5 gen=3
//! x                                    OK swapped Mgr gen=4
//! Mary                                 OK inserted 2 gen=5
//! John                                 OK deleted 1 gen=6
//!                                      ERR unknown prepared query `q9`
//!
//! OK describe Mgr rows=4 gen=3         OK profile total=6 first_true=0 first_false=2 gen=3
//! Name<TAB>NAME
//! Dept<TAB>NAME
//! Salary<TAB>INT
//! Reports<TAB>INT
//! ```
//!
//! A connection that issued `SUBSCRIBE` additionally receives **pushed frames** —
//! server-initiated, never in response to a request — which always start with `DELTA`
//! or `LAGGED`:
//!
//! ```text
//! DELTA sub=1 gen=5 added=1 removed=1          LAGGED sub=1 gen=9 rows 2
//! +\tMary                                      Mary
//! -\tJohn                                      Eve
//! ```
//!
//! `DELTA` rows are op-prefixed like `MUTATE` rows (`+` added, `-` removed); a
//! `LAGGED` frame replaces lost deltas with the full answer at the stated generation.
//!
//! `SUBSCRIBE`'s optional trailing clauses pick a report strategy and queue bound:
//! `EVERY n` flushes one net delta per n answer-changing swaps, `COALESCE ms` one per
//! time slice, `WINDOW n` reports the union of the last n generations' answers (with
//! expiry deltas as generations slide out), and `QUEUE n` bounds the subscription's
//! undrained-event queue before it collapses into a `LAGGED` resync.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::{Arc, RwLock};

use pdqi_core::{ClosedProfile, CqaOutcome, FamilyKind, Semantics};
use pdqi_relation::ValueType;

/// Hard ceiling on a frame's payload size. Frames are statements and answer sets, not
/// bulk data transfer; the cap bounds per-connection memory and lets the server reject
/// garbage (e.g. an HTTP request aimed at the wrong port) before allocating.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// What a request asks the executor to do with a prepared query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Open-query execution under [`Semantics::Certain`].
    Certain,
    /// Open-query execution under [`Semantics::Possible`].
    Possible,
    /// Closed-query consistent answer (true / false / undetermined).
    Closed,
    /// Closed-query **profile**: instead of the verdict, report the repair-product
    /// size and the first true/false positions within it. A profile is what a
    /// scatter-gather coordinator needs to merge closed outcomes across shards
    /// bit-identically — `examined` depends on *where* in the product the deciding
    /// repairs sit, which the bare verdict no longer carries.
    Profile,
}

impl ExecMode {
    /// Parses the wire token.
    pub fn parse(text: &str) -> Option<ExecMode> {
        match text.to_ascii_uppercase().as_str() {
            "CERTAIN" => Some(ExecMode::Certain),
            "POSSIBLE" => Some(ExecMode::Possible),
            "CLOSED" => Some(ExecMode::Closed),
            "PROFILE" => Some(ExecMode::Profile),
            _ => None,
        }
    }

    /// The open-query semantics, unless this is a closed mode.
    pub fn semantics(self) -> Option<Semantics> {
        match self {
            ExecMode::Certain => Some(Semantics::Certain),
            ExecMode::Possible => Some(Semantics::Possible),
            ExecMode::Closed | ExecMode::Profile => None,
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecMode::Certain => "CERTAIN",
            ExecMode::Possible => "POSSIBLE",
            ExecMode::Closed => "CLOSED",
            ExecMode::Profile => "PROFILE",
        })
    }
}

/// `SUBSCRIBE`'s optional report-strategy clause, in wire form. Parsing (in
/// [`Request::parse`]) and the rendering in [`Request::render`] round-trip;
/// [`ReportSpec::to_strategy`] maps onto [`pdqi_core::ReportStrategy`] for the
/// subscription manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportSpec {
    /// No clause: one delta per answer-changing swap (the default).
    #[default]
    PerGeneration,
    /// `EVERY n` — flush one net delta per `n` answer-changing swaps.
    Every(u64),
    /// `WINDOW n` — report the union of the last `n` generations' answers.
    Window(u64),
    /// `COALESCE ms` — flush one net delta per `ms`-millisecond time slice.
    Coalesce(u64),
}

impl ReportSpec {
    /// The core strategy this wire clause selects.
    pub fn to_strategy(self) -> pdqi_core::ReportStrategy {
        match self {
            ReportSpec::PerGeneration => pdqi_core::ReportStrategy::PerGeneration,
            ReportSpec::Every(n) => pdqi_core::ReportStrategy::every(n),
            ReportSpec::Window(n) => pdqi_core::ReportStrategy::window(n as usize),
            ReportSpec::Coalesce(ms) => {
                pdqi_core::ReportStrategy::coalesce(std::time::Duration::from_millis(ms))
            }
        }
    }
}

/// One `EXEC`-shaped entry: a prepared-query id, a family and a mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecSpec {
    /// The id the query was `PREPARE`d under.
    pub id: String,
    /// The family of preferred repairs to quantify over.
    pub family: FamilyKind,
    /// Open semantics or the closed consistent answer.
    pub mode: ExecMode,
}

impl ExecSpec {
    fn parse(line: &str) -> Result<ExecSpec, String> {
        let mut parts = line.split_whitespace();
        let (Some(id), Some(family), Some(mode), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "expected `<id> <family> <CERTAIN|POSSIBLE|CLOSED>`, got `{line}`"
            ));
        };
        let family = FamilyKind::parse(family)
            .ok_or_else(|| format!("`{family}` is not a repair family (use ALL, L, S, G or C)"))?;
        let mode = ExecMode::parse(mode).ok_or_else(|| {
            format!("`{mode}` is not an execution mode (use CERTAIN, POSSIBLE, CLOSED or PROFILE)")
        })?;
        Ok(ExecSpec { id: id.to_string(), family, mode })
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Parse and store a query under an id.
    Prepare {
        /// The id later `EXEC`s refer to.
        id: String,
        /// The first-order query text.
        query: String,
    },
    /// Execute one prepared query.
    Exec(ExecSpec),
    /// Render the costed physical plan the planner picks for a prepared query, then
    /// execute it and append the post-execution actuals.
    Explain {
        /// The id of a previously `PREPARE`d query.
        id: String,
        /// The family of preferred repairs to quantify over.
        family: FamilyKind,
        /// The open-query semantics the actuals run under (closed queries ignore it).
        semantics: Semantics,
    },
    /// Execute several prepared queries against **one** pinned snapshot.
    Batch(Vec<ExecSpec>),
    /// Insert rows into a table, publishing a delta-derived snapshot (no rebuild).
    Insert {
        /// The table to insert into.
        table: String,
        /// Raw row fields (typed against the table's schema at dispatch).
        rows: Vec<Vec<String>>,
    },
    /// Delete rows (by value) from a table, publishing a delta-derived snapshot.
    Delete {
        /// The table to delete from.
        table: String,
        /// Raw row fields of the tuples to remove.
        rows: Vec<Vec<String>>,
    },
    /// Add one functional dependency to a table, publishing a delta-derived snapshot
    /// (new edges scanned only inside the FD's LHS groups — no rebuild).
    Alter {
        /// The table whose constraint set grows.
        table: String,
        /// The FD text (`lhs attrs -> rhs attrs`), parsed against the served schema.
        fd: String,
    },
    /// Revise a table's priority and swap the registry snapshot.
    SetPriority {
        /// The table whose priority is revised.
        table: String,
        /// Explicit `winner ≻ loser` tuple-id pairs (replacing the current priority).
        pairs: Vec<(u32, u32)>,
    },
    /// Apply mixed inserts and deletes to one table as **one** delta derivation and
    /// one generation swap (and hence at most one subscription delta per subscriber).
    Mutate {
        /// The table to mutate.
        table: String,
        /// Raw row fields to insert (typed against the table's schema at dispatch).
        inserts: Vec<Vec<String>>,
        /// Raw row fields of the tuples to remove.
        deletes: Vec<Vec<String>>,
    },
    /// Register a continuous query: the connection switches into push mode and
    /// receives `DELTA`/`LAGGED` frames for this subscription.
    Subscribe {
        /// The id of a previously `PREPARE`d query.
        id: String,
        /// The family of preferred repairs to quantify over.
        family: FamilyKind,
        /// The open-query semantics (`CLOSED` verdicts have no row delta).
        semantics: Semantics,
        /// The report strategy (`EVERY n` / `WINDOW n` / `COALESCE ms`; default
        /// per-generation).
        report: ReportSpec,
        /// `QUEUE n`: per-subscription bound on undrained events before the queue
        /// collapses into a `LAGGED` resync (default: the server's bound).
        queue: Option<usize>,
    },
    /// Drop a subscription registered on this connection.
    Unsubscribe {
        /// The subscription id `OK subscribed sub=<id> …` reported.
        sub: u64,
    },
    /// Report a table's schema (column names and types), row count and generation.
    Describe {
        /// The table to describe.
        table: String,
    },
    /// Registry and executor statistics.
    Stats,
    /// Stop the server after answering.
    Shutdown,
}

impl Request {
    /// Parses a request payload. Errors are protocol-level (`ERR` text), not I/O.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let mut lines = payload.lines();
        let head = lines.next().unwrap_or("").trim();
        // Commands are case-insensitive; everything after the command keeps its case.
        let (command, rest) = match head.split_once(char::is_whitespace) {
            Some((command, rest)) => (command.to_ascii_uppercase(), rest.trim_start()),
            None => (head.to_ascii_uppercase(), ""),
        };
        match command.as_str() {
            "PING" => Ok(Request::Ping),
            "PREPARE" => {
                let Some((id, query)) = rest.split_once(char::is_whitespace) else {
                    return Err("usage: PREPARE <id> <query>".to_string());
                };
                Ok(Request::Prepare { id: id.to_string(), query: query.trim().to_string() })
            }
            "EXEC" => Ok(Request::Exec(ExecSpec::parse(rest)?)),
            "EXPLAIN" => {
                let mut parts = rest.split_whitespace();
                let (Some(id), Some(family), mode, None) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return Err("usage: EXPLAIN <id> <family> [CERTAIN|POSSIBLE]".to_string());
                };
                let family = FamilyKind::parse(family).ok_or_else(|| {
                    format!("`{family}` is not a repair family (use ALL, L, S, G or C)")
                })?;
                let semantics = match mode {
                    None => Semantics::Certain,
                    Some(mode) => {
                        ExecMode::parse(mode).and_then(ExecMode::semantics).ok_or_else(|| {
                            format!("`{mode}` is not an EXPLAIN mode (use CERTAIN or POSSIBLE)")
                        })?
                    }
                };
                Ok(Request::Explain { id: id.to_string(), family, semantics })
            }
            "BATCH" => {
                let specs: Vec<ExecSpec> = lines
                    .filter(|line| !line.trim().is_empty())
                    .map(ExecSpec::parse)
                    .collect::<Result<_, _>>()?;
                if specs.is_empty() {
                    return Err("BATCH needs at least one `<id> <family> <mode>` line".to_string());
                }
                Ok(Request::Batch(specs))
            }
            "INSERT" | "DELETE" => {
                let table = rest.trim();
                if table.is_empty() || table.split_whitespace().count() != 1 {
                    return Err(format!(
                        "usage: {command} <table> followed by one tab-separated row per line"
                    ));
                }
                // Rows reuse the response encoding: tab-separated fields, escaped with
                // `escape_field` so embedded tabs/newlines cannot shift the structure.
                // Every line after the head is a row — split('\n'), not lines(), and no
                // blank-line filtering: a single-column row holding the empty string
                // legitimately encodes as an empty line, and silently dropping it would
                // be indistinguishable from a set-semantics no-op (a stray blank line
                // in a multi-column frame surfaces as an arity error instead).
                let Some((_, row_block)) = payload.split_once('\n') else {
                    return Err(format!("{command} needs at least one row line"));
                };
                let rows: Vec<Vec<String>> = row_block
                    .split('\n')
                    .map(|line| line.split('\t').map(unescape_field).collect())
                    .collect();
                let table = table.to_string();
                Ok(if command == "INSERT" {
                    Request::Insert { table, rows }
                } else {
                    Request::Delete { table, rows }
                })
            }
            "ALTER" => {
                let Some((table, fd)) = rest.split_once(char::is_whitespace) else {
                    return Err("usage: ALTER <table> <lhs attrs -> rhs attrs>".to_string());
                };
                let fd = fd.trim();
                if fd.is_empty() {
                    return Err("usage: ALTER <table> <lhs attrs -> rhs attrs>".to_string());
                }
                Ok(Request::Alter { table: table.to_string(), fd: fd.to_string() })
            }
            "SET-PRIORITY" => {
                let (table, pair_text) = match rest.split_once(char::is_whitespace) {
                    Some((table, pair_text)) => (table, pair_text),
                    None => (rest, ""),
                };
                if table.is_empty() {
                    return Err("usage: SET-PRIORITY <table> [<winner>><loser> ...]".to_string());
                }
                let mut pairs = Vec::new();
                for token in pair_text.split_whitespace() {
                    let Some((winner, loser)) = token.split_once('>') else {
                        return Err(format!(
                            "`{token}` is not a priority pair (use `<winner>><loser>`, e.g. `3>7`)"
                        ));
                    };
                    let parse = |text: &str| {
                        text.parse::<u32>().map_err(|_| format!("`{text}` is not a tuple id"))
                    };
                    pairs.push((parse(winner)?, parse(loser)?));
                }
                Ok(Request::SetPriority { table: table.to_string(), pairs })
            }
            "MUTATE" => {
                let table = rest.trim();
                if table.is_empty() || table.split_whitespace().count() != 1 {
                    return Err(
                        "usage: MUTATE <table> followed by one `+`/`-`-prefixed row per line"
                            .to_string(),
                    );
                }
                let Some((_, row_block)) = payload.split_once('\n') else {
                    return Err("MUTATE needs at least one row line".to_string());
                };
                let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
                // Like INSERT/DELETE: split('\n') so a single-column empty-string row
                // (encoded as `+\t`) survives; the op is the first tab-separated cell.
                for line in row_block.split('\n') {
                    let (op, fields) = match line.split_once('\t') {
                        Some((op, fields)) => {
                            (op, fields.split('\t').map(unescape_field).collect())
                        }
                        // A zero-field line can only be a bare op (closed queries have
                        // zero columns, tables never do — but parse stays total).
                        None => (line, Vec::new()),
                    };
                    match op {
                        "+" => inserts.push(fields),
                        "-" => deletes.push(fields),
                        other => {
                            return Err(format!(
                                "MUTATE rows start with `+` or `-` (got `{other}`)"
                            ))
                        }
                    }
                }
                Ok(Request::Mutate { table: table.to_string(), inserts, deletes })
            }
            "SUBSCRIBE" => {
                const USAGE: &str = "usage: SUBSCRIBE <id> <family> <CERTAIN|POSSIBLE> \
                                     [EVERY n|WINDOW n|COALESCE ms] [QUEUE n]";
                let mut parts = rest.split_whitespace();
                let (Some(id), Some(family), Some(mode)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(USAGE.to_string());
                };
                let family = FamilyKind::parse(family).ok_or_else(|| {
                    format!("`{family}` is not a repair family (use ALL, L, S, G or C)")
                })?;
                let semantics =
                    ExecMode::parse(mode).and_then(ExecMode::semantics).ok_or_else(|| {
                        format!("`{mode}` is not a subscription mode (use CERTAIN or POSSIBLE)")
                    })?;
                let mut report = None;
                let mut queue = None;
                while let Some(keyword) = parts.next() {
                    let argument = parts.next().ok_or_else(|| USAGE.to_string())?;
                    let number = argument
                        .parse::<u64>()
                        .map_err(|_| format!("`{argument}` is not a number ({USAGE})"))?;
                    match keyword.to_ascii_uppercase().as_str() {
                        "EVERY" | "WINDOW" if number == 0 => {
                            return Err(format!("{keyword} takes a count ≥ 1"));
                        }
                        "EVERY" if report.is_none() => report = Some(ReportSpec::Every(number)),
                        "WINDOW" if report.is_none() => report = Some(ReportSpec::Window(number)),
                        "COALESCE" if report.is_none() => {
                            report = Some(ReportSpec::Coalesce(number));
                        }
                        "EVERY" | "WINDOW" | "COALESCE" => {
                            return Err("at most one of EVERY, WINDOW, COALESCE".to_string());
                        }
                        "QUEUE" if number == 0 => return Err("QUEUE takes a bound ≥ 1".to_string()),
                        "QUEUE" if queue.is_none() => queue = Some(number as usize),
                        "QUEUE" => return Err("QUEUE given twice".to_string()),
                        _ => return Err(USAGE.to_string()),
                    }
                }
                Ok(Request::Subscribe {
                    id: id.to_string(),
                    family,
                    semantics,
                    report: report.unwrap_or_default(),
                    queue,
                })
            }
            "UNSUBSCRIBE" => {
                let sub = rest
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| "usage: UNSUBSCRIBE <subscription-id>".to_string())?;
                Ok(Request::Unsubscribe { sub })
            }
            "DESCRIBE" => {
                let table = rest.trim();
                if table.is_empty() || table.split_whitespace().count() != 1 {
                    return Err("usage: DESCRIBE <table>".to_string());
                }
                Ok(Request::Describe { table: table.to_string() })
            }
            "STATS" => Ok(Request::Stats),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(format!("unknown command `{other}`")),
        }
    }

    /// Renders the request as a payload [`Request::parse`] round-trips.
    pub fn render(&self) -> String {
        match self {
            Request::Ping => "PING".to_string(),
            Request::Prepare { id, query } => format!("PREPARE {id} {query}"),
            Request::Exec(spec) => {
                format!("EXEC {} {} {}", spec.id, spec.family.label(), spec.mode)
            }
            Request::Explain { id, family, semantics } => {
                let mode = match semantics {
                    Semantics::Certain => ExecMode::Certain,
                    Semantics::Possible => ExecMode::Possible,
                };
                format!("EXPLAIN {id} {} {mode}", family.label())
            }
            Request::Batch(specs) => {
                let mut out = String::from("BATCH");
                for spec in specs {
                    out.push('\n');
                    out.push_str(&format!("{} {} {}", spec.id, spec.family.label(), spec.mode));
                }
                out
            }
            Request::Insert { table, rows } | Request::Delete { table, rows } => {
                let command =
                    if matches!(self, Request::Insert { .. }) { "INSERT" } else { "DELETE" };
                let mut out = format!("{command} {table}");
                push_rows(&mut out, None, rows);
                out
            }
            Request::Mutate { table, inserts, deletes } => {
                let mut out = format!("MUTATE {table}");
                push_rows(&mut out, Some('+'), inserts);
                push_rows(&mut out, Some('-'), deletes);
                out
            }
            Request::Subscribe { id, family, semantics, report, queue } => {
                let mode = match semantics {
                    Semantics::Certain => ExecMode::Certain,
                    Semantics::Possible => ExecMode::Possible,
                };
                let mut out = format!("SUBSCRIBE {id} {} {mode}", family.label());
                match report {
                    ReportSpec::PerGeneration => {}
                    ReportSpec::Every(n) => out.push_str(&format!(" EVERY {n}")),
                    ReportSpec::Window(n) => out.push_str(&format!(" WINDOW {n}")),
                    ReportSpec::Coalesce(ms) => out.push_str(&format!(" COALESCE {ms}")),
                }
                if let Some(bound) = queue {
                    out.push_str(&format!(" QUEUE {bound}"));
                }
                out
            }
            Request::Unsubscribe { sub } => format!("UNSUBSCRIBE {sub}"),
            Request::Alter { table, fd } => format!("ALTER {table} {fd}"),
            Request::SetPriority { table, pairs } => {
                let mut out = format!("SET-PRIORITY {table}");
                for (winner, loser) in pairs {
                    out.push_str(&format!(" {winner}>{loser}"));
                }
                out
            }
            Request::Describe { table } => format!("DESCRIBE {table}"),
            Request::Stats => "STATS".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
        }
    }
}

/// Appends one line per row, each value escaped with [`escape_field`] and the values
/// tab-separated — the encoding of answer rows and `INSERT`/`DELETE` rows. With an `op`,
/// each line starts with it and a tab (`+`/`-`: `MUTATE` rows and pushed `DELTA` rows).
pub(crate) fn push_rows<'a, T: fmt::Display + 'a>(
    out: &mut String,
    op: Option<char>,
    rows: impl IntoIterator<Item = &'a Vec<T>>,
) {
    for row in rows {
        out.push('\n');
        if let Some(op) = op {
            out.push(op);
        }
        for (index, value) in row.iter().enumerate() {
            if index > 0 || op.is_some() {
                out.push('\t');
            }
            out.push_str(&escape_field(&value.to_string()));
        }
    }
}

/// Renders a `rows <n>` block: the count, the tab-separated column header, then one
/// escaped row per line.
pub(crate) fn rows_block<'a, T: fmt::Display + 'a>(
    columns: &[String],
    rows: impl ExactSizeIterator<Item = &'a Vec<T>>,
) -> String {
    let mut out = format!("rows {}\n{}", rows.len(), columns.join("\t"));
    push_rows(&mut out, None, rows);
    out
}

/// Renders a closed verdict block: `outcome <true|false|undetermined> examined=<k>`.
pub(crate) fn outcome_line(outcome: &CqaOutcome) -> String {
    let verdict = if outcome.certainly_true {
        "true"
    } else if outcome.certainly_false {
        "false"
    } else {
        "undetermined"
    };
    format!("outcome {verdict} examined={}", outcome.examined)
}

/// Renders a closed profile block: `profile total=<t> first_true=<i> first_false=<i>`,
/// an absent position as `none`.
pub(crate) fn profile_line(profile: &ClosedProfile) -> String {
    let position = |at: Option<u128>| at.map_or("none".to_string(), |v| v.to_string());
    format!(
        "profile total={} first_true={} first_false={}",
        profile.total,
        position(profile.first_true),
        position(profile.first_false)
    )
}

/// Renders a `DESCRIBE` answer: the head line with the row count and the generation
/// tags, then one `<escaped name>\t<INT|NAME>` line per column.
pub(crate) fn describe_response<'a>(
    table: &str,
    rows: usize,
    tags: &str,
    columns: impl IntoIterator<Item = (&'a str, ValueType)>,
) -> String {
    let mut out = format!("OK describe {table} rows={rows} {tags}");
    for (name, ty) in columns {
        out.push('\n');
        out.push_str(&escape_field(name));
        out.push_str(match ty {
            ValueType::Int => "\tINT",
            ValueType::Name => "\tNAME",
        });
    }
    out
}

/// Answers `EXEC` (`batch` false) or `BATCH` from one rendered block per entry and the
/// generation tags the request was answered at (`gen=<g>`, plus `gens=…` behind a
/// coordinator). The tags go on the head line; a lone `EXEC` whose block failed
/// (`error …`) answers as a plain `ERR`.
pub(crate) fn exec_response(
    answered: Result<(Vec<String>, String), String>,
    batch: bool,
) -> String {
    let (mut blocks, tags) = match answered {
        Ok(answered) => answered,
        Err(message) => return format!("ERR {message}"),
    };
    if batch {
        let mut out = format!("OK batch {} {tags}", blocks.len());
        for block in blocks {
            out.push('\n');
            out.push_str(&block);
        }
        return out;
    }
    let block = blocks.pop().expect("one block per EXEC");
    if let Some(message) = block.strip_prefix("error ") {
        return format!("ERR {message}");
    }
    match block.split_once('\n') {
        Some((head, rest)) => format!("OK {head} {tags}\n{rest}"),
        None => format!("OK {block} {tags}"),
    }
}

/// Cap on a [`PreparedMap`]: the ids are client-chosen, so an unbounded map would let
/// one misbehaving client grow a long-lived process without limit.
const PREPARED_LIMIT: usize = 4096;

/// A query prepared under a client-chosen id: the one table it reads, plus what the
/// handler keeps to run it.
pub(crate) struct Prepared<T> {
    pub(crate) table: String,
    pub(crate) query: T,
}

/// The prepared queries of one server or coordinator, by client-chosen id. Like the SQL
/// session's statement cache, overflow past [`PREPARED_LIMIT`] clears the map
/// wholesale: clients re-`PREPARE` on `unknown prepared query`, which costs a re-parse.
pub(crate) struct PreparedMap<T>(RwLock<HashMap<String, Arc<Prepared<T>>>>);

impl<T> PreparedMap<T> {
    pub(crate) fn new() -> Self {
        PreparedMap(RwLock::new(HashMap::new()))
    }

    pub(crate) fn len(&self) -> usize {
        self.0.read().expect("prepared lock").len()
    }

    pub(crate) fn insert(&self, id: &str, prepared: Prepared<T>) {
        let mut map = self.0.write().expect("prepared lock");
        if map.len() >= PREPARED_LIMIT && !map.contains_key(id) {
            map.clear();
        }
        map.insert(id.to_string(), Arc::new(prepared));
    }

    pub(crate) fn get(&self, id: &str) -> Result<Arc<Prepared<T>>, String> {
        let map = self.0.read().expect("prepared lock");
        map.get(id)
            .cloned()
            .ok_or_else(|| format!("unknown prepared query `{id}` (PREPARE it first)"))
    }

    /// Resolves every entry of an `EXEC` or `BATCH`. A request pins one snapshot, so
    /// all of its queries must read one table.
    pub(crate) fn resolve(&self, specs: &[ExecSpec]) -> Result<Vec<Arc<Prepared<T>>>, String> {
        let entries: Vec<_> =
            specs.iter().map(|spec| self.get(&spec.id)).collect::<Result<_, _>>()?;
        let table = &entries[0].table;
        if let Some(mixed) = entries.iter().find(|entry| entry.table != *table) {
            return Err(format!(
                "a batch pins one snapshot: all queries must read one table (got `{table}` and `{}`)",
                mixed.table
            ));
        }
        Ok(entries)
    }
}

/// Errors surfaced while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (including EOF mid-frame).
    Io(io::Error),
    /// The peer announced a payload larger than [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The announced payload size.
        announced: usize,
    },
    /// The payload was not valid UTF-8.
    NotUtf8,
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::TooLarge { announced } => write!(
                f,
                "frame too large: {announced} bytes announced, limit is {MAX_FRAME_BYTES}"
            ),
            FrameError::NotUtf8 => f.write_str("frame payload is not valid UTF-8"),
            FrameError::Closed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Escapes one row value for the tab/newline-delimited response encoding: `\` → `\\`,
/// tab → `\t`, newline → `\n`. Without this, a stored `TEXT` value containing a tab or
/// newline would shift the positional structure every later row (and batch block) is
/// parsed by.
pub fn escape_field(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Reverses [`escape_field`]. Unknown escapes (and a trailing lone `\`) pass through
/// verbatim rather than erroring: the value is still displayable and the framing is
/// already safe.
pub fn unescape_field(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Writes one frame: `u32` big-endian payload length, then the payload bytes.
///
/// A payload over [`MAX_FRAME_BYTES`] is refused with `InvalidInput` **before** any
/// byte hits the wire — the peer would reject the frame as too large anyway, and a
/// half-written oversized frame would desynchronise the stream. The server turns this
/// into a small `ERR response too large` answer; clients surface it as an error.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload is {} bytes; the frame limit is {MAX_FRAME_BYTES}", bytes.len()),
        ));
    }
    writer.write_all(&(bytes.len() as u32).to_be_bytes())?;
    writer.write_all(bytes)?;
    writer.flush()
}

/// Reads one frame, enforcing [`MAX_FRAME_BYTES`] **before** allocating the payload.
///
/// EOF at a frame boundary reports [`FrameError::Closed`]; EOF inside a frame is an
/// [`FrameError::Io`] error (the peer vanished mid-message).
pub fn read_frame(reader: &mut impl Read) -> Result<String, FrameError> {
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Closed),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let announced = u32::from_be_bytes(len_bytes) as usize;
    if announced > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { announced });
    }
    let mut payload = vec![0u8; announced];
    reader.read_exact(&mut payload)?;
    String::from_utf8(payload).map_err(|_| FrameError::NotUtf8)
}

/// Reads one frame from a socket that has a read timeout: the transport's idle poll, or
/// the deadline of [`crate::Client::wait_event`]. A timeout before the frame's first
/// byte returns `Ok(None)`, so the caller can do its idle work. Once any byte has
/// arrived, timeouts are retried while `patient()` holds, because a frame abandoned
/// half-read would leave the stream mid-frame; when it stops holding, the read reports
/// [`FrameError::Closed`].
pub(crate) fn read_frame_idle(
    reader: &mut impl Read,
    mut patient: impl FnMut() -> bool,
) -> Result<Option<String>, FrameError> {
    let mut len_bytes = [0u8; 4];
    if !fill_patiently(reader, &mut len_bytes, true, &mut patient)? {
        return Ok(None);
    }
    let announced = u32::from_be_bytes(len_bytes) as usize;
    if announced > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { announced });
    }
    let mut payload = vec![0u8; announced];
    fill_patiently(reader, &mut payload, false, &mut patient)?;
    String::from_utf8(payload).map(Some).map_err(|_| FrameError::NotUtf8)
}

/// Fills `buf` for [`read_frame_idle`]. With `at_boundary` and nothing read yet, a
/// timeout returns `Ok(false)` and EOF is [`FrameError::Closed`]; after that, EOF is a
/// transport error (the peer vanished mid-frame).
fn fill_patiently(
    reader: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    patient: &mut impl FnMut() -> bool,
) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        let idle = at_boundary && filled == 0;
        match reader.read(&mut buf[filled..]) {
            Ok(0) if idle => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(read) => filled += read,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if idle {
                    return Ok(false);
                }
                if !patient() {
                    return Err(FrameError::Closed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, "PING").unwrap();
        write_frame(&mut buffer, "STATS").unwrap();
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap(), "PING");
        assert_eq!(read_frame(&mut cursor).unwrap(), "STATS");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes());
        let mut cursor = io::Cursor::new(oversized);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::TooLarge { .. })));

        let mut truncated = Vec::new();
        truncated.extend_from_slice(&8u32.to_be_bytes());
        truncated.extend_from_slice(b"hi");
        let mut cursor = io::Cursor::new(truncated);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));

        let mut binary = Vec::new();
        binary.extend_from_slice(&2u32.to_be_bytes());
        binary.extend_from_slice(&[0xff, 0xfe]);
        let mut cursor = io::Cursor::new(binary);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::NotUtf8)));
    }

    #[test]
    fn field_escaping_round_trips() {
        for value in
            ["plain", "tab\there", "line\nbreak", "back\\slash", "\t\n\\", "", "trailing\\"]
        {
            assert_eq!(unescape_field(&escape_field(value)), value, "{value:?}");
            // Escaped text never contains raw structure characters.
            assert!(!escape_field(value).contains('\t'));
            assert!(!escape_field(value).contains('\n'));
        }
        // Unknown escapes and lone trailing backslashes pass through.
        assert_eq!(unescape_field("a\\xb"), "a\\xb");
        assert_eq!(unescape_field("end\\"), "end\\");
    }

    #[test]
    fn requests_parse_and_render() {
        let cases = [
            Request::Ping,
            Request::Prepare { id: "q1".into(), query: "EXISTS d,s,r . Mgr(x,d,s,r)".into() },
            Request::Exec(ExecSpec {
                id: "q1".into(),
                family: FamilyKind::Global,
                mode: ExecMode::Certain,
            }),
            Request::Batch(vec![
                ExecSpec { id: "q1".into(), family: FamilyKind::Rep, mode: ExecMode::Possible },
                ExecSpec { id: "q2".into(), family: FamilyKind::Common, mode: ExecMode::Closed },
                ExecSpec { id: "q3".into(), family: FamilyKind::Local, mode: ExecMode::Profile },
            ]),
            Request::Exec(ExecSpec {
                id: "q9".into(),
                family: FamilyKind::SemiGlobal,
                mode: ExecMode::Profile,
            }),
            Request::Explain {
                id: "q1".into(),
                family: FamilyKind::Global,
                semantics: Semantics::Certain,
            },
            Request::Explain {
                id: "q2".into(),
                family: FamilyKind::Rep,
                semantics: Semantics::Possible,
            },
            Request::Describe { table: "Mgr".into() },
            Request::Alter { table: "Mgr".into(), fd: "Name -> Dept Salary Reports".into() },
            Request::SetPriority { table: "Mgr".into(), pairs: vec![(0, 2), (1, 3)] },
            Request::SetPriority { table: "Mgr".into(), pairs: vec![] },
            Request::Insert {
                table: "Mgr".into(),
                rows: vec![
                    vec!["Mary".into(), "R&D".into(), "40".into(), "3".into()],
                    vec!["tab\there".into(), "line\nbreak".into(), "1".into(), "2".into()],
                ],
            },
            Request::Delete { table: "Mgr".into(), rows: vec![vec!["John".into(), "PR".into()]] },
            // A single-column row holding the empty string encodes as an empty line
            // and must survive the round trip (not be dropped as a blank line).
            Request::Insert { table: "T".into(), rows: vec![vec![String::new()]] },
            Request::Insert {
                table: "T".into(),
                rows: vec![vec!["a".into()], vec![String::new()], vec!["b".into()]],
            },
            Request::Mutate {
                table: "Mgr".into(),
                inserts: vec![vec!["Eve".into(), "HR".into(), "15".into(), "2".into()]],
                deletes: vec![
                    vec!["Mary".into(), "IT".into(), "20".into(), "1".into()],
                    vec!["tab\there".into(), "line\nbreak".into(), "1".into(), "2".into()],
                ],
            },
            // Op-prefixed single-column empty-string rows survive like INSERT's do.
            Request::Mutate {
                table: "T".into(),
                inserts: vec![vec![String::new()]],
                deletes: vec![vec!["a".into()]],
            },
            Request::Subscribe {
                id: "q1".into(),
                family: FamilyKind::Global,
                semantics: Semantics::Certain,
                report: ReportSpec::PerGeneration,
                queue: None,
            },
            Request::Subscribe {
                id: "q2".into(),
                family: FamilyKind::Rep,
                semantics: Semantics::Possible,
                report: ReportSpec::PerGeneration,
                queue: None,
            },
            Request::Subscribe {
                id: "q3".into(),
                family: FamilyKind::Local,
                semantics: Semantics::Certain,
                report: ReportSpec::Every(4),
                queue: None,
            },
            Request::Subscribe {
                id: "q4".into(),
                family: FamilyKind::Common,
                semantics: Semantics::Possible,
                report: ReportSpec::Window(3),
                queue: Some(16),
            },
            Request::Subscribe {
                id: "q5".into(),
                family: FamilyKind::Global,
                semantics: Semantics::Certain,
                report: ReportSpec::Coalesce(250),
                queue: None,
            },
            Request::Subscribe {
                id: "q6".into(),
                family: FamilyKind::Rep,
                semantics: Semantics::Certain,
                report: ReportSpec::PerGeneration,
                queue: Some(1),
            },
            Request::Unsubscribe { sub: 7 },
            Request::Stats,
            Request::Shutdown,
        ];
        for request in cases {
            assert_eq!(Request::parse(&request.render()).unwrap(), request);
        }
    }

    #[test]
    fn malformed_requests_report_usage() {
        for bad in [
            "",
            "NOPE",
            "PREPARE onlyid",
            "EXEC q1",
            "EXEC q1 ALL MAYBE",
            "EXEC q1 NOPE CERTAIN",
            "EXEC q1 ALL CERTAIN extra",
            "BATCH",
            "BATCH\nq1 ALL",
            "EXPLAIN",
            "EXPLAIN q1",
            "EXPLAIN q1 NOPE",
            "EXPLAIN q1 ALL CLOSED",
            "EXPLAIN q1 ALL CERTAIN extra",
            "ALTER",
            "ALTER Mgr",
            "ALTER Mgr   ",
            "SET-PRIORITY",
            "SET-PRIORITY Mgr 1-2",
            "SET-PRIORITY Mgr x>y",
            "INSERT",
            "INSERT Mgr",
            "INSERT two tables\nrow",
            "DELETE",
            "DELETE Mgr",
            "MUTATE",
            "MUTATE Mgr",
            "MUTATE two tables\n+\trow",
            "MUTATE Mgr\nrow without op",
            "MUTATE Mgr\n*\trow",
            "SUBSCRIBE",
            "SUBSCRIBE q1",
            "SUBSCRIBE q1 ALL",
            "SUBSCRIBE q1 ALL CLOSED",
            "SUBSCRIBE q1 ALL PROFILE",
            "SUBSCRIBE q1 NOPE CERTAIN",
            "SUBSCRIBE q1 ALL CERTAIN extra",
            "SUBSCRIBE q1 ALL CERTAIN WINDOW",
            "SUBSCRIBE q1 ALL CERTAIN WINDOW x",
            "SUBSCRIBE q1 ALL CERTAIN WINDOW 0",
            "SUBSCRIBE q1 ALL CERTAIN EVERY 0",
            "SUBSCRIBE q1 ALL CERTAIN QUEUE 0",
            "SUBSCRIBE q1 ALL CERTAIN QUEUE",
            "SUBSCRIBE q1 ALL CERTAIN QUEUE 4 QUEUE 5",
            "SUBSCRIBE q1 ALL CERTAIN WINDOW 2 COALESCE 10",
            "SUBSCRIBE q1 ALL CERTAIN WINDOW 2 extra",
            "UNSUBSCRIBE",
            "UNSUBSCRIBE x",
            "DESCRIBE",
            "DESCRIBE two tables",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should be malformed");
        }
        // Commands are case-insensitive; ids and queries keep their case.
        let lower = Request::parse("prepare Q1 EXISTS b . R(x,b)").unwrap();
        assert_eq!(lower, Request::Prepare { id: "Q1".into(), query: "EXISTS b . R(x,b)".into() });
        assert!(Request::parse("exec Q1 all certain").is_ok());
    }
}
