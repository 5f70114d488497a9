//! The `pdqi` command-line front end.
//!
//! The binary reads a script (from files given on the command line, or from standard
//! input) consisting of two kinds of lines:
//!
//! * **SQL statements** — everything the `pdqi-sql` session understands: `CREATE TABLE`,
//!   `ALTER TABLE … ADD FD`, `INSERT`, `PREFER … OVER … IN …`, and
//!   `SELECT … WITH REPAIRS <family>`;
//! * **meta commands** starting with a dot — inspection helpers that expose the repair
//!   machinery directly (`.conflicts`, `.repairs`, `.preferred`, `.clean`, `.answer`,
//!   `.aggregate`, `.properties`, …).
//!
//! All of the interpretation lives in [`Interpreter`] so it can be unit-tested without a
//! terminal; `main.rs` is a thin line-feeding wrapper around it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Arc;

use pdqi_aggregate::{range_by_enumeration, AggregateFunction, AggregateQuery};
use pdqi_core::{
    properties, EngineSnapshot, FamilyKind, Parallelism, PreparedQuery, ReportStrategy, Semantics,
    SubscribeOptions, SubscriptionEvent, MAX_THREADS,
};
use pdqi_relation::{RelationInstance, TupleSet};
use pdqi_sql::{split_script, Session, SqlError, StatementOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything that can go wrong while interpreting a line.
#[derive(Debug)]
pub enum CliError {
    /// The underlying SQL session rejected the statement.
    Sql(SqlError),
    /// A meta command was malformed or referenced something unknown.
    Command(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Sql(e) => write!(f, "sql error: {e}"),
            CliError::Command(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SqlError> for CliError {
    fn from(e: SqlError) -> Self {
        CliError::Sql(e)
    }
}

/// The stateful interpreter: a SQL session plus the meta-command layer.
#[derive(Debug, Default)]
pub struct Interpreter {
    session: Session,
}

impl Interpreter {
    /// A fresh interpreter with no tables, running sequentially.
    pub fn new() -> Self {
        Interpreter { session: Session::new() }
    }

    /// A fresh interpreter answering repair-quantified queries with up to `threads`
    /// workers (`0` means one worker per hardware thread).
    pub fn with_threads(threads: usize) -> Self {
        let mut interpreter = Interpreter::new();
        interpreter.set_threads(threads);
        interpreter
    }

    /// Reconfigures the worker count (`0` means one worker per hardware thread).
    /// Parallelism never changes answers — only how fast they arrive.
    pub fn set_threads(&mut self, threads: usize) {
        let parallelism =
            if threads == 0 { Parallelism::auto() } else { Parallelism::threads(threads) };
        self.session.set_parallelism(parallelism);
    }

    fn parallelism(&self) -> Parallelism {
        self.session.parallelism()
    }

    /// Access to the underlying SQL session (used by tests and by embedding callers).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the underlying SQL session — the `serve` subcommand uses this
    /// to publish the loaded tables into the session's registry before binding.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Interprets one line (SQL statements or a meta command) and returns the text to
    /// print. SQL is split by [`split_script`], as [`Session::execute_script`] splits a
    /// script, so `;` separates statements and `--` starts a comment; blank lines
    /// produce no output.
    pub fn run_line(&mut self, line: &str) -> Result<String, CliError> {
        let mut output = String::new();
        self.run_line_into(line, &mut output).map(|()| output)
    }

    /// [`Interpreter::run_line`], appending to `output` as each statement runs: when a
    /// statement fails, `output` already holds what the statements before it printed
    /// (they took effect).
    fn run_line_into(&mut self, line: &str, output: &mut String) -> Result<(), CliError> {
        let ran = match line.trim().strip_prefix('.') {
            Some(command) => {
                self.run_meta(command.trim_end_matches(';')).map(|text| push_block(output, &text))
            }
            None => split_script(line).iter().try_for_each(|statement| {
                let outcome = self.session.execute(statement)?;
                push_block(output, &render_outcome(&outcome));
                Ok(())
            }),
        };
        // Continuous queries piggyback on the interactive loop: any swap the line
        // caused (INSERT, DELETE, PREFER, …) queued events — print them right away.
        for (id, event) in self.session.drain_subscription_events() {
            push_block(output, &render_subscription_event(id, &event));
        }
        ran
    }

    /// Interprets a whole script, accumulating the output of every line. Errors are
    /// reported inline (prefixed with `error:`), after the output of the statements
    /// that ran before them, and do not abort the rest of the script, matching the
    /// behaviour of interactive use.
    pub fn run_script(&mut self, script: &str) -> String {
        let mut out = String::new();
        for line in script.lines() {
            let mut text = String::new();
            let ran = self.run_line_into(line, &mut text);
            if !text.is_empty() {
                out.push_str(&text);
                if !text.ends_with('\n') {
                    out.push('\n');
                }
            }
            if let Err(e) = ran {
                let _ = writeln!(out, "error: {e}");
            }
        }
        out
    }

    fn run_meta(&mut self, command: &str) -> Result<String, CliError> {
        let mut parts = command.split_whitespace();
        let name = parts.next().unwrap_or_default().to_ascii_lowercase();
        let args: Vec<&str> = parts.collect();
        match name.as_str() {
            "help" => Ok(HELP.to_string()),
            "threads" => self.threads(&args),
            "tables" => Ok(self.tables()),
            "schema" => self.schema(&args),
            "conflicts" => self.conflicts(&args),
            "count" => self.count(&args),
            "repairs" => self.repairs(&args),
            "preferred" => self.preferred(&args),
            "clean" => self.clean(&args),
            "answer" => self.answer(&args),
            "aggregate" => self.aggregate(&args),
            "properties" => self.properties(&args),
            "explain" => self.explain(command),
            "subscribe" => self.subscribe(&args),
            "unsubscribe" => self.unsubscribe(&args),
            "subscriptions" => Ok(self.subscriptions()),
            "stats" => Ok(self.stats()),
            other => Err(CliError::Command(format!("unknown command `.{other}` (try `.help`)"))),
        }
    }

    fn threads(&mut self, args: &[&str]) -> Result<String, CliError> {
        match args.first() {
            None => Ok(format!("{} worker thread(s)", self.parallelism().thread_count())),
            Some(&"auto") => {
                self.set_threads(0);
                Ok(format!("using {} worker thread(s) (auto)", self.parallelism().thread_count()))
            }
            Some(text) => {
                let threads: usize = text.parse().map_err(|_| {
                    CliError::Command(format!(
                        "`{text}` is not a thread count (use a number or `auto`)"
                    ))
                })?;
                if threads == 0 {
                    return Err(CliError::Command(
                        "thread count must be at least 1 (or `auto`)".to_string(),
                    ));
                }
                self.set_threads(threads);
                // Report the effective count. The clamp is `pdqi_core::MAX_THREADS` —
                // the engine's single source of truth — so the message can never drift
                // from what the pool actually does.
                let effective = self.parallelism().thread_count();
                if effective < threads {
                    Ok(format!(
                        "using {effective} worker thread(s) (clamped from {threads}; max {MAX_THREADS})"
                    ))
                } else {
                    Ok(format!("using {effective} worker thread(s)"))
                }
            }
        }
    }

    fn tables(&self) -> String {
        let names = self.session.table_names();
        if names.is_empty() {
            "no tables defined".to_string()
        } else {
            names.join("\n")
        }
    }

    fn snapshot_for(
        &mut self,
        args: &[&str],
        usage: &str,
    ) -> Result<(Arc<EngineSnapshot>, String), CliError> {
        let table =
            args.first().ok_or_else(|| CliError::Command(format!("usage: {usage}")))?.to_string();
        let snapshot = self.session.snapshot(&table)?;
        Ok((snapshot, table))
    }

    fn schema(&mut self, args: &[&str]) -> Result<String, CliError> {
        let (snapshot, _) = self.snapshot_for(args, ".schema <table>")?;
        let mut out = format!("{}\n", snapshot.context().instance().schema());
        let fds = snapshot.context().fds().render();
        if fds.is_empty() {
            out.push_str("  (no functional dependencies)\n");
        }
        for fd in fds {
            let _ = writeln!(out, "  FD {fd}");
        }
        Ok(out)
    }

    fn conflicts(&mut self, args: &[&str]) -> Result<String, CliError> {
        let (snapshot, table) = self.snapshot_for(args, ".conflicts <table>")?;
        let instance = snapshot.context().instance();
        let graph = snapshot.graph();
        if graph.edge_count() == 0 {
            return Ok(format!("`{table}` is consistent"));
        }
        let mut out = format!(
            "{} conflicts among {} tuples ({} oriented by preferences)\n",
            graph.edge_count(),
            instance.len(),
            snapshot.priority().edge_count()
        );
        for &(a, b) in graph.edges() {
            let orientation = if snapshot.priority().dominates(a, b) {
                " (first preferred)"
            } else if snapshot.priority().dominates(b, a) {
                " (second preferred)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {} <-> {}{orientation}",
                instance.tuple_unchecked(a),
                instance.tuple_unchecked(b)
            );
        }
        Ok(out)
    }

    fn count(&mut self, args: &[&str]) -> Result<String, CliError> {
        let (snapshot, table) = self.snapshot_for(args, ".count <table>")?;
        snapshot.warm_components(FamilyKind::Rep, self.parallelism());
        Ok(format!("`{table}` has {} repair(s)", snapshot.count_repairs()))
    }

    fn repairs(&mut self, args: &[&str]) -> Result<String, CliError> {
        let (snapshot, _) = self.snapshot_for(args, ".repairs <table> [limit]")?;
        let limit = parse_limit(args.get(1))?;
        Ok(render_repairs(snapshot.context().instance(), &snapshot.repairs(limit)))
    }

    fn preferred(&mut self, args: &[&str]) -> Result<String, CliError> {
        let (snapshot, _) = self.snapshot_for(args, ".preferred <table> <family> [limit]")?;
        let family = parse_family(args.get(1))?;
        let limit = parse_limit(args.get(2))?;
        // Enumerate the per-component repairs across workers; assembly stays streamed.
        snapshot.warm_components(family, self.parallelism());
        let repairs = snapshot.preferred_repairs(family, limit);
        Ok(format!(
            "{} preferred repair(s) under {}\n{}",
            repairs.len(),
            family.label(),
            render_repairs(snapshot.context().instance(), &repairs)
        ))
    }

    fn clean(&mut self, args: &[&str]) -> Result<String, CliError> {
        let (snapshot, _) = self.snapshot_for(args, ".clean <table>")?;
        match snapshot.clean() {
            Ok(repair) => Ok(format!(
                "Algorithm 1 produces the unique repair:\n{}",
                render_repairs(snapshot.context().instance(), &[repair])
            )),
            Err(e) => Err(CliError::Command(format!("cannot clean: {e}"))),
        }
    }

    fn answer(&mut self, args: &[&str]) -> Result<String, CliError> {
        if args.len() < 3 {
            return Err(CliError::Command(
                "usage: .answer <table> <family> <closed first-order query>".to_string(),
            ));
        }
        let snapshot = self.session.snapshot(args[0])?;
        let family = parse_family(args.get(1))?;
        let query = args[2..].join(" ");
        let parallelism = self.parallelism();
        let outcome = PreparedQuery::parse(&query)
            .and_then(|prepared| prepared.consistent_answer_with(&snapshot, family, parallelism))
            .map_err(|e| CliError::Command(format!("query error: {e}")))?;
        let verdict = if outcome.certainly_true {
            "certainly true"
        } else if outcome.certainly_false {
            "certainly false"
        } else {
            "undetermined"
        };
        Ok(format!(
            "{verdict} under {} ({} preferred repair(s) examined)",
            family.label(),
            outcome.examined
        ))
    }

    fn aggregate(&mut self, args: &[&str]) -> Result<String, CliError> {
        if args.len() < 3 {
            return Err(CliError::Command(
                "usage: .aggregate <table> <COUNT|SUM|MIN|MAX|AVG> <attribute|*> [family]"
                    .to_string(),
            ));
        }
        let snapshot = self.session.snapshot(args[0])?;
        let function = parse_function(args[1])?;
        let family = parse_family(args.get(3).or(Some(&"ALL")))?;
        let schema = snapshot.context().instance().schema();
        let query = if function == AggregateFunction::Count && args[2] == "*" {
            AggregateQuery::count()
        } else {
            AggregateQuery::over(schema, function, args[2])
                .map_err(|e| CliError::Command(format!("bad aggregate: {e}")))?
        };
        query.validate(schema).map_err(|e| CliError::Command(format!("bad aggregate: {e}")))?;
        let range = range_by_enumeration(
            snapshot.context(),
            snapshot.priority(),
            family.family().as_ref(),
            &query,
        );
        Ok(format!(
            "{}({}) ∈ {} under {}{}",
            function.label(),
            args[2],
            range,
            family.label(),
            if range.is_exact() { " (exact)" } else { "" }
        ))
    }

    fn subscribe(&mut self, args: &[&str]) -> Result<String, CliError> {
        const USAGE: &str = "usage: .subscribe [CERTAIN|POSSIBLE] \
                             [EVERY n|WINDOW n|COALESCE ms] [QUEUE n] \
                             <SELECT … WITH REPAIRS <family>>";
        // Optional leading semantics token; the repair family comes from the
        // statement's own WITH REPAIRS clause.
        let (semantics, mut rest) = match args.first().map(|t| t.to_ascii_uppercase()) {
            Some(token) if token == "POSSIBLE" => (Semantics::Possible, &args[1..]),
            Some(token) if token == "CERTAIN" => (Semantics::Certain, &args[1..]),
            _ => (Semantics::Certain, args),
        };
        // Report-strategy and queue options sit between the semantics token and the
        // statement; the statement itself starts at the first non-option token.
        let mut options = SubscribeOptions::default();
        let mut strategy_given = false;
        while let Some(keyword) = rest.first().map(|t| t.to_ascii_uppercase()) {
            if !matches!(keyword.as_str(), "EVERY" | "WINDOW" | "COALESCE" | "QUEUE") {
                break;
            }
            let number: u64 = rest
                .get(1)
                .and_then(|text| text.parse().ok())
                .ok_or_else(|| CliError::Command(format!("{keyword} takes a number ({USAGE})")))?;
            if keyword != "COALESCE" && number == 0 {
                return Err(CliError::Command(format!("{keyword} takes a count ≥ 1")));
            }
            if keyword == "QUEUE" {
                options.queue_capacity = Some(usize::try_from(number).unwrap_or(usize::MAX));
            } else {
                if strategy_given {
                    return Err(CliError::Command(
                        "at most one of EVERY, WINDOW, COALESCE".to_string(),
                    ));
                }
                strategy_given = true;
                options.strategy = match keyword.as_str() {
                    "EVERY" => ReportStrategy::every(number),
                    "WINDOW" => ReportStrategy::window(usize::try_from(number).unwrap_or(1)),
                    _ => ReportStrategy::coalesce(std::time::Duration::from_millis(number)),
                };
            }
            rest = &rest[2..];
        }
        if rest.is_empty() {
            return Err(CliError::Command(USAGE.to_string()));
        }
        let sql = rest.join(" ");
        let subscribed = self.session.subscribe_with(&sql, semantics, options)?;
        let mut out = format!(
            "subscription #{} at gen {} ({} initial row(s))\n{}\n",
            subscribed.id,
            subscribed.generation,
            subscribed.rows.len(),
            subscribed.columns.join(" | ")
        );
        for row in &subscribed.rows {
            let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, "{}", rendered.join(" | "));
        }
        Ok(out)
    }

    fn unsubscribe(&mut self, args: &[&str]) -> Result<String, CliError> {
        let id: u64 = args
            .first()
            .and_then(|text| text.parse().ok())
            .ok_or_else(|| CliError::Command("usage: .unsubscribe <id>".to_string()))?;
        if self.session.unsubscribe(id) {
            Ok(format!("subscription #{id} dropped"))
        } else {
            Err(CliError::Command(format!("no subscription #{id}")))
        }
    }

    fn subscriptions(&self) -> String {
        let infos = self.session.subscriptions();
        if infos.is_empty() {
            return "no subscriptions".to_string();
        }
        let mut out = String::new();
        for info in infos {
            let semantics = match info.semantics {
                Semantics::Certain => "CERTAIN",
                Semantics::Possible => "POSSIBLE",
            };
            let _ = writeln!(
                out,
                "#{} {} {} gen={} pending={}{} {}",
                info.id,
                info.family.label(),
                semantics,
                info.generation,
                info.pending,
                if info.lagged { " lagged" } else { "" },
                info.query
            );
        }
        out
    }

    /// `.explain <SELECT … WITH REPAIRS <family>>` — the SQL `EXPLAIN` statement as a
    /// meta command, so interactive sessions can inspect a plan without retyping the
    /// keyword.
    fn explain(&mut self, command: &str) -> Result<String, CliError> {
        let statement = command.trim()["explain".len()..].trim();
        if statement.is_empty() {
            return Err(CliError::Command(
                "usage: .explain <SELECT … WITH REPAIRS <family>>".to_string(),
            ));
        }
        let outcome = self.session.execute(&format!("EXPLAIN {statement}"))?;
        Ok(render_outcome(&outcome))
    }

    fn stats(&self) -> String {
        let eval = pdqi_query::eval_path_stats();
        let plans = pdqi_core::plan_stats();
        let windows = self.session.window_stats();
        format!(
            "eval paths: vectorized={} scalar={}\n\
             planner: planned={} cache hits={} naive={}\n\
             planner choices: join reorders={} scalar picks={} derived components={}\n\
             report strategies: coalesced={} windowed={} folded swaps={} flushes={} \
             expiry deltas={} pending dropped={}",
            eval.vectorized,
            eval.scalar,
            plans.planned,
            plans.cache_hits,
            plans.naive,
            plans.join_reorders,
            plans.scalar_picks,
            plans.derived_components,
            windows.coalesced_subscribers,
            windows.windowed_subscribers,
            windows.folded_swaps,
            windows.coalesced_flushes,
            windows.expiry_deltas,
            windows.pending_dropped
        )
    }

    fn properties(&mut self, args: &[&str]) -> Result<String, CliError> {
        let (snapshot, _) = self.snapshot_for(args, ".properties <table>")?;
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = String::from("family  P1     P2     P3     P4\n");
        for kind in FamilyKind::ALL {
            let profile = properties::check_profile(
                kind.family().as_ref(),
                snapshot.context(),
                snapshot.priority(),
                3,
                &mut rng,
            );
            let _ = writeln!(
                out,
                "{:<7} {:<6} {:<6} {:<6} {:<6}",
                kind.label(),
                profile.p1,
                profile.p2,
                profile.p3,
                profile.p4
            );
        }
        Ok(out)
    }
}

const HELP: &str = "\
SQL statements: CREATE TABLE, ALTER TABLE <t> ADD FD <fd>, INSERT INTO <t> VALUES …,
                DELETE FROM <t> VALUES …, PREFER (<row>) OVER (<row>) IN <t>,
                SELECT … [WITH REPAIRS <family>], EXPLAIN SELECT … WITH REPAIRS <family>
meta commands:
  .help                                     this message
  .threads [n|auto]                         show or set the worker-thread count
  .tables                                   list tables
  .schema <table>                           schema and functional dependencies
  .conflicts <table>                        list conflicting tuple pairs
  .count <table>                            number of repairs
  .repairs <table> [limit]                  list repairs
  .preferred <table> <family> [limit]       list preferred repairs (ALL/L/S/G/C)
  .clean <table>                            run Algorithm 1 (needs a total priority)
  .answer <table> <family> <FO query>       preferred consistent answer to a closed query
  .aggregate <table> <func> <attr> [family] range-consistent aggregate answer
  .properties <table>                       evaluate P1-P4 for every family
  .explain <SELECT … WITH REPAIRS <f>>      costed physical plan plus actuals
  .subscribe [CERTAIN|POSSIBLE] [EVERY n|WINDOW n|COALESCE ms] [QUEUE n] <SELECT …>
                                            register a continuous query (needs
                                            WITH REPAIRS); deltas print after the
                                            statements that cause them. EVERY folds
                                            n swaps per delta, WINDOW answers over
                                            the last n generations, COALESCE folds
                                            bursts within ms, QUEUE bounds the
                                            push queue
  .subscriptions                            list continuous queries
  .unsubscribe <id>                         drop a continuous query
  .stats                                    eval-path, planner and report-strategy accounting";

/// Renders one queued continuous-query event for the interactive surface.
fn render_subscription_event(id: u64, event: &SubscriptionEvent) -> String {
    let mut out = String::new();
    match event {
        SubscriptionEvent::Delta(delta) => {
            let _ = writeln!(
                out,
                "subscription #{id} delta at gen {}: +{} -{}",
                delta.generation,
                delta.added.len(),
                delta.removed.len()
            );
            for (sign, rows) in [('+', &delta.added), ('-', &delta.removed)] {
                for row in rows {
                    let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    let _ = writeln!(out, "  {sign} {}", rendered.join(" | "));
                }
            }
        }
        SubscriptionEvent::Lagged { generation, rows } => {
            let _ = writeln!(
                out,
                "subscription #{id} lagged; resynced at gen {generation} ({} row(s))",
                rows.len()
            );
            for row in rows {
                let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                let _ = writeln!(out, "  {}", rendered.join(" | "));
            }
        }
    }
    out
}

/// Turns one `pdqi connect` input line into a protocol frame payload, or `None` for
/// blank and `--` comment lines. `BATCH`, `INSERT` and `DELETE` requests are
/// multi-line frames; on the single-line `connect` surface their entries are separated
/// with `;`:
///
/// ```text
/// BATCH q1 ALL CERTAIN; q2 G CLOSED
/// INSERT Mgr 'Eve','HR',15,2; 'Bob','HR',16,1
/// DELETE Mgr 'Eve','HR',15,2
/// ```
///
/// Mutation rows split on `;` and fields on `,` **before** quote handling; each field
/// is then trimmed and may be wrapped in single quotes. Quoting therefore cannot
/// protect the separators themselves — values containing semicolons, commas or tabs
/// need the frame protocol (or the SQL surface) directly.
pub fn frame_payload_of_line(line: &str) -> Option<String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with("--") {
        return None;
    }
    let command = trimmed.split_whitespace().next().unwrap_or("").to_ascii_uppercase();
    if command == "BATCH" {
        let rest = trimmed[5.min(trimmed.len())..].trim();
        let mut payload = String::from("BATCH");
        for entry in rest.split(';') {
            let entry = entry.trim();
            if !entry.is_empty() {
                payload.push('\n');
                payload.push_str(entry);
            }
        }
        return Some(payload);
    }
    if command == "INSERT" || command == "DELETE" {
        let rest = trimmed[6.min(trimmed.len())..].trim_start();
        let (table, rows_text) = match rest.split_once(char::is_whitespace) {
            Some((table, rows_text)) => (table, rows_text),
            // No rows on the line: pass through so the server reports usage.
            None => return Some(trimmed.to_string()),
        };
        let mut payload = format!("{command} {table}");
        for row in rows_text.split(';') {
            let row = row.trim();
            if row.is_empty() {
                continue;
            }
            payload.push('\n');
            payload.push_str(&escape_row(row));
        }
        return Some(payload);
    }
    if command == "MUTATE" {
        let rest = trimmed[6.min(trimmed.len())..].trim_start();
        let (table, rows_text) = match rest.split_once(char::is_whitespace) {
            Some((table, rows_text)) => (table, rows_text),
            None => return Some(trimmed.to_string()),
        };
        // Mixed batch: each `;`-separated row leads with its op, `+` insert or
        // `-` delete, e.g. `MUTATE Mgr +'Eve','HR',15,2; -'Mary','IT',20,1`.
        let mut payload = format!("MUTATE {table}");
        for row in rows_text.split(';') {
            let row = row.trim();
            if row.is_empty() {
                continue;
            }
            let (op, fields) = if let Some(rest) = row.strip_prefix('+') {
                ("+", rest.trim_start())
            } else if let Some(rest) = row.strip_prefix('-') {
                ("-", rest.trim_start())
            } else {
                // No op prefix: forward the raw row so the server reports the error.
                ("", row)
            };
            payload.push('\n');
            payload.push_str(op);
            if !op.is_empty() {
                payload.push('\t');
            }
            payload.push_str(&escape_row(fields));
        }
        return Some(payload);
    }
    Some(trimmed.to_string())
}

/// Splits one `connect`-surface mutation row on `,`, strips optional single quotes and
/// escapes each field for the wire (see [`frame_payload_of_line`] for the caveats).
fn escape_row(row: &str) -> String {
    let fields: Vec<String> = row
        .split(',')
        .map(|field| {
            let field = field.trim();
            let unquoted =
                field.strip_prefix('\'').and_then(|f| f.strip_suffix('\'')).unwrap_or(field);
            pdqi_server::escape_field(unquoted)
        })
        .collect();
    fields.join("\t")
}

/// Drives a scripted client session against a running server: one request per
/// non-empty input line, each response echoed back, stopping after a `SHUTDOWN`
/// request is answered. This is the whole of `pdqi connect` — kept here so tests can
/// run it in-process against a loopback server.
///
/// Two extras support subscriptions. `WAIT <n> [timeout_ms]` is handled client-side:
/// it blocks until `n` pushed `DELTA`/`LAGGED` frames arrived (default timeout
/// 5000 ms) and prints each one. And after every response, pushed frames that arrived
/// interleaved with it are printed immediately.
pub fn run_connect_script(addr: &str, input: &str) -> Result<String, pdqi_server::ClientError> {
    let mut client = pdqi_server::Client::connect(addr)
        .map_err(|e| pdqi_server::ClientError::Frame(pdqi_server::FrameError::Io(e)))?;
    let mut out = String::new();
    // Pushed frames already printed by the after-response drain below; a later WAIT
    // counts them as received so `MUTATE` + `WAIT 1` is deterministic no matter how
    // the push raced the response.
    let mut drained = 0usize;
    for line in input.lines() {
        let Some(payload) = frame_payload_of_line(line) else {
            continue;
        };
        let mut words = payload.split_whitespace();
        if words.next().is_some_and(|w| w.eq_ignore_ascii_case("WAIT")) {
            let expected: usize = words.next().and_then(|w| w.parse().ok()).unwrap_or(1);
            let timeout_ms: u64 = words.next().and_then(|w| w.parse().ok()).unwrap_or(5000);
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
            let mut received = drained.min(expected);
            drained -= received;
            while received < expected {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    let _ =
                        writeln!(out, "ERR wait timed out after {received} of {expected} event(s)");
                    break;
                }
                if let Some(event) = client.wait_event(left)? {
                    out.push_str(&render_push_event(&event));
                    received += 1;
                }
            }
            continue;
        }
        let response = client.request_raw(&payload)?;
        out.push_str(&response);
        if !response.ends_with('\n') {
            out.push('\n');
        }
        if payload.trim().eq_ignore_ascii_case("SHUTDOWN") {
            // The server closes the socket right after `OK bye` — don't poll it.
            break;
        }
        // Pushed frames the server interleaved with (or queued before) the response.
        while let Some(event) = client.try_event()? {
            out.push_str(&render_push_event(&event));
            drained += 1;
        }
    }
    Ok(out)
}

/// Renders one pushed frame for the `connect` surface: the wire head line, then one
/// tab-joined row per line (`+`/`-`-prefixed for deltas).
fn render_push_event(event: &pdqi_server::PushEvent) -> String {
    let mut out = String::new();
    match event {
        pdqi_server::PushEvent::Delta { sub, generation, added, removed } => {
            let _ = writeln!(
                out,
                "DELTA sub={sub} gen={generation} added={} removed={}",
                added.len(),
                removed.len()
            );
            for (sign, rows) in [('+', added), ('-', removed)] {
                for row in rows {
                    let _ = writeln!(out, "{sign} {}", row.join("\t"));
                }
            }
        }
        pdqi_server::PushEvent::Lagged { sub, generation, rows } => {
            let _ = writeln!(out, "LAGGED sub={sub} gen={generation} rows {}", rows.len());
            for row in rows {
                let _ = writeln!(out, "{}", row.join("\t"));
            }
        }
    }
    out
}

/// Appends `text` to `output` on a line of its own.
fn push_block(output: &mut String, text: &str) {
    if !output.is_empty() && !output.ends_with('\n') {
        output.push('\n');
    }
    output.push_str(text);
}

fn render_outcome(outcome: &StatementOutcome) -> String {
    match outcome {
        StatementOutcome::Created => "table created".to_string(),
        StatementOutcome::FdAdded => "functional dependency added".to_string(),
        StatementOutcome::Inserted(n) => format!("{n} row(s) inserted"),
        StatementOutcome::Deleted(n) => format!("{n} row(s) deleted"),
        StatementOutcome::PreferenceAdded => "preference recorded".to_string(),
        StatementOutcome::Rows(result) => {
            let mut out = result.columns.join(" | ");
            out.push('\n');
            for row in &result.rows {
                let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                out.push_str(&rendered.join(" | "));
                out.push('\n');
            }
            if result.rows.is_empty() {
                out.push_str("(no rows)\n");
            }
            out
        }
        StatementOutcome::Plan(report) => report.clone(),
    }
}

fn render_repairs(instance: &RelationInstance, repairs: &[TupleSet]) -> String {
    let mut out = String::new();
    for (index, repair) in repairs.iter().enumerate() {
        let _ = writeln!(out, "repair #{}:", index + 1);
        for id in repair.iter() {
            let _ = writeln!(out, "  {}", instance.tuple_unchecked(id));
        }
    }
    out
}

fn parse_limit(arg: Option<&&str>) -> Result<usize, CliError> {
    match arg {
        None => Ok(20),
        Some(text) => {
            text.parse().map_err(|_| CliError::Command(format!("`{text}` is not a valid limit")))
        }
    }
}

fn parse_family(arg: Option<&&str>) -> Result<FamilyKind, CliError> {
    let text = arg.copied().unwrap_or("ALL");
    FamilyKind::parse(text).ok_or_else(|| {
        CliError::Command(format!("`{text}` is not a repair family (use ALL, L, S, G or C)"))
    })
}

fn parse_function(text: &str) -> Result<AggregateFunction, CliError> {
    match text.to_ascii_uppercase().as_str() {
        "COUNT" => Ok(AggregateFunction::Count),
        "SUM" => Ok(AggregateFunction::Sum),
        "MIN" => Ok(AggregateFunction::Min),
        "MAX" => Ok(AggregateFunction::Max),
        "AVG" => Ok(AggregateFunction::Avg),
        other => Err(CliError::Command(format!("`{other}` is not an aggregate function"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 1 as a CLI script.
    fn example1_script() -> &'static str {
        "CREATE TABLE Mgr (Name TEXT, Dept TEXT, Salary INT, Reports INT);\n\
         ALTER TABLE Mgr ADD FD Dept -> Name Salary Reports;\n\
         ALTER TABLE Mgr ADD FD Name -> Dept Salary Reports;\n\
         INSERT INTO Mgr VALUES ('Mary','R&D',40,3), ('John','R&D',10,2);\n\
         INSERT INTO Mgr VALUES ('Mary','IT',20,1), ('John','PR',30,4);"
    }

    fn loaded() -> Interpreter {
        let mut interpreter = Interpreter::new();
        let output = interpreter.run_script(example1_script());
        assert!(!output.contains("error"), "setup failed: {output}");
        interpreter
    }

    #[test]
    fn sql_statements_flow_through_the_session() {
        let mut interpreter = loaded();
        let out = interpreter.run_line(".tables").unwrap();
        assert_eq!(out.trim(), "Mgr");
        let out = interpreter.run_line(".count Mgr").unwrap();
        assert!(out.contains("3 repair(s)"));
        let out = interpreter.run_line("SELECT Name FROM Mgr WITH REPAIRS ALL").unwrap();
        assert!(out.contains("Name"));
    }

    #[test]
    fn script_lines_follow_the_session_comment_rule() {
        let mut interpreter = Interpreter::new();
        let output = interpreter.run_script(
            "CREATE TABLE C (K TEXT); -- note\n\
             -- a whole-line comment\n\
             INSERT INTO C VALUES ('café'); INSERT INTO C VALUES ('a;b -- kept');\n\
             SELECT K FROM C;",
        );
        assert!(!output.contains("error"), "{output}");
        assert!(output.lines().any(|line| line == "café"), "{output}");
        assert!(output.lines().any(|line| line == "a;b -- kept"), "{output}");
        assert!(interpreter.run_line(".count C;").unwrap().contains("1 repair(s)"));
    }

    #[test]
    fn statements_before_a_failing_one_keep_their_output() {
        let mut interpreter = Interpreter::new();
        let output = interpreter.run_script(
            "CREATE TABLE C (K TEXT); INSERT INTO C VALUES ('x'); SELECT K FROM Nope;\n\
             SELECT K FROM C;",
        );
        let lines: Vec<&str> = output.lines().collect();
        let error = lines.iter().position(|line| line.starts_with("error:")).expect(&output);
        assert_eq!(lines[..error], ["table created", "1 row(s) inserted"], "{output}");
        assert!(lines[error].contains("Nope"), "{output}");
        assert!(lines[error + 1..].contains(&"x"), "{output}");
    }

    #[test]
    fn conflicts_and_repairs_are_rendered() {
        let mut interpreter = loaded();
        let conflicts = interpreter.run_line(".conflicts Mgr").unwrap();
        assert!(conflicts.contains("3 conflicts"));
        let repairs = interpreter.run_line(".repairs Mgr").unwrap();
        assert_eq!(repairs.matches("repair #").count(), 3);
        let schema = interpreter.run_line(".schema Mgr").unwrap();
        assert!(schema.contains("FD"));
    }

    #[test]
    fn preferences_drive_preferred_repairs_and_answers() {
        let mut interpreter = loaded();
        interpreter.run_line("PREFER ('Mary','R&D',40,3) OVER ('Mary','IT',20,1) IN Mgr").unwrap();
        interpreter.run_line("PREFER ('John','R&D',10,2) OVER ('John','PR',30,4) IN Mgr").unwrap();
        let preferred = interpreter.run_line(".preferred Mgr G").unwrap();
        assert!(preferred.starts_with("2 preferred repair(s)"));
        let answer = interpreter
            .run_line(
                ".answer Mgr G EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND \
                 Mgr('John',d2,s2,r2) AND s1 > s2 AND r1 < r2",
            )
            .unwrap();
        assert!(answer.contains("certainly true"));
        let undetermined = interpreter
            .run_line(
                ".answer Mgr ALL EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND \
                 Mgr('John',d2,s2,r2) AND s1 > s2 AND r1 < r2",
            )
            .unwrap();
        assert!(undetermined.contains("undetermined"));
    }

    #[test]
    fn aggregates_and_properties_work() {
        let mut interpreter = loaded();
        let sum = interpreter.run_line(".aggregate Mgr SUM Salary").unwrap();
        assert!(sum.contains("SUM(Salary)"));
        assert!(sum.contains("[30, 70]"));
        let count = interpreter.run_line(".aggregate Mgr COUNT *").unwrap();
        assert!(count.contains("(exact)"));
        let properties = interpreter.run_line(".properties Mgr").unwrap();
        assert!(properties.contains("G-Rep"));
    }

    #[test]
    fn cleaning_requires_a_total_priority() {
        let mut interpreter = loaded();
        let error = interpreter.run_line(".clean Mgr");
        assert!(error.is_err());
        interpreter.run_line("PREFER ('Mary','R&D',40,3) OVER ('Mary','IT',20,1) IN Mgr").unwrap();
        interpreter.run_line("PREFER ('Mary','R&D',40,3) OVER ('John','R&D',10,2) IN Mgr").unwrap();
        interpreter.run_line("PREFER ('John','PR',30,4) OVER ('John','R&D',10,2) IN Mgr").unwrap();
        let cleaned = interpreter.run_line(".clean Mgr").unwrap();
        assert!(cleaned.contains("unique repair"));
        assert!(cleaned.contains("Mary"));
    }

    #[test]
    fn stats_reports_eval_path_accounting() {
        let mut interpreter = loaded();
        // Publish, then ALTER: the new FD lands as a snapshot derivation.
        interpreter.run_line(".count Mgr").unwrap();
        interpreter.run_line("ALTER TABLE Mgr ADD FD Salary -> Reports").unwrap();
        interpreter.run_line(".stats").unwrap();
        // Two PREFERs stay queued until the next read, then coalesce into one swap.
        interpreter.run_line("PREFER ('Mary','R&D',40,3) OVER ('Mary','IT',20,1) IN Mgr").unwrap();
        interpreter.run_line("PREFER ('John','R&D',10,2) OVER ('John','PR',30,4) IN Mgr").unwrap();
        interpreter.run_line(".count Mgr").unwrap();
        let stats = interpreter.run_line(".stats").unwrap();
        assert!(stats.contains("eval paths:"), "{stats}");
    }

    #[test]
    fn explain_meta_command_renders_the_plan() {
        let mut interpreter = loaded();
        let report =
            interpreter.run_line(".explain SELECT Name FROM Mgr WITH REPAIRS ALL").unwrap();
        assert!(report.contains("plan family=Rep"), "{report}");
        assert!(report.contains("actual product="), "{report}");
        // The bare SQL statement works too, and planner counters surface in .stats.
        let report = interpreter.run_line("EXPLAIN SELECT Name FROM Mgr WITH REPAIRS ALL").unwrap();
        assert!(report.contains("plan family=Rep") || report.contains("naive"), "{report}");
        let stats = interpreter.run_line(".stats").unwrap();
        assert!(stats.contains("planner:"), "{stats}");
        assert!(stats.contains("planner choices:"), "{stats}");
        assert!(interpreter.run_line(".explain").is_err());
    }

    #[test]
    fn threads_command_configures_parallelism_without_changing_answers() {
        let mut sequential = loaded();
        let mut parallel = Interpreter::with_threads(4);
        parallel.run_script(example1_script());
        assert_eq!(parallel.run_line(".threads").unwrap(), "4 worker thread(s)");
        for command in [".count Mgr", ".preferred Mgr G", ".answer Mgr ALL Mgr('Mary','R&D',40,3)"]
        {
            assert_eq!(
                sequential.run_line(command).unwrap(),
                parallel.run_line(command).unwrap(),
                "{command}"
            );
        }
        // Reconfiguration mid-session.
        assert_eq!(parallel.run_line(".threads 2").unwrap(), "using 2 worker thread(s)");
        assert!(parallel.run_line(".threads auto").unwrap().contains("auto"));
        assert!(parallel.run_line(".threads nope").is_err());
        assert!(parallel.run_line(".threads 0").is_err());
    }

    #[test]
    fn pathological_thread_counts_report_the_engine_clamp() {
        let mut interpreter = loaded();
        // The clamp and the message share one source of truth: pdqi_core::MAX_THREADS.
        let clamped = interpreter.run_line(".threads 100000").unwrap();
        assert_eq!(
            clamped,
            format!(
                "using {max} worker thread(s) (clamped from 100000; max {max})",
                max = pdqi_core::MAX_THREADS
            )
        );
        assert_eq!(
            interpreter.run_line(".threads").unwrap(),
            format!("{} worker thread(s)", pdqi_core::MAX_THREADS)
        );
        // In-range requests report without the clamp note.
        assert_eq!(interpreter.run_line(".threads 3").unwrap(), "using 3 worker thread(s)");
    }

    #[test]
    fn connect_lines_convert_batch_and_mutation_surfaces() {
        // BATCH entries split on `;` into one line each.
        assert_eq!(
            frame_payload_of_line("BATCH q1 ALL CERTAIN; q2 G CLOSED").unwrap(),
            "BATCH\nq1 ALL CERTAIN\nq2 G CLOSED"
        );
        // Mutation rows split on `;`, fields on `,`; quotes strip, fields escape.
        assert_eq!(
            frame_payload_of_line("INSERT Mgr 'Eve','HR',15,2; 'Bob','HR',16,1").unwrap(),
            "INSERT Mgr\nEve\tHR\t15\t2\nBob\tHR\t16\t1"
        );
        assert_eq!(
            frame_payload_of_line("delete Mgr 'Eve','HR',15,2").unwrap(),
            "DELETE Mgr\nEve\tHR\t15\t2"
        );
        // A mutation without rows passes through for the server's usage error.
        assert_eq!(frame_payload_of_line("INSERT Mgr").unwrap(), "INSERT Mgr");
        // Comments and blanks produce no frame.
        assert!(frame_payload_of_line("  -- nope").is_none());
        assert!(frame_payload_of_line("   ").is_none());
    }

    #[test]
    fn sql_deletes_flow_through_the_interpreter() {
        let mut interpreter = loaded();
        let out = interpreter.run_line("DELETE FROM Mgr VALUES ('Mary','IT',20,1)").unwrap();
        assert_eq!(out, "1 row(s) deleted");
        let out = interpreter.run_line(".count Mgr").unwrap();
        assert!(out.contains("2 repair(s)"), "{out}");
    }

    #[test]
    fn errors_are_reported_without_aborting_the_script() {
        let mut interpreter = Interpreter::new();
        let output = interpreter.run_script(
            "CREATE TABLE T (A INT, B INT);\n.unknowncommand\nINSERT INTO T VALUES (1, 2);\n.count Nope",
        );
        assert!(output.contains("error: unknown command"));
        assert!(output.contains("1 row(s) inserted"));
        assert!(output.contains("error: sql error"));
    }

    #[test]
    fn malformed_meta_commands_produce_usage_messages() {
        let mut interpreter = loaded();
        assert!(interpreter.run_line(".repairs").is_err());
        assert!(interpreter.run_line(".preferred Mgr NOPE").is_err());
        assert!(interpreter.run_line(".aggregate Mgr MEDIAN Salary").is_err());
        assert!(interpreter.run_line(".repairs Mgr notanumber").is_err());
        assert!(interpreter.run_line(".answer Mgr").is_err());
    }
}
