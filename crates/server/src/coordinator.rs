//! The coordinator: one protocol front end over N key-range shards.
//!
//! A coordinator is a *serve-compatible* process: it runs on the same transport as
//! `pdqi serve` (one accept thread, one thread per connection, the same frame loop),
//! so `pdqi connect` (and [`Client`]) work against it unmodified — but behind the
//! front end every request fans out to the shard endpoints of a [`ShardPlan`] and the
//! per-shard answers merge back into one response:
//!
//! ```text
//!                        ┌────────────┐      ┌──────────────────┐
//!  pdqi connect ───────► │ pdqi coord │ ───► │ pdqi serve shard0 │  keys < split
//!     (frames)           │  fan-out/  │ ───► │ pdqi serve shard1 │  keys ≥ split
//!                        │   merge    │      └──────────────────┘
//!                        └────────────┘   each connection: one Client per shard,
//!                                         opened at its first request
//! ```
//!
//! # Fan-out
//!
//! Each coordinator connection owns one link per shard, so no client waits behind
//! another client's request to the same shard. A request is answered on the
//! connection's own thread: the fan-out writes the request frame to every shard it
//! addresses before it reads any reply, so the shards work concurrently and nothing is
//! spawned per request. A request that fails on an open link is sent once more on a
//! fresh one (the protocol's requests are idempotent: set-semantics mutations,
//! replacing priorities, re-`PREPARE`s); a shard that cannot be reached fails the
//! request with an error naming it. A shard frame over [`MAX_FRAME_BYTES`] is refused
//! before it is written, with an error naming the shard and the limit, and its link
//! stays open.
//!
//! # Merge rules
//!
//! Soundness rests on the routing invariant of [`pdqi_core::shard_plan`]: no conflict
//! edge crosses a shard boundary, so the mirror instance's repair product factorises
//! as the shard-ordered cartesian product of per-shard repair products. For queries
//! with a **single positive relation atom** (what the coordinator's `PREPARE`
//! admits), the folds then merge per shard:
//!
//! | request            | merge                                                      |
//! |--------------------|------------------------------------------------------------|
//! | `EXEC … CERTAIN`   | union of per-shard certain rows                            |
//! | `EXEC … POSSIBLE`  | union of per-shard possible rows                           |
//! | `EXEC … CLOSED`    | certainly-true = **or**, certainly-false = **and**; the    |
//! |                    | `examined` counter replays from per-shard `PROFILE`s       |
//! | `INSERT`/`DELETE`/ | routed by key range: each owning shard gets its rows under |
//! | `MUTATE`           | the client's own command, counts summed                    |
//! | `SET-PRIORITY`     | global tuple ids translated by per-shard row offsets       |
//!
//! *Certain is a union, not an intersection*: a row certain on one shard appears in
//! every combination of the repair product (the other shards' repairs cannot remove
//! it), and a row certain on no shard has a refuting combination assembled from one
//! refuting repair per shard. The closed `examined` counter is exact, not just the
//! verdict: shard `s`'s positions scale by the suffix weight `W_s = Π_{s'>s}
//! total_{s'}` of the row-major product order, the global first-true is the minimum
//! of `ft_s·W_s`, the global first-false the sum of `ff_s·W_s` (the lexicographically
//! least all-false combination), and [`ClosedProfile::outcome`] replays the verdict
//! and stop position from those — bit-identical to single-snapshot execution.
//!
//! Responses carry both `gen=<sum>` (so [`Client`]'s tag parser keeps working) and a
//! per-shard generation vector `gens=<g0>,<g1>,…` a client can pin a consistent cut
//! with. Writes are atomic per shard, not globally: a write that fails on some shard
//! answers `ERR` with the first failure, then each shard that applied its part with
//! the generation it published (`…; applied on shard 1 gen=3`). Subscriptions are
//! not proxied (`SUBSCRIBE` answers `ERR`): push channels belong to the shard that
//! owns the data — connect to it directly. `SHUTDOWN` stops the coordinator only;
//! shards are independent processes with their own lifecycle.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};

use pdqi_core::shard_plan::type_value;
use pdqi_core::{ClosedProfile, CqaOutcome, RouteSpec, ShardPlan};
use pdqi_query::ast::{Formula, Term};
use pdqi_query::classify::{classify, QueryClass};
use pdqi_query::parse_formula;
use pdqi_relation::{Value, ValueType};

use crate::client::{
    parse_batch, parse_describe, parse_tagged, parse_written, Client, ClientError, ExecOutcome,
    TableDescription,
};
use crate::protocol::{
    describe_response, exec_response, outcome_line, profile_line, rows_block, ExecMode, ExecSpec,
    FrameError, Prepared, PreparedMap, Request, MAX_FRAME_BYTES,
};
use crate::transport::{listen, Handle, Handler, WireStats};

/// Coordinator tuning knobs. There are none. The type stays so that callers keep
/// passing `CoordinatorConfig::default()`.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorConfig {}

/// One connection's links to the shards, in shard order: a [`Client`] per shard,
/// opened by the first request that addresses it and closed when it fails.
type Links = Vec<Option<Client>>;

/// One routed table: its typed key-range plan and the schema every shard agreed on.
struct TableRoute {
    plan: ShardPlan,
    columns: Vec<(String, ValueType)>,
}

/// What the coordinator remembers about a `PREPARE`d query, besides its table.
struct CoordPrepared {
    /// The free variables in answer-column order (lexicographic, like the engine's).
    free: Vec<String>,
    /// The value type of each answer column, resolved through the relation atom —
    /// merged rows re-type wire fields so numeric columns sort numerically.
    free_types: Vec<ValueType>,
    /// Ground class: closed answers under the plain-repair family take the
    /// polynomial fast path (`examined == 0`) on shards and mirror alike, so the
    /// coordinator merges `CLOSED` verdicts directly instead of profiling.
    ground: bool,
}

/// The state every connection of one coordinator shares: the shard endpoints, the
/// routes and the prepared queries.
pub struct CoordinatorState {
    /// The shard endpoints, in key-range order.
    addrs: Vec<String>,
    routes: HashMap<String, TableRoute>,
    prepared: PreparedMap<CoordPrepared>,
    /// Last generation observed per shard (monotone via `fetch_max`): the `gens=`
    /// vector of every response.
    gens: Vec<AtomicU64>,
}

impl CoordinatorState {
    fn note_gen(&self, shard: usize, generation: u64) {
        self.gens[shard].fetch_max(generation, Ordering::Relaxed);
    }

    /// Renders `gen=<sum> gens=<g0>,<g1>,…` from the observed generation vector.
    fn gen_tags(&self) -> String {
        let gens: Vec<u64> = self.gens.iter().map(|g| g.load(Ordering::Relaxed)).collect();
        let sum: u64 = gens.iter().sum();
        let list: Vec<String> = gens.iter().map(u64::to_string).collect();
        format!("gen={sum} gens={}", list.join(","))
    }

    fn route(&self, table: &str) -> Result<&TableRoute, String> {
        self.routes.get(table).ok_or_else(|| {
            format!("ERR no route for table `{table}` (pass --route {table}:<key>:…)")
        })
    }

    /// Records the generation of every shard that applied its part of a write. If a
    /// shard failed, the answer is an `ERR` with the first failure, followed by every
    /// shard that applied its part and the generation it published (`…; applied on
    /// shard 1 gen=3`): a client must not hold a bare `ERR` for a write that partly
    /// landed.
    fn settle(&self, writes: Vec<(usize, Result<u64, String>)>) -> Result<(), String> {
        let mut failure = None;
        let mut applied = Vec::new();
        for (shard, write) in writes {
            match write {
                Ok(generation) => {
                    self.note_gen(shard, generation);
                    applied.push(format!("shard {shard} gen={generation}"));
                }
                Err(message) => {
                    failure.get_or_insert(message);
                }
            }
        }
        let Some(failure) = failure else {
            return Ok(());
        };
        if applied.is_empty() {
            return Err(format!("ERR {failure}"));
        }
        Err(format!("ERR {failure}; applied on {}", applied.join(", ")))
    }

    /// Sends each `(shard, payload)` request over `links` and returns each shard's
    /// reply, parsed by `parse`, in request order. Every frame is written before any
    /// reply is read, so the shards work concurrently. Errors name the shard, so a
    /// one-shard-down failure is diagnosable from the merged `ERR` alone. A payload over
    /// [`MAX_FRAME_BYTES`] is refused before anything is written: it fails alone, and
    /// its link stays open and in sync.
    fn fan_out<T>(
        &self,
        links: &mut [Option<Client>],
        requests: Vec<(usize, String)>,
        parse: impl Fn(&str) -> Result<T, ClientError>,
    ) -> Vec<(usize, Result<T, String>)> {
        // `Some(reply)`: the payload is over the limit, refused here instead of sent.
        let sent: Vec<Result<Option<String>, String>> = requests
            .iter()
            .map(|(shard, payload)| match payload.len() {
                size if size > MAX_FRAME_BYTES => Ok(Some(format!(
                    "ERR the request is {size} bytes; the frame limit is {MAX_FRAME_BYTES}"
                ))),
                _ => self.send(&mut links[*shard], *shard, payload).map(|()| None),
            })
            .collect();
        let mut replies = Vec::with_capacity(requests.len());
        for ((shard, payload), sent) in requests.into_iter().zip(sent) {
            let link = &mut links[shard];
            let mut reply = sent.and_then(|refused| refused.map_or_else(|| receive(link), Ok));
            // A request that failed on an open link goes once more on a fresh one; a
            // failed connect leaves the link closed and is not retried.
            if reply.is_err() && link.take().is_some() {
                reply = self.send(link, shard, &payload).and_then(|()| receive(link));
            }
            let addr = &self.addrs[shard];
            let parsed = match reply {
                Err(detail) => {
                    *link = None;
                    Err(format!("shard {shard} ({addr}) unreachable: {detail}"))
                }
                Ok(reply) => match reply.strip_prefix("ERR ") {
                    Some(message) => Err(format!("shard {shard} ({addr}): {message}")),
                    None => parse(&reply).map_err(|e| format!("shard {shard} ({addr}): {e}")),
                },
            };
            replies.push((shard, parsed));
        }
        replies
    }

    /// Sends `request` to every shard and returns the replies in shard order, noting
    /// the generation `parse` reads off each, or the first shard's error.
    fn gather<T>(
        &self,
        links: &mut [Option<Client>],
        request: &Request,
        parse: impl Fn(&str) -> Result<(T, u64), ClientError>,
    ) -> Result<Vec<T>, String> {
        let payload = request.render();
        let requests = (0..self.addrs.len()).map(|shard| (shard, payload.clone())).collect();
        let mut replies = Vec::with_capacity(self.addrs.len());
        for (shard, reply) in self.fan_out(links, requests, parse) {
            let (reply, generation) = reply?;
            self.note_gen(shard, generation);
            replies.push(reply);
        }
        Ok(replies)
    }

    /// Writes `payload` to `shard`, opening its link first if it is closed (a failed
    /// connect leaves it closed). Errors are the detail of an unreachable shard.
    fn send(&self, link: &mut Option<Client>, shard: usize, payload: &str) -> Result<(), String> {
        if link.is_none() {
            *link = Some(Client::connect(&*self.addrs[shard]).map_err(|e| e.to_string())?);
        }
        let client = link.as_mut().expect("an open link");
        client.send(payload).map_err(|e| FrameError::Io(e).to_string())
    }
}

/// Reads the reply to the request just sent on `link`.
fn receive(link: &mut Option<Client>) -> Result<String, String> {
    link.as_mut().expect("a sent request has an open link").receive().map_err(|e| e.to_string())
}

/// A `DESCRIBE` reply and its generation, for [`CoordinatorState::gather`].
fn described(reply: &str) -> Result<(TableDescription, u64), ClientError> {
    let description = parse_describe(reply)?;
    let generation = description.generation;
    Ok((description, generation))
}

/// A handle on a running coordinator: its address, a shutdown trigger and a join
/// point. Shutting the coordinator down leaves the shards running: they are
/// independent processes with their own lifecycle.
pub type CoordinatorHandle = Handle<CoordinatorState>;

/// Binds `addr` and starts coordinating over `shard_addrs` — see the
/// [module docs](self).
///
/// Startup is fail-fast: every shard is contacted, every routed table `DESCRIBE`d on
/// every shard, schemas checked for agreement, key columns resolved and split values
/// typed into [`ShardPlan`]s. Each route must carve the key domain into exactly
/// `shard_addrs.len()` ranges.
pub fn coordinate(
    addr: impl ToSocketAddrs,
    shard_addrs: &[String],
    routes: &[RouteSpec],
    _config: CoordinatorConfig,
) -> io::Result<CoordinatorHandle> {
    if shard_addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a coordinator needs at least one shard endpoint",
        ));
    }
    let mut state = CoordinatorState {
        addrs: shard_addrs.to_vec(),
        routes: HashMap::new(),
        prepared: PreparedMap::new(),
        gens: shard_addrs.iter().map(|_| AtomicU64::new(0)).collect(),
    };
    let mut links = state.open();
    for route in routes {
        if route.splits.len() + 1 != shard_addrs.len() {
            return Err(io::Error::other(format!(
                "route `{route}` carves {} shard range(s) but {} shard endpoint(s) were given",
                route.splits.len() + 1,
                shard_addrs.len()
            )));
        }
        let describe = Request::Describe { table: route.table.clone() };
        let descriptions =
            state.gather(&mut links, &describe, described).map_err(io::Error::other)?;
        if let Some(shard) = descriptions.iter().position(|d| d.columns != descriptions[0].columns)
        {
            return Err(io::Error::other(format!(
                "shard {shard} ({}) disagrees on `{}`'s schema",
                shard_addrs[shard], route.table
            )));
        }
        let columns = descriptions.into_iter().next().expect("at least one shard").columns;
        let Some(key_column) = columns.iter().position(|(name, _)| *name == route.key_column)
        else {
            return Err(io::Error::other(format!(
                "`{}` is not a column of `{}`",
                route.key_column, route.table
            )));
        };
        let plan = route
            .typed(key_column, columns[key_column].1)
            .map_err(|e| io::Error::other(format!("route `{route}`: {e}")))?;
        state.routes.insert(route.table.clone(), TableRoute { plan, columns });
    }
    listen(addr, state)
}

impl Handler for CoordinatorState {
    /// The connection's shard links, opened by its first request.
    type Connection = Links;

    fn open(&self) -> Links {
        self.addrs.iter().map(|_| None).collect()
    }

    /// Answers one well-formed request by fanning it out over the shards and merging.
    fn dispatch(&self, links: &mut Links, request: &Request, wire: &WireStats) -> String {
        match request {
            Request::Ping => "OK pong".to_string(),
            Request::Prepare { id, query } => prepare(self, links, id, query),
            Request::Exec(spec) => {
                exec_response(run_specs(self, links, std::slice::from_ref(spec)), false)
            }
            Request::Batch(specs) => exec_response(run_specs(self, links, specs), true),
            Request::Insert { table, rows } => {
                let part = |rows, _| Request::Insert { table: table.clone(), rows };
                route_mutation(self, links, table, rows, &[], part, |i, _| format!("inserted {i}"))
            }
            Request::Delete { table, rows } => {
                let part = |_, rows| Request::Delete { table: table.clone(), rows };
                route_mutation(self, links, table, &[], rows, part, |_, d| format!("deleted {d}"))
            }
            Request::Mutate { table, inserts, deletes } => {
                let part =
                    |inserts, deletes| Request::Mutate { table: table.clone(), inserts, deletes };
                route_mutation(self, links, table, inserts, deletes, part, |i, d| {
                    format!("mutated inserted {i} deleted {d}")
                })
            }
            Request::SetPriority { table, pairs } => set_priority(self, links, table, pairs),
            Request::Describe { table } => match self.gather(links, request, described) {
                Err(message) => format!("ERR {message}"),
                Ok(descriptions) => describe_response(
                    table,
                    descriptions.iter().map(|description| description.rows).sum(),
                    &self.gen_tags(),
                    descriptions[0].columns.iter().map(|(name, ty)| (name.as_str(), *ty)),
                ),
            },
            Request::Stats => {
                let mut out = format!(
                    "OK stats shards={} routes={} prepared={} {wire}",
                    self.addrs.len(),
                    self.routes.len(),
                    self.prepared.len(),
                );
                for (shard, addr) in self.addrs.iter().enumerate() {
                    let generation = self.gens[shard].load(Ordering::Relaxed);
                    out.push_str(&format!("\nshard {shard} addr={addr} gen={generation}"));
                }
                out
            }
            Request::Alter { .. } => {
                // A new FD can create conflict edges between tuples in *different* key
                // ranges, breaking the no-cross-shard-edge invariant every merge rule
                // above rests on. Refusing is the only sound answer: constraint changes
                // belong in the shard plan, re-sharded so the invariant is re-established.
                "ERR ALTER is not supported through the coordinator (a new FD can create \
                 conflict edges across shard boundaries; rebuild the shard plan instead)"
                    .to_string()
            }
            Request::Subscribe { .. } | Request::Unsubscribe { .. } => {
                "ERR subscriptions are not supported through the coordinator \
                 (connect to a shard directly)"
                    .to_string()
            }
            Request::Explain { .. } => {
                // Each shard plans against its own snapshot and cardinalities; there is
                // no single merged physical plan to report for the fanned-out execution.
                "ERR EXPLAIN is not supported through the coordinator (each shard plans \
                 independently; connect to a shard directly)"
                    .to_string()
            }
            Request::Shutdown => unreachable!("the transport answers SHUTDOWN itself"),
        }
    }
}

/// Validates a query for shard distribution, fans `PREPARE` out to every shard, and
/// remembers the answer-column types the merge needs.
///
/// Distributable queries have exactly one **positive** relation atom (no `NOT`,
/// `->`, `FORALL`): a single atom keeps every witness tuple on one shard, so
/// per-repair evaluation is the union of per-shard evaluations and the merge rules
/// of the [module docs](self) are exact. Joins and negation would need cross-shard
/// evaluation the coordinator deliberately does not do.
fn prepare(state: &CoordinatorState, links: &mut Links, id: &str, query: &str) -> String {
    let formula = match parse_formula(query) {
        Ok(formula) => formula,
        Err(e) => return format!("ERR query error: {e}"),
    };
    let relations = formula.relations();
    if relations.len() != 1 {
        return format!(
            "ERR queries must read exactly one table (this one reads {})",
            relations.len()
        );
    }
    let table = relations.into_iter().next().expect("one relation");
    let route = match state.route(&table) {
        Ok(route) => route,
        Err(message) => return message,
    };
    let mut atoms = Vec::new();
    if !collect_atoms(&formula, &mut atoms) {
        return "ERR query is not distributable: the coordinator serves positive queries \
                only (no NOT, ->, FORALL)"
            .to_string();
    }
    let [atom] = atoms.as_slice() else {
        return format!(
            "ERR query is not distributable: exactly one relation atom is required \
             (this query has {})",
            atoms.len()
        );
    };
    if atom.args.len() != route.columns.len() {
        return format!(
            "ERR `{table}` has {} column(s) but the atom has {} argument(s)",
            route.columns.len(),
            atom.args.len()
        );
    }
    let free = formula.free_vars();
    let mut free_types = Vec::with_capacity(free.len());
    for var in &free {
        let Some(position) =
            atom.args.iter().position(|term| matches!(term, Term::Var(name) if name == var))
        else {
            return format!(
                "ERR query is not distributable: free variable `{var}` does not appear \
                 in the relation atom"
            );
        };
        free_types.push(route.columns[position].1);
    }
    let ground = classify(&formula) == QueryClass::Ground;
    let request = Request::Prepare { id: id.to_string(), query: query.to_string() };
    // A `PREPARE` reply carries no generation; noting 0 leaves the vector as it is.
    if let Err(message) = state.gather(links, &request, |_| Ok(((), 0))) {
        return format!("ERR {message}");
    }
    let response = format!("OK prepared {id} table={table} columns={}", free.join(","));
    state
        .prepared
        .insert(id, Prepared { table, query: CoordPrepared { free, free_types, ground } });
    response
}

/// Collects the relation atoms of `formula`; returns `false` if the formula uses a
/// non-monotone connective (`NOT`, `->`, `FORALL`) the merge rules do not cover.
fn collect_atoms<'a>(formula: &'a Formula, out: &mut Vec<&'a pdqi_query::ast::Atom>) -> bool {
    match formula {
        Formula::True | Formula::False | Formula::Comparison(..) => true,
        Formula::Atom(atom) => {
            out.push(atom);
            true
        }
        Formula::And(lhs, rhs) | Formula::Or(lhs, rhs) => {
            collect_atoms(lhs, out) && collect_atoms(rhs, out)
        }
        Formula::Exists(_, body) => collect_atoms(body, out),
        Formula::Not(..) | Formula::Implies(..) | Formula::Forall(..) => false,
    }
}

/// Resolves `specs` against the prepared map, fans one `BATCH` per shard out (closed
/// entries rewritten to `PROFILE` so `examined` merges exactly), and merges each
/// entry back into a rendered response block.
fn run_specs(
    state: &CoordinatorState,
    links: &mut Links,
    specs: &[ExecSpec],
) -> Result<(Vec<String>, String), String> {
    let entries = state.prepared.resolve(specs)?;
    // Closed entries go out as PROFILE (except the ground/plain-repair fast path,
    // which answers examined == 0 on shards and mirror alike): the verdict alone
    // cannot reproduce the mirror's `examined`, the profile can.
    let shard_specs: Vec<ExecSpec> = specs
        .iter()
        .zip(&entries)
        .map(|(spec, entry)| {
            let mode = match spec.mode {
                ExecMode::Closed
                    if !(spec.family == pdqi_core::FamilyKind::Rep && entry.query.ground) =>
                {
                    ExecMode::Profile
                }
                mode => mode,
            };
            ExecSpec { id: spec.id.clone(), family: spec.family, mode }
        })
        .collect();
    let per_shard = state
        .gather(links, &Request::Batch(shard_specs), |reply| parse_batch(reply, specs.len()))?;
    let blocks = specs
        .iter()
        .zip(&entries)
        .enumerate()
        .map(|(index, (spec, entry))| {
            let shard_outcomes: Vec<&ExecOutcome> =
                per_shard.iter().map(|outcomes| &outcomes[index]).collect();
            merge_entry(spec, &entry.query, &shard_outcomes)
        })
        .collect();
    Ok((blocks, state.gen_tags()))
}

/// Merges one batch entry's per-shard outcomes into a rendered response block.
fn merge_entry(spec: &ExecSpec, info: &CoordPrepared, shards: &[&ExecOutcome]) -> String {
    if let Some(ExecOutcome::Error(message)) =
        shards.iter().find(|outcome| matches!(outcome, ExecOutcome::Error(_)))
    {
        return format!("error {message}");
    }
    match spec.mode {
        ExecMode::Certain | ExecMode::Possible => merge_rows(info, shards),
        ExecMode::Profile => match merge_profiles(shards) {
            Err(message) => format!("error {message}"),
            Ok(profile) => profile_line(&profile),
        },
        ExecMode::Closed if spec.family == pdqi_core::FamilyKind::Rep && info.ground => {
            // Per-shard ground fast-path verdicts: certainly-true is an OR (a shard's
            // certain truth survives every combination), certainly-false an AND.
            let mut certainly_true = false;
            let mut certainly_false = true;
            for outcome in shards {
                let ExecOutcome::Outcome { verdict, .. } = outcome else {
                    return "error shard answered a CLOSED request with a non-outcome block"
                        .to_string();
                };
                certainly_true |= verdict == "true";
                certainly_false &= verdict == "false";
            }
            outcome_line(&CqaOutcome { certainly_true, certainly_false, examined: 0 })
        }
        ExecMode::Closed => match merge_profiles(shards) {
            Err(message) => format!("error {message}"),
            Ok(profile) => outcome_line(&profile.outcome()),
        },
    }
}

/// Merges per-shard open-query answers: the union of per-shard rows, re-typed so the
/// merged [`BTreeSet`] sorts exactly like the engine's (numeric columns numerically,
/// names lexicographically) and re-rendered in that order.
fn merge_rows(info: &CoordPrepared, shards: &[&ExecOutcome]) -> String {
    let mut merged: BTreeSet<Vec<Value>> = BTreeSet::new();
    for outcome in shards {
        let ExecOutcome::Rows { rows, .. } = outcome else {
            return "error shard answered a row request with a non-row block".to_string();
        };
        for row in rows {
            if row.len() != info.free_types.len() {
                return format!(
                    "error shard row has {} field(s), expected {}",
                    row.len(),
                    info.free_types.len()
                );
            }
            let typed: Result<Vec<Value>, _> = row
                .iter()
                .zip(&info.free_types)
                .map(|(field, ty)| type_value(field, *ty))
                .collect();
            match typed {
                Ok(values) => {
                    merged.insert(values);
                }
                Err(e) => return format!("error shard row does not type: {e}"),
            }
        }
    }
    rows_block(&info.free, merged.iter())
}

/// Merges per-shard closed profiles over the row-major product order: shard `s`'s
/// positions scale by the suffix weight `W_s = Π_{s'>s} total_{s'}`; the global
/// first-true is the least single-shard witness, the global first-false the
/// lexicographically least all-false combination.
fn merge_profiles(shards: &[&ExecOutcome]) -> Result<ClosedProfile, String> {
    let mut parts = Vec::with_capacity(shards.len());
    for outcome in shards {
        let ExecOutcome::Profile { total, first_true, first_false } = outcome else {
            return Err("shard answered a PROFILE request with a non-profile block".to_string());
        };
        parts.push((*total, *first_true, *first_false));
    }
    let mut total: u128 = 1;
    for &(t, _, _) in &parts {
        total = total.saturating_mul(t);
    }
    if total == 0 {
        return Ok(ClosedProfile { total: 0, first_true: None, first_false: None });
    }
    let mut weights = vec![1u128; parts.len()];
    for s in (0..parts.len().saturating_sub(1)).rev() {
        weights[s] = weights[s + 1].saturating_mul(parts[s + 1].0);
    }
    let first_true = parts
        .iter()
        .zip(&weights)
        .filter_map(|((_, ft, _), weight)| ft.map(|at| at.saturating_mul(*weight)))
        .min();
    let mut first_false = Some(0u128);
    for ((_, _, ff), weight) in parts.iter().zip(&weights) {
        first_false = match (first_false, ff) {
            (Some(sum), Some(at)) => Some(sum.saturating_add(at.saturating_mul(*weight))),
            _ => None,
        };
    }
    Ok(ClosedProfile { total, first_true, first_false })
}

/// Routes `INSERT`/`DELETE`/`MUTATE` rows to their owning shards by key range and
/// applies each shard's rows there as the request `part` builds from its inserts and
/// deletes: the client's own command, so no shard frame is larger than the client's.
/// Untouched shards are skipped entirely (no generation bump — exactly the rows'
/// owners swap). `answer` renders the summed `(inserted, deleted)` counts.
fn route_mutation(
    state: &CoordinatorState,
    links: &mut Links,
    table: &str,
    inserts: &[Vec<String>],
    deletes: &[Vec<String>],
    part: impl Fn(Vec<Vec<String>>, Vec<Vec<String>>) -> Request,
    answer: impl Fn(usize, usize) -> String,
) -> String {
    let route = match state.route(table) {
        Ok(route) => route,
        Err(message) => return message,
    };
    let bucket = |rows: &[Vec<String>]| -> Result<Vec<Vec<Vec<String>>>, String> {
        let mut buckets = vec![Vec::new(); state.addrs.len()];
        for row in rows {
            if row.len() != route.columns.len() {
                return Err(format!(
                    "row has {} value(s) but `{table}` has {} column(s)",
                    row.len(),
                    route.columns.len()
                ));
            }
            let key_text = &row[route.plan.key_column()];
            let key =
                type_value(key_text, route.columns[route.plan.key_column()].1).map_err(|_| {
                    format!(
                        "`{key_text}` is not a valid key for column `{}`",
                        route.columns[route.plan.key_column()].0
                    )
                })?;
            buckets[route.plan.shard_of(&key)].push(row.clone());
        }
        Ok(buckets)
    };
    let (insert_buckets, delete_buckets) = match (bucket(inserts), bucket(deletes)) {
        (Ok(insert_buckets), Ok(delete_buckets)) => (insert_buckets, delete_buckets),
        (Err(message), _) | (_, Err(message)) => return format!("ERR {message}"),
    };
    let requests: Vec<(usize, String)> = insert_buckets
        .into_iter()
        .zip(delete_buckets)
        .enumerate()
        .filter(|(_, (inserts, deletes))| !inserts.is_empty() || !deletes.is_empty())
        .map(|(shard, (inserts, deletes))| (shard, part(inserts, deletes).render()))
        .collect();
    let (mut inserted, mut deleted) = (0, 0);
    let writes = state
        .fan_out(links, requests, parse_written)
        .into_iter()
        .map(|(shard, write)| {
            let generation = write.map(|(i, d, generation)| {
                inserted += i;
                deleted += d;
                generation
            });
            (shard, generation)
        })
        .collect();
    match state.settle(writes) {
        Ok(()) => format!("OK {} {}", answer(inserted, deleted), state.gen_tags()),
        Err(message) => message,
    }
}

/// Translates global tuple-id pairs into per-shard local ids and replaces every
/// shard's priority in one fan-out.
///
/// The coordinator's global tuple-id space is the concatenation of the shard row
/// blocks in shard order, so the translation needs the shards' **current** row
/// counts — a fresh `DESCRIBE` fan-out, not a startup-cached one, because mutations
/// shift the offsets. A pair whose endpoints live on different shards is rejected:
/// cross-shard tuples share no conflict component, so no preference between them can
/// affect any repair (the mirror would simply reject the non-edge pair too).
fn set_priority(
    state: &CoordinatorState,
    links: &mut Links,
    table: &str,
    pairs: &[(u32, u32)],
) -> String {
    if let Err(message) = state.route(table) {
        return message;
    }
    let describe = Request::Describe { table: table.to_string() };
    let descriptions = match state.gather(links, &describe, described) {
        Ok(descriptions) => descriptions,
        Err(message) => return format!("ERR {message}"),
    };
    let mut offsets = Vec::with_capacity(descriptions.len());
    let mut total = 0u64;
    for description in &descriptions {
        offsets.push(total);
        total += description.rows as u64;
    }
    let shard_of = |id: u32| -> Result<usize, String> {
        if u64::from(id) >= total {
            return Err(format!("tuple id {id} is out of range (the table has {total} row(s))"));
        }
        Ok(offsets.partition_point(|&offset| offset <= u64::from(id)) - 1)
    };
    let mut shard_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); state.addrs.len()];
    for &(winner, loser) in pairs {
        let (ws, ls) = match (shard_of(winner), shard_of(loser)) {
            (Ok(ws), Ok(ls)) => (ws, ls),
            (Err(message), _) | (_, Err(message)) => return format!("ERR {message}"),
        };
        if ws != ls {
            return format!(
                "ERR priority pair {winner}>{loser} crosses shards (tuples on shard {ws} \
                 and shard {ls} never conflict)"
            );
        }
        shard_pairs[ws].push((
            winner - u32::try_from(offsets[ws]).unwrap_or(0),
            loser - u32::try_from(offsets[ls]).unwrap_or(0),
        ));
    }
    // SET-PRIORITY replaces the table's whole priority, so every shard swaps — a
    // shard with no pair of its own installs the empty priority, exactly as the
    // mirror replaces preferences for tuples the pair list no longer mentions.
    let requests = shard_pairs
        .into_iter()
        .enumerate()
        .map(|(shard, pairs)| {
            (shard, Request::SetPriority { table: table.to_string(), pairs }.render())
        })
        .collect();
    match state.settle(state.fan_out(links, requests, |reply| parse_tagged(reply, "gen"))) {
        Ok(()) => format!("OK swapped {table} {}", state.gen_tags()),
        Err(message) => message,
    }
}
