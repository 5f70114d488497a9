//! The `pdqi` binary: scripts, a serving front end, and a protocol client.
//!
//! Usage:
//!
//! ```text
//! pdqi [--threads N] script1.sql script2.sql   # run the given scripts in order
//! pdqi [--threads N]                           # read a script from standard input
//! pdqi serve [--addr HOST:PORT] [--threads N] [--write-hold-ms N] script.sql ...
//! pdqi coord [--addr HOST:PORT] --shard HOST:PORT [--shard ...] --route TABLE:KEY:SPLITS
//! pdqi connect HOST:PORT                       # protocol lines on stdin → responses
//! ```
//!
//! `serve` loads the scripts into a SQL session, publishes every table into a snapshot
//! registry, and serves the wire protocol (PREPARE / EXEC / BATCH / INSERT / DELETE /
//! MUTATE / SET-PRIORITY / SUBSCRIBE / UNSUBSCRIBE / DESCRIBE / STATS / SHUTDOWN)
//! until a client sends `SHUTDOWN`. `coord` serves the same protocol as a
//! scatter-gather front end over running shard servers: `--shard` names each shard
//! endpoint in key-range order, `--route` gives a table's key column and the
//! `shards-1` ascending split values that carve its key domain (e.g.
//! `--route Emp:Id:10` for two shards splitting at `Id = 10`). Both run on one
//! transport: one accept thread per listener and one thread per connection. `connect`
//! sends one request per input line (`BATCH` entries and mutation rows separated by
//! `;`) and prints each response; after a `SUBSCRIBE`, pushed `DELTA`/`LAGGED` frames
//! print as they arrive, and a client-side `WAIT <n> [timeout_ms]` line blocks until
//! `n` of them arrived.
//!
//! `--threads N` runs repair-quantified work with up to `N` worker threads
//! (`--threads 0` or `--threads auto` uses one worker per hardware thread). Parallelism
//! never changes answers — it only trades threads for latency.

use std::io::Read;

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: pdqi [--threads N|auto] [script.sql ...]");
    eprintln!(
        "       pdqi serve [--addr HOST:PORT] [--threads N|auto] [--write-hold-ms N] \
         [script.sql ...]"
    );
    eprintln!(
        "       pdqi coord [--addr HOST:PORT] --shard HOST:PORT ... --route TABLE:KEY:SPLITS ..."
    );
    eprintln!("       pdqi connect HOST:PORT");
    std::process::exit(2);
}

fn parse_threads(text: &str) -> usize {
    if text == "auto" {
        return 0;
    }
    match text.parse() {
        Ok(threads) => threads,
        Err(_) => usage_error(&format!("`{text}` is not a thread count")),
    }
}

/// Flags shared by the script runner and `serve`: `--threads`, plus `serve`'s
/// `--addr`/`--write-hold-ms`; everything else is a script path.
struct Options {
    threads: usize,
    addr: String,
    write_hold_ms: u64,
    paths: Vec<String>,
}

fn parse_options(args: &[String], serve: bool) -> Options {
    let mut options = Options {
        threads: 1,
        addr: "127.0.0.1:4999".to_string(),
        write_hold_ms: 0,
        paths: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        // `--flag value` and `--flag=value` both work; None means `arg` is not this flag.
        let mut flag_value = |name: &str| -> Option<String> {
            if let Some(value) = arg.strip_prefix(name).and_then(|rest| rest.strip_prefix('=')) {
                return Some(value.to_string());
            }
            if arg == name {
                return Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error(&format!("{name} needs a value"))),
                );
            }
            None
        };
        if let Some(value) = flag_value("--threads") {
            options.threads = parse_threads(&value);
        } else if let Some(value) = serve.then(|| flag_value("--addr")).flatten() {
            options.addr = value;
        } else if let Some(value) = serve.then(|| flag_value("--write-hold-ms")).flatten() {
            options.write_hold_ms = value
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("`{value}` is not a hold in ms")));
        } else if arg.starts_with("--") {
            usage_error(&format!("unknown flag `{arg}`"));
        } else {
            options.paths.push(arg.clone());
        }
    }
    options
}

fn read_script(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(script) => script,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    }
}

fn script_main(args: &[String]) {
    let options = parse_options(args, false);
    let mut interpreter = pdqi_cli::Interpreter::with_threads(options.threads);
    if options.paths.is_empty() {
        let mut script = String::new();
        if std::io::stdin().read_to_string(&mut script).is_err() {
            eprintln!("error: could not read a script from standard input");
            std::process::exit(1);
        }
        print!("{}", interpreter.run_script(&script));
        return;
    }
    for path in &options.paths {
        print!("{}", interpreter.run_script(&read_script(path)));
    }
}

fn serve_main(args: &[String]) {
    use std::io::Write as _;

    let options = parse_options(args, true);
    let mut interpreter = pdqi_cli::Interpreter::with_threads(options.threads);
    for path in &options.paths {
        // Unlike the interactive runner, a serve-time load aborts on the first failing
        // statement — serving a partially-loaded catalog silently would be worse. The
        // per-line Result is the error signal (printed output can legitimately contain
        // the text "error:", e.g. in stored rows).
        for line in read_script(path).lines() {
            match interpreter.run_line(line) {
                Ok(output) => {
                    if !output.is_empty() {
                        print!("{output}");
                        if !output.ends_with('\n') {
                            println!();
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    eprintln!("error: `{path}` did not load cleanly; refusing to serve");
                    std::process::exit(1);
                }
            }
        }
    }
    let session = interpreter.session_mut();
    if let Err(e) = session.publish_tables() {
        eprintln!("error: cannot publish tables: {e}");
        std::process::exit(1);
    }
    let registry = std::sync::Arc::clone(session.registry());
    let tables = registry.table_names();
    let config = pdqi_server::ServerConfig {
        parallelism: session.parallelism(),
        write_hold: std::time::Duration::from_millis(options.write_hold_ms),
    };
    let handle = match pdqi_server::serve(options.addr.as_str(), registry, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: cannot bind `{}`: {e}", options.addr);
            std::process::exit(1);
        }
    };
    // One parseable readiness line, flushed before blocking: scripted drivers (the CI
    // smoke job) wait for it before connecting.
    println!(
        "serving {} table(s) [{}] at {}",
        tables.len(),
        tables.join(", "),
        handle.local_addr()
    );
    let _ = std::io::stdout().flush();
    handle.wait();
    println!("server stopped");
}

fn coord_main(args: &[String]) {
    use std::io::Write as _;

    let mut addr = "127.0.0.1:4998".to_string();
    let mut shards: Vec<String> = Vec::new();
    let mut routes: Vec<pdqi_core::RouteSpec> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut flag_value = |name: &str| -> Option<String> {
            if let Some(value) = arg.strip_prefix(name).and_then(|rest| rest.strip_prefix('=')) {
                return Some(value.to_string());
            }
            if arg == name {
                return Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error(&format!("{name} needs a value"))),
                );
            }
            None
        };
        if let Some(value) = flag_value("--addr") {
            addr = value;
        } else if let Some(value) = flag_value("--shard") {
            shards.push(value);
        } else if let Some(value) = flag_value("--route") {
            match pdqi_core::RouteSpec::parse(&value) {
                Ok(route) => routes.push(route),
                Err(e) => usage_error(&format!("bad --route: {e}")),
            }
        } else {
            usage_error(&format!("unknown argument `{arg}`"));
        }
    }
    if shards.is_empty() {
        usage_error("coord needs at least one --shard HOST:PORT");
    }
    let config = pdqi_server::CoordinatorConfig::default();
    let handle = match pdqi_server::coordinate(addr.as_str(), &shards, &routes, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: cannot start the coordinator: {e}");
            std::process::exit(1);
        }
    };
    // One parseable readiness line, flushed before blocking, mirroring `serve`'s.
    println!(
        "coordinating {} shard(s) [{}] at {}",
        shards.len(),
        shards.join(", "),
        handle.local_addr()
    );
    let _ = std::io::stdout().flush();
    handle.wait();
    println!("coordinator stopped");
}

fn connect_main(args: &[String]) {
    let [addr] = args else {
        usage_error("connect takes exactly one HOST:PORT argument");
    };
    let mut input = String::new();
    if std::io::stdin().read_to_string(&mut input).is_err() {
        eprintln!("error: could not read requests from standard input");
        std::process::exit(1);
    }
    match pdqi_cli::run_connect_script(addr, &input) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("coord") => coord_main(&args[1..]),
        Some("connect") => connect_main(&args[1..]),
        _ => script_main(&args),
    }
}
