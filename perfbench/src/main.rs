//! The pdqi serving benchmark: four seeded, closed-loop workloads against an
//! in-process `pdqi_server::serve` / `coordinate`, with answer checks, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! pdqi-perfbench --workload <hot_reads|adhoc_cqa|churn|scatter> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads, metrics and the reasons behind them are described in `WORKLOADS.md`.

mod data;
mod layers;
mod measure;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{calibrate_median, median, peak_rss_mib, process_cpu, Report};
use trace::Tracer;
use workloads::{Counters, Outcome, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pdqi-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "hot_reads" => run::<workloads::hot_reads::HotReads>(&args),
        "adhoc_cqa" => run::<workloads::adhoc::AdhocCqa>(&args),
        "churn" => run::<workloads::churn::Churn>(&args),
        "scatter" => run::<workloads::scatter::Scatter>(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match report {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("pdqi-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The run's parameters, with the CPUs this process may use (`nproc`, 1 when
/// `run.py` pinned it) and the CPUs the host has (`host_cpus`).
fn header(args: &Args, extra: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let host_cpus = cpuinfo.lines().filter(|line| line.starts_with("processor")).count();
    format!(
        "pdqi-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} \
         host_cpus={host_cpus}{extra}",
        args.workload, args.seed, args.seconds, args.trace as u8
    )
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

/// The untraced run: `SETUPS` set-ups (the last one is kept), then whole rounds of
/// the workload's fixed operation sequence until `--seconds` have passed.
fn untraced<W: Workload>(args: &Args) -> Result<Report, String> {
    let calib_before = calibrate_median();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept: Option<W> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let workload = W::setup(args.seed, None)?;
        setups.push(start.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(workload) {
            previous.shutdown();
        }
    }
    let mut workload = kept.expect("at least one set-up");
    let mut report = Report::new(String::new());
    let mut outcome = Outcome::default();

    let deadline = Duration::from_secs_f64(args.seconds);
    let cpu_start = process_cpu();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed() < deadline {
        workload.round(round, &mut outcome, &mut report, None);
        round += 1;
    }
    let wall = start.elapsed();
    let cpu = process_cpu().saturating_sub(cpu_start);
    // Before the checks, which build reference snapshots of their own.
    let rss = peak_rss_mib();
    workload.finish(&mut outcome, &mut report);
    workload.shutdown();
    let calib_after = calibrate_median();

    report.header = header(args, &format!(" rounds={round} ops={}", outcome.ops));
    report.attempted = outcome.ops;
    let setup_note = format!(
        "n={SETUPS} set-ups, median; min={:.4} max={:.4}",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );
    report.metric("setup_s", median(&setups), "s", setup_note);

    let reads = std::mem::take(&mut outcome.reads).sorted();
    report.percentile("read_p50_us", reads.percentile(0.50), true);
    report.percentile("read_p99_us", reads.percentile(0.99), true);
    let ops = outcome.ops as f64;
    let note = format!("{} ops in {:.3} s", outcome.ops, wall.as_secs_f64());
    report.metric("ops_per_s", ops / wall.as_secs_f64(), "ops/s", note);
    let note = format!("{:.2} s user+sys over {} ops", cpu.as_secs_f64(), outcome.ops);
    report.metric("cpu_us_per_op", cpu.as_secs_f64() * 1e6 / ops.max(1.0), "us", note);
    report.metric("peak_rss_mb", rss, "MiB", "VmHWM".to_string());
    for (name, samples) in [("write", &mut outcome.writes), ("push", &mut outcome.pushes)] {
        if samples.len() > 0 {
            let samples = std::mem::take(samples).sorted();
            report.percentile(&format!("{name}_p50_us"), samples.percentile(0.50), false);
            report.percentile(&format!("{name}_p99_us"), samples.percentile(0.99), false);
        }
    }
    report.line(
        "host.calib_ms",
        Some((calib_before + calib_after) / 2.0),
        "ms",
        format!("before={calib_before:.3} after={calib_after:.3}"),
    );
    if outcome.ops == 0 {
        report.problems.push("no operation completed".to_string());
    }
    Ok(report)
}

/// The traced run. Two fresh set-ups replay the same fixed block untraced: their
/// timing-independent counters must agree exactly, and the second (like the traced
/// replay, not the first block the process runs) gives the untraced read median. A third set-up replays the block with every wire operation as a root
/// span and the matching in-process layer calls as its children; then the in-process
/// layer probes run. Spans are written to `perfbench/out/` at exit.
fn traced<W: Workload>(args: &Args) -> Result<Report, String> {
    let calib_before = calibrate_median();
    let mut report = Report::new(String::new());
    let mut tracer = Tracer::new();

    let mut counters: Vec<Counters> = Vec::new();
    let mut untraced = Outcome::default();
    let mut ops = 0;
    for replica in 0..2 {
        let mut workload = W::setup(args.seed, None)?;
        let mut outcome = Outcome::default();
        let before = workload.counters();
        for round in 0..W::TRACE_ROUNDS {
            workload.round(round, &mut outcome, &mut report, None);
        }
        let after = workload.counters();
        workload.finish(&mut outcome, &mut report);
        workload.shutdown();
        counters.push(after.since(&before));
        ops += outcome.ops;
        if replica == 1 {
            untraced = outcome;
        }
    }

    let mut workload = W::setup(args.seed, Some(&mut tracer))?;
    let mut outcome = Outcome::default();
    for round in 0..W::TRACE_ROUNDS {
        workload.round(round, &mut outcome, &mut report, Some(&mut tracer));
    }
    workload.finish(&mut outcome, &mut report);
    ops += outcome.ops;
    let input = workload.layer_input();
    workload.shutdown();
    let probed = layers::probe(&input, &mut tracer);
    let calib_after = calibrate_median();

    report.header = header(
        args,
        &format!(" block_rounds={} ops={ops} spans={}", W::TRACE_ROUNDS, tracer.len()),
    );
    report.attempted = ops;
    let (first, second) = (&counters[0], &counters[1]);
    if first.checked() != second.checked() {
        report.problems.push(format!(
            "timing-independent counters differ between two same-seed replays: {:?} vs {:?}",
            first.checked(),
            second.checked()
        ));
    }
    layers::report(&mut report, &tracer, &probed, first, &untraced, &outcome);
    let traced_p50 = outcome.reads.median_us();
    let untraced_p50 = untraced.reads.median_us();
    report.metric(
        "setup.build_s",
        tracer.median_self_us("setup.build").unwrap_or(0.0) / 1e6,
        "s",
        "EngineBuilder::build".to_string(),
    );
    report.metric(
        "setup.warm_s",
        tracer.median_self_us("setup.warm").unwrap_or(0.0) / 1e6,
        "s",
        "warm-up pass".to_string(),
    );
    report.metric(
        "setup.listen_s",
        tracer.median_self_us("setup.listen").unwrap_or(0.0) / 1e6,
        "s",
        "serve + connect + PREPARE".to_string(),
    );
    report.metric(
        "host.calib_ms",
        (calib_before + calib_after) / 2.0,
        "ms",
        format!("before={calib_before:.3} after={calib_after:.3}"),
    );
    report.metric(
        "trace.overhead_us",
        traced_p50 - untraced_p50,
        "us",
        format!("traced read p50 {traced_p50:.3} - untraced {untraced_p50:.3}"),
    );
    let path =
        PathBuf::from("perfbench/out").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match tracer.dump(&path) {
        Ok(()) => report.line(
            "trace.spans",
            Some(tracer.len() as f64),
            "count",
            format!("{}", path.display()),
        ),
        Err(e) => report.problems.push(format!("cannot write {}: {e}", path.display())),
    }
    Ok(report)
}
