//! Measurement helpers: percentiles with their sample counts, process CPU and peak
//! memory, the host calibration, and the report every run prints.

use std::time::{Duration, Instant};

/// Latencies of one operation class, in nanoseconds. Four bytes a sample keep the
/// benchmark's own memory small next to the program's in `peak_rss_mb` (an
/// operation longer than 4.29 s saturates).
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u32>);

/// A percentile with its sample count. A percentile with fewer than ten samples
/// beyond it is unresolved: the run did not measure that tail.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value_us: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl Percentile {
    pub fn resolved(&self) -> bool {
        self.beyond >= 10
    }
}

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.0.push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank `q`-quantile (0 < q < 1). The caller sorts first.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        debug_assert!(self.0.windows(2).all(|w| w[0] <= w[1]), "sort before ranking");
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(Percentile { value_us: self.0[rank - 1] as f64 / 1e3, samples: n, beyond: n - rank })
    }

    pub fn sorted(mut self) -> Self {
        self.0.sort_unstable();
        self
    }

    /// Median in microseconds (0 for no samples).
    pub fn median_us(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        Samples(v).percentile(0.5).map_or(0.0, |p| p.value_us)
    }
}

/// Median of a list of floats (0 for an empty list).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// User plus system CPU time of this process (all threads), from `/proc/self/stat`
/// (clock ticks of 1/100 s, the fixed `USER_HZ` of that interface).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, utime 14, stime 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed reference computation that uses no pdqi code: sorting two hundred
/// thousand pseudo-random integers. Its time tells a slow host phase apart from a
/// slow program; it is reported, never gated.
pub fn calibrate() -> f64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut values: Vec<u64> = (0..200_000)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect();
    let start = Instant::now();
    values.sort_unstable();
    std::hint::black_box(&values);
    start.elapsed().as_secs_f64() * 1e3
}

/// Three calibration rounds, reported as their median.
pub fn calibrate_median() -> f64 {
    median(&[calibrate(), calibrate(), calibrate()])
}

/// One line of human-readable output and, when `gated`, one JSON metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub note: String,
}

/// What one invocation prints.
pub struct Report {
    pub header: String,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Printed for the reader, with sample counts; not part of the JSON line.
    pub lines: Vec<Metric>,
    /// The JSON line's metrics, in `BENCHMARK.json` order.
    pub json: Vec<Metric>,
}

impl Report {
    pub fn new(header: String) -> Self {
        Report {
            header,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            lines: Vec::new(),
            json: Vec::new(),
        }
    }

    /// Records one failed operation (an `ERR`, a client error or a wrong answer).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn line(&mut self, name: &str, value: Option<f64>, unit: &'static str, note: String) {
        self.lines.push(Metric { name: name.to_string(), value, unit, note });
    }

    /// A metric that appears both as a line and in the JSON object.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        let metric = Metric { name: name.to_string(), value: Some(value), unit, note };
        self.lines.push(metric.clone());
        self.json.push(metric);
    }

    /// A latency percentile as a line; `gated` ones also go to the JSON object.
    pub fn percentile(&mut self, name: &str, p: Option<Percentile>, gated: bool) {
        match p {
            Some(p) if p.resolved() => {
                let note = format!("n={} beyond={}", p.samples, p.beyond);
                if gated {
                    self.metric(name, p.value_us, "us", note);
                } else {
                    self.line(name, Some(p.value_us), "us", note);
                }
            }
            Some(p) => {
                let note = format!("unresolved: n={} beyond={} (<10)", p.samples, p.beyond);
                self.line(name, None, "us", note);
                if gated {
                    self.problems.push(format!("{name} is unresolved ({} samples)", p.samples));
                }
            }
            None => {
                self.line(name, None, "us", "unresolved: no samples".to_string());
                if gated {
                    self.problems.push(format!("{name} has no samples"));
                }
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints every line, then the JSON object as the last line of stdout.
    pub fn print(&self) {
        println!("{}", self.header);
        for m in &self.lines {
            let value = m.value.map_or("unresolved".to_string(), |v| format!("{v:.4}"));
            println!("  {:<34} {:>14} {:<6} {}", m.name, value, m.unit, m.note);
        }
        let share =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!(
            "  {:<34} {:>14} {:<6} {} of {} ops",
            "failed_share",
            format!("{share:.4}"),
            "ratio",
            self.failed,
            self.attempted
        );
        for problem in &self.problems {
            println!("  problem: {problem}");
        }
        let metrics: Vec<String> = self
            .json
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value.unwrap_or(0.0)),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with all its digits.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
