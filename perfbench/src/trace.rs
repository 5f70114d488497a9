//! In-memory spans for the traced run.
//!
//! Each wire operation of the replayed sequence is a root span with a fresh request
//! id; the in-process layer calls the benchmark makes for that same operation are its
//! children. A span's self time is its duration minus the part of it that its
//! children cover. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), next_request: 0 }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span under a fresh request id; close it with [`Tracer::end`].
    pub fn root(&mut self, name: &'static str) -> usize {
        self.next_request += 1;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request: self.next_request,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span { name, request, parent: Some(parent), start_ns, end_ns });
        out
    }

    /// Runs `f` as a root span of its own (an in-process layer call outside any
    /// wire operation).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.root(name);
        let out = f();
        self.end(span);
        out
    }

    /// Self time in nanoseconds of every span, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(index);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[index]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                .collect();
            covered.sort_unstable();
            let (mut busy, mut until) = (0u64, span.start_ns);
            for (start, end) in covered {
                let start = start.max(until);
                if end > start {
                    busy += end - start;
                    until = end;
                }
            }
            let total = span.end_ns.saturating_sub(span.start_ns);
            out.entry(span.name).or_default().push(total.saturating_sub(busy));
        }
        out
    }

    /// Median self time of the spans named `name`, in microseconds.
    pub fn median_self_us(&self, name: &str) -> Option<f64> {
        let times = self.self_times();
        let values: Vec<f64> = times.get(name)?.iter().map(|&ns| ns as f64 / 1e3).collect();
        Some(crate::measure::median(&values))
    }

    /// Duration of the most recently recorded span.
    pub fn last_duration_ns(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end_ns.saturating_sub(s.start_ns))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.request, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
