//! Spans around the benchmark's calls into each layer's public API.
//!
//! A diagnosis makes thousands of engine/collector/consultant calls, so
//! spans are folded as they close: each unit keeps, per span name, its
//! total duration and call count. The folded units stay in memory and
//! are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The folded spans and counters of one unit of work.
#[derive(Debug, Default, Clone)]
pub struct UnitTrace {
    /// Span name → (total time, calls).
    pub spans: BTreeMap<&'static str, (Duration, u64)>,
    /// Counter name → value, counted where the work happens.
    pub counts: BTreeMap<&'static str, f64>,
    /// Wall time of the whole traced unit.
    pub total: Duration,
    /// Position of the unit in its client's seeded sequence.
    pub seq: u64,
}

impl UnitTrace {
    /// Milliseconds spent in spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |(d, _)| d.as_secs_f64() * 1e3)
    }

    /// Counter value, 0 when never counted.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Unit time no span covers. Spans never nest, so their sum is the
    /// covered time.
    pub fn unattributed_ms(&self) -> f64 {
        let covered: Duration = self.spans.values().map(|(d, _)| *d).sum();
        self.total.saturating_sub(covered).as_secs_f64() * 1e3
    }
}

/// Records the spans of the unit in progress.
#[derive(Debug, Default)]
pub struct Tracer {
    unit: UnitTrace,
    started: Option<Instant>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Starts a new unit; spans recorded until [`Tracer::finish`] belong
    /// to it.
    pub fn begin(&mut self) {
        self.unit = UnitTrace::default();
        self.started = Some(Instant::now());
    }

    /// Closes unit number `seq` of its client and returns its folded
    /// trace.
    pub fn finish(&mut self, seq: u64) -> UnitTrace {
        let mut unit = std::mem::take(&mut self.unit);
        unit.total = self.started.take().map_or(Duration::ZERO, |s| s.elapsed());
        unit.seq = seq;
        unit
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Adds an already measured span.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.unit.spans.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.unit.counts.entry(name).or_default() += n;
    }
}

/// Writes one JSON line per unit: total, per-span time and calls, and
/// counters.
pub fn write_units(path: &Path, units: &[UnitTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, u) in units.iter().enumerate() {
        let spans: Vec<String> = u
            .spans
            .iter()
            .map(|(k, (d, n))| {
                format!("\"{k}\":{{\"ms\":{},\"calls\":{n}}}", d.as_secs_f64() * 1e3)
            })
            .collect();
        let counts: Vec<String> = u
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        writeln!(
            out,
            "{{\"unit\":{i},\"total_ms\":{},\"spans\":{{{}}},\"counts\":{{{}}}}}",
            u.total.as_secs_f64() * 1e3,
            spans.join(","),
            counts.join(",")
        )?;
    }
    out.flush()
}
