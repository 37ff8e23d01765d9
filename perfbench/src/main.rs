//! The histpc benchmark: one command, three closed-loop workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload poisson-d-base|tuning-cycle|daemon-fleet \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines go to stdout first; the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The command
//! exits non-zero when any output check fails. See `README.md` for the
//! workloads, the metrics and the layer → end-to-end map.

mod fleet;
mod poisson;
mod stats;
mod trace;
mod traced;
mod tuning;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{mean, median};
use trace::UnitTrace;

/// Set-ups per run; the reported `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Where and for how long one invocation runs.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for stores and sockets, removed at exit.
    pub dir: PathBuf,
}

/// What an untraced run measured.
#[derive(Default)]
pub struct Measured {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each completed unit.
    pub unit_ms: Vec<f64>,
    /// Wall seconds of the measuring window.
    pub window_s: f64,
    /// Process CPU seconds spent in the measuring window.
    pub cpu_s: f64,
    /// Peak resident memory in MiB, read once the scored units are done.
    pub peak_rss_mb: f64,
    /// Per scored unit: simulated seconds to the last true bottleneck.
    /// The scored units are a fixed prefix of the seeded unit sequence
    /// that every run completes, so these repeat exactly for one seed.
    pub find_all_s: Vec<f64>,
    /// Per scored unit: true bottlenecks found.
    pub bottlenecks: Vec<f64>,
    pub attempted: u64,
    /// One message per failed unit.
    pub failures: Vec<String>,
}

/// What a traced run measured.
#[derive(Default)]
pub struct Traced {
    /// The traced leg of each unit.
    pub units: Vec<UnitTrace>,
    /// The untraced leg of each unit, milliseconds.
    pub untraced_ms: Vec<f64>,
    /// Workload-specific per-unit values (daemon verbs, overheads).
    pub extra: BTreeMap<&'static str, Vec<f64>>,
    /// Records in the workload's store at the end.
    pub records: f64,
    /// Bytes in the workload's store at the end.
    pub store_bytes: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// What one invocation measured.
enum Outcome {
    Measured(Measured),
    Traced(Traced),
}

/// Simulated-time outcome of one execution record.
pub fn record_outcome(rec: &histpc::history::ExecutionRecord) -> (f64, f64) {
    let last = rec
        .true_outcomes()
        .filter_map(|o| o.first_true_at)
        .max()
        .map_or(0.0, |t| t.as_micros() as f64 / 1e6);
    (last, rec.true_outcomes().count() as f64)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let units = m.unit_ms.len() as f64;
    let per_unit = |x: f64| if units > 0.0 { x / units } else { 0.0 };
    let (pct, tail) = stats::tail(&m.unit_ms);
    let failed_ratio = m.failures.len() as f64 / (m.attempted.max(1)) as f64;
    vec![
        Metric {
            note: format!("median of {} set-ups", m.setup_s.len()),
            ..metric("setup_s", median(&m.setup_s), "s")
        },
        Metric {
            note: format!("n={}", m.unit_ms.len()),
            ..metric("session_p50_ms", median(&m.unit_ms), "ms")
        },
        Metric {
            note: format!("p{pct:.1} of n={}", m.unit_ms.len()),
            ..metric("session_tail_ms", tail, "ms")
        },
        metric(
            "sessions_per_s",
            if m.window_s > 0.0 {
                units / m.window_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric("cpu_ms_per_session", per_unit(m.cpu_s * 1e3), "ms"),
        metric("peak_rss_mb", m.peak_rss_mb, "MiB"),
        Metric {
            note: format!("failed_ratio {failed_ratio}"),
            ..metric("completed_ratio", 1.0 - failed_ratio, "ratio")
        },
        metric("sim_find_all", mean(&m.find_all_s), "sim_s"),
        metric("bottlenecks_found", mean(&m.bottlenecks), "count"),
    ]
}

/// Counts are medians over each client's first units only: the unit
/// sequence is fixed by the seed, so they repeat exactly however many
/// units the window fits.
const COUNTED_UNITS: u64 = 8;

fn per_layer(t: &Traced) -> Vec<Metric> {
    let med = |f: &dyn Fn(&UnitTrace) -> f64| median(&t.units.iter().map(f).collect::<Vec<_>>());
    let counted: Vec<&UnitTrace> = t.units.iter().filter(|u| u.seq < COUNTED_UNITS).collect();
    let cnt =
        |f: &dyn Fn(&UnitTrace) -> f64| median(&counted.iter().map(|u| f(u)).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let extra = |k: &str| t.extra.get(k).map_or(0.0, |v| median(v));
    let total_ms = |u: &UnitTrace| u.total.as_secs_f64() * 1e3;
    let sim_instr = |u: &UnitTrace| {
        [
            "sim.build",
            "sim.run_until",
            "instr.drain",
            "instr.ingest",
            "instr.perturb",
        ]
        .iter()
        .map(|k| u.ms(k))
        .sum::<f64>()
    };
    let history_lint = |u: &UnitTrace| {
        [
            "history.load",
            "history.extract",
            "history.trust",
            "history.save",
            "lint.corpus",
        ]
        .iter()
        .map(|k| u.ms(k))
        .sum::<f64>()
    };
    let facts: Vec<f64> = counted
        .iter()
        .filter(|u| u.count("lint.records") > 0.0)
        .map(|u| {
            ratio(
                u.count("lint.records") - u.count("lint.cache_misses"),
                u.count("lint.records"),
            )
        })
        .collect();
    vec![
        metric("sim.build_ms", med(&|u| u.ms("sim.build")), "ms"),
        metric("sim.run_until_ms", med(&|u| u.ms("sim.run_until")), "ms"),
        metric(
            "sim.events_per_s",
            med(&|u| ratio(u.count("sim.events"), u.ms("sim.run_until") / 1e3)),
            "1/s",
        ),
        metric("sim.events", cnt(&|u| u.count("sim.events")), "count"),
        metric("instr.drain_ms", med(&|u| u.ms("instr.drain")), "ms"),
        metric("instr.ingest_ms", med(&|u| u.ms("instr.ingest")), "ms"),
        metric("instr.perturb_ms", med(&|u| u.ms("instr.perturb")), "ms"),
        metric("instr.samples", cnt(&|u| u.count("instr.samples")), "count"),
        metric(
            "consultant.tick_ms",
            med(&|u| u.ms("consultant.tick")),
            "ms",
        ),
        metric(
            "consultant.report_ms",
            med(&|u| u.ms("consultant.report")),
            "ms",
        ),
        metric(
            "consultant.ticks",
            cnt(&|u| u.count("consultant.ticks")),
            "count",
        ),
        metric(
            "consultant.pairs_tested",
            cnt(&|u| u.count("consultant.pairs_tested")),
            "count",
        ),
        metric(
            "consultant.true_ratio",
            cnt(&|u| {
                ratio(
                    u.count("consultant.true"),
                    u.count("consultant.pairs_tested"),
                )
            }),
            "ratio",
        ),
        metric("history.load_ms", med(&|u| u.ms("history.load")), "ms"),
        metric(
            "history.extract_ms",
            med(&|u| u.ms("history.extract")),
            "ms",
        ),
        metric("history.trust_ms", med(&|u| u.ms("history.trust")), "ms"),
        metric("history.save_ms", med(&|u| u.ms("history.save")), "ms"),
        metric("history.records", t.records, "count"),
        metric("history.store_bytes", t.store_bytes, "bytes"),
        metric("lint.corpus_ms", med(&|u| u.ms("lint.corpus")), "ms"),
        metric("lint.facts_hit_ratio", median(&facts), "ratio"),
        metric("daemon.start_ms", extra("daemon.start"), "ms"),
        metric("daemon.attach_ms", extra("daemon.attach"), "ms"),
        metric("daemon.report_ms", extra("daemon.report"), "ms"),
        metric("daemon.overhead_ms", extra("daemon.overhead"), "ms"),
        metric(
            "daemon.retries",
            cnt(&|u| u.count("daemon.retries")),
            "count",
        ),
        metric("supervise.overhead_ms", extra("supervise.overhead"), "ms"),
        metric("trace.unit_ms", med(&total_ms), "ms"),
        metric(
            "trace.overhead_ms",
            med(&total_ms) - median(&t.untraced_ms),
            "ms",
        ),
        metric("trace.unattributed_ms", med(&|u| u.unattributed_ms()), "ms"),
        metric(
            "share.sim_instr",
            med(&|u| ratio(sim_instr(u), total_ms(u))),
            "ratio",
        ),
        metric(
            "share.history_lint",
            med(&|u| ratio(history_lint(u), total_ms(u))),
            "ratio",
        ),
        metric(
            "share.consultant_tick",
            med(&|u| ratio(u.ms("consultant.tick"), total_ms(u))),
            "ratio",
        ),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_run").join(format!(
        "{}-s{}-t{}-p{}",
        args.workload,
        args.seed,
        args.trace as u8,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        dir: dir.clone(),
    };

    let outcome = match (args.workload.as_str(), args.trace) {
        ("poisson-d-base", false) => poisson::measure(&run).map(Outcome::Measured),
        ("poisson-d-base", true) => poisson::trace(&run).map(Outcome::Traced),
        ("tuning-cycle", false) => tuning::measure(&run).map(Outcome::Measured),
        ("tuning-cycle", true) => tuning::trace(&run).map(Outcome::Traced),
        ("daemon-fleet", false) => fleet::measure(&run).map(Outcome::Measured),
        ("daemon-fleet", true) => fleet::trace(&run).map(Outcome::Traced),
        (other, _) => Err(format!(
            "unknown workload {other:?} (want poisson-d-base, tuning-cycle or daemon-fleet)"
        )),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_run");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let (metrics, attempted, failures) = match outcome {
        Outcome::Measured(m) => (end_to_end(&m), m.attempted, m.failures),
        Outcome::Traced(t) => {
            let path = PathBuf::from(".bench_out")
                .join(format!("{}-s{}-trace.jsonl", args.workload, args.seed));
            match trace::write_units(&path, &t.units) {
                Ok(()) => println!(
                    "trace: {} units written to {}",
                    t.units.len(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
            (per_layer(&t), t.attempted, t.failures)
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for m in &metrics {
        println!(
            "  {:<26} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for f in failures.iter().take(10) {
        println!("  FAILED: {f}");
    }
    let correct = failures.is_empty() && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failures.len(),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
