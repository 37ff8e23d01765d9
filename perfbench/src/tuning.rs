//! `tuning-cycle`: the paper's run → store → harvest → directed-run
//! loop, in process, over a store pre-filled with 64 diagnosed records
//! spread over `ocean`, `sweep3d` and `tester`.
//!
//! Each unit harvests priorities and safe prunes from the previous
//! record of one application, runs a directed diagnosis (800 ms window,
//! 100 ms sample, 120 s cap) and saves it over that application's
//! oldest label, so the store stays at 64 records.
//!
//! Why: reads and writes to the history layer are mixed and the engine
//! is small. The corpus pass inside every harvest visits every stored
//! record, which makes harvest most of a unit.

use std::path::Path;
use std::time::{Duration, Instant};

use histpc::history::format::write_record;
use histpc::lint::Linter;
use histpc::prelude::*;

use crate::stats::{dir_bytes, peak_rss_mb, process_cpu_s, Rng};
use crate::trace::Tracer;
use crate::{record_outcome, traced, Measured, Run, Traced, SETUPS};

const APPS: [&str; 3] = ["ocean", "sweep3d", "tester"];
const RECORDS: usize = 64;
/// The first units, which every run completes (past the window if need
/// be) and which the `sim_` metrics and the memory reading are taken
/// over: one pass over the store, so each application appears as often
/// as in the store for every seed.
const SCORED: u64 = RECORDS as u64;

fn config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(120),
        ..SearchConfig::default()
    }
}

/// One unit's outputs, for the check made right after it.
struct Step {
    directives: SearchDirectives,
    /// Store application and label the directives were harvested from.
    source: (String, String),
    record: ExecutionRecord,
    quiescent: bool,
}

/// A store cycling through its 64 labels, oldest first.
struct Cycle {
    session: Session,
    workloads: Vec<Box<dyn Workload + Send + Sync>>,
    /// Store application name per entry of [`APPS`].
    names: Vec<String>,
    /// Application index and label of each slot, oldest first.
    slots: Vec<(usize, String)>,
    /// Slot holding each application's most recent record.
    latest: [usize; 3],
    next: usize,
}

impl Cycle {
    /// Opens a fresh store at `root` and fills it with 64 undirected
    /// diagnoses whose applications are a seeded shuffle of a 22/21/21
    /// split.
    fn prefill(root: &Path, seed: u64) -> Result<Cycle, String> {
        let _ = std::fs::remove_dir_all(root);
        let session = Session::with_store(root).map_err(|e| e.to_string())?;
        let workloads = APPS
            .iter()
            .map(|a| histpc::apps::build_workload(a, None))
            .collect::<Result<Vec<_>, _>>()?;
        let names = workloads.iter().map(|w| w.app_spec().name).collect();
        let mut apps: Vec<usize> = (0..RECORDS).map(|i| i % APPS.len()).collect();
        Rng::new(seed).shuffle(&mut apps);
        let config = config();
        let mut cycle = Cycle {
            session,
            workloads,
            names,
            slots: Vec::with_capacity(RECORDS),
            latest: [0; 3],
            next: 0,
        };
        for (i, &app) in apps.iter().enumerate() {
            let label = format!("r{i:02}");
            cycle
                .session
                .diagnose(cycle.workloads[app].as_ref(), &config, &label)
                .map_err(|e| e.to_string())?;
            cycle.slots.push((app, label));
            cycle.latest[app] = i;
        }
        Ok(cycle)
    }

    fn store(&self) -> &ExecutionStore {
        self.session.store().expect("cycle sessions have a store")
    }

    /// One tuning cycle, through the `Session` API or, with a tracer,
    /// through the traced path.
    fn step(&mut self, tracer: Option<&mut Tracer>) -> Result<Step, String> {
        let slot = self.next;
        let (app, label) = self.slots[slot].clone();
        let source = self.slots[self.latest[app]].1.clone();
        let name = &self.names[app];
        let workload = self.workloads[app].as_ref();
        let opts = ExtractionOptions::priorities_and_safe_prunes();
        let (directives, record, quiescent) = match tracer {
            None => {
                let directives = self
                    .session
                    .harvest(name, &source, &opts)
                    .map_err(|e| e.to_string())?;
                let d = self
                    .session
                    .diagnose(
                        workload,
                        &config().with_directives(directives.clone()),
                        &label,
                    )
                    .map_err(|e| e.to_string())?;
                (directives, d.record, d.report.quiescent)
            }
            Some(t) => {
                let store = self.store();
                let directives = traced::harvest(t, store, name, &source, &opts)?;
                let config = config().with_directives(directives.clone());
                let (record, quiescent) =
                    traced::diagnose(t, Some(store), workload, &config, &label)?;
                (directives, record, quiescent)
            }
        };
        let source = (name.clone(), source);
        self.latest[app] = slot;
        self.next = (slot + 1) % RECORDS;
        Ok(Step {
            directives,
            source,
            record,
            quiescent,
        })
    }
}

/// Checks a directed unit: its harvested directives lint clean against
/// the record they came from (still in the store: a unit overwrites
/// another slot), and its search quiesced.
fn check(i: u64, store: &ExecutionStore, step: &Step) -> Option<String> {
    let (app, label) = &step.source;
    let source = match store.load(app, label) {
        Ok(r) => r,
        Err(e) => return Some(format!("unit {i}: cannot reload {app}/{label}: {e}")),
    };
    let report = Linter::new()
        .directives(step.directives.to_text(), "<harvested>")
        .against(&source)
        .run();
    if let Some(d) = report.diagnostics.first() {
        return Some(format!(
            "unit {i}: directives from {app}/{label} do not lint clean: {} {}",
            d.code, d.message
        ));
    }
    if !step.quiescent {
        return Some(format!(
            "unit {i}: directed run {}/{} did not quiesce",
            step.record.app_name, step.record.label
        ));
    }
    None
}

pub fn measure(run: &Run) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut cycle = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        cycle = Some(Cycle::prefill(&run.dir.join("store"), run.seed)?);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut cycle = cycle.expect("at least one set-up");

    // Each unit is checked right away with the clocks paused, so the
    // check costs no unit time and memory does not grow with the units.
    let mut paused = Duration::ZERO;
    let mut paused_cpu = 0.0;
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    while (start.elapsed() - paused).as_secs_f64() < run.seconds || m.attempted < SCORED {
        m.attempted += 1;
        let t = Instant::now();
        let step = cycle.step(None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let pause = Instant::now();
        let pause_cpu = process_cpu_s();
        match step {
            Ok(step) => {
                m.unit_ms.push(ms);
                if m.attempted <= SCORED {
                    let (last, found) = record_outcome(&step.record);
                    m.find_all_s.push(last);
                    m.bottlenecks.push(found);
                }
                m.failures.extend(check(m.attempted, cycle.store(), &step));
            }
            Err(e) => m.failures.push(format!("unit {}: {e}", m.attempted)),
        }
        if m.attempted == SCORED {
            m.peak_rss_mb = peak_rss_mb();
        }
        paused += pause.elapsed();
        paused_cpu += process_cpu_s() - pause_cpu;
    }
    m.window_s = (start.elapsed() - paused).as_secs_f64();
    m.cpu_s = process_cpu_s() - cpu0 - paused_cpu;
    Ok(m)
}

pub fn trace(run: &Run) -> Result<Traced, String> {
    // Two stores advanced in lockstep from the same seed: the untraced
    // one through `Session`, the traced one through the traced path.
    let mut plain = Cycle::prefill(&run.dir.join("plain"), run.seed)?;
    let mut spans = Cycle::prefill(&run.dir.join("traced"), run.seed)?;
    let mut tracer = Tracer::new();
    let mut out = Traced::default();

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds {
        let i = out.attempted;
        out.attempted += 1;
        let mut untraced = || -> Result<(f64, Step), String> {
            let t = Instant::now();
            let step = plain.step(None)?;
            Ok((t.elapsed().as_secs_f64() * 1e3, step))
        };
        let mut traced = || -> Result<Step, String> {
            tracer.begin();
            let step = spans.step(Some(&mut tracer));
            out.units.push(tracer.finish(i));
            step
        };
        let (a, b) = if i % 2 == 0 {
            let a = untraced();
            (a, traced())
        } else {
            let b = traced();
            (untraced(), b)
        };
        match (a, b) {
            (Ok((ms, a)), Ok(b)) => {
                if a.directives.to_annotated_text() != b.directives.to_annotated_text() {
                    out.failures.push(format!(
                        "unit {i}: traced harvest differs from Session::harvest"
                    ));
                } else if write_record(&a.record) != write_record(&b.record) {
                    out.failures.push(format!(
                        "unit {i}: traced record differs from Session::diagnose"
                    ));
                } else if let Some(f) = check(i, spans.store(), &b) {
                    out.failures.push(f);
                } else {
                    out.untraced_ms.push(ms);
                }
            }
            (Err(e), _) | (_, Err(e)) => out.failures.push(format!("unit {i}: {e}")),
        }
        if i == 0 {
            // Measured at a fixed point of the seeded sequence, so the
            // size repeats exactly however many units the window fits.
            out.store_bytes = dir_bytes(spans.store().root()) as f64;
        }
    }

    let (plain_bytes, traced_bytes) = (
        dir_bytes(plain.store().root()),
        dir_bytes(spans.store().root()),
    );
    if plain_bytes != traced_bytes {
        out.failures.push(format!(
            "store sizes differ: untraced {plain_bytes} B, traced {traced_bytes} B"
        ));
    }
    out.records = spans
        .store()
        .applications()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|a| spans.store().labels(a).map_or(0, |l| l.len()))
        .sum::<usize>() as f64;
    Ok(out)
}
