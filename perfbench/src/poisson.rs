//! `poisson-d-base`: one undirected paper-configuration diagnosis of
//! Poisson version D per unit, in process, with no store.
//!
//! Why: the largest paper workload, where the engine and collector
//! ingest take nearly all host time. Engine and ingest work shows here;
//! history and the daemon are absent.

use std::time::Instant;

use histpc::history::format::write_record;
use histpc::prelude::*;

use crate::stats::{peak_rss_mb, process_cpu_s};
use crate::trace::Tracer;
use crate::{record_outcome, traced, Measured, Run, Traced, SETUPS};

const LABEL: &str = "d-base";

/// The paper configuration: 2 s window, 250 ms sample, 900 s cap.
fn config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_secs(2),
        sample: SimDuration::from_millis(250),
        max_time: SimDuration::from_secs(900),
        ..SearchConfig::default()
    }
}

/// Set-up: build the seeded 8-process input and warm up with a
/// diagnosis capped at 20 simulated seconds.
fn setup(seed: u64) -> Result<PoissonWorkload, String> {
    let wl = PoissonWorkload::new(PoissonVersion::D).with_seed(seed);
    let warm = SearchConfig {
        max_time: SimDuration::from_secs(20),
        ..config()
    };
    Session::new()
        .diagnose(&wl, &warm, "warm-up")
        .map_err(|e| e.to_string())?;
    Ok(wl)
}

/// The fields of a record that must repeat exactly for one seed.
fn fingerprint(rec: &ExecutionRecord) -> (usize, u64, usize) {
    (
        rec.pairs_tested,
        rec.end_time.as_micros(),
        rec.true_outcomes().count(),
    )
}

pub fn measure(run: &Run) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut wl = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        wl = Some(setup(run.seed)?);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let wl = wl.expect("at least one set-up");
    let session = Session::new();
    let config = config();

    // Every unit of one seed is the same diagnosis (checked below), so
    // the first unit is the scored one: the `sim_` metrics and the
    // memory reading are taken there.
    let mut prints = Vec::new();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds {
        m.attempted += 1;
        let t = Instant::now();
        let d = session.diagnose(&wl, &config, LABEL);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match d {
            Ok(d) => {
                m.unit_ms.push(ms);
                prints.push(fingerprint(&d.record));
                if m.attempted == 1 {
                    let (last, found) = record_outcome(&d.record);
                    m.find_all_s.push(last);
                    m.bottlenecks.push(found);
                }
            }
            Err(e) => m.failures.push(format!("unit {}: {e}", m.attempted)),
        }
        if m.attempted == 1 {
            m.peak_rss_mb = peak_rss_mb();
        }
    }
    m.window_s = start.elapsed().as_secs_f64();
    m.cpu_s = process_cpu_s() - cpu0;

    for (i, p) in prints.iter().enumerate().skip(1) {
        if *p != prints[0] {
            m.failures.push(format!(
                "unit {i}: (pairs, end_us, bottlenecks) {p:?} differs from unit 0's {:?}",
                prints[0]
            ));
        }
    }
    Ok(m)
}

pub fn trace(run: &Run) -> Result<Traced, String> {
    let wl = setup(run.seed)?;
    let session = Session::new();
    let config = config();
    let mut tracer = Tracer::new();
    let mut out = Traced::default();

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds {
        let i = out.attempted;
        out.attempted += 1;
        let untraced = || -> Result<(f64, String), String> {
            let t = Instant::now();
            let d = session
                .diagnose(&wl, &config, LABEL)
                .map_err(|e| e.to_string())?;
            Ok((t.elapsed().as_secs_f64() * 1e3, write_record(&d.record)))
        };
        let mut traced = || -> Result<String, String> {
            tracer.begin();
            let (rec, _) = traced::diagnose(&mut tracer, None, &wl, &config, LABEL)?;
            let unit = tracer.finish(i);
            out.units.push(unit);
            Ok(write_record(&rec))
        };
        // Alternate which leg runs first so drift in host load falls on
        // both sides.
        let (plain, with_spans) = if i % 2 == 0 {
            let a = untraced();
            (a, traced())
        } else {
            let b = traced();
            (untraced(), b)
        };
        match (plain, with_spans) {
            (Ok((ms, a)), Ok(b)) if a == b => out.untraced_ms.push(ms),
            (Ok(_), Ok(_)) => out.failures.push(format!(
                "unit {i}: traced record differs from Session::diagnose"
            )),
            (Err(e), _) | (_, Err(e)) => out.failures.push(format!("unit {i}: {e}")),
        }
    }
    Ok(out)
}
