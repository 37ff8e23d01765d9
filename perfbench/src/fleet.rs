//! `daemon-fleet`: an in-process `histpcd` on a fresh store, with two
//! tenant connections each looping `start` → `attach` → `report` on
//! undirected `ocean` and `tester` sessions. The seed chooses the order;
//! every label is unique, because `start` is idempotent per label.
//!
//! Why: the only workload that uses the wire, leases, supervision and
//! concurrent store writers, and its sessions spend a far larger share
//! in the consultant than Poisson D does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use histpc::history::format::write_record;
use histpc::prelude::*;
use histpc::remote::{
    backoff_delay, code_is_retryable, Client, RemoteError, Request, Response, DEFAULT_MAX_ATTEMPTS,
};
use histpc::supervise::SessionDriver;
use histpc_daemon::{Daemon, DaemonConfig};

use crate::stats::{peak_rss_mb, process_cpu_s, Rng};
use crate::trace::{Tracer, UnitTrace};
use crate::{record_outcome, traced, Measured, Run, Traced, SETUPS};

const APPS: [&str; 2] = ["ocean", "tester"];
const CLIENTS: usize = 2;
/// Bounded re-attaches per session before it counts as failed.
const MAX_ATTACHES: u32 = 10;
/// Each client's first units, which every run completes (past the window
/// if need be) and which the `sim_` and count metrics and the memory
/// reading are taken over. A multiple of `APPS.len()`.
const SCORED: usize = 32;
/// The reference records' label, replaced by each session's own.
const REFERENCE_LABEL: &str = "\nlabel reference\n";

/// The config a daemon `start` with default parameters runs under
/// (`SessionSpec` defaults: 800 ms window, 100 ms sample, 120 s cap,
/// 2 s stall deadline).
fn config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(120),
        stall: Some(SimDuration::from_secs(2)),
        ..SearchConfig::default()
    }
}

/// The in-process `Session::diagnose` result of one application.
struct Reference {
    /// Record text under the label `reference`.
    text: String,
    /// Simulated seconds to the last true bottleneck, and true
    /// bottlenecks found.
    outcome: (f64, f64),
}

impl Reference {
    /// Why `body` is not this record under `label`, or `None` when it
    /// is. A diagnosis does not depend on its label; the warm-up
    /// sessions check that against a real remote session.
    fn check(&self, label: &str, body: &str) -> Option<String> {
        let want = self
            .text
            .replacen(REFERENCE_LABEL, &format!("\nlabel {label}\n"), 1);
        if body == want {
            return None;
        }
        let mut want_lines = want.lines();
        for (n, got) in body.lines().enumerate() {
            match want_lines.next() {
                Some(w) if w == got => {}
                w => return Some(format!("line {}: got {got:?}, want {w:?}", n + 1)),
            }
        }
        Some(format!(
            "body ends after {} lines, want {}",
            body.lines().count(),
            want.lines().count()
        ))
    }
}

/// A running daemon with its connected tenant clients.
struct Fleet {
    daemon: Daemon,
    socket: PathBuf,
    clients: Vec<Client>,
    workloads: Vec<Box<dyn Workload + Send + Sync>>,
    /// The reference of each application.
    reference: Vec<Reference>,
}

/// One session over the wire.
struct Remote {
    start_ms: f64,
    attach_ms: f64,
    report_ms: f64,
    state: String,
    /// The daemon's account of how the session ended.
    detail: String,
    body: String,
    /// Requests re-sent: after a retryable error or a broken
    /// connection, or an attach that answered "running".
    retries: u32,
}

impl Remote {
    fn ms(&self) -> f64 {
        self.start_ms + self.attach_ms + self.report_ms
    }
}

/// A client that makes one attempt per request, so that [`call`] sees
/// and counts every retry.
fn client(socket: &Path, tenant: &str) -> Client {
    let mut client = Client::new(socket, tenant);
    client.max_attempts = 1;
    client
}

/// Sends `req` and expects `ok`. Retryable daemon errors and connection
/// failures are re-sent with the client's backoff, up to its default
/// number of attempts, and each re-send is added to `retries`.
fn call(client: &mut Client, req: &Request, retries: &mut u32) -> Result<Response, String> {
    let mut attempt = 1;
    loop {
        let why = match client.request(req) {
            Ok(Response::Err { code, msg, .. }) => return Err(format!("[{code}] {msg}")),
            Ok(ok) => return Ok(ok),
            Err(RemoteError::Daemon { code, msg }) if code_is_retryable(&code) => {
                format!("[{code}] {msg}")
            }
            Err(e @ RemoteError::Io(_)) => e.to_string(),
            Err(e) => return Err(e.to_string()),
        };
        if attempt == DEFAULT_MAX_ATTEMPTS {
            return Err(format!("refused after {attempt} attempts: {why}"));
        }
        std::thread::sleep(backoff_delay(attempt, None));
        *retries += 1;
        attempt += 1;
    }
}

fn session(client: &mut Client, app: &str, label: &str) -> Result<Remote, String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut retries = 0;
    let t = Instant::now();
    let started = call(
        client,
        &Request::new("start").arg("app", app).arg("label", label),
        &mut retries,
    )
    .map_err(|e| format!("start {label}: {e}"))?;
    if started.get("accepted") != Some("1") {
        return Err(format!(
            "start {label}: not accepted as a new session (state {:?})",
            started.get("state")
        ));
    }
    let start_ms = ms(t);
    let t = Instant::now();
    let mut attaches = 0;
    let (state, detail) = loop {
        let a = call(
            client,
            &Request::new("attach")
                .arg("label", label)
                .arg("wait-ms", 120_000u64),
            &mut retries,
        )
        .map_err(|e| format!("attach {label}: {e}"))?;
        match a.get("state") {
            Some("running") if attaches < MAX_ATTACHES => {
                attaches += 1;
                retries += 1;
            }
            Some(state) => break (state.to_string(), a.get("detail").unwrap_or("").to_string()),
            None => return Err(format!("attach {label}: no state")),
        }
    };
    let attach_ms = ms(t);
    let t = Instant::now();
    let report = call(
        client,
        &Request::new("report").arg("label", label),
        &mut retries,
    )
    .map_err(|e| format!("report {label}: {e}"))?;
    Ok(Remote {
        start_ms,
        attach_ms,
        report_ms: ms(t),
        state,
        detail,
        body: format!("{}\n", report.body().join("\n")),
        retries,
    })
}

impl Fleet {
    /// Set-up: fresh store, daemon start, in-process reference records,
    /// and one warm-up session per client (which also connects it).
    fn start(dir: &Path) -> Result<Fleet, String> {
        let store = dir.join("store");
        let socket = dir.join("d.sock");
        let _ = std::fs::remove_dir_all(&store);
        let daemon =
            Daemon::start(DaemonConfig::new(&store, &socket)).map_err(|e| e.to_string())?;
        let workloads = APPS
            .iter()
            .map(|a| histpc::apps::build_workload(a, None))
            .collect::<Result<Vec<_>, _>>()?;
        let mut reference = Vec::new();
        for wl in &workloads {
            let d = Session::new()
                .diagnose(wl.as_ref(), &config(), "reference")
                .map_err(|e| e.to_string())?;
            let text = write_record(&d.record);
            if !text.contains(REFERENCE_LABEL) {
                return Err("reference record has no label line".into());
            }
            reference.push(Reference {
                text,
                outcome: record_outcome(&d.record),
            });
        }
        let mut fleet = Fleet {
            daemon,
            socket,
            clients: Vec::new(),
            workloads,
            reference,
        };
        for c in 0..CLIENTS {
            let mut client = client(&fleet.socket, &format!("tenant{c}"));
            let app = c % APPS.len();
            let warm = session(&mut client, APPS[app], "warm-up")?;
            if let Some(why) = fleet.reference[app].check("warm-up", &warm.body) {
                return Err(format!(
                    "warm-up report differs from Session::diagnose: {why}"
                ));
            }
            fleet.clients.push(client);
        }
        Ok(fleet)
    }

    fn stop(self) -> Result<(), String> {
        let mut admin = Client::new(&self.socket, "admin");
        admin
            .expect_ok(&Request::new("shutdown"))
            .map_err(|e| format!("shutdown: {e}"))?;
        self.daemon.join();
        Ok(())
    }
}

/// Runs `unit(client index, unit index, client, app, label)` on every
/// client concurrently until the window closes and each client has done
/// its [`SCORED`] units; returns each client's results in order.
///
/// A client's applications come in seeded shuffles of blocks of
/// [`SCORED`] that hold each application equally often, so the scored
/// units have the same mix of applications for every seed.
fn run_clients<T: Send>(
    clients: &mut [Client],
    run: &Run,
    unit: impl Fn(usize, usize, &mut Client, usize, &str) -> T + Sync,
) -> Vec<Vec<T>> {
    let start = Instant::now();
    let unit = &unit;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut rng = Rng::new(run.seed ^ (0x5eed_0000 + c as u64));
                    let mut block = Vec::new();
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < run.seconds || out.len() < SCORED {
                        if block.is_empty() {
                            block = (0..SCORED).map(|i| i % APPS.len()).collect();
                            rng.shuffle(&mut block);
                        }
                        let app = block.pop().expect("block refilled above");
                        let seq = out.len();
                        let label = format!("c{c}-{seq:06}");
                        out.push(unit(c, seq, client, app, &label));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn measure(run: &Run) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut fleet: Option<Fleet> = None;
    for _ in 0..SETUPS {
        if let Some(f) = fleet.take() {
            f.stop()?;
        }
        let t = Instant::now();
        fleet = Some(Fleet::start(&run.dir)?);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("at least one set-up");

    // Each client checks its report right away, so memory does not grow
    // with the number of sessions. The daemon's own memory does (it
    // keeps every session until shutdown), so the peak is read once the
    // scored sessions are done, however many the window fits.
    let done = AtomicUsize::new(0);
    let peak_rss = OnceLock::new();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let reference = &fleet.reference;
    let results = run_clients(&mut fleet.clients, run, |_, seq, client, app, label| {
        let result = session(client, APPS[app], label).map(|remote| {
            let failure = if remote.state != "completed" {
                Some(format!(
                    "{label}: ended {}: {}",
                    remote.state, remote.detail
                ))
            } else {
                reference[app]
                    .check(label, &remote.body)
                    .map(|why| format!("{label}: report differs from Session::diagnose: {why}"))
            };
            (seq, app, remote.ms(), failure)
        });
        if done.fetch_add(1, Ordering::SeqCst) + 1 == CLIENTS * SCORED {
            let _ = peak_rss.set(peak_rss_mb());
        }
        result
    });
    m.window_s = start.elapsed().as_secs_f64();
    m.cpu_s = process_cpu_s() - cpu0;
    m.peak_rss_mb = peak_rss.get().copied().unwrap_or_else(peak_rss_mb);

    for result in results.into_iter().flatten() {
        m.attempted += 1;
        match result {
            Err(e) => m.failures.push(e),
            Ok((_, _, ms, Some(failure))) => {
                m.unit_ms.push(ms);
                m.failures.push(failure);
            }
            Ok((seq, app, ms, None)) => {
                m.unit_ms.push(ms);
                if seq < SCORED {
                    let (last, found) = fleet.reference[app].outcome;
                    m.find_all_s.push(last);
                    m.bottlenecks.push(found);
                }
            }
        }
    }
    fleet.stop()?;
    Ok(m)
}

/// One client's traced results.
#[derive(Default)]
struct ClientTrace {
    units: Vec<UnitTrace>,
    bare_ms: Vec<f64>,
    extra: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failures: Vec<String>,
}

/// In-process sessions of one client: traced, bare and supervised legs
/// each persist into their own store.
struct Legs {
    traced: Session,
    bare: Session,
    supervised: Session,
}

pub fn trace(run: &Run) -> Result<Traced, String> {
    let mut fleet = Fleet::start(&run.dir)?;
    let mut legs = Vec::new();
    for c in 0..CLIENTS {
        let open = |leg: &str| {
            Session::with_store(run.dir.join(format!("local-c{c}-{leg}")))
                .map_err(|e| e.to_string())
        };
        legs.push(std::sync::Mutex::new((
            Legs {
                traced: open("traced")?,
                bare: open("bare")?,
                supervised: open("supervised")?,
            },
            Tracer::new(),
            ClientTrace::default(),
        )));
    }
    let workloads: Vec<&(dyn Workload + Sync)> = fleet
        .workloads
        .iter()
        .map(|w| w.as_ref() as &(dyn Workload + Sync))
        .collect();
    let reference = &fleet.reference;
    let config = config();

    let unit = |c: usize, seq: usize, client: &mut Client, app: usize, label: &str| {
        let mut guard = legs[c].lock().expect("client state poisoned");
        let (legs, tracer, out) = &mut *guard;
        out.attempted += 1;
        let failed =
            |out: &mut ClientTrace, why: String| out.failures.push(format!("{label}: {why}"));
        let remote = match session(client, APPS[app], label) {
            Ok(r) => r,
            Err(e) => return failed(out, e),
        };
        let wl = workloads[app];
        let mut traced_leg = || -> Result<(UnitTrace, String), String> {
            tracer.begin();
            let (rec, _) = traced::diagnose(tracer, legs.traced.store(), wl, &config, label)?;
            Ok((tracer.finish(seq as u64), write_record(&rec)))
        };
        let bare_leg = || -> Result<(f64, String), String> {
            let t = Instant::now();
            let d = legs
                .bare
                .diagnose(wl, &config, label)
                .map_err(|e| e.to_string())?;
            Ok((t.elapsed().as_secs_f64() * 1e3, write_record(&d.record)))
        };
        let (traced_out, bare_out) = if seq.is_multiple_of(2) {
            let a = traced_leg();
            (a, bare_leg())
        } else {
            let b = bare_leg();
            (traced_leg(), b)
        };
        // Supervisor::run over the same session; the default supervision
        // settings are the ones a daemon session gets.
        let supervised_leg = || -> Result<(f64, String), String> {
            let driver = WorkloadSession::new(&legs.supervised, wl, config.clone(), label);
            let supervisor = Supervisor::new(SupervisorConfig::default());
            let t = Instant::now();
            supervisor.run(&[&driver as &dyn SessionDriver]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let rec = legs
                .supervised
                .store()
                .expect("supervised leg has a store")
                .load(&wl.app_spec().name, label)
                .map_err(|e| e.to_string())?;
            Ok((ms, write_record(&rec)))
        };
        let sup_out = supervised_leg();
        let ((mut unit, traced_text), (bare_ms, bare_text), (sup_ms, sup_text)) =
            match (traced_out, bare_out, sup_out) {
                (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return failed(out, e),
            };
        if remote.state != "completed" {
            return failed(out, format!("ended {}: {}", remote.state, remote.detail));
        }
        for (leg, text) in [
            ("daemon report", &remote.body),
            ("traced record", &traced_text),
            ("Session::diagnose record", &bare_text),
            ("supervised record", &sup_text),
        ] {
            if let Some(why) = reference[app].check(label, text) {
                return failed(out, format!("{leg} differs from the reference: {why}"));
            }
        }
        unit.counts
            .insert("daemon.retries", f64::from(remote.retries));
        out.units.push(unit);
        out.bare_ms.push(bare_ms);
        for (k, v) in [
            ("daemon.start", remote.start_ms),
            ("daemon.attach", remote.attach_ms),
            ("daemon.report", remote.report_ms),
            ("daemon.overhead", remote.ms() - bare_ms),
            ("supervise.overhead", sup_ms - bare_ms),
        ] {
            out.extra.entry(k).or_default().push(v);
        }
    };
    run_clients(&mut fleet.clients, run, unit);

    let mut out = Traced::default();
    for state in legs {
        let (_, _, c) = state.into_inner().expect("client state poisoned");
        out.units.extend(c.units);
        out.untraced_ms.extend(c.bare_ms);
        for (k, v) in c.extra {
            out.extra.entry(k).or_default().extend(v);
        }
        out.attempted += c.attempted;
        out.failures.extend(c.failures);
    }
    fleet.stop()?;
    Ok(out)
}
