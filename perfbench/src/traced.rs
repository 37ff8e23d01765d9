//! The traced path: `Session::diagnose` and `Session::harvest` spelled
//! out as the public calls they make, in the same order, with a span
//! around each call into a layer.
//!
//! The untraced path calls the `Session` methods themselves. Every
//! workload's traced run checks that this path produces byte-identical
//! records and directive sets, so a drift between the two (for example
//! a new step inside `Session`) fails the traced run instead of quietly
//! measuring a different program.

use histpc::consultant::{
    Consultant, HypothesisTree, PriorityLevel, SearchConfig, SearchDirectives,
};
use histpc::history::{
    extract, ground_truth, ExecutionRecord, ExecutionStore, ExtractionOptions, TrustLedger,
    TrustVerdict,
};
use histpc::instr::{Collector, PostmortemData, SampleBatch};
use histpc::lint::{CorpusAnalyzer, Linter};
use histpc::sim::{EngineStatus, SimTime, Workload};

use crate::trace::Tracer;

/// `Session::diagnose` with an optional store, traced. Returns the
/// execution record and whether the search quiesced.
pub fn diagnose(
    t: &mut Tracer,
    store: Option<&ExecutionStore>,
    workload: &dyn Workload,
    config: &SearchConfig,
    label: &str,
) -> Result<(ExecutionRecord, bool), String> {
    if !config.directives.is_empty() {
        let report = t.span("lint.preflight", || {
            Linter::new()
                .directives(config.directives.to_text(), "<search directives>")
                .run()
        });
        if report.has_errors() {
            return Err("search directives failed lint".into());
        }
    }
    let mut engine = t.span("sim.build", || workload.build_engine());

    // drive_diagnosis
    let mut collector = t.span("instr.new", || {
        Collector::new(engine.app().clone(), config.collector.clone())
    });
    let mut consultant = t.span("consultant.new", || {
        let mut c = Consultant::new(
            HypothesisTree::standard(),
            config.directives.clone(),
            config.window,
            &collector,
        );
        c.set_top_level_only(config.top_level_only);
        c.enable_audits(config.audit_budget, &collector);
        c
    });
    t.span("consultant.tick", || {
        consultant.tick(SimTime::ZERO, &mut collector)
    });
    t.count("consultant.ticks", 1.0);
    t.span("instr.perturb", || {
        collector.apply_perturbation(&mut engine)
    });
    let mut now = SimTime::ZERO;
    let max = SimTime::ZERO + config.max_time;
    loop {
        now += config.sample;
        let status = t.span("sim.run_until", || engine.run_until(now));
        let batch = t.span("instr.drain", || SampleBatch::drain(&mut engine));
        t.count("instr.samples", batch.len() as f64);
        t.span("instr.ingest", || collector.ingest(&batch));
        t.span("consultant.tick", || consultant.tick(now, &mut collector));
        t.count("consultant.ticks", 1.0);
        t.span("instr.perturb", || {
            collector.apply_perturbation(&mut engine)
        });
        if consultant.is_quiescent() && !config.run_full_program {
            break;
        }
        if status != EngineStatus::Running {
            break;
        }
        if now >= max {
            break;
        }
    }
    let report = t.span("consultant.report", || consultant.report(&collector, now));
    t.count("sim.events", engine.events_drained() as f64);
    t.count("consultant.pairs_tested", report.pairs_tested as f64);
    t.count("consultant.true", report.bottleneck_count() as f64);

    let (pm, tree, record) = t.span("core.finish", || {
        let pm = PostmortemData::from_totals(engine.app().clone(), engine.totals());
        let tree = HypothesisTree::standard();
        let thresholds_used = tree
            .testable()
            .iter()
            .map(|&h| {
                let hyp = tree.get(h);
                let v = config
                    .directives
                    .threshold_for(&hyp.name)
                    .unwrap_or(hyp.default_threshold);
                (hyp.name.clone(), v)
            })
            .collect();
        let record = ExecutionRecord::from_report(&report, pm.space(), label, thresholds_used);
        (pm, tree, record)
    });
    if let Some(store) = store {
        t.span("history.save", || -> Result<(), String> {
            store.save(&record).map_err(|e| e.to_string())?;
            store
                .save_artifact(&record.app_name, label, "shg", &report.shg_rendering)
                .map_err(|e| e.to_string())?;
            store
                .delete_artifact(&record.app_name, label, "ckpt")
                .map_err(|e| e.to_string())?;
            Ok(())
        })?;
        // Session::absorb_audits: a no-op without audit outcomes.
        if !report.audits.is_empty() {
            t.span("history.trust", || {
                let mut ledger = TrustLedger::load(store.root());
                for a in &report.audits {
                    ledger.record_audit(&a.source_run, a.passed);
                    if !a.passed {
                        ledger.record_revocation(&a.source_run, &a.directive);
                    }
                }
                let _ = ledger.save(store.root());
            });
        }
    }
    t.span("core.finish", || {
        ground_truth(&pm, &tree, &config.directives)
    });
    Ok((record, report.quiescent))
}

/// `Session::harvest` (no tenant scope), traced. Returns the vetted
/// directives exactly as the session would.
pub fn harvest(
    t: &mut Tracer,
    store: &ExecutionStore,
    app: &str,
    label: &str,
    opts: &ExtractionOptions,
) -> Result<SearchDirectives, String> {
    let rec = t
        .span("history.load", || store.load(app, label))
        .map_err(|e| e.to_string())?;
    let mut harvested = t.span("history.extract", || extract(&rec, opts));
    let source = format!("{app}/{label}");
    let generation = t
        .span("history.load", || store.generation())
        .ok()
        .flatten()
        .unwrap_or(0);
    harvested.stamp_provenance(&source, generation);

    let mut ledger = t.span("history.trust", || TrustLedger::load(store.root()));
    let mut ledger_dirty = false;
    let analysis = t
        .span("lint.corpus", || CorpusAnalyzer::new(store).analyze())
        .map_err(|e| e.to_string())?;
    t.count("lint.records", analysis.records as f64);
    t.count("lint.cache_misses", analysis.cache_misses as f64);
    t.span("history.trust", || {
        for v in analysis.verdicts.iter() {
            let key = format!("{}/{} {} {}", v.app, v.version, v.hypothesis, v.focus);
            for src_label in [&v.prune_source, &v.priority_source] {
                let src = format!("{}/{src_label}", v.app);
                ledger_dirty |= ledger.record_conflict(&src, &key);
            }
        }
    });
    let (mut vetted, _dropped) = t.span("lint.corpus", || {
        analysis
            .verdicts
            .down_rank(&harvested, &rec.app_name, &rec.app_version)
    });
    vetted.adopt_provenance(&harvested);

    let mut vetted = match ledger.verdict(&source) {
        TrustVerdict::Trusted => vetted,
        TrustVerdict::Quarantined => SearchDirectives::none(),
        TrustVerdict::Downweighted => {
            let mut out = SearchDirectives::none();
            for p in &vetted.priorities {
                let mut p = p.clone();
                if p.level == PriorityLevel::High {
                    p.level = PriorityLevel::Medium;
                }
                out.add_priority(p);
            }
            out.stamp_provenance(&source, generation);
            out
        }
    };
    for line in vetted.lines() {
        if ledger.is_revoked(&source, &line) {
            vetted.remove_by_line(&line);
        }
    }
    if ledger_dirty {
        t.span("history.trust", || {
            let _ = ledger.save(store.root());
        });
    }
    Ok(vetted)
}
