//! Online-observability differential suite.
//!
//! The live-stats layer (`crates/des/src/sketch.rs`, `crates/des/src/series.rs`,
//! wired through `GridSim`) is an *observer*: enabling it must not change a
//! single byte of simulation output, and the report it produces must itself
//! be a pure function of `(config, seed)`. This suite enforces both, and
//! cross-checks the online sketches against the offline trace analyzer:
//! counts and quantiles exactly, means within the sketch's documented error
//! bound. Thread-count invariance is a
//! replication-level property, checked in `runner.rs`.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;

use tg_core::{RunOptions, ScenarioConfig, SimOutput};
use tg_des::analyze::parse_span_line;
use tg_des::sketch::RELATIVE_ERROR;
use tg_des::{GroupStats, SketchSummary, SpanKind, TraceAnalyzer};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tg-obs-{tag}-{}.jsonl", std::process::id()))
}

fn observed() -> RunOptions {
    RunOptions {
        live_stats: true,
        ..RunOptions::default()
    }
}

/// Every deterministic field of [`SimOutput`] must match between an observed
/// and an unobserved run (`stats` and `profile` are the intentional deltas).
fn assert_same_simulation(a: &SimOutput, b: &SimOutput, label: &str) {
    assert_eq!(a.events_delivered, b.events_delivered, "{label}: events");
    assert_eq!(a.end, b.end, "{label}: end time");
    assert_eq!(a.db.jobs, b.db.jobs, "{label}: job records");
    assert_eq!(a.db.transfers, b.db.transfers, "{label}: transfers");
    assert_eq!(a.db.sessions, b.db.sessions, "{label}: sessions");
    assert_eq!(a.db.rc_placements, b.db.rc_placements, "{label}: rc");
    assert_eq!(a.samples, b.samples, "{label}: sample series");
    assert_eq!(a.site_stats, b.site_stats, "{label}: site stats");
    assert_eq!(a.fault_report, b.fault_report, "{label}: fault report");
}

#[test]
fn live_stats_never_perturb_serial_results() {
    let cfg = ScenarioConfig::baseline(120, 7);
    let scenario = cfg.build();
    let plain = scenario.run_with(11, &RunOptions::default());
    let obs = scenario.run_with(11, &observed());
    assert!(plain.stats.is_none(), "unobserved run grew a stats report");
    let stats = obs.stats.as_ref().expect("observed run reports stats");
    assert!(stats.spans.spans > 0, "no spans recorded");
    assert_same_simulation(&plain, &obs, "serial observed-vs-not");
    // The report itself repeats exactly at the same seed.
    let again = scenario.run_with(11, &observed());
    let again = again.stats.as_ref().expect("observed run reports stats");
    assert_eq!(
        stats.first_divergence(again),
        None,
        "same seed, same report"
    );
}

/// `(count, p50, p95, p99)` per key: the fields both tables compute the
/// same way, from the same sketch layout.
type Quantiles<K> = BTreeMap<K, (u64, f64, f64, f64)>;

fn offline_quantiles<K: Clone + Ord>(t: &BTreeMap<K, GroupStats>) -> Quantiles<K> {
    t.iter()
        .map(|(k, s)| (k.clone(), (s.count, s.p50, s.p95, s.p99)))
        .collect()
}

fn online_quantiles<K: Clone + Ord>(t: &BTreeMap<K, SketchSummary>) -> Quantiles<K> {
    t.iter()
        .map(|(k, s)| (k.clone(), (s.count, s.p50, s.p95, s.p99)))
        .collect()
}

/// Run once with both the JSONL trace and the online sketches, then check
/// that (a) the offline analyzer's shared tables equal the sketch tables
/// exactly in count and quantiles, (b) the analyzer's exact means are within
/// the sketch's [`RELATIVE_ERROR`] of its bin-midpoint means, and (c) the
/// sketch quantiles are within [`RELATIVE_ERROR`] of exact nearest-rank
/// quantiles over the parsed span durations.
fn assert_online_equals_offline(cfg: ScenarioConfig, seed: u64, tag: &str) -> SimOutput {
    let path = scratch(tag);
    let opts = RunOptions {
        trace_path: Some(path.clone()),
        live_stats: true,
        ..RunOptions::default()
    };
    let out = cfg.build().run_with(seed, &opts);
    let stats = out.stats.as_ref().expect("stats collected");

    let mut analyzer = TraceAnalyzer::new();
    let mut durations: BTreeMap<String, Vec<f64>> = Default::default();
    let file = std::fs::File::open(&path).expect("trace file exists");
    for line in std::io::BufReader::new(file).lines() {
        let line = line.expect("readable line");
        if let Some(span) = parse_span_line(&line) {
            durations
                .entry(span.kind.name().to_string())
                .or_default()
                .push(span.duration());
        }
        analyzer.add_line(&line);
    }
    let _ = std::fs::remove_file(&path);
    let analysis = analyzer.finish();

    // Same span stream, same microsecond durations, same sketch layout: the
    // shared tables agree bit for bit.
    assert_eq!(
        analysis.span_lines, stats.spans.spans,
        "{tag}: span count online vs trace"
    );
    let spans = &stats.spans;
    assert_eq!(
        offline_quantiles(&analysis.by_kind),
        online_quantiles(&spans.by_kind),
        "{tag}: by_kind"
    );
    assert_eq!(
        offline_quantiles(&analysis.queued_by_cause),
        online_quantiles(&spans.queued_by_cause),
        "{tag}: queued_by_cause"
    );
    assert_eq!(
        offline_quantiles(&analysis.stage_in_by_cause),
        online_quantiles(&spans.stage_in_by_cause),
        "{tag}: stage_in_by_cause"
    );
    assert_eq!(
        offline_quantiles(&analysis.queued_by_site),
        online_quantiles(&spans.queued_by_site),
        "{tag}: queued_by_site"
    );
    let close = |got: f64, want: f64, what: &str| {
        let tol = want.abs() * RELATIVE_ERROR + 1e-6;
        assert!(
            (got - want).abs() <= tol,
            "{tag} {what}: online {got} vs exact {want} (tol {tol})"
        );
    };
    for (kind, offline) in &analysis.by_kind {
        // The analyzer's mean is exact; the sketch's is bin-midpoint based.
        close(
            spans.by_kind[kind].mean,
            offline.mean,
            &format!("{kind}: mean"),
        );
    }

    // Exact nearest-rank quantiles from the retained durations: the sketch
    // (and so the analyzer) lands within its documented relative error.
    for (kind, vals) in &mut durations {
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let online = &spans.by_kind[kind.as_str()];
        for (q, got) in [(0.50, online.p50), (0.95, online.p95), (0.99, online.p99)] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let want = vals[rank - 1];
            let tol = want.abs() * RELATIVE_ERROR + 1e-6;
            assert!(
                (got - want).abs() <= tol,
                "{tag} {kind} p{:.0}: sketch {got} vs exact {want} (tol {tol}, n={})",
                q * 100.0,
                vals.len()
            );
        }
        close(online.min, vals[0], &format!("{kind}: min"));
        close(online.max, vals[vals.len() - 1], &format!("{kind}: max"));
    }

    // The windowed series agrees with the accounting database on totals.
    let digest = stats.series.digest();
    assert_eq!(
        digest.completed,
        out.db.jobs.len() as u64,
        "{tag}: series completion count vs accounting db"
    );
    assert!(digest.buckets > 0 && digest.peak_active > 0);
    out
}

#[test]
fn online_sketches_agree_with_offline_analyzer() {
    let out = assert_online_equals_offline(ScenarioConfig::baseline(150, 7), 777, "agree");
    let spans = &out.stats.as_ref().expect("stats collected").spans;
    // Queued spans: one per completed job (requeues add more, baseline has
    // none), so the queued table covers every job.
    assert_eq!(
        spans.by_kind[SpanKind::Queued.name()].count,
        out.db.jobs.len() as u64 + spans.by_kind.get("requeue").map_or(0, |s| s.count),
        "queued span coverage"
    );

    // A data grid with a notice-0 site outage: stage-in causes and the
    // fault and requeue kinds, which the baseline never produces.
    let mut cfg = ScenarioConfig::datagrid(120, 7);
    cfg.faults = Some(tg_core::FaultSpec {
        site_outages: vec![tg_core::OutageWindow {
            site: 1,
            start_hours: 30.0,
            duration_hours: 12.0,
            notice_hours: 0.0,
        }],
        retry: Some(tg_sched::RetryPolicy::default()),
        ..tg_core::FaultSpec::default()
    });
    let out = assert_online_equals_offline(cfg, 100, "agree-datagrid");
    let spans = &out.stats.as_ref().expect("stats collected").spans;
    for kind in [SpanKind::Fault, SpanKind::Requeue, SpanKind::StageIn] {
        assert!(spans.by_kind.contains_key(kind.name()), "no {kind} spans");
    }
    for cause in ["cache-hit", "cache-miss"] {
        assert!(spans.stage_in_by_cause.contains_key(cause), "no {cause}");
    }
}

/// The JSONL live sink streams exactly the closed-bucket rows of the final
/// snapshot, in order, as parseable JSON.
#[test]
fn live_sink_rows_match_the_final_snapshot() {
    let cfg = ScenarioConfig::baseline(80, 5);
    let path = scratch("sink");
    let opts = RunOptions {
        live_stats_path: Some(path.clone()),
        ..RunOptions::default()
    };
    let out = cfg.build().run_with(5, &opts);
    let stats = out.stats.as_ref().expect("stats collected");
    assert_eq!(stats.live_sink_errors, 0, "sink writes failed");
    let file = std::fs::File::open(&path).expect("live-stats file exists");
    let rows: Vec<tg_des::SeriesRow> = std::io::BufReader::new(file)
        .lines()
        .map(|l| serde_json::from_str(&l.expect("readable")).expect("row parses"))
        .collect();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        rows, stats.series.rows,
        "streamed rows vs final snapshot rows"
    );
    assert!(rows.len() > 24, "a 5-day run closes >24 hourly buckets");
}
