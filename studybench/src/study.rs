//! One untraced study: the sequence `tgsim run` follows, through the
//! library's public calls, from config text to every output written. The
//! end-to-end metrics come from here; the correctness gate checks what it
//! produced.

use crate::workloads::Workload;
use std::io::BufRead;
use std::path::Path;
use std::time::Instant;
use tg_core::report::UsageReport;
use tg_core::{classify_all, Accuracy, ClassifierMode, Modality, ScenarioConfig, SimOutput};
use tg_des::memory;
use tg_des::{TraceAnalysis, TraceAnalyzer};

/// Record counts by kind, in [`RECORD_KINDS`] order.
pub type RecordCounts = [u64; 5];

/// The accounting record kinds, as [`tg_accounting::RecordRef::kind`] names
/// them.
pub const RECORD_KINDS: [&str; 5] = ["job", "transfer", "session", "gateway", "rc"];

/// Wall time and allocation count of each post-simulation stage.
#[derive(Default)]
pub struct Stages {
    pub report_s: f64,
    pub classify_attrs_s: f64,
    pub classify_records_only_s: f64,
    pub score_s: f64,
    pub analyze_s: f64,
    pub analyze_lines: u64,
    pub write_s: f64,
    pub alloc_report: u64,
    pub alloc_classify: u64,
    pub alloc_analyze: u64,
    pub alloc_write: u64,
}

/// What one untraced study measured and produced.
pub struct Study {
    pub study_s: f64,
    pub setup_s: f64,
    pub loop_s: f64,
    pub peak_heap_bytes: i64,
    pub events: u64,
    pub generated_jobs: u64,
    pub records: RecordCounts,
    /// Classifier accuracy with gateway attributes, then records only.
    pub accuracy: Option<(f64, f64)>,
    pub stages: Stages,
    /// FNV-1a digest of the deterministic outputs (the summary JSON and,
    /// where present, the trace analysis).
    pub digest: u64,
    /// Failed correctness checks (empty when the study is correct).
    pub failures: Vec<String>,
}

impl Study {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.loop_s
    }
}

/// FNV-1a, 64-bit: a stable digest for comparing outputs across commits.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Times one stage and counts its allocations.
fn stage<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let allocs = memory::alloc_snapshot().allocations;
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    (out, secs, memory::alloc_snapshot().allocations - allocs)
}

/// Run one study of `workload` from `config_text` at `seed`, writing its
/// files under `scratch`. The simulator's own output comes back too, for
/// callers that read its reports; a caller timing several studies drops it
/// before the next, so no study's peak memory includes another's output.
pub fn run(workload: Workload, config_text: &str, seed: u64, scratch: &Path) -> (Study, SimOutput) {
    let opts = workload.run_options(scratch);
    memory::reset_peak_in_use();
    let start = Instant::now();
    let cfg: ScenarioConfig = serde_json::from_str(config_text).expect("workload config parses");
    let scenario = cfg.build();
    let built_s = start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let output = scenario.run_with(seed, &opts);
    let run_s = run_start.elapsed().as_secs_f64();
    let loop_s = output.profile.wall_seconds;

    let mut stages = Stages::default();
    let (report, secs, allocs) = stage(|| {
        output
            .ingest_tally
            .is_none()
            .then(|| UsageReport::compute(&output.db, &output.truth, &output.charge_policy))
    });
    (stages.report_s, stages.alloc_report) = (secs, allocs);
    let mut accuracy = None;
    let mut analysis = None;
    if workload.full_measurement() {
        let allocs = memory::alloc_snapshot().allocations;
        let (attrs, secs, _) = stage(|| classify_all(&output.db, ClassifierMode::WithAttributes));
        stages.classify_attrs_s = secs;
        let (records_only, secs, _) =
            stage(|| classify_all(&output.db, ClassifierMode::RecordsOnly));
        stages.classify_records_only_s = secs;
        let ((a, r), secs, _) = stage(|| {
            (
                Accuracy::score(&output.truth, &attrs),
                Accuracy::score(&output.truth, &records_only),
            )
        });
        stages.score_s = secs;
        stages.alloc_classify = memory::alloc_snapshot().allocations - allocs;
        accuracy = Some((a.accuracy, r.accuracy));
        let (a, secs, allocs) = stage(|| analyze_trace(&workload.trace_path(scratch)));
        (stages.analyze_s, stages.alloc_analyze) = (secs, allocs);
        stages.analyze_lines = a.as_ref().map_or(0, |a| a.lines);
        analysis = Some(a);
    }
    let (summary_text, secs, allocs) = stage(|| {
        let summary = summary_json(&output, report.as_ref(), accuracy);
        let text = serde_json::to_string_pretty(&summary).expect("summary serializes");
        std::fs::write(workload.summary_path(scratch), &text).expect("summary is written");
        text
    });
    (stages.write_s, stages.alloc_write) = (secs, allocs);
    let study_s = start.elapsed().as_secs_f64();
    let peak_heap_bytes = memory::peak_in_use_bytes();

    let mut digest = fnv1a(summary_text.as_bytes(), FNV_OFFSET);
    let mut failures = Vec::new();
    match &analysis {
        Some(Ok(a)) => {
            let text = serde_json::to_string(a).expect("analysis serializes");
            digest = fnv1a(text.as_bytes(), digest);
            if a.span_lines == 0 {
                failures.push("trace analysis found no span lines".into());
            }
        }
        Some(Err(e)) => failures.push(e.clone()),
        None => {}
    }
    let records = record_counts(&output);
    failures.extend(check(&output, report.as_ref(), records, accuracy));
    let study = Study {
        study_s,
        setup_s: built_s + (run_s - loop_s),
        loop_s,
        peak_heap_bytes,
        events: output.events_delivered,
        generated_jobs: output.truth.len() as u64,
        records,
        accuracy,
        stages,
        digest,
        failures,
    };
    (study, output)
}

/// The offline trace analysis `tgsim analyze` performs.
pub fn analyze_trace(path: &Path) -> Result<TraceAnalysis, String> {
    let file = std::fs::File::open(path)
        .map_err(|e| format!("cannot open trace {}: {e}", path.display()))?;
    let mut analyzer = TraceAnalyzer::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("trace read error: {e}"))?;
        analyzer.add_line(&line);
    }
    Ok(analyzer.finish())
}

/// Records by kind, from the retained database or the streamed tally.
pub fn record_counts(out: &SimOutput) -> RecordCounts {
    match &out.ingest_tally {
        Some(t) => [
            t.jobs,
            t.transfers,
            t.sessions,
            t.gateway_attrs,
            t.rc_placements,
        ],
        None => [
            out.db.jobs.len(),
            out.db.transfers.len(),
            out.db.sessions.len(),
            out.db.gateway_attrs.len(),
            out.db.rc_placements.len(),
        ]
        .map(|n| n as u64),
    }
}

/// The deterministic fields of `tgsim run --out`'s summary.
fn summary_json(
    out: &SimOutput,
    report: Option<&UsageReport>,
    accuracy: Option<(f64, f64)>,
) -> serde_json::Value {
    serde_json::json!({
        "scenario": out.scenario,
        "seed": out.seed,
        "jobs": record_counts(out)[0],
        "events": out.events_delivered,
        "end_s": out.end.as_secs_f64(),
        "utilization": out.average_utilization(),
        "shares": report.map(|r| &r.shares),
        "ingest_tally": out.ingest_tally,
        "classifier": accuracy.map(|(a, r)| serde_json::json!({"with_attributes": a, "records_only": r})),
        "samples": out.samples,
        "stats": out.stats,
        "trace": out.trace_health.map(|h| serde_json::json!({"sink_errors": h.sink_errors, "complete": h.sink_clean()})),
        "data": out.data_report,
        "faults": out.fault_report,
    })
}

/// The output-correctness gate.
fn check(
    out: &SimOutput,
    report: Option<&UsageReport>,
    records: RecordCounts,
    accuracy: Option<(f64, f64)>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    let jobs = records[0];
    let abandoned = out.fault_report.as_ref().map_or(0, |f| f.jobs_abandoned);
    let generated = out.truth.len() as u64;
    expect(
        jobs + abandoned == generated,
        format!(
            "job conservation: {jobs} records + {abandoned} abandoned != {generated} generated"
        ),
    );
    match &out.metrics {
        Some(snap) => {
            let by_site = snap.counter_sum("completed.site.");
            let by_modality = snap.counter_sum("completed.modality.");
            expect(
                by_site == by_modality && by_site == jobs,
                format!(
                    "completions: {by_site} by site, {by_modality} by modality, {jobs} job records"
                ),
            );
            if let Some(r) = report {
                for m in Modality::ALL {
                    let counted = snap
                        .counter(&format!("completed.modality.{}", m.name()))
                        .unwrap_or(0);
                    expect(
                        counted == r.shares.jobs[m.index()],
                        format!(
                            "modality {}: {counted} completions vs {} in the usage report",
                            m.name(),
                            r.shares.jobs[m.index()]
                        ),
                    );
                }
            }
        }
        None => expect(false, "metrics snapshot missing".into()),
    }
    expect(
        out.profile.events_delivered == out.events_delivered && out.events_delivered > 0,
        "engine profile disagrees with the delivered-event count".into(),
    );
    if let Some(t) = &out.ingest_tally {
        expect(
            t.write_errors == 0,
            format!("{} record writes failed", t.write_errors),
        );
    }
    if let Some(h) = &out.trace_health {
        expect(h.sink_clean(), "trace file is incomplete".into());
    }
    if let Some((a, r)) = accuracy {
        for (mode, acc) in [("with attributes", a), ("records only", r)] {
            expect(
                acc > 0.0 && acc <= 1.0,
                format!("classifier accuracy {mode} out of range: {acc}"),
            );
        }
    }
    failures
}
