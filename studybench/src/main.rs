//! `studybench` — the repository benchmark: full usage-modality studies on
//! `teragrid-sim`, timed end to end, and a traced run that splits the
//! simulation's cost across its layers.
//!
//! ```text
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload large-bare|datagrid-study|sparse-stream \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root (it reads `configs/`). With `--trace 0`
//! it runs whole studies back to back at `--seed` for about `--seconds`
//! seconds and reports the end-to-end metrics as medians over the studies.
//! Study time and event-loop throughput are reported in units of a fixed
//! reference computation timed before and after every study (see
//! [`calibrate`]), so a host that slows down for minutes does not read as a
//! slower program; the same figures in host seconds are printed beside them.
//! With `--trace 1` it runs one study, then one traced simulation of the
//! same scenario, checks the two agree, and reports the per-layer metrics.
//! Every study passes the correctness gate or the command exits 1. The last
//! line of standard output is a JSON object with the result.

mod calibrate;
mod probes;
mod study;
mod traced;
mod workloads;

use probes::EVENT_KINDS;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use study::{fnv1a, Study, FNV_OFFSET, RECORD_KINDS};
use tg_des::memory::{self, CountingAlloc};
use workloads::Workload;

/// Allocation counts and the live-heap peak come from the same counting
/// allocator `tgsim` installs.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: f64 = (1u64 << 20) as f64;

/// Adjacent live-stats off/on pairs behind `observers.overhead_frac`.
const OBSERVER_PAIRS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("bad --seconds")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("studybench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let config_text = match args.workload.config_text(&root) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("studybench: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let scratch = root.join(".bench_scratch").join(args.workload.name());
    if let Err(e) = std::fs::create_dir_all(scratch.join("traced")) {
        eprintln!("studybench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let result = if args.trace {
        traced_run(&args, &config_text, &scratch)
    } else {
        timed_run(&args, &config_text, &scratch)
    };
    // The scratch files (traces, record streams) are large; none outlives
    // the run.
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{}", result.json());
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric as reported: value and unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median and quartiles as Python's `statistics.quantiles(n=4)` computes
/// them (the exclusive method); a single sample is its own quartiles.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Studies back to back at one seed for about `--seconds`, a reference
/// window before each and after the last, then the end-to-end metrics as
/// medians over the studies.
fn timed_run(args: &Args, config_text: &str, scratch: &Path) -> RunResult {
    let passes = args.workload.reference_passes();
    let window = || {
        calibrate::window_s(passes).unwrap_or_else(|e| {
            eprintln!("studybench: {e}");
            std::process::exit(2)
        })
    };
    let start = std::time::Instant::now();
    let mut studies: Vec<Study> = Vec::new();
    let mut refs = vec![window()];
    // The largest peak RSS of any study; each window resets the mark.
    let mut peak_rss = 0;
    loop {
        let (s, _) = study::run(args.workload, config_text, args.seed, scratch);
        peak_rss = peak_rss.max(memory::peak_rss_bytes().unwrap_or(0));
        refs.push(window());
        report_study(args, &s);
        studies.push(s);
        // Start another study only if it is expected to end in the window.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / studies.len() as f64 > args.seconds {
            break;
        }
    }
    // Each study is measured against the mean of the windows on either side.
    let ref_s: Vec<f64> = refs.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    let mut failed = 0;
    for s in &studies {
        // Same seed, same outputs: every study must repeat the first's digest.
        let repeats = s.digest == studies[0].digest;
        if !repeats {
            eprintln!(
                "studybench: FAIL: digest {:016x} differs from the first study's",
                s.digest
            );
        }
        if !s.failures.is_empty() || !repeats {
            failed += 1;
        }
    }
    let n = studies.len();
    let per_study = |f: fn(&Study) -> f64| studies.iter().map(f).collect::<Vec<f64>>();
    let per_study_ref = |f: fn(&Study, f64) -> f64| {
        studies
            .iter()
            .zip(&ref_s)
            .map(|(s, &r)| f(s, r))
            .collect::<Vec<f64>>()
    };
    let peak_rss_mib = peak_rss as f64 / MIB;
    let mut metrics = Vec::new();
    // The first five are the end-to-end metrics of BENCHMARK.json; the host
    // seconds after them are printed for reading only.
    for (gated, name, unit, values) in [
        (
            true,
            "study_ref",
            "ref",
            per_study_ref(|s, r| s.study_s / r),
        ),
        (true, "setup_s", "s", per_study(|s| s.setup_s)),
        (
            true,
            "events_per_ref",
            "1/ref",
            per_study_ref(|s, r| s.events_per_s() * r),
        ),
        (true, "peak_rss_mib", "MiB", vec![peak_rss_mib]),
        (
            true,
            "peak_heap_mib",
            "MiB",
            per_study(|s| s.peak_heap_bytes as f64 / MIB),
        ),
        (false, "study_s", "s", per_study(|s| s.study_s)),
        (false, "events_per_s", "1/s", per_study(Study::events_per_s)),
        (false, "reference_s", "s", refs.clone()),
    ] {
        let (q1, median, q3) = quartiles(&values);
        let k = values.len();
        println!("{name:<24} {median:>14.4} {unit:<5} median of n={k}, q1 {q1:.4} q3 {q3:.4}");
        if gated {
            metrics.push(metric(name, median, unit));
        }
    }
    if let Some((a, r)) = studies[0].accuracy {
        println!("{:<24} {a:>14.6} {:<4} n={n}", "accuracy_attrs", "frac");
        println!(
            "{:<24} {r:>14.6} {:<4} n={n}",
            "accuracy_records_only", "frac"
        );
    }
    println!(
        "{:<24} {:>14.4} {:<4} {failed} of {n} studies failed a check",
        "run_failures",
        failed as f64 / n as f64,
        "frac"
    );
    RunResult {
        attempted: n,
        failed,
        metrics,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn report_study(args: &Args, s: &Study) {
    println!(
        "study {} seed {}: {:.3}s (setup {:.3}s, loop {:.3}s), {} jobs, {} events, digest {:016x}",
        args.workload.name(),
        args.seed,
        s.study_s,
        s.setup_s,
        s.loop_s,
        s.generated_jobs,
        s.events,
        s.digest
    );
    for f in &s.failures {
        eprintln!("studybench: FAIL: {f}");
    }
}

/// FNV-1a of a file's bytes.
fn file_digest(path: &Path) -> Result<u64, String> {
    use std::io::Read;
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut buf = vec![0u8; 1 << 20];
    let mut h = FNV_OFFSET;
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if n == 0 {
            return Ok(h);
        }
        h = fnv1a(&buf[..n], h);
    }
}

/// A fingerprint of the retained job records, cheap enough for 1.8M.
fn jobs_fingerprint(db: &tg_accounting::AccountingDb) -> u64 {
    db.jobs.iter().fold(FNV_OFFSET, |h, r| {
        let fields = [
            r.job.index() as u64,
            r.site.index() as u64,
            r.cores as u64,
            r.start.as_secs_f64().to_bits(),
            r.end.as_secs_f64().to_bits(),
        ];
        fields.iter().fold(h, |h, f| fnv1a(&f.to_le_bytes(), h))
    })
}

/// The file a study leaves whose bytes the traced run must reproduce.
fn output_file(workload: Workload, scratch: &Path) -> Option<PathBuf> {
    if workload.streams() {
        Some(workload.records_path(scratch))
    } else if workload.full_measurement() {
        Some(workload.trace_path(scratch))
    } else {
        None
    }
}

/// One untraced study, one traced simulation of the same scenario, the
/// fidelity checks between them, and the per-layer metrics.
fn traced_run(args: &Args, config_text: &str, scratch: &Path) -> RunResult {
    let w = args.workload;
    let (base, out) = study::run(w, config_text, args.seed, scratch);
    report_study(args, &base);
    let mut failures = base.failures.clone();
    let base_file = output_file(w, scratch).map(|p| file_digest(&p));
    let base_jobs = jobs_fingerprint(&out.db);
    let (data, faults, stats) = (
        out.data_report.clone(),
        out.fault_report.clone(),
        out.stats
            .as_ref()
            .map(|s| (s.spans.spans, s.spans.groups, s.series.digest().buckets)),
    );
    drop(out);

    let traced_scratch = scratch.join("traced");
    let t = match traced::run(w, config_text, args.seed, &traced_scratch) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("studybench: FAIL: traced run: {e}");
            return RunResult {
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            };
        }
    };
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    expect(
        t.events == base.events,
        format!(
            "traced run delivered {} events, untraced {}",
            t.events, base.events
        ),
    );
    expect(
        t.generated_jobs == base.generated_jobs && t.jobs_done == base.generated_jobs,
        format!(
            "traced run generated {} and finished {} jobs, untraced generated {}",
            t.generated_jobs, t.jobs_done, base.generated_jobs
        ),
    );
    expect(
        t.records == base.records,
        format!(
            "traced records {:?} != untraced {:?}",
            t.records, base.records
        ),
    );
    if !w.streams() {
        expect(
            jobs_fingerprint(&t.sim.inner.db) == base_jobs,
            "traced job records differ from the untraced run's".into(),
        );
    }
    let sim = t.sim;
    let (events, self_ns, handle_ns) = (sim.events, sim.self_ns, sim.handle_ns);
    // Dropping the simulation flushes its trace writer and record sink.
    drop(sim);
    match base_file {
        Some(Ok(base_digest)) => {
            let traced = file_digest(&output_file(w, &traced_scratch).expect("same workload"));
            expect(
                traced == Ok(base_digest),
                "traced output file differs from the untraced run's".into(),
            );
        }
        Some(Err(e)) => expect(false, e),
        None => {}
    }
    let observers_overhead = if w.full_measurement() {
        observers_overhead(w, config_text, args.seed, scratch)
    } else {
        0.0
    };
    for f in &failures {
        eprintln!("studybench: FAIL: {f}");
    }

    let p = &t.probes;
    let s = |ns: u64| ns as f64 * 1e-9;
    let handled: u64 = handle_ns.iter().sum();
    let pull_ns = p.pull_ns.load(Relaxed);
    let decide_calls = p.decide_calls.load(Relaxed);
    let mut m = vec![
        metric("workload.generate_s", t.generate_s, "s"),
        metric("workload.pull_s", s(pull_ns), "s"),
        metric("des.queue_s", t.loop_s - s(handled) - s(pull_ns), "s"),
        metric("des.peak_queue", t.peak_queue as f64, "count"),
    ];
    for (i, kind) in EVENT_KINDS.iter().enumerate() {
        m.push(metric(
            &format!("des.events.{kind}"),
            events[i] as f64,
            "count",
        ));
    }
    for (i, kind) in EVENT_KINDS.iter().enumerate() {
        m.push(metric(&format!("sim.handle_s.{kind}"), s(self_ns[i]), "s"));
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.extend([
        metric("sched.submit_s", s(p.sched_submit_ns.load(Relaxed)), "s"),
        metric(
            "sched.complete_s",
            s(p.sched_complete_ns.load(Relaxed)),
            "s",
        ),
        metric("sched.decide_s", s(p.sched_decide_ns.load(Relaxed)), "s"),
        metric("sched.decide_calls", decide_calls as f64, "count"),
        metric("sched.started", p.started.load(Relaxed) as f64, "count"),
        metric(
            "sched.decide_yield",
            ratio(
                p.productive_decides.load(Relaxed) as f64,
                decide_calls as f64,
            ),
            "ratio",
        ),
        metric(
            "sched.backfills",
            p.backfills.iter().map(|b| b.load(Relaxed)).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "sched.peak_queue_len",
            p.peak_queue_len.load(Relaxed) as f64,
            "count",
        ),
        metric(
            "data.accesses",
            data.as_ref().map_or(0.0, |d| d.accesses as f64),
            "count",
        ),
        metric(
            "data.hit_rate",
            data.as_ref().map_or(0.0, |d| d.hit_rate),
            "ratio",
        ),
        metric("data.wan_mb", data.as_ref().map_or(0.0, |d| d.wan_mb), "MB"),
        metric(
            "data.evictions",
            data.as_ref().map_or(0.0, |d| d.evictions as f64),
            "count",
        ),
        metric(
            "fault.handle_s",
            s(self_ns[7] + self_ns[8] + self_ns[9]),
            "s",
        ),
        metric(
            "fault.killed",
            faults.as_ref().map_or(0.0, |f| f.jobs_killed as f64),
            "count",
        ),
        metric(
            "fault.requeued",
            faults.as_ref().map_or(0.0, |f| f.jobs_requeued as f64),
            "count",
        ),
        metric(
            "fault.abandoned",
            faults.as_ref().map_or(0.0, |f| f.jobs_abandoned as f64),
            "count",
        ),
    ]);
    for (i, kind) in RECORD_KINDS.iter().enumerate() {
        m.push(metric(
            &format!("accounting.records.{kind}"),
            t.records[i] as f64,
            "count",
        ));
    }
    m.extend([
        metric("accounting.sink_s", s(p.sink_ns.load(Relaxed)), "s"),
        metric("observers.overhead_frac", observers_overhead, "ratio"),
        metric(
            "observers.spans",
            stats.map_or(0.0, |s| s.0 as f64),
            "count",
        ),
        metric(
            "observers.groups",
            stats.map_or(0.0, |s| s.1 as f64),
            "count",
        ),
        metric(
            "observers.buckets",
            stats.map_or(0.0, |s| s.2 as f64),
            "count",
        ),
        metric(
            "observers.trace_write_s",
            s(p.trace_write_ns.load(Relaxed)),
            "s",
        ),
        metric(
            "observers.trace_bytes",
            p.trace_bytes.load(Relaxed) as f64,
            "bytes",
        ),
        metric("analyze.s", base.stages.analyze_s, "s"),
        metric("analyze.lines", base.stages.analyze_lines as f64, "count"),
        metric("classify.attrs_s", base.stages.classify_attrs_s, "s"),
        metric(
            "classify.records_only_s",
            base.stages.classify_records_only_s,
            "s",
        ),
        metric("classify.score_s", base.stages.score_s, "s"),
        metric("report.usage_s", base.stages.report_s, "s"),
        metric("write.summary_s", base.stages.write_s, "s"),
        metric("alloc.generate", t.alloc_generate as f64, "count"),
        metric("alloc.simulate", t.alloc_simulate as f64, "count"),
        metric("alloc.report", base.stages.alloc_report as f64, "count"),
        metric("alloc.classify", base.stages.alloc_classify as f64, "count"),
        metric("alloc.analyze", base.stages.alloc_analyze as f64, "count"),
        metric("alloc.write", base.stages.alloc_write as f64, "count"),
        // The traced study reuses the untraced post-processing stages, so
        // its extra cost is the decorated simulation's against the plain one.
        metric(
            "trace.overhead_frac",
            (t.setup_s + t.loop_s - base.setup_s - base.loop_s) / base.study_s,
            "ratio",
        ),
    ]);
    for x in &m {
        println!("{:<28} {:>18.6} {}", x.name, x.value, x.unit);
    }
    RunResult {
        attempted: 1,
        failed: usize::from(!failures.is_empty()),
        metrics: m,
    }
}

/// Event-loop cost of the live-stats observers: the loop wall with them on
/// over the loop wall with them off, minus one, as the median of adjacent
/// pairs run in alternating order.
fn observers_overhead(w: Workload, config_text: &str, seed: u64, scratch: &Path) -> f64 {
    let scenario = serde_json::from_str::<tg_core::ScenarioConfig>(config_text)
        .expect("workload config parses")
        .build();
    let loop_wall = |live_stats: bool| {
        let opts = tg_core::RunOptions {
            live_stats,
            trace_path: None,
            ..w.run_options(scratch)
        };
        scenario.run_with(seed, &opts).profile.wall_seconds
    };
    let ratios: Vec<f64> = (0..OBSERVER_PAIRS)
        .map(|i| {
            let (off, on) = if i % 2 == 0 {
                let off = loop_wall(false);
                (off, loop_wall(true))
            } else {
                let on = loop_wall(true);
                (loop_wall(false), on)
            };
            on / off - 1.0
        })
        .collect();
    quartiles(&ratios).1
}
