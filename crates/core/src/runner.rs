//! Deterministic parallel replication.
//!
//! Experiments need confidence intervals, so every point is run at several
//! seeds. Replications are embarrassingly parallel *between* runs and
//! strictly sequential *within* one run (a run is one serial event loop) —
//! so results are bit-identical whatever the thread count. This is the
//! only place the simulator uses threads. Threads are scoped (no detached
//! state) and fan results back through a crossbeam channel; outputs are
//! re-ordered by index before returning.

use crate::scenario::{RunOptions, Scenario, SimOutput};
use crossbeam::channel;
use std::thread;
use tg_des::metrics::EngineProfile;

/// One replication's result.
#[derive(Debug)]
pub struct Replication {
    /// Replication index (0-based).
    pub index: usize,
    /// The seed used (`base_seed + index`).
    pub seed: u64,
    /// The run's output.
    pub output: SimOutput,
}

/// Run `count` replications of `scenario` at seeds `base_seed..base_seed+count`,
/// using up to `threads` worker threads (clamped to `count`; 0 means one
/// thread per replication up to the machine's parallelism).
pub fn replicate(
    scenario: &Scenario,
    base_seed: u64,
    count: usize,
    threads: usize,
) -> Vec<Replication> {
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    replicate_with(scenario, base_seed, count, &opts)
}

/// [`replicate`] with observability options, on [`RunOptions::threads`]
/// worker threads (clamped to `count`; 0 means one per available core).
/// Metrics are collected on every replication; the JSONL trace (if
/// requested) is written by replication 0 only — one representative trace
/// rather than `count` interleaved files.
pub fn replicate_with(
    scenario: &Scenario,
    base_seed: u64,
    count: usize,
    opts: &RunOptions,
) -> Vec<Replication> {
    assert!(count > 0, "need at least one replication");
    let indices: Vec<usize> = (0..count).collect();
    run_sweep(&indices, opts.threads, |index, _| {
        let seed = base_seed + index as u64;
        let rep_opts = RunOptions {
            trace_path: if index == 0 {
                opts.trace_path.clone()
            } else {
                None
            },
            ..opts.clone()
        };
        Replication {
            index,
            seed,
            output: scenario.run_with(seed, &rep_opts),
        }
    })
}

/// Run one closure per sweep point in parallel, returning results in point
/// order whatever the thread count or completion order.
///
/// This is the sweep-level complement to [`replicate`]: experiment binaries
/// iterate a config grid where each cell is itself a (sequential or
/// parallel) replication batch. Running the *cells* in parallel keeps each
/// cell's seed stream untouched — bit-identical to the serial loop — while
/// filling all cores. `threads == 0` uses the machine's parallelism.
///
/// The closure gets `(index, &point)` so it can seed or label per-cell.
pub fn run_sweep<P, R, F>(points: &[P], threads: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    if points.is_empty() {
        return Vec::new();
    }
    let workers = if threads == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(points.len());
    if workers <= 1 {
        return points.iter().enumerate().map(|(i, p)| f(i, p)).collect();
    }
    let (task_tx, task_rx) = channel::unbounded::<usize>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, R)>();
    for i in 0..points.len() {
        task_tx.send(i).expect("channel open");
    }
    drop(task_tx);
    thread::scope(|scope| {
        for _ in 0..workers {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok(index) = task_rx.recv() {
                    let out = f(index, &points[index]);
                    if result_tx.send((index, out)).is_err() {
                        return; // main thread gone; nothing left to report to
                    }
                }
            });
        }
        drop(result_tx);
        let mut results: Vec<(usize, R)> = result_rx.iter().collect();
        results.sort_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    })
}

/// Collect a per-replication scalar metric and summarize it as
/// `(mean, 95% CI half-width)`.
pub fn summarize(replications: &[Replication], metric: impl Fn(&SimOutput) -> f64) -> (f64, f64) {
    let values: Vec<f64> = replications.iter().map(|r| metric(&r.output)).collect();
    tg_des::stats::ci_student_t(&values)
}

/// Aggregate the wall-clock engine profiles of a replication batch: total
/// events and wall time, overall delivery rate, the worst peak queue, and
/// (where measured) the worst peak RSS plus summed allocation traffic.
pub fn aggregate_profiles(replications: &[Replication]) -> EngineProfile {
    let events: u64 = replications
        .iter()
        .map(|r| r.output.profile.events_delivered)
        .sum();
    let wall: f64 = replications
        .iter()
        .map(|r| r.output.profile.wall_seconds)
        .sum();
    let peak = replications
        .iter()
        .map(|r| r.output.profile.peak_queue_len)
        .max()
        .unwrap_or(0);
    let mut agg = EngineProfile::new(events, wall, peak as usize);
    agg.peak_rss_bytes = replications
        .iter()
        .filter_map(|r| r.output.profile.peak_rss_bytes)
        .max();
    let sum_opt = |f: fn(&EngineProfile) -> Option<u64>| {
        replications
            .iter()
            .filter_map(|r| f(&r.output.profile))
            .fold(None, |acc: Option<u64>, v| Some(acc.unwrap_or(0) + v))
    };
    agg.allocations = sum_opt(|p| p.allocations);
    agg.allocated_bytes = sum_opt(|p| p.allocated_bytes);
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn tiny() -> Scenario {
        let mut cfg = ScenarioConfig::baseline(30, 2);
        cfg.sites[0].batch_nodes = 32;
        cfg.sites[1].batch_nodes = 32;
        cfg.sites[2].batch_nodes = 16;
        cfg.build()
    }

    /// Every deterministic field of two replications must match; the stats
    /// reports are compared field by field so a mismatch names its path.
    fn assert_same_replication(a: &Replication, b: &Replication, label: &str) {
        assert_eq!((a.index, a.seed), (b.index, b.seed), "{label}: order");
        let (a, b) = (&a.output, &b.output);
        assert_eq!(a.events_delivered, b.events_delivered, "{label}: events");
        assert_eq!(a.end, b.end, "{label}: end time");
        assert_eq!(a.truth, b.truth, "{label}: truth");
        assert_eq!(a.db.jobs, b.db.jobs, "{label}: job records");
        assert_eq!(a.db.transfers, b.db.transfers, "{label}: transfers");
        assert_eq!(a.db.sessions, b.db.sessions, "{label}: sessions");
        assert_eq!(a.db.gateway_attrs, b.db.gateway_attrs, "{label}: gateway");
        assert_eq!(a.db.rc_placements, b.db.rc_placements, "{label}: rc");
        assert_eq!(a.samples, b.samples, "{label}: samples");
        assert_eq!(a.site_stats, b.site_stats, "{label}: site stats");
        assert_eq!(a.fault_report, b.fault_report, "{label}: fault report");
        assert_eq!(a.data_report, b.data_report, "{label}: data report");
        let (sa, sb) = (a.stats.as_ref(), b.stats.as_ref());
        let sa = sa.unwrap_or_else(|| panic!("{label}: live stats on"));
        let sb = sb.unwrap_or_else(|| panic!("{label}: live stats on"));
        if let Some(d) = sa.first_divergence(sb) {
            panic!("{label}: stats diverge at {d}");
        }
    }

    /// A site outage with no notice under the default retry policy: the
    /// kill → requeue path, on machines small enough to queue.
    fn faulted() -> Scenario {
        let mut cfg = ScenarioConfig::baseline(120, 6);
        for s in &mut cfg.sites {
            s.batch_nodes = (s.batch_nodes / 4).max(16);
        }
        cfg.faults = Some(crate::FaultSpec {
            site_outages: vec![crate::OutageWindow {
                site: 1,
                start_hours: 30.0,
                duration_hours: 12.0,
                notice_hours: 0.0,
            }],
            retry: Some(tg_sched::RetryPolicy::default()),
            ..crate::FaultSpec::default()
        });
        cfg.build()
    }

    /// Replication parallelism never changes a byte: thread counts are
    /// passed explicitly, so the check is the same on every host.
    #[test]
    fn parallel_equals_sequential() {
        let cases = [
            ("tiny", tiny(), 100),
            ("faulted", faulted(), 4242),
            ("datagrid", ScenarioConfig::datagrid(120, 7).build(), 100),
        ];
        for (name, scenario, seed) in &cases {
            let run = |threads: usize| {
                let opts = RunOptions {
                    live_stats: true,
                    threads,
                    ..RunOptions::default()
                };
                replicate_with(scenario, *seed, 4, &opts)
            };
            let seq = run(1);
            assert_eq!(seq.len(), 4);
            if *name == "faulted" {
                let fr = seq[0].output.fault_report.as_ref().expect("faults ran");
                assert!(fr.jobs_killed > 0, "outage killed running work: {fr:?}");
                let stats = seq[0].output.stats.as_ref().expect("live stats on");
                assert!(stats.spans.by_kind.contains_key("requeue"));
            }
            for threads in [2, 4] {
                let par = run(threads);
                assert_eq!(par.len(), 4);
                for (a, b) in par.iter().zip(&seq) {
                    assert_same_replication(a, b, &format!("{name} threads={threads}"));
                }
            }
        }
    }

    #[test]
    fn seeds_are_consecutive_and_outputs_ordered() {
        let s = tiny();
        let reps = replicate(&s, 7, 3, 0);
        let seeds: Vec<u64> = reps.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![7, 8, 9]);
        let idx: Vec<usize> = reps.iter().map(|r| r.index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn replicate_with_metrics_collects_everywhere() {
        let s = tiny();
        let opts = RunOptions {
            threads: 2,
            ..RunOptions::with_metrics()
        };
        let reps = replicate_with(&s, 5, 2, &opts);
        assert_eq!(reps.len(), 2);
        for r in &reps {
            let snap = r.output.metrics.as_ref().expect("metrics on");
            assert_eq!(
                snap.counter_sum("completed.site."),
                r.output.db.jobs.len() as u64
            );
        }
        // Identical to an unobserved batch.
        let plain = replicate(&s, 5, 2, 2);
        for (a, b) in reps.iter().zip(&plain) {
            assert_eq!(a.output.db.jobs, b.output.db.jobs);
            assert!(b.output.metrics.is_none());
        }
        let agg = aggregate_profiles(&reps);
        assert_eq!(
            agg.events_delivered,
            reps.iter().map(|r| r.output.events_delivered).sum::<u64>()
        );
        assert!(agg.peak_queue_len > 0);
    }

    #[test]
    fn summarize_produces_ci() {
        let s = tiny();
        let reps = replicate(&s, 1, 3, 0);
        let (mean, hw) = summarize(&reps, |o| o.db.jobs.len() as f64);
        assert!(mean > 0.0);
        assert!(hw >= 0.0);
    }
}
