//! F3 — Queue wait by job-size class under FCFS vs EASY vs conservative
//! backfill, single site at high offered load.
//!
//! Expected shape: EASY ≤ conservative ≪ FCFS for small/short jobs; waits
//! for the largest class are similar across policies (backfilling helps the
//! narrow, not the wide).

use serde::Serialize;
use tg_bench::{
    calibrated_users, save_json, single_site_config, trace_scratch_path, wait_crosscheck, Table,
    WaitCrossCheck,
};
use tg_core::{replicate_with, Modality, RunOptions};
use tg_des::stats::exact_quantile;
use tg_sched::SchedulerKind;

const SIZE_CLASSES: [(usize, usize, &str); 4] = [
    (1, 8, "1-8"),
    (9, 64, "9-64"),
    (65, 512, "65-512"),
    (513, usize::MAX, ">512"),
];

#[derive(Serialize)]
struct SchedResult {
    scheduler: String,
    utilization: f64,
    mean_wait_s: Vec<f64>, // per size class
    p95_wait_s: Vec<f64>,
    mean_bounded_slowdown: f64,
    /// Span-analyzer reconstruction of replication 0's mean wait from its
    /// JSONL trace, vs the accounting database.
    trace_crosscheck: WaitCrossCheck,
}

#[derive(Serialize)]
struct F3Output {
    cores: usize,
    target_load: f64,
    days: u64,
    replications: usize,
    results: Vec<SchedResult>,
}

fn main() {
    let nodes = 256;
    let cpn = 8;
    let cores = nodes * cpn;
    let days = 21;
    let target_load = 0.8;
    let batch_profile = tg_workload::ModalityProfile::default_for(Modality::BatchComputing);
    let batch_users = calibrated_users(&batch_profile, cores, target_load * 0.85);
    let interactive_users = 20; // a small-short stream for backfill to chew on

    let mut results = Vec::new();
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::Easy,
        SchedulerKind::Conservative,
    ] {
        let cfg = single_site_config(
            "f3",
            nodes,
            cpn,
            0,
            0,
            days,
            &[
                (Modality::BatchComputing, batch_users),
                (Modality::Interactive, interactive_users),
            ],
            kind,
        );
        let trace_path = trace_scratch_path(&format!("exp_f3_{}", kind.name()));
        let opts = RunOptions {
            metrics: false,
            trace_path: Some(trace_path.clone()),
            ..RunOptions::default()
        };
        let reps = replicate_with(&cfg.build(), 5000, 3, &opts);
        let xcheck = wait_crosscheck(&trace_path, &reps[0].output);
        let _ = std::fs::remove_file(&trace_path);
        assert!(
            xcheck.agrees_within(0.01),
            "{}: analyzer mean wait {:.3}s disagrees with accounting {:.3}s (rel {:.4})",
            kind.name(),
            xcheck.analyzer_mean_wait_s,
            xcheck.db_mean_wait_s,
            xcheck.rel_err
        );
        // Pool waits across replications per size class.
        let mut waits: Vec<Vec<f64>> = vec![Vec::new(); SIZE_CLASSES.len()];
        let mut slowdowns = Vec::new();
        let mut utils = Vec::new();
        for r in &reps {
            for j in &r.output.db.jobs {
                let class = SIZE_CLASSES
                    .iter()
                    .position(|&(lo, hi, _)| j.cores >= lo && j.cores <= hi)
                    .expect("class covers all sizes");
                waits[class].push(j.wait().as_secs_f64());
                slowdowns.push(j.bounded_slowdown());
            }
            utils.push(r.output.average_utilization());
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let mut mean_wait = Vec::new();
        let mut p95_wait = Vec::new();
        for class in &mut waits {
            class.sort_by(|a, b| a.partial_cmp(b).unwrap());
            mean_wait.push(mean(class));
            p95_wait.push(exact_quantile(class, 0.95).unwrap_or(0.0));
        }
        results.push(SchedResult {
            scheduler: kind.name().to_string(),
            utilization: mean(&utils),
            mean_wait_s: mean_wait,
            p95_wait_s: p95_wait,
            mean_bounded_slowdown: mean(&slowdowns),
            trace_crosscheck: xcheck,
        });
    }

    let mut table = Table::new(
        format!("F3: mean queue wait (s) by job-size class, {cores} cores, load {target_load}"),
        &[
            "scheduler",
            "util",
            "1-8",
            "9-64",
            "65-512",
            ">512",
            "slowdown",
        ],
    );
    for r in &results {
        table.row(vec![
            r.scheduler.clone(),
            format!("{:.2}", r.utilization),
            format!("{:.0}", r.mean_wait_s[0]),
            format!("{:.0}", r.mean_wait_s[1]),
            format!("{:.0}", r.mean_wait_s[2]),
            format!("{:.0}", r.mean_wait_s[3]),
            format!("{:.1}", r.mean_bounded_slowdown),
        ]);
    }
    println!("{table}");

    let mut p95 = Table::new(
        "F3b: P95 queue wait (s) by job-size class",
        &["scheduler", "1-8", "9-64", "65-512", ">512"],
    );
    for r in &results {
        p95.row(vec![
            r.scheduler.clone(),
            format!("{:.0}", r.p95_wait_s[0]),
            format!("{:.0}", r.p95_wait_s[1]),
            format!("{:.0}", r.p95_wait_s[2]),
            format!("{:.0}", r.p95_wait_s[3]),
        ]);
    }
    println!("{p95}");

    for r in &results {
        println!(
            "trace cross-check [{}]: analyzer {:.1}s vs accounting {:.1}s (rel err {:.5})",
            r.scheduler,
            r.trace_crosscheck.analyzer_mean_wait_s,
            r.trace_crosscheck.db_mean_wait_s,
            r.trace_crosscheck.rel_err
        );
    }

    println!(
        "small-job speedup: FCFS {:.0}s → EASY {:.0}s ({:.1}×)",
        results[0].mean_wait_s[0],
        results[1].mean_wait_s[0],
        results[0].mean_wait_s[0] / results[1].mean_wait_s[0].max(1.0)
    );

    save_json(
        "exp_f3_wait_by_sched",
        &F3Output {
            cores,
            target_load,
            days,
            replications: 3,
            results,
        },
    );
}
