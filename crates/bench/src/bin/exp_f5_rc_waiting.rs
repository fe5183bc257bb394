//! F5 — Average RC-task waiting time vs number of reconfigurable nodes,
//! RC-aware vs RC-blind scheduling.
//!
//! "Waiting" for an RC task is everything between submission and execution
//! start: deferral while the fabric is full plus the setup pipeline
//! (bitstream fetch over the WAN + 15 s fabric reconfiguration). The
//! offered load is fixed — sized to ~70% of a 16-node partition — so small
//! partitions are overloaded and large ones are slack.
//!
//! Expected shape: waits fall steeply with partition size for both
//! policies; RC-aware sits below RC-blind at every size because reuse
//! skips the setup pipeline, and the absolute gap shrinks as the partition
//! grows slack.

use serde::Serialize;
use tg_bench::{
    rc_only_config, rc_tasks_per_day_for_load, save_json, synthetic_library, trace_scratch_path,
    wait_crosscheck, Table, WaitCrossCheck,
};
use tg_core::{replicate_with, RunOptions};
use tg_des::SimDuration;
use tg_sched::RcPolicy;

#[derive(Serialize)]
struct F5Point {
    nodes: usize,
    policy: String,
    mean_wait_s: f64,
    ci: f64,
    mean_turnaround_s: f64,
    reuse_fraction: f64,
    hw_fraction: f64,
    /// Span-analyzer reconstruction of replication 0's mean wait from its
    /// JSONL trace, vs the accounting database.
    trace_crosscheck: WaitCrossCheck,
}

fn main() {
    let days = 2;
    let tasks_per_day = rc_tasks_per_day_for_load(16, 8, 0.7);
    let mut points = Vec::new();
    for nodes in [4, 8, 16, 32, 64] {
        for policy in [RcPolicy::AWARE, RcPolicy::BLIND] {
            let mut cfg = rc_only_config(nodes, 8, tasks_per_day, days, 12);
            cfg.rc_policy = policy;
            cfg.library = Some(synthetic_library(12, SimDuration::from_secs(15), 1.0));
            cfg.name = format!("f5-{nodes}n-{}", policy.name());
            let trace_path = trace_scratch_path(&format!("exp_f5_{nodes}n_{}", policy.name()));
            let opts = RunOptions {
                metrics: false,
                trace_path: Some(trace_path.clone()),
                ..RunOptions::default()
            };
            let reps = replicate_with(&cfg.build(), 8000, 3, &opts);
            let xcheck = wait_crosscheck(&trace_path, &reps[0].output);
            let _ = std::fs::remove_file(&trace_path);
            assert!(
                xcheck.agrees_within(0.01),
                "{nodes}n/{}: analyzer mean wait {:.3}s disagrees with accounting {:.3}s (rel {:.4})",
                policy.name(),
                xcheck.analyzer_mean_wait_s,
                xcheck.db_mean_wait_s,
                xcheck.rel_err
            );
            let mut waits = Vec::new();
            let mut turns = Vec::new();
            let mut reuse_frac = Vec::new();
            let mut hw_frac = Vec::new();
            for r in &reps {
                let jobs = &r.output.db.jobs;
                waits.push(
                    jobs.iter().map(|j| j.wait().as_secs_f64()).sum::<f64>() / jobs.len() as f64,
                );
                turns.push(
                    jobs.iter()
                        .map(|j| j.end.saturating_since(j.submit).as_secs_f64())
                        .sum::<f64>()
                        / jobs.len() as f64,
                );
                let stats = r.output.site_stats[1].rc_stats;
                let placements = (stats.reuses + stats.reconfigs).max(1);
                reuse_frac.push(stats.reuses as f64 / placements as f64);
                hw_frac.push(jobs.iter().filter(|j| j.used_hw).count() as f64 / jobs.len() as f64);
            }
            let (mean_wait, ci) = tg_des::stats::ci_student_t(&waits);
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            points.push(F5Point {
                nodes,
                policy: policy.name().to_string(),
                mean_wait_s: mean_wait,
                ci,
                mean_turnaround_s: mean(&turns),
                reuse_fraction: mean(&reuse_frac),
                hw_fraction: mean(&hw_frac),
                trace_crosscheck: xcheck,
            });
        }
    }

    let mut table = Table::new(
        format!(
            "F5: RC-task mean wait (s) vs partition size ({tasks_per_day:.0} tasks/day offered)"
        ),
        &[
            "nodes",
            "policy",
            "mean wait",
            "turnaround",
            "reuse%",
            "hw%",
        ],
    );
    for p in &points {
        table.row(vec![
            p.nodes.to_string(),
            p.policy.clone(),
            format!("{:.1} ± {:.1}", p.mean_wait_s, p.ci),
            format!("{:.0}", p.mean_turnaround_s),
            format!("{:.0}%", 100.0 * p.reuse_fraction),
            format!("{:.0}%", 100.0 * p.hw_fraction),
        ]);
    }
    println!("{table}");

    let worst = points
        .iter()
        .map(|p| p.trace_crosscheck.rel_err)
        .fold(0.0f64, f64::max);
    println!(
        "trace cross-check: analyzer mean wait agrees with accounting at all {} points \
         (worst rel err {worst:.5})",
        points.len()
    );

    let aware: Vec<&F5Point> = points.iter().filter(|p| p.policy == "rc-aware").collect();
    let blind: Vec<&F5Point> = points.iter().filter(|p| p.policy == "rc-blind").collect();
    let wins = aware
        .iter()
        .zip(&blind)
        .filter(|(a, b)| a.mean_wait_s <= b.mean_wait_s)
        .count();
    println!(
        "rc-aware wins at {wins}/{} sizes; gap {:.1}s at 16 nodes, {:.1}s at 64 nodes",
        aware.len(),
        blind[2].mean_wait_s - aware[2].mean_wait_s,
        blind[4].mean_wait_s - aware[4].mean_wait_s,
    );

    save_json("exp_f5_rc_waiting", &points);
}
