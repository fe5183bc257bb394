//! A2 (ablation) — pre-drain filling on/off under the weekly-drain policy.
//!
//! The drain wall is a full-machine reservation; the question is whether
//! the scheduler keeps packing estimate-bounded jobs underneath it
//! (weekly-drain) or idles the machine until the wall (naive-drain).
//!
//! Expected shape: filling recovers most of the pre-drain idle time —
//! several utilization points per armed week — with identical hero service.

use serde::Serialize;
use tg_bench::{calibrated_users, save_json, single_site_config, Table};
use tg_core::{replicate_with, Modality, RunOptions};
use tg_sched::SchedulerKind;
use tg_workload::ModalityProfile;

#[derive(Serialize)]
struct A2Result {
    scheduler: String,
    utilization: f64,
    ci: f64,
    normal_mean_wait_s: f64,
    hero_mean_wait_h: f64,
    backfills: u64,
    drains: u64,
}

fn main() {
    let nodes = 256;
    let cores = nodes * 8;
    let days = 28;
    let profile = ModalityProfile::default_for(Modality::BatchComputing);
    let users = calibrated_users(&profile, cores, 0.75);
    let hero_threshold = (cores as f64 * 0.9) as usize;

    let mut results = Vec::new();
    for kind in [SchedulerKind::WeeklyDrain, SchedulerKind::NaiveDrain] {
        let cfg = single_site_config(
            "a2",
            nodes,
            8,
            0,
            0,
            days,
            &[(Modality::BatchComputing, users)],
            kind,
        );
        let reps = replicate_with(&cfg.build(), 15_000, 3, &RunOptions::with_metrics());
        let mut utils = Vec::new();
        let mut normal_waits = Vec::new();
        let mut hero_waits = Vec::new();
        for r in &reps {
            utils.push(r.output.average_utilization());
            let (heroes, normal): (Vec<_>, Vec<_>) = r
                .output
                .db
                .jobs
                .iter()
                .partition(|j| j.cores >= hero_threshold);
            normal_waits.push(
                normal.iter().map(|j| j.wait().as_secs_f64()).sum::<f64>()
                    / normal.len().max(1) as f64,
            );
            if !heroes.is_empty() {
                hero_waits.push(
                    heroes.iter().map(|j| j.wait().as_hours_f64()).sum::<f64>()
                        / heroes.len() as f64,
                );
            }
        }
        let (util, ci) = tg_des::stats::ci_student_t(&utils);
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        // Scheduler-internal counters surface through the metrics snapshot:
        // the weekly-drain policy both backfills under the wall and completes
        // drains; naive draining does neither.
        let backfills = mean(
            &reps
                .iter()
                .map(|r| {
                    r.output
                        .metrics
                        .as_ref()
                        .expect("metrics requested")
                        .counter_sum("sched.backfills.") as f64
                })
                .collect::<Vec<_>>(),
        )
        .round() as u64;
        let drains = mean(
            &reps
                .iter()
                .map(|r| {
                    r.output
                        .metrics
                        .as_ref()
                        .expect("metrics requested")
                        .counter_sum("sched.drains.") as f64
                })
                .collect::<Vec<_>>(),
        )
        .round() as u64;
        results.push(A2Result {
            scheduler: kind.name().to_string(),
            utilization: util,
            ci,
            normal_mean_wait_s: mean(&normal_waits),
            hero_mean_wait_h: mean(&hero_waits),
            backfills,
            drains,
        });
    }

    let mut table = Table::new(
        "A2: pre-drain filling ablation (weekly drain, hero jobs present)",
        &[
            "scheduler",
            "utilization",
            "normal wait (s)",
            "hero wait (h)",
            "backfills",
            "drains",
        ],
    );
    for r in &results {
        table.row(vec![
            r.scheduler.clone(),
            format!("{:.3} ± {:.3}", r.utilization, r.ci),
            format!("{:.0}", r.normal_mean_wait_s),
            format!("{:.1}", r.hero_mean_wait_h),
            r.backfills.to_string(),
            r.drains.to_string(),
        ]);
    }
    println!("{table}");

    println!(
        "filling recovers {:+.1} utilization points over naive draining",
        100.0 * (results[0].utilization - results[1].utilization)
    );

    save_json("exp_a2_drain_backfill", &results);
}
