//! R2 — Queue-wait and utilization damage from site outages, per scheduler.
//!
//! The F3 single-site testbed (high offered load, batch + interactive mix)
//! rerun under a fault schedule: a 12-hour announced outage on day 4 (two
//! hours of drain notice) and an unannounced 6-hour outage on day 10.
//! Killed work requeues with exponential backoff. For FCFS, EASY, and
//! conservative backfill the binary reports healthy vs faulted mean/P95
//! wait and utilization, plus the kill/requeue counts from the
//! `FaultReport` — the per-scheduler deltas are the deliverable.
//!
//! Expected shape: waits climb under faults for every scheduler, with the
//! backfilling schedulers absorbing the post-outage backlog burst better
//! than FCFS at P95. Measured *utilization* ticks up slightly: killed jobs
//! rerun from scratch, so the lost partial executions and the reruns both
//! count as busy time — wasted work masquerades as load, which is itself a
//! finding about reading utilization dashboards during incident recovery.

use serde::Serialize;
use tg_bench::{calibrated_users, save_json, single_site_config, Table};
use tg_core::{replicate_with, FaultSpec, Modality, OutageWindow, RunOptions, ScenarioConfig};
use tg_des::stats::exact_quantile;
use tg_sched::SchedulerKind;

const DAYS: u64 = 21;
const REPS: usize = 3;

#[derive(Serialize)]
struct Condition {
    faulted: bool,
    mean_wait_s: f64,
    p95_wait_s: f64,
    utilization: f64,
    jobs_recorded: usize,
    jobs_killed: u64,
    jobs_requeued: u64,
    jobs_abandoned: u64,
}

#[derive(Serialize)]
struct SchedResult {
    scheduler: String,
    healthy: Condition,
    faulted: Condition,
    mean_wait_delta_s: f64,
    p95_wait_delta_s: f64,
    utilization_delta: f64,
}

#[derive(Serialize)]
struct R2Output {
    cores: usize,
    days: u64,
    replications: usize,
    outages: Vec<OutageWindow>,
    results: Vec<SchedResult>,
}

fn outage_spec() -> FaultSpec {
    FaultSpec {
        site_outages: vec![
            OutageWindow {
                site: 0,
                start_hours: 96.0,
                duration_hours: 12.0,
                notice_hours: 2.0,
            },
            OutageWindow {
                site: 0,
                start_hours: 240.0,
                duration_hours: 6.0,
                notice_hours: 0.0,
            },
        ],
        ..FaultSpec::default()
    }
}

fn measure(cfg: &ScenarioConfig, faulted: bool) -> Condition {
    let reps = replicate_with(&cfg.clone().build(), 5000, REPS, &RunOptions::default());
    let mut waits = Vec::new();
    let mut utils = Vec::new();
    let mut jobs = 0usize;
    let (mut killed, mut requeued, mut abandoned) = (0u64, 0u64, 0u64);
    for r in &reps {
        for j in &r.output.db.jobs {
            waits.push(j.wait().as_secs_f64());
        }
        jobs += r.output.db.jobs.len();
        utils.push(r.output.average_utilization());
        if let Some(fr) = &r.output.fault_report {
            killed += fr.jobs_killed;
            requeued += fr.jobs_requeued;
            abandoned += fr.jobs_abandoned;
        }
    }
    waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / (v.len() as f64).max(1.0);
    Condition {
        faulted,
        mean_wait_s: mean(&waits),
        p95_wait_s: exact_quantile(&waits, 0.95).unwrap_or(0.0),
        utilization: mean(&utils),
        jobs_recorded: jobs,
        jobs_killed: killed,
        jobs_requeued: requeued,
        jobs_abandoned: abandoned,
    }
}

fn main() {
    let nodes = 256;
    let cpn = 8;
    let cores = nodes * cpn;
    let target_load = 0.8;
    let batch_profile = tg_workload::ModalityProfile::default_for(Modality::BatchComputing);
    let batch_users = calibrated_users(&batch_profile, cores, target_load * 0.85);
    let interactive_users = 20;

    let mut results = Vec::new();
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::Easy,
        SchedulerKind::Conservative,
    ] {
        let cfg = single_site_config(
            "r2",
            nodes,
            cpn,
            0,
            0,
            DAYS,
            &[
                (Modality::BatchComputing, batch_users),
                (Modality::Interactive, interactive_users),
            ],
            kind,
        );
        let healthy = measure(&cfg, false);
        let mut faulted_cfg = cfg;
        faulted_cfg.faults = Some(outage_spec());
        let faulted = measure(&faulted_cfg, true);
        assert!(
            faulted.jobs_killed + faulted.jobs_requeued > 0,
            "{}: the outage schedule must actually kill running work",
            kind.name()
        );
        results.push(SchedResult {
            scheduler: kind.name().to_string(),
            mean_wait_delta_s: faulted.mean_wait_s - healthy.mean_wait_s,
            p95_wait_delta_s: faulted.p95_wait_s - healthy.p95_wait_s,
            utilization_delta: faulted.utilization - healthy.utilization,
            healthy,
            faulted,
        });
    }

    let mut table = Table::new(
        format!("R2: outage damage per scheduler, {cores} cores, load {target_load}, {DAYS}d"),
        &[
            "scheduler",
            "wait(ok)",
            "wait(fault)",
            "p95(ok)",
            "p95(fault)",
            "util(ok)",
            "util(fault)",
            "killed",
        ],
    );
    for r in &results {
        table.row(vec![
            r.scheduler.clone(),
            format!("{:.0}s", r.healthy.mean_wait_s),
            format!("{:.0}s", r.faulted.mean_wait_s),
            format!("{:.0}s", r.healthy.p95_wait_s),
            format!("{:.0}s", r.faulted.p95_wait_s),
            format!("{:.3}", r.healthy.utilization),
            format!("{:.3}", r.faulted.utilization),
            format!("{}", r.faulted.jobs_killed),
        ]);
    }
    println!("{table}");

    for r in &results {
        println!(
            "{:<14} Δmean {:+.0}s  Δp95 {:+.0}s  Δutil {:+.4}  ({} killed, {} requeued, {} abandoned over {REPS} reps)",
            r.scheduler,
            r.mean_wait_delta_s,
            r.p95_wait_delta_s,
            r.utilization_delta,
            r.faulted.jobs_killed,
            r.faulted.jobs_requeued,
            r.faulted.jobs_abandoned,
        );
    }

    save_json(
        "exp_r2_outage_waits",
        &R2Output {
            cores,
            days: DAYS,
            replications: REPS,
            outages: outage_spec().site_outages,
            results,
        },
    );
}
