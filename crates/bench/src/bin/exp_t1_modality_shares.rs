//! T1 — Modality taxonomy × measurement-mechanism matrix, plus measured
//! usage shares (accounts / jobs / NUs) per modality on the baseline
//! scenario.
//!
//! Expected shape: science gateways dominate *account* counts (well, user
//! counts — we also print the ground-truth population), batch computing
//! dominates *NUs*; shares sum to one.

use serde::Serialize;
use tg_bench::{save_json, Table};
use tg_core::report::UsageReport;
use tg_core::{
    aggregate_profiles, replicate_with, MetricsSnapshot, Modality, RunOptions, ScenarioConfig,
};
use tg_des::SimDuration;

#[derive(Serialize)]
struct T1Output {
    scenario: String,
    replications: usize,
    taxonomy: Vec<(String, String)>,
    accounts: Vec<u64>,
    population_users: Vec<usize>,
    jobs: Vec<u64>,
    nus: Vec<f64>,
    nu_share: Vec<f64>,
    job_share: Vec<f64>,
    metrics: Option<MetricsSnapshot>,
}

fn main() {
    let users = 500;
    let days = 45;
    let mut cfg = ScenarioConfig::baseline(users, days);
    cfg.sample_interval = Some(SimDuration::from_hours(6));
    let population = cfg.workload.mix.users_per_modality;
    let scenario = cfg.build();
    let reps = replicate_with(&scenario, 1000, 3, &RunOptions::with_metrics());

    // Report on the first replication; use all for the share stability note.
    let out = &reps[0].output;
    let report = UsageReport::compute(&out.db, &out.truth, &out.charge_policy);

    let mut tax = Table::new(
        "T1a: usage-modality taxonomy and measurement mechanisms",
        &["modality", "measured by"],
    );
    for (name, mech) in &report.taxonomy {
        tax.row(vec![name.clone(), mech.clone()]);
    }
    println!("{tax}");

    let mut shares = Table::new(
        format!("T1b: usage shares, baseline ({users} users, {days} days, ground truth)"),
        &[
            "modality", "users", "accounts", "jobs", "NUs", "job%", "NU%",
        ],
    );
    let s = &report.shares;
    for m in Modality::ALL {
        let i = m.index();
        shares.row(vec![
            m.name().into(),
            population[i].to_string(),
            s.accounts[i].to_string(),
            s.jobs[i].to_string(),
            format!("{:.0}", s.nus[i]),
            format!("{:.1}%", 100.0 * s.job_share(m)),
            format!("{:.1}%", 100.0 * s.nu_share(m)),
        ]);
    }
    println!("{shares}");

    // Headline checks the text report asserts.
    let gw_users = population[Modality::ScienceGateway.index()];
    let batch_users = population[Modality::BatchComputing.index()];
    println!(
        "gateway users ({gw_users}) > batch users ({batch_users}): {}",
        gw_users > batch_users
    );
    println!(
        "batch NU share {:.1}% > gateway NU share {:.1}%: {}",
        100.0 * s.nu_share(Modality::BatchComputing),
        100.0 * s.nu_share(Modality::ScienceGateway),
        s.nu_share(Modality::BatchComputing) > s.nu_share(Modality::ScienceGateway)
    );
    println!(
        "gateway accounts collapse to {} community account(s) in records",
        s.accounts[Modality::ScienceGateway.index()]
    );

    // Cross-check the run-level metrics against the accounting database and
    // surface the engine profile for the batch.
    let snap = out.metrics.as_ref().expect("metrics requested");
    assert_eq!(
        snap.counter_sum("completed.site."),
        out.db.jobs.len() as u64
    );
    assert_eq!(
        snap.counter_sum("completed.modality."),
        out.db.jobs.len() as u64
    );
    let agg = aggregate_profiles(&reps);
    println!(
        "engine: {} events in {:.3}s wall ({:.0} events/s), peak queue {}",
        agg.events_delivered, agg.wall_seconds, agg.events_per_sec, agg.peak_queue_len
    );

    save_json(
        "exp_t1_modality_shares",
        &T1Output {
            scenario: out.scenario.clone(),
            replications: reps.len(),
            taxonomy: report.taxonomy.clone(),
            accounts: s.accounts.clone(),
            population_users: population.to_vec(),
            jobs: s.jobs.clone(),
            nus: s.nus.clone(),
            nu_share: Modality::ALL.iter().map(|&m| s.nu_share(m)).collect(),
            job_share: Modality::ALL.iter().map(|&m| s.job_share(m)).collect(),
            metrics: out.metrics.clone(),
        },
    );
}
