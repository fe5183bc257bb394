//! Differential property tests for the modality classifier: the indexed
//! `user_summaries` / `classify_with` must agree exactly with the scan-based
//! implementations they replaced, kept below as the oracle. "Exactly" means
//! the same `HashMap<JobId, Modality>` and `UserSummary`s equal under
//! `PartialEq`, which compares every f64 field bit for bit (up to the sign
//! of zero), so the per-user grouping must add the same terms in the same
//! order as the oracle's scans.
//!
//! The random databases cover the cases an index could get wrong:
//! duplicated gateway attributes and RC placements (a duplicating ingest),
//! attributes for job ids that have no job record, and accounts with
//! sessions or transfers but no jobs.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tg_accounting::query::{user_summaries, UserSummary};
use tg_accounting::{
    AccountingDb, GatewayAttribute, JobRecord, RcPlacementRecord, SessionRecord, TransferRecord,
};
use tg_core::classify::{classify_with, ClassifierMode, RuleThresholds};
use tg_des::{SimDuration, SimTime};
use tg_model::{ConfigId, NodeId, SiteId};
use tg_workload::{GatewayId, JobId, Modality, ProjectId, SubmitInterface, UserId};

// ---------------------------------------------------------------------------
// Oracle: the scan-based classifier, one linear scan per lookup.
// ---------------------------------------------------------------------------

fn oracle_user_summaries(db: &AccountingDb) -> Vec<UserSummary> {
    let mut by_user: BTreeMap<UserId, Vec<&JobRecord>> = BTreeMap::new();
    for j in &db.jobs {
        by_user.entry(j.user).or_default().push(j);
    }
    for s in &db.sessions {
        by_user.entry(s.user).or_default();
    }
    for t in &db.transfers {
        by_user.entry(t.user).or_default();
    }

    let mut out = Vec::with_capacity(by_user.len());
    for (user, mut jobs) in by_user {
        jobs.sort_by_key(|j| (j.submit, j.job));
        let n = jobs.len() as u64;
        let core_hours: f64 = jobs.iter().map(|j| j.core_hours()).sum();
        let mean_cores = if n > 0 {
            jobs.iter().map(|j| j.cores as f64).sum::<f64>() / n as f64
        } else {
            0.0
        };
        let max_cores = jobs.iter().map(|j| j.cores).max().unwrap_or(0);
        let mean_wall_hours = if n > 0 {
            jobs.iter().map(|j| j.wall().as_hours_f64()).sum::<f64>() / n as f64
        } else {
            0.0
        };
        let short_frac = frac(&jobs, |j| j.wall() < SimDuration::from_mins(30));
        let small_frac = frac(&jobs, |j| j.cores <= 8);

        let mut max_batch = 0u64;
        let mut batched_jobs = 0u64;
        let mut largest_batch_uniform = false;
        let mut i = 0;
        while i < jobs.len() {
            let t = jobs[i].submit;
            let mut k = i;
            while k < jobs.len() && jobs[k].submit == t {
                k += 1;
            }
            let run = (k - i) as u64;
            if run >= 5 {
                batched_jobs += run;
            }
            if run > max_batch {
                max_batch = run;
                let first_cores = jobs[i].cores;
                largest_batch_uniform = jobs[i..k].iter().all(|j| j.cores == first_cores);
            }
            i = k;
        }
        let batched_frac = if n > 0 {
            batched_jobs as f64 / n as f64
        } else {
            0.0
        };

        let span_days = if n > 0 {
            let first = jobs.first().expect("n>0").submit;
            let last = jobs.iter().map(|j| j.end).max().expect("n>0");
            (last.saturating_since(first).as_days_f64()).max(1.0)
        } else {
            1.0
        };

        let gateway_jobs = jobs
            .iter()
            .filter(|j| db.gateway_attrs.iter().any(|a| a.job == j.job))
            .count() as u64;
        let engine_jobs = jobs
            .iter()
            .filter(|j| j.interface == SubmitInterface::WorkflowEngine)
            .count() as u64;
        let rc_jobs = jobs.iter().filter(|j| j.used_hw).count() as u64;

        let sessions: Vec<_> = db.sessions.iter().filter(|s| s.user == user).collect();
        let session_hours: f64 = sessions
            .iter()
            .map(|s| s.logout.saturating_since(s.login).as_hours_f64())
            .sum();
        let transfers: Vec<_> = db.transfers.iter().filter(|t| t.user == user).collect();
        let transfer_mb: f64 = transfers.iter().map(|t| t.mb).sum();

        out.push(UserSummary {
            user,
            jobs: n,
            core_hours,
            mean_cores,
            max_cores,
            mean_wall_hours,
            short_frac,
            small_frac,
            jobs_per_day: n as f64 / span_days,
            max_simultaneous_submits: max_batch,
            batched_frac,
            largest_batch_uniform,
            gateway_jobs,
            engine_jobs,
            rc_jobs,
            sessions: sessions.len() as u64,
            session_hours,
            transfers: transfers.len() as u64,
            transfer_mb,
        });
    }
    out
}

fn frac(jobs: &[&JobRecord], pred: impl Fn(&JobRecord) -> bool) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    jobs.iter().filter(|j| pred(j)).count() as f64 / jobs.len() as f64
}

fn oracle_classify(
    db: &AccountingDb,
    mode: ClassifierMode,
    t: &RuleThresholds,
) -> HashMap<JobId, Modality> {
    let summaries: HashMap<UserId, UserSummary> = oracle_user_summaries(db)
        .into_iter()
        .map(|s| (s.user, s))
        .collect();
    let mut batches: HashMap<(UserId, SimTime), (u64, usize, bool)> = HashMap::new();
    for j in &db.jobs {
        let e = batches
            .entry((j.user, j.submit))
            .or_insert((0, j.cores, true));
        e.0 += 1;
        if j.cores != e.1 {
            e.2 = false;
        }
    }

    let mut out = HashMap::with_capacity(db.jobs.len());
    for j in &db.jobs {
        let summary = &summaries[&j.user];
        let (batch_n, _, batch_uniform) = batches[&(j.user, j.submit)];
        let m = match mode {
            ClassifierMode::WithAttributes => {
                if db.rc_placements.iter().any(|p| p.job == j.job) || j.used_hw {
                    Modality::RcAccelerated
                } else if db.gateway_attrs.iter().any(|a| a.job == j.job) {
                    Modality::ScienceGateway
                } else if j.interface == SubmitInterface::WorkflowEngine {
                    Modality::Workflow
                } else {
                    oracle_shape_rules(j, summary, batch_n, batch_uniform, t)
                }
            }
            ClassifierMode::RecordsOnly => {
                if summary.jobs >= 30
                    && summary.jobs_per_day >= t.gateway_rate
                    && summary.small_frac > 0.5
                {
                    Modality::ScienceGateway
                } else {
                    oracle_shape_rules(j, summary, batch_n, batch_uniform, t)
                }
            }
        };
        out.insert(j.job, m);
    }
    out
}

fn oracle_shape_rules(
    j: &JobRecord,
    summary: &UserSummary,
    batch_n: u64,
    batch_uniform: bool,
    t: &RuleThresholds,
) -> Modality {
    if batch_n >= t.batch_size {
        return if batch_uniform {
            Modality::Ensemble
        } else {
            Modality::Workflow
        };
    }
    if summary.transfers > 0 {
        let mb_per_ch = summary.transfer_mb / summary.core_hours.max(1e-6);
        if mb_per_ch >= t.data_mb_per_core_hour {
            return Modality::DataMovement;
        }
    }
    if summary.sessions > 0 && j.wall() <= t.interactive_wall && j.cores <= t.interactive_cores {
        return Modality::Interactive;
    }
    Modality::BatchComputing
}

// ---------------------------------------------------------------------------
// Random accounting databases.
// ---------------------------------------------------------------------------

/// Accounts that submit jobs; sessions and transfers also name the two
/// accounts past this range, which have no jobs at all.
const JOB_USERS: usize = 4;
const CORES: [usize; 6] = [1, 2, 4, 8, 16, 64];
const INTERFACES: [SubmitInterface; 4] = [
    SubmitInterface::CommandLine,
    SubmitInterface::GatewayPortal,
    SubmitInterface::GridApi,
    SubmitInterface::WorkflowEngine,
];

/// One job: (user, submit slot, wall seconds, cores index, interface index,
/// used RC hardware). Few submit slots, so same-instant batches form.
type JobSpec = (usize, u64, u64, usize, usize, bool);

#[derive(Debug, Clone)]
struct DbSpec {
    jobs: Vec<JobSpec>,
    /// Job ids to attach a gateway attribute to. Record `i` has job id
    /// `2 i`, so odd ids (and ids past the last record) have no job.
    gateway: Vec<usize>,
    /// Job ids to attach an RC placement to, drawn the same way.
    rc: Vec<usize>,
    /// (user, login second, session seconds).
    sessions: Vec<(usize, u64, u64)>,
    /// (user, MB).
    transfers: Vec<(usize, f64)>,
    /// Ingest the first attributes and placements a second time.
    duplicate: bool,
}

fn arb_db() -> impl Strategy<Value = DbSpec> {
    let job = (
        0..JOB_USERS,
        0u64..8,
        30u64..200_000,
        0..CORES.len(),
        0..INTERFACES.len(),
        prop_oneof![Just(false), Just(false), Just(false), Just(true)],
    );
    (
        prop::collection::vec(job, 0..120),
        prop::collection::vec(0usize..250, 0..40),
        prop::collection::vec(0usize..250, 0..12),
        prop::collection::vec((0..JOB_USERS + 2, 0u64..500_000, 0u64..20_000), 0..16),
        prop::collection::vec((0..JOB_USERS + 2, 0.0f64..200_000.0), 0..16),
        any::<bool>(),
    )
        .prop_map(
            |(jobs, gateway, rc, sessions, transfers, duplicate)| DbSpec {
                jobs,
                gateway,
                rc,
                sessions,
                transfers,
                duplicate,
            },
        )
}

fn arb_thresholds() -> impl Strategy<Value = RuleThresholds> {
    (
        2u64..9,
        0.5f64..30.0,
        300u64..10_800,
        1usize..33,
        1.0f64..5_000.0,
    )
        .prop_map(
            |(batch_size, gateway_rate, wall_s, interactive_cores, data_mb_per_core_hour)| {
                RuleThresholds {
                    batch_size,
                    gateway_rate,
                    interactive_wall: SimDuration::from_secs(wall_s),
                    interactive_cores,
                    data_mb_per_core_hour,
                }
            },
        )
}

fn build_db(spec: &DbSpec) -> AccountingDb {
    let mut db = AccountingDb::new();
    for (i, &(user, slot, wall_s, cores, interface, used_hw)) in spec.jobs.iter().enumerate() {
        let submit = slot * 3_600;
        db.add_job(JobRecord {
            job: JobId(2 * i),
            user: UserId(user),
            project: ProjectId(0),
            site: SiteId(0),
            submit: SimTime::from_secs(submit),
            start: SimTime::from_secs(submit + 60),
            end: SimTime::from_secs(submit + 60 + wall_s),
            cores: CORES[cores],
            interface: INTERFACES[interface],
            used_hw,
            input_mb: 0.0,
            output_mb: 0.0,
        });
    }
    for &job in &spec.gateway {
        db.add_gateway_attr(GatewayAttribute {
            gateway: GatewayId(job % 3),
            job: JobId(job),
            end_user: job as u64,
        });
    }
    for &job in &spec.rc {
        db.add_rc_placement(RcPlacementRecord {
            job: JobId(job),
            site: SiteId(0),
            node: NodeId(0),
            config: ConfigId(0),
            reused: job % 2 == 0,
            transfer: SimDuration::ZERO,
            reconfig: SimDuration::from_millis(100),
            deadline_met: None,
        });
    }
    if spec.duplicate {
        let (g, r) = (db.gateway_attrs.len() / 2, db.rc_placements.len() / 2);
        db.gateway_attrs.extend_from_within(..g);
        db.rc_placements.extend_from_within(..r);
    }
    for &(user, login, secs) in &spec.sessions {
        db.add_session(SessionRecord {
            user: UserId(user),
            site: SiteId(0),
            login: SimTime::from_secs(login),
            logout: SimTime::from_secs(login + secs),
        });
    }
    for &(user, mb) in &spec.transfers {
        db.add_transfer(TransferRecord {
            user: UserId(user),
            project: ProjectId(0),
            src: SiteId(0),
            dst: SiteId(1),
            mb,
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
        });
    }
    db
}

const MODES: [ClassifierMode; 2] = [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        ..ProptestConfig::default()
    })]

    #[test]
    fn user_summaries_match_the_scan_oracle(spec in arb_db()) {
        let db = build_db(&spec);
        prop_assert_eq!(user_summaries(&db), oracle_user_summaries(&db));
    }

    #[test]
    fn classifier_matches_the_scan_oracle(spec in arb_db(), perturbed in arb_thresholds()) {
        let db = build_db(&spec);
        for t in [RuleThresholds::default(), perturbed] {
            for mode in MODES {
                prop_assert_eq!(
                    classify_with(&db, mode, &t),
                    oracle_classify(&db, mode, &t),
                    "{} {:?}",
                    mode.name(),
                    t
                );
            }
        }
    }
}

/// The generator is not vacuous: over a fixed set of cases it reaches every
/// rule of both modes, and the databases hold every awkward shape the
/// differential tests are meant to cover.
#[test]
fn generated_databases_reach_every_rule() {
    let mut rng = TestRng::from_name("generated_databases_reach_every_rule");
    let (dbs, thresholds) = (arb_db(), arb_thresholds());
    let mut seen: BTreeMap<&str, BTreeSet<Modality>> = BTreeMap::new();
    let (mut dup_attrs, mut orphan_attrs, mut jobless_users) = (false, false, false);
    for _ in 0..128 {
        let db = build_db(&dbs.generate(&mut rng));
        let perturbed = thresholds.generate(&mut rng);
        let jobs: BTreeSet<JobId> = db.jobs.iter().map(|j| j.job).collect();
        let attr_ids: Vec<JobId> = db.gateway_attrs.iter().map(|a| a.job).collect();
        dup_attrs |= attr_ids.len() > attr_ids.iter().collect::<BTreeSet<_>>().len();
        orphan_attrs |= attr_ids.iter().any(|id| !jobs.contains(id));
        jobless_users |= user_summaries(&db).iter().any(|s| s.jobs == 0);
        for t in [RuleThresholds::default(), perturbed] {
            for mode in MODES {
                seen.entry(mode.name())
                    .or_default()
                    .extend(classify_with(&db, mode, &t).into_values());
            }
        }
    }
    assert!(dup_attrs && orphan_attrs && jobless_users);
    assert_eq!(
        seen["with-attributes"].len(),
        Modality::ALL.len(),
        "{seen:?}"
    );
    // Records-only mode never sees RC placements.
    assert_eq!(
        seen["records-only"].len(),
        Modality::ALL.len() - 1,
        "{seen:?}"
    );
}
