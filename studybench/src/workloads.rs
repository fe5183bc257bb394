//! The three study workloads. Each is a scenario config (as JSON text, the
//! form a user hands `tgsim run`) plus the run options and post-processing
//! steps its study performs. Why each workload exists, and which layers it
//! exercises or bypasses, is recorded in `describe.json` next to this
//! package.

use std::path::{Path, PathBuf};
use tg_core::{FaultSpec, RecordStreaming, RunOptions, ScenarioConfig};

/// Users and days of the data-grid study. Queues form by construction.
/// Classification cost grows with the square of the job count, so the study
/// is kept at ~30k jobs: a run then holds 15-25 studies, and their medians
/// hold still.
const DATAGRID_USERS: usize = 450;
const DATAGRID_DAYS: u64 = 10;
/// The sparse streaming study: `million-1000000u-365d` at a twentieth of the
/// users, so a run holds several studies.
const SPARSE_USERS: usize = 50_000;
const SPARSE_DAYS: u64 = 365;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `configs/large-3000u-90d.json`, materialized, records retained,
    /// usage report and summary; no observers, no classification.
    LargeBare,
    /// The data-grid federation with a fault calendar, live stats, a trace
    /// file, both classifier modes and the offline trace analysis.
    DatagridStudy,
    /// The sparse million-user population on the streaming path, records
    /// written to a JSONL sink.
    SparseStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LargeBare,
        Workload::DatagridStudy,
        Workload::SparseStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeBare => "large-bare",
            Workload::DatagridStudy => "datagrid-study",
            Workload::SparseStream => "sparse-stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the study classifies the retained records and writes and
    /// analyzes a trace (the full measurement).
    pub fn full_measurement(self) -> bool {
        self == Workload::DatagridStudy
    }

    /// Reference passes timed on each side of a study: roughly a tenth of a
    /// study's time, so the host's speed is sampled over a window long
    /// enough to average out its second-to-second jitter.
    pub fn reference_passes(self) -> u32 {
        match self {
            Workload::LargeBare => 6,
            Workload::DatagridStudy => 1,
            Workload::SparseStream => 4,
        }
    }

    /// Whether the study runs on the streaming path with a record sink.
    pub fn streams(self) -> bool {
        self == Workload::SparseStream
    }

    /// The scenario config text a study starts from, read from or derived
    /// from the repository's own configs. `root` is the checkout root.
    pub fn config_text(self, root: &Path) -> Result<String, String> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
        };
        let cfg = match self {
            Workload::LargeBare => return read("configs/large-3000u-90d.json"),
            Workload::DatagridStudy => datagrid_config(
                DATAGRID_USERS,
                DATAGRID_DAYS,
                &read("configs/faults-demo.json")?,
            )?,
            Workload::SparseStream => ScenarioConfig::million(SPARSE_USERS, SPARSE_DAYS),
        };
        serde_json::to_string_pretty(&cfg).map_err(|e| format!("cannot serialize config: {e}"))
    }

    /// The options `tgsim run` would pass for this study: one thread, one
    /// replication, metrics on (the correctness gate reads the completion
    /// counters), plus the workload's observers and record destination.
    pub fn run_options(self, scratch: &Path) -> RunOptions {
        let mut opts = RunOptions {
            metrics: true,
            threads: 1,
            ..RunOptions::default()
        };
        match self {
            Workload::LargeBare => {}
            Workload::DatagridStudy => {
                opts.live_stats = true;
                opts.trace_path = Some(self.trace_path(scratch));
            }
            Workload::SparseStream => {
                opts.stream_gen = true;
                opts.record_streaming = RecordStreaming::Jsonl(self.records_path(scratch));
            }
        }
        opts
    }

    pub fn trace_path(self, scratch: &Path) -> PathBuf {
        scratch.join(format!("{}.trace.jsonl", self.name()))
    }

    pub fn records_path(self, scratch: &Path) -> PathBuf {
        scratch.join(format!("{}.records.jsonl", self.name()))
    }

    pub fn summary_path(self, scratch: &Path) -> PathBuf {
        scratch.join(format!("{}.summary.json", self.name()))
    }
}

/// The data-grid federation at `users` × `days` with the fault calendar in
/// `faults_json`. The calendar's crash process is stretched over the whole
/// horizon. Its lossy ingest channel is left out: dropped and duplicated
/// records would make the job-conservation check meaningless.
pub fn datagrid_config(
    users: usize,
    days: u64,
    faults_json: &str,
) -> Result<ScenarioConfig, String> {
    let mut cfg = ScenarioConfig::datagrid(users, days);
    let mut spec: FaultSpec =
        serde_json::from_str(faults_json).map_err(|e| format!("invalid fault calendar: {e}"))?;
    if let Some(c) = spec.node_crashes.as_mut() {
        c.horizon_days = days as f64;
    }
    spec.ingest = None;
    cfg.faults = Some(spec);
    Ok(cfg)
}
