//! The traced simulation: the same scenario assembled from the library's
//! public pieces, in the order `Scenario::run_with` assembles it, with a
//! timing decorator around every layer boundary the library lets a caller
//! reach, driven by `GridSim::prime` (or the engine's job stream) and
//! `Engine::run` through the [`TimedSim`] wrapper.

use crate::probes::{Probes, TimedJobs, TimedScheduler, TimedSim, TimedSink, TimedWriter};
use crate::study::RecordCounts;
use crate::workloads::Workload;
use std::io::BufWriter;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;
use tg_accounting::JsonlRecordSink;
use tg_core::sim::Event;
use tg_core::{GridSim, RecordStreaming, ScenarioConfig};
use tg_data::DataLayer;
use tg_des::{memory, Engine, RngFactory, SimDuration, Tracer};
use tg_model::{ConfigLibrary, Federation, SiteId};
use tg_sched::BatchScheduler;
use tg_workload::WorkloadGenerator;

/// What the traced simulation measured.
pub struct Traced {
    pub setup_s: f64,
    pub generate_s: f64,
    pub loop_s: f64,
    pub events: u64,
    pub peak_queue: usize,
    pub generated_jobs: u64,
    pub jobs_done: u64,
    pub records: RecordCounts,
    pub alloc_generate: u64,
    pub alloc_simulate: u64,
    pub sim: TimedSim,
    pub probes: Arc<Probes>,
}

/// Assemble and run the decorated simulation of `workload` at `seed`,
/// writing its files under `scratch`. The simulation is returned still
/// holding its tracer and record sink; dropping it flushes them.
pub fn run(
    workload: Workload,
    config_text: &str,
    seed: u64,
    scratch: &Path,
) -> Result<Traced, String> {
    let opts = workload.run_options(scratch);
    let start = Instant::now();
    let cfg: ScenarioConfig =
        serde_json::from_str(config_text).map_err(|e| format!("invalid config: {e}"))?;
    let scenario = cfg.build();
    let cfg = scenario.config();
    let library = cfg
        .library
        .clone()
        .unwrap_or_else(|| ConfigLibrary::synthetic(cfg.workload.rc_config_count.max(1)));
    let mut builder = Federation::builder().library(library);
    for s in &cfg.sites {
        builder = builder.site(s.clone());
    }
    let federation = builder.repository_at(cfg.data_home).build();
    let caps: Vec<usize> = federation
        .sites()
        .map(|s| s.cluster.total_cores())
        .collect();
    let max_cores = *caps.iter().max().expect("non-empty federation");
    let probes = Probes::new(federation.len());
    let schedulers: Vec<Box<dyn BatchScheduler>> = caps
        .iter()
        .enumerate()
        .map(|(i, &cores)| {
            Box::new(TimedScheduler::wrap(
                cfg.scheduler.build(cores),
                probes.clone(),
                i,
            )) as Box<dyn BatchScheduler>
        })
        .collect();
    // The generator sees the data grid's dataset assignment unless the
    // workload carries its own, as in `ScenarioConfig::effective_workload`.
    let mut generator_cfg = cfg.workload.clone();
    if generator_cfg.data.is_none() {
        if let Some(spec) = cfg.data.as_ref().filter(|s| !s.is_trivial()) {
            generator_cfg.data = Some(spec.assignment());
        }
    }
    let generator = WorkloadGenerator::new(generator_cfg);
    let mut engine: Engine<Event> = Engine::with_capacity(1024);
    let allocs = memory::alloc_snapshot().allocations;
    let generate_start = Instant::now();
    let (sim, generated_jobs, generate_s, alloc_generate);
    if opts.stream_gen {
        // `GridSim::run_streaming` schedules the sample tick and the fault
        // calendar after the stream; neither is reachable from outside, so
        // only a workload without them is traced on this path.
        if cfg.sample_interval.is_some() || cfg.faults.as_ref().is_some_and(|f| !f.is_trivial()) {
            return Err("the traced streaming path supports no sampling or faults".into());
        }
        let streamed = generator.generate_streaming(&RngFactory::new(seed));
        generate_s = generate_start.elapsed().as_secs_f64();
        alloc_generate = memory::alloc_snapshot().allocations - allocs;
        generated_jobs = streamed.total_jobs as u64;
        sim = GridSim::new_streaming(
            federation,
            schedulers,
            cfg.meta,
            cfg.rc_policy,
            SiteId(cfg.data_home),
            streamed.total_jobs,
            RngFactory::new(seed),
        );
        let jobs = streamed.stream.map(move |mut job| {
            let cap = job.site_hint.map_or(max_cores, |s| caps[s.index()]);
            job.cores = job.cores.min(cap);
            job
        });
        engine.schedule_stream(
            streamed.total_jobs as u64,
            TimedJobs::wrap(jobs, probes.clone())
                .map(|j| (j.submit_time, Event::SubmitJob(Box::new(j)))),
        );
    } else {
        let mut workload = generator.generate(&RngFactory::new(seed));
        for job in &mut workload.jobs {
            let cap = job.site_hint.map_or(max_cores, |s| caps[s.index()]);
            job.cores = job.cores.min(cap);
        }
        generate_s = generate_start.elapsed().as_secs_f64();
        alloc_generate = memory::alloc_snapshot().allocations - allocs;
        generated_jobs = workload.jobs.len() as u64;
        sim = GridSim::new(
            federation,
            schedulers,
            cfg.meta,
            cfg.rc_policy,
            SiteId(cfg.data_home),
            workload.jobs,
            RngFactory::new(seed),
        );
    }
    let allocs = memory::alloc_snapshot().allocations;
    let mut sim = sim;
    if let Some(interval) = cfg.sample_interval {
        sim = sim.with_sampling(interval);
    }
    if let Some(spec) = cfg.data.as_ref().filter(|s| !s.is_trivial()) {
        let caches: Vec<f64> = cfg.sites.iter().map(|s| s.data_cache_mb).collect();
        sim = sim.with_data_grid(DataLayer::new(spec, &caches));
    }
    if let Some(spec) = cfg.faults.as_ref().filter(|s| !s.is_trivial()) {
        sim = sim.with_faults(spec);
    }
    if opts.metrics {
        sim = sim.with_metrics();
    }
    if opts.live_stats {
        sim = sim.with_live_stats(SimDuration::from_hours(1));
    }
    if let Some(path) = &opts.trace_path {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut tracer = Tracer::enabled(4096);
        tracer.set_sink(Box::new(TimedWriter::wrap(
            BufWriter::new(file),
            probes.clone(),
        )));
        sim = sim.with_tracer(tracer);
    }
    if let RecordStreaming::Jsonl(path) = &opts.record_streaming {
        let sink = JsonlRecordSink::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        sim = sim.with_record_sink(Box::new(TimedSink::wrap(Box::new(sink), probes.clone())));
    }
    if !opts.stream_gen {
        sim.prime(&mut engine);
    }
    let setup_s = start.elapsed().as_secs_f64();
    let mut timed = TimedSim::wrap(sim, probes.clone());
    let loop_start = Instant::now();
    engine.run(&mut timed);
    let loop_s = loop_start.elapsed().as_secs_f64();
    let alloc_simulate = memory::alloc_snapshot().allocations - allocs;
    let records = if opts.stream_gen {
        probes.sink_records.each_ref().map(|n| n.load(Relaxed))
    } else {
        let db = &timed.inner.db;
        [
            db.jobs.len(),
            db.transfers.len(),
            db.sessions.len(),
            db.gateway_attrs.len(),
            db.rc_placements.len(),
        ]
        .map(|n| n as u64)
    };
    Ok(Traced {
        setup_s,
        generate_s,
        loop_s,
        events: engine.delivered(),
        peak_queue: engine.peak_queue_len(),
        generated_jobs,
        jobs_done: timed.inner.jobs_done() as u64,
        records,
        alloc_generate,
        alloc_simulate,
        sim: timed,
        probes,
    })
}

#[cfg(test)]
mod tests {
    //! Transparency: every decorator forwards unchanged, so the traced
    //! simulation reproduces the untraced study's outputs exactly.

    use super::*;
    use crate::study;
    use crate::workloads::datagrid_config;
    use std::path::PathBuf;

    const FAULTS: &str = include_str!("../../configs/faults-demo.json");

    /// A per-test scratch directory with a `traced/` subdirectory.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("studybench-{}-{name}", std::process::id()));
        std::fs::create_dir_all(dir.join("traced")).expect("scratch dir");
        dir
    }

    fn same_file(a: &Path, b: &Path) {
        let (a, b) = (
            std::fs::read(a).expect("read"),
            std::fs::read(b).expect("read"),
        );
        assert!(!a.is_empty());
        assert!(a == b, "wrapped run wrote different bytes");
    }

    /// Scheduler, trace writer and handler wrapper, on the materialized
    /// path with faults, the data grid and live stats on.
    #[test]
    fn wrapped_materialized_run_matches_the_plain_run() {
        let dir = scratch("materialized");
        let w = Workload::DatagridStudy;
        let text = serde_json::to_string(&datagrid_config(40, 12, FAULTS).expect("config"))
            .expect("serializes");
        let (plain, out) = study::run(w, &text, 7, &dir);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        let traced = run(w, &text, 7, &dir.join("traced")).expect("traced run");
        assert_eq!(traced.events, out.events_delivered);
        assert_eq!(traced.generated_jobs, plain.generated_jobs);
        assert_eq!(traced.jobs_done, plain.generated_jobs);
        assert_eq!(traced.records, plain.records);
        let db = &traced.sim.inner.db;
        assert!(db.jobs == out.db.jobs, "job records differ");
        assert!(db.transfers == out.db.transfers, "transfer records differ");
        assert!(
            db.gateway_attrs == out.db.gateway_attrs,
            "gateway records differ"
        );
        assert_eq!(traced.sim.events.iter().sum::<u64>(), traced.events);
        assert!(traced.sim.events[7] > 0, "the fault calendar fired");
        assert!(traced.probes.decide_calls.load(Relaxed) > 0);
        assert!(traced.probes.trace_bytes.load(Relaxed) > 0);
        drop(traced);
        same_file(&w.trace_path(&dir), &w.trace_path(&dir.join("traced")));
        std::fs::remove_dir_all(dir).expect("cleanup");
    }

    /// Record sink and job-iterator adapter, on the streaming path.
    #[test]
    fn wrapped_streaming_run_matches_the_plain_run() {
        let dir = scratch("streaming");
        let w = Workload::SparseStream;
        let text = serde_json::to_string(&ScenarioConfig::million(3_000, 60)).expect("serializes");
        let (plain, out) = study::run(w, &text, 7, &dir);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        let traced = run(w, &text, 7, &dir.join("traced")).expect("traced run");
        assert_eq!(traced.events, out.events_delivered);
        assert_eq!(traced.jobs_done, plain.generated_jobs);
        assert_eq!(traced.records, plain.records);
        assert_eq!(traced.probes.pulled.load(Relaxed), plain.generated_jobs);
        drop(traced);
        same_file(&w.records_path(&dir), &w.records_path(&dir.join("traced")));
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}
