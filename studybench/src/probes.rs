//! Timing decorators for the traced run. Each wraps one layer's public
//! interface from outside the program — the batch scheduler, the record
//! sink, the streamed job iterator, the trace writer, and the event handler
//! itself — and forwards every call unchanged, so a wrapped run produces
//! the same outputs as an unwrapped one (the transparency tests below hold
//! them to that).
//!
//! All decorators share one [`Probes`] block. The simulation is
//! single-threaded; the counters are atomics only because the decorated
//! traits require `Send`, and each publishes nothing but its own value, so
//! relaxed ordering suffices.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use tg_accounting::{IngestTally, RecordRef, RecordSink};
use tg_core::sim::Event;
use tg_core::GridSim;
use tg_des::{Ctx, SimTime, Simulation};
use tg_model::Cluster;
use tg_sched::{BatchScheduler, Started};
use tg_workload::{Job, JobId};

/// `sim::Event` variants, in declaration order, as the metric names spell
/// them.
pub const EVENT_KINDS: [&str; 10] = [
    "submit",
    "submit_job",
    "enqueue",
    "complete",
    "rc_complete",
    "sched_wakeup",
    "sample",
    "fault",
    "requeue",
    "net_update",
];

fn kind_of(event: &Event) -> usize {
    match event {
        Event::Submit(_) => 0,
        Event::SubmitJob(_) => 1,
        Event::Enqueue { .. } => 2,
        Event::Complete { .. } => 3,
        Event::RcComplete { .. } => 4,
        Event::SchedWakeup { .. } => 5,
        Event::Sample => 6,
        Event::Fault(_) => 7,
        Event::Requeue { .. } => 8,
        Event::NetUpdate(_) => 9,
    }
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counters shared by every decorator of one traced run.
#[derive(Default)]
pub struct Probes {
    pub sched_submit_ns: AtomicU64,
    pub sched_complete_ns: AtomicU64,
    pub sched_decide_ns: AtomicU64,
    pub decide_calls: AtomicU64,
    /// Decision passes that started at least one job.
    pub productive_decides: AtomicU64,
    pub started: AtomicU64,
    pub peak_queue_len: AtomicU64,
    /// Backfill count per site, as each scheduler last reported it.
    pub backfills: Vec<AtomicU64>,
    pub sink_ns: AtomicU64,
    /// Records through the sink, in [`crate::study::RECORD_KINDS`] order.
    pub sink_records: [AtomicU64; 5],
    pub trace_write_ns: AtomicU64,
    pub trace_bytes: AtomicU64,
    pub pull_ns: AtomicU64,
    pub pulled: AtomicU64,
}

impl Probes {
    pub fn new(sites: usize) -> Arc<Probes> {
        Arc::new(Probes {
            backfills: (0..sites).map(|_| AtomicU64::new(0)).collect(),
            ..Probes::default()
        })
    }

    /// Time spent inside nested layers (scheduler, record sink, trace
    /// writer) so far; the handler wrapper subtracts it to get self time.
    fn nested_ns(&self) -> u64 {
        self.sched_submit_ns.load(Relaxed)
            + self.sched_complete_ns.load(Relaxed)
            + self.sched_decide_ns.load(Relaxed)
            + self.sink_ns.load(Relaxed)
            + self.trace_write_ns.load(Relaxed)
    }
}

/// A [`BatchScheduler`] decorator timing `submit`, `on_complete` and
/// `make_decisions`, and counting decision passes, starts and backfills.
pub struct TimedScheduler {
    inner: Box<dyn BatchScheduler>,
    probes: Arc<Probes>,
    site: usize,
}

impl TimedScheduler {
    pub fn wrap(inner: Box<dyn BatchScheduler>, probes: Arc<Probes>, site: usize) -> Self {
        TimedScheduler {
            inner,
            probes,
            site,
        }
    }
}

impl BatchScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, now: SimTime, job: Job) {
        let t = Instant::now();
        self.inner.submit(now, job);
        self.probes
            .sched_submit_ns
            .fetch_add(nanos_since(t), Relaxed);
        self.probes
            .peak_queue_len
            .fetch_max(self.inner.queue_len() as u64, Relaxed);
    }

    fn on_complete(&mut self, now: SimTime, id: JobId) {
        let t = Instant::now();
        self.inner.on_complete(now, id);
        self.probes
            .sched_complete_ns
            .fetch_add(nanos_since(t), Relaxed);
    }

    fn make_decisions(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
    ) -> Vec<Started> {
        let t = Instant::now();
        let started = self.inner.make_decisions(now, cluster, core_speed);
        self.probes
            .sched_decide_ns
            .fetch_add(nanos_since(t), Relaxed);
        self.probes.decide_calls.fetch_add(1, Relaxed);
        if !started.is_empty() {
            self.probes.productive_decides.fetch_add(1, Relaxed);
            self.probes.started.fetch_add(started.len() as u64, Relaxed);
        }
        self.probes.backfills[self.site].store(self.inner.backfills(), Relaxed);
        started
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_wakeup(now)
    }

    fn drain_notice(&mut self, at: Option<SimTime>) {
        self.inner.drain_notice(at)
    }

    fn backfills(&self) -> u64 {
        self.inner.backfills()
    }

    fn drains(&self) -> u64 {
        self.inner.drains()
    }
}

/// A [`RecordSink`] decorator timing writes and counting records by kind.
pub struct TimedSink {
    inner: Box<dyn RecordSink>,
    probes: Arc<Probes>,
}

impl TimedSink {
    pub fn wrap(inner: Box<dyn RecordSink>, probes: Arc<Probes>) -> Self {
        TimedSink { inner, probes }
    }
}

impl RecordSink for TimedSink {
    fn write(&mut self, rec: RecordRef<'_>) {
        let kind = match rec {
            RecordRef::Job(_) => 0,
            RecordRef::Transfer(_) => 1,
            RecordRef::Session(_) => 2,
            RecordRef::Gateway(_) => 3,
            RecordRef::Rc(_) => 4,
        };
        let t = Instant::now();
        self.inner.write(rec);
        self.probes.sink_ns.fetch_add(nanos_since(t), Relaxed);
        self.probes.sink_records[kind].fetch_add(1, Relaxed);
    }

    fn close(&mut self) -> IngestTally {
        let t = Instant::now();
        let tally = self.inner.close();
        self.probes.sink_ns.fetch_add(nanos_since(t), Relaxed);
        tally
    }
}

/// A writer decorator for [`tg_des::Tracer::set_sink`], timing writes and
/// flushes and counting bytes.
pub struct TimedWriter<W> {
    inner: W,
    probes: Arc<Probes>,
}

impl<W: Write> TimedWriter<W> {
    pub fn wrap(inner: W, probes: Arc<Probes>) -> Self {
        TimedWriter { inner, probes }
    }
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.write(buf);
        self.probes
            .trace_write_ns
            .fetch_add(nanos_since(t), Relaxed);
        if let Ok(n) = n {
            self.probes.trace_bytes.fetch_add(n as u64, Relaxed);
        }
        n
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.flush();
        self.probes
            .trace_write_ns
            .fetch_add(nanos_since(t), Relaxed);
        r
    }
}

/// An iterator adapter timing each pull from the streamed workload.
pub struct TimedJobs<I> {
    inner: I,
    probes: Arc<Probes>,
}

impl<I> TimedJobs<I> {
    pub fn wrap(inner: I, probes: Arc<Probes>) -> Self {
        TimedJobs { inner, probes }
    }
}

impl<I: Iterator<Item = Job>> Iterator for TimedJobs<I> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let t = Instant::now();
        let job = self.inner.next();
        self.probes.pull_ns.fetch_add(nanos_since(t), Relaxed);
        if job.is_some() {
            self.probes.pulled.fetch_add(1, Relaxed);
        }
        job
    }
}

/// A [`Simulation`] wrapper around [`GridSim`] that counts events by kind
/// and times each handler, inclusive and net of the nested layers above.
pub struct TimedSim {
    pub inner: GridSim,
    probes: Arc<Probes>,
    pub events: [u64; 10],
    pub handle_ns: [u64; 10],
    pub self_ns: [u64; 10],
}

impl TimedSim {
    pub fn wrap(inner: GridSim, probes: Arc<Probes>) -> Self {
        TimedSim {
            inner,
            probes,
            events: [0; 10],
            handle_ns: [0; 10],
            self_ns: [0; 10],
        }
    }
}

impl Simulation for TimedSim {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Ctx<Event>, event: Event) {
        let kind = kind_of(&event);
        let nested_before = self.probes.nested_ns();
        let t = Instant::now();
        self.inner.handle(ctx, event);
        let total = nanos_since(t);
        let nested = self.probes.nested_ns() - nested_before;
        self.events[kind] += 1;
        self.handle_ns[kind] += total;
        self.self_ns[kind] += total.saturating_sub(nested);
    }
}
