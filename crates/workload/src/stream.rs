//! Lazy, seed-derived streaming workload generation.
//!
//! [`WorkloadGenerator::generate`] materializes every job up front; at
//! million-user scale that footprint dominates peak RSS. This module
//! produces the *identical* job sequence one job at a time:
//!
//! 1. **Per-user cursors.** One `UserGen` per user draws the arrival
//!    instants up front (~8 bytes per arrival, versus hundreds per
//!    materialized job) and draws job fields lazily as each arrival is
//!    pulled. The draw *order* within the user's stream is unchanged —
//!    all arrivals first, then per-arrival job fields — so every sampled
//!    value matches the materialized path bit for bit.
//! 2. **Counting prepass.** A clone of each fresh cursor runs to its end
//!    with the jobs discarded (same RNG state, same draws), yielding the
//!    exact per-user id bases the global counters would have reached —
//!    job, workflow, and ensemble ids are threaded across users in
//!    population order, so each user owns a contiguous block of each id
//!    space.
//! 3. **K-way merge.** Arrival instants strictly increase within a user
//!    and every job in an arrival's block shares its submit time with
//!    contiguous ascending ids, so each cursor emits blocks already sorted
//!    by `(submit_time, id)`, and block id-ranges are globally disjoint. A
//!    heap over `(next submit time, next id)` therefore reproduces the
//!    materialized `sort_by_key(|j| (j.submit_time, j.id))` exactly.
//!
//! The cost is one extra pass of job-field draws (the prepass; arrivals
//! are drawn once per user) and the resident cursors; what it buys is
//! that pending jobs never exist all at once.

use crate::generator::{IdCursor, UserGen, WorkloadGenerator};
use crate::job::Job;
use crate::user::Population;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tg_des::dist::Zipf;
use tg_des::{RngFactory, SimTime};

/// A lazily generated workload: the population and exact job count are
/// known up front (the simulation needs both before the first event), but
/// the jobs themselves materialize one at a time from [`StreamedWorkload::stream`].
pub struct StreamedWorkload {
    /// The user population behind the jobs (identical to the materialized
    /// path's).
    pub population: Population,
    /// Exact number of jobs the stream will yield.
    pub total_jobs: usize,
    /// The job stream, sorted by `(submit_time, id)`.
    pub stream: WorkloadStream,
}

/// Iterator over the merged per-user job streams. Yields every job the
/// materialized generator would produce, in the same order, holding only
/// per-user cursors plus one arrival block in memory.
pub struct WorkloadStream {
    gen: WorkloadGenerator,
    rc_zipf: Option<Zipf>,
    cursors: Vec<UserGen>,
    /// Min-heap of `(next submit time, next job id, cursor index)` — the
    /// head of each non-exhausted cursor.
    heap: BinaryHeap<Reverse<(SimTime, usize, usize)>>,
    /// The current arrival block, delivered front to back.
    block: VecDeque<Job>,
    emitted: usize,
}

impl WorkloadGenerator {
    /// Generate the population and a lazy job stream. The stream yields a
    /// job sequence bit-identical to [`WorkloadGenerator::generate`] at the
    /// same seed (see the module docs for why), without ever materializing
    /// the whole workload.
    pub fn generate_streaming(&self, factory: &RngFactory) -> StreamedWorkload {
        let population = self.population();
        let rc_zipf = self.rc_zipf();
        let mut ids = IdCursor::default();
        let mut gw_counter = 0usize;
        let mut cursors = Vec::with_capacity(population.users.len());
        let mut heap = BinaryHeap::with_capacity(population.users.len());
        let mut scratch: Vec<Job> = Vec::new();

        for user in &population.users {
            let gateway = self.gateway_for(user, &mut gw_counter);
            let cursor = UserGen::new(self, user, factory, ids, gateway);
            // Counting prepass: run a copy of the fresh cursor to its end
            // and discard the jobs — only the id-counter advance is kept.
            // The copy starts from the cursor's exact RNG state, so the
            // user's arrivals are built once.
            let mut counter = cursor.clone();
            while counter.emit_next(self, rc_zipf.as_ref(), &mut scratch) {
                scratch.clear();
            }
            if let Some(t) = cursor.peek_time() {
                heap.push(Reverse((t, cursor.ids().next_job, cursors.len())));
            }
            ids = counter.ids();
            cursors.push(cursor);
        }

        let total_jobs = ids.next_job;
        StreamedWorkload {
            population,
            total_jobs,
            stream: WorkloadStream {
                gen: self.clone(),
                rc_zipf,
                cursors,
                heap,
                block: VecDeque::new(),
                emitted: 0,
            },
        }
    }
}

impl WorkloadStream {
    /// Jobs yielded so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    fn refill(&mut self) {
        let Some(Reverse((_, _, idx))) = self.heap.pop() else {
            return;
        };
        let cursor = &mut self.cursors[idx];
        let mut block = std::mem::take(&mut self.block);
        let mut out: Vec<Job> = Vec::with_capacity(4);
        let produced = cursor.emit_next(&self.gen, self.rc_zipf.as_ref(), &mut out);
        debug_assert!(produced, "heaped cursor had no arrival left");
        block.extend(out);
        if let Some(t) = cursor.peek_time() {
            self.heap.push(Reverse((t, cursor.ids().next_job, idx)));
        }
        self.block = block;
    }
}

impl Iterator for WorkloadStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        while self.block.is_empty() {
            if self.heap.is_empty() {
                return None;
            }
            self.refill();
        }
        self.emitted += 1;
        self.block.pop_front()
    }
}

/// A materialized workload viewed as the same kind of stream — used by
/// trace-replay paths that already hold the jobs but want to feed the
/// engine's lazy scheduling interface.
pub fn drain_sorted(jobs: Vec<Job>) -> impl Iterator<Item = Job> + Send {
    debug_assert!(jobs
        .windows(2)
        .all(|w| (w[0].submit_time, w[0].id) <= (w[1].submit_time, w[1].id)));
    jobs.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{sparse_config, GeneratorConfig};
    use crate::modality::Modality;

    fn cfg() -> GeneratorConfig {
        let mut cfg = GeneratorConfig::baseline(140, 14, 3);
        cfg.mix.activity_zipf_s = 0.8;
        cfg
    }

    #[test]
    fn streamed_equals_materialized() {
        let inputs = [
            (cfg(), 1u64),
            (cfg(), 7),
            (cfg(), 42),
            (sparse_config(600), 5),
        ];
        for (cfg, seed) in inputs {
            let gen = WorkloadGenerator::new(cfg);
            let materialized = gen.generate(&RngFactory::new(seed));
            let streamed = gen.generate_streaming(&RngFactory::new(seed));
            assert_eq!(streamed.population.users, materialized.population.users);
            assert_eq!(streamed.total_jobs, materialized.jobs.len());
            let jobs: Vec<Job> = streamed.stream.collect();
            assert_eq!(jobs, materialized.jobs, "seed {seed}");
        }
    }

    #[test]
    fn stream_covers_every_modality() {
        let gen = WorkloadGenerator::new(cfg());
        let streamed = gen.generate_streaming(&RngFactory::new(2));
        let jobs: Vec<Job> = streamed.stream.collect();
        for m in Modality::ALL {
            assert!(jobs.iter().any(|j| j.true_modality == m), "no {m} jobs");
        }
    }

    #[test]
    fn emitted_counts_match_declared_total() {
        let gen = WorkloadGenerator::new(cfg());
        let streamed = gen.generate_streaming(&RngFactory::new(3));
        let declared = streamed.total_jobs;
        let mut stream = streamed.stream;
        let n = stream.by_ref().count();
        assert_eq!(n, declared);
        assert_eq!(stream.emitted(), declared);
        assert!(stream.next().is_none(), "stream stays exhausted");
    }
}
