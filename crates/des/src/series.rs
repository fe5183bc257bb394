//! Time-bucketed windowed operational series.
//!
//! The counterpart to [`sketch`](crate::sketch): where sketches answer
//! "what do span durations look like overall", the windowed series answers
//! "what was the federation *doing* at hour N" — submit/start/complete
//! rates, active jobs, core utilization, and queue depth per virtual-time
//! bucket, with memory proportional to `horizon / bucket` and independent
//! of event count. Rates are exact integer counters; utilization and queue
//! depth are exact time-weighted means computed by trapezoid-free area
//! integration of piecewise-constant gauges (the gauges only change at
//! events, so rectangles are exact).
//! Snapshot rows sum site columns in site-index order, so a run's series is
//! a pure function of its event sequence.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime, MICROS_PER_SEC};

/// Per-site gauge track: current gauge values plus per-bucket accumulated
/// areas (core·seconds and job·seconds).
#[derive(Debug, Clone, PartialEq)]
struct SiteTrack {
    busy: f64,
    queued: f64,
    last_us: u64,
    busy_area: Vec<f64>,
    queue_area: Vec<f64>,
}

impl SiteTrack {
    fn new() -> Self {
        SiteTrack {
            busy: 0.0,
            queued: 0.0,
            last_us: 0,
            busy_area: Vec::new(),
            queue_area: Vec::new(),
        }
    }

    /// Integrate the current gauges forward to `to_us`, splitting the area
    /// across bucket boundaries.
    fn integrate(&mut self, bucket_us: u64, to_us: u64) {
        let mut from = self.last_us;
        if to_us <= from {
            return;
        }
        self.last_us = to_us;
        if self.busy == 0.0 && self.queued == 0.0 {
            // Idle gap: nothing to accumulate, skip the bucket walk.
            return;
        }
        while from < to_us {
            let b = (from / bucket_us) as usize;
            let seg_end = ((b as u64 + 1) * bucket_us).min(to_us);
            let dt = (seg_end - from) as f64 / MICROS_PER_SEC as f64;
            if self.busy_area.len() <= b {
                self.busy_area.resize(b + 1, 0.0);
                self.queue_area.resize(b + 1, 0.0);
            }
            self.busy_area[b] += self.busy * dt;
            self.queue_area[b] += self.queued * dt;
            from = seg_end;
        }
    }
}

/// Windowed operational series over virtual time. Disabled by default;
/// every hook is a no-op until [`WindowedSeries::enabled`] builds one.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSeries {
    enabled: bool,
    bucket_us: u64,
    total_cores: f64,
    submitted: Vec<u64>,
    started: Vec<u64>,
    completed: Vec<u64>,
    active_delta: Vec<i64>,
    sites: Vec<SiteTrack>,
    /// Buckets already handed out by `drain_closed`, and the running
    /// active-job prefix at that point.
    drained: usize,
    drained_active: i64,
    /// Fast-path threshold for `drain_closed`: next virtual time at which a
    /// bucket boundary has passed.
    next_emit_us: u64,
}

impl WindowedSeries {
    /// A disabled series: all hooks are no-ops, snapshots are empty.
    pub fn disabled() -> Self {
        WindowedSeries {
            enabled: false,
            bucket_us: u64::MAX,
            total_cores: 0.0,
            submitted: Vec::new(),
            started: Vec::new(),
            completed: Vec::new(),
            active_delta: Vec::new(),
            sites: Vec::new(),
            drained: 0,
            drained_active: 0,
            next_emit_us: u64::MAX,
        }
    }

    /// An enabled series with the given bucket width and per-site core
    /// counts (the utilization denominator). Panics on a zero bucket.
    pub fn enabled(bucket: SimDuration, site_cores: &[f64]) -> Self {
        let bucket_us = bucket.as_micros();
        assert!(bucket_us > 0, "series bucket must be positive");
        WindowedSeries {
            enabled: true,
            bucket_us,
            total_cores: site_cores.iter().sum(),
            submitted: Vec::new(),
            started: Vec::new(),
            completed: Vec::new(),
            active_delta: Vec::new(),
            sites: site_cores.iter().map(|_| SiteTrack::new()).collect(),
            drained: 0,
            drained_active: 0,
            next_emit_us: bucket_us,
        }
    }

    /// Is the series recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        SimDuration::from_micros(if self.enabled { self.bucket_us } else { 0 })
    }

    fn bucket_of(&self, now: SimTime) -> usize {
        (now.as_micros() / self.bucket_us) as usize
    }

    fn bump(vec: &mut Vec<u64>, b: usize) {
        if vec.len() <= b {
            vec.resize(b + 1, 0);
        }
        vec[b] += 1;
    }

    /// A job entered the system.
    pub fn on_submit(&mut self, now: SimTime) {
        if self.enabled {
            let b = self.bucket_of(now);
            Self::bump(&mut self.submitted, b);
        }
    }

    /// A job began executing (dispatch or RC placement).
    pub fn on_start(&mut self, now: SimTime) {
        if self.enabled {
            let b = self.bucket_of(now);
            Self::bump(&mut self.started, b);
            if self.active_delta.len() <= b {
                self.active_delta.resize(b + 1, 0);
            }
            self.active_delta[b] += 1;
        }
    }

    /// A job stopped executing (completion or fault kill).
    pub fn on_stop(&mut self, now: SimTime) {
        if self.enabled {
            let b = self.bucket_of(now);
            if self.active_delta.len() <= b {
                self.active_delta.resize(b + 1, 0);
            }
            self.active_delta[b] -= 1;
        }
    }

    /// A job left the system for good (completed or abandoned).
    pub fn on_complete(&mut self, now: SimTime) {
        if self.enabled {
            let b = self.bucket_of(now);
            Self::bump(&mut self.completed, b);
        }
    }

    /// Update one site's gauges (busy cores, queued jobs) at `now`,
    /// integrating the previous values over the elapsed interval.
    pub fn set_site(&mut self, site: usize, now: SimTime, busy: f64, queued: f64) {
        if !self.enabled || site >= self.sites.len() {
            return;
        }
        let track = &mut self.sites[site];
        track.integrate(self.bucket_us, now.as_micros());
        track.busy = busy;
        track.queued = queued;
    }

    /// Integrate every site's gauges forward to `now` without changing them.
    pub fn advance_to(&mut self, now: SimTime) {
        if !self.enabled {
            return;
        }
        let us = now.as_micros();
        for track in &mut self.sites {
            track.integrate(self.bucket_us, us);
        }
    }

    fn row(&self, b: usize, active: i64, end_us: u64) -> SeriesRow {
        let start_us = b as u64 * self.bucket_us;
        let bucket_end_us = (b as u64 + 1) * self.bucket_us;
        let cover_us = bucket_end_us.min(end_us.max(start_us)) - start_us;
        let cover_s = cover_us as f64 / MICROS_PER_SEC as f64;
        let busy: f64 = self
            .sites
            .iter()
            .map(|s| s.busy_area.get(b).copied().unwrap_or(0.0))
            .sum();
        let queue: f64 = self
            .sites
            .iter()
            .map(|s| s.queue_area.get(b).copied().unwrap_or(0.0))
            .sum();
        let (utilization, queue_depth) = if cover_s > 0.0 {
            let util = if self.total_cores > 0.0 {
                busy / (self.total_cores * cover_s)
            } else {
                0.0
            };
            (util, queue / cover_s)
        } else {
            (0.0, 0.0)
        };
        SeriesRow {
            bucket: b as u64,
            t_end_s: (bucket_end_us.min(end_us.max(start_us))) as f64 / MICROS_PER_SEC as f64,
            submitted: self.submitted.get(b).copied().unwrap_or(0),
            started: self.started.get(b).copied().unwrap_or(0),
            completed: self.completed.get(b).copied().unwrap_or(0),
            active,
            utilization,
            queue_depth,
        }
    }

    /// Hand out rows for buckets that closed strictly before `now`, for the
    /// live sink. Cheap when no boundary has passed (one compare).
    pub fn drain_closed(&mut self, now: SimTime) -> Vec<SeriesRow> {
        if now.as_micros() < self.next_emit_us {
            return Vec::new();
        }
        let closed = self.bucket_of(now);
        self.next_emit_us = (closed as u64 + 1) * self.bucket_us;
        let boundary_us = closed as u64 * self.bucket_us;
        self.advance_to(SimTime::from_micros(boundary_us));
        let mut rows = Vec::with_capacity(closed - self.drained);
        for b in self.drained..closed {
            self.drained_active += self.active_delta.get(b).copied().unwrap_or(0);
            rows.push(self.row(b, self.drained_active, u64::MAX));
        }
        self.drained = closed;
        rows
    }

    /// How many leading buckets `drain_closed` has already handed out.
    pub fn drained_buckets(&self) -> usize {
        self.drained
    }

    /// Final snapshot covering `[0, end]`. Integrates gauges to `end` and
    /// reports every bucket (the last one as a partial window).
    pub fn snapshot(&mut self, end: SimTime) -> SeriesSnapshot {
        if !self.enabled {
            return SeriesSnapshot {
                bucket_secs: 0.0,
                end_s: end.as_secs_f64(),
                rows: Vec::new(),
            };
        }
        self.advance_to(end);
        let end_us = end.as_micros();
        let nbuckets = (end_us.div_ceil(self.bucket_us) as usize).max(1);
        let mut active = 0i64;
        let mut rows = Vec::with_capacity(nbuckets);
        for b in 0..nbuckets {
            active += self.active_delta.get(b).copied().unwrap_or(0);
            rows.push(self.row(b, active, end_us));
        }
        SeriesSnapshot {
            bucket_secs: self.bucket_us as f64 / MICROS_PER_SEC as f64,
            end_s: end.as_secs_f64(),
            rows,
        }
    }
}

/// One closed (or final partial) bucket of the windowed series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesRow {
    /// Bucket index (bucket `b` covers `[b·w, (b+1)·w)` virtual seconds).
    pub bucket: u64,
    /// Virtual-time end of the covered window, seconds (truncated to the
    /// run end for the final partial bucket).
    pub t_end_s: f64,
    /// Jobs submitted in the window.
    pub submitted: u64,
    /// Jobs that began executing in the window.
    pub started: u64,
    /// Jobs that left the system in the window.
    pub completed: u64,
    /// Jobs executing at the end of the window.
    pub active: i64,
    /// Time-weighted mean busy-core fraction across the federation.
    pub utilization: f64,
    /// Time-weighted mean queued-job count summed over sites.
    pub queue_depth: f64,
}

/// The full windowed series at run end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Bucket width in seconds.
    pub bucket_secs: f64,
    /// Run end in virtual seconds.
    pub end_s: f64,
    /// One row per bucket from virtual time 0 to the run end.
    pub rows: Vec<SeriesRow>,
}

impl SeriesSnapshot {
    /// Small scalar digest for run summaries (the full rows go to the live
    /// sink file or `SimOutput.stats`).
    pub fn digest(&self) -> SeriesDigest {
        SeriesDigest {
            bucket_secs: self.bucket_secs,
            buckets: self.rows.len(),
            submitted: self.rows.iter().map(|r| r.submitted).sum(),
            completed: self.rows.iter().map(|r| r.completed).sum(),
            peak_active: self.rows.iter().map(|r| r.active).max().unwrap_or(0),
            peak_queue_depth: self.rows.iter().map(|r| r.queue_depth).fold(0.0, f64::max),
            mean_utilization: if self.rows.is_empty() {
                0.0
            } else {
                // Weight by covered window length (the last bucket may be
                // partial).
                let mut t0 = 0.0;
                let (mut area, mut span) = (0.0, 0.0);
                for r in &self.rows {
                    let w = r.t_end_s - t0;
                    area += r.utilization * w;
                    span += w;
                    t0 = r.t_end_s;
                }
                if span > 0.0 {
                    area / span
                } else {
                    0.0
                }
            },
        }
    }
}

/// Scalar digest of a [`SeriesSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesDigest {
    /// Bucket width in seconds.
    pub bucket_secs: f64,
    /// Number of buckets covered.
    pub buckets: usize,
    /// Total jobs submitted.
    pub submitted: u64,
    /// Total jobs that left the system.
    pub completed: u64,
    /// Peak concurrently-executing jobs at any bucket boundary.
    pub peak_active: i64,
    /// Peak time-weighted queue depth over buckets.
    pub peak_queue_depth: f64,
    /// Run-long time-weighted mean utilization.
    pub mean_utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hours(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    #[test]
    fn disabled_series_is_inert() {
        let mut s = WindowedSeries::disabled();
        s.on_submit(hours(1));
        s.set_site(0, hours(1), 4.0, 2.0);
        assert!(s.drain_closed(hours(10)).is_empty());
        assert!(s.snapshot(hours(10)).rows.is_empty());
    }

    #[test]
    fn counters_land_in_their_buckets() {
        let mut s = WindowedSeries::enabled(SimDuration::from_hours(1), &[8.0]);
        s.on_submit(SimTime::from_secs(10));
        s.on_submit(SimTime::from_secs(3_700));
        s.on_start(SimTime::from_secs(3_800));
        s.on_stop(SimTime::from_secs(7_300));
        s.on_complete(SimTime::from_secs(7_300));
        let snap = s.snapshot(SimTime::from_secs(8_000));
        assert_eq!(snap.rows.len(), 3);
        assert_eq!(snap.rows[0].submitted, 1);
        assert_eq!(snap.rows[1].submitted, 1);
        assert_eq!(snap.rows[1].started, 1);
        assert_eq!(snap.rows[1].active, 1);
        assert_eq!(snap.rows[2].active, 0);
        assert_eq!(snap.rows[2].completed, 1);
    }

    #[test]
    fn utilization_integrates_exactly() {
        let mut s = WindowedSeries::enabled(SimDuration::from_hours(1), &[8.0, 8.0]);
        // Site 0 busy 4/8 cores for the first 90 minutes.
        s.set_site(0, SimTime::ZERO, 4.0, 2.0);
        s.set_site(0, SimTime::from_secs(90 * 60), 0.0, 0.0);
        let snap = s.snapshot(hours(2));
        // Bucket 0: 4 cores × 3600 s over 16 cores × 3600 s = 0.25.
        assert!((snap.rows[0].utilization - 0.25).abs() < 1e-12);
        // Bucket 1: 4 cores × 1800 s over 16 × 3600 = 0.125.
        assert!((snap.rows[1].utilization - 0.125).abs() < 1e-12);
        assert!((snap.rows[0].queue_depth - 2.0).abs() < 1e-12);
        assert!((snap.rows[1].queue_depth - 1.0).abs() < 1e-12);
        let digest = snap.digest();
        assert!((digest.mean_utilization - 0.1875).abs() < 1e-12);
        assert!((digest.peak_queue_depth - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partial_final_bucket_normalizes_by_covered_time() {
        let mut s = WindowedSeries::enabled(SimDuration::from_hours(1), &[4.0]);
        s.set_site(0, SimTime::ZERO, 4.0, 0.0);
        // End mid-bucket: 30 minutes into bucket 0, fully busy.
        let snap = s.snapshot(SimTime::from_secs(30 * 60));
        assert_eq!(snap.rows.len(), 1);
        assert!((snap.rows[0].utilization - 1.0).abs() < 1e-12);
        assert!((snap.rows[0].t_end_s - 1800.0).abs() < 1e-12);
    }

    #[test]
    fn drain_closed_matches_snapshot_prefix() {
        let mut s = WindowedSeries::enabled(SimDuration::from_hours(1), &[8.0]);
        s.on_submit(SimTime::from_secs(100));
        s.on_start(SimTime::from_secs(200));
        s.set_site(0, SimTime::from_secs(200), 2.0, 1.0);
        assert!(s.drain_closed(SimTime::from_secs(500)).is_empty());
        let rows = s.drain_closed(SimTime::from_secs(3_700));
        assert_eq!(rows.len(), 1);
        s.on_stop(SimTime::from_secs(4_000));
        s.on_complete(SimTime::from_secs(4_000));
        s.set_site(0, SimTime::from_secs(4_000), 0.0, 0.0);
        let mut clone = s.clone();
        let snap = clone.snapshot(SimTime::from_secs(8_000));
        assert_eq!(rows[0], snap.rows[0]);
    }
}
