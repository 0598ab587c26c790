//! Engine observability: lock-free counters, log2-bucketed latency
//! histograms, and aggregated SHMEM traffic from every job the engine ran.

use crate::queue::StageSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use svsim_shmem::TrafficSnapshot;

/// Number of log2 buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds, bucket 0 additionally holds sub-µs.
const BUCKETS: usize = 40;

/// A concurrent latency histogram with power-of-two microsecond buckets.
/// Recording is a single relaxed atomic increment — cheap enough for the
/// dequeue hot path.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    total_us: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            total_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let bucket = if us == 0 {
            0
        } else {
            (63 - us.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough copy for reporting.
    #[must_use]
    pub fn snapshot(&self) -> LatencySnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        LatencySnapshot {
            buckets,
            total_us: self.total_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy)]
pub struct LatencySnapshot {
    buckets: [u64; BUCKETS],
    total_us: u64,
    count: u64,
}

impl LatencySnapshot {
    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, in microseconds.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }

    /// Upper edge (µs) of the bucket containing quantile `q` in `[0, 1]` —
    /// a conservative estimate with power-of-two resolution.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

impl std::fmt::Display for LatencySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}us p50<{}us p99<{}us",
            self.count,
            self.mean_us(),
            self.quantile_us(0.50),
            self.quantile_us(0.99),
        )
    }
}

/// Live engine metrics. All counters are monotonic over the engine's life.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Jobs accepted into the queue.
    pub(crate) submitted: AtomicU64,
    /// Jobs refused at admission (queue full).
    pub(crate) rejected: AtomicU64,
    /// Jobs that finished with `Ok`.
    pub(crate) completed: AtomicU64,
    /// Jobs that finished with a simulator error or panic.
    pub(crate) failed: AtomicU64,
    /// Jobs dropped at dequeue because their handle was cancelled.
    pub(crate) cancelled: AtomicU64,
    /// Jobs dropped at dequeue because their deadline had passed.
    pub(crate) expired: AtomicU64,
    /// Jobs failed because the engine shut down first.
    pub(crate) shutdown_dropped: AtomicU64,
    /// Batched executions issued (one per coalesced group).
    pub(crate) batches: AtomicU64,
    /// Sweep jobs served through those batches.
    pub(crate) batched_jobs: AtomicU64,
    /// Pooled state buffers allocated.
    pub(crate) pool_created: AtomicU64,
    /// Checkouts satisfied by reuse instead of construction.
    pub(crate) pool_reused: AtomicU64,
    /// Execution attempts re-run after a transient failure.
    pub(crate) retries: AtomicU64,
    /// Submissions refused because the job shape is quarantined.
    pub(crate) quarantined: AtomicU64,
    /// PE hangs detected by the process-backend watchdog (stalled
    /// heartbeat past the deadline, reported as `SvError::PeHung`).
    pub(crate) hung: AtomicU64,
    /// In-place PE respawns performed by the supervisor across all jobs.
    pub(crate) respawned: AtomicU64,
    /// Halve-PEs degradation steps taken (each halves one job's width and
    /// resumes it from checkpoint).
    pub(crate) degraded: AtomicU64,
    /// Bytes captured into state-vector checkpoints across all jobs.
    pub(crate) checkpoint_bytes: AtomicU64,
    /// SHMEM protocol races observed by the dynamic detector across all
    /// jobs that ran with race detection on. Nonzero means a correctness
    /// bug — benches fail loudly on it.
    pub(crate) races_detected: AtomicU64,
    /// Remote bytes the communication-avoiding remap saved across all
    /// remapped scale-out jobs: the analytic naive-plan cost minus the
    /// measured remapped traffic, saturating at zero per job.
    pub(crate) remote_bytes_saved: AtomicU64,
    /// One-shot jobs whose compiled plan was served from the workers'
    /// shared structural plan cache (op→kernel lowering skipped).
    pub(crate) plan_cache_hits: AtomicU64,
    /// One-shot jobs that compiled a fresh plan (cold circuit, evicted
    /// entry, or a config/shape mismatch).
    pub(crate) plan_cache_misses: AtomicU64,
    /// Time from submit to where the job's own execution starts, or where
    /// it is dropped.
    pub(crate) queue_wait: LatencyHistogram,
    /// Time from that start to result publication.
    pub(crate) execution: LatencyHistogram,
    /// Time from first failure of a job to its successful retried
    /// completion — the end-to-end recovery latency.
    pub(crate) recovery: LatencyHistogram,
    /// SHMEM traffic summed over every distributed job.
    pub(crate) traffic: Mutex<TrafficSnapshot>,
}

impl EngineMetrics {
    pub(crate) fn add_traffic(&self, t: &TrafficSnapshot) {
        let mut agg = self.traffic.lock().expect("traffic lock");
        *agg = agg.merged(t);
    }

    /// Point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            shutdown_dropped: self.shutdown_dropped.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_jobs: self.batched_jobs.load(Ordering::Relaxed),
            pool_created: self.pool_created.load(Ordering::Relaxed),
            pool_reused: self.pool_reused.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            hung: self.hung.load(Ordering::Relaxed),
            respawned: self.respawned.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            races_detected: self.races_detected.load(Ordering::Relaxed),
            remote_bytes_saved: self.remote_bytes_saved.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
            execution: self.execution.snapshot(),
            recovery: self.recovery.snapshot(),
            traffic: *self.traffic.lock().expect("traffic lock"),
            stages: Vec::new(),
            mem_in_flight_bytes: 0,
            mem_high_water_bytes: 0,
            mem_limit_bytes: None,
        }
    }
}

/// Point-in-time engine metrics for reporting.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs refused at admission (queue full).
    pub rejected: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs failed (simulator error or worker panic).
    pub failed: u64,
    /// Jobs cancelled before execution.
    pub cancelled: u64,
    /// Jobs expired before execution.
    pub expired: u64,
    /// Jobs dropped by a non-draining shutdown.
    pub shutdown_dropped: u64,
    /// Coalesced batch executions.
    pub batches: u64,
    /// Sweep jobs served via batches.
    pub batched_jobs: u64,
    /// Pooled instances constructed.
    pub pool_created: u64,
    /// Checkouts satisfied from the pool.
    pub pool_reused: u64,
    /// Execution attempts re-run after a transient failure.
    pub retries: u64,
    /// Submissions refused because the job shape is quarantined.
    pub quarantined: u64,
    /// PE hangs detected by the process-backend watchdog.
    pub hung: u64,
    /// In-place PE respawns performed by the supervisor.
    pub respawned: u64,
    /// Halve-PEs degradation steps taken.
    pub degraded: u64,
    /// Bytes captured into state-vector checkpoints across all jobs.
    pub checkpoint_bytes: u64,
    /// SHMEM protocol races observed across all detector-on jobs.
    pub races_detected: u64,
    /// Remote bytes avoided by qubit remapping across all remapped jobs
    /// (analytic naive cost minus measured remapped traffic).
    pub remote_bytes_saved: u64,
    /// One-shot plans served from the structural plan cache the workers
    /// share.
    pub plan_cache_hits: u64,
    /// One-shot plans compiled fresh (cold, evicted, or shape mismatch).
    pub plan_cache_misses: u64,
    /// Queue-wait distribution: from the job's admission to where its own
    /// execution starts — for a one-shot, the moment a worker pops it off
    /// the engine's one queue; for a sweep point coalesced into a batch,
    /// the start of its own trial, after the members before it. A
    /// cancelled or expired job's wait ends where it is dropped. Every
    /// wait a job has before it runs is in here.
    pub queue_wait: LatencySnapshot,
    /// Service distribution: from that same start to the job's result
    /// being published, so it includes the plan lookup (and a compile on a
    /// cache miss), execution with its retries, and readback.
    pub execution: LatencySnapshot,
    /// First-failure-to-recovered-completion latency distribution.
    pub recovery: LatencySnapshot,
    /// Aggregated SHMEM traffic over all distributed jobs.
    pub traffic: TrafficSnapshot,
    /// Occupancy of the engine's queue: one entry, named "admit".
    pub stages: Vec<StageSnapshot>,
    /// State-vector bytes pinned by in-flight packets right now.
    pub mem_in_flight_bytes: u64,
    /// Highest in-flight byte total ever reached.
    pub mem_high_water_bytes: u64,
    /// The in-flight byte cap, [`crate::EngineConfig::memory_limit`].
    pub mem_limit_bytes: Option<u64>,
}

impl MetricsSnapshot {
    /// Jobs whose outcome has been published, successful or not.
    #[must_use]
    pub fn finished(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.expired + self.shutdown_dropped
    }

    /// Jobs accepted but not yet finished (queued or running).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.submitted.saturating_sub(self.finished())
    }

    /// Mean jobs per coalesced batch.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }

    /// Fraction of pool checkouts that avoided construction.
    #[must_use]
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_created + self.pool_reused;
        if total == 0 {
            0.0
        } else {
            self.pool_reused as f64 / total as f64
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: submitted={} completed={} failed={} rejected={} cancelled={} expired={} dropped={}",
            self.submitted,
            self.completed,
            self.failed,
            self.rejected,
            self.cancelled,
            self.expired,
            self.shutdown_dropped,
        )?;
        writeln!(
            f,
            "batching: batches={} batched_jobs={} mean_batch={:.2}",
            self.batches,
            self.batched_jobs,
            self.mean_batch_size()
        )?;
        writeln!(
            f,
            "pool: created={} reused={} hit_rate={:.1}%",
            self.pool_created,
            self.pool_reused,
            100.0 * self.pool_hit_rate()
        )?;
        writeln!(
            f,
            "plans: cache_hits={} cache_misses={}",
            self.plan_cache_hits, self.plan_cache_misses
        )?;
        writeln!(
            f,
            "robustness: retries={} quarantined={} checkpoint_bytes={} races_detected={}",
            self.retries, self.quarantined, self.checkpoint_bytes, self.races_detected
        )?;
        writeln!(
            f,
            "self-healing: hung={} respawned={} degraded={}",
            self.hung, self.respawned, self.degraded
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "stage {}: depth={} high_water={} pushed={} popped={} rejected={}",
                s.name, s.depth, s.high_water, s.pushed, s.popped, s.rejected
            )?;
        }
        if !self.stages.is_empty() {
            write!(
                f,
                "memory: in_flight_bytes={} high_water_bytes={}",
                self.mem_in_flight_bytes, self.mem_high_water_bytes
            )?;
            match self.mem_limit_bytes {
                Some(limit) => writeln!(f, " limit_bytes={limit}")?,
                None => writeln!(f)?,
            }
        }
        writeln!(f, "queue wait: {}", self.queue_wait)?;
        writeln!(f, "execution:  {}", self.execution)?;
        writeln!(f, "recovery:   {}", self.recovery)?;
        write!(
            f,
            "shmem traffic: remote_ops={} remote_bytes={} barriers={} remote_bytes_saved={}",
            self.traffic.remote_gets + self.traffic.remote_puts,
            self.traffic.remote_get_bytes + self.traffic.remote_put_bytes,
            self.traffic.barriers,
            self.remote_bytes_saved,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 4, 100, 1000, 1000, 1000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert!(s.mean_us() > 0.0);
        // p50 (rank 4 of 8) is the 100us observation: bucket upper edge 128.
        assert_eq!(s.quantile_us(0.5), 128);
        // p75 (rank 6) lands on 1000us: bucket upper edge 1024.
        assert_eq!(s.quantile_us(0.75), 1024);
        assert!(s.quantile_us(1.0) >= 100_000);
        assert!(s.quantile_us(0.0) >= 1);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = LatencyHistogram::default().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.quantile_us(0.99), 0);
    }

    #[test]
    fn snapshot_math() {
        let m = EngineMetrics::default();
        m.submitted.store(10, Ordering::Relaxed);
        m.completed.store(6, Ordering::Relaxed);
        m.failed.store(1, Ordering::Relaxed);
        m.batches.store(2, Ordering::Relaxed);
        m.batched_jobs.store(6, Ordering::Relaxed);
        m.pool_created.store(1, Ordering::Relaxed);
        m.pool_reused.store(3, Ordering::Relaxed);
        m.races_detected.store(2, Ordering::Relaxed);
        m.remote_bytes_saved.store(4096, Ordering::Relaxed);
        m.plan_cache_hits.store(5, Ordering::Relaxed);
        m.plan_cache_misses.store(2, Ordering::Relaxed);
        m.hung.store(1, Ordering::Relaxed);
        m.respawned.store(3, Ordering::Relaxed);
        m.degraded.store(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.races_detected, 2);
        assert_eq!(s.remote_bytes_saved, 4096);
        assert_eq!((s.plan_cache_hits, s.plan_cache_misses), (5, 2));
        assert_eq!((s.hung, s.respawned, s.degraded), (1, 3, 2));
        assert_eq!(s.finished(), 7);
        assert_eq!(s.in_flight(), 3);
        assert!((s.mean_batch_size() - 3.0).abs() < 1e-12);
        assert!((s.pool_hit_rate() - 0.75).abs() < 1e-12);
        // Display must not panic and should mention the headline counters.
        let text = s.to_string();
        assert!(text.contains("submitted=10"));
        assert!(text.contains("races_detected=2"));
        assert!(text.contains("remote_bytes_saved=4096"));
        assert!(text.contains("cache_hits=5 cache_misses=2"));
        assert!(text.contains("hung=1 respawned=3 degraded=2"));
    }
}
