//! Per-job measurements.

/// Measurements of one BSP job, the analog of the Spark metrics the paper
//  reports (end-to-end run time split into map and mine stages, and
/// `shuffleWriteBytes` as shuffle size).
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Wall-clock nanoseconds of the map (+ combine + serialize) phase.
    pub map_nanos: u64,
    /// Wall-clock nanoseconds of the reduce ("mine") phase.
    pub reduce_nanos: u64,
    /// Records emitted by mappers, before combining.
    pub emitted_records: u64,
    /// Records written to the shuffle, after combining.
    pub shuffle_records: u64,
    /// Distinct payload byte strings written to the shuffle (per bucket
    /// chunk, post-interning) by combining jobs; 0 for plain map-reduce.
    pub shuffle_payloads: u64,
    /// Total serialized shuffle volume in bytes.
    pub shuffle_bytes: u64,
    /// Shuffle bytes received per reducer (for partition-balance analysis).
    pub reducer_bytes: Vec<u64>,
    /// Records produced by reducers.
    pub output_records: u64,
    /// Key-group tasks the reduce phase ran on the task executor
    /// (0 for job shapes that still reduce one whole bucket per task).
    pub reduce_tasks: u64,
    /// Successful task steals between reduce workers (0 when every worker
    /// drained its own share, or for non-scheduled job shapes).
    pub reduce_steals: u64,
    /// Tasks re-executed after a networked peer died or timed out with
    /// them in flight (0 for in-process transports: their tasks never
    /// need a second run).
    pub retried_tasks: u64,
    /// Networked peers declared dead because they went silent past the
    /// liveness window (0 in process, and 0 when peers only fail by
    /// closing their connection).
    pub peer_timeouts: u64,
    /// Wall-clock nanoseconds of the single slowest map or reduce task —
    /// the straggler that bounds the superstep barrier.
    pub max_task_nanos: u64,
    /// True when the job's cancellation token had tripped by the time the
    /// job finished — the results are complete and valid, but the caller
    /// asked for a stop (e.g. a drain-mode shutdown) concurrently with the
    /// final phase.
    pub cancelled: bool,
}

impl JobMetrics {
    /// Map-phase wall time in seconds.
    pub fn map_secs(&self) -> f64 {
        self.map_nanos as f64 / 1e9
    }

    /// Reduce-phase wall time in seconds.
    pub fn reduce_secs(&self) -> f64 {
        self.reduce_nanos as f64 / 1e9
    }

    /// Total job wall time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.map_secs() + self.reduce_secs()
    }

    /// Ratio of the largest reducer's byte volume to the mean — 1.0 is a
    /// perfectly balanced shuffle.
    pub fn balance(&self) -> f64 {
        if self.reducer_bytes.is_empty() || self.shuffle_bytes == 0 {
            return 1.0;
        }
        let max = *self.reducer_bytes.iter().max().unwrap() as f64;
        let mean = self.shuffle_bytes as f64 / self.reducer_bytes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Combine effectiveness: emitted records per shuffled record.
    pub fn combine_ratio(&self) -> f64 {
        if self.shuffle_records == 0 {
            1.0
        } else {
            self.emitted_records as f64 / self.shuffle_records as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let m = JobMetrics {
            map_nanos: 2_000_000_000,
            reduce_nanos: 500_000_000,
            emitted_records: 100,
            shuffle_records: 25,
            shuffle_payloads: 10,
            shuffle_bytes: 40,
            reducer_bytes: vec![10, 10, 20],
            output_records: 7,
            reduce_tasks: 0,
            reduce_steals: 0,
            retried_tasks: 0,
            peer_timeouts: 0,
            max_task_nanos: 0,
            cancelled: false,
        };
        assert!((m.map_secs() - 2.0).abs() < 1e-9);
        assert!((m.total_secs() - 2.5).abs() < 1e-9);
        assert!((m.combine_ratio() - 4.0).abs() < 1e-9);
        // max 20 vs mean 40/3
        assert!((m.balance() - 20.0 / (40.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn degenerate_metrics_do_not_divide_by_zero() {
        let m = JobMetrics::default();
        assert_eq!(m.balance(), 1.0);
        assert_eq!(m.combine_ratio(), 1.0);
        assert_eq!(m.total_secs(), 0.0);
    }
}
