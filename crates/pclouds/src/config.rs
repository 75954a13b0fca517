//! pCLOUDS configuration.

use pdc_clouds::CloudsParams;

/// Parameters of a pCLOUDS training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PcloudsConfig {
    /// The CLOUDS algorithm parameters (q schedule, stopping rules, method).
    pub clouds: CloudsParams,
    /// Per-processor memory budget for streaming out-of-core passes, in
    /// bytes. The paper "used a memory limit of 1 MB for 6.0 million tuples
    /// \[and\] linearly scaled \[it\] based on the size for other data sets".
    pub memory_limit_bytes: usize,
    /// Switch from data parallelism to (delayed) task parallelism when a
    /// node's interval count drops to this value — "we used a value of ten
    /// (in terms of the number of intervals) for the threshold".
    pub switch_threshold_intervals: usize,
}

impl Default for PcloudsConfig {
    fn default() -> Self {
        PcloudsConfig {
            clouds: CloudsParams::default(),
            memory_limit_bytes: 1 << 20,
            switch_threshold_intervals: 10,
        }
    }
}

impl PcloudsConfig {
    /// The paper's configuration, with the memory limit scaled linearly in
    /// the training-set size (1 MB at 6 million tuples).
    pub fn paper_scaled(n_records: u64) -> Self {
        let mem = ((n_records as f64 / 6.0e6) * (1 << 20) as f64).max(64.0 * 1024.0) as usize;
        PcloudsConfig {
            memory_limit_bytes: mem,
            ..PcloudsConfig::default()
        }
    }

    /// Streaming chunk size in records for the given record size.
    pub fn chunk_records(&self, record_bytes: usize) -> usize {
        (self.memory_limit_bytes / record_bytes.max(1)).max(1)
    }

    /// Largest node (in records) the mixed strategy treats as *small* for a
    /// run rooted at `n_root` records: the node sizes where the q schedule
    /// ([`CloudsParams::q_for_node`]) has dropped to the switch threshold.
    /// This bounds the data any one small task makes resident on its owner
    /// (see [`pdc_dnc::OocProblem::task_bytes`]).
    pub fn small_task_max_records(&self, n_root: u64) -> u64 {
        let t = self.switch_threshold_intervals;
        if self.clouds.q_min.max(1) > t {
            return 0; // the q schedule never drops to the threshold
        }
        if n_root == 0 {
            return u64::MAX; // degenerate: every node is small
        }
        // q_for_node(n) <= t  ⟺  floor(q_root·n / n_root) <= t
        //                     ⟺  n <= ((t+1)·n_root − 1) / q_root
        let q_root = self.clouds.q_root.max(1) as u128;
        (((t as u128 + 1) * n_root as u128 - 1) / q_root) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_records_from_memory_limit() {
        let cfg = PcloudsConfig {
            memory_limit_bytes: 1040,
            ..PcloudsConfig::default()
        };
        assert_eq!(cfg.chunk_records(52), 20);
        assert_eq!(cfg.chunk_records(0), 1040);
        let tiny = PcloudsConfig {
            memory_limit_bytes: 10,
            ..PcloudsConfig::default()
        };
        assert_eq!(tiny.chunk_records(52), 1, "never zero");
    }

    #[test]
    fn small_task_bound_matches_the_q_schedule() {
        let cfg = PcloudsConfig::default();
        let n_root = 72_000;
        let bound = cfg.small_task_max_records(n_root);
        assert!(bound > 0);
        let is_small = |n: u64| {
            cfg.clouds.q_for_node(n, n_root) <= cfg.switch_threshold_intervals
        };
        assert!(is_small(bound), "the bound itself must still be small");
        assert!(!is_small(bound + 1), "the bound must be tight");
        let never = PcloudsConfig {
            switch_threshold_intervals: 3, // below q_min = 10
            ..PcloudsConfig::default()
        };
        assert_eq!(never.small_task_max_records(n_root), 0);
    }

    #[test]
    fn paper_scaling_is_linear_with_floor() {
        let at_6m = PcloudsConfig::paper_scaled(6_000_000);
        assert_eq!(at_6m.memory_limit_bytes, 1 << 20);
        let at_3m = PcloudsConfig::paper_scaled(3_000_000);
        assert_eq!(at_3m.memory_limit_bytes, (1 << 20) / 2);
        let small = PcloudsConfig::paper_scaled(1_000);
        assert_eq!(small.memory_limit_bytes, 64 * 1024, "floor applies");
    }
}
