//! Tuning parameters of the CLOUDS family of tree builders.

/// How the splitter point of a node is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMethod {
    /// Sampling the Splitting points: evaluate gini only at interval
    /// boundaries (one data pass per node).
    SS,
    /// Sampling the Splitting points with Estimation: SS plus a lower-bound
    /// pruning pass and an exact scan of the surviving ("alive") intervals.
    /// More scalable and robust — the paper's choice for pCLOUDS.
    SSE,
    /// The direct method: sort every numeric attribute and evaluate gini at
    /// every point (exact; used in-memory for small nodes).
    Direct,
}

/// Parameters shared by the sequential and parallel builders.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudsParams {
    /// Split derivation method (paper: SSE).
    pub method: SplitMethod,
    /// Number of intervals at the root (paper: 10,000).
    pub q_root: usize,
    /// Lower bound on the interval count as nodes shrink.
    pub q_min: usize,
    /// Number of records in the pre-drawn random sample used to place
    /// interval boundaries.
    pub sample_size: usize,
    /// Seed for drawing the sample.
    pub sample_seed: u64,
    /// Nodes with fewer records become leaves.
    pub min_node_size: u64,
    /// Nodes at least this pure (majority fraction) become leaves.
    pub purity_threshold: f64,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
}

impl Default for CloudsParams {
    fn default() -> Self {
        CloudsParams {
            method: SplitMethod::SSE,
            q_root: 1_000,
            q_min: 10,
            sample_size: 20_000,
            sample_seed: 0x00c1_00d5,
            min_node_size: 8,
            purity_threshold: 0.995,
            max_depth: 24,
        }
    }
}

impl CloudsParams {
    /// Interval count for a node of `n` records when the root had `n_root`:
    /// "the value of q decreases as the node size decreases (as in CLOUDS)".
    pub fn q_for_node(&self, n: u64, n_root: u64) -> usize {
        if n_root == 0 {
            return self.q_min.max(1);
        }
        let scaled = (self.q_root as u128 * n as u128 / n_root as u128) as usize;
        scaled.clamp(self.q_min.max(1), self.q_root.max(1))
    }

    /// Should a node with these statistics stop splitting?
    pub fn should_stop(&self, counts: &[u64], depth: usize) -> bool {
        let n: u64 = counts.iter().sum();
        n < self.min_node_size
            || depth >= self.max_depth
            || crate::gini::purity(counts) >= self.purity_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_schedule_scales_linearly_and_clamps() {
        let p = CloudsParams {
            q_root: 1000,
            q_min: 10,
            ..CloudsParams::default()
        };
        assert_eq!(p.q_for_node(1_000_000, 1_000_000), 1000);
        assert_eq!(p.q_for_node(500_000, 1_000_000), 500);
        assert_eq!(p.q_for_node(100, 1_000_000), 10, "clamped to q_min");
        assert_eq!(p.q_for_node(0, 0), 10);
    }

    #[test]
    fn stopping_criteria() {
        let p = CloudsParams {
            min_node_size: 10,
            purity_threshold: 0.9,
            max_depth: 3,
            ..CloudsParams::default()
        };
        assert!(p.should_stop(&[4, 4], 0), "too small");
        assert!(p.should_stop(&[95, 5], 0), "pure enough");
        assert!(p.should_stop(&[50, 50], 3), "max depth");
        assert!(!p.should_stop(&[50, 50], 2));
    }
}
