//! Cost model of the simulated coarse-grained machine.
//!
//! The paper models the cost of one message as `O(alpha + beta * m)` on a
//! cut-through routed network (alpha = handshake/startup, beta = inverse
//! bandwidth) and assumes a shared-nothing architecture where every
//! processor owns a local disk. We make those constants explicit and add the
//! two ingredients the paper appeals to when explaining its measurements:
//! per-record computation rates and a simple cache model (the source of the
//! observed superlinear speedup, together with aggregate disk bandwidth).
//!
//! Default constants are chosen to be plausible for the paper's testbed, a
//! 16-node IBM SP2 (~40us message latency, ~35 MB/s link bandwidth,
//! ~10 MB/s per-node disk streaming).

/// Kinds of charged computation. Rates are configured in [`ComputeRates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Scanning one record and updating running statistics (histograms,
    /// count matrices) for all attributes of that record.
    RecordScan,
    /// One comparison (sorting, searching).
    Compare,
    /// Evaluating the gini index once at a candidate split point.
    GiniEval,
    /// Updating one entry of a class-frequency vector.
    HistUpdate,
    /// Moving one byte of memory (packing/unpacking buffers).
    MemcpyByte,
    /// Applying a split predicate to one record.
    SplitTest,
    /// Generic bookkeeping operation.
    Misc,
}

/// All the [`OpKind`] variants, for iteration in counters and reports.
pub const ALL_OP_KINDS: [OpKind; 7] = [
    OpKind::RecordScan,
    OpKind::Compare,
    OpKind::GiniEval,
    OpKind::HistUpdate,
    OpKind::MemcpyByte,
    OpKind::SplitTest,
    OpKind::Misc,
];

impl OpKind {
    /// Stable index of this kind inside per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            OpKind::RecordScan => 0,
            OpKind::Compare => 1,
            OpKind::GiniEval => 2,
            OpKind::HistUpdate => 3,
            OpKind::MemcpyByte => 4,
            OpKind::SplitTest => 5,
            OpKind::Misc => 6,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::RecordScan => "record_scan",
            OpKind::Compare => "compare",
            OpKind::GiniEval => "gini_eval",
            OpKind::HistUpdate => "hist_update",
            OpKind::MemcpyByte => "memcpy_byte",
            OpKind::SplitTest => "split_test",
            OpKind::Misc => "misc",
        }
    }
}

/// Seconds charged per operation of each kind.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeRates {
    /// Indexed by [`OpKind::index`].
    pub seconds_per_op: [f64; 7],
}

impl ComputeRates {
    /// Rate lookup for one kind.
    pub fn rate(&self, kind: OpKind) -> f64 {
        self.seconds_per_op[kind.index()]
    }
}

impl Default for ComputeRates {
    fn default() -> Self {
        let mut seconds_per_op = [0.0; 7];
        seconds_per_op[OpKind::RecordScan.index()] = 1.2e-6;
        seconds_per_op[OpKind::Compare.index()] = 8.0e-8;
        seconds_per_op[OpKind::GiniEval.index()] = 2.5e-7;
        seconds_per_op[OpKind::HistUpdate.index()] = 6.0e-8;
        seconds_per_op[OpKind::MemcpyByte.index()] = 2.0e-9;
        seconds_per_op[OpKind::SplitTest.index()] = 3.0e-7;
        seconds_per_op[OpKind::Misc.index()] = 1.0e-7;
        ComputeRates { seconds_per_op }
    }
}

/// Interconnect parameters of the cut-through routed network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Message startup / handshake time in seconds (the paper's `ts`).
    pub alpha: f64,
    /// Inverse bandwidth in seconds per byte (the paper's `tw`).
    pub beta: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            alpha: 40e-6,
            beta: 1.0 / 35.0e6,
        }
    }
}

impl NetworkParams {
    /// Cost of one point-to-point message of `bytes` payload bytes.
    /// Cut-through routing makes this distance-insensitive.
    pub fn message_cost(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }
}

/// Local disk parameters (each processor owns one, shared-nothing).
///
/// Includes a **buffer cache**: when the working set being streamed (the
/// file) fits within `cache_bytes`, requests are served at memory speed
/// with no seek. This models the per-node OS file cache and is one of the
/// two sources of the paper's superlinear speedup ("the gain in I/O
/// bandwidth with data being distributed across multiple disks") — with
/// more processors, each node's slice of a tree node's data shrinks until
/// it fits the node-local cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Fixed cost per I/O request (seek + rotational + controller), seconds.
    pub access_latency: f64,
    /// Streaming bandwidth, bytes per second.
    pub bandwidth: f64,
    /// Per-node buffer-cache capacity, bytes.
    pub cache_bytes: usize,
    /// Bandwidth when the working set fits the buffer cache, bytes/second.
    pub cached_bandwidth: f64,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            access_latency: 10e-3,
            bandwidth: 10.0e6,
            cache_bytes: 96 << 20,
            cached_bandwidth: 12.0e6,
        }
    }
}

impl DiskParams {
    /// Cost of one request transferring `bytes` bytes from the platter
    /// (cache-oblivious form).
    pub fn transfer_cost(&self, bytes: usize) -> f64 {
        self.access_latency + bytes as f64 / self.bandwidth
    }

    /// Cost of one request of `bytes` when streaming a file of
    /// `working_set_bytes`: served from the buffer cache when the file
    /// fits, from the platter otherwise.
    pub fn transfer_cost_ws(&self, bytes: usize, working_set_bytes: usize) -> f64 {
        if working_set_bytes <= self.cache_bytes {
            bytes as f64 / self.cached_bandwidth
        } else {
            self.transfer_cost(bytes)
        }
    }
}

/// Cache model: scans over working sets that fit the cache run faster.
///
/// The paper attributes part of its superlinear speedup to "cache effects":
/// with more processors, each node's per-processor slice shrinks and starts
/// fitting in cache. We model this with a single threshold and a speedup
/// factor applied to compute charges whose declared working set fits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheParams {
    /// Effective cache size in bytes.
    pub capacity_bytes: usize,
    /// Multiplier (< 1.0) applied to compute cost when the working set fits.
    pub in_cache_factor: f64,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            capacity_bytes: 4 << 20,
            in_cache_factor: 0.8,
        }
    }
}

impl CacheParams {
    /// The multiplier to apply for a working set of `bytes`.
    pub fn factor(&self, working_set_bytes: usize) -> f64 {
        if working_set_bytes <= self.capacity_bytes {
            self.in_cache_factor
        } else {
            1.0
        }
    }
}

/// Complete machine cost model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostModel {
    /// Interconnect.
    pub network: NetworkParams,
    /// Per-processor local disk.
    pub disk: DiskParams,
    /// Computation rates.
    pub compute: ComputeRates,
    /// Cache model.
    pub cache: CacheParams,
}

impl CostModel {
    /// Seconds for `count` operations of `kind` with no cache adjustment.
    pub fn compute_cost(&self, kind: OpKind, count: u64) -> f64 {
        self.compute.rate(kind) * count as f64
    }

    /// Seconds for `count` operations of `kind` whose working set is
    /// `working_set_bytes` (cache-adjusted).
    pub fn compute_cost_ws(&self, kind: OpKind, count: u64, working_set_bytes: usize) -> f64 {
        self.compute_cost(kind, count) * self.cache.factor(working_set_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_is_affine() {
        let net = NetworkParams {
            alpha: 1e-5,
            beta: 1e-8,
        };
        let c0 = net.message_cost(0);
        let c1 = net.message_cost(1000);
        assert!((c0 - 1e-5).abs() < 1e-15);
        assert!((c1 - (1e-5 + 1e-5)).abs() < 1e-12);
    }

    #[test]
    fn disk_transfer_cost() {
        let d = DiskParams {
            access_latency: 0.01,
            bandwidth: 1e6,
            cache_bytes: 1_000,
            cached_bandwidth: 10e6,
        };
        let c = d.transfer_cost(500_000);
        assert!((c - 0.51).abs() < 1e-12);
        // Cached path: no seek, faster bandwidth.
        let cached = d.transfer_cost_ws(500, 900);
        assert!((cached - 500.0 / 10e6).abs() < 1e-12);
        // Working set too large: falls back to the platter cost.
        let cold = d.transfer_cost_ws(500, 2_000);
        assert!((cold - (0.01 + 500.0 / 1e6)).abs() < 1e-12);
    }

    #[test]
    fn cache_factor_thresholds() {
        let cache = CacheParams {
            capacity_bytes: 100,
            in_cache_factor: 0.5,
        };
        assert_eq!(cache.factor(100), 0.5);
        assert_eq!(cache.factor(101), 1.0);
    }

    #[test]
    fn compute_cost_scales_linearly() {
        let m = CostModel::default();
        let one = m.compute_cost(OpKind::Compare, 1);
        let many = m.compute_cost(OpKind::Compare, 1000);
        assert!((many - 1000.0 * one).abs() < 1e-12);
    }

    #[test]
    fn op_kind_indices_are_unique_and_dense() {
        let mut seen = [false; 7];
        for k in ALL_OP_KINDS {
            assert!(!seen[k.index()], "duplicate index for {:?}", k);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn default_rates_are_positive() {
        let rates = ComputeRates::default();
        for k in ALL_OP_KINDS {
            assert!(rates.rate(k) > 0.0, "{:?} rate must be positive", k);
        }
    }
}
