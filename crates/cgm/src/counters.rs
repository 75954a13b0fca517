//! Per-processor accounting: operation counts, message traffic, disk I/O and
//! the breakdown of virtual time into compute / communication / I/O / idle.

use crate::cost::{OpKind, ALL_OP_KINDS};

/// Mutable counters owned by one virtual processor. Cheap to update (plain
/// integer adds, no synchronization — each processor owns its own).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Operation counts indexed by [`OpKind::index`].
    pub ops: [u64; 7],
    /// Messages sent.
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Disk read requests issued.
    pub disk_reads: u64,
    /// Bytes read from the local disk.
    pub disk_read_bytes: u64,
    /// Disk write requests issued.
    pub disk_writes: u64,
    /// Bytes written to the local disk.
    pub disk_write_bytes: u64,
    /// Transmission attempts dropped by fault injection and retransmitted.
    pub link_retries: u64,
    /// Delivered messages that were delayed in flight by fault injection.
    pub link_delays: u64,
    /// Sends that failed permanently (all retransmissions dropped).
    pub link_failures: u64,
    /// Transient disk read errors retried by fault injection.
    pub disk_retries: u64,
    /// Buffer-pool page hits (request satisfied without touching the device).
    pub cache_hits: u64,
    /// Buffer-pool page misses (request had to go to the device timeline).
    pub cache_misses: u64,
    /// Pages evicted from the buffer pool to stay within the byte budget.
    pub cache_evictions: u64,
    /// Pages requested speculatively by the prefetch scheduler.
    pub prefetches: u64,
    /// Virtual seconds spent computing.
    pub compute_time: f64,
    /// Virtual seconds spent in communication (send cost + wait-for-message).
    pub comm_time: f64,
    /// Virtual seconds spent on local disk I/O.
    pub io_time: f64,
    /// Virtual seconds charged by injected faults (link retransmission
    /// timeouts, transient disk-error retries) — kept out of `comm_time` /
    /// `io_time` so those reflect the healthy machine's work.
    pub fault_time: f64,
    /// Virtual seconds the compute clock stalled waiting for an asynchronous
    /// device request to complete (`io_device_wait` past the completion time).
    pub io_stall_time: f64,
    /// Virtual seconds of device service that overlapped with compute instead
    /// of stalling the consumer (`service - stall`, clamped at zero per wait).
    pub io_overlapped_time: f64,
    /// Total virtual seconds of service charged on the device timeline
    /// (includes both overlapped and stalled portions, plus retry penalties
    /// of in-flight faulted reads).
    pub io_device_time: f64,
}

impl Counters {
    /// Record `count` operations of `kind`.
    pub fn add_ops(&mut self, kind: OpKind, count: u64) {
        self.ops[kind.index()] += count;
    }

    /// Total operations across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Merge another processor's counters into this one (for aggregate
    /// reports).
    pub fn merge(&mut self, other: &Counters) {
        for k in ALL_OP_KINDS {
            self.ops[k.index()] += other.ops[k.index()];
        }
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_received += other.messages_received;
        self.bytes_received += other.bytes_received;
        self.disk_reads += other.disk_reads;
        self.disk_read_bytes += other.disk_read_bytes;
        self.disk_writes += other.disk_writes;
        self.disk_write_bytes += other.disk_write_bytes;
        self.link_retries += other.link_retries;
        self.link_delays += other.link_delays;
        self.link_failures += other.link_failures;
        self.disk_retries += other.disk_retries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.prefetches += other.prefetches;
        self.compute_time += other.compute_time;
        self.comm_time += other.comm_time;
        self.io_time += other.io_time;
        self.fault_time += other.fault_time;
        self.io_stall_time += other.io_stall_time;
        self.io_overlapped_time += other.io_overlapped_time;
        self.io_device_time += other.io_device_time;
    }

    /// Field-wise difference `self - earlier`: the counter activity since a
    /// snapshot was taken. Used for per-span rollups (see [`crate::span`]).
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        let mut d = Counters::default();
        for k in ALL_OP_KINDS {
            d.ops[k.index()] = self.ops[k.index()] - earlier.ops[k.index()];
        }
        d.messages_sent = self.messages_sent - earlier.messages_sent;
        d.bytes_sent = self.bytes_sent - earlier.bytes_sent;
        d.messages_received = self.messages_received - earlier.messages_received;
        d.bytes_received = self.bytes_received - earlier.bytes_received;
        d.disk_reads = self.disk_reads - earlier.disk_reads;
        d.disk_read_bytes = self.disk_read_bytes - earlier.disk_read_bytes;
        d.disk_writes = self.disk_writes - earlier.disk_writes;
        d.disk_write_bytes = self.disk_write_bytes - earlier.disk_write_bytes;
        d.link_retries = self.link_retries - earlier.link_retries;
        d.link_delays = self.link_delays - earlier.link_delays;
        d.link_failures = self.link_failures - earlier.link_failures;
        d.disk_retries = self.disk_retries - earlier.disk_retries;
        d.cache_hits = self.cache_hits - earlier.cache_hits;
        d.cache_misses = self.cache_misses - earlier.cache_misses;
        d.cache_evictions = self.cache_evictions - earlier.cache_evictions;
        d.prefetches = self.prefetches - earlier.prefetches;
        d.compute_time = self.compute_time - earlier.compute_time;
        d.comm_time = self.comm_time - earlier.comm_time;
        d.io_time = self.io_time - earlier.io_time;
        d.fault_time = self.fault_time - earlier.fault_time;
        d.io_stall_time = self.io_stall_time - earlier.io_stall_time;
        d.io_overlapped_time = self.io_overlapped_time - earlier.io_overlapped_time;
        d.io_device_time = self.io_device_time - earlier.io_device_time;
        d
    }
}

/// Immutable snapshot returned for each processor after a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcStats {
    /// Processor rank.
    pub rank: usize,
    /// Final virtual clock value, seconds.
    pub finish_time: f64,
    /// Accumulated counters.
    pub counters: Counters,
    /// Recorded spans in open order (empty unless
    /// [`crate::MachineConfig::spans`] is set).
    pub spans: Vec<crate::span::SpanRecord>,
    /// Recorded gauge points in recording order (empty unless
    /// [`crate::MachineConfig::gauges`] is set). Resolve into step series
    /// with [`crate::gauge::resolve_series`].
    pub gauges: Vec<crate::gauge::GaugePoint>,
    /// Replayable event DAG in program order (empty unless
    /// [`crate::MachineConfig::record`] is set) — the one thing a
    /// processor records about time. Assemble across ranks with
    /// [`crate::evg::EventGraph::from_stats`]; every timestamped view
    /// ([`crate::export`], [`crate::trace`]) is a replay of it.
    pub events: Vec<crate::evg::Ev>,
    /// Span-name table referenced by [`crate::evg::Ev::Enter`] events.
    pub event_names: Vec<&'static str>,
}

impl ProcStats {
    /// Seconds not attributed to compute, comm, I/O, device stalls or
    /// injected faults (waiting at synchronization points, load imbalance).
    ///
    /// `io_stall_time` covers the compute clock's exposure to asynchronous
    /// device requests; `io_device_time` itself stays off this identity
    /// because the overlapped portion runs concurrently with compute.
    pub fn idle_time(&self) -> f64 {
        (self.finish_time
            - self.counters.compute_time
            - self.counters.comm_time
            - self.counters.io_time
            - self.counters.fault_time
            - self.counters.io_stall_time)
            .max(0.0)
    }

    /// Seconds charged by injected faults (see [`Counters::fault_time`]).
    pub fn fault_time(&self) -> f64 {
        self.counters.fault_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OpKind;

    #[test]
    fn add_and_total_ops() {
        let mut c = Counters::default();
        c.add_ops(OpKind::Compare, 10);
        c.add_ops(OpKind::Compare, 5);
        c.add_ops(OpKind::GiniEval, 2);
        assert_eq!(c.ops[OpKind::Compare.index()], 15);
        assert_eq!(c.total_ops(), 17);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Counters::default();
        a.add_ops(OpKind::RecordScan, 3);
        a.bytes_sent = 100;
        a.compute_time = 1.0;
        let mut b = Counters::default();
        b.add_ops(OpKind::RecordScan, 4);
        b.bytes_sent = 50;
        b.compute_time = 0.5;
        a.merge(&b);
        assert_eq!(a.ops[OpKind::RecordScan.index()], 7);
        assert_eq!(a.bytes_sent, 150);
        assert!((a.compute_time - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_includes_fault_time() {
        let mut a = Counters {
            fault_time: 0.5,
            ..Counters::default()
        };
        let b = Counters {
            fault_time: 0.25,
            ..Counters::default()
        };
        a.merge(&b);
        assert!((a.fault_time - 0.75).abs() < 1e-12);
    }

    #[test]
    fn delta_since_subtracts_every_field() {
        let mut earlier = Counters::default();
        earlier.add_ops(OpKind::Compare, 5);
        earlier.bytes_sent = 10;
        earlier.compute_time = 1.0;
        earlier.fault_time = 0.125;
        let mut later = earlier.clone();
        later.add_ops(OpKind::Compare, 7);
        later.bytes_sent += 90;
        later.compute_time += 2.0;
        later.fault_time += 0.375;
        later.disk_read_bytes = 64;
        later.cache_hits = 9;
        later.cache_misses = 2;
        later.io_stall_time = 0.25;
        later.io_overlapped_time = 0.75;
        later.io_device_time = 1.0;
        let d = later.delta_since(&earlier);
        assert_eq!(d.ops[OpKind::Compare.index()], 7);
        assert_eq!(d.bytes_sent, 90);
        assert_eq!(d.disk_read_bytes, 64);
        assert_eq!(d.cache_hits, 9);
        assert_eq!(d.cache_misses, 2);
        assert!((d.compute_time - 2.0).abs() < 1e-12);
        assert!((d.fault_time - 0.375).abs() < 1e-12);
        assert!((d.io_stall_time - 0.25).abs() < 1e-12);
        assert!((d.io_overlapped_time - 0.75).abs() < 1e-12);
        assert!((d.io_device_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_includes_device_fields() {
        let mut a = Counters {
            io_stall_time: 0.5,
            io_overlapped_time: 1.0,
            io_device_time: 1.5,
            cache_hits: 3,
            cache_evictions: 1,
            prefetches: 2,
            ..Counters::default()
        };
        let b = Counters {
            io_stall_time: 0.25,
            io_overlapped_time: 0.5,
            io_device_time: 0.75,
            cache_hits: 4,
            cache_evictions: 2,
            prefetches: 1,
            ..Counters::default()
        };
        a.merge(&b);
        assert!((a.io_stall_time - 0.75).abs() < 1e-12);
        assert!((a.io_overlapped_time - 1.5).abs() < 1e-12);
        assert!((a.io_device_time - 2.25).abs() < 1e-12);
        assert_eq!(a.cache_hits, 7);
        assert_eq!(a.cache_evictions, 3);
        assert_eq!(a.prefetches, 3);
    }

    #[test]
    fn idle_time_never_negative() {
        let stats = ProcStats {
            rank: 0,
            finish_time: 1.0,
            counters: Counters {
                compute_time: 2.0,
                ..Counters::default()
            },
            spans: Vec::new(),
            gauges: Vec::new(),
            events: Vec::new(),
            event_names: Vec::new(),
        };
        assert_eq!(stats.idle_time(), 0.0);
    }

    #[test]
    fn idle_time_is_remainder_after_fault_time() {
        let stats = ProcStats {
            rank: 0,
            finish_time: 10.0,
            counters: Counters {
                compute_time: 4.0,
                comm_time: 3.0,
                io_time: 1.5,
                fault_time: 0.5,
                ..Counters::default()
            },
            spans: Vec::new(),
            gauges: Vec::new(),
            events: Vec::new(),
            event_names: Vec::new(),
        };
        assert!((stats.idle_time() - 1.0).abs() < 1e-12);
        assert!((stats.fault_time() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_time_subtracts_io_stall() {
        let stats = ProcStats {
            rank: 0,
            finish_time: 10.0,
            counters: Counters {
                compute_time: 4.0,
                comm_time: 3.0,
                io_stall_time: 2.0,
                io_overlapped_time: 5.0, // overlapped: deliberately not subtracted
                io_device_time: 7.0,
                ..Counters::default()
            },
            spans: Vec::new(),
            gauges: Vec::new(),
            events: Vec::new(),
            event_names: Vec::new(),
        };
        assert!((stats.idle_time() - 1.0).abs() < 1e-12);
    }
}
