//! Replayable event graphs: the complete causal record of one run.
//!
//! This is the one thing a processor records about time. Spans and gauges
//! describe what a run *did*; the event DAG additionally answers what it
//! *would have done* on different hardware, and every timestamped view of
//! a run (Chrome trace, critical path, ASCII timeline) is derived from it
//! by replay. When [`crate::MachineConfig::record`] is on, every virtual
//! processor appends one [`Ev`] per clock-affecting primitive — compute
//! charges, disk requests, message pushes and receives, asynchronous device
//! submissions and waits — in program order. The per-rank event lists form
//! a dependency-carrying DAG:
//!
//! * **message edges** — the k-th [`Ev::Recv`] on rank `d` matching
//!   `(src, tag)` pairs with the k-th [`Ev::Push`] from `src` to `d` with
//!   `tag` (the mailbox delivers per-(src, tag) FIFO in sender program
//!   order, so the pairing is positional and needs no ids);
//! * **device edges** — [`Ev::Wait`] names the per-rank submission index
//!   (`req`) of the [`Ev::Submit`] whose completion it blocks on;
//! * **program edges** — each rank's list is totally ordered.
//!
//! Every event stores its *recorded* duration **and** the cost components
//! it decomposes into (latency vs. transfer, seek vs. bandwidth, fault
//! penalties), so [`mod@crate::replay`] can re-time the DAG under a
//! [`crate::replay::CostOverride`] while guaranteeing that the identity
//! override replays the recorded total verbatim — bit-exactly, because
//! waits and stalls are always *recomputed* from the dependencies and the
//! primitive durations pass through untouched when their factors are 1.0.
//!
//! Recording is pure observation: it never reads or influences the virtual
//! clock, so record-on runs are bit-identical to record-off runs.
//!
//! Graphs persist via [`crate::wire::Wire`] as `results/*.evg` artifacts
//! (see [`EventGraph::save`] / [`EventGraph::load`]).

use std::path::Path;

use crate::counters::ProcStats;
use crate::wire::{DecodeError, DecodeResult, Wire};

/// [`Ev::Compute`] kind index used for raw [`crate::Proc::advance_compute`]
/// charges (indices `0..7` are [`crate::OpKind::index`] values).
pub const COMPUTE_RAW: u8 = 7;

/// [`Ev::Fault`] kind: a transient disk-read retry penalty.
pub const FAULT_DISK: u8 = 0;
/// [`Ev::Fault`] kind: a dropped-transmission retry penalty (message cost
/// plus ack timeout).
pub const FAULT_LINK: u8 = 1;

/// One recorded clock-affecting primitive of one virtual processor.
///
/// Durations are the run's *charged* seconds (straggler skew and
/// degraded-bandwidth windows already applied); component fields decompose
/// them for re-timing. Replay recomputes every wait from dependencies, so
/// no event stores a wait duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// A compute charge: `clock += seconds`.
    Compute {
        /// [`crate::OpKind::index`] of the charge, or [`COMPUTE_RAW`].
        kind: u8,
        /// Charged seconds.
        seconds: f64,
    },
    /// A synchronous local-disk request: `clock += seconds`.
    Disk {
        /// Read (true) or write (false).
        read: bool,
        /// Payload bytes moved.
        bytes: u64,
        /// Total charged seconds.
        seconds: f64,
        /// Seek/access-latency component of `seconds` (0 when the request
        /// was served from the buffer cache); the rest is transfer.
        seek: f64,
    },
    /// A fault penalty charged to the clock: `clock += seconds`.
    Fault {
        /// [`FAULT_DISK`] or [`FAULT_LINK`].
        kind: u8,
        /// Charged seconds.
        seconds: f64,
    },
    /// A message push: `clock += seconds`, then the message arrives at the
    /// destination at `clock + delay`.
    Push {
        /// Physical destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// Charged sender seconds (`alpha + beta * bytes`; 0 for the
        /// poison tombstone a permanently failed send leaves behind — its
        /// cost was already charged as [`Ev::Fault`] penalties).
        seconds: f64,
        /// Startup-latency (`alpha`) component of `seconds`; the rest is
        /// transfer (`beta * bytes`).
        lat: f64,
        /// Extra in-flight delay before arrival (link-delay fault), seconds.
        delay: f64,
        /// Whether the message is a poison tombstone.
        poison: bool,
    },
    /// A blocking receive matching the k-th [`Ev::Push`] from `src` with
    /// `tag` addressed to this rank: `clock = max(clock, arrival)`, the
    /// gap charged as communication wait.
    Recv {
        /// Physical source rank.
        src: u32,
        /// Message tag.
        tag: u32,
    },
    /// An asynchronous submission to the rank's I/O device timeline: the
    /// request occupies the device for `service` seconds starting at
    /// `max(device_free, clock)`; the compute clock does not advance.
    /// Its per-rank submission index (position among this rank's `Submit`
    /// events) is the `req` named by [`Ev::Wait`].
    Submit {
        /// Read (true) or write (false).
        read: bool,
        /// Payload bytes moved.
        bytes: u64,
        /// Total device service seconds.
        service: f64,
        /// Seek/access-latency component of `service`.
        seek: f64,
        /// Transient-retry penalty component of `service`; the rest
        /// (`service - seek - fault`) is transfer.
        fault: f64,
        /// Transient read errors retried on the device before success.
        retries: u32,
    },
    /// A blocking wait for device request `req`: the exposed stall
    /// (`completion - clock`, when positive) charges the clock.
    Wait {
        /// Per-rank submission index of the awaited [`Ev::Submit`].
        req: u64,
        /// Service seconds the waiting ticket attributed to this consumer
        /// (a shared prefetch ticket carries a per-page share of the
        /// submission's service; used only for overlap accounting).
        service: f64,
    },
    /// A blocking wait until the device is idle (`device_free`).
    SyncDev,
    /// A span opened (only recorded when spans are enabled): `name` indexes
    /// the graph's name table. Span-name cost overrides scale every
    /// primitive duration recorded while the span is open.
    Enter {
        /// Index into [`EventGraph::names`] (per-rank table before
        /// [`EventGraph::from_stats`] rewrites it).
        name: u32,
    },
    /// The innermost open span closed.
    Exit,
}

impl Wire for Ev {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Ev::Compute { kind, seconds } => {
                0u8.encode(buf);
                kind.encode(buf);
                seconds.encode(buf);
            }
            Ev::Disk { read, bytes, seconds, seek } => {
                1u8.encode(buf);
                read.encode(buf);
                bytes.encode(buf);
                seconds.encode(buf);
                seek.encode(buf);
            }
            Ev::Fault { kind, seconds } => {
                2u8.encode(buf);
                kind.encode(buf);
                seconds.encode(buf);
            }
            Ev::Push { dst, tag, bytes, seconds, lat, delay, poison } => {
                3u8.encode(buf);
                dst.encode(buf);
                tag.encode(buf);
                bytes.encode(buf);
                seconds.encode(buf);
                lat.encode(buf);
                delay.encode(buf);
                poison.encode(buf);
            }
            Ev::Recv { src, tag } => {
                4u8.encode(buf);
                src.encode(buf);
                tag.encode(buf);
            }
            Ev::Submit { read, bytes, service, seek, fault, retries } => {
                5u8.encode(buf);
                read.encode(buf);
                bytes.encode(buf);
                service.encode(buf);
                seek.encode(buf);
                fault.encode(buf);
                retries.encode(buf);
            }
            Ev::Wait { req, service } => {
                6u8.encode(buf);
                req.encode(buf);
                service.encode(buf);
            }
            Ev::SyncDev => 7u8.encode(buf),
            Ev::Enter { name } => {
                8u8.encode(buf);
                name.encode(buf);
            }
            Ev::Exit => 9u8.encode(buf),
        }
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            0 => Ev::Compute { kind: u8::decode(buf)?, seconds: f64::decode(buf)? },
            1 => Ev::Disk {
                read: bool::decode(buf)?,
                bytes: u64::decode(buf)?,
                seconds: f64::decode(buf)?,
                seek: f64::decode(buf)?,
            },
            2 => Ev::Fault { kind: u8::decode(buf)?, seconds: f64::decode(buf)? },
            3 => Ev::Push {
                dst: u32::decode(buf)?,
                tag: u32::decode(buf)?,
                bytes: u64::decode(buf)?,
                seconds: f64::decode(buf)?,
                lat: f64::decode(buf)?,
                delay: f64::decode(buf)?,
                poison: bool::decode(buf)?,
            },
            4 => Ev::Recv { src: u32::decode(buf)?, tag: u32::decode(buf)? },
            5 => Ev::Submit {
                read: bool::decode(buf)?,
                bytes: u64::decode(buf)?,
                service: f64::decode(buf)?,
                seek: f64::decode(buf)?,
                fault: f64::decode(buf)?,
                retries: u32::decode(buf)?,
            },
            6 => Ev::Wait { req: u64::decode(buf)?, service: f64::decode(buf)? },
            7 => Ev::SyncDev,
            8 => Ev::Enter { name: u32::decode(buf)? },
            9 => Ev::Exit,
            _ => {
                return Err(DecodeError {
                    what: "unknown Ev tag",
                    remaining: buf.len(),
                    trailing: false,
                })
            }
        })
    }
}

/// Per-rank busy-time breakdown, mirroring the time categories of
/// [`crate::Counters`]. Stored in the graph (the recorded run's truth) and
/// produced by replay for comparison / utilization reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Seconds of charged computation.
    pub compute: f64,
    /// Seconds of communication (send charges plus receive waits).
    pub comm: f64,
    /// Seconds of synchronous disk I/O.
    pub io: f64,
    /// Seconds of fault penalties.
    pub fault: f64,
    /// Seconds the compute clock stalled on the I/O device.
    pub io_stall: f64,
    /// Seconds of device service that overlapped computation.
    pub io_overlapped: f64,
    /// Seconds of device service (background device occupancy).
    pub io_device: f64,
}

impl Breakdown {
    /// Seconds the rank's compute clock was busy (everything that advanced
    /// it): `compute + comm + io + fault + io_stall`.
    pub fn busy(&self) -> f64 {
        self.compute + self.comm + self.io + self.fault + self.io_stall
    }

    /// Largest absolute component difference against `other` (used by the
    /// identity-replay checks).
    pub fn max_abs_diff(&self, other: &Breakdown) -> f64 {
        [
            self.compute - other.compute,
            self.comm - other.comm,
            self.io - other.io,
            self.fault - other.fault,
            self.io_stall - other.io_stall,
            self.io_overlapped - other.io_overlapped,
            self.io_device - other.io_device,
        ]
        .iter()
        .fold(0.0f64, |m, d| m.max(d.abs()))
    }
}

impl Wire for Breakdown {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.compute.encode(buf);
        self.comm.encode(buf);
        self.io.encode(buf);
        self.fault.encode(buf);
        self.io_stall.encode(buf);
        self.io_overlapped.encode(buf);
        self.io_device.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        Ok(Breakdown {
            compute: f64::decode(buf)?,
            comm: f64::decode(buf)?,
            io: f64::decode(buf)?,
            fault: f64::decode(buf)?,
            io_stall: f64::decode(buf)?,
            io_overlapped: f64::decode(buf)?,
            io_device: f64::decode(buf)?,
        })
    }
}

/// Format version written at the head of every encoded graph.
pub const EVG_VERSION: u32 = 2;

/// The complete recorded event DAG of one run: per-rank event lists, a
/// shared span-name table, and the recorded finish times / busy breakdowns
/// replay validates itself against.
#[derive(Debug, Clone, PartialEq)]
pub struct EventGraph {
    /// Number of virtual processors.
    pub nprocs: usize,
    /// Span-name table; [`Ev::Enter::name`] indexes into it.
    pub names: Vec<String>,
    /// Per-rank event lists in program order.
    pub ranks: Vec<Vec<Ev>>,
    /// Recorded per-rank finish times (virtual seconds).
    pub finish: Vec<f64>,
    /// Recorded per-rank busy breakdowns.
    pub recorded: Vec<Breakdown>,
}

impl EventGraph {
    /// Assemble a graph from a finished run's stats, merging the per-rank
    /// span-name tables into one shared table. Panics if the run was not
    /// recorded with [`crate::MachineConfig::record`] but did charge time
    /// (an empty graph for a busy run would replay to nonsense).
    pub fn from_stats(stats: &[ProcStats]) -> EventGraph {
        let mut names: Vec<String> = Vec::new();
        let mut ranks = Vec::with_capacity(stats.len());
        for s in stats {
            assert!(
                !s.events.is_empty() || s.finish_time == 0.0,
                "cgm: rank {} charged {}s but recorded no events — enable \
                 MachineConfig::record before building an EventGraph",
                s.rank,
                s.finish_time
            );
            // Remap this rank's local name table into the shared one.
            let remap: Vec<u32> = s
                .event_names
                .iter()
                .map(|&n| match names.iter().position(|g| g == n) {
                    Some(i) => i as u32,
                    None => {
                        names.push(n.to_string());
                        (names.len() - 1) as u32
                    }
                })
                .collect();
            let evs = s
                .events
                .iter()
                .map(|&ev| match ev {
                    Ev::Enter { name } => Ev::Enter { name: remap[name as usize] },
                    other => other,
                })
                .collect();
            ranks.push(evs);
        }
        EventGraph {
            nprocs: stats.len(),
            names,
            ranks,
            finish: stats.iter().map(|s| s.finish_time).collect(),
            recorded: stats
                .iter()
                .map(|s| Breakdown {
                    compute: s.counters.compute_time,
                    comm: s.counters.comm_time,
                    io: s.counters.io_time,
                    fault: s.counters.fault_time,
                    io_stall: s.counters.io_stall_time,
                    io_overlapped: s.counters.io_overlapped_time,
                    io_device: s.counters.io_device_time,
                })
                .collect(),
        }
    }

    /// Recorded makespan (slowest rank's finish time).
    pub fn makespan(&self) -> f64 {
        self.finish.iter().cloned().fold(0.0, f64::max)
    }

    /// Total recorded events across all ranks.
    pub fn event_count(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }

    /// Check that the graph is one a run could have recorded — everything
    /// [`mod@crate::replay`] indexes by is in range, every receive has a
    /// push to pair with and the receives can be scheduled — naming the
    /// rank and event index of the first violation. Graphs from
    /// [`EventGraph::from_stats`] pass by construction; bytes from outside
    /// the program ([`EventGraph::load`]) are checked before use. A valid
    /// graph replays without panicking under any [`crate::CostOverride`].
    pub fn validate(&self) -> Result<(), String> {
        crate::replay::try_replay(self, &crate::CostOverride::identity()).map(|_| ())
    }

    /// The rank-local half of [`EventGraph::validate`]: shapes, index
    /// ranges, span balance and durations.
    pub(crate) fn check_events(&self) -> Result<(), String> {
        let p = self.nprocs;
        if self.ranks.len() != p || self.finish.len() != p || self.recorded.len() != p {
            return Err(format!(
                "nprocs is {p} but ranks/finish/recorded hold {}/{}/{} entries",
                self.ranks.len(),
                self.finish.len(),
                self.recorded.len()
            ));
        }
        for (r, evs) in self.ranks.iter().enumerate() {
            let (mut submits, mut depth) = (0u64, 0usize);
            for (i, ev) in evs.iter().enumerate() {
                let at = |what: String| format!("rank {r} event {i}: {what}");
                let ensure = |ok: bool, what: &dyn Fn() -> String| {
                    if ok {
                        Ok(())
                    } else {
                        Err(at(what()))
                    }
                };
                let durations = match *ev {
                    Ev::Compute { kind, seconds } => {
                        ensure(kind <= COMPUTE_RAW, &|| format!("compute kind {kind}"))?;
                        [seconds, 0.0, 0.0]
                    }
                    Ev::Disk { seconds, seek, .. } => [seconds, seek, 0.0],
                    Ev::Fault { kind, seconds } => {
                        ensure(kind <= FAULT_LINK, &|| format!("fault kind {kind}"))?;
                        [seconds, 0.0, 0.0]
                    }
                    Ev::Push { dst, seconds, lat, delay, .. } => {
                        ensure((dst as usize) < p, &|| format!("push to rank {dst} of {p}"))?;
                        [seconds, lat, delay]
                    }
                    Ev::Recv { src, .. } => {
                        ensure((src as usize) < p, &|| format!("receive from rank {src} of {p}"))?;
                        [0.0; 3]
                    }
                    Ev::Submit { service, seek, fault, .. } => {
                        submits += 1;
                        [service, seek, fault]
                    }
                    Ev::Wait { req, service } => {
                        ensure(req < submits, &|| {
                            format!("waits on request {req} of {submits} submitted")
                        })?;
                        [service, 0.0, 0.0]
                    }
                    Ev::SyncDev => {
                        ensure(submits > 0, &|| "device sync before any submission".into())?;
                        [0.0; 3]
                    }
                    Ev::Enter { name } => {
                        let known = self.names.len();
                        ensure((name as usize) < known, &|| format!("span name {name} of {known}"))?;
                        depth += 1;
                        [0.0; 3]
                    }
                    Ev::Exit => {
                        ensure(depth > 0, &|| "closes a span that was never opened".into())?;
                        depth -= 1;
                        [0.0; 3]
                    }
                };
                if let Some(d) = durations.iter().find(|d| !(d.is_finite() && **d >= 0.0)) {
                    return Err(at(format!("duration {d} is not a finite non-negative number")));
                }
            }
        }
        Ok(())
    }

    /// Write the graph to `path` in its [`Wire`] encoding.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_bytes())
    }

    /// Decode and [`EventGraph::validate`] a graph from bytes produced
    /// outside this process.
    pub fn from_untrusted(bytes: &[u8]) -> Result<EventGraph, String> {
        let graph = EventGraph::from_bytes(bytes).map_err(|e| e.to_string())?;
        graph.validate()?;
        Ok(graph)
    }

    /// Read and validate a graph previously written by
    /// [`EventGraph::save`].
    pub fn load(path: &Path) -> Result<EventGraph, String> {
        std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| EventGraph::from_untrusted(&bytes))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Wire for EventGraph {
    fn encode(&self, buf: &mut Vec<u8>) {
        EVG_VERSION.encode(buf);
        self.nprocs.encode(buf);
        self.names.encode(buf);
        self.ranks.encode(buf);
        self.finish.encode(buf);
        self.recorded.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let version = u32::decode(buf)?;
        if version != EVG_VERSION {
            return Err(DecodeError {
                what: "unsupported event-graph version",
                remaining: buf.len(),
                trailing: false,
            });
        }
        Ok(EventGraph {
            nprocs: usize::decode(buf)?,
            names: Vec::<String>::decode(buf)?,
            ranks: Vec::<Vec<Ev>>::decode(buf)?,
            finish: Vec::<f64>::decode(buf)?,
            recorded: Vec::<Breakdown>::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ev_wire_roundtrip() {
        let evs = vec![
            Ev::Compute { kind: COMPUTE_RAW, seconds: 1.25 },
            Ev::Disk { read: true, bytes: 4096, seconds: 0.5, seek: 0.01 },
            Ev::Fault { kind: FAULT_LINK, seconds: 2e-3 },
            Ev::Push {
                dst: 3,
                tag: 7,
                bytes: 100,
                seconds: 4e-5,
                lat: 4e-5,
                delay: 1e-3,
                poison: false,
            },
            Ev::Recv { src: 1, tag: 9 },
            Ev::Submit { read: false, bytes: 1 << 16, service: 0.02, seek: 0.01, fault: 0.0, retries: 2 },
            Ev::Wait { req: 5, service: 0.004 },
            Ev::SyncDev,
            Ev::Enter { name: 2 },
            Ev::Exit,
        ];
        let bytes = evs.to_bytes();
        assert_eq!(Vec::<Ev>::from_bytes(&bytes).unwrap(), evs);
    }

    #[test]
    fn ev_rejects_unknown_tag() {
        assert!(Ev::from_bytes(&[200u8]).is_err());
    }

    #[test]
    fn graph_wire_roundtrip_and_version_gate() {
        let g = EventGraph {
            nprocs: 2,
            names: vec!["a.b".into(), "c".into()],
            ranks: vec![
                vec![Ev::Enter { name: 0 }, Ev::Compute { kind: 0, seconds: 1.0 }, Ev::Exit],
                vec![Ev::Recv { src: 0, tag: 1 }],
            ],
            finish: vec![1.0, 2.0],
            recorded: vec![Breakdown { compute: 1.0, ..Breakdown::default() }, Breakdown::default()],
        };
        let bytes = g.to_bytes();
        assert_eq!(EventGraph::from_bytes(&bytes).unwrap(), g);
        // Corrupt the version word.
        let mut bad = bytes.clone();
        bad[0] = 0xFF;
        assert!(EventGraph::from_bytes(&bad).is_err());
    }

    #[test]
    fn breakdown_busy_and_diff() {
        let a = Breakdown { compute: 1.0, comm: 2.0, io: 3.0, fault: 0.5, io_stall: 0.25, ..Breakdown::default() };
        assert!((a.busy() - 6.75).abs() < 1e-12);
        let mut b = a;
        b.io = 3.5;
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
    #[test]
    fn validate_names_the_rank_and_event_of_each_violation() {
        let push = |dst| Ev::Push { dst, tag: 1, bytes: 8, seconds: 0.1, lat: 0.0, delay: 0.0, poison: false };
        let submit = Ev::Submit { read: true, bytes: 8, service: 0.1, seek: 0.0, fault: 0.0, retries: 0 };
        let graph = |ranks: Vec<Vec<Ev>>| EventGraph {
            nprocs: 2,
            names: vec!["a".into()],
            ranks,
            finish: vec![0.0; 2],
            recorded: vec![Breakdown::default(); 2],
        };
        let ok = graph(vec![
            vec![Ev::Enter { name: 0 }, push(1), submit, Ev::Wait { req: 0, service: 0.1 }, Ev::SyncDev, Ev::Exit],
            vec![Ev::Recv { src: 0, tag: 1 }],
        ]);
        assert_eq!(ok.validate(), Ok(()));
        for (rank0, rank1, at, what) in [
            (vec![Ev::Compute { kind: 8, seconds: 1.0 }], vec![], "rank 0 event 0", "compute kind"),
            (vec![Ev::Compute { kind: 0, seconds: f64::NAN }], vec![], "rank 0 event 0", "duration"),
            (vec![Ev::Compute { kind: 0, seconds: -1.0 }], vec![], "rank 0 event 0", "duration"),
            (vec![Ev::Fault { kind: 2, seconds: 0.0 }], vec![], "rank 0 event 0", "fault kind"),
            (vec![], vec![push(2)], "rank 1 event 0", "push to rank 2"),
            (vec![], vec![Ev::Recv { src: 7, tag: 1 }], "rank 1 event 0", "receive from rank 7"),
            (vec![push(1)], vec![Ev::Recv { src: 0, tag: 1 }, Ev::Recv { src: 0, tag: 1 }], "rank 1 event 1", "no unmatched push"),
            (vec![submit, Ev::Wait { req: 1, service: 0.0 }], vec![], "rank 0 event 1", "request 1 of 1"),
            (vec![Ev::SyncDev], vec![], "rank 0 event 0", "before any submission"),
            (vec![Ev::Enter { name: 1 }], vec![], "rank 0 event 0", "span name 1 of 1"),
            (vec![Ev::Enter { name: 0 }, Ev::Exit, Ev::Exit], vec![], "rank 0 event 2", "never opened"),
            // Each rank receives before it pushes: the order cannot be scheduled.
            (vec![Ev::Recv { src: 1, tag: 1 }, push(1)], vec![Ev::Recv { src: 0, tag: 1 }, push(0)], "event 0", "receive cycle"),
        ] {
            let err = graph(vec![rank0, rank1]).validate().unwrap_err();
            assert!(err.contains(at) && err.contains(what), "{err}");
        }
        let mut short = ok.clone();
        short.finish.pop();
        assert!(short.validate().unwrap_err().contains("nprocs is 2"));
        // Decoding untrusted bytes runs the same checks.
        assert!(EventGraph::from_untrusted(&short.to_bytes()).is_err());
        assert_eq!(EventGraph::from_untrusted(&ok.to_bytes()), Ok(ok));
    }

}
