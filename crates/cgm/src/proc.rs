//! A virtual processor of the simulated coarse-grained machine.
//!
//! [`Proc`] is the handle an SPMD closure receives. It carries the
//! processor's rank, its **virtual clock**, its accounting counters and the
//! communication endpoints. Everything the algorithm does that costs time on
//! the modeled machine must be *charged*:
//!
//! * computation via [`Proc::charge`] / [`Proc::charge_ws`];
//! * local disk traffic via [`Proc::disk_read`] / [`Proc::disk_write`];
//! * communication implicitly via [`Proc::send`] / [`Proc::recv`] and the
//!   collectives, whose schedules are charged as those messages.
//!
//! Messages physically move real bytes between OS threads (a collective
//! hands typed values over on its board and replays its messages'
//! accounting; see [`crate::collectives`]); only *time* is simulated. A
//! receive completes at `max(receiver clock, sender clock at send
//! completion)` which yields the usual `alpha + beta * m` point-to-point
//! model with blocking sends.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cost::{CostModel, OpKind};
use crate::counters::Counters;
use crate::evg::{Ev, COMPUTE_RAW, FAULT_DISK, FAULT_LINK};
use crate::exec::Exec;
use crate::fault::{FaultError, FaultPlan, Transit, STREAM_DISK_READ};
use crate::gauge::GaugePoint;
use crate::group::Group;
use crate::mailbox::Message;
use crate::span::{SpanAttr, SpanRecord, SpanToken, SPAN_DISABLED};
use crate::wire::Wire;

/// Tags below this bound are free for application use; tags at or above it
/// are reserved for collectives.
pub const RESERVED_TAG_BASE: u32 = 0xF000_0000;

/// Handle to one asynchronous request on a rank's I/O device timeline.
///
/// Returned by [`Proc::io_device_submit`]; pass it to
/// [`Proc::io_device_wait`] when the data is actually consumed. The compute
/// clock is only charged for the portion of `service` that had not already
/// completed in the background by then.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoTicket {
    /// Device-clock time the request completes.
    pub completion: f64,
    /// Seconds of device service the request consumed (transfer time plus
    /// any transient-fault retry penalties served on the device).
    pub service: f64,
    /// Per-rank submission index of the request (its position among this
    /// rank's submissions). Event-graph recording keys device waits on it;
    /// derived tickets that share a submission (e.g. per-page prefetch
    /// shares) must carry the originating submission's index.
    pub req: u64,
}

/// Immutable, shared state of one cluster run.
pub struct SharedMachine {
    /// Cost model of the machine.
    pub cost: CostModel,
    /// One mailbox per processor and the run's liveness state (see
    /// [`crate::exec`]).
    pub(crate) exec: Exec,
    /// Whether processors record spans (see [`crate::span`]).
    pub spans: bool,
    /// Whether processors record gauges (see [`crate::gauge`]).
    pub gauges: bool,
    /// Deterministic fault-injection plan (see [`crate::fault`]).
    pub faults: FaultPlan,
    /// Precomputed [`FaultPlan::is_inert`]: when true, every fault code
    /// path is skipped and virtual times are bit-identical to a machine
    /// without fault injection.
    pub faults_inert: bool,
    /// Whether processors record the replayable event DAG (see
    /// [`crate::evg`]). Pure observation: record-on runs stay
    /// bit-identical to record-off runs.
    pub record: bool,
}

impl SharedMachine {
    /// Whether sends draw link faults: with neither drops nor delays every
    /// transit is [`Transit::CLEAN`] and no link sequence number is
    /// consumed.
    pub(crate) fn link_faults(&self) -> bool {
        let link = &self.faults.link;
        !self.faults_inert && (link.drop_prob > 0.0 || link.delay_prob > 0.0)
    }
}

/// Active communicator scope of one processor (see [`Proc::scoped`]):
/// while set, the public rank/size accessors and the point-to-point
/// endpoints present the subgroup as if it were the whole machine.
struct Scope {
    /// Global ranks of the subgroup, ascending.
    members: Arc<[usize]>,
    /// This processor's rank within `members`.
    local: usize,
}

/// Handle to one virtual processor, passed to the SPMD closure.
pub struct Proc {
    rank: usize,
    nprocs: usize,
    /// Active communicator scope, if any (no nesting).
    scope: Option<Scope>,
    clock: f64,
    shared: Arc<SharedMachine>,
    /// Accounting counters (public so substrates like the I/O layer can
    /// record domain-specific totals through helper methods).
    pub counters: Counters,
    /// Recorded spans (open order) and the stack of currently open ones.
    spans: Vec<SpanRecord>,
    span_stack: Vec<u32>,
    /// Recorded gauge points (see [`crate::gauge`]), in recording order.
    gauges: Vec<GaugePoint>,
    /// This rank's straggler multiplier (1.0 when healthy / faults inert).
    skew: f64,
    /// Per-destination message sequence numbers (fault-decision streams).
    link_seq: Vec<u64>,
    /// Local-disk request sequence number (fault-decision stream).
    disk_seq: u64,
    /// Second deterministic timeline per rank: the virtual time at which the
    /// local I/O device becomes free. Asynchronous requests submitted via
    /// [`Proc::io_device_submit`] serialize on it.
    device_free: f64,
    /// Count of device submissions so far (the `req` index of the next
    /// [`IoTicket`]); maintained even when recording is off so tickets are
    /// identical either way.
    submit_seq: u64,
    /// Recorded replayable events (empty unless [`SharedMachine::record`]).
    events: Vec<Ev>,
    /// Span-name table referenced by [`Ev::Enter`] events, plus the
    /// interning map that builds it.
    ev_names: Vec<&'static str>,
    ev_name_ids: HashMap<&'static str, u32>,
}

impl Proc {
    /// Internal constructor used by the cluster driver.
    pub(crate) fn new(rank: usize, nprocs: usize, shared: Arc<SharedMachine>) -> Self {
        let skew = if shared.faults_inert {
            1.0
        } else {
            shared.faults.skew_of(rank)
        };
        Proc {
            rank,
            nprocs,
            scope: None,
            clock: 0.0,
            shared,
            counters: Counters::default(),
            spans: Vec::new(),
            span_stack: Vec::new(),
            gauges: Vec::new(),
            skew,
            link_seq: vec![0; nprocs],
            disk_seq: 0,
            device_free: 0.0,
            submit_seq: 0,
            events: Vec::new(),
            ev_names: Vec::new(),
            ev_name_ids: HashMap::new(),
        }
    }

    /// This processor's rank in `0..nprocs`. Inside [`Proc::scoped`] this
    /// is the **group-local** rank, so SPMD code written against the world
    /// runs unmodified inside a subgroup.
    pub fn rank(&self) -> usize {
        match &self.scope {
            Some(s) => s.local,
            None => self.rank,
        }
    }

    /// This processor's physical (machine-wide) rank, independent of any
    /// active communicator scope. Fault plans, disks and recorded events are
    /// keyed on this identity.
    pub fn world_rank(&self) -> usize {
        self.rank
    }

    /// The physical machine width, independent of any active scope.
    pub fn world_nprocs(&self) -> usize {
        self.nprocs
    }

    /// Run `f` with this processor's communicator scoped to `group`: inside
    /// the closure [`Proc::rank`] / [`Proc::nprocs`] report group-local
    /// values and every point-to-point endpoint (hence every collective
    /// built on them) addresses group-local ranks, translated to physical
    /// ranks at the wire. Disjoint subgroups communicate independently, so
    /// concurrent scoped regions on different subgroups never interfere.
    ///
    /// SPMD contract: every member of `group` must enter the same scoped
    /// region; this processor must be a member. Scopes do not nest.
    ///
    /// Virtual time, counters, spans, gauges and fault decisions are
    /// unaffected — a scope over the world group is free and behaviorally
    /// identical to unscoped execution.
    pub fn scoped<T>(&mut self, group: &Group, f: impl FnOnce(&mut Proc) -> T) -> T {
        assert!(
            self.scope.is_none(),
            "cgm: nested communicator scopes are not supported"
        );
        let local = group.local(self.rank).unwrap_or_else(|| {
            panic!(
                "cgm: rank {} entered a scope of a group it is not a member of",
                self.rank
            )
        });
        self.scope = Some(Scope {
            members: group.members().into(),
            local,
        });
        let out = f(self);
        self.scope = None;
        out
    }

    /// Physical rank of peer rank `peer` as seen by this processor: under
    /// an active scope, the global rank of the group-local peer; unscoped,
    /// the identity. Fault-plan lookups (skews, failed sets) must be keyed
    /// on physical identities, so scoped schedulers translate through this.
    pub fn peer_world_rank(&self, peer: usize) -> usize {
        self.resolve_peer(peer)
    }

    /// Translate a peer rank through the active scope (identity when
    /// unscoped). Panics on an out-of-range scoped peer.
    fn resolve_peer(&self, peer: usize) -> usize {
        match &self.scope {
            Some(s) => {
                assert!(
                    peer < s.members.len(),
                    "peer rank {peer} out of scoped group of {}",
                    s.members.len()
                );
                s.members[peer]
            }
            None => peer,
        }
    }

    /// The active communicator as physical ranks, ascending, and this
    /// processor's place in it: the scope's group, or the world.
    pub(crate) fn communicator(&self) -> (Arc<[usize]>, usize) {
        match &self.scope {
            Some(s) => (Arc::clone(&s.members), s.local),
            None => (self.shared.exec.world(), self.rank),
        }
    }

    /// The run's shared machine state.
    pub(crate) fn shared(&self) -> Arc<SharedMachine> {
        Arc::clone(&self.shared)
    }

    /// This processor's next link sequence number toward each of
    /// `members` when sends draw link faults; empty otherwise.
    pub(crate) fn link_seqs(&self, members: &[usize]) -> Vec<u64> {
        if self.shared.link_faults() {
            members.iter().map(|&m| self.link_seq[m]).collect()
        } else {
            Vec::new()
        }
    }

    /// Number of processors in the machine. Inside [`Proc::scoped`] this is
    /// the **subgroup** size.
    pub fn nprocs(&self) -> usize {
        match &self.scope {
            Some(s) => s.members.len(),
            None => self.nprocs,
        }
    }

    /// Current virtual time, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The machine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.cost
    }

    /// The machine's fault plan (inert by default; see [`crate::fault`]).
    pub fn faults(&self) -> &FaultPlan {
        &self.shared.faults
    }

    /// This rank's straggler multiplier (1.0 = healthy full speed). Charged
    /// compute and disk time is scaled by this factor.
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Straggler-scale `secs` (identity when healthy, preserving zero-fault
    /// bit-identity).
    fn scaled(&self, secs: f64) -> f64 {
        if self.skew != 1.0 {
            secs * self.skew
        } else {
            secs
        }
    }

    // ------------------------------------------------------------------
    // Charging
    // ------------------------------------------------------------------

    /// Advance the clock by raw `seconds` of computation.
    pub fn advance_compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative compute charge");
        self.clock += seconds;
        self.counters.compute_time += seconds;
        self.record_ev(Ev::Compute { kind: COMPUTE_RAW, seconds });
    }

    /// Charge `count` operations of `kind`. Straggler skew (see
    /// [`crate::fault::FaultPlan::skew`]) scales the charge.
    pub fn charge(&mut self, kind: OpKind, count: u64) {
        self.counters.add_ops(kind, count);
        let secs = self.scaled(self.shared.cost.compute_cost(kind, count));
        self.clock += secs;
        self.counters.compute_time += secs;
        self.record_ev(Ev::Compute { kind: kind.index() as u8, seconds: secs });
    }

    /// Append one replayable event (pure observation — never reads or
    /// advances the clock; see [`crate::evg`]).
    fn record_ev(&mut self, ev: Ev) {
        if self.shared.record {
            self.events.push(ev);
        }
    }

    // ------------------------------------------------------------------
    // Spans
    // ------------------------------------------------------------------

    /// Whether this run records spans (see [`crate::MachineConfig::spans`]).
    /// Instrumentation can use this to skip building expensive attributes.
    pub fn spans_enabled(&self) -> bool {
        self.shared.spans
    }

    /// Open a span named `name` with `attrs` at the current virtual time.
    /// Spans nest and must be closed LIFO with [`Proc::span_end`]; opening
    /// and closing never charges the virtual clock. When spans are disabled
    /// this is a no-op returning an inert token.
    ///
    /// ```
    /// use pdc_cgm::{Cluster, MachineConfig, OpKind};
    ///
    /// let mut cfg = MachineConfig::default();
    /// cfg.spans = true;
    /// let out = Cluster::with_config(2, cfg).run(|proc| {
    ///     let t = proc.span("phase.work", &[("items", 10)]);
    ///     proc.charge(OpKind::Misc, 10);
    ///     proc.span_end(t);
    /// });
    /// let span = &out.stats[0].spans[0];
    /// assert_eq!(span.name, "phase.work");
    /// assert!(span.seconds() > 0.0);
    /// ```
    pub fn span(&mut self, name: &'static str, attrs: &[SpanAttr]) -> SpanToken {
        if !self.shared.spans {
            return SpanToken { index: SPAN_DISABLED };
        }
        let index = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            name,
            attrs: attrs.to_vec(),
            parent: self.span_stack.last().copied(),
            depth: self.span_stack.len() as u32,
            start: self.clock,
            end: f64::NAN,
            // Snapshot of the counters at open; replaced by the delta when
            // the span closes.
            delta: self.counters.clone(),
        });
        self.span_stack.push(index);
        if self.shared.record {
            let id = match self.ev_name_ids.get(name) {
                Some(&i) => i,
                None => {
                    let i = self.ev_names.len() as u32;
                    self.ev_names.push(name);
                    self.ev_name_ids.insert(name, i);
                    i
                }
            };
            self.events.push(Ev::Enter { name: id });
        }
        SpanToken { index }
    }

    /// Close the span opened by the matching [`Proc::span`] call. Panics if
    /// `token` does not belong to the innermost open span (spans must close
    /// in LIFO order) — unbalanced instrumentation is a programming error.
    pub fn span_end(&mut self, token: SpanToken) {
        if token.index == SPAN_DISABLED {
            return;
        }
        let top = self.span_stack.pop().unwrap_or_else(|| {
            panic!(
                "cgm: rank {}: span_end for \"{}\" but no span is open — \
                 unbalanced span open/close",
                self.rank, self.spans[token.index as usize].name
            )
        });
        if top != token.index {
            panic!(
                "cgm: rank {}: span_end for \"{}\" (index {}) but the innermost \
                 open span is \"{}\" (index {}) — spans must close in LIFO order",
                self.rank,
                self.spans[token.index as usize].name,
                token.index,
                self.spans[top as usize].name,
                top
            );
        }
        let record = &mut self.spans[top as usize];
        record.end = self.clock;
        record.delta = self.counters.delta_since(&record.delta);
        self.record_ev(Ev::Exit);
    }

    /// Run `f` inside a span: open, call, close. Convenience for bodies
    /// without early exits from the caller's scope.
    pub fn in_span<T>(
        &mut self,
        name: &'static str,
        attrs: &[SpanAttr],
        f: impl FnOnce(&mut Proc) -> T,
    ) -> T {
        let token = self.span(name, attrs);
        let out = f(self);
        self.span_end(token);
        out
    }

    // ------------------------------------------------------------------
    // Gauges
    // ------------------------------------------------------------------

    /// Whether this run records gauges (see
    /// [`crate::MachineConfig::gauges`]). Instrumentation can use this to
    /// skip computing expensive sample values.
    pub fn gauges_enabled(&self) -> bool {
        self.shared.gauges
    }

    /// Record an absolute sample of gauge `name` at the current virtual
    /// time. Pure observation: never advances the clock or touches
    /// counters; a no-op when gauges are disabled.
    ///
    /// ```
    /// use pdc_cgm::{Cluster, MachineConfig, OpKind};
    ///
    /// let mut cfg = MachineConfig::default();
    /// cfg.gauges = true;
    /// let out = Cluster::with_config(1, cfg).run(|proc| {
    ///     proc.gauge("app.queue", 3.0);
    ///     proc.charge(OpKind::Misc, 10);
    ///     proc.gauge("app.queue", 1.0);
    /// });
    /// let series = pdc_cgm::gauge::resolve_series(&out.stats[0].gauges);
    /// assert_eq!(series[0].name, "app.queue");
    /// assert_eq!(series[0].peak(), 3.0);
    /// ```
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if self.shared.gauges {
            self.gauges.push(GaugePoint {
                name,
                time: self.clock,
                value,
                absolute: true,
            });
        }
    }

    /// Record an absolute sample of gauge `name` at an explicit virtual
    /// `time` (which may lie before the current clock). Used by
    /// instrumentation that only learns a window's aggregate after the
    /// window closed — e.g. the serving telemetry records a window's
    /// throughput at the window's end time when the first batch of the
    /// *next* window completes. Pure observation; a no-op when gauges are
    /// disabled.
    pub fn gauge_at(&mut self, name: &'static str, time: f64, value: f64) {
        if self.shared.gauges {
            self.gauges.push(GaugePoint {
                name,
                time,
                value,
                absolute: true,
            });
        }
    }

    /// Record a delta event on gauge `name` at an explicit virtual `time`
    /// (which may differ from the current clock — see the [`crate::gauge`]
    /// module docs for why interval occupancy is recorded this way). Pure
    /// observation; a no-op when gauges are disabled.
    pub fn gauge_delta(&mut self, name: &'static str, time: f64, delta: f64) {
        if self.shared.gauges {
            self.gauges.push(GaugePoint {
                name,
                time,
                value: delta,
                absolute: false,
            });
        }
    }

    /// Charge `count` operations of `kind` over a working set of
    /// `working_set_bytes` (cache-adjusted: charges less when it fits).
    pub fn charge_ws(&mut self, kind: OpKind, count: u64, working_set_bytes: usize) {
        self.counters.add_ops(kind, count);
        let secs = self.scaled(
            self.shared
                .cost
                .compute_cost_ws(kind, count, working_set_bytes),
        );
        self.clock += secs;
        self.counters.compute_time += secs;
        self.record_ev(Ev::Compute { kind: kind.index() as u8, seconds: secs });
    }

    /// Charge one local-disk read request of `bytes`.
    pub fn disk_read(&mut self, bytes: usize) {
        // No working-set information: assume a cold (platter) transfer.
        self.disk_read_ws(bytes, usize::MAX);
    }

    /// Charge one read of `bytes` from a file of `working_set_bytes`
    /// (buffer-cache aware: cheap when the file fits the node cache).
    /// Panics if fault injection makes the read fail permanently — use
    /// [`Proc::try_disk_read_ws`] in fault-aware code.
    pub fn disk_read_ws(&mut self, bytes: usize, working_set_bytes: usize) {
        self.try_disk_read_ws(bytes, working_set_bytes)
            .unwrap_or_else(|e| {
                panic!("cgm: rank {} unrecoverable disk read: {e}", self.rank)
            });
    }

    /// Fault-aware variant of [`Proc::disk_read_ws`]: transient read errors
    /// are retried (each failed attempt charges
    /// [`crate::fault::DiskFaults::retry_penalty`]); when all attempts fail
    /// the read surfaces [`FaultError::Disk`]. With an inert fault plan this
    /// is exactly `disk_read_ws` and always succeeds.
    pub fn try_disk_read_ws(
        &mut self,
        bytes: usize,
        working_set_bytes: usize,
    ) -> Result<(), FaultError> {
        if !self.shared.faults_inert && self.shared.faults.disk.read_error_prob > 0.0 {
            let seq = self.disk_seq;
            self.disk_seq += 1;
            let prob = self.shared.faults.disk.read_error_prob;
            let max_retries = self.shared.faults.disk.max_retries;
            let mut attempt: u32 = 0;
            loop {
                let stream = [STREAM_DISK_READ, self.rank as u64, seq, attempt as u64];
                if !self.shared.faults.decide(&stream, prob) {
                    break;
                }
                let penalty = self.scaled(self.shared.faults.disk.retry_penalty);
                self.clock += penalty;
                self.counters.fault_time += penalty;
                self.counters.disk_retries += 1;
                self.record_ev(Ev::Fault { kind: FAULT_DISK, seconds: penalty });
                if attempt >= max_retries {
                    return Err(FaultError::Disk { rank: self.rank });
                }
                attempt += 1;
            }
        }
        let secs = self.disk_secs(bytes, working_set_bytes);
        if self.shared.record {
            let seek = self.disk_seek_secs(working_set_bytes);
            self.events.push(Ev::Disk { read: true, bytes: bytes as u64, seconds: secs, seek });
        }
        self.clock += secs;
        self.counters.io_time += secs;
        self.counters.disk_reads += 1;
        self.counters.disk_read_bytes += bytes as u64;
        Ok(())
    }

    /// Charge one local-disk write request of `bytes`.
    pub fn disk_write(&mut self, bytes: usize) {
        self.disk_write_ws(bytes, usize::MAX);
    }

    /// Charge one write of `bytes` to a file of `working_set_bytes`
    /// (write-back buffer cache when the file fits). Writes see degraded
    /// bandwidth and straggler skew but no transient errors (the write-back
    /// cache absorbs them).
    pub fn disk_write_ws(&mut self, bytes: usize, working_set_bytes: usize) {
        let secs = self.disk_secs(bytes, working_set_bytes);
        if self.shared.record {
            let seek = self.disk_seek_secs(working_set_bytes);
            self.events.push(Ev::Disk { read: false, bytes: bytes as u64, seconds: secs, seek });
        }
        self.clock += secs;
        self.counters.io_time += secs;
        self.counters.disk_writes += 1;
        self.counters.disk_write_bytes += bytes as u64;
    }

    /// Transfer seconds for one disk request, with degraded-bandwidth
    /// windows and straggler skew applied when the fault plan is active.
    fn disk_secs(&self, bytes: usize, working_set_bytes: usize) -> f64 {
        let mut secs = self.shared.cost.disk.transfer_cost_ws(bytes, working_set_bytes);
        if !self.shared.faults_inert {
            let slowdown = self.shared.faults.disk_slowdown_at(self.clock);
            if slowdown != 1.0 {
                secs *= slowdown;
            }
            secs = self.scaled(secs);
        }
        secs
    }

    /// Seek/access-latency component of a request priced by [`Proc::disk_secs`]
    /// at the *current* clock (0 when the working set is cache-resident —
    /// the cached path has no seek). Observation only, for event recording:
    /// the decomposition approximates the factored form and never feeds
    /// back into charging.
    fn disk_seek_secs(&self, working_set_bytes: usize) -> f64 {
        if working_set_bytes <= self.shared.cost.disk.cache_bytes {
            return 0.0;
        }
        let mut secs = self.shared.cost.disk.access_latency;
        if !self.shared.faults_inert {
            let slowdown = self.shared.faults.disk_slowdown_at(self.clock);
            if slowdown != 1.0 {
                secs *= slowdown;
            }
            secs = self.scaled(secs);
        }
        secs
    }

    // ------------------------------------------------------------------
    // Asynchronous I/O device timeline
    // ------------------------------------------------------------------

    /// Virtual time at which this rank's I/O device becomes free (equals the
    /// completion time of the last submitted request; 0 before any).
    pub fn io_device_free(&self) -> f64 {
        self.device_free
    }

    /// Submit one asynchronous request of `bytes` to the rank's I/O device.
    /// Panics if fault injection makes a read fail permanently — use
    /// [`Proc::try_io_device_submit`] in fault-aware code.
    pub fn io_device_submit(&mut self, bytes: usize, read: bool) -> IoTicket {
        self.try_io_device_submit(bytes, read).unwrap_or_else(|e| {
            panic!("cgm: rank {} unrecoverable device read: {e}", self.rank)
        })
    }

    /// Fault-aware submission of one asynchronous request to the rank's I/O
    /// device timeline. The request starts at `max(device_free, clock)`
    /// (the device serializes, and cannot start serving before it is asked),
    /// runs for `latency + bytes / bandwidth` seconds (degraded-bandwidth
    /// windows and straggler skew applied as for synchronous requests) and
    /// completes without advancing the compute clock — call
    /// [`Proc::io_device_wait`] when the data is consumed.
    ///
    /// Transient read faults retry *on the device*: each failed attempt adds
    /// [`crate::fault::DiskFaults::retry_penalty`] to the request's service
    /// time (the consumer pays for it only through a later stall, so the
    /// `compute+comm+io+fault+io_stall+idle == finish` identity stays exact);
    /// when all attempts fail the submission surfaces [`FaultError::Disk`].
    pub fn try_io_device_submit(
        &mut self,
        bytes: usize,
        read: bool,
    ) -> Result<IoTicket, FaultError> {
        let mut service = self.disk_secs(bytes, usize::MAX);
        let seek = if self.shared.record {
            self.disk_seek_secs(usize::MAX)
        } else {
            0.0
        };
        let mut fault_secs = 0.0;
        let mut retries: u32 = 0;
        if read && !self.shared.faults_inert && self.shared.faults.disk.read_error_prob > 0.0 {
            let seq = self.disk_seq;
            self.disk_seq += 1;
            let prob = self.shared.faults.disk.read_error_prob;
            let max_retries = self.shared.faults.disk.max_retries;
            let mut attempt: u32 = 0;
            loop {
                let stream = [STREAM_DISK_READ, self.rank as u64, seq, attempt as u64];
                if !self.shared.faults.decide(&stream, prob) {
                    break;
                }
                let penalty = self.scaled(self.shared.faults.disk.retry_penalty);
                service += penalty;
                fault_secs += penalty;
                self.counters.disk_retries += 1;
                retries += 1;
                if attempt >= max_retries {
                    return Err(FaultError::Disk { rank: self.rank });
                }
                attempt += 1;
            }
        }
        let start = self.device_free.max(self.clock);
        let completion = start + service;
        if self.shared.gauges {
            // The request occupies the device queue from submission until
            // its completion on the device timeline.
            self.gauge_delta("cgm.device.queue", self.clock, 1.0);
            self.gauge_delta("cgm.device.queue", completion, -1.0);
        }
        self.device_free = completion;
        self.counters.io_device_time += service;
        if read {
            self.counters.disk_reads += 1;
            self.counters.disk_read_bytes += bytes as u64;
        } else {
            self.counters.disk_writes += 1;
            self.counters.disk_write_bytes += bytes as u64;
        }
        let req = self.submit_seq;
        self.submit_seq += 1;
        self.record_ev(Ev::Submit {
            read,
            bytes: bytes as u64,
            service,
            seek,
            fault: fault_secs,
            retries,
        });
        Ok(IoTicket { completion, service, req })
    }

    /// Block the compute clock until `ticket`'s request has completed on the
    /// device timeline. The exposed wait is charged as
    /// [`crate::Counters::io_stall_time`]; the portion of the request's
    /// service that had already run in the background is recorded as
    /// [`crate::Counters::io_overlapped_time`].
    pub fn io_device_wait(&mut self, ticket: IoTicket) {
        self.record_ev(Ev::Wait { req: ticket.req, service: ticket.service });
        let stall = (ticket.completion - self.clock).max(0.0);
        if stall > 0.0 {
            self.clock += stall;
            self.counters.io_stall_time += stall;
        }
        self.counters.io_overlapped_time += (ticket.service - stall).max(0.0);
    }

    /// Block the compute clock until the device is idle (every submitted
    /// request has completed). The exposed wait is charged as
    /// [`crate::Counters::io_stall_time`]. Unlike [`Proc::io_device_wait`]
    /// no overlap is attributed — use per-ticket waits for that.
    pub fn io_device_sync(&mut self) {
        if self.submit_seq > 0 {
            self.record_ev(Ev::SyncDev);
        }
        let stall = (self.device_free - self.clock).max(0.0);
        if stall > 0.0 {
            self.clock += stall;
            self.counters.io_stall_time += stall;
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point communication
    // ------------------------------------------------------------------

    /// Send already-encoded bytes to `dst` with `tag` (blocking-send cost
    /// semantics: the sender is charged `alpha + beta * len`). Panics if
    /// fault injection makes the send fail permanently — use
    /// [`Proc::try_send_bytes`] in fault-aware code.
    pub fn send_bytes(&mut self, dst: usize, tag: u32, payload: Vec<u8>) {
        if let Err(e) = self.try_send_bytes(dst, tag, payload) {
            self.send_failed(dst, tag, e);
        }
    }

    /// The panic of a plain send that failed permanently.
    pub(crate) fn send_failed(&self, dst: usize, tag: u32, e: FaultError) -> ! {
        panic!("cgm: rank {} send to {dst} tag {tag:#x} failed: {e}", self.rank)
    }

    /// Fault-aware send. Dropped transmission attempts are retransmitted
    /// (each charging the message cost plus
    /// [`crate::fault::LinkFaults::retry_timeout`]); when all attempts drop
    /// the send fails with [`FaultError::Link`] after delivering a poison
    /// tombstone so the receiver does not hang. With an inert fault plan
    /// this is exactly the classic send and always succeeds.
    pub fn try_send_bytes(
        &mut self,
        dst: usize,
        tag: u32,
        payload: Vec<u8>,
    ) -> Result<(), FaultError> {
        let dst = self.resolve_peer(dst);
        assert!(dst < self.nprocs, "send to rank {dst} of {}", self.nprocs);
        assert_ne!(dst, self.rank, "self-send is not modeled; use local data");
        let (arrive_time, sent) = self.charge_send(dst, tag, payload.len());
        self.shared.exec.push(dst, Message {
            src: self.rank,
            tag,
            payload: if sent.is_ok() { payload } else { Vec::new() },
            arrive_time,
            poisoned: sent.is_err(),
        });
        sent
    }

    /// Everything a send of `len` bytes to physical rank `dst` does to
    /// this rank — the link's fault draws, the clock, the counters, the
    /// [`Ev::Fault`]s and the [`Ev::Push`] — without moving the bytes.
    /// Returns when the message (or, on `Err`, the poison tombstone that
    /// takes its place) arrives.
    pub(crate) fn charge_send(
        &mut self,
        dst: usize,
        tag: u32,
        len: usize,
    ) -> (f64, Result<(), FaultError>) {
        let cost = self.shared.cost.network.message_cost(len);
        let transit = if self.shared.link_faults() {
            let seq = self.link_seq[dst];
            self.link_seq[dst] += 1;
            self.shared.faults.transit(self.rank, dst, seq)
        } else {
            Transit::CLEAN
        };
        let link = &self.shared.faults.link;
        let (penalty, delay) = (cost + link.retry_timeout, link.delay_seconds);
        let (clock, arrive_time) = transit.times(self.clock, cost, link);
        for _ in 0..transit.drops {
            // Lost in flight: the sender transmitted, waited out the ack
            // timeout, then retransmitted (or gave up).
            self.counters.fault_time += penalty;
            self.record_ev(Ev::Fault { kind: FAULT_LINK, seconds: penalty });
        }
        self.clock = clock;
        if transit.failed {
            self.counters.link_retries += u64::from(transit.drops - 1);
            self.counters.link_failures += 1;
            // The tombstone costs nothing extra (the penalties above
            // already charged the clock): a zero-duration push that exists
            // purely to carry the message edge.
            self.record_ev(Ev::Push {
                dst: dst as u32,
                tag,
                bytes: 0,
                seconds: 0.0,
                lat: 0.0,
                delay: 0.0,
                poison: true,
            });
            return (arrive_time, Err(FaultError::Link { src: self.rank, dst }));
        }
        self.counters.link_retries += u64::from(transit.drops);
        self.counters.comm_time += cost;
        self.counters.messages_sent += 1;
        self.counters.bytes_sent += len as u64;
        if transit.delayed {
            self.counters.link_delays += 1;
        }
        self.record_ev(Ev::Push {
            dst: dst as u32,
            tag,
            bytes: len as u64,
            seconds: cost,
            lat: self.shared.cost.network.alpha,
            delay: if transit.delayed { delay } else { 0.0 },
            poison: false,
        });
        (arrive_time, Ok(()))
    }

    /// Deliver a poison tombstone to `dst` without any fault modeling —
    /// fault-aware code with a schedule of its own uses this to propagate
    /// an upstream failure so every rank unblocks and surfaces an error, as
    /// the fallible collectives do on their boards. The receiver's
    /// [`Proc::try_recv_bytes`] returns [`FaultError::Poisoned`]. Charges
    /// the startup cost `alpha`.
    pub fn send_poison(&mut self, dst: usize, tag: u32) {
        let dst = self.resolve_peer(dst);
        self.charge_poison(dst, tag);
        self.shared.exec.push(dst, Message {
            src: self.rank,
            tag,
            payload: Vec::new(),
            arrive_time: self.clock,
            poisoned: true,
        });
    }

    /// Everything [`Proc::send_poison`] to physical rank `dst` does to this
    /// rank — the clock, the counters and the [`Ev::Push`] — without
    /// delivering the tombstone, which then arrives at the new clock.
    pub(crate) fn charge_poison(&mut self, dst: usize, tag: u32) {
        let cost = self.shared.cost.network.message_cost(0);
        self.clock += cost;
        self.counters.comm_time += cost;
        self.record_ev(Ev::Push {
            dst: dst as u32,
            tag,
            bytes: 0,
            seconds: cost,
            lat: self.shared.cost.network.alpha,
            delay: 0.0,
            poison: true,
        });
    }

    /// Receive raw bytes from `src` with `tag`. The clock advances to the
    /// message's arrival time if that is later (waiting counts as
    /// communication time). Panics on a poisoned message — use
    /// [`Proc::try_recv_bytes`] in fault-aware code.
    pub fn recv_bytes(&mut self, src: usize, tag: u32) -> Vec<u8> {
        self.try_recv_bytes(src, tag)
            .unwrap_or_else(|e| self.recv_failed(src, tag, e))
    }

    /// The panic of a plain receive that took a poison tombstone.
    pub(crate) fn recv_failed(&self, src: usize, tag: u32, e: FaultError) -> ! {
        panic!("cgm: rank {} recv from {src} tag {tag:#x} failed: {e}", self.rank)
    }

    /// Fault-aware receive: returns [`FaultError::Poisoned`] when the
    /// matching message is a poison tombstone (the sender failed
    /// permanently). With an inert fault plan this is exactly the classic
    /// receive and always succeeds.
    pub fn try_recv_bytes(&mut self, src: usize, tag: u32) -> Result<Vec<u8>, FaultError> {
        let src = self.resolve_peer(src);
        assert!(src < self.nprocs, "recv from rank {src} of {}", self.nprocs);
        assert_ne!(src, self.rank, "self-recv is not modeled");
        // Parks until the match is pushed (see `crate::exec`).
        let msg = self.shared.exec.recv(self.rank, src, tag);
        self.charge_recv(src, tag, msg.arrive_time, msg.poisoned, msg.payload.len())?;
        Ok(msg.payload)
    }

    /// Everything taking a message of `len` bytes from physical rank `src`
    /// does to this rank — the [`Ev::Recv`], the wait for `arrive_time`,
    /// the mailbox gauges and the counters — without moving the bytes.
    /// `Err` when the message is a poison tombstone.
    pub(crate) fn charge_recv(
        &mut self,
        src: usize,
        tag: u32,
        arrive_time: f64,
        poisoned: bool,
        len: usize,
    ) -> Result<(), FaultError> {
        self.record_ev(Ev::Recv { src: src as u32, tag });
        if arrive_time > self.clock {
            self.counters.comm_time += arrive_time - self.clock;
            self.clock = arrive_time;
        }
        if poisoned {
            return Err(FaultError::Poisoned { src });
        }
        if self.shared.gauges {
            // The message occupied this rank's mailbox over the virtual
            // interval [arrival, now]. When the receiver waited for it the
            // interval is empty (the message never sat in the queue) and
            // the two endpoints coalesce away during resolution. Both
            // endpoints are virtual times, so the series is deterministic
            // even though the physical queue fills at the whim of the OS
            // scheduler.
            let bytes = len as f64;
            self.gauge_delta("cgm.mailbox.depth", arrive_time, 1.0);
            self.gauge_delta("cgm.mailbox.depth", self.clock, -1.0);
            self.gauge_delta("cgm.mailbox.bytes", arrive_time, bytes);
            self.gauge_delta("cgm.mailbox.bytes", self.clock, -bytes);
        }
        self.counters.messages_received += 1;
        self.counters.bytes_received += len as u64;
        Ok(())
    }

    /// Typed send.
    pub fn send<T: Wire>(&mut self, dst: usize, tag: u32, value: &T) {
        self.send_bytes(dst, tag, value.to_bytes());
    }

    /// Typed fault-aware send (see [`Proc::try_send_bytes`]).
    pub fn try_send<T: Wire>(&mut self, dst: usize, tag: u32, value: &T) -> Result<(), FaultError> {
        self.try_send_bytes(dst, tag, value.to_bytes())
    }

    /// Typed fault-aware receive (see [`Proc::try_recv_bytes`]). Decode
    /// failures still panic — they indicate a programming error, not an
    /// injected fault.
    pub fn try_recv<T: Wire>(&mut self, src: usize, tag: u32) -> Result<T, FaultError> {
        let bytes = self.try_recv_bytes(src, tag)?;
        Ok(T::from_bytes(&bytes).unwrap_or_else(|e| {
            panic!(
                "cgm: rank {} failed to decode message from {} tag {:#x}: {}",
                self.rank, src, tag, e
            )
        }))
    }

    /// Typed receive. Panics on a decode failure (indicates a programming
    /// error: mismatched send/recv types).
    pub fn recv<T: Wire>(&mut self, src: usize, tag: u32) -> T {
        let bytes = self.recv_bytes(src, tag);
        T::from_bytes(&bytes).unwrap_or_else(|e| {
            panic!(
                "cgm: rank {} failed to decode message from {} tag {:#x}: {}",
                self.rank, src, tag, e
            )
        })
    }

    /// Snapshot of this processor's final statistics. Panics if any span is
    /// still open — every [`Proc::span`] must be balanced by a
    /// [`Proc::span_end`] before the SPMD closure returns.
    pub(crate) fn into_stats(self) -> crate::counters::ProcStats {
        if !self.span_stack.is_empty() {
            let open: Vec<&str> = self
                .span_stack
                .iter()
                .map(|&i| self.spans[i as usize].name)
                .collect();
            panic!(
                "cgm: rank {}: {} span(s) still open at run end ({}) — \
                 unbalanced span open/close",
                self.rank,
                open.len(),
                open.join(" > ")
            );
        }
        crate::counters::ProcStats {
            rank: self.rank,
            finish_time: self.clock,
            counters: self.counters,
            spans: self.spans,
            gauges: self.gauges,
            events: self.events,
            event_names: self.ev_names,
        }
    }
}
