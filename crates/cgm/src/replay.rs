//! Turn a recorded [`EventGraph`] into timestamps — the only code that
//! does — on the recorded hardware or a hypothetical one.
//!
//! [`replay`] re-executes a run's recorded event DAG without re-running the
//! simulation: per-rank cursors walk the event lists, every *primitive*
//! duration (compute charge, disk request, message push, fault penalty,
//! device service) is rescaled by a [`CostOverride`], and every *wait*
//! (receive arrival gaps, device stalls) is recomputed from the replayed
//! dependency times. The output ([`ReplayOutput`]) is the timed view of
//! the run: the rank clock after every event with its innermost span, the
//! device service windows, the message edges, per-rank finish times and
//! busy breakdowns, and the critical chain with its classification of the
//! makespan as compute-, comm-, io- or fault-bound. Under the identity
//! override that view *is* the run's timestamped trace; the exporters in
//! [`crate::export`] and [`crate::trace`] only format it.
//!
//! ## Replay guarantees
//!
//! * **Identity passthrough.** A factor of exactly `1.0` leaves the
//!   affected durations untouched (the recorded seconds are used verbatim,
//!   not recomputed from components), and replay performs the same
//!   floating-point accumulation sequence per rank as the live run. Under
//!   [`CostOverride::identity`] the replayed finish times are therefore
//!   **bit-exact** and the busy breakdowns bit-exact too ([`identity_check`]
//!   enforces both).
//! * **Monotonicity.** Every replayed duration is monotone nondecreasing in
//!   every override factor, and waits are compositions of `max` — so
//!   scaling any cost kind up can never decrease the predicted finish time.
//! * **Determinism.** Replay is a pure function of the graph and the
//!   override; it uses no threads and no OS time.
//!
//! ## Override semantics
//!
//! Factors multiply cost components: `comm_latency` scales each message's
//! `alpha` term and `comm_transfer` its `beta * bytes` term (0.0 models an
//! infinitely fast link); `disk_seek` / `disk_transfer` split both
//! synchronous requests and device service the same way; `fault` scales
//! retry penalties and in-flight link delays; `compute` scales every
//! compute charge and `op[k]` one [`crate::OpKind`] (index 7 is raw
//! [`crate::Proc::advance_compute`] time). Span scales (exact name or
//! trailing-`*` prefix) multiply every primitive duration recorded while a
//! matching span was open — the causal-profiling "virtual speedup" of one
//! phase. Waits and stalls are never scaled directly; they follow from the
//! dependencies.

use std::collections::{HashMap, VecDeque};

use crate::cost::OpKind;
use crate::evg::{Breakdown, Ev, EventGraph};

/// Multiplicative cost factors applied during replay. `1.0` everywhere is
/// the identity; see the module docs for what each factor scales.
#[derive(Debug, Clone, PartialEq)]
pub struct CostOverride {
    /// Scales every compute charge (applied on top of `op`).
    pub compute: f64,
    /// Per-[`crate::OpKind::index`] compute factors; index 7 scales raw
    /// [`crate::Proc::advance_compute`] charges.
    pub op: [f64; 8],
    /// Scales the startup-latency (`alpha`) component of every message.
    pub comm_latency: f64,
    /// Scales the transfer (`beta * bytes`) component of every message
    /// (0.0 = infinite bandwidth).
    pub comm_transfer: f64,
    /// Scales the seek/access-latency component of disk requests and
    /// device service.
    pub disk_seek: f64,
    /// Scales the transfer component of disk requests and device service.
    pub disk_transfer: f64,
    /// Scales fault retry penalties and in-flight link delays.
    pub fault: f64,
    /// `(pattern, factor)` span scales; a pattern is an exact span name or
    /// a trailing-`*` prefix (`"cgm.*"`). All matching factors multiply.
    pub span_scales: Vec<(String, f64)>,
}

impl CostOverride {
    /// The identity override: every factor 1.0, no span scales.
    pub fn identity() -> CostOverride {
        CostOverride {
            compute: 1.0,
            op: [1.0; 8],
            comm_latency: 1.0,
            comm_transfer: 1.0,
            disk_seek: 1.0,
            disk_transfer: 1.0,
            fault: 1.0,
            span_scales: Vec::new(),
        }
    }

    /// Whether this override rescales nothing (every factor exactly 1.0).
    pub fn is_identity(&self) -> bool {
        self.compute == 1.0
            && self.op.iter().all(|&f| f == 1.0)
            && self.comm_latency == 1.0
            && self.comm_transfer == 1.0
            && self.disk_seek == 1.0
            && self.disk_transfer == 1.0
            && self.fault == 1.0
            && self.span_scales.iter().all(|(_, f)| *f == 1.0)
    }

    /// Builder: add a span scale (exact name or trailing-`*` prefix).
    pub fn with_span(mut self, pattern: &str, factor: f64) -> CostOverride {
        self.span_scales.push((pattern.to_string(), factor));
        self
    }

    /// Builder: scale one compute [`OpKind`].
    pub fn with_op(mut self, kind: OpKind, factor: f64) -> CostOverride {
        self.op[kind.index()] = factor;
        self
    }

    /// Combined factor of every span scale matching `name`.
    fn span_factor(&self, name: &str) -> f64 {
        let mut f = 1.0;
        for (pat, scale) in &self.span_scales {
            let hit = match pat.strip_suffix('*') {
                Some(prefix) => name.starts_with(prefix),
                None => name == pat,
            };
            if hit && *scale != 1.0 {
                f *= scale;
            }
        }
        f
    }
}

impl Default for CostOverride {
    fn default() -> Self {
        CostOverride::identity()
    }
}

/// Scale `x` by `f` with exact-1.0 passthrough (`x` verbatim, preserving
/// the identity override's bit-exactness).
#[inline]
fn sc(x: f64, f: f64) -> f64 {
    if f == 1.0 {
        x
    } else {
        x * f
    }
}

/// Rescale a two-component duration (`total = a + rest`): when both
/// factors are 1.0 the recorded total passes through verbatim; otherwise
/// the components are rescaled and re-summed.
#[inline]
fn sc2(total: f64, a: f64, fa: f64, fb: f64) -> f64 {
    if fa == 1.0 && fb == 1.0 {
        total
    } else {
        sc(a, fa) + sc((total - a).max(0.0), fb)
    }
}

/// Rescale a three-component duration (`total = seek + transfer + fault`).
#[inline]
fn sc3(total: f64, seek: f64, fault: f64, fs: f64, ft: f64, ff: f64) -> f64 {
    if fs == 1.0 && ft == 1.0 && ff == 1.0 {
        total
    } else {
        sc(seek, fs) + sc((total - seek - fault).max(0.0), ft) + sc(fault, ff)
    }
}

/// Per-class attribution of the replayed critical path: one causal chain
/// from time 0 to the predicted makespan, with receive waits charged to
/// the sending rank's activity and device stalls to device service.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CriticalSummary {
    /// Critical seconds spent computing.
    pub compute: f64,
    /// Critical seconds spent in communication (sends and in-flight time).
    pub comm: f64,
    /// Critical seconds spent in disk I/O (synchronous requests and device
    /// service chains).
    pub io: f64,
    /// Critical seconds spent in fault penalties.
    pub fault: f64,
}

impl CriticalSummary {
    /// Total attributed critical seconds (≈ the predicted makespan).
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.io + self.fault
    }

    /// Which resource dominates the critical path: `"compute-bound"`,
    /// `"comm-bound"`, `"io-bound"` or `"fault-bound"`.
    pub fn verdict(&self) -> &'static str {
        let rows = [
            (self.compute, "compute-bound"),
            (self.comm, "comm-bound"),
            (self.io, "io-bound"),
            (self.fault, "fault-bound"),
        ];
        rows.iter()
            .fold(rows[0], |best, &r| if r.0 > best.0 { r } else { best })
            .1
    }

    /// One-line rendering for reports: the verdict plus the per-class
    /// split of the critical path.
    pub fn render(&self, makespan: f64) -> String {
        let pct = |x: f64| if makespan > 0.0 { 100.0 * x / makespan } else { 0.0 };
        format!(
            "verdict: {} (critical path: compute {:.1}% | comm {:.1}% | io {:.1}% | fault {:.1}%)",
            self.verdict(),
            pct(self.compute),
            pct(self.comm),
            pct(self.io),
            pct(self.fault),
        )
    }
}

/// Cross-rank edges between events, each named `(rank, event index)`.
pub type Edges = HashMap<(usize, usize), (usize, usize)>;

/// Result of one replay — the timed view of the event DAG. Besides the
/// predicted finish times and busy breakdowns it carries the rank clock
/// after every event, so every timestamped rendering of a run (Chrome
/// trace, critical path, ASCII timeline) is a function of an
/// [`EventGraph`] and this view. All per-event vectors are indexed
/// `[rank][event]`, parallel to [`EventGraph::ranks`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutput {
    /// Predicted per-rank finish times, virtual seconds.
    pub finish: Vec<f64>,
    /// Predicted per-rank busy breakdowns.
    pub breakdown: Vec<Breakdown>,
    /// Per-class attribution of the predicted critical path.
    pub critical: CriticalSummary,
    /// The critical chain in time order: `(rank, event)` of every event
    /// that took time on one causal path from time 0 to the makespan. A
    /// receive wait is followed backward to its sender; a device stall
    /// through the device's contiguous busy period to the [`Ev::Submit`]
    /// that started it, which is on the chain too (the time between it
    /// and the stall is device service).
    pub chain: Vec<(usize, usize)>,
    /// Rank clock after each event. An event starts where its
    /// predecessor ended (see [`ReplayOutput::start`]).
    pub end: Vec<Vec<f64>>,
    /// Innermost span open at each event, as the ordinal of its
    /// [`Ev::Enter`] among the rank's — which is the span's index in
    /// [`crate::ProcStats::spans`].
    pub span: Vec<Vec<Option<u32>>>,
    /// Device service window `(start, completion)` of every
    /// [`Ev::Submit`], indexed `[rank][submission]`.
    pub device: Vec<Vec<(f64, f64)>>,
    /// Message edges: each [`Ev::Recv`] → the [`Ev::Push`] it consumed.
    pub sender: Edges,
}

impl ReplayOutput {
    /// Predicted makespan (slowest rank's finish).
    pub fn makespan(&self) -> f64 {
        self.finish.iter().cloned().fold(0.0, f64::max)
    }

    /// Fraction of the makespan rank `rank` spent doing work (compute +
    /// comm + io + fault; stalls and end-of-run idle excluded).
    pub fn utilization(&self, rank: usize) -> f64 {
        let b = &self.breakdown[rank];
        let busy = b.compute + b.comm + b.io + b.fault;
        let span = self.makespan();
        if span > 0.0 {
            busy / span
        } else {
            0.0
        }
    }

    /// Rank clock before event `i` of `rank`: the clock only moves
    /// through events, so this is the previous event's end.
    pub fn start(&self, rank: usize, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.end[rank][i - 1]
        }
    }

    /// Latest time each event could end without growing the makespan,
    /// given that an event must end before its successors' own work
    /// starts. Successors are the rank's next event and, for a push, the
    /// receive that consumed it; a receive's wait is slack, not work.
    pub fn latest_end(&self, graph: &EventGraph) -> Vec<Vec<f64>> {
        let makespan = self.makespan();
        let work = |r: usize, i: usize| match graph.ranks[r][i] {
            Ev::Recv { .. } => 0.0,
            _ => self.end[r][i] - self.start(r, i),
        };
        let receiver: Edges = self.sender.iter().map(|(&recv, &push)| (push, recv)).collect();
        let mut latest: Vec<Vec<f64>> =
            graph.ranks.iter().map(|evs| vec![makespan; evs.len()]).collect();
        // Per-rank cursors run backward; a push waits until the receive
        // it feeds is final. The replay proved the graph acyclic, so the
        // sweep stalls only once every event is final.
        let mut todo: Vec<usize> = graph.ranks.iter().map(Vec::len).collect();
        loop {
            let mut progress = false;
            for r in 0..graph.nprocs {
                while todo[r] > 0 {
                    let i = todo[r] - 1;
                    let mut bound = match latest[r].get(i + 1) {
                        Some(next) => next - work(r, i + 1),
                        None => makespan,
                    };
                    if let Some(&(d, j)) = receiver.get(&(r, i)) {
                        if todo[d] > j {
                            break;
                        }
                        bound = bound.min(latest[d][j] - work(d, j));
                    }
                    latest[r][i] = bound;
                    todo[r] = i;
                    progress = true;
                }
            }
            if !progress {
                return latest;
            }
        }
    }
}

/// Pair every receive with the push it consumed: the mailbox delivers
/// per-(src, tag) FIFO in sender program order, so the k-th receive of
/// `(src, tag)` on rank `d` pairs with the k-th push `(src → d, tag)`.
fn match_receives(graph: &EventGraph) -> Result<Edges, String> {
    let mut queues: HashMap<(usize, usize, u32), VecDeque<usize>> = HashMap::new();
    for (r, evs) in graph.ranks.iter().enumerate() {
        for (i, ev) in evs.iter().enumerate() {
            if let Ev::Push { dst, tag, .. } = ev {
                queues.entry((r, *dst as usize, *tag)).or_default().push_back(i);
            }
        }
    }
    let mut matches = HashMap::new();
    for (d, evs) in graph.ranks.iter().enumerate() {
        for (i, ev) in evs.iter().enumerate() {
            if let Ev::Recv { src, tag } = ev {
                let push = queues
                    .get_mut(&(*src as usize, d, *tag))
                    .and_then(VecDeque::pop_front)
                    .ok_or_else(|| {
                        format!(
                            "rank {d} event {i}: receives from {src} tag {tag:#x} \
                             but no unmatched push exists"
                        )
                    })?;
                matches.insert((d, i), (*src as usize, push));
            }
        }
    }
    Ok(matches)
}

struct Replayer<'a> {
    graph: &'a EventGraph,
    ov: &'a CostOverride,
    clock: Vec<f64>,
    device_free: Vec<f64>,
    bd: Vec<Breakdown>,
    cursor: Vec<usize>,
    /// Per rank: combined span factor and [`Ev::Enter`] ordinal of every
    /// open span, innermost last.
    open: Vec<Vec<(f64, u32)>>,
    /// Spans opened so far per rank (the next [`Ev::Enter`]'s ordinal).
    entered: Vec<u32>,
    /// Rank clock after each replayed event (NaN until it replays). A
    /// push's message arrives at its `end` plus the in-flight delay.
    end: Vec<Vec<f64>>,
    span: Vec<Vec<Option<u32>>>,
    matches: Edges,
    /// Per-rank device requests by submission order: event index of the
    /// [`Ev::Submit`], service window, `(recorded, replayed)` service.
    submit_at: Vec<Vec<usize>>,
    device: Vec<Vec<(f64, f64)>>,
    services: Vec<Vec<(f64, f64)>>,
}

impl<'a> Replayer<'a> {
    /// Validate `graph` and set up its replay. Everything `step` and the
    /// critical walk index by is checked here, once.
    fn new(graph: &'a EventGraph, ov: &'a CostOverride) -> Result<Replayer<'a>, String> {
        graph.check_events()?;
        let p = graph.nprocs;
        Ok(Replayer {
            graph,
            ov,
            clock: vec![0.0; p],
            device_free: vec![0.0; p],
            bd: vec![Breakdown::default(); p],
            cursor: vec![0; p],
            open: vec![Vec::new(); p],
            entered: vec![0; p],
            end: graph.ranks.iter().map(|e| vec![f64::NAN; e.len()]).collect(),
            span: graph.ranks.iter().map(|e| vec![None; e.len()]).collect(),
            matches: match_receives(graph)?,
            submit_at: vec![Vec::new(); p],
            device: vec![Vec::new(); p],
            services: vec![Vec::new(); p],
        })
    }

    /// When the message pushed by event `si` of rank `sr` arrives (NaN
    /// until the push has replayed).
    fn arrival(&self, sr: usize, si: usize) -> f64 {
        let pushed = self.end[sr][si];
        match self.graph.ranks[sr][si] {
            Ev::Push { delay, .. } if delay != 0.0 => pushed + sc(delay, self.ov.fault),
            _ => pushed,
        }
    }

    /// Stall rank `r` until `until` (no-op when already past it).
    fn stall(&mut self, r: usize, until: f64) -> f64 {
        let stall = (until - self.clock[r]).max(0.0);
        if stall > 0.0 {
            self.clock[r] += stall;
            self.bd[r].io_stall += stall;
        }
        stall
    }

    /// Replay one event of rank `r`.
    fn step(&mut self, r: usize, idx: usize, ev: Ev) {
        let (prod, span) = match self.open[r].last() {
            Some(&(f, ordinal)) => (f, Some(ordinal)),
            None => (1.0, None),
        };
        self.span[r][idx] = span;
        let ov = self.ov;
        match ev {
            Ev::Compute { kind, seconds } => {
                let d = sc(sc(sc(seconds, ov.op[kind as usize]), ov.compute), prod);
                self.clock[r] += d;
                self.bd[r].compute += d;
            }
            Ev::Disk { seconds, seek, .. } => {
                let d = sc(sc2(seconds, seek, ov.disk_seek, ov.disk_transfer), prod);
                self.clock[r] += d;
                self.bd[r].io += d;
            }
            Ev::Fault { seconds, .. } => {
                let d = sc(sc(seconds, ov.fault), prod);
                self.clock[r] += d;
                self.bd[r].fault += d;
            }
            Ev::Push { seconds, lat, .. } => {
                let d = sc(sc2(seconds, lat, ov.comm_latency, ov.comm_transfer), prod);
                self.clock[r] += d;
                self.bd[r].comm += d;
            }
            Ev::Recv { .. } => {
                let (sr, si) = self.matches[&(r, idx)];
                let arrive = self.arrival(sr, si);
                if arrive > self.clock[r] {
                    self.bd[r].comm += arrive - self.clock[r];
                    self.clock[r] = arrive;
                }
            }
            Ev::Submit { service, seek, fault, .. } => {
                let new = sc(sc3(service, seek, fault, ov.disk_seek, ov.disk_transfer, ov.fault), prod);
                let start = self.device_free[r].max(self.clock[r]);
                let completion = start + new;
                self.device_free[r] = completion;
                self.bd[r].io_device += new;
                self.submit_at[r].push(idx);
                self.device[r].push((start, completion));
                self.services[r].push((service, new));
            }
            Ev::Wait { req, service } => {
                let req = req as usize;
                let stall = self.stall(r, self.device[r][req].1);
                let (old, new) = self.services[r][req];
                let share = if new == old { service } else { service * (new / old) };
                self.bd[r].io_overlapped += (share - stall).max(0.0);
            }
            Ev::SyncDev => {
                self.stall(r, self.device_free[r]);
            }
            Ev::Enter { name } => {
                let f = ov.span_factor(&self.graph.names[name as usize]);
                let ordinal = self.entered[r];
                self.entered[r] += 1;
                self.open[r].push((if f == 1.0 { prod } else { prod * f }, ordinal));
                self.span[r][idx] = Some(ordinal);
            }
            Ev::Exit => {
                self.open[r].pop();
            }
        }
        self.end[r][idx] = self.clock[r];
    }

    /// Run every rank to completion (round-robin; a rank blocks only at a
    /// receive whose matching push has not replayed yet). Fails when the
    /// receives wait on each other in a cycle.
    fn run(&mut self) -> Result<(), String> {
        let p = self.graph.nprocs;
        loop {
            let mut progress = false;
            let mut blocked = None;
            for r in 0..p {
                let evs = &self.graph.ranks[r];
                while self.cursor[r] < evs.len() {
                    let idx = self.cursor[r];
                    let ev = evs[idx];
                    if let Ev::Recv { .. } = ev {
                        let (sr, si) = self.matches[&(r, idx)];
                        if self.end[sr][si].is_nan() {
                            blocked = Some((r, idx));
                            break; // its push has not replayed yet
                        }
                    }
                    self.step(r, idx, ev);
                    self.cursor[r] += 1;
                    progress = true;
                }
            }
            match blocked {
                None => return Ok(()),
                Some((r, i)) if !progress => {
                    return Err(format!(
                        "rank {r} event {i}: no rank can make progress (receive cycle)"
                    ))
                }
                Some(_) => {}
            }
        }
    }

    /// Walk the critical path backward from the slowest rank's last
    /// event, jumping to the sender at receive waits and through device
    /// service chains at stalls, attributing each causal second to its
    /// resource. Returns the per-class totals and the chain in time order.
    fn critical_walk(&self) -> (CriticalSummary, Vec<(usize, usize)>) {
        let mut acc = CriticalSummary::default();
        let mut chain = Vec::new();
        let Some((mut r, _)) = self.clock.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))
        else {
            return (acc, chain);
        };
        let mut i = self.graph.ranks[r].len();
        while i > 0 {
            i -= 1;
            let end = self.end[r][i];
            let secs = end - if i == 0 { 0.0 } else { self.end[r][i - 1] };
            if secs <= 0.0 || secs.is_nan() {
                continue; // no time passed: not on the path
            }
            chain.push((r, i));
            match self.graph.ranks[r][i] {
                Ev::Compute { .. } => acc.compute += secs,
                Ev::Push { .. } => acc.comm += secs,
                Ev::Disk { .. } => acc.io += secs,
                Ev::Fault { .. } => acc.fault += secs,
                Ev::Recv { .. } => {
                    // The wait is the sender's time: in-flight delay counts
                    // as communication, the rest re-walks on the sender.
                    let (sr, si) = self.matches[&(r, i)];
                    acc.comm += (end - self.end[sr][si]).max(0.0);
                    (r, i) = (sr, si + 1);
                }
                Ev::Wait { .. } | Ev::SyncDev => {
                    // Follow the device's busy chain backward from the
                    // completion that released the stall, and resume where
                    // the chain's first request was submitted.
                    let mut j = match self.graph.ranks[r][i] {
                        Ev::Wait { req, .. } => req as usize,
                        _ => self.submit_at[r].partition_point(|&at| at < i) - 1,
                    };
                    loop {
                        let (start, completion) = self.device[r][j];
                        acc.io += completion - start;
                        if j == 0 || start != self.device[r][j - 1].1 {
                            break;
                        }
                        j -= 1;
                    }
                    i = self.submit_at[r][j];
                    chain.push((r, i));
                }
                // Submissions and span marks never advance the clock.
                Ev::Submit { .. } | Ev::Enter { .. } | Ev::Exit => {}
            }
        }
        chain.reverse();
        (acc, chain)
    }
}

/// Validate and re-time `graph` under `ov`: `Err` names the rank and event
/// index that make the graph one no run could have recorded.
pub(crate) fn try_replay(graph: &EventGraph, ov: &CostOverride) -> Result<ReplayOutput, String> {
    let mut rp = Replayer::new(graph, ov)?;
    rp.run()?;
    let (critical, chain) = rp.critical_walk();
    Ok(ReplayOutput {
        finish: rp.clock,
        breakdown: rp.bd,
        critical,
        chain,
        end: rp.end,
        span: rp.span,
        device: rp.device,
        sender: rp.matches,
    })
}

/// Re-time `graph` under `ov`. See the module docs for the guarantees.
/// Panics on a graph that fails [`EventGraph::validate`].
pub fn replay(graph: &EventGraph, ov: &CostOverride) -> ReplayOutput {
    try_replay(graph, ov).unwrap_or_else(|e| panic!("cgm replay: corrupt event graph — {e}"))
}

/// Replay `graph` under the identity override and panic unless every
/// rank's predicted finish time is **bit-exact** against the recorded one
/// and every busy-breakdown component matches to 1e-9. Returns the replay
/// output on success — the keystone regression check of the record/replay
/// subsystem.
pub fn identity_check(graph: &EventGraph) -> ReplayOutput {
    let out = replay(graph, &CostOverride::identity());
    for r in 0..graph.nprocs {
        assert_eq!(
            out.finish[r].to_bits(),
            graph.finish[r].to_bits(),
            "identity replay diverged on rank {r}: replayed {} vs recorded {}",
            out.finish[r],
            graph.finish[r]
        );
        let diff = out.breakdown[r].max_abs_diff(&graph.recorded[r]);
        assert!(
            diff <= 1e-9,
            "identity replay breakdown diverged on rank {r} by {diff}: \
             {:?} vs {:?}",
            out.breakdown[r],
            graph.recorded[r]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(ranks: Vec<Vec<Ev>>, names: Vec<String>) -> EventGraph {
        let p = ranks.len();
        EventGraph {
            nprocs: p,
            names,
            ranks,
            finish: vec![0.0; p],
            recorded: vec![Breakdown::default(); p],
        }
    }

    #[test]
    fn identity_passthrough_on_hand_graph() {
        // Rank 0 computes 1s then pushes; rank 1 waits then computes.
        let g0 = vec![
            Ev::Compute { kind: 0, seconds: 1.0 },
            Ev::Push { dst: 1, tag: 5, bytes: 10, seconds: 0.25, lat: 0.05, delay: 0.0, poison: false },
        ];
        let g1 = vec![Ev::Recv { src: 0, tag: 5 }, Ev::Compute { kind: 1, seconds: 0.5 }];
        let g = graph(vec![g0, g1], vec![]);
        let out = replay(&g, &CostOverride::identity());
        assert_eq!(out.finish[0].to_bits(), (1.0f64 + 0.25).to_bits());
        assert_eq!(out.finish[1].to_bits(), (1.0f64 + 0.25 + 0.5).to_bits());
        assert!((out.breakdown[1].comm - 1.25).abs() < 1e-15);
        // Critical path: 1.0 compute + 0.25 comm (sender side) + 0.5 compute.
        assert!((out.critical.compute - 1.5).abs() < 1e-12);
        assert!((out.critical.comm - 0.25).abs() < 1e-12);
        assert_eq!(out.critical.verdict(), "compute-bound");
    }

    #[test]
    fn bandwidth_override_shrinks_transfer_only() {
        let g = graph(
            vec![
                vec![Ev::Push { dst: 1, tag: 1, bytes: 1000, seconds: 1.1, lat: 0.1, delay: 0.0, poison: false }],
                vec![Ev::Recv { src: 0, tag: 1 }],
            ],
            vec![],
        );
        let mut ov = CostOverride::identity();
        ov.comm_transfer = 0.0; // infinite bandwidth: only alpha remains
        let out = replay(&g, &ov);
        assert!((out.finish[0] - 0.1).abs() < 1e-12);
        assert!((out.finish[1] - 0.1).abs() < 1e-12);
        ov.comm_transfer = 0.5;
        let half = replay(&g, &ov);
        assert!((half.finish[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn device_stall_recomputes_under_override() {
        let evs = vec![
            Ev::Submit { read: true, bytes: 100, service: 2.0, seek: 0.5, fault: 0.0, retries: 0 },
            Ev::Compute { kind: 0, seconds: 1.0 },
            Ev::Wait { req: 0, service: 2.0 },
        ];
        let g = graph(vec![evs], vec![]);
        let id = replay(&g, &CostOverride::identity());
        // Stall = 2.0 - 1.0 overlapped compute.
        assert!((id.finish[0] - 2.0).abs() < 1e-12);
        assert!((id.breakdown[0].io_stall - 1.0).abs() < 1e-12);
        assert!((id.breakdown[0].io_overlapped - 1.0).abs() < 1e-12);
        // A fast NVMe-class device removes the stall entirely.
        let mut ov = CostOverride::identity();
        ov.disk_seek = 0.1;
        ov.disk_transfer = 0.1;
        let fast = replay(&g, &ov);
        assert!((fast.finish[0] - 1.0).abs() < 1e-12);
        assert_eq!(fast.breakdown[0].io_stall, 0.0);
        assert_eq!(id.critical.verdict(), "io-bound");
    }

    #[test]
    fn span_scales_apply_to_open_spans_only() {
        let evs = vec![
            Ev::Enter { name: 0 },
            Ev::Compute { kind: 0, seconds: 1.0 },
            Ev::Exit,
            Ev::Compute { kind: 0, seconds: 1.0 },
        ];
        let g = graph(vec![evs], vec!["phase.scan".into()]);
        let ov = CostOverride::identity().with_span("phase.*", 0.5);
        let out = replay(&g, &ov);
        assert!((out.finish[0] - 1.5).abs() < 1e-12);
        // Exact-name pattern matches too; unrelated names do not.
        assert_eq!(CostOverride::identity().with_span("phase.scan", 0.25).span_factor("phase.scan"), 0.25);
        assert_eq!(CostOverride::identity().with_span("other", 0.25).span_factor("phase.scan"), 1.0);
    }

    #[test]
    fn poison_pushes_cost_nothing_and_still_match() {
        let g = graph(
            vec![
                vec![
                    Ev::Fault { kind: crate::evg::FAULT_LINK, seconds: 0.3 },
                    Ev::Push { dst: 1, tag: 2, bytes: 0, seconds: 0.0, lat: 0.0, delay: 0.0, poison: true },
                ],
                vec![Ev::Recv { src: 0, tag: 2 }],
            ],
            vec![],
        );
        let out = replay(&g, &CostOverride::identity());
        assert!((out.finish[0] - 0.3).abs() < 1e-12);
        assert!((out.finish[1] - 0.3).abs() < 1e-12);
        assert!((out.breakdown[0].fault - 0.3).abs() < 1e-12);
    }

    #[test]
    fn is_identity_and_default() {
        assert!(CostOverride::identity().is_identity());
        assert!(CostOverride::default().is_identity());
        let mut ov = CostOverride::identity();
        ov.comm_transfer = 0.5;
        assert!(!ov.is_identity());
        // A 1.0 span scale is still the identity.
        assert!(CostOverride::identity().with_span("x", 1.0).is_identity());
        assert!(!CostOverride::identity().with_span("x", 2.0).is_identity());
    }

    #[test]
    #[should_panic(expected = "no unmatched push")]
    fn unmatched_receive_panics() {
        let g = graph(vec![vec![Ev::Recv { src: 0, tag: 1 }]], vec![]);
        replay(&g, &CostOverride::identity());
    }
}
