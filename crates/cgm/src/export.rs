//! Exporters over a finished run's statistics: Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`), a JSONL metrics dump, and a
//! cross-rank critical-path report.
//!
//! The exporters are pure functions of [`crate::ProcStats`] and only
//! format: everything timestamped comes from replaying the run's recorded
//! event DAG ([`crate::replay()`] of [`EventGraph::from_stats`]). Run the
//! machine with [`crate::MachineConfig::spans`] and
//! [`crate::MachineConfig::record`] enabled, then feed
//! [`crate::RunOutput::stats`] to any of them; without `record` the span
//! and gauge parts still render and the event-derived parts are empty.
//! JSON is written by hand (the repo is offline-vendored; no serde) and
//! read back through [`crate::json`].
//!
//! # Chrome trace schema
//!
//! One Chrome *process* per rank (`pid` = rank), labeled `rank N` via
//! `process_name`/`thread_name` metadata events. The compute timeline is
//! `tid` 0: every span becomes a `B`/`E` duration-event pair with its
//! attributes in `args`, and every injected fault becomes an instant event
//! (`ph: "i"`). The rank's asynchronous I/O device timeline (see
//! [`crate::Proc::io_device_submit`]) is `tid` 1: each request becomes a
//! complete event (`ph: "X"`) spanning its device service window, with an
//! instant marker when in-flight transient faults were retried. Gauges
//! recorded with [`crate::MachineConfig::gauges`] become Perfetto counter
//! tracks: one `ph: "C"` event per resolved step (see
//! [`crate::gauge::resolve_series`]) on the rank's pid. Timestamps are the
//! virtual clock in microseconds.
//!
//! # Critical path
//!
//! The makespan of a run is bounded by a chain of dependent events: within
//! a rank each event depends on its predecessor; across ranks a receive
//! that actually waited depends on the matching push; an exposed device
//! stall depends on the device's busy period. The replay walks that chain
//! backward from the last event of the slowest rank
//! ([`crate::ReplayOutput::chain`]); [`critical_path`] compresses it into
//! per-span segments. It also reports per-span *slack* — how much later a
//! span's events could finish without growing the makespan
//! ([`crate::ReplayOutput::latest_end`]) — and lists the spans with the
//! least (the next bottlenecks).

use std::collections::HashMap;

use crate::counters::ProcStats;
use crate::evg::{Ev, EventGraph, FAULT_DISK};
use crate::json::escape as esc;
use crate::replay::{identity_check, ReplayOutput};

// ----------------------------------------------------------------------
// JSON building blocks
// ----------------------------------------------------------------------

/// Format an `f64` as a JSON number. Rust's `Display` for `f64` never uses
/// exponent notation and round-trips, which is exactly what JSON wants;
/// non-finite values (which the simulator never produces) degrade to 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn attrs_json(attrs: &[(&'static str, i64)]) -> String {
    let body: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", esc(k), v))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The recorded event DAG of `stats` (one run's complete
/// [`crate::RunOutput::stats`]) and its identity replay — the timed view
/// every exporter below formats, checked to land on the recorded finish
/// times bit for bit. `None` for a run that recorded no events (`record`
/// off, or nothing happened).
fn timed_view(stats: &[ProcStats]) -> Option<(EventGraph, ReplayOutput)> {
    if stats.iter().all(|s| s.events.is_empty()) {
        return None;
    }
    let graph = EventGraph::from_stats(stats);
    let view = identity_check(&graph);
    Some((graph, view))
}

// ----------------------------------------------------------------------
// Chrome trace-event JSON
// ----------------------------------------------------------------------

/// Render a run as Chrome trace-event JSON: open the result in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`. One process per
/// rank; spans become `B`/`E` pairs, faults become instant events, gauges
/// become counter tracks (`ph: "C"`).
pub fn chrome_trace_json(stats: &[ProcStats]) -> String {
    let timed = timed_view(stats);
    let mut events: Vec<String> = Vec::new();
    for s in stats {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"rank {}\"}}}}",
            s.rank, s.rank
        ));
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"compute\"}}}}",
            s.rank
        ));
        // Spans are recorded in open order and close LIFO, and the virtual
        // clock is monotonic — so a stack replay emits correctly nested
        // B/E pairs: before opening a span, close everything that is not
        // its ancestor.
        let mut stack: Vec<u32> = Vec::new();
        for (i, sp) in s.spans.iter().enumerate() {
            while stack.last() != sp.parent.as_ref() {
                let done = stack.pop().expect("span parent must be on the stack");
                let d = &s.spans[done as usize];
                events.push(format!(
                    "{{\"ph\":\"E\",\"ts\":{},\"pid\":{},\"tid\":0}}",
                    num(d.end * 1e6),
                    s.rank
                ));
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":{},\
                 \"pid\":{},\"tid\":0,\"args\":{}}}",
                esc(sp.name),
                num(sp.start * 1e6),
                s.rank,
                attrs_json(&sp.attrs)
            ));
            stack.push(i as u32);
        }
        while let Some(done) = stack.pop() {
            let d = &s.spans[done as usize];
            events.push(format!(
                "{{\"ph\":\"E\",\"ts\":{},\"pid\":{},\"tid\":0}}",
                num(d.end * 1e6),
                s.rank
            ));
        }
        if let Some((graph, view)) = &timed {
            let r = s.rank;
            let fault = |name: &str, at: f64, seconds: f64| {
                format!(
                    "{{\"name\":\"fault:{name}\",\"ph\":\"i\",\"ts\":{},\"pid\":{r},\
                     \"tid\":0,\"s\":\"t\",\"args\":{{\"seconds\":{}}}}}",
                    num(at * 1e6),
                    num(seconds)
                )
            };
            let mut requests = view.device[r].iter().enumerate();
            for (i, ev) in graph.ranks[r].iter().enumerate() {
                let at = view.end[r][i];
                match *ev {
                    Ev::Fault { kind, seconds } => {
                        let name = if kind == FAULT_DISK { "disk-error" } else { "link-drop" };
                        events.push(fault(name, at, seconds));
                    }
                    // A delayed delivery is marked on the sender.
                    Ev::Push { delay, .. } if delay > 0.0 => {
                        events.push(fault("link-delay", at, delay));
                    }
                    // A poisoned receive (the sender gave up) is marked on
                    // the receiver with how long it waited to learn that.
                    Ev::Recv { .. } => {
                        let (sr, si) = view.sender[&(r, i)];
                        if matches!(graph.ranks[sr][si], Ev::Push { poison: true, .. }) {
                            events.push(fault("link-drop", at, at - view.start(r, i)));
                        }
                    }
                    Ev::Submit { read, bytes, retries, .. } => {
                        let (k, &(start, end)) =
                            requests.next().expect("one service window per submission");
                        if k == 0 {
                            events.push(format!(
                                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{r},\
                                 \"tid\":1,\"args\":{{\"name\":\"io device\"}}}}"
                            ));
                        }
                        events.push(format!(
                            "{{\"name\":\"{}\",\"cat\":\"device\",\"ph\":\"X\",\
                             \"ts\":{},\"dur\":{},\"pid\":{r},\"tid\":1,\
                             \"args\":{{\"bytes\":{bytes},\"retries\":{retries}}}}}",
                            if read { "device.read" } else { "device.write" },
                            num(start * 1e6),
                            num((end - start) * 1e6),
                        ));
                        if retries > 0 {
                            events.push(format!(
                                "{{\"name\":\"fault:disk-error-async\",\"ph\":\"i\",\
                                 \"ts\":{},\"pid\":{r},\"tid\":1,\"s\":\"t\",\
                                 \"args\":{{\"retries\":{retries}}}}}",
                                num(start * 1e6),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        // Gauges as Perfetto counter tracks: one "C" event per resolved
        // step, on the rank's pid (Perfetto draws one counter track per
        // (pid, name)).
        for series in crate::gauge::resolve_series(&s.gauges) {
            for &(t, v) in &series.points {
                events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\
                     \"args\":{{\"value\":{}}}}}",
                    esc(series.name),
                    num(t * 1e6),
                    s.rank,
                    num(v)
                ));
            }
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

// ----------------------------------------------------------------------
// JSONL metrics dump
// ----------------------------------------------------------------------

/// Render per-span metrics as JSON Lines: one row per rank × span with the
/// span's timing and its counter deltas. Rows are self-describing; load
/// them with anything that reads JSONL.
pub fn metrics_jsonl(stats: &[ProcStats]) -> String {
    let reg = crate::metrics::MetricsRegistry::from_stats(stats);
    let mut out = String::new();
    for r in reg.rows() {
        let parent = match r.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"rank\":{},\"index\":{},\"parent\":{},\"depth\":{},\
             \"name\":\"{}\",\"attrs\":{},\"start\":{},\"end\":{},\
             \"seconds\":{},\"self_seconds\":{},\"compute_time\":{},\
             \"comm_time\":{},\"io_time\":{},\"fault_time\":{},\
             \"io_stall_time\":{},\"io_overlapped_time\":{},\
             \"ops\":{},\"messages_sent\":{},\"bytes_sent\":{},\
             \"messages_received\":{},\"bytes_received\":{},\
             \"disk_read_bytes\":{},\"disk_write_bytes\":{},\
             \"cache_hits\":{},\"cache_misses\":{}}}\n",
            r.rank,
            r.index,
            parent,
            r.depth,
            esc(r.name),
            attrs_json(&r.attrs),
            num(r.start),
            num(r.end),
            num(r.seconds()),
            num(r.self_seconds),
            num(r.delta.compute_time),
            num(r.delta.comm_time),
            num(r.delta.io_time),
            num(r.delta.fault_time),
            num(r.delta.io_stall_time),
            num(r.delta.io_overlapped_time),
            r.delta.total_ops(),
            r.delta.messages_sent,
            r.delta.bytes_sent,
            r.delta.messages_received,
            r.delta.bytes_received,
            r.delta.disk_read_bytes,
            r.delta.disk_write_bytes,
            r.delta.cache_hits,
            r.delta.cache_misses,
        ));
    }
    out
}

/// Render per-span metrics as CSV with a header row: the same rows as
/// [`metrics_jsonl`] minus attrs, for spreadsheet-friendly loading. The
/// row order is the deterministic [`crate::MetricsRegistry`] order, so two
/// identical runs export byte-identical CSV.
pub fn metrics_csv(stats: &[ProcStats]) -> String {
    let reg = crate::metrics::MetricsRegistry::from_stats(stats);
    let mut out = String::from(
        "rank,index,parent,depth,name,start,end,seconds,self_seconds,\
         compute_time,comm_time,io_time,fault_time,io_stall_time,\
         ops,bytes_sent,bytes_received,disk_read_bytes,disk_write_bytes\n",
    );
    for r in reg.rows() {
        let parent = match r.parent {
            Some(p) => p.to_string(),
            None => String::new(),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.rank,
            r.index,
            parent,
            r.depth,
            r.name,
            num(r.start),
            num(r.end),
            num(r.seconds()),
            num(r.self_seconds),
            num(r.delta.compute_time),
            num(r.delta.comm_time),
            num(r.delta.io_time),
            num(r.delta.fault_time),
            num(r.delta.io_stall_time),
            r.delta.total_ops(),
            r.delta.bytes_sent,
            r.delta.bytes_received,
            r.delta.disk_read_bytes,
            r.delta.disk_write_bytes,
        ));
    }
    out
}

/// Render every rank's resolved gauge series as CSV
/// (`rank,gauge,time_s,value`), ranks in order, gauges sorted by name,
/// steps in time order — a deterministic export.
pub fn gauges_csv(stats: &[ProcStats]) -> String {
    let mut out = String::from("rank,gauge,time_s,value\n");
    for s in stats {
        for series in crate::gauge::resolve_series(&s.gauges) {
            for &(t, v) in &series.points {
                out.push_str(&format!(
                    "{},{},{},{}\n",
                    s.rank,
                    series.name,
                    num(t),
                    num(v)
                ));
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// Cross-rank critical path
// ----------------------------------------------------------------------

/// One compressed segment of the critical path: consecutive events of one
/// rank attributed to one span.
#[derive(Debug, Clone, PartialEq)]
pub struct CpSegment {
    /// Rank the segment runs on.
    pub rank: usize,
    /// Name of the innermost span the segment's events belong to, or
    /// `None` when no span was open (or spans were disabled).
    pub span: Option<&'static str>,
    /// Virtual time the segment starts, seconds.
    pub start: f64,
    /// Virtual time the segment ends, seconds.
    pub end: f64,
}

impl CpSegment {
    /// Segment duration, seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A span instance with little scheduling slack: finishing it later would
/// soon grow the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSlack {
    /// Rank the span ran on.
    pub rank: usize,
    /// Index of the span in its rank's span list.
    pub index: u32,
    /// Span name.
    pub name: &'static str,
    /// Inclusive span duration, seconds.
    pub seconds: f64,
    /// Minimum slack over the span's events, seconds (0 = on the critical
    /// path).
    pub slack: f64,
}

/// Result of [`critical_path`]: the makespan-bounding chain plus slack
/// analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathReport {
    /// The run's makespan (maximum finish time), seconds.
    pub makespan: f64,
    /// The critical chain from time 0 to the makespan, compressed into
    /// per-(rank, span) segments. Empty when the run recorded no events.
    pub segments: Vec<CpSegment>,
    /// Critical-path seconds aggregated by span name, descending.
    pub by_span: Vec<(String, f64)>,
    /// Spans with the least slack (ascending; at most 10). Spans on the
    /// critical path have zero slack.
    pub top_slack: Vec<SpanSlack>,
    /// Per-class attribution of the critical chain (compute vs comm vs io
    /// vs fault), yielding the `verdict()` line of [`Self::render`].
    pub classes: crate::replay::CriticalSummary,
}

/// Identify the chain of events bounding the makespan and compute
/// per-span slack, by replaying the run's recorded event DAG. Requires a
/// run with [`crate::MachineConfig::record`] enabled (returns an empty
/// report otherwise); span attribution additionally needs
/// [`crate::MachineConfig::spans`].
pub fn critical_path(stats: &[ProcStats]) -> CriticalPathReport {
    let makespan = stats.iter().map(|s| s.finish_time).fold(0.0_f64, f64::max);
    let mut report = CriticalPathReport {
        makespan,
        segments: Vec::new(),
        by_span: Vec::new(),
        top_slack: Vec::new(),
        classes: crate::replay::CriticalSummary::default(),
    };
    let Some((graph, view)) = timed_view(stats) else {
        return report; // nothing recorded
    };
    report.classes = view.critical;

    // Compress the chain into per-(rank, span) segments.
    for &(rank, i) in &view.chain {
        let span = view.span[rank][i].map(|sp| stats[rank].spans[sp as usize].name);
        let (start, end) = (view.start(rank, i), view.end[rank][i]);
        match report.segments.last_mut() {
            Some(seg) if seg.rank == rank && seg.span == span => seg.end = end,
            _ => report.segments.push(CpSegment { rank, span, start, end }),
        }
    }
    for seg in &report.segments {
        let key = seg.span.unwrap_or("<untracked>");
        match report.by_span.iter_mut().find(|(n, _)| n == key) {
            Some((_, secs)) => *secs += seg.seconds(),
            None => report.by_span.push((key.to_string(), seg.seconds())),
        }
    }
    report
        .by_span
        .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    // Per-span slack: the minimum over the span's own events.
    let latest = view.latest_end(&graph);
    let mut span_slack: HashMap<(usize, u32), f64> = HashMap::new();
    for (rank, evs) in graph.ranks.iter().enumerate() {
        for (i, ev) in evs.iter().enumerate() {
            let (Some(sp), false) = (view.span[rank][i], matches!(ev, Ev::Enter { .. } | Ev::Exit))
            else {
                continue;
            };
            let slack = (latest[rank][i] - view.end[rank][i]).max(0.0);
            span_slack
                .entry((rank, sp))
                .and_modify(|s| *s = s.min(slack))
                .or_insert(slack);
        }
    }
    let mut slack_rows: Vec<SpanSlack> = span_slack
        .into_iter()
        .map(|((rank, index), slack)| {
            let sp = &stats[rank].spans[index as usize];
            SpanSlack {
                rank,
                index,
                name: sp.name,
                seconds: sp.seconds(),
                slack,
            }
        })
        .collect();
    slack_rows.sort_by(|a, b| {
        a.slack
            .partial_cmp(&b.slack)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.rank.cmp(&b.rank))
            .then(a.index.cmp(&b.index))
    });
    slack_rows.truncate(10);
    report.top_slack = slack_rows;
    report
}

impl CriticalPathReport {
    /// Render the report as a terminal-friendly text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: makespan {:.6} s, {} segment(s)\n",
            self.makespan,
            self.segments.len()
        ));
        let show = |seg: &CpSegment| {
            format!(
                "  [rank {}] {:<28} {:>12.6} .. {:>12.6}  ({:.6} s)\n",
                seg.rank,
                seg.span.unwrap_or("<untracked>"),
                seg.start,
                seg.end,
                seg.seconds()
            )
        };
        if self.segments.len() <= 48 {
            for seg in &self.segments {
                out.push_str(&show(seg));
            }
        } else {
            for seg in &self.segments[..24] {
                out.push_str(&show(seg));
            }
            out.push_str(&format!(
                "  … {} segment(s) elided …\n",
                self.segments.len() - 48
            ));
            for seg in &self.segments[self.segments.len() - 24..] {
                out.push_str(&show(seg));
            }
        }
        if !self.by_span.is_empty() {
            out.push_str("critical-path seconds by span:\n");
            for (name, secs) in &self.by_span {
                out.push_str(&format!("  {name:<28} {secs:>12.6} s\n"));
            }
        }
        if !self.top_slack.is_empty() {
            out.push_str("tightest spans by slack (0 = on the critical path):\n");
            for s in &self.top_slack {
                out.push_str(&format!(
                    "  [rank {}] {:<28} slack {:>12.6} s  (span {:.6} s)\n",
                    s.rank, s.name, s.slack, s.seconds
                ));
            }
        }
        if !self.segments.is_empty() {
            out.push_str(&self.classes.render(self.makespan));
            out.push('\n');
        }
        out
    }
}

/// Check that `s` is one syntactically valid JSON value: it parses with
/// [`crate::json::parse`]. Returns the message and byte offset of the
/// first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    crate::json::parse(s).map(|_| ()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, MachineConfig, OpKind};

    fn traced_stats() -> Vec<ProcStats> {
        let mut cfg = MachineConfig::default();
        cfg.record = true;
        cfg.spans = true;
        Cluster::with_config(2, cfg)
            .run(|proc| {
                let root = proc.span("test.root", &[("rank", proc.rank() as i64)]);
                if proc.rank() == 0 {
                    proc.in_span("test.work", &[], |p| {
                        p.charge(OpKind::Misc, 1_000_000);
                    });
                    proc.send(1, 7, &42u64);
                } else {
                    let _: u64 = proc.in_span("test.wait", &[], |p| p.recv(0, 7));
                }
                proc.span_end(root);
            })
            .stats
    }

    #[test]
    fn chrome_trace_is_valid_json_with_span_events() {
        let stats = traced_stats();
        let json = chrome_trace_json(&stats);
        validate_json(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("test.root"));
        assert!(json.contains("\"pid\":1"));
    }

    #[test]
    fn metrics_jsonl_rows_are_each_valid_json() {
        let stats = traced_stats();
        let jsonl = metrics_jsonl(&stats);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            validate_json(line).expect("each JSONL row must be valid JSON");
        }
        // 2 ranks × (root + child) spans.
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn critical_path_crosses_the_send_recv_edge() {
        let stats = traced_stats();
        let cp = critical_path(&stats);
        assert!(cp.makespan > 0.0);
        assert!(!cp.segments.is_empty());
        // Rank 1 only waits; the makespan is bounded by rank 0's compute,
        // so the chain must include a rank-0 segment.
        assert!(cp.segments.iter().any(|s| s.rank == 0));
        // The chain ends on the slowest rank.
        assert_eq!(cp.segments.last().unwrap().rank, 1);
        // And the big compute span has (near) zero slack.
        let work = cp
            .top_slack
            .iter()
            .find(|s| s.name == "test.work")
            .expect("test.work must appear in slack rows");
        assert!(work.slack.abs() < 1e-9);
        let rendered = cp.render();
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("test.work"));
    }

    #[test]
    fn chrome_trace_renders_device_lane() {
        let mut cfg = MachineConfig::default();
        cfg.record = true;
        let stats = Cluster::with_config(1, cfg)
            .run(|proc| {
                let t = proc.io_device_submit(1 << 20, true);
                proc.charge(OpKind::Misc, 10);
                proc.io_device_wait(t);
            })
            .stats;
        let json = chrome_trace_json(&stats);
        validate_json(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("device.read"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("io device"));
    }

    #[test]
    fn unrecorded_run_renders_spans_only() {
        // Spans on, recording off: the run charged time but carries no
        // event DAG. The exporters must not try to assemble one.
        let mut cfg = MachineConfig::default();
        cfg.spans = true;
        let stats = Cluster::with_config(2, cfg)
            .run(|proc| {
                proc.in_span("test.phase", &[], |p| p.charge(OpKind::Misc, 100));
                proc.barrier();
            })
            .stats;
        let cp = critical_path(&stats);
        assert!(cp.segments.is_empty() && cp.top_slack.is_empty());
        assert!(cp.makespan > 0.0);
        let json = chrome_trace_json(&stats);
        validate_json(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("test.phase"));
        assert!(!json.contains("\"ph\":\"i\"") && !json.contains("\"tid\":1"));
    }

    #[test]
    fn poisoned_receive_wait_is_charged_to_the_sender() {
        // Rank 0's only send drops on every attempt, so rank 1 waits for a
        // tombstone. The wait is rank 0's retry timeouts: the critical
        // chain must cross to rank 0 and classify them as fault time.
        let mut cfg = MachineConfig::default();
        cfg.record = true;
        cfg.spans = true;
        cfg.faults.link.drop_prob = 1.0;
        let stats = Cluster::with_config(2, cfg)
            .run(|proc| {
                if proc.rank() == 0 {
                    let sent = proc.in_span("test.send", &[], |p| p.try_send(1, 7, &1u64));
                    assert!(sent.is_err());
                } else {
                    let got = proc.in_span("test.recv", &[], |p| p.try_recv::<u64>(0, 7));
                    assert!(got.is_err());
                }
            })
            .stats;
        let cp = critical_path(&stats);
        assert!(cp.segments.iter().any(|s| s.rank == 0 && s.span == Some("test.send")));
        assert!((cp.classes.fault - cp.makespan).abs() < 1e-12, "{:?}", cp.classes);
        // One instant per dropped attempt on the sender, one on the
        // receiver for the tombstone.
        let json = chrome_trace_json(&stats);
        assert_eq!(json.matches("fault:link-drop").count(), 4 + 1);
        assert_eq!(json.matches("\"pid\":1,\"tid\":0,\"s\":\"t\"").count(), 1);
    }

    fn gauged_stats() -> Vec<ProcStats> {
        let mut cfg = MachineConfig::default();
        cfg.record = true;
        cfg.spans = true;
        cfg.gauges = true;
        Cluster::with_config(2, cfg)
            .run(|proc| {
                proc.in_span("test.phase", &[], |p| {
                    p.gauge("test.depth", 2.0);
                    p.charge(OpKind::Misc, 100_000);
                    p.gauge("test.depth", 0.0);
                });
            })
            .stats
    }

    #[test]
    fn chrome_trace_labels_every_rank_with_metadata() {
        let stats = traced_stats();
        let json = chrome_trace_json(&stats);
        validate_json(&json).expect("chrome trace must be valid JSON");
        for rank in 0..stats.len() {
            assert!(json.contains(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\
                 \"tid\":0,\"args\":{{\"name\":\"rank {rank}\"}}}}"
            )));
            assert!(json.contains(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{rank},\
                 \"tid\":0,\"args\":{{\"name\":\"compute\"}}}}"
            )));
        }
    }

    #[test]
    fn chrome_trace_emits_counter_events_for_gauges() {
        let stats = gauged_stats();
        let json = chrome_trace_json(&stats);
        validate_json(&json).expect("chrome trace must be valid JSON");
        // Each rank samples 2.0 then 0.0: counter events on both pids.
        for rank in 0..stats.len() {
            assert!(json.contains(&format!(
                "{{\"name\":\"test.depth\",\"ph\":\"C\",\"ts\":0,\
                 \"pid\":{rank},\"args\":{{\"value\":2}}}}"
            )));
        }
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 4);
    }

    #[test]
    fn gauges_and_metrics_csv_are_deterministic_tables() {
        let stats = gauged_stats();
        let gcsv = gauges_csv(&stats);
        let mut lines = gcsv.lines();
        assert_eq!(lines.next(), Some("rank,gauge,time_s,value"));
        // 2 ranks × 2 steps.
        assert_eq!(gcsv.lines().count(), 5);
        assert!(gcsv.contains("0,test.depth,0,2"));
        let mcsv = metrics_csv(&stats);
        assert!(mcsv.starts_with("rank,index,parent,depth,name,"));
        assert_eq!(mcsv.lines().count(), 3, "header + one span per rank");
        assert_eq!(gauges_csv(&gauged_stats()), gcsv, "byte-identical rerun");
        assert_eq!(metrics_csv(&gauged_stats()), mcsv, "byte-identical rerun");
    }

    #[test]
    fn validate_json_accepts_and_rejects() {
        assert!(validate_json("{\"a\":[1,2.5,-3e2,\"x\\n\",true,null]}").is_ok());
        assert!(validate_json("").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,2,]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{} extra").is_err());
    }
}
