//! Serving telemetry: tumbling windows, SLO monitors and error budgets on
//! the virtual clock.
//!
//! The scoring harness measures whole-run percentiles; a fleet operator
//! watches a *time series*. This module slices a serving run into
//! **tumbling windows** of fixed virtual duration: every batch completion
//! lands in window `⌊t / window⌋`, and each window accumulates batch
//! count, records scored and a latency [`Histogram`] — bounded memory per
//! window, mergeable across ranks (see [`pdc_cgm::hist`]). Per-window
//! throughput and tail quantiles become the operator-facing series.
//!
//! On top of the series sits an [`SloSpec`] — *"the `quantile` batch
//! latency must stay below `threshold`"* — evaluated per window into
//! compliance, plus the three numbers an on-call rotation actually pages
//! on:
//!
//! * **error-budget consumption** — with a compliance `target` (e.g.
//!   "99% of windows must comply"), the budget is the allowed fraction of
//!   violating windows; consumption is `violations / (allowed_fraction ×
//!   windows)`, where 1.0 means the budget for the observed period is
//!   exactly spent;
//! * **burn rate** — the cumulative violation fraction divided by the
//!   allowed fraction: 1.0 burns the budget exactly at the sustainable
//!   rate, 2.0 exhausts it in half the period;
//! * an **overload flag** — raised when the window quantile exceeds the
//!   threshold for [`SloSpec::overload_windows`] *consecutive* windows,
//!   the signal a hot-swap/refresh pipeline would key on.
//!
//! Everything here is **pure observation**: the recorder reads the
//! virtual clock and (when [`pdc_cgm::cluster::MachineConfig::gauges`] is
//! on) appends gauge points at window boundaries — `serve.window.rps`,
//! `serve.window.p99_ms`, `serve.window.batches` and
//! `serve.slo.violation` appear as Perfetto counter tracks next to the
//! pool/mailbox gauges. It never advances the clock, never touches
//! counters, so a telemetry-on run is bit-identical to a telemetry-off
//! run (regression-tested).

use pdc_cgm::{Histogram, HistogramSpec, Proc};

/// Telemetry configuration for one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Tumbling-window duration, virtual seconds.
    pub window_seconds: f64,
    /// Optional SLO to evaluate over the window series.
    pub slo: Option<SloSpec>,
}

impl TelemetryConfig {
    /// Telemetry with the default latency layout and no SLO.
    pub fn new(window_seconds: f64) -> TelemetryConfig {
        assert!(
            window_seconds > 0.0 && window_seconds.is_finite(),
            "window_seconds must be positive"
        );
        TelemetryConfig {
            window_seconds,
            slo: None,
        }
    }

    /// Same telemetry with an SLO attached.
    pub fn with_slo(mut self, slo: SloSpec) -> TelemetryConfig {
        self.slo = Some(slo);
        self
    }
}

/// A latency service-level objective over the window series: *"the
/// `quantile` batch latency of every window must stay below `threshold`
/// seconds"*, with a compliance target and an overload trip-wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Which latency quantile the objective constrains (e.g. 0.99).
    pub quantile: f64,
    /// Threshold the quantile must stay below, virtual seconds.
    pub threshold: f64,
    /// Fraction of windows that must comply (e.g. 0.99 → the error budget
    /// is 1% of windows). Must be in `[0, 1)` strictly below 1 so the
    /// budget is positive.
    pub target: f64,
    /// Consecutive violating windows that raise the overload flag.
    pub overload_windows: usize,
}

impl SloSpec {
    /// A p99-style objective: `quantile` 0.99, the given threshold,
    /// 99% window compliance, overload after 3 consecutive bad windows.
    pub fn p99(threshold_seconds: f64) -> SloSpec {
        SloSpec {
            quantile: 0.99,
            threshold: threshold_seconds,
            target: 0.99,
            overload_windows: 3,
        }
    }

    /// The error budget as a fraction of windows: `1 - target`.
    pub fn budget_fraction(&self) -> f64 {
        (1.0 - self.target).max(f64::MIN_POSITIVE)
    }
}

/// One tumbling window's accumulated serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window index: `⌊completion_time / window_seconds⌋`.
    pub index: u64,
    /// Window start, virtual seconds (`index × window_seconds`).
    pub start: f64,
    /// Window end, virtual seconds.
    pub end: f64,
    /// Batches whose completion fell in this window.
    pub batches: u64,
    /// Records scored by those batches.
    pub records: u64,
    /// Latency histogram of those batches.
    pub hist: Histogram,
}

impl WindowStats {
    fn new(index: u64, window_seconds: f64) -> WindowStats {
        WindowStats {
            index,
            start: index as f64 * window_seconds,
            end: (index + 1) as f64 * window_seconds,
            batches: 0,
            records: 0,
            hist: Histogram::new(HistogramSpec::latency_default()),
        }
    }

    /// Sustained throughput of the window, records per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        let span = self.end - self.start;
        if span > 0.0 {
            self.records as f64 / span
        } else {
            0.0
        }
    }
}

/// Per-rank window recorder used inside the serving loop. Pure
/// observation — see the module docs.
#[derive(Debug)]
pub struct WindowRecorder {
    cfg: TelemetryConfig,
    current: Option<WindowStats>,
    done: Vec<WindowStats>,
}

impl WindowRecorder {
    /// New recorder for one rank.
    pub fn new(cfg: TelemetryConfig) -> WindowRecorder {
        WindowRecorder {
            cfg,
            current: None,
            done: Vec::new(),
        }
    }

    /// Record one batch: completion at virtual time `end`, `records`
    /// scored, observed `latency` seconds. Closes (and gauge-exports) any
    /// window older than `end`'s.
    pub fn record_batch(&mut self, proc: &mut Proc, end: f64, records: u64, latency: f64) {
        let index = (end / self.cfg.window_seconds).floor() as u64;
        if self.current.as_ref().is_some_and(|w| w.index != index) {
            self.close_current(proc);
        }
        let w = self
            .current
            .get_or_insert_with(|| WindowStats::new(index, self.cfg.window_seconds));
        w.batches += 1;
        w.records += records;
        w.hist.record(latency);
    }

    /// Close the last open window and return every window in index order.
    pub fn finish(mut self, proc: &mut Proc) -> Vec<WindowStats> {
        self.close_current(proc);
        self.done
    }

    fn close_current(&mut self, proc: &mut Proc) {
        let Some(w) = self.current.take() else {
            return;
        };
        if proc.gauges_enabled() {
            proc.gauge_at("serve.window.rps", w.end, w.throughput_rps());
            proc.gauge_at("serve.window.p99_ms", w.end, w.hist.quantile(0.99) * 1e3);
            proc.gauge_at("serve.window.batches", w.end, w.batches as f64);
            if let Some(slo) = &self.cfg.slo {
                let violating = w.hist.quantile(slo.quantile) > slo.threshold;
                proc.gauge_at("serve.slo.violation", w.end, f64::from(u8::from(violating)));
            }
        }
        self.done.push(w);
    }
}

/// One window's SLO evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSlo {
    /// Window index.
    pub index: u64,
    /// The constrained quantile's value in this window, seconds.
    pub quantile_value: f64,
    /// Whether the window met the objective.
    pub compliant: bool,
    /// Cumulative burn rate up to and including this window: the
    /// violation fraction so far over the budget fraction (1.0 =
    /// sustainable).
    pub burn_rate: f64,
}

/// SLO evaluation over a whole window series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The objective evaluated.
    pub spec: SloSpec,
    /// Per-window evaluations, in index order.
    pub windows: Vec<WindowSlo>,
    /// Windows that met the objective.
    pub compliant_windows: usize,
    /// Windows that violated it.
    pub violating_windows: usize,
    /// `compliant_windows / windows` (1.0 for an empty series).
    pub compliance: f64,
    /// Fraction of the period's error budget consumed:
    /// `violations / (budget_fraction × windows)`. Above 1.0 the SLO for
    /// the observed period is blown.
    pub error_budget_consumed: f64,
    /// Overall burn rate: violation fraction over budget fraction. For a
    /// complete series this equals `error_budget_consumed`.
    pub burn_rate: f64,
    /// True when `spec.overload_windows` consecutive windows violated.
    pub overloaded: bool,
    /// Index of the window at which the overload flag first tripped.
    pub overload_at: Option<u64>,
}

/// Evaluate `spec` over a (merged, index-ordered) window series.
pub fn evaluate_slo(windows: &[WindowStats], spec: SloSpec) -> SloReport {
    let budget = spec.budget_fraction();
    let mut rows = Vec::with_capacity(windows.len());
    let mut violations = 0usize;
    let mut consecutive = 0usize;
    let mut overload_at = None;
    for (i, w) in windows.iter().enumerate() {
        let qv = w.hist.quantile(spec.quantile);
        let compliant = qv <= spec.threshold;
        if compliant {
            consecutive = 0;
        } else {
            violations += 1;
            consecutive += 1;
            if consecutive >= spec.overload_windows.max(1) && overload_at.is_none() {
                overload_at = Some(w.index);
            }
        }
        let burn_rate = violations as f64 / ((i + 1) as f64 * budget);
        rows.push(WindowSlo {
            index: w.index,
            quantile_value: qv,
            compliant,
            burn_rate,
        });
    }
    let n = windows.len();
    let compliance = if n == 0 {
        1.0
    } else {
        (n - violations) as f64 / n as f64
    };
    let consumed = if n == 0 {
        0.0
    } else {
        violations as f64 / (budget * n as f64)
    };
    SloReport {
        spec,
        windows: rows,
        compliant_windows: n - violations,
        violating_windows: violations,
        compliance,
        error_budget_consumed: consumed,
        burn_rate: consumed,
        overloaded: overload_at.is_some(),
        overload_at,
    }
}

/// Merge per-rank window series into one fleet-level series: windows with
/// the same index add batch/record counts and merge their histograms;
/// the result is sorted by index. Mergeability of the histogram makes
/// this exact — the fleet series equals the series a single observer of
/// all batches would have recorded.
pub fn merge_windows(per_rank: &[Vec<WindowStats>]) -> Vec<WindowStats> {
    let mut merged: Vec<WindowStats> = Vec::new();
    for rank in per_rank {
        for w in rank {
            match merged.iter_mut().find(|m| m.index == w.index) {
                Some(m) => {
                    m.batches += w.batches;
                    m.records += w.records;
                    m.hist.merge(&w.hist);
                }
                None => merged.push(w.clone()),
            }
        }
    }
    merged.sort_by_key(|w| w.index);
    merged
}

/// Everything the telemetry layer produces for one serving run.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// The configuration that produced it.
    pub config: TelemetryConfig,
    /// Each rank's own window series.
    pub per_rank: Vec<Vec<WindowStats>>,
    /// The fleet-level series ([`merge_windows`] of `per_rank`).
    pub windows: Vec<WindowStats>,
    /// SLO evaluation over the fleet series, when configured.
    pub slo: Option<SloReport>,
}

impl TelemetryReport {
    /// Build the report from per-rank series.
    pub fn from_per_rank(config: TelemetryConfig, per_rank: Vec<Vec<WindowStats>>) -> TelemetryReport {
        let windows = merge_windows(&per_rank);
        let slo = config.slo.map(|s| evaluate_slo(&windows, s));
        TelemetryReport {
            config,
            per_rank,
            windows,
            slo,
        }
    }

    /// The fleet window series as CSV
    /// (`window,start_s,end_s,batches,records,rps,p50_ms,p99_ms,p999_ms,compliant`;
    /// the last column is empty without an SLO).
    pub fn windows_csv(&self) -> String {
        let mut out =
            String::from("window,start_s,end_s,batches,records,rps,p50_ms,p99_ms,p999_ms,compliant\n");
        for w in &self.windows {
            let compliant = match &self.slo {
                Some(slo) => slo
                    .windows
                    .iter()
                    .find(|r| r.index == w.index)
                    .map(|r| if r.compliant { "yes" } else { "no" })
                    .unwrap_or(""),
                None => "",
            };
            out.push_str(&format!(
                "{},{:.6},{:.6},{},{},{:.1},{:.4},{:.4},{:.4},{}\n",
                w.index,
                w.start,
                w.end,
                w.batches,
                w.records,
                w.throughput_rps(),
                w.hist.quantile(0.50) * 1e3,
                w.hist.quantile(0.99) * 1e3,
                w.hist.quantile(0.999) * 1e3,
                compliant,
            ));
        }
        out
    }

    /// Terminal-friendly rendering: the window table plus the SLO verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serving telemetry: {} window(s) of {:.6} s across {} rank(s)\n",
            self.windows.len(),
            self.config.window_seconds,
            self.per_rank.len()
        ));
        out.push_str(&format!(
            "  {:>6} {:>12} {:>10} {:>10} {:>12} {:>10} {:>10}\n",
            "window", "start_s", "batches", "records", "rps", "p99_ms", "p999_ms"
        ));
        for w in &self.windows {
            out.push_str(&format!(
                "  {:>6} {:>12.6} {:>10} {:>10} {:>12.1} {:>10.4} {:>10.4}\n",
                w.index,
                w.start,
                w.batches,
                w.records,
                w.throughput_rps(),
                w.hist.quantile(0.99) * 1e3,
                w.hist.quantile(0.999) * 1e3,
            ));
        }
        if let Some(slo) = &self.slo {
            out.push_str(&format!(
                "slo: p{:.4} <= {:.6} s over {:.1}% of windows\n",
                slo.spec.quantile * 100.0,
                slo.spec.threshold,
                slo.spec.target * 100.0
            ));
            out.push_str(&format!(
                "  compliance {:.1}% ({}/{} windows), error budget consumed {:.2}, \
                 burn rate {:.2}\n",
                slo.compliance * 100.0,
                slo.compliant_windows,
                slo.windows.len(),
                slo.error_budget_consumed,
                slo.burn_rate
            ));
            match slo.overload_at {
                Some(at) => out.push_str(&format!(
                    "  OVERLOADED: {} consecutive violating window(s) starting before window {}\n",
                    slo.spec.overload_windows, at
                )),
                None => out.push_str("  not overloaded\n"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_cgm::{Cluster, MachineConfig, OpKind};

    fn window_with(index: u64, latencies: &[f64]) -> WindowStats {
        let mut w = WindowStats::new(index, 1.0);
        for &l in latencies {
            w.batches += 1;
            w.records += 100;
            w.hist.record(l);
        }
        w
    }

    #[test]
    fn recorder_slices_batches_into_tumbling_windows() {
        let cfg = TelemetryConfig::new(1.0);
        let out = Cluster::new(1).run(move |proc| {
            let mut rec = WindowRecorder::new(cfg);
            // Batches at t = 0.2, 0.7 (window 0), 1.1 (window 1), 3.4
            // (window 3 — window 2 has no traffic and is simply absent).
            rec.record_batch(proc, 0.2, 100, 0.01);
            rec.record_batch(proc, 0.7, 100, 0.02);
            rec.record_batch(proc, 1.1, 100, 0.03);
            rec.record_batch(proc, 3.4, 100, 0.04);
            rec.finish(proc)
        });
        let windows = &out.results[0];
        assert_eq!(windows.len(), 3);
        assert_eq!(
            windows.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        assert_eq!(windows[0].batches, 2);
        assert_eq!(windows[0].records, 200);
        assert_eq!(windows[0].start, 0.0);
        assert_eq!(windows[0].end, 1.0);
        assert!((windows[0].throughput_rps() - 200.0).abs() < 1e-9);
        assert_eq!(windows[2].batches, 1);
    }

    #[test]
    fn recorder_exports_gauges_at_window_ends() {
        let cfg = TelemetryConfig::new(1.0).with_slo(SloSpec::p99(0.015));
        let mut machine = MachineConfig::default();
        machine.gauges = true;
        let out = Cluster::with_config(1, machine).run(move |proc| {
            let mut rec = WindowRecorder::new(cfg);
            rec.record_batch(proc, 0.5, 100, 0.01); // compliant window
            rec.record_batch(proc, 1.5, 100, 0.02); // violating window
            proc.charge(OpKind::Misc, 1);
            rec.finish(proc);
        });
        let gauges = &out.stats[0].gauges;
        let rps: Vec<_> = gauges.iter().filter(|g| g.name == "serve.window.rps").collect();
        assert_eq!(rps.len(), 2);
        assert_eq!(rps[0].time, 1.0, "window 0 sample sits at the window end");
        assert!((rps[0].value - 100.0).abs() < 1e-9);
        let violations: Vec<_> = gauges
            .iter()
            .filter(|g| g.name == "serve.slo.violation")
            .collect();
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].value, 0.0);
        assert_eq!(violations[1].value, 1.0);
    }

    #[test]
    fn merge_windows_is_exact_across_ranks() {
        let rank0 = vec![window_with(0, &[0.01, 0.02]), window_with(1, &[0.03])];
        let rank1 = vec![window_with(0, &[0.04]), window_with(2, &[0.05])];
        let merged = merge_windows(&[rank0, rank1]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].batches, 3);
        assert_eq!(merged[0].records, 300);
        assert_eq!(merged[0].hist.count(), 3);
        assert_eq!(merged[0].hist.max(), 0.04);
        assert_eq!(merged[1].index, 1);
        assert_eq!(merged[2].index, 2);
    }

    #[test]
    fn slo_compliance_budget_and_burn_rate() {
        // 10 windows, p99 threshold 0.015: windows with 0.02 latency violate.
        let windows: Vec<WindowStats> = (0..10)
            .map(|i| window_with(i, if i < 8 { &[0.01] } else { &[0.02] }))
            .collect();
        let spec = SloSpec {
            quantile: 0.99,
            threshold: 0.015,
            target: 0.9,
            overload_windows: 2,
        };
        let report = evaluate_slo(&windows, spec);
        assert_eq!(report.violating_windows, 2);
        assert!((report.compliance - 0.8).abs() < 1e-12);
        // Budget: 10% of 10 windows = 1 allowed violation; 2 observed → 2.0.
        assert!((report.error_budget_consumed - 2.0).abs() < 1e-12);
        assert!((report.burn_rate - 2.0).abs() < 1e-12);
        assert!(report.overloaded, "2 consecutive violations trip K=2");
        assert_eq!(report.overload_at, Some(9));
        // The per-window cumulative burn rate is monotone over the bad tail.
        assert!(report.windows[8].burn_rate < report.windows[9].burn_rate);
    }

    #[test]
    fn slo_overload_requires_consecutive_violations() {
        // Violations at windows 1, 3, 5 — never consecutive.
        let windows: Vec<WindowStats> = (0..6)
            .map(|i| window_with(i, if i % 2 == 1 { &[0.02] } else { &[0.01] }))
            .collect();
        let spec = SloSpec {
            quantile: 0.99,
            threshold: 0.015,
            target: 0.5,
            overload_windows: 2,
        };
        let report = evaluate_slo(&windows, spec);
        assert_eq!(report.violating_windows, 3);
        assert!(!report.overloaded);
        assert_eq!(report.overload_at, None);
        assert!((report.error_budget_consumed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_trivially_compliant() {
        let report = evaluate_slo(&[], SloSpec::p99(0.01));
        assert_eq!(report.compliance, 1.0);
        assert_eq!(report.error_budget_consumed, 0.0);
        assert!(!report.overloaded);
    }

    #[test]
    fn report_renders_and_exports_csv() {
        let cfg = TelemetryConfig::new(1.0).with_slo(SloSpec::p99(0.015));
        let per_rank = vec![
            vec![window_with(0, &[0.01]), window_with(1, &[0.02])],
            vec![window_with(0, &[0.01])],
        ];
        let report = TelemetryReport::from_per_rank(cfg, per_rank);
        let csv = report.windows_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("window,start_s,end_s,batches,records,rps,p50_ms,p99_ms,p999_ms,compliant")
        );
        assert_eq!(csv.lines().count(), 3, "header + 2 merged windows");
        assert!(csv.contains(",yes\n"));
        assert!(csv.contains(",no\n"));
        let rendered = report.render();
        assert!(rendered.contains("serving telemetry: 2 window(s)"));
        assert!(rendered.contains("slo: p99"));
        assert!(rendered.contains("compliance 50.0%"));
    }
}
