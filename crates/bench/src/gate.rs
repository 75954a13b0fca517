//! Perf-regression gating: compare a fresh [`BenchSummary`] against a
//! checked-in baseline, **bitwise**.
//!
//! Every gated number comes off the virtual clock or out of a counter, and
//! both are deterministic: a summary either reproduces its baseline bit for
//! bit or the model changed. There is no tolerance to tune. The contract:
//!
//! * schemas and scales must match exactly (a quick-scale baseline never
//!   gates a default-scale run);
//! * every baseline metric must exist in the current run (metrics may be
//!   *added* freely — the gate is forward-compatible — but a metric
//!   disappearing is itself a regression of the measurement);
//! * every metric must be **bitwise equal** (`f64::to_bits`) to its
//!   baseline, whatever its name (the `_exact` suffix some names carry is
//!   history, kept so no baseline key moves).
//!
//! To re-baseline, copy the fresh `results/BENCH_*.json` over the file in
//! `results/baselines/` and say in the commit why the numbers moved.

use crate::summary::BenchSummary;

/// Why a metric (or a whole summary) failed the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// The two summaries carry different schema tags.
    SchemaMismatch,
    /// The two summaries were produced at different workload scales.
    ScaleMismatch,
    /// A baseline metric is missing from the current run.
    MissingMetric,
    /// A metric changed bits.
    Mismatch,
}

/// One gate failure, with everything a CI log needs to explain it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The binary whose summary failed.
    pub bin: String,
    /// The offending metric (empty for summary-level mismatches).
    pub metric: String,
    /// Baseline value (0.0 for summary-level mismatches).
    pub baseline: f64,
    /// Current value (0.0 when the metric is missing).
    pub current: f64,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl Violation {
    /// One-line rendering for gate output.
    pub fn render(&self) -> String {
        match self.kind {
            ViolationKind::SchemaMismatch => {
                format!("{}: schema mismatch (re-baseline after schema bumps)", self.bin)
            }
            ViolationKind::ScaleMismatch => format!(
                "{}: scale mismatch — baseline and run must use the same PCLOUDS_SCALE",
                self.bin
            ),
            ViolationKind::MissingMetric => format!(
                "{}/{}: metric present in baseline but missing from this run",
                self.bin, self.metric
            ),
            ViolationKind::Mismatch => {
                // `{:?}` prints the shortest digits that round-trip, so two
                // values one ulp apart never render alike.
                let delta = (self.current - self.baseline) / self.baseline * 100.0;
                format!(
                    "{}/{}: {:?} -> {:?} ({delta:+.3e}%; must be bitwise equal)",
                    self.bin, self.metric, self.baseline, self.current
                )
            }
        }
    }
}

/// Compare `current` against `baseline`. Returns every violation (empty =
/// gate passes for this binary).
pub fn compare(baseline: &BenchSummary, current: &BenchSummary) -> Vec<Violation> {
    let violation = |metric: &str, baseline_value, current, kind| Violation {
        bin: baseline.bin.clone(),
        metric: metric.to_string(),
        baseline: baseline_value,
        current,
        kind,
    };
    if baseline.schema != current.schema {
        return vec![violation("", 0.0, 0.0, ViolationKind::SchemaMismatch)];
    }
    if baseline.scale != current.scale {
        return vec![violation("", 0.0, 0.0, ViolationKind::ScaleMismatch)];
    }
    let mut out = Vec::new();
    for (name, base) in &baseline.metrics {
        match current.get(name) {
            None => out.push(violation(name, *base, 0.0, ViolationKind::MissingMetric)),
            Some(cur) if cur.to_bits() != base.to_bits() => {
                out.push(violation(name, *base, cur, ViolationKind::Mismatch))
            }
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    fn baseline() -> BenchSummary {
        let mut s = BenchSummary::new("fig_demo", Scale::Quick);
        s.metric("throughput_rps", 1000.0)
            .metric("p99_ms", 2.0)
            .metric("records_exact", 24000.0);
        s
    }

    #[test]
    fn identical_summaries_pass() {
        let b = baseline();
        let mut c = b.clone();
        c.metric("extra_new_metric", 7.0); // additions are fine
        assert!(compare(&b, &b.clone()).is_empty());
        assert!(compare(&b, &c).is_empty());
    }

    #[test]
    fn one_ulp_in_any_metric_fails_with_both_values_printed() {
        let b = baseline();
        for (name, base) in &b.metrics {
            for next in [base.to_bits() + 1, base.to_bits() - 1] {
                let moved = f64::from_bits(next);
                let mut c = BenchSummary::new("fig_demo", Scale::Quick);
                for (n, v) in &b.metrics {
                    c.metric(n, if n == name { moved } else { *v });
                }
                let v = compare(&b, &c);
                assert_eq!(v.len(), 1, "{name}");
                assert_eq!(v[0].kind, ViolationKind::Mismatch);
                assert_eq!(v[0].metric, *name);
                let line = v[0].render();
                assert!(
                    line.contains(&format!("{base:?}")) && line.contains(&format!("{moved:?}")),
                    "{line}"
                );
                assert_ne!(format!("{base:?}"), format!("{moved:?}"));
            }
        }
    }

    #[test]
    fn exact_metrics_require_bitwise_equality() {
        // The zero baseline of a counter is as exact as any other value,
        // and so is the sign of zero.
        let mut b = BenchSummary::new("z", Scale::Quick);
        b.metric("count_exact", 0.0);
        for moved in [1e-300, -0.0] {
            let mut c = BenchSummary::new("z", Scale::Quick);
            c.metric("count_exact", moved);
            let v = compare(&b, &c);
            assert_eq!(v.len(), 1, "{moved:?}");
            assert_eq!(v[0].kind, ViolationKind::Mismatch);
        }
    }

    #[test]
    fn missing_metric_fails() {
        let b = baseline();
        let mut c = BenchSummary::new("fig_demo", Scale::Quick);
        c.metric("throughput_rps", 1000.0)
            .metric("records_exact", 24000.0);
        let v = compare(&b, &c);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::MissingMetric);
        assert_eq!(v[0].metric, "p99_ms");
    }

    #[test]
    fn scale_mismatch_short_circuits() {
        let b = baseline();
        let mut c = BenchSummary::new("fig_demo", Scale::Default);
        c.metric("throughput_rps", 1000.0);
        let v = compare(&b, &c);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::ScaleMismatch);
    }

    #[test]
    fn schema_mismatch_short_circuits() {
        let b = baseline();
        let mut c = b.clone();
        c.schema = "pdc-bench-summary/999".to_string();
        let v = compare(&b, &c);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::SchemaMismatch);
    }
}
