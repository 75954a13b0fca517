//! Machine-readable benchmark summaries.
//!
//! Every figure/ablation binary prints a human table and writes a CSV whose
//! cells carry two to six decimals. The summary is the same run's scalars
//! at full precision: a flat `metric name → f64` map written next to the
//! CSV through the harness's path rule, `results/BENCH_<bin>.json` at
//! default scale (committed) and `results/BENCH_<bin>.<scale>.json`
//! otherwise (git-ignored).
//!
//! The committed summaries are the drift check: regenerating `results/`
//! and running `git diff` compares every metric bitwise, because the
//! serialization is. Metrics serialize in insertion order and values print
//! via Rust's shortest-roundtrip `f64` formatting, so two values one ulp
//! apart (or `0.0` and `-0.0`) never print alike, and parsing a value back
//! ([`pdc_cgm::json::parse`]) yields its exact bits. No serde — the format
//! is small enough to write by hand.

use std::fmt::Write as _;
use std::path::PathBuf;

use pdc_cgm::json;

use crate::harness::{write_results, Scale};

/// Schema tag written into every summary. Bump the suffix when the layout
/// changes incompatibly.
const BENCH_SCHEMA: &str = "pdc-bench-summary/1";

/// One binary's scalar results: an ordered `name → value` map plus the
/// binary and the scale that produced it.
#[derive(Debug)]
pub struct BenchSummary {
    bin: String,
    scale: Scale,
    /// Metrics in insertion order. Names use `[a-z0-9_.]`; the `_exact`
    /// suffix on some names dates from when only those were compared
    /// bitwise, and stays so no committed key moves.
    metrics: Vec<(String, f64)>,
}

impl BenchSummary {
    /// Empty summary for `bin` at `scale`.
    pub fn new(bin: &str, scale: Scale) -> BenchSummary {
        BenchSummary {
            bin: bin.to_string(),
            scale,
            metrics: Vec::new(),
        }
    }

    /// Append a metric. Panics on a duplicate name, a name with characters
    /// outside `[a-z0-9_.]`, or a non-finite value — all three are
    /// producer bugs that would silently corrupt the committed record.
    pub fn metric(&mut self, name: &str, value: f64) -> &mut BenchSummary {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.'),
            "metric name {name:?} must be non-empty [a-z0-9_.]"
        );
        assert!(
            self.metrics.iter().all(|(n, _)| n != name),
            "duplicate metric {name:?}"
        );
        assert!(value.is_finite(), "metric {name:?} must be finite, got {value}");
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Serialize to the canonical JSON form.
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(BENCH_SCHEMA));
        let _ = writeln!(out, "  \"bin\": {},", json_string(&self.bin));
        let _ = writeln!(out, "  \"scale\": {},", json_string(self.scale.name()));
        out.push_str("  \"metrics\": {\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            // `{:?}` is shortest-roundtrip and prints integral floats as
            // `1.0`, which JSON accepts; `metric` already refused inf/NaN.
            let _ = writeln!(out, "    {}: {value:?}{comma}", json_string(name));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Write the summary to `BENCH_<bin>.json` under the harness's path
    /// rule; returns the path written.
    pub fn write(&self) -> PathBuf {
        write_results(&format!("BENCH_{}", self.bin), "json", self.scale, self.to_json())
    }
}

/// Quote and escape a string for JSON.
fn json_string(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_cgm::json::Value;

    fn sample() -> BenchSummary {
        let mut s = BenchSummary::new("fig_serving", Scale::Quick);
        s.metric("throughput_rps", 123456.789)
            .metric("p99_ms", 0.04375)
            .metric("records_exact", 24000.0)
            .metric("speedup", 1.0);
        s
    }

    /// `to_json` read back through the workspace's JSON parser gives the
    /// header in order and every metric's exact bits.
    fn assert_bitwise_roundtrip(s: &BenchSummary) {
        let Ok(Value::Object(members)) = json::parse(&s.to_json()) else {
            panic!("to_json must emit one JSON object")
        };
        let header = [("schema", BENCH_SCHEMA), ("bin", &s.bin), ("scale", s.scale.name())];
        assert_eq!(members.len(), header.len() + 1);
        for ((key, value), (k, v)) in members.iter().zip(header) {
            assert_eq!((key.as_str(), value), (k, &Value::String(v.to_string())));
        }
        let (key, Value::Object(entries)) = &members[header.len()] else {
            panic!("metrics must be an object")
        };
        assert_eq!(key, "metrics");
        assert_eq!(entries.len(), s.metrics.len());
        for ((n, a), (m, b)) in s.metrics.iter().zip(entries) {
            let Value::Number(b) = b else { panic!("{m}: not a number") };
            assert_eq!(n, m);
            assert_eq!(a.to_bits(), b.to_bits(), "{n}: {a:?} came back as {b:?}");
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        assert_bitwise_roundtrip(&sample());
    }

    #[test]
    fn roundtrips_awkward_values() {
        let mut s = BenchSummary::new("x", Scale::Default);
        s.metric("tiny", 1e-300)
            .metric("huge", 1e300)
            .metric("neg", -0.1)
            .metric("neg_zero", -0.0)
            .metric("zero", 0.0)
            .metric("third", 1.0 / 3.0)
            .metric("integral", 24000.0)
            .metric("big_integral", 2f64.powi(53))
            .metric("subnormal", f64::from_bits(1));
        assert_bitwise_roundtrip(&s);
    }

    #[test]
    fn empty_metrics_roundtrip() {
        assert_bitwise_roundtrip(&BenchSummary::new("empty", Scale::Full));
    }

    /// The drift check is a text diff of these files: a metric whose bits
    /// move must move exactly its own line.
    fn assert_serialize_differently(a: f64, b: f64) {
        let render = |v: f64| {
            let mut s = sample();
            s.metric("moved", v);
            s.to_json()
        };
        let (ja, jb) = (render(a), render(b));
        let changed: Vec<_> = ja.lines().zip(jb.lines()).filter(|(x, y)| x != y).collect();
        assert_eq!(changed.len(), 1, "{a:?} vs {b:?}: {changed:?}");
    }

    #[test]
    fn values_one_ulp_apart_serialize_differently() {
        for (_, v) in &sample().metrics {
            assert_serialize_differently(*v, f64::from_bits(v.to_bits() + 1));
            assert_serialize_differently(*v, f64::from_bits(v.to_bits() - 1));
        }
    }

    #[test]
    fn zero_serializes_apart_from_its_sign_and_neighbours() {
        for moved in [-0.0, 1e-300, f64::from_bits(1), -f64::from_bits(1)] {
            assert_serialize_differently(0.0, moved);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn metric_rejects_duplicates() {
        let mut s = BenchSummary::new("x", Scale::Quick);
        s.metric("a", 1.0).metric("a", 2.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn metric_rejects_non_finite() {
        BenchSummary::new("x", Scale::Quick).metric("a", f64::NAN);
    }
}
