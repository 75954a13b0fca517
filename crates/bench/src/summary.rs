//! Machine-readable benchmark summaries.
//!
//! Every figure/ablation binary prints a human table and writes a CSV; the
//! CSV is for plotting, not for gating — its schema differs per binary and
//! parsing twelve bespoke layouts in CI is how perf gates rot. This module
//! gives every binary one shared, schema-versioned summary format: a flat
//! `metric name → f64` map written as `results/BENCH_<bin>.json` next to
//! the CSV. The `perf_gate` binary re-runs the quick-scale suite and
//! compares these files against checked-in baselines (see
//! [`crate::gate`]).
//!
//! Deterministic by construction: metrics serialize in insertion order,
//! values print via Rust's shortest-roundtrip `f64` formatting (so
//! `from_json(to_json(s)) == s` exactly), and the recorded
//! [`Scale`] name keeps quick-scale baselines from
//! being compared against default-scale runs. No serde — the format is
//! small enough to write by hand, and it is read back through the
//! workspace's one JSON parser ([`pdc_cgm::json`]).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pdc_cgm::json::{self, Value};

use crate::harness::Scale;

/// Schema tag written into every summary. Bump the suffix when the layout
/// changes incompatibly; the gate refuses to compare across schemas.
pub const BENCH_SCHEMA: &str = "pdc-bench-summary/1";

/// One binary's scalar results: an ordered `name → value` map plus enough
/// context (schema, binary, scale) to compare it safely later.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Schema tag ([`BENCH_SCHEMA`] when produced by this code).
    pub schema: String,
    /// Name of the producing binary, e.g. `fig_serving`.
    pub bin: String,
    /// Workload scale name the run used (`full` / `default` / `quick`).
    pub scale: String,
    /// Metrics in insertion order. Names use `[a-z0-9_.]`. Every value is
    /// deterministic and the gate compares it bitwise; the `_exact` suffix
    /// on some names dates from when only those were.
    pub metrics: Vec<(String, f64)>,
}

impl BenchSummary {
    /// Empty summary for `bin` at `scale`.
    pub fn new(bin: &str, scale: Scale) -> BenchSummary {
        BenchSummary {
            schema: BENCH_SCHEMA.to_string(),
            bin: bin.to_string(),
            scale: scale.name().to_string(),
            metrics: Vec::new(),
        }
    }

    /// Append a metric. Panics on a duplicate name, a name with characters
    /// outside `[a-z0-9_.]`, or a non-finite value — all three are
    /// producer bugs that would silently corrupt the gate.
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

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serialize to the canonical JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(&self.schema));
        let _ = writeln!(out, "  \"bin\": {},", json_string(&self.bin));
        let _ = writeln!(out, "  \"scale\": {},", json_string(&self.scale));
        out.push_str("  \"metrics\": {\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(out, "    {}: {}{comma}", json_string(name), json_f64(*value));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a summary previously written by [`BenchSummary::to_json`] (or
    /// hand-edited to the same shape). Returns a description of the first
    /// problem found.
    pub fn from_json(text: &str) -> Result<BenchSummary, String> {
        let Value::Object(members) = json::parse(text).map_err(|e| e.to_string())? else {
            return Err("summary must be a JSON object".to_string());
        };
        // Key order is fixed so hand-written baselines stay canonical.
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["schema", "bin", "scale", "metrics"] {
            return Err(format!(
                "expected keys [schema, bin, scale, metrics] in that order, found {keys:?}"
            ));
        }
        let mut values = members.into_iter().map(|(_, v)| v);
        let mut string = |key: &str| match values.next() {
            Some(Value::String(s)) => Ok(s),
            _ => Err(format!("{key:?} must be a string")),
        };
        let (schema, bin, scale) = (string("schema")?, string("bin")?, string("scale")?);
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "schema {schema:?} is not the supported {BENCH_SCHEMA:?}"
            ));
        }
        let Some(Value::Object(entries)) = values.next() else {
            return Err("\"metrics\" must be an object".to_string());
        };
        let mut metrics: Vec<(String, f64)> = Vec::with_capacity(entries.len());
        for (name, value) in entries {
            let Value::Number(v) = value else {
                return Err(format!("metric {name:?} must be a number"));
            };
            if !v.is_finite() {
                return Err(format!("non-finite value for metric {name:?}"));
            }
            if metrics.iter().any(|(n, _)| *n == name) {
                return Err(format!("duplicate metric {name:?}"));
            }
            metrics.push((name, v));
        }
        Ok(BenchSummary { schema, bin, scale, metrics })
    }

    /// Canonical on-disk location for `bin`'s summary under `dir`
    /// (`<dir>/BENCH_<bin>.json`).
    pub fn path_in(dir: &Path, bin: &str) -> PathBuf {
        dir.join(format!("BENCH_{bin}.json"))
    }

    /// Write the summary to `results/BENCH_<bin>.json`, creating the
    /// directory if needed; returns the path written.
    pub fn write(&self) -> PathBuf {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = BenchSummary::path_in(dir, &self.bin);
        std::fs::write(&path, self.to_json()).expect("write bench summary");
        path
    }

    /// Read and parse the summary at `path`.
    pub fn read(path: &Path) -> Result<BenchSummary, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        BenchSummary::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Quote and escape a string for JSON.
fn json_string(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// Shortest-roundtrip `f64` formatting; `{:?}` prints integral floats as
/// `1.0`, which JSON accepts (JSON has no `inf`/`nan`, but
/// [`BenchSummary::metric`] already rejects those).
fn json_f64(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSummary {
        let mut s = BenchSummary::new("fig_serving", Scale::Quick);
        s.metric("throughput_rps", 123456.789)
            .metric("p99_ms", 0.04375)
            .metric("records_exact", 24000.0)
            .metric("speedup", 1.0);
        s
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let s = sample();
        let parsed = BenchSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        // Bitwise: shortest-roundtrip formatting loses nothing.
        for ((_, a), (_, b)) in s.metrics.iter().zip(&parsed.metrics) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn roundtrips_awkward_values() {
        let mut s = BenchSummary::new("x", Scale::Default);
        s.metric("tiny", 1e-300)
            .metric("huge", 1e300)
            .metric("neg", -0.1)
            .metric("zero", 0.0)
            .metric("third", 1.0 / 3.0);
        let parsed = BenchSummary::from_json(&s.to_json()).unwrap();
        for ((_, a), (_, b)) in s.metrics.iter().zip(&parsed.metrics) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_wrong_schema() {
        let text = sample().to_json().replace("pdc-bench-summary/1", "other/9");
        let err = BenchSummary::from_json(&text).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{}",
            "{\"schema\": \"pdc-bench-summary/1\"}",
            "not json at all",
        ] {
            assert!(BenchSummary::from_json(bad).is_err(), "{bad:?} must fail");
        }
        let trailing = format!("{} extra", sample().to_json());
        assert!(BenchSummary::from_json(&trailing).is_err());
    }

    #[test]
    fn rejects_duplicate_metrics_in_document() {
        let text = sample()
            .to_json()
            .replace("\"p99_ms\": 0.04375", "\"throughput_rps\": 1.0");
        let err = BenchSummary::from_json(&text).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
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

    #[test]
    fn get_finds_metrics() {
        let s = sample();
        assert_eq!(s.get("p99_ms"), Some(0.04375));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn empty_metrics_roundtrip() {
        let s = BenchSummary::new("empty", Scale::Full);
        assert_eq!(BenchSummary::from_json(&s.to_json()).unwrap(), s);
    }
}
