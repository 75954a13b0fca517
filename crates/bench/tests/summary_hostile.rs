//! `BenchSummary::from_json` reads files a human may have edited and the
//! perf gate trusts: hostile input must come back as an error (or a
//! summary that re-serializes canonically), never as a panic.

use pdc_bench::harness::Scale;
use pdc_bench::summary::BenchSummary;
use proptest::prelude::*;

fn sample() -> String {
    let mut s = BenchSummary::new("fig_serving", Scale::Quick);
    s.metric("throughput_rps", 123456.789)
        .metric("p99_ms", 0.04375)
        .metric("records_exact", 24000.0);
    s.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_summary_text_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        text in "\\PC{0,80}",
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let valid = sample();
        let mut mutated = valid.clone().into_bytes();
        let at = at % mutated.len();
        mutated[at] = byte;
        // The sample is ASCII (any cut is a char boundary) and ends `}\n`:
        // every cut before the closing brace leaves a broken document.
        let truncated = &valid[..cut % (valid.len() - 1)];
        for doc in [
            String::from_utf8_lossy(&noise).into_owned(),
            text,
            format!("{{\"schema\": \"{}\"}}", String::from_utf8_lossy(&noise)),
            truncated.to_string(),
            String::from_utf8_lossy(&mutated).into_owned(),
        ] {
            if let Ok(summary) = BenchSummary::from_json(&doc) {
                // Whatever parsed is a well-formed summary: finite, unique
                // metrics that survive a canonical round trip.
                prop_assert!(summary.metrics.iter().all(|(_, v)| v.is_finite()));
                prop_assert_eq!(BenchSummary::from_json(&summary.to_json()), Ok(summary));
            }
        }
        prop_assert!(BenchSummary::from_json(truncated).is_err());
    }
}

#[test]
fn structural_damage_is_an_error_with_a_location() {
    let valid = sample();
    for (bad, needle) in [
        (valid.replace("\"bin\"", "\"scale\""), "expected keys"),
        (valid.replace("0.04375", "1e999"), "non-finite"),
        (valid.replace("0.04375", "\"fast\""), "must be a number"),
        (valid.replace("\"quick\"", "7"), "must be a string"),
        (valid.replace("\"metrics\": {", "\"metrics\": ["), "byte"),
        (valid.replace("0.04375", "0.04375,"), "byte"),
        (format!("[{valid}]"), "must be a JSON object"),
        ("[".repeat(10_000), "too deep"),
    ] {
        let err = BenchSummary::from_json(&bad).unwrap_err();
        assert!(err.contains(needle), "{err}");
    }
}
