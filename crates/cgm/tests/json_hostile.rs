//! `json::parse` reads files a human may have edited (the host-clock
//! ledger, exported traces): hostile text must come back as `Ok` or as an
//! error naming where it broke, never as a panic.

use pdc_cgm::json;
use proptest::prelude::*;

/// A flat object of named metrics, plus every other kind of value:
/// escapes, a surrogate pair, literals and exponents.
const SAMPLE: &str = r#"{
  "schema": "sample/1",
  "bin": "fig_serving",
  "scale": "quick",
  "metrics": {
    "throughput_rps": 123456.789,
    "p99_ms": 0.04375,
    "records_exact": 24000.0,
    "tiny": 1e-300
  },
  "tags": ["a\"b\\c", "\u00e9\ud83d\ude00", true, false, null, -0.0, []]
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_json_text_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        text in "\\PC{0,80}",
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut mutated = SAMPLE.as_bytes().to_vec();
        mutated[at % SAMPLE.len()] = byte;
        // The sample is ASCII (any cut is a char boundary) and ends `}\n`:
        // every cut before the closing brace leaves a broken document.
        let truncated = &SAMPLE[..cut % (SAMPLE.len() - 1)];
        for doc in [
            String::from_utf8_lossy(&noise).into_owned(),
            text,
            format!("{{\"schema\": \"{}\"}}", String::from_utf8_lossy(&noise)),
            truncated.to_string(),
            String::from_utf8_lossy(&mutated).into_owned(),
        ] {
            if let Err(e) = json::parse(&doc) {
                prop_assert!(e.offset <= doc.len(), "{e} past the end of {} bytes", doc.len());
            }
        }
        prop_assert!(json::parse(truncated).is_err());
    }
}

#[test]
fn structural_damage_is_an_error_with_a_location() {
    for (bad, needle) in [
        (SAMPLE.replace("\"metrics\": {", "\"metrics\": ["), "at byte"),
        (SAMPLE.replace("0.04375", "0.04375,"), "at byte"),
        (SAMPLE.replace("true", "ture"), "bad literal"),
        (format!("{SAMPLE} extra"), "trailing data"),
        ("[".repeat(10_000), "too deep"),
    ] {
        let err = json::parse(&bad).unwrap_err().to_string();
        assert!(err.contains(needle), "{err}");
    }
}
