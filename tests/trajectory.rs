//! The host-clock ledger `results/trajectory.jsonl`: one JSON object per
//! line, one line per PR, in PR order. CI runs this beside the greps that
//! keep the deleted record codec deleted.

use pdc_cgm::json::{self, Value};

const WORKLOADS: [&str; 4] = ["train_mem_p4", "train_wide_p64", "train_file_p4", "serve_flat_p4"];
const METRICS: [&str; 4] = ["setup_s", "rec_per_s", "peak_rss_mb", "virt_s"];

fn member<'a>(object: &'a Value, key: &str) -> Option<&'a Value> {
    match object {
        Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn trajectory_parses_and_pr_numbers_strictly_increase() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/trajectory.jsonl");
    let text = std::fs::read_to_string(path).expect("results/trajectory.jsonl is committed");
    let mut last_pr = 0.0;
    let rows = text.lines().count();
    for (n, line) in text.lines().enumerate() {
        let row = json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", n + 1));
        let Some(Value::Number(pr)) = member(&row, "pr") else {
            panic!("line {}: no numeric \"pr\"", n + 1);
        };
        assert!(*pr > last_pr, "line {}: PR {pr} after PR {last_pr}", n + 1);
        last_pr = *pr;
        // A revision is a commit hash `git` resolves; only the newest row,
        // written before its own commit exists, may name its parent instead.
        let Some(Value::String(rev)) = member(&row, "rev") else {
            panic!("line {}: no \"rev\"", n + 1);
        };
        let is_hash = (7..=40).contains(&rev.len()) && rev.bytes().all(|b| b.is_ascii_hexdigit());
        assert!(
            is_hash || (n + 1 == rows && !rev.is_empty() && !rev.contains(' ')),
            "line {}: rev {rev:?}",
            n + 1
        );
        assert!(matches!(member(&row, "host_cores"), Some(Value::Number(_))), "line {}", n + 1);
        // The 16 end-to-end numbers: a number, or null where none was recorded.
        let end_to_end = member(&row, "end_to_end").expect("end_to_end");
        for workload in WORKLOADS {
            let metrics = member(end_to_end, workload).unwrap_or_else(|| panic!("{workload}"));
            for metric in METRICS {
                assert!(
                    matches!(member(metrics, metric), Some(Value::Number(_) | Value::Null)),
                    "line {}: {workload}.{metric}",
                    n + 1
                );
            }
        }
    }
    assert!(last_pr >= 49.0, "the ledger's last \"pr\" is {last_pr}, below 49");
}
