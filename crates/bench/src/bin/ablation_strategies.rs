//! **Ablation — parallelization strategies (Section 3 of the paper).**
//!
//! Runs the same pCLOUDS workload under the four strategies and reports
//! simulated runtime, message counts and bytes. Expected ordering (the
//! paper's argument):
//!
//! * **mixed (delayed)** is fastest — data parallelism while nodes are
//!   large, batched task parallelism for the small-node tail;
//! * **mixed (immediate)** pays more message startups than delayed;
//! * **data parallelism only** wastes startups on tiny nodes;
//! * **concatenated** behaves like data parallelism here (per-level
//!   batching) and shares memory across a level — the paper's reason to
//!   prefer plain data parallelism out-of-core.

use pdc_bench::harness::{num, write_results, Experiment, Scale, TableWriter};
use pdc_dnc::Strategy;

fn main() {
    let scale = Scale::from_env();
    let n = scale.records(4_800_000);
    let p = 8;
    eprintln!("ablation_strategies: n={n} p={p}");
    let mut table = TableWriter::new(&[
        "strategy",
        "runtime_s",
        "messages",
        "comm_mbytes",
        "imbalance",
    ]);
    for (name, strategy) in [
        ("mixed-delayed", Strategy::Mixed),
        ("mixed-immediate", Strategy::MixedImmediate),
        ("data-parallel", Strategy::DataParallel),
        ("concatenated", Strategy::Concatenated),
    ] {
        let out = Experiment::new(n, p, scale).strategy(strategy).run();
        let totals = out.run.total_counters();
        table.row(vec![
            name.to_string(),
            num(out.runtime()),
            totals.messages_sent.to_string(),
            num(totals.bytes_sent as f64 / 1e6),
            num(out.run.imbalance()),
        ]);
        eprintln!("  {name}: {:.3}s, {} msgs", out.runtime(), totals.messages_sent);
    }
    table.print();
    let csv_path = write_results("ablation_strategies", "csv", scale, table.csv());
    eprintln!("  wrote {}", csv_path.display());
}
