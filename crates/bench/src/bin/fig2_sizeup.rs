//! **Figure 2 — Sizeup characteristics.**
//!
//! The paper plots speedup against the training-set size (3.6–7.2 million
//! records) for 4, 8 and 16 processors. Expected shape: marginal gains at
//! p = 4 and 8 (speedup already near maximum), clear gains with size at
//! p = 16 — computation grows with the data while the message-startup cost
//! of exchanging count matrices and split points does not.

use pdc_bench::harness::{write_results, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;

fn main() {
    let scale = Scale::from_env();
    let mut summary = BenchSummary::new("fig2_sizeup", scale);
    let paper_sizes: [u64; 4] = [3_600_000, 4_800_000, 6_000_000, 7_200_000];
    let procs = [4usize, 8, 16];

    eprintln!("fig2_sizeup: scale {scale:?}");
    let mut table = TableWriter::new(&["p", "records", "runtime_s", "speedup"]);
    for &p in &procs {
        for paper_n in paper_sizes {
            let n = scale.records(paper_n);
            let t1 = Experiment::new(n, 1, scale).run().runtime();
            let tp = Experiment::new(n, p, scale).run().runtime();
            let speedup = t1 / tp;
            let mk = paper_n / 100_000;
            summary.metric(&format!("runtime_s_n{mk}_p{p}"), tp);
            summary.metric(&format!("speedup_n{mk}_p{p}"), speedup);
            table.row(vec![
                p.to_string(),
                n.to_string(),
                format!("{tp:.3}"),
                format!("{speedup:.2}"),
            ]);
            eprintln!("  p={p} n={n}: speedup={speedup:.2}");
        }
    }
    table.print();
    let csv_path = write_results("fig2_sizeup", "csv", scale, table.csv());
    let path = summary.write();
    eprintln!("  wrote {} and {}", csv_path.display(), path.display());
}
