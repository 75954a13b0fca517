//! **Figure 3 — Scaleup characteristics.**
//!
//! The paper plots parallel runtime against the number of processors with
//! the per-processor data held fixed at 0.2–0.6 million records per
//! processor. Ideal scaleup would be a flat line; the paper observes "a
//! near linear relationship between parallel runtime and the number of
//! processors", i.e. a slow, roughly linear increase — message startups
//! plus the unregrouped small-node task parallelism.

use pdc_bench::harness::{write_results, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;

fn main() {
    let scale = Scale::from_env();
    let mut summary = BenchSummary::new("fig3_scaleup", scale);
    let paper_densities: [u64; 5] = [200_000, 300_000, 400_000, 500_000, 600_000];
    let procs = [1usize, 2, 4, 8, 16];

    eprintln!("fig3_scaleup: scale {scale:?}");
    let mut table = TableWriter::new(&["records_per_proc", "p", "records_total", "runtime_s"]);
    for paper_density in paper_densities {
        let density = scale.records(paper_density);
        for &p in &procs {
            let n = density * p as u64;
            let out = Experiment::new(n, p, scale).run();
            let t = out.runtime();
            let dk = paper_density / 100_000;
            summary.metric(&format!("runtime_s_d{dk}_p{p}"), t);
            table.row(vec![
                density.to_string(),
                p.to_string(),
                n.to_string(),
                format!("{t:.3}"),
            ]);
            eprintln!("  density={density} p={p}: T={t:.3}s");
        }
    }
    table.print();
    let csv_path = write_results("fig3_scaleup", "csv", scale, table.csv());
    let path = summary.write();
    eprintln!("  wrote {} and {}", csv_path.display(), path.display());
}
