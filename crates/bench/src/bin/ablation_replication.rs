//! **Ablation — attribute-based vs interval-based boundary evaluation
//! (§5.1.1).**
//!
//! The paper implements the replication method with the attribute-based
//! approach but notes that "it is possible for some processors to idle and
//! hence can lead to poor load balancing"; the interval-based approach
//! distributes every attribute's intervals across all processors. This
//! harness compares the two at processor counts straddling the attribute
//! count (9): below it the approaches are similar; above it the
//! attribute-based owners become the bottleneck of the derive phase.

use pdc_bench::harness::{csv_flag, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;
use pdc_pclouds::BoundaryEval;

fn main() {
    let scale = Scale::from_env();
    let csv = csv_flag();
    let n = scale.records(3_600_000);
    eprintln!("ablation_replication: n={n}");
    let mut summary = BenchSummary::new("ablation_replication", scale);
    let mut table = TableWriter::new(
        &[
            "approach",
            "p",
            "runtime_s",
            "derive_max_s",
            "derive_min_s",
            "messages",
        ],
        csv,
    );
    for p in [4usize, 8, 16, 32] {
        for (name, approach) in [
            ("attribute", BoundaryEval::AttributeBased),
            ("interval", BoundaryEval::IntervalBased),
        ] {
            let out = Experiment::new(n, p, scale)
                .config(|c| c.boundary_eval = approach)
                .run();
            let derive: Vec<f64> = out.metrics.iter().map(|m| m.time_derive).collect();
            summary.metric(&format!("{name}_p{p}_runtime_s"), out.runtime());
            summary.metric(
                &format!("{name}_p{p}_derive_max_s"),
                derive.iter().cloned().fold(0.0f64, f64::max),
            );
            table.row(vec![
                name.to_string(),
                p.to_string(),
                format!("{:.3}", out.runtime()),
                format!("{:.3}", derive.iter().cloned().fold(0.0f64, f64::max)),
                format!("{:.3}", derive.iter().cloned().fold(f64::MAX, f64::min)),
                out.run.total_counters().messages_sent.to_string(),
            ]);
        }
    }
    table.print();
    let path = summary.write();
    eprintln!("  wrote {}", path.display());
}
