//! **Table 1 — Collective communication primitive complexities.**
//!
//! The paper states for a cut-through routed hypercube:
//!
//! | primitive            | complexity                  |
//! |----------------------|-----------------------------|
//! | all-to-all broadcast | `O(ts·log p + tw·m·(p−1))`  |
//! | gather               | `O(ts·log p + tw·m·p)`      |
//! | global combine       | `O((ts + tw·m)·log p)`      |
//! | prefix sum           | `O((ts + tw·m)·log p)`      |
//!
//! Collectives here are built from point-to-point messages, so their cost
//! is *measured* (simulated time) and fitted against the stated model. The
//! harness reports the fitted coefficients (which should recover the
//! machine's ts and tw) and the R² of the fit.

use pdc_bench::harness::{least_squares, num, write_results, Scale, TableWriter};
use pdc_cgm::{Cluster, MachineConfig};

/// Measure one collective: returns simulated seconds for (p, m_bytes).
fn measure(p: usize, m_bytes: usize, which: &str) -> f64 {
    let cluster = Cluster::new(p);
    let words = (m_bytes / 8).max(1);
    let out = cluster.run(|proc| {
        let payload: Vec<u64> = vec![proc.rank() as u64; words];
        match which {
            "all_gather" => {
                let _ = proc.all_gather(payload);
            }
            "gather" => {
                let _ = proc.gather(0, payload);
            }
            "combine" => {
                let _ = proc.allreduce(payload, |a, b| {
                    a.iter().zip(&b).map(|(x, y)| x + y).collect()
                });
            }
            "prefix_sum" => {
                let _ = proc.scan(payload, |a, b| {
                    a.iter().zip(&b).map(|(x, y)| x + y).collect()
                });
            }
            other => panic!("unknown primitive {other}"),
        }
        proc.clock()
    });
    out.makespan()
}

fn main() {
    // The workload does not scale; the scale only picks the file name.
    let scale = Scale::from_env();
    let cfg = MachineConfig::default();
    let (ts, tw) = (cfg.cost.network.alpha, cfg.cost.network.beta);
    let machine = format!(
        "machine: ts = {} us, tw = {} ns/byte ({} MB/s)",
        num(ts * 1e6),
        num(tw * 1e9),
        num(1.0 / tw / 1e6)
    );
    println!("{machine}");

    let procs = [2usize, 4, 8, 16, 32];
    let sizes = [64usize, 1_024, 16_384, 131_072];

    let mut raw = TableWriter::new(&["primitive", "p", "m_bytes", "time_us"]);
    // Model terms per primitive: f(p, m) rows of the design matrix.
    type Terms = fn(f64, f64) -> Vec<f64>;
    let models: [(&str, Terms); 4] = [
        ("all_gather", |p, m| vec![p.log2(), m * (p - 1.0)]),
        ("gather", |p, m| vec![p.log2(), m * p]),
        ("combine", |p, m| vec![p.log2(), m * p.log2()]),
        ("prefix_sum", |p, m| vec![p.log2(), m * p.log2()]),
    ];
    let mut fits = TableWriter::new(&["primitive", "model", "ts_fit_us", "tw_fit_ns", "r2"]);
    for (name, terms) in models {
        let mut design = Vec::new();
        let mut ys = Vec::new();
        for &p in &procs {
            for &m in &sizes {
                let t = measure(p, m, name);
                raw.row(vec![
                    name.to_string(),
                    p.to_string(),
                    m.to_string(),
                    num(t * 1e6),
                ]);
                design.push(terms(p as f64, m as f64));
                ys.push(t);
            }
        }
        let (coeffs, r2) = least_squares(&design, &ys);
        let model = match name {
            "all_gather" => "ts*log p + tw*m*(p-1)",
            "gather" => "ts*log p + tw*m*p",
            _ => "(ts + tw*m)*log p",
        };
        fits.row(vec![
            name.to_string(),
            model.to_string(),
            num(coeffs[0] * 1e6),
            num(coeffs[1] * 1e9),
            num(r2),
        ]);
    }
    let raw_heading = "-- raw measurements --";
    let fits_heading = "-- model fits (compare ts_fit/tw_fit to the machine constants above) --";
    println!("\n{raw_heading}");
    raw.print();
    println!("\n{fits_heading}");
    fits.print();
    let csv = format!(
        "{machine}\n\n{raw_heading}\n{}\n{fits_heading}\n{}",
        raw.csv(),
        fits.csv()
    );
    let csv_path = write_results("table1_primitives", "csv", scale, csv);
    eprintln!("  wrote {}", csv_path.display());
}
