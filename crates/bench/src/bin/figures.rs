//! **Figures 1–3 — speedup, sizeup and scaleup**, three views of one design
//! (classification function 2, q_root = 10,000, 1 MB memory limit at 6M
//! tuples scaled linearly, switch threshold of ten intervals):
//!
//! * **Figure 1**: speedup T(1)/T(p) against p (1–16) for 3.6–7.2 million
//!   records. Expected: speedup improves with data size; superlinear points
//!   around p = 4 (cache effects + aggregate disk bandwidth); flattening at
//!   p = 16 for the smaller sets.
//! * **Figure 2**: the same speedups against the size for p = 4, 8, 16.
//!   Expected: marginal gains at p = 4 and 8, clear gains at p = 16 —
//!   computation grows with the data, message startups do not.
//! * **Figure 3**: runtime against p at 0.2–0.6 million records per
//!   processor. Expected: "a near linear relationship between parallel
//!   runtime and the number of processors" (message startups, unregrouped
//!   small-node task parallelism).
//!
//! Each distinct (records, p) cell is trained once, on first read: every
//! figure-2 point is a figure-1 cell, and figure 3 shares two with figure 1.
//! `PCLOUDS_SCALE=full` runs the paper's sizes; the default is 1/20.
//!
//! `FIG1_PROCS` (processor counts, e.g. `1,64,256`) and `FIG1_SIZES`
//! (paper-scale record counts) override figure 1's grid; such a sweep trains
//! and writes figure 1 only, under the name `fig1_speedup_custom`, so it
//! never overwrites a committed artifact.

use std::collections::HashMap;
use std::fmt::Debug;
use std::str::FromStr;

use pdc_bench::harness::{ascii_chart, num, write_results, Experiment, Scale, TableWriter};

const PAPER_SIZES: [u64; 4] = [3_600_000, 4_800_000, 6_000_000, 7_200_000];
const PROCS: [usize; 5] = [1, 2, 4, 8, 16];
const SIZEUP_PROCS: [usize; 3] = [4, 8, 16];
const PAPER_DENSITIES: [u64; 5] = [200_000, 300_000, 400_000, 500_000, 600_000];

/// Grid point of a paper-scale record count: 0.1M units, stable across
/// scales.
fn key(paper_count: u64) -> u64 {
    paper_count / 100_000
}

/// The comma-separated override `raw` of `var`. Panics, naming `var`, on an
/// entry that does not parse or that repeats an earlier entry's grid point.
fn parse_list<T>(var: &str, raw: &str, key: impl Fn(T) -> u64) -> Vec<T>
where
    T: FromStr<Err: Debug> + Copy + Debug,
{
    let mut list: Vec<T> = Vec::new();
    for s in raw.split(',') {
        let value: T = s.trim().parse().unwrap_or_else(|e| panic!("{var}: bad entry {s:?}: {e:?}"));
        if let Some(earlier) = list.iter().find(|&&e| key(e) == key(value)) {
            panic!("{var}: entries {earlier:?} and {value:?} repeat one grid point");
        }
        list.push(value);
    }
    list
}

/// Figure 1's (sizes, procs) under the raw `FIG1_PROCS` / `FIG1_SIZES`
/// values, or `None` when neither is set; a bad override panics here.
fn custom_sweep(procs: Option<&str>, sizes: Option<&str>) -> Option<(Vec<u64>, Vec<usize>)> {
    if procs.is_none() && sizes.is_none() {
        return None;
    }
    let procs = procs.map_or(PROCS.to_vec(), |raw| parse_list("FIG1_PROCS", raw, |p| p as u64));
    assert!(procs.iter().all(|&p| p >= 1), "FIG1_PROCS entries must be >= 1");
    let sizes = sizes.map_or(PAPER_SIZES.to_vec(), |raw| parse_list("FIG1_SIZES", raw, key));
    Some((sizes, procs))
}

/// `train(records, p)`, called at most once per distinct cell.
fn once_per_cell(mut train: impl FnMut(u64, usize) -> f64) -> impl FnMut(u64, usize) -> f64 {
    let mut runtimes = HashMap::new();
    move |n, p| *runtimes.entry((n, p)).or_insert_with(|| train(n, p))
}

/// One figure's table, and the text printed after the table.
struct Figure {
    name: String,
    table: TableWriter,
    chart: String,
}

impl Figure {
    fn new(name: &str, headers: &[&str]) -> Figure {
        Figure { name: name.to_string(), table: TableWriter::new(headers), chart: String::new() }
    }

    fn write(self, scale: Scale) {
        print!("{}{}", self.table.render(), self.chart);
        let csv_path = write_results(&self.name, "csv", scale, self.table.csv());
        eprintln!("  wrote {}", csv_path.display());
    }
}

/// Figure 1: speedup T(base)/T(p) per size, with base the sweep's first
/// processor count (p = 1 on the default grid).
fn fig1(
    name: &str,
    scale: Scale,
    sizes: &[u64],
    procs: &[usize],
    runtime: &mut impl FnMut(u64, usize) -> f64,
) -> Figure {
    let mut fig = Figure::new(name, &["records", "p", "runtime_s", "speedup", "efficiency"]);
    let mut series = Vec::new();
    for &paper_n in sizes {
        let n = scale.records(paper_n);
        let t_base = runtime(n, procs[0]);
        let mut points = Vec::new();
        for &p in procs {
            let t = runtime(n, p);
            let speedup = t_base / t;
            points.push((p as f64, speedup));
            fig.table.row(vec![
                n.to_string(),
                p.to_string(),
                num(t),
                num(speedup),
                num(speedup / p as f64),
            ]);
        }
        series.push((format!("{n} records"), points));
    }
    fig.chart = format!("\nspeedup vs processors:\n{}", ascii_chart(&series, 56, 16));
    fig
}

/// Figure 2: figure 1's speedups T(1)/T(p) against the size, per p.
fn fig2(scale: Scale, runtime: &mut impl FnMut(u64, usize) -> f64) -> Figure {
    let mut fig = Figure::new("fig2_sizeup", &["p", "records", "runtime_s", "speedup"]);
    for p in SIZEUP_PROCS {
        for paper_n in PAPER_SIZES {
            let n = scale.records(paper_n);
            let tp = runtime(n, p);
            let speedup = runtime(n, 1) / tp;
            let cells = [p.to_string(), n.to_string(), num(tp), num(speedup)];
            fig.table.row(cells.to_vec());
        }
    }
    fig
}

/// Figure 3: runtime against p at a fixed number of records per processor.
fn fig3(scale: Scale, runtime: &mut impl FnMut(u64, usize) -> f64) -> Figure {
    let headers = ["records_per_proc", "p", "records_total", "runtime_s"];
    let mut fig = Figure::new("fig3_scaleup", &headers);
    for paper_density in PAPER_DENSITIES {
        let density = scale.records(paper_density);
        for p in PROCS {
            let n = density * p as u64;
            let t = runtime(n, p);
            let cells = [density.to_string(), p.to_string(), n.to_string(), num(t)];
            fig.table.row(cells.to_vec());
        }
    }
    fig
}

fn main() {
    let scale = Scale::from_env();
    let var = |name| std::env::var(name).ok();
    let custom = custom_sweep(var("FIG1_PROCS").as_deref(), var("FIG1_SIZES").as_deref());
    eprintln!("figures: scale {scale:?} (divisor {})", scale.divisor());
    let mut runtime = once_per_cell(|n, p| {
        let t = Experiment::new(n, p, scale).run().runtime();
        eprintln!("  n={n} p={p}: T={t:.3}s");
        t
    });
    if let Some((sizes, procs)) = custom {
        fig1("fig1_speedup_custom", scale, &sizes, &procs, &mut runtime).write(scale);
        return;
    }
    fig1("fig1_speedup", scale, &PAPER_SIZES, &PROCS, &mut runtime).write(scale);
    fig2(scale, &mut runtime).write(scale);
    fig3(scale, &mut runtime).write(scale);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::{cell::RefCell, collections::HashSet};

    #[test]
    fn default_grid_trains_each_of_its_43_cells_once() {
        let trained = RefCell::new(Vec::new());
        let mut runtime = once_per_cell(|n, p| {
            trained.borrow_mut().push((n, p));
            n as f64 / p as f64
        });
        fig1("fig1_speedup", Scale::Default, &PAPER_SIZES, &PROCS, &mut runtime);
        let fig1_cells: HashSet<(u64, usize)> = trained.borrow().iter().copied().collect();
        assert_eq!(fig1_cells.len(), 20);

        fig2(Scale::Default, &mut runtime);
        assert_eq!(trained.borrow().len(), 20, "a fig-2 point left fig 1");

        let mut reads = Vec::new();
        fig3(Scale::Default, &mut |n, p| {
            reads.push((n, p));
            runtime(n, p)
        });
        let shared: Vec<_> = reads.iter().filter(|c| fig1_cells.contains(c)).collect();
        assert_eq!(shared, [&(240_000, 16), &(240_000, 8)]);

        let trained = trained.borrow();
        assert_eq!(trained.len(), 43);
        assert_eq!(trained.iter().collect::<HashSet<_>>().len(), 43, "a cell trained twice");
    }

    #[test]
    fn colliding_overrides_are_rejected_before_training() {
        assert_eq!(custom_sweep(None, None), None);
        let sweep = custom_sweep(Some("1,16,64,256"), Some("3600000"));
        assert_eq!(sweep, Some((vec![3_600_000], vec![1, 16, 64, 256])));
        for (procs, sizes, expected) in [
            (Some("4,4"), None, "FIG1_PROCS: entries 4 and 4"),
            (None, Some("3600000,3650000"), "FIG1_SIZES: entries 3600000 and 3650000"),
        ] {
            let err = std::panic::catch_unwind(|| custom_sweep(procs, sizes)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.starts_with(expected), "{msg}");
        }
    }
}
