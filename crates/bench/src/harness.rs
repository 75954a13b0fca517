//! Shared machinery of the figure/table harnesses: workload scaling,
//! pCLOUDS experiment runs, the `results/` path rule, text/CSV table output
//! and model fitting.

use std::path::{Path, PathBuf};

use pdc_cgm::{Cluster, MachineConfig};
use pdc_clouds::CloudsParams;
use pdc_datagen::{GeneratorConfig, RecordStream};
use pdc_dnc::Strategy;
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};
use pdc_pclouds::{load_dataset_stream, train, PcloudsConfig, TrainOutput};

/// Workload scale, selected by the `PCLOUDS_SCALE` environment variable:
/// `full` runs the paper's record counts, `default` 1/20 of them, `quick`
/// 1/100 (smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale workloads (3.6M–7.2M records; a minute or two of wall
    /// time per figure).
    Full,
    /// 1/20 of the paper (default; all twelve bins that own a committed
    /// `results/` file take about a minute together on two cores).
    Default,
    /// 1/100 of the paper (seconds; for smoke tests).
    Quick,
}

impl Scale {
    /// Read the scale from the environment. Panics on a value other than
    /// `default`, `quick` or `full`: a typo must not silently run at the
    /// default scale, which writes the committed `results/` files.
    pub fn from_env() -> Scale {
        let value = std::env::var_os("PCLOUDS_SCALE");
        Scale::parse(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// The scale `PCLOUDS_SCALE` names (`None`: unset).
    fn parse(value: Option<&str>) -> Scale {
        match value {
            None | Some("default") => Scale::Default,
            Some("quick") => Scale::Quick,
            Some("full") => Scale::Full,
            Some(other) => {
                panic!("PCLOUDS_SCALE={other:?}: expected unset, default, quick or full")
            }
        }
    }

    /// Divisor applied to the paper's record counts.
    pub fn divisor(self) -> u64 {
        match self {
            Scale::Full => 1,
            Scale::Default => 20,
            Scale::Quick => 100,
        }
    }

    /// Scale a paper-sized record count.
    pub fn records(self, paper_count: u64) -> u64 {
        (paper_count / self.divisor()).max(1_000)
    }

    /// The paper used q_root = 10,000 for millions of records; scale it with
    /// the data so the interval resolution per record stays comparable.
    fn q_root(self) -> usize {
        (10_000 / self.divisor() as usize).max(500)
    }

    /// Stable name in the file names of non-default-scale artifacts.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Default => "default",
            Scale::Quick => "quick",
        }
    }
}

/// One pCLOUDS experiment: generate `n` records (streamed — never all in
/// memory), load them onto `p` disks, train. Starts from the paper's setup
/// at `scale` ([`machine_config`], [`experiment_config`], mixed
/// parallelism, engine off); every deviation is a value set on the builder
/// before the single [`Experiment::run`].
///
/// The observability presets ([`Experiment::traced`],
/// [`Experiment::profiled`]) only flip pure-observation switches of the
/// machine, so their runs are bit-identical in virtual times and counters
/// to the bare run.
#[derive(Debug, Clone)]
pub struct Experiment {
    n: u64,
    p: usize,
    strategy: Strategy,
    machine: MachineConfig,
    config: PcloudsConfig,
    engine: EngineConfig,
}

impl Experiment {
    /// The paper's experiment on `n` records and `p` processors at `scale`.
    pub fn new(n: u64, p: usize, scale: Scale) -> Self {
        Experiment {
            n,
            p,
            strategy: Strategy::Mixed,
            machine: machine_config(scale),
            config: experiment_config(n, scale),
            engine: EngineConfig::disabled(),
        }
    }

    /// Parallelization strategy of the divide-and-conquer driver.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Adjust the simulated machine (faults, cost model, observation, ...).
    pub fn machine(mut self, tweak: impl FnOnce(&mut MachineConfig)) -> Self {
        tweak(&mut self.machine);
        self
    }

    /// Adjust the pCLOUDS configuration (thresholds, recovery, ...).
    pub fn config(mut self, tweak: impl FnOnce(&mut PcloudsConfig)) -> Self {
        tweak(&mut self.config);
        self
    }

    /// Run the disk farm on the asynchronous engine configured by `engine`
    /// (buffer pool, write-back, and the prefetch the engine decides on —
    /// see [`pdc_pario::EngineConfig`] and [`pdc_pario::IoEngine::prefetch`]).
    pub fn engine(mut self, engine: &EngineConfig) -> Self {
        self.engine = engine.clone();
        self
    }

    /// Spans + event-DAG recording on (see [`pdc_cgm::evg`]): the returned
    /// stats carry the causal event graph every view is derived from —
    /// [`pdc_cgm::chrome_trace_json`], [`pdc_cgm::critical_path`], span
    /// rollups, and [`pdc_cgm::EventGraph::from_stats`] for what-if
    /// [`pdc_cgm::replay()`].
    pub fn traced(self) -> Self {
        self.machine(|m| {
            m.spans = true;
            m.record = true;
        })
    }

    /// The full observability stack — spans, the event DAG and resource
    /// gauges ([`pdc_cgm::gauge`]) — for [`pdc_cgm::BuildReport`].
    pub fn profiled(self) -> Self {
        self.traced().machine(|m| m.gauges = true)
    }

    /// Build the farm, stream the data set onto it, build the cluster,
    /// train. Virtual runtime = `output.runtime()`.
    pub fn run(&self) -> TrainOutput {
        let stream = RecordStream::new(GeneratorConfig::default()).take(self.n as usize);
        let farm = DiskFarm::with_engine(self.p, BackendKind::InMemory, &self.engine);
        let root = load_dataset_stream(
            &farm,
            stream,
            self.config.clouds.sample_size,
            self.config.clouds.sample_seed,
        );
        let cluster = Cluster::with_config(self.p, self.machine.clone());
        train(&cluster, &farm, &root, &self.config, self.strategy)
    }
}

fn results_path(name: &str, ext: &str, scale: Scale) -> PathBuf {
    let file = match scale {
        Scale::Default => format!("{name}.{ext}"),
        _ => format!("{name}.{}.{ext}", scale.name()),
    };
    Path::new("results").join(file)
}

/// Write a bench binary's artifact `<name>.<ext>` and return where it went.
/// Only a default-scale run writes the committed `results/<name>.<ext>`;
/// other scales get `results/<name>.<scale>.<ext>` (git-ignored), so a
/// quick-scale smoke run never dirties the work tree.
pub fn write_results(name: &str, ext: &str, scale: Scale, contents: impl AsRef<[u8]>) -> PathBuf {
    let path = results_path(name, ext, scale);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// The simulated machine for a given workload scale. Cache capacities (CPU
/// cache, per-node disk buffer cache) shrink with the workload so the
/// cache-crossover processor counts — the source of the paper's superlinear
/// speedups — land at the same p as at full scale.
pub fn machine_config(scale: Scale) -> MachineConfig {
    let mut cfg = MachineConfig::default();
    let div = scale.divisor() as usize;
    cfg.cost.disk.cache_bytes = (cfg.cost.disk.cache_bytes / div).max(64 * 1024);
    cfg.cost.cache.capacity_bytes = (cfg.cost.cache.capacity_bytes / div).max(16 * 1024);
    // Chunk sizes shrink with the memory limit at reduced scale; scale the
    // seek latency likewise so the cold-read cost per byte stays what it is
    // at full scale (otherwise tiny chunks become latency-bound and the
    // buffer-cache cliff is exaggerated).
    cfg.cost.disk.access_latency /= div as f64;
    cfg
}

/// The paper's configuration for a data set of `n` records: memory limit
/// 1 MB at 6M tuples scaled linearly, switch threshold of ten intervals,
/// q_root scaled with the workload scale.
pub fn experiment_config(n: u64, scale: Scale) -> PcloudsConfig {
    let mut config = PcloudsConfig::paper_scaled(n);
    config.clouds = CloudsParams {
        q_root: scale.q_root(),
        sample_size: (n as usize / 20).clamp(2_000, 200_000),
        ..CloudsParams::default()
    };
    config
}

/// One float cell of a results file: Rust's shortest round-trip form, so
/// parsing the cell back gives `value`'s exact bits and two values one ulp
/// apart (or `0.0` and `-0.0`) never print alike. The committed `results/`
/// files are the drift check, bitwise through this function. Panics on NaN
/// or ±∞, which would corrupt the committed record; `#[track_caller]` names
/// the cell's call site.
#[track_caller]
pub fn num(value: f64) -> String {
    assert!(value.is_finite(), "results cell must be finite, got {value}");
    format!("{value:?}")
}

/// A table of stringified cells, rendered with aligned columns for the
/// terminal and as CSV for `results/`.
pub struct TableWriter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TableWriter {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringify the cells yourself).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row shape mismatch");
        self.rows.push(cells);
    }

    /// The header line and one line per row, comma-separated.
    pub fn csv(&self) -> String {
        std::iter::once(&self.headers)
            .chain(&self.rows)
            .map(|cells| cells.join(",") + "\n")
            .collect()
    }

    /// Print the aligned table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The header row, a rule and the rows, right-aligned per column.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)));
        let mut out = fmt_row(&self.headers) + &rule + "\n";
        for row in &self.rows {
            out += &fmt_row(row);
        }
        out
    }
}

/// Multivariate least squares `y ≈ Σ c_i · f_i(x)` via normal equations
/// (tiny systems only). Returns the coefficients and R².
pub fn least_squares(design: &[Vec<f64>], ys: &[f64]) -> (Vec<f64>, f64) {
    let rows = design.len();
    assert_eq!(rows, ys.len());
    let cols = design[0].len();
    // Normal equations: (XᵀX) c = Xᵀ y.
    let mut xtx = vec![vec![0.0f64; cols]; cols];
    let mut xty = vec![0.0f64; cols];
    for (row, &y) in design.iter().zip(ys) {
        assert_eq!(row.len(), cols);
        for i in 0..cols {
            xty[i] += row[i] * y;
            for j in 0..cols {
                xtx[i][j] += row[i] * row[j];
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    let mut a = xtx;
    let mut b = xty;
    for i in 0..cols {
        let pivot = (i..cols)
            .max_by(|&x, &y| a[x][i].abs().partial_cmp(&a[y][i].abs()).unwrap())
            .unwrap();
        a.swap(i, pivot);
        b.swap(i, pivot);
        let d = a[i][i];
        assert!(d.abs() > 1e-12, "singular design matrix");
        for v in a[i][i..cols].iter_mut() {
            *v /= d;
        }
        b[i] /= d;
        for k in 0..cols {
            if k != i {
                let f = a[k][i];
                let pivot_row = a[i].clone();
                for (v, pv) in a[k][i..cols].iter_mut().zip(&pivot_row[i..cols]) {
                    *v -= f * pv;
                }
                b[k] -= f * b[i];
            }
        }
    }
    let coeffs = b;
    let my = ys.iter().sum::<f64>() / rows as f64;
    let ss_res: f64 = design
        .iter()
        .zip(ys)
        .map(|(row, &y)| {
            let pred: f64 = row.iter().zip(&coeffs).map(|(x, c)| x * c).sum();
            (y - pred).powi(2)
        })
        .sum();
    let ss_tot: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let r2 = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    (coeffs, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divisors() {
        assert_eq!(Scale::Full.records(7_200_000), 7_200_000);
        assert_eq!(Scale::Default.records(7_200_000), 360_000);
        assert_eq!(Scale::Quick.records(7_200_000), 72_000);
        assert_eq!(Scale::Quick.records(10_000), 1_000, "floor");
    }

    #[test]
    fn observability_presets_do_not_move_the_run() {
        let bare = Experiment::new(12_000, 4, Scale::Quick);
        let reference = bare.run();
        for (name, preset) in [
            ("traced", bare.clone().traced()),
            ("profiled", bare.clone().profiled()),
        ] {
            let out = preset.run();
            assert_eq!(out.tree, reference.tree, "{name}: tree changed");
            for (a, b) in reference.run.stats.iter().zip(&out.run.stats) {
                assert!(a.spans.is_empty() && !b.spans.is_empty(), "{name}: spans");
                assert_eq!(
                    a.finish_time.to_bits(),
                    b.finish_time.to_bits(),
                    "{name}: rank {} finish bits moved",
                    a.rank
                );
                assert_eq!(a.counters, b.counters, "{name}: rank {} counters moved", a.rank);
            }
        }
    }

    #[test]
    fn scale_names_parse_and_anything_else_panics() {
        assert_eq!(Scale::parse(None), Scale::Default);
        for scale in [Scale::Default, Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(Some(scale.name())), scale);
        }
        for typo in ["ful", "", "Quick", "default "] {
            let err = std::panic::catch_unwind(|| Scale::parse(Some(typo))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("unset, default, quick or full"), "{typo:?}: {msg}");
        }
    }

    #[test]
    fn only_default_scale_writes_the_committed_artifact_name() {
        for (name, ext) in [
            ("fig2_sizeup", "csv"),
            ("phase_breakdown", "txt"),
            ("fig1_speedup_custom", "csv"),
        ] {
            let committed = format!("results/{name}.{ext}");
            assert_eq!(results_path(name, ext, Scale::Default), Path::new(&committed));
            for scale in [Scale::Quick, Scale::Full] {
                let other = format!("results/{name}.{}.{ext}", scale.name());
                assert_eq!(results_path(name, ext, scale), Path::new(&other));
            }
        }
    }

    /// Ordinary cells: every value parses back to its exact bits.
    #[test]
    fn num_round_trips_every_bit() {
        for v in [0.1 + 0.2, 1e-7, 1.0 / 3.0, -2.5, 123456.789, 0.04375, 1.0] {
            let cell = num(v);
            let back: f64 = cell.parse().unwrap_or_else(|e| panic!("{cell:?}: {e}"));
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} came back as {back:?}");
        }
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }

    /// Values at the edges of the format round-trip too: subnormals, signed
    /// zero, huge and tiny magnitudes, and integral values past 2^53.
    #[test]
    fn num_round_trips_awkward_values() {
        let awkward = [
            f64::from_bits(1),
            5e-324,
            1e-300,
            1e300,
            1e21,
            -0.1,
            -0.0,
            0.0,
            24e3,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
        ];
        for v in awkward {
            let cell = num(v);
            let back: f64 = cell.parse().unwrap_or_else(|e| panic!("{cell:?}: {e}"));
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} came back as {back:?}");
        }
    }

    /// The drift check is a text diff of the CSVs: a value whose bits move
    /// by one ulp must move its cell.
    #[test]
    fn num_values_one_ulp_apart_print_differently() {
        for v in [0.1 + 0.2, 1e-7, 5e-324, 1e21, 1.0 / 3.0, -2.5, 24e3, 2f64.powi(53)] {
            assert_ne!(num(v.next_up()), num(v), "{v:?}");
            assert_ne!(num(v.next_down()), num(v), "{v:?}");
        }
    }

    #[test]
    fn num_zero_prints_apart_from_its_sign_and_neighbours() {
        assert_eq!((num(0.0), num(-0.0)), ("0.0".to_string(), "-0.0".to_string()));
        for moved in [-0.0, 1e-300, f64::from_bits(1), -f64::from_bits(1)] {
            assert_ne!(num(moved), num(0.0), "{moved:?}");
        }
    }

    #[test]
    fn num_rejects_non_finite_values_naming_them() {
        for (v, name) in [(f64::NAN, "NaN"), (f64::INFINITY, "inf"), (f64::NEG_INFINITY, "-inf")] {
            let err = std::panic::catch_unwind(|| num(v)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.ends_with(&format!("must be finite, got {name}")), "{msg}");
        }
    }

    #[test]
    fn least_squares_two_terms() {
        // y = 5*log2(p) + 0.25*m
        let mut design = Vec::new();
        let mut ys = Vec::new();
        for p in [2.0f64, 4.0, 8.0, 16.0] {
            for m in [100.0f64, 1_000.0, 10_000.0] {
                design.push(vec![p.log2(), m]);
                ys.push(5.0 * p.log2() + 0.25 * m);
            }
        }
        let (c, r2) = least_squares(&design, &ys);
        assert!((c[0] - 5.0).abs() < 1e-6);
        assert!((c[1] - 0.25).abs() < 1e-6);
        assert!(r2 > 0.999_999);
    }

    #[test]
    fn table_writer_renders_without_panic() {
        let mut t = TableWriter::new(&["a", "bb"]);
        t.row(vec!["1".into(), "222".into()]);
        assert_eq!(t.render(), "a   bb\n------\n1  222\n");
        assert_eq!(t.csv(), "a,bb\n1,222\n");
        t.print();
    }
}

/// Render one or more `(label, points)` series as an ASCII scatter chart —
/// a terminal rendition of the paper's figures. Each series gets its own
/// marker; axes are linear and auto-scaled to the data.
pub fn ascii_chart(series: &[(String, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    const MARKS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let points: Vec<(f64, f64)> = series.iter().flat_map(|(_, pts)| pts.iter().copied()).collect();
    if points.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x_lo, mut x_hi, mut y_lo, mut y_hi) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &points {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
        y_lo = y_lo.min(y);
        y_hi = y_hi.max(y);
    }
    y_lo = y_lo.min(0.0);
    let (x_span, y_span) = ((x_hi - x_lo).max(1e-12), (y_hi - y_lo).max(1e-12));
    let mut grid = vec![vec![' '; width]; height];
    for (s, (_, pts)) in series.iter().enumerate() {
        let mark = MARKS[s % MARKS.len()];
        for &(x, y) in pts {
            let col = (((x - x_lo) / x_span) * (width - 1) as f64).round() as usize;
            let row = (((y - y_lo) / y_span) * (height - 1) as f64).round() as usize;
            grid[height - 1 - row][col.min(width - 1)] = mark;
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let y_val = y_hi - (r as f64 / (height - 1) as f64) * y_span;
        out.push_str(&format!("{y_val:>8.1} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>8}  {:<.1}{:>w$.1}\n",
        "",
        x_lo,
        x_hi,
        w = width.saturating_sub(format!("{x_lo:.1}").len())
    ));
    for (s, (label, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", MARKS[s % MARKS.len()], label));
    }
    out
}

#[cfg(test)]
mod chart_tests {
    use super::ascii_chart;

    #[test]
    fn chart_renders_all_series() {
        let series = vec![
            ("a".to_string(), vec![(1.0, 1.0), (2.0, 2.0)]),
            ("b".to_string(), vec![(1.0, 2.0), (2.0, 4.0)]),
        ];
        let chart = ascii_chart(&series, 40, 10);
        assert!(chart.contains('*') && chart.contains('o'));
        assert!(chart.contains("a") && chart.contains("b"));
        assert_eq!(ascii_chart(&[], 10, 5), "(no data)\n");
    }
}
