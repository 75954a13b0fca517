//! **Ablation — switching threshold and memory limit.**
//!
//! The paper switches from data to task parallelism at ten intervals and
//! uses a 1 MB (per 6M tuples) memory limit, but gives "no concrete
//! criteria for switching" — this harness sweeps both knobs and reports the
//! runtime, showing the trade-off the paper describes: switching too late
//! wastes message startups on tiny nodes; switching too early loses the
//! data-parallel balance; too small a memory limit pays seeks, too large
//! defeats out-of-core operation.

use pdc_bench::harness::{csv_flag, experiment_config, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;

fn run(n: u64, p: usize, scale: Scale, switch: usize, mem: usize) -> f64 {
    Experiment::new(n, p, scale)
        .config(|c| {
            c.switch_threshold_intervals = switch;
            c.memory_limit_bytes = mem;
        })
        .run()
        .runtime()
}

fn main() {
    let scale = Scale::from_env();
    let csv = csv_flag();
    let n = scale.records(3_600_000);
    let p = 8;
    let base_mem = experiment_config(n, scale).memory_limit_bytes;

    eprintln!("ablation_thresholds: n={n} p={p} base_mem={base_mem}");
    let mut summary = BenchSummary::new("ablation_thresholds", scale);
    let mut sw = TableWriter::new(&["switch_threshold_intervals", "runtime_s"], csv);
    for switch in [1usize, 5, 10, 25, 50, 100] {
        let t = run(n, p, scale, switch, base_mem);
        summary.metric(&format!("switch{switch}_runtime_s"), t);
        sw.row(vec![switch.to_string(), format!("{t:.3}")]);
        eprintln!("  switch={switch}: {t:.3}s");
    }
    println!("-- switching threshold sweep (memory limit fixed) --");
    sw.print();

    let mut mem_table = TableWriter::new(&["memory_limit_kb", "runtime_s"], csv);
    for (i, factor) in [0.25f64, 0.5, 1.0, 2.0, 4.0].into_iter().enumerate() {
        let mem = ((base_mem as f64 * factor) as usize).max(8 * 1024);
        let t = run(n, p, scale, 10, mem);
        summary.metric(&format!("mem{i}_runtime_s"), t);
        mem_table.row(vec![(mem / 1024).to_string(), format!("{t:.3}")]);
        eprintln!("  mem={}kb: {t:.3}s", mem / 1024);
    }
    println!("\n-- memory limit sweep (switch threshold = 10) --");
    mem_table.print();
    let path = summary.write();
    eprintln!("  wrote {}", path.display());
}
