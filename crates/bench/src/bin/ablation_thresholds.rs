//! **Ablation — switching threshold and memory limit.**
//!
//! The paper switches from data to task parallelism at ten intervals and
//! uses a 1 MB (per 6M tuples) memory limit, but gives "no concrete
//! criteria for switching" — this harness sweeps both knobs and reports the
//! runtime, showing the trade-off the paper describes: switching too late
//! wastes message startups on tiny nodes; switching too early loses the
//! data-parallel balance; too small a memory limit pays seeks, too large
//! defeats out-of-core operation.

use std::collections::HashMap;

use pdc_bench::harness::{experiment_config, num, write_results, Experiment, Scale, TableWriter};

fn main() {
    let scale = Scale::from_env();
    let n = scale.records(3_600_000);
    let p = 8;
    let base_mem = experiment_config(n, scale).memory_limit_bytes;

    eprintln!("ablation_thresholds: n={n} p={p} base_mem={base_mem}");
    // Each distinct (switch, memory) cell trains once: the sweeps cross at
    // (10, base_mem).
    let mut runtimes = HashMap::new();
    let mut runtime = |switch: usize, mem: usize| {
        *runtimes.entry((switch, mem)).or_insert_with(|| {
            Experiment::new(n, p, scale)
                .config(|c| {
                    c.switch_threshold_intervals = switch;
                    c.memory_limit_bytes = mem;
                })
                .run()
                .runtime()
        })
    };
    let mut sw = TableWriter::new(&["switch_threshold_intervals", "runtime_s"]);
    for switch in [1usize, 5, 10, 25, 50, 100] {
        let t = runtime(switch, base_mem);
        sw.row(vec![switch.to_string(), num(t)]);
        eprintln!("  switch={switch}: {t:.3}s");
    }
    let sw_heading = "-- switching threshold sweep (memory limit fixed) --";
    println!("{sw_heading}");
    sw.print();

    let mut mem_table = TableWriter::new(&["memory_limit_kb", "runtime_s"]);
    for factor in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let mem = ((base_mem as f64 * factor) as usize).max(8 * 1024);
        let t = runtime(10, mem);
        mem_table.row(vec![(mem / 1024).to_string(), num(t)]);
        eprintln!("  mem={}kb: {t:.3}s", mem / 1024);
    }
    let mem_heading = "-- memory limit sweep (switch threshold = 10) --";
    println!("\n{mem_heading}");
    mem_table.print();
    let csv = format!("{sw_heading}\n{}\n{mem_heading}\n{}", sw.csv(), mem_table.csv());
    let csv_path = write_results("ablation_thresholds", "csv", scale, csv);
    eprintln!("  wrote {}", csv_path.display());
}
