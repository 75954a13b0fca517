//! **Extension — pCLOUDS vs parallel SPRINT (ScalParC-style).**
//!
//! The paper positions pCLOUDS against SPRINT-family classifiers: exact
//! pre-sorted splits, but memory-resident structures that grow with the
//! training set ("the use of memory-resident hash tables ... limits its
//! scalability"). This harness trains both on the same data and reports
//! simulated runtime, accuracy and — the point of CLOUDS — the resident
//! memory each needs per processor.

use pdc_baselines::build_tree_psprint;
use pdc_bench::harness::{
    experiment_config, machine_config, num, write_results, Scale, TableWriter,
};
use pdc_cgm::Cluster;
use pdc_clouds::{accuracy, holdout_pair};
use pdc_datagen::ClassifyFn;
use pdc_dnc::Strategy;
use pdc_pario::DiskFarm;
use pdc_pclouds::{load_dataset, train};

fn main() {
    let scale = Scale::from_env();
    // Parallel SPRINT holds everything in memory; keep the comparison at a
    // size both can run.
    let n = scale.records(1_200_000) as usize;
    let (records, test) = holdout_pair(ClassifyFn::F2, n, 20_000, 0.0);
    eprintln!("compare_psprint: n={n}");
    let mut table = TableWriter::new(&[
        "classifier",
        "p",
        "runtime_s",
        "accuracy",
        "resident_mb_per_proc",
    ]);
    for p in [4usize, 8, 16] {
        // pCLOUDS: out-of-core, bounded memory.
        let cfg = experiment_config(n as u64, scale);
        let farm = DiskFarm::in_memory(p);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let cluster = Cluster::with_config(p, machine_config(scale));
        let out = train(&cluster, &farm, &root, &cfg, Strategy::Mixed);
        table.row(vec![
            "pclouds".into(),
            p.to_string(),
            num(out.runtime()),
            num(accuracy(&out.tree, &test)),
            num(cfg.memory_limit_bytes as f64 / 1e6),
        ]);

        // Parallel SPRINT: in-core, replicated maps + distributed lists.
        let cfg2 = experiment_config(n as u64, scale);
        let cluster = Cluster::with_config(p, machine_config(scale));
        let run = cluster.run(|proc| build_tree_psprint(proc, &records, &cfg2.clouds));
        let (tree, stats) = &run.results[0];
        let lists_bytes = stats.list_entries * 16; // value + rid + padding
        table.row(vec![
            "psprint".into(),
            p.to_string(),
            num(run.makespan()),
            num(accuracy(tree, &test)),
            num((stats.replicated_bytes + lists_bytes) as f64 / 1e6),
        ]);
    }
    table.print();
    let csv_path = write_results("compare_psprint", "csv", scale, table.csv());
    eprintln!("  wrote {}", csv_path.display());
}
