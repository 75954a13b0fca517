//! **Ablation — SS vs SSE vs the direct method (CLOUDS' split derivation,
//! which pCLOUDS inherits).**
//!
//! For several classification functions: classifier accuracy, tree size
//! (pruned), root survival ratio and the parallel runtime under SS and SSE.
//! Expected: SSE and the direct method agree on accuracy (the SSE bound is
//! exact over alive intervals); SS is close but can mis-rank near-optimal
//! splits; survival ratios stay small (SSE's second pass is cheap).

use pdc_bench::harness::{experiment_config, num, write_results, Experiment, Scale, TableWriter};
use pdc_clouds::{accuracy, build_tree, holdout_pair, mdl_prune, MdlParams, SplitMethod};
use pdc_datagen::ClassifyFn;

fn main() {
    let scale = Scale::from_env();
    let n = scale.records(2_000_000) as usize;
    let p = 8;

    // --- Part 1: sequential quality comparison. ---
    let mut quality = TableWriter::new(&["function", "method", "accuracy", "leaves_pruned"]);
    for f in [ClassifyFn::F1, ClassifyFn::F2, ClassifyFn::F7] {
        let n_quality = (n / 4).max(20_000);
        let (train_set, test_set) = holdout_pair(f, n_quality * 3 / 4, n_quality / 4, 0.0);
        for method in [SplitMethod::Direct, SplitMethod::SS, SplitMethod::SSE] {
            let cfg = experiment_config(train_set.len() as u64, scale);
            let mut params = cfg.clouds.clone();
            params.method = method;
            let mut tree = build_tree(&train_set, &params);
            mdl_prune(&mut tree, &MdlParams::default());
            quality.row(vec![
                format!("F{}", f.index()),
                format!("{method:?}"),
                num(accuracy(&tree, &test_set)),
                tree.num_leaves().to_string(),
            ]);
        }
    }
    let quality_heading = "-- split-method quality (sequential, pruned) --";
    println!("{quality_heading}");
    quality.print();

    // --- Part 2: parallel runtime SS vs SSE + survival ratio. ---
    let mut runtime = TableWriter::new(&["method", "runtime_s", "root_survival", "alive_points"]);
    for method in [SplitMethod::SS, SplitMethod::SSE] {
        let out = Experiment::new(n as u64, p, scale)
            .config(|c| c.clouds.method = method)
            .run();
        let survival = out
            .metrics
            .iter()
            .map(|m| m.root_survival_ratio)
            .fold(0.0f64, f64::max);
        let alive: u64 = out.metrics.iter().map(|m| m.alive_points_scanned).sum();
        runtime.row(vec![
            format!("{method:?}"),
            num(out.runtime()),
            num(survival),
            alive.to_string(),
        ]);
    }
    let runtime_heading = format!("-- parallel runtime on {n} records, p={p} --");
    println!("\n{runtime_heading}");
    runtime.print();
    let csv = format!(
        "{quality_heading}\n{}\n{runtime_heading}\n{}",
        quality.csv(),
        runtime.csv()
    );
    let csv_path = write_results("ablation_sse", "csv", scale, csv);
    eprintln!("  wrote {}", csv_path.display());
}
