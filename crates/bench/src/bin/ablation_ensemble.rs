//! **Ablation — bagged ensembles on subgroups: accuracy, makespan and
//! memory budget across subgroup width × ensemble size.**
//!
//! Two parts, both asserting their contract in-bin:
//!
//! 1. **Accuracy.** For every SLIQ generator function, train one tree and
//!    an 8-tree bagged ensemble on noisy data and score both against a
//!    disjoint noise-free holdout ([`pdc_clouds::holdout_pair`]). The
//!    ensemble must strictly beat the single tree on at least 8 of the 10
//!    functions — bagging has to earn its extra compute.
//! 2. **Scheduling sweep.** Subgroup width w ∈ {1, 2, 4} × ensemble size
//!    B ∈ {1, 4, 8} on p = 8 ranks, with the per-rank memory budget set to
//!    exactly the width's predicted residency
//!    ([`pdc_ensemble::predicted_resident_bytes`]) and gauges on. Reports
//!    makespan and the gauge-measured peak resident bytes per rank, and
//!    asserts the measured peak stays within the budget in **every** cell
//!    — the budget is a real bound, not a suggestion.
//!
//! Writes `results/ablation_ensemble.csv` (section column distinguishes
//! accuracy rows from sweep rows) and a `BenchSummary` for the perf gate.

use pdc_bench::harness::{
    csv_flag, experiment_config, machine_config, write_results_csv, Scale, TableWriter,
};
use pdc_bench::summary::BenchSummary;
use pdc_cgm::Cluster;
use pdc_clouds::{accuracy_of, holdout_pair};
use pdc_datagen::{generate, GeneratorConfig, ALL_FUNCTIONS};
use pdc_ensemble::{predicted_resident_bytes, train_ensemble, train_ensemble_on, EnsembleConfig};
use pdc_pclouds::train_in_memory;

struct Row {
    section: &'static str,
    function: String,
    width: String,
    trees: String,
    accuracy_single: String,
    accuracy_ensemble: String,
    makespan_s: String,
    peak_resident_bytes: String,
    budget_bytes: String,
}

fn main() {
    let scale = Scale::from_env();
    let csv = csv_flag();
    let mut summary = BenchSummary::new("ablation_ensemble", scale);
    let mut rows: Vec<Row> = Vec::new();

    // --- Part 1: ensemble vs single tree across every SLIQ function. ---
    // Fixed-size and scale-independent so the win-count contract is the
    // same one the ensemble test suite enforces.
    let (n_train, n_test, noise) = (2_000usize, 2_000usize, 0.10f64);
    let mut wins = 0u32;
    for (i, f) in ALL_FUNCTIONS.iter().enumerate() {
        let (train, holdout) = holdout_pair(*f, n_train, n_test, noise);
        let mut cfg = EnsembleConfig::paper_scaled(n_train as u64);
        cfg.base.clouds.q_root = 100;
        cfg.base.clouds.sample_size = 300;
        cfg.trees = 8;
        let single = train_in_memory(&train, 4, &cfg.base);
        let ens = train_ensemble(&train, 8, &cfg);
        let acc_s = accuracy_of(|r| single.tree.predict(r), &holdout);
        let acc_e = accuracy_of(|r| ens.model.predict(r), &holdout);
        if acc_e > acc_s {
            wins += 1;
        }
        summary.metric(&format!("f{}_accuracy_single", i + 1), acc_s);
        summary.metric(&format!("f{}_accuracy_ensemble", i + 1), acc_e);
        rows.push(Row {
            section: "accuracy",
            function: format!("f{}", i + 1),
            width: String::new(),
            trees: "8".into(),
            accuracy_single: format!("{acc_s:.4}"),
            accuracy_ensemble: format!("{acc_e:.4}"),
            makespan_s: String::new(),
            peak_resident_bytes: String::new(),
            budget_bytes: String::new(),
        });
    }
    eprintln!("ablation_ensemble: ensemble beats single tree on {wins}/10 functions");
    assert!(
        wins >= 8,
        "ensemble must strictly beat the single tree on >= 8/10 SLIQ functions, got {wins}"
    );
    summary.metric("accuracy_wins_exact", wins as f64);

    // --- Part 2: subgroup width x ensemble size under a real budget. ---
    let n = scale.records(400_000) as usize;
    let p = 8usize;
    eprintln!("ablation_ensemble: sweep on n={n}, p={p}");
    let records = generate(n, GeneratorConfig::default());
    for width in [1usize, 2, 4] {
        for trees in [1usize, 4, 8] {
            let mut cfg = EnsembleConfig::paper_scaled(n as u64);
            cfg.base = experiment_config(n as u64, scale);
            cfg.trees = trees;
            cfg.subgroup_width = width;
            // The budget is exactly this width's predicted residency: any
            // cell whose measured peak exceeds it fails the run.
            let budget = predicted_resident_bytes(n, width, &cfg);
            cfg.memory_budget_bytes = budget;
            let mut machine = machine_config(scale);
            machine.gauges = true;
            let out = train_ensemble_on(&Cluster::with_config(p, machine), &records, &cfg);
            let peak = out
                .peak_resident_bytes()
                .into_iter()
                .fold(0.0f64, f64::max);
            assert!(
                peak <= budget as f64,
                "w={width} B={trees}: measured peak {peak} bytes exceeds budget {budget}"
            );
            let makespan = out.runtime();
            let key = format!("w{width}_b{trees}");
            summary.metric(&format!("{key}_makespan"), makespan);
            summary.metric(&format!("{key}_peak_resident_bytes"), peak);
            rows.push(Row {
                section: "sweep",
                function: String::new(),
                width: width.to_string(),
                trees: trees.to_string(),
                accuracy_single: String::new(),
                accuracy_ensemble: String::new(),
                makespan_s: format!("{makespan:.6}"),
                peak_resident_bytes: format!("{peak:.0}"),
                budget_bytes: budget.to_string(),
            });
            eprintln!(
                "  w={width} B={trees}: makespan {makespan:.3}s, \
                 peak {peak:.0}/{budget} bytes"
            );
        }
    }

    // --- Emit the table and the checked-in CSV. ---
    let headers = [
        "section",
        "function",
        "width",
        "trees",
        "accuracy_single",
        "accuracy_ensemble",
        "makespan_s",
        "peak_resident_bytes",
        "budget_bytes",
    ];
    let mut table = TableWriter::new(&headers, csv);
    let mut csv_text = headers.join(",") + "\n";
    for r in &rows {
        let cells = vec![
            r.section.to_string(),
            r.function.clone(),
            r.width.clone(),
            r.trees.clone(),
            r.accuracy_single.clone(),
            r.accuracy_ensemble.clone(),
            r.makespan_s.clone(),
            r.peak_resident_bytes.clone(),
            r.budget_bytes.clone(),
        ];
        csv_text.push_str(&cells.join(","));
        csv_text.push('\n');
        table.row(cells);
    }
    table.print();
    let csv_path = write_results_csv("ablation_ensemble", scale, &csv_text);
    eprintln!("  wrote {} ({} rows)", csv_path.display(), rows.len());
    let path = summary.write();
    eprintln!("  wrote {}", path.display());
}
