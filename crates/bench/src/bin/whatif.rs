//! **What-if replay — re-time a recorded training run under hypothetical
//! hardware.**
//!
//! Records one full pCLOUDS training run as a causal event graph
//! (`results/whatif_run.evg`, git-ignored), then replays it under a ladder
//! of hardware hypotheticals without re-running the simulation:
//!
//!   * link bandwidth 2x / 10x / infinite,
//!   * NVMe-class disk constants (20 us access, ~3.5 GB/s),
//!   * a modern interconnect (100 GbE-class: ~2 us latency, ~12.5 GB/s),
//!   * both combined ("modern box"),
//!   * per-phase virtual speedups in the spirit of causal profiling
//!     (`pclouds.attr_scan` 2x, all `cgm.*` collectives 2x).
//!
//! Every rung reports predicted finish time, the saving over the recorded
//! run, and the predicted critical-path verdict. Two properties are
//! asserted in-bin (and re-checked by CI from the CSV):
//!
//!   1. the identity rung reproduces the recorded finish time bit-exactly;
//!   2. the infinite-bandwidth rung saves at least the recorded
//!      comm-transfer seconds of the critical rank.
//!
//! Writes the rungs to `results/fig_whatif.csv`. Finally the paper's
//! figure 1 speedup curve is re-derived under the modern constants: p in
//! {1,2,4,8} runs are recorded once each (p = 4 is the run above) and
//! replayed under the combined modern override, answering which 1999
//! scaling claims survive NVMe + 100 GbE (`results/fig_whatif_fig1.csv`,
//! see EXPERIMENTS.md).
//!
//! Scale factors relative to the simulator's 1999 cost model
//! (alpha = 40 us, 35 MB/s links; 10 ms seek, 10 MB/s disks):
//! modern latency 2 us -> 0.05, link 12.5 GB/s -> 0.0028,
//! NVMe access 20 us -> 0.002, NVMe 3.5 GB/s -> 0.003.

use pdc_bench::harness::{num, write_results, Experiment, Scale, TableWriter};
use pdc_cgm::replay::{identity_check, replay, CostOverride};
use pdc_cgm::{Ev, EventGraph, Wire};

/// Scale factors for the combined "modern box" override.
const MODERN_LAT: f64 = 0.05;
const MODERN_BW: f64 = 0.0028;
const NVME_SEEK: f64 = 0.002;
const NVME_BW: f64 = 0.003;

fn nvme(mut ov: CostOverride) -> CostOverride {
    ov.disk_seek = NVME_SEEK;
    ov.disk_transfer = NVME_BW;
    ov
}

fn modern_net(mut ov: CostOverride) -> CostOverride {
    ov.comm_latency = MODERN_LAT;
    ov.comm_transfer = MODERN_BW;
    ov
}

/// Recorded comm-transfer seconds (message cost minus latency) per rank.
fn comm_transfer_secs(graph: &EventGraph, rank: usize) -> f64 {
    graph.ranks[rank]
        .iter()
        .map(|ev| match *ev {
            Ev::Push { seconds, lat, .. } => seconds - lat,
            _ => 0.0,
        })
        .sum()
}

fn main() {
    let scale = Scale::from_env();
    let n = scale.records(3_600_000);
    let p = 4;

    eprintln!("whatif: recording one n={n} p={p} training run ({scale:?})");
    let out = Experiment::new(n, p, scale).traced().run();
    let graph = EventGraph::from_stats(&out.run.stats);
    let base = graph.makespan();
    let evg_path = write_results("whatif_run", "evg", scale, graph.to_bytes());
    eprintln!(
        "  recorded {} events across {p} ranks -> {} (T = {base:.4}s)",
        graph.event_count(),
        evg_path.display()
    );

    // Keystone check 1: the identity override reproduces the run bit for
    // bit (identity_check also asserts per-rank finish times and 1e-9
    // breakdown agreement internally).
    let id = identity_check(&graph);
    assert_eq!(id.makespan().to_bits(), base.to_bits());
    assert_eq!(out.runtime().to_bits(), base.to_bits());
    println!("whatif: identity replay bit-exact across {p} ranks");

    // Measured comm-transfer share of the critical (last-finishing) rank:
    // the infinite-bandwidth rung must save at least this much.
    let critical_rank = (0..p)
        .max_by(|&a, &b| graph.finish[a].total_cmp(&graph.finish[b]))
        .unwrap();
    let transfer = comm_transfer_secs(&graph, critical_rank);
    let comm_pct = 100.0 * transfer / base;
    eprintln!("  critical rank {critical_rank}: {transfer:.4}s comm transfer ({comm_pct:.2}% of run)");

    let rungs: Vec<(&str, CostOverride)> = vec![
        ("identity", CostOverride::identity()),
        ("link_bw_2x", { let mut o = CostOverride::identity(); o.comm_transfer = 0.5; o }),
        ("link_bw_10x", { let mut o = CostOverride::identity(); o.comm_transfer = 0.1; o }),
        ("link_bw_inf", { let mut o = CostOverride::identity(); o.comm_transfer = 0.0; o }),
        ("nvme_disk", nvme(CostOverride::identity())),
        ("modern_net", modern_net(CostOverride::identity())),
        ("modern_all", nvme(modern_net(CostOverride::identity()))),
        ("attr_scan_2x", CostOverride::identity().with_span("pclouds.attr_scan", 0.5)),
        ("collectives_2x", CostOverride::identity().with_span("cgm.*", 0.5)),
    ];

    let mut table = TableWriter::new(&[
        "rung",
        "predicted_finish_s",
        "saving_pct",
        "comm_transfer_pct",
        "verdict",
    ]);
    for (name, ov) in &rungs {
        let predicted = replay(&graph, ov);
        let t = predicted.makespan();
        let saving = 100.0 * (base - t) / base;
        let verdict = predicted.critical.verdict();
        if *name == "identity" {
            assert_eq!(t.to_bits(), base.to_bits(), "identity rung drifted");
        }
        if *name == "link_bw_inf" {
            assert!(
                base - t >= transfer - 1e-9,
                "infinite bandwidth saved {:.6}s < recorded transfer {transfer:.6}s",
                base - t
            );
        }
        table.row(vec![
            name.to_string(),
            num(t),
            num(saving),
            num(comm_pct),
            verdict.to_string(),
        ]);
        eprintln!("  {name:>14}: T={t:.4}s saving={saving:.2}% [{verdict}]");
    }
    table.print();
    let csv_path = write_results("fig_whatif", "csv", scale, table.csv());
    eprintln!("  wrote {} ({} rungs)", csv_path.display(), rungs.len());

    // Figure 1 under modern constants: record p in {1,2,4,8} once (p = 4
    // is the graph above), replay each under the combined modern override,
    // and compare speedup curves.
    eprintln!("whatif: re-deriving fig 1 speedup under modern constants");
    let modern = nvme(modern_net(CostOverride::identity()));
    let mut fig1 = TableWriter::new(&["p", "recorded_s", "speedup_1999", "modern_s", "speedup_modern"]);
    let (mut t1_rec, mut t1_mod) = (0.0, 0.0);
    for q in [1usize, 2, 4, 8] {
        let recorded;
        let g = if q == p {
            &graph
        } else {
            let out = Experiment::new(n, q, scale).traced().run();
            recorded = EventGraph::from_stats(&out.run.stats);
            &recorded
        };
        let rec = identity_check(g).makespan();
        let m = replay(g, &modern).makespan();
        if q == 1 {
            t1_rec = rec;
            t1_mod = m;
        }
        let (s_rec, s_mod) = (t1_rec / rec, t1_mod / m);
        fig1.row(vec![q.to_string(), num(rec), num(s_rec), num(m), num(s_mod)]);
        eprintln!("  p={q}: 1999 T={rec:.4}s (S={s_rec:.2}), modern T={m:.4}s (S={s_mod:.2})");
    }
    fig1.print();
    let csv_path = write_results("fig_whatif_fig1", "csv", scale, fig1.csv());
    eprintln!("  wrote {}", csv_path.display());
}
