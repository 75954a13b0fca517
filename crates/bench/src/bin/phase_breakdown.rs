//! **Extension — per-phase time breakdown, I/O balance and gauge peaks.**
//!
//! The paper argues that pCLOUDS "maintains very good load balance for the
//! performed I/O while keeping the associated overhead low" and that the
//! partitioning step "gives almost perfect load balance". This harness
//! reports, per processor, where the virtual time goes (statistics pass,
//! split derivation, partitioning, small-node redistribution and solving)
//! and the balance of the I/O volume.
//!
//! Phase times come from the span rollups of a traced run (see
//! [`pdc_cgm::MetricsRegistry`]), not from hand-maintained timers: each
//! column is the per-rank inclusive time of the matching `pclouds.*` span.
//! A second table reports the resource-gauge high-water marks *inside*
//! each phase's span windows ([`pdc_cgm::GaugeSeries::peak_in`]): buffer
//! pool occupancy, device/mailbox queue depths and resident small-task
//! bytes, sampled on the virtual clock of a gauge-enabled, engine-backed
//! run (see [`pdc_cgm::gauge`]).
//!
//! Prints both tables and the balance summary, and writes the same text to
//! `results/phase_breakdown.txt`.

use pdc_bench::harness::{write_results, Experiment, Scale, TableWriter};
use pdc_cgm::{resolve_series, GaugeSeries};
use pdc_pario::EngineConfig;

const PHASES: [&str; 5] = [
    "pclouds.stats",
    "pclouds.derive",
    "pclouds.partition",
    "pclouds.small_redistribute",
    "pclouds.small_solve",
];

const GAUGES: [&str; 4] = [
    "pario.pool.pages",
    "cgm.device.queue",
    "cgm.mailbox.depth",
    "dnc.resident_bytes",
];

fn main() {
    let scale = Scale::from_env();
    let n = scale.records(4_800_000);
    let p = 8;
    eprintln!("phase_breakdown: n={n} p={p}");
    let engine = EngineConfig::new(512 * 1024);
    let out = Experiment::new(n, p, scale).engine(&engine).profiled().run();
    let reg = out.span_metrics();

    let mut table = TableWriter::new(&[
        "rank",
        "stats_s",
        "derive_s",
        "partition_s",
        "small_redist_s",
        "small_solve_s",
        "io_mb",
        "finish_s",
    ]);
    for s in &out.run.stats {
        let io_mb = (s.counters.disk_read_bytes + s.counters.disk_write_bytes) as f64 / 1e6;
        table.row(vec![
            s.rank.to_string(),
            format!("{:.3}", reg.seconds_by_name(s.rank, "pclouds.stats")),
            format!("{:.3}", reg.seconds_by_name(s.rank, "pclouds.derive")),
            format!("{:.3}", reg.seconds_by_name(s.rank, "pclouds.partition")),
            format!("{:.3}", reg.seconds_by_name(s.rank, "pclouds.small_redistribute")),
            format!("{:.3}", reg.seconds_by_name(s.rank, "pclouds.small_solve")),
            format!("{io_mb:.2}"),
            format!("{:.3}", s.finish_time),
        ]);
    }

    // Gauge high-water marks inside each phase's span windows, max over all
    // ranks and span instances. A carried-in value counts (a buffer page
    // resident when the phase starts is still occupancy).
    let series: Vec<Vec<GaugeSeries>> = out
        .run
        .stats
        .iter()
        .map(|s| resolve_series(&s.gauges))
        .collect();
    let peak_in_phase = |phase: &str, gauge: &str| -> f64 {
        let mut peak = 0.0f64;
        for s in &out.run.stats {
            let Some(gs) = series[s.rank].iter().find(|g| g.name == gauge) else {
                continue;
            };
            for row in reg.rank_rows(s.rank).filter(|r| r.name == phase) {
                peak = peak.max(gs.peak_in(row.start, row.end));
            }
        }
        peak
    };
    let mut gauge_table =
        TableWriter::new(&["phase", "pool_pages", "dev_queue", "mbox_depth", "resident_kb"]);
    for phase in PHASES {
        let cells: Vec<f64> = GAUGES.iter().map(|g| peak_in_phase(phase, g)).collect();
        gauge_table.row(vec![
            phase.to_string(),
            format!("{:.0}", cells[0]),
            format!("{:.0}", cells[1]),
            format!("{:.0}", cells[2]),
            format!("{:.1}", cells[3] / 1024.0),
        ]);
    }

    // The engine-backed streaming phases must actually exercise the buffer
    // pool and the mailboxes — an all-zero column would mean the gauges
    // came unwired from the phases.
    let pool_peak = PHASES
        .iter()
        .map(|ph| peak_in_phase(ph, "pario.pool.pages"))
        .fold(0.0f64, f64::max);
    assert!(pool_peak > 0.0, "buffer pool untouched in every phase");
    let mbox_peak = PHASES
        .iter()
        .map(|ph| peak_in_phase(ph, "cgm.mailbox.depth"))
        .fold(0.0f64, f64::max);
    assert!(mbox_peak > 0.0, "mailboxes untouched in every phase");

    // Balance summaries.
    let io: Vec<f64> = out
        .run
        .stats
        .iter()
        .map(|s| (s.counters.disk_read_bytes + s.counters.disk_write_bytes) as f64)
        .collect();
    let max_io = io.iter().cloned().fold(0.0f64, f64::max);
    let mean_io = io.iter().sum::<f64>() / io.len() as f64;
    let text = format!(
        "{}\ngauge peaks per phase (max over ranks)\n{}\n\
         I/O balance (max/mean): {:.4}   overall runtime imbalance: {:.4}\n",
        table.render(),
        gauge_table.render(),
        max_io / mean_io,
        out.run.imbalance()
    );
    print!("{text}");
    let path = write_results("phase_breakdown", "txt", scale, text);
    eprintln!("  wrote {}", path.display());
}
