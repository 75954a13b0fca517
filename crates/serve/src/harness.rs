//! The batch/streaming scoring harness on the simulated machine.
//!
//! A serving run has three phases, mirroring a production deployment:
//!
//! 1. **Deploy** — rank 0 holds the compiled model and broadcasts it to
//!    every rank over the `cgm` collectives (span `serve.deploy`; the
//!    underlying `cgm.broadcast` span records the payload size, so model
//!    distribution shows up in traces as a first-class communication step).
//! 2. **Stream** — each rank streams its request shard from its own disk
//!    in `batch_records`-sized chunks through the ordinary
//!    [`pdc_pario`] read path; with an engine attached to the farm, the
//!    next batch's transfer rides under the current batch's
//!    scoring compute.
//! 3. **Score** — each batch is classified through the [`Predictor`]
//!    trait (span `serve.score`), charging the layout's traversal cost.
//!
//! Per batch the harness records the **virtual-clock latency** from the
//! start of the batch read to the last prediction. Latencies accumulate in
//! a bounded-memory, mergeable [`Histogram`] per rank (bounded relative
//! error, see [`pdc_cgm::hist`]); the report aggregates sustained
//! records/sec and histogram-derived p50/p99/p999 tail latency over all
//! batches of all ranks. For validation runs,
//! [`ServeConfig::exact_latencies`] additionally keeps every raw latency
//! and reports exact nearest-rank percentiles alongside — the `fig_serving`
//! harness asserts the two agree within the histogram's relative error.
//! With [`ServeConfig::telemetry`] set, a [`WindowRecorder`] slices each
//! rank's batch completions into tumbling windows and the report carries a
//! full [`TelemetryReport`] (window time series + SLO evaluation).

use pdc_cgm::{Cluster, Histogram, HistogramSpec, ProcStats, Wire};
use pdc_clouds::DecisionTree;
use pdc_datagen::{GeneratorConfig, Record, RecordStream};
use pdc_pario::{deal_stream, Deal, DiskFarm, Rec};

use crate::ensemble::EnsemblePredictor;
use crate::model::Layout;
use crate::predictor::Predictor;
use crate::telemetry::{TelemetryConfig, TelemetryReport, WindowRecorder};

/// Name of the per-rank request shard file on each disk.
pub const REQUESTS_FILE: &str = "serve_requests";

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Which compiled layout to deploy.
    pub layout: Layout,
    /// Records per scoring batch (also the streaming chunk size).
    pub batch_records: usize,
    /// Optional windowed telemetry (time series + SLO monitors).
    pub telemetry: Option<TelemetryConfig>,
    /// Debug/validation flag: also keep every raw latency and report exact
    /// nearest-rank percentiles in [`ServeReport::latency_exact`]. Off by
    /// default — the production path is bounded-memory.
    pub exact_latencies: bool,
}

impl ServeConfig {
    /// A serving config with the default latency histogram, no windowed
    /// telemetry, and no exact-latency validation.
    pub fn new(layout: Layout, batch_records: usize) -> ServeConfig {
        ServeConfig {
            layout,
            batch_records,
            telemetry: None,
            exact_latencies: false,
        }
    }

    /// Same config with windowed telemetry attached.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> ServeConfig {
        self.telemetry = Some(telemetry);
        self
    }

    /// Same config with exact-latency validation enabled.
    pub fn with_exact_latencies(mut self) -> ServeConfig {
        self.exact_latencies = true;
        self
    }
}

/// Latency percentiles over every batch of every rank, in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of batches observed.
    pub batches: usize,
    /// Median batch latency.
    pub p50: f64,
    /// 99th-percentile batch latency.
    pub p99: f64,
    /// 99.9th-percentile batch latency.
    pub p999: f64,
    /// Worst batch latency.
    pub max: f64,
}

impl LatencySummary {
    /// Percentiles read off a latency [`Histogram`]: each quantile is the
    /// containing bucket's upper edge, so it overestimates the exact
    /// nearest-rank answer by at most the spec's relative error;
    /// `max` is the histogram's exact maximum.
    pub fn from_histogram(hist: &Histogram) -> LatencySummary {
        LatencySummary {
            batches: hist.count() as usize,
            p50: hist.quantile(0.50),
            p99: hist.quantile(0.99),
            p999: hist.quantile(0.999),
            max: hist.max(),
        }
    }
}

/// Nearest-rank percentiles of a set of batch latencies (the exact,
/// unbounded-memory path — used for validating the histogram summaries).
pub fn latency_summary(mut latencies: Vec<f64>) -> LatencySummary {
    latencies.sort_by(f64::total_cmp);
    let pick = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = (q * latencies.len() as f64).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    };
    LatencySummary {
        batches: latencies.len(),
        p50: pick(0.50),
        p99: pick(0.99),
        p999: pick(0.999),
        max: latencies.last().copied().unwrap_or(0.0),
    }
}

/// Everything a serving run produces.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The deployed layout.
    pub layout: Layout,
    /// Batch size used.
    pub batch_records: usize,
    /// Total requests scored across all ranks.
    pub records: u64,
    /// Wire size of the broadcast model, bytes.
    pub model_bytes: usize,
    /// Nodes in the compiled model.
    pub model_nodes: usize,
    /// Virtual time until the slowest rank finished deployment.
    pub deploy_seconds: f64,
    /// Virtual makespan of the whole run (deploy + stream + score).
    pub makespan: f64,
    /// Sustained throughput: `records / makespan`.
    pub throughput_rps: f64,
    /// Batch latency percentiles, derived from [`ServeReport::latency_hist`].
    pub latency: LatencySummary,
    /// Fleet-level latency histogram: the per-rank histograms merged.
    pub latency_hist: Histogram,
    /// Exact nearest-rank percentiles over every raw latency — present
    /// only when [`ServeConfig::exact_latencies`] was set.
    pub latency_exact: Option<LatencySummary>,
    /// Windowed telemetry — present only when [`ServeConfig::telemetry`]
    /// was set.
    pub telemetry: Option<TelemetryReport>,
    /// Per-rank predictions, one class byte per request, in shard order —
    /// the bit-identity contract across layouts is checked on these.
    pub predictions: Vec<Vec<u8>>,
    /// Per-rank virtual-clock statistics of the run.
    pub stats: Vec<ProcStats>,
}

/// Stage `total` generated request records onto the farm as contiguous
/// per-rank shards (file [`REQUESTS_FILE`] on each disk), uncharged — like
/// the training data, requests are assumed resident before the run starts.
/// Rank `r` holds the `r`-th of `p` near-equal contiguous slices of the
/// stream. [`deal_stream`] generates the requests on a helper thread while
/// this thread appends them, in two alternating batches of at most
/// `BATCH_RECORDS / p` records ([`pdc_pario::BATCH_RECORDS`]). Returns the
/// number of records staged on each rank.
pub fn stage_requests(farm: &DiskFarm, total: u64, config: GeneratorConfig) -> Vec<u64> {
    let p = farm.nprocs() as u64;
    let shares: Vec<u64> = (0..p).map(|rank| total / p + u64::from(rank < total % p)).collect();
    deal_stream(farm, REQUESTS_FILE, RecordStream::new(config), Deal::Shares(&shares), |_| {})
}

/// Run one serving experiment: compile `tree` into `cfg.layout`, broadcast
/// it from rank 0, stream each rank's [`REQUESTS_FILE`] shard in
/// `cfg.batch_records`-sized batches, score every record, and aggregate
/// throughput and tail latency. Compilation itself happens offline (before
/// the simulated run); the run charges deployment and scoring.
///
/// Predictions are bit-identical across layouts by construction; callers
/// that sweep layouts should still assert it (see
/// [`crate::model::assert_equivalent`] and the `fig_serving` harness).
///
/// ```
/// use pdc_cgm::Cluster;
/// use pdc_clouds::{DecisionTree, Splitter};
/// use pdc_datagen::GeneratorConfig;
/// use pdc_pario::DiskFarm;
/// use pdc_serve::{serve, stage_requests, Layout, ServeConfig};
///
/// let mut tree = DecisionTree::single_leaf(vec![6, 4]);
/// tree.split_leaf(
///     0,
///     Splitter::Numeric { attr: 2, threshold: 45.0 },
///     vec![6, 0],
///     vec![0, 4],
/// );
/// let farm = DiskFarm::in_memory(2);
/// stage_requests(&farm, 1_000, GeneratorConfig::default());
/// let report = serve(
///     &Cluster::new(2),
///     &farm,
///     &tree,
///     &ServeConfig::new(Layout::Flat, 128),
/// );
/// assert_eq!(report.records, 1_000);
/// assert!(report.throughput_rps > 0.0);
/// assert_eq!(report.latency.batches, 8); // 4 batches per rank
/// assert_eq!(report.latency_hist.count(), 8);
/// ```
pub fn serve(
    cluster: &Cluster,
    farm: &DiskFarm,
    tree: &DecisionTree,
    cfg: &ServeConfig,
) -> ServeReport {
    serve_model(cluster, farm, &cfg.layout.compile(tree), cfg)
}

/// Serve a bagged ensemble: compile every member tree into `cfg.layout`
/// and run the same pipeline with majority-vote scoring (see
/// [`EnsemblePredictor`]).
pub fn serve_ensemble(
    cluster: &Cluster,
    farm: &DiskFarm,
    trees: &[DecisionTree],
    cfg: &ServeConfig,
) -> ServeReport {
    serve_model(
        cluster,
        farm,
        &EnsemblePredictor::compile(trees, cfg.layout),
        cfg,
    )
}

/// The generic serving pipeline behind [`serve`] and [`serve_ensemble`]:
/// any [`Predictor`] that is also [`Wire`]-encodable (the broadcast deploy
/// is sized by its encoding), `Clone` (rank 0 seeds the broadcast with a
/// copy, and every other rank clones the shared value) and shareable
/// across ranks can be served. `cfg.layout` is carried into the report as
/// the layout the model was compiled into.
pub fn serve_model<M: Predictor + Wire + Clone + Send + Sync + 'static>(
    cluster: &Cluster,
    farm: &DiskFarm,
    model: &M,
    cfg: &ServeConfig,
) -> ServeReport {
    assert!(cfg.batch_records > 0, "batch_records must be positive");
    assert_eq!(
        cluster.nprocs(),
        farm.nprocs(),
        "cluster and farm must have the same number of ranks"
    );
    let model_bytes = model.to_bytes().len();
    let model_nodes = model.num_nodes();
    let out = cluster.run(|proc| {
        // Deploy: rank 0 is the model owner; everyone receives a copy.
        let model: M = proc.in_span(
            "serve.deploy",
            &[("bytes", model_bytes as i64)],
            |proc| {
                let seed = (proc.rank() == 0).then(|| model.clone());
                proc.broadcast(0, seed)
            },
        );
        let deploy_done = proc.clock();

        // Stream + score the local shard.
        let mut disk = farm.lock(proc.rank());
        let file = disk.open::<Record>(REQUESTS_FILE);
        let total = disk.num_records(&file);
        let mut reader = disk.reader(&file, cfg.batch_records);
        reader.prime(&mut disk, proc);
        let mut preds = Vec::with_capacity(total);
        let mut hist = Histogram::new(HistogramSpec::latency_default());
        let mut exact = cfg.exact_latencies.then(Vec::new);
        let mut windows = cfg.telemetry.map(WindowRecorder::new);
        loop {
            let start = proc.clock();
            let Some(batch) = reader.next_chunk(&mut disk, proc) else {
                break;
            };
            let bytes = (batch.len() * Record::ENCODED_BYTES) as i64;
            proc.in_span(
                "serve.score",
                &[("records", batch.len() as i64), ("bytes", bytes)],
                |proc| {
                    model.score_batch(proc, &batch, &mut preds);
                },
            );
            let end = proc.clock();
            let latency = end - start;
            hist.record(latency);
            if let Some(exact) = exact.as_mut() {
                exact.push(latency);
            }
            if let Some(rec) = windows.as_mut() {
                rec.record_batch(proc, end, batch.len() as u64, latency);
            }
        }
        disk.sync_engine(proc);
        drop(disk);
        let windows = windows.map(|rec| rec.finish(proc));
        proc.barrier();
        (preds, hist, exact, windows, deploy_done)
    });

    let makespan = out.makespan();
    let mut predictions = Vec::with_capacity(out.results.len());
    let mut latency_hist = Histogram::new(HistogramSpec::latency_default());
    let mut all_latencies = cfg.exact_latencies.then(Vec::new);
    let mut per_rank_windows = cfg.telemetry.map(|_| Vec::new());
    let mut deploy_seconds = 0.0f64;
    let mut records = 0u64;
    for (preds, hist, exact, windows, deploy) in out.results {
        records += preds.len() as u64;
        predictions.push(preds);
        latency_hist.merge(&hist);
        if let (Some(all), Some(exact)) = (all_latencies.as_mut(), exact) {
            all.extend(exact);
        }
        if let (Some(per_rank), Some(windows)) = (per_rank_windows.as_mut(), windows) {
            per_rank.push(windows);
        }
        deploy_seconds = deploy_seconds.max(deploy);
    }
    ServeReport {
        layout: cfg.layout,
        batch_records: cfg.batch_records,
        records,
        model_bytes,
        model_nodes,
        deploy_seconds,
        makespan,
        throughput_rps: if makespan > 0.0 {
            records as f64 / makespan
        } else {
            0.0
        },
        latency: LatencySummary::from_histogram(&latency_hist),
        latency_hist,
        latency_exact: all_latencies.map(latency_summary),
        telemetry: match (cfg.telemetry, per_rank_windows) {
            (Some(tcfg), Some(per_rank)) => Some(TelemetryReport::from_per_rank(tcfg, per_rank)),
            _ => None,
        },
        predictions,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ALL_LAYOUTS;
    use pdc_clouds::Splitter;

    fn tree() -> DecisionTree {
        let mut t = DecisionTree::single_leaf(vec![5, 5]);
        let (l, _) = t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 0,
                threshold: 80_000.0,
            },
            vec![5, 0],
            vec![0, 5],
        );
        t.split_leaf(
            l,
            Splitter::Categorical {
                attr: 0,
                left_values: 0b0_0011,
            },
            vec![2, 1],
            vec![1, 2],
        );
        t
    }

    #[test]
    fn serve_ensemble_votes_like_the_offline_ensemble() {
        let mut other = DecisionTree::single_leaf(vec![5, 5]);
        other.split_leaf(
            0,
            Splitter::Numeric {
                attr: 2,
                threshold: 45.0,
            },
            vec![5, 0],
            vec![0, 5],
        );
        let trees = vec![tree(), other.clone(), other];
        let cluster = Cluster::new(2);
        let mut reference: Option<Vec<Vec<u8>>> = None;
        for layout in ALL_LAYOUTS {
            let farm = DiskFarm::in_memory(2);
            stage_requests(&farm, 500, GeneratorConfig::default());
            let report = serve_ensemble(&cluster, &farm, &trees, &ServeConfig::new(layout, 100));
            assert_eq!(report.records, 500);
            // The served predictions are exactly the offline majority vote.
            let offline = EnsemblePredictor::compile(&trees, layout);
            let mut disk_records = Vec::new();
            for rank in 0..2 {
                let mut disk = farm.lock(rank);
                let f = disk.open::<Record>(REQUESTS_FILE);
                disk_records.push(disk.read_all_uncharged(&f));
            }
            for (rank, shard) in disk_records.iter().enumerate() {
                assert_eq!(report.predictions[rank], offline.predict_all(shard));
            }
            match &reference {
                None => reference = Some(report.predictions.clone()),
                Some(want) => assert_eq!(&report.predictions, want, "{}", layout.name()),
            }
        }
    }

    #[test]
    fn latency_summary_nearest_rank() {
        let s = latency_summary((1..=1000).map(|i| i as f64).collect());
        assert_eq!(s.batches, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.p999, 999.0);
        assert_eq!(s.max, 1000.0);
        let empty = latency_summary(Vec::new());
        assert_eq!(empty.batches, 0);
        assert_eq!(empty.max, 0.0);
    }

    /// Rank `r`'s shard is the `r`-th of `p` near-equal contiguous slices
    /// of the stream, across batch boundaries and for shares of zero.
    #[test]
    fn stage_requests_shards_evenly() {
        let farm = DiskFarm::in_memory(3);
        let shares = stage_requests(&farm, 1_001, GeneratorConfig::default());
        assert_eq!(shares, vec![334, 334, 333]);
        let b = pdc_pario::BATCH_RECORDS as u64;
        let config = GeneratorConfig::default();
        for p in [1u64, 3, 4] {
            for total in [0, 2, 1_001, b - 1, b + 1, 2 * b + 7] {
                let farm = DiskFarm::in_memory(p as usize);
                let shares = stage_requests(&farm, total, config);
                let want: Vec<u64> = (0..p).map(|r| total / p + u64::from(r < total % p)).collect();
                assert_eq!(shares, want, "total {total}, p {p}");
                let mut stream = RecordStream::new(config);
                for (rank, &share) in shares.iter().enumerate() {
                    let mut disk = farm.lock(rank);
                    let f = disk.open::<Record>(REQUESTS_FILE);
                    let slice: Vec<Record> = stream.by_ref().take(share as usize).collect();
                    assert!(
                        disk.read_all_uncharged(&f) == slice,
                        "total {total}, p {p}: rank {rank}'s shard is not its slice"
                    );
                }
            }
        }
    }

    #[test]
    fn serve_scores_every_record_in_every_layout() {
        let tree = tree();
        let cluster = Cluster::new(2);
        let mut reference: Option<Vec<Vec<u8>>> = None;
        for layout in ALL_LAYOUTS {
            let farm = DiskFarm::in_memory(2);
            stage_requests(&farm, 600, GeneratorConfig::default());
            let report = serve(&cluster, &farm, &tree, &ServeConfig::new(layout, 100));
            assert_eq!(report.records, 600);
            assert_eq!(report.latency.batches, 6);
            assert_eq!(report.latency_hist.count(), 6);
            assert!(report.latency_exact.is_none());
            assert!(report.telemetry.is_none());
            assert!(report.deploy_seconds > 0.0);
            assert!(report.makespan > report.deploy_seconds);
            assert!(report.latency.p50 <= report.latency.p999);
            match &reference {
                None => reference = Some(report.predictions.clone()),
                Some(reference) => assert_eq!(
                    &report.predictions, reference,
                    "layout {} predictions must be byte-identical",
                    layout.name()
                ),
            }
        }
    }

    #[test]
    fn flat_serves_faster_than_pointer() {
        let tree = tree();
        let cluster = Cluster::new(2);
        let run = |layout| {
            let farm = DiskFarm::in_memory(2);
            stage_requests(&farm, 2_000, GeneratorConfig::default());
            serve(&cluster, &farm, &tree, &ServeConfig::new(layout, 250))
        };
        let pointer = run(Layout::Pointer);
        let flat = run(Layout::Flat);
        assert!(
            flat.throughput_rps > pointer.throughput_rps,
            "flat {} rps must beat pointer {} rps",
            flat.throughput_rps,
            pointer.throughput_rps
        );
        assert!(flat.model_bytes < pointer.model_bytes);
    }

    #[test]
    fn histogram_percentiles_track_exact_within_relative_error() {
        let tree = tree();
        let cluster = Cluster::new(2);
        let farm = DiskFarm::in_memory(2);
        stage_requests(&farm, 3_000, GeneratorConfig::default());
        let cfg = ServeConfig::new(Layout::Flat, 125).with_exact_latencies();
        let report = serve(&cluster, &farm, &tree, &cfg);
        let exact = report.latency_exact.expect("exact path was requested");
        assert_eq!(exact.batches, report.latency.batches);
        assert_eq!(exact.max, report.latency.max, "max is exact in both");
        let tol = HistogramSpec::latency_default().rel_error();
        for (approx, e) in [
            (report.latency.p50, exact.p50),
            (report.latency.p99, exact.p99),
            (report.latency.p999, exact.p999),
        ] {
            assert!(
                approx >= e - 1e-15 && approx <= e * (1.0 + tol) + 1e-15,
                "histogram {approx} vs exact {e} outside relative error {tol}"
            );
        }
    }

    #[test]
    fn telemetry_produces_window_series_and_slo() {
        use crate::telemetry::{SloSpec, TelemetryConfig};

        let tree = tree();
        let cluster = Cluster::new(2);
        let farm = DiskFarm::in_memory(2);
        stage_requests(&farm, 2_000, GeneratorConfig::default());
        // First pass: measure the run to pick a window that yields
        // several windows and an SLO threshold above the observed p99.
        let probe = serve(&cluster, &farm, &tree, &ServeConfig::new(Layout::Flat, 100));
        let window = (probe.makespan - probe.deploy_seconds) / 8.0;
        let telemetry = TelemetryConfig::new(window).with_slo(SloSpec::p99(probe.latency.p99 * 2.0));
        let cfg = ServeConfig::new(Layout::Flat, 100).with_telemetry(telemetry);
        let report = serve(&cluster, &farm, &tree, &cfg);
        let t = report.telemetry.expect("telemetry was requested");
        assert_eq!(t.per_rank.len(), 2);
        assert!(!t.windows.is_empty());
        let batches: u64 = t.windows.iter().map(|w| w.batches).sum();
        assert_eq!(batches, report.latency.batches as u64, "every batch lands in a window");
        let records: u64 = t.windows.iter().map(|w| w.records).sum();
        assert_eq!(records, report.records);
        let slo = t.slo.expect("slo was configured");
        assert!(slo.compliance == 1.0, "threshold 2x p99 must be met");
        assert!(!slo.overloaded);
        // Telemetry observes, never perturbs: same makespan and bits.
        assert_eq!(report.makespan.to_bits(), probe.makespan.to_bits());
        assert_eq!(report.predictions, probe.predictions);
    }
}
