//! Top-level pCLOUDS training driver.

use pdc_cgm::{Cluster, RunOutput};
use pdc_clouds::{class_counts, ClassCounts, DecisionTree, Reservoir};
use pdc_datagen::Record;
use pdc_dnc::{run, DncReport, Strategy};
use pdc_pario::{DiskFarm, RecBuf};

use crate::config::PcloudsConfig;
use crate::problem::{NodeMeta, PcloudsProblem};
use crate::state::{BuildMetrics, SharedBuild};

/// Description of the loaded training set, produced by [`load_dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct RootInfo {
    /// Global class distribution.
    pub counts: ClassCounts,
    /// The pre-drawn random sample (replicated to every processor).
    pub sample: Vec<Record>,
}

impl RootInfo {
    /// Training-set size.
    pub fn n(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Load an in-memory record set onto the farm's disks: records are dealt
/// round-robin, which realizes the paper's assumption that "the data is
/// initially distributed at random among the p processors". Draws the
/// pre-drawn sample along the way.
pub fn load_dataset(
    farm: &DiskFarm,
    records: &[Record],
    sample_size: usize,
    sample_seed: u64,
) -> RootInfo {
    load_dataset_stream(farm, records.iter().copied(), sample_size, sample_seed)
}

/// Streaming loader for data sets that never fit in memory: records are
/// written to the disks in chunks while a reservoir draws the sample.
pub fn load_dataset_stream(
    farm: &DiskFarm,
    records: impl IntoIterator<Item = Record>,
    sample_size: usize,
    sample_seed: u64,
) -> RootInfo {
    let p = farm.nprocs();
    let mut files = Vec::with_capacity(p);
    for rank in 0..p {
        let mut disk = farm.lock(rank);
        files.push(disk.create::<Record>(&PcloudsProblem::node_file(1)));
    }
    let mut reservoir = Reservoir::new(sample_size, sample_seed);
    let mut counts = vec![0u64; pdc_datagen::NUM_CLASSES];
    // Each record is encoded once, into its rank's buffer of file bytes.
    let mut buffers: Vec<RecBuf<Record>> = vec![RecBuf::new(); p];
    const FLUSH: usize = 8_192;
    for (i, r) in records.into_iter().enumerate() {
        counts[r.class as usize] += 1;
        reservoir.offer(r);
        let rank = i % p;
        buffers[rank].push(&r);
        if buffers[rank].len() >= FLUSH {
            farm.lock(rank).append_chunk_uncharged(&files[rank], buffers[rank].view());
            buffers[rank].clear();
        }
    }
    for rank in 0..p {
        farm.lock(rank).append_chunk_uncharged(&files[rank], buffers[rank].view());
    }
    RootInfo {
        counts,
        sample: reservoir.into_sample(),
    }
}

/// Everything a training run produces.
pub struct TrainOutput {
    /// The assembled decision tree (skeleton + grafted small subtrees).
    pub tree: DecisionTree,
    /// Per-processor virtual-time results (the makespan is the parallel
    /// runtime the paper's figures plot).
    pub run: RunOutput<DncReport>,
    /// Per-processor algorithm metrics.
    pub metrics: Vec<BuildMetrics>,
}

impl TrainOutput {
    /// Parallel runtime in simulated seconds.
    pub fn runtime(&self) -> f64 {
        self.run.makespan()
    }

    /// Per-span metrics rollups of the run. Empty unless the cluster was
    /// configured with [`pdc_cgm::MachineConfig::spans`] enabled.
    pub fn span_metrics(&self) -> pdc_cgm::MetricsRegistry {
        pdc_cgm::MetricsRegistry::from_stats(&self.run.stats)
    }
}

/// Train a pCLOUDS tree on data already loaded onto `farm` (see
/// [`load_dataset`]). `cluster` and `farm` must have the same processor
/// count.
pub fn train(
    cluster: &Cluster,
    farm: &DiskFarm,
    root: &RootInfo,
    config: &PcloudsConfig,
    strategy: Strategy,
) -> TrainOutput {
    assert_eq!(cluster.nprocs(), farm.nprocs(), "cluster/farm size mismatch");
    let build = SharedBuild::new(cluster.nprocs(), root.counts.clone(), root.sample.clone());
    let n_root = root.n();
    let run = cluster.run(|proc| {
        let problem = PcloudsProblem {
            farm,
            config,
            build: &build,
            n_root,
            rank: proc.rank(),
        };
        run(proc, &problem, NodeMeta { counts: root.counts.clone() }, strategy)
    });
    let live = build.live_samples();
    assert!(live.is_empty(), "samples of tasks {live:?} were never released");
    let tree = build.assemble();
    let metrics = build.metrics();
    TrainOutput { tree, run, metrics }
}

/// Group-parameterized training entry point: run the per-rank pCLOUDS
/// training body **inside a subgroup** of an already-running SPMD closure.
/// The whole pipeline — histogram reductions, candidate elections, record
/// redistribution, the divide-and-conquer driver — executes with its
/// collectives scoped to `group` via [`pdc_cgm::Proc::scoped`], so disjoint
/// subgroups can train different trees concurrently without interfering.
///
/// Unlike [`train`], which owns the cluster, this is called from within
/// `cluster.run` by **every member of `group`** (SPMD contract). `farm` is a
/// subgroup-local disk farm whose width equals `group.size()`; data must
/// have been staged onto it with [`load_dataset`] against the same farm, and
/// `build` must have been created with `p = group.size()`. Returns this
/// member's divide-and-conquer report; assemble the tree from `build` after
/// the run. `strategy` must not be [`Strategy::TaskParallel`], whose
/// subgroup scopes cannot open inside this one.
pub fn train_in_group(
    proc: &mut pdc_cgm::Proc,
    group: &pdc_cgm::Group,
    farm: &DiskFarm,
    build: &SharedBuild,
    root: &RootInfo,
    config: &PcloudsConfig,
    strategy: Strategy,
) -> DncReport {
    assert_eq!(
        group.size(),
        farm.nprocs(),
        "subgroup/farm size mismatch"
    );
    let n_root = root.n();
    proc.scoped(group, |p| {
        let problem = PcloudsProblem {
            farm,
            config,
            build,
            n_root,
            rank: p.rank(),
        };
        run(p, &problem, NodeMeta { counts: root.counts.clone() }, strategy)
    })
}

/// Convenience wrapper: generate a farm, load `records`, and train with the
/// mixed strategy on `p` processors.
pub fn train_in_memory(
    records: &[Record],
    p: usize,
    config: &PcloudsConfig,
) -> TrainOutput {
    let farm = DiskFarm::in_memory(p);
    let root = load_dataset(
        &farm,
        records,
        config.clouds.sample_size,
        config.clouds.sample_seed,
    );
    debug_assert_eq!(root.counts, class_counts(records));
    let cluster = Cluster::new(p);
    train(&cluster, &farm, &root, config, Strategy::Mixed)
}
