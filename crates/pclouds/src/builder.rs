//! Top-level pCLOUDS training driver.

use pdc_cgm::{Cluster, RunOutput};
use pdc_clouds::{class_counts, ClassCounts, DecisionTree, Reservoir};
use pdc_datagen::Record;
use pdc_dnc::{run, DncReport, Strategy};
use pdc_pario::{deal_stream, Deal, DiskFarm};

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

/// Streaming loader for data sets that never fit in memory: the records
/// are dealt round-robin onto the disks by [`deal_stream`], in two lanes. A
/// helper thread pulls the stream (for a generated data set, the generator
/// runs there) and encodes each record into its rank's buffer; this thread
/// reads each batch back in stream order into the class counts and the
/// sample's reservoir, and appends the batch to the disks. Two batches of
/// [`pdc_pario::BATCH_RECORDS`] records alternate, so memory stays bounded
/// whatever the stream's length. The result is that of a plain loop over
/// the stream: the same file bytes, counts and sample.
pub fn load_dataset_stream(
    farm: &DiskFarm,
    records: impl IntoIterator<Item = Record, IntoIter: Send>,
    sample_size: usize,
    sample_seed: u64,
) -> RootInfo {
    let mut reservoir = Reservoir::new(sample_size, sample_seed);
    let mut counts = vec![0u64; pdc_datagen::NUM_CLASSES];
    let node_file = PcloudsProblem::node_file(1);
    deal_stream(farm, &node_file, records, Deal::RoundRobin, |r: Record| {
        counts[r.class as usize] += 1;
        reservoir.offer(r);
    });
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
