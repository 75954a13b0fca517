//! The ensemble training driver: stage per-tree bootstrap data, run one
//! SPMD pass where every subgroup drains its tree queue, and assemble the
//! member trees.

use pdc_cgm::{resolve_series, Cluster, RunOutput};
use pdc_datagen::Record;
use pdc_dnc::{DncReport, Strategy};
use pdc_pario::{DiskFarm, Rec};
use pdc_pclouds::{load_dataset, train_in_group, RootInfo, SharedBuild};

use crate::bootstrap::{bootstrap_sample, tree_seed};
use crate::config::EnsembleConfig;
use crate::model::EnsembleModel;
use crate::schedule::{plan_schedule, tree_cost, EnsembleSchedule};

/// Everything one ensemble training run produces.
pub struct EnsembleOutput {
    /// The trained ensemble (trees indexed by tree id, every one in
    /// canonical form).
    pub model: EnsembleModel,
    /// Per-rank virtual-time results: one divide-and-conquer report per
    /// tree the rank's subgroup trained, in execution order.
    pub run: RunOutput<Vec<DncReport>>,
    /// The placement the scheduler chose.
    pub schedule: EnsembleSchedule,
}

impl EnsembleOutput {
    /// Parallel runtime of the whole ensemble in simulated seconds (the
    /// makespan over all subgroups' queues).
    pub fn runtime(&self) -> f64 {
        self.run.makespan()
    }

    /// Measured peak of the `dnc.resident_bytes` gauge per rank. Empty
    /// unless the cluster was configured with gauges enabled.
    pub fn peak_resident_bytes(&self) -> Vec<f64> {
        self.run
            .stats
            .iter()
            .map(|s| {
                resolve_series(&s.gauges)
                    .into_iter()
                    .find(|g| g.name == "dnc.resident_bytes")
                    .map_or(0.0, |g| g.peak())
            })
            .collect()
    }
}

/// One tree's staged training state: a subgroup-local farm holding its
/// (possibly bootstrapped) records plus the shared build arena.
struct Staged {
    farm: DiskFarm,
    build: SharedBuild,
    root: RootInfo,
}

/// Train a bagged ensemble of `cfg.trees` trees over `records` on
/// `cluster`. The machine is partitioned into subgroups by
/// [`plan_schedule`]; each subgroup trains its queue of trees one at a
/// time with the whole pCLOUDS pipeline scoped to the subgroup. Member
/// trees are bit-identical for any subgroup width and scheduling order
/// (see the crate docs for the argument).
pub fn train_ensemble_on(
    cluster: &Cluster,
    records: &[Record],
    cfg: &EnsembleConfig,
) -> EnsembleOutput {
    assert!(cfg.trees >= 1, "an ensemble needs at least one tree");
    assert!(!records.is_empty(), "cannot train on an empty record set");
    let p = cluster.nprocs();
    let n = records.len();
    let costs: Vec<f64> = (0..cfg.trees).map(|_| tree_cost(n)).collect();
    let schedule = plan_schedule(p, &costs, n, cfg, &cluster.config().faults);

    // Stage every tree once, on the subgroup that actually trains it.
    // Staging is uncharged, like the initial dataset distribution the
    // paper assumes. Each tree gets its own subgroup-local farm, so
    // queued trees on one subgroup never collide on node files.
    let staged: Vec<Staged> = (0..cfg.trees)
        .map(|t| {
            let site = schedule.site_of(t);
            let width = schedule.subgroups[site].size();
            let farm = DiskFarm::in_memory(width);
            let (data, sample_seed) = if cfg.bootstrap {
                (
                    bootstrap_sample(records, cfg.seed, t),
                    cfg.base.clouds.sample_seed ^ tree_seed(cfg.seed, t),
                )
            } else {
                (records.to_vec(), cfg.base.clouds.sample_seed)
            };
            let root = load_dataset(&farm, &data, cfg.base.clouds.sample_size, sample_seed);
            let build = SharedBuild::new(width, root.counts.clone(), root.sample.clone());
            Staged { farm, build, root }
        })
        .collect();

    let run = cluster.run(|proc| {
        let me = proc.rank();
        let mut reports = Vec::new();
        for (g, sub) in schedule.subgroups.iter().enumerate() {
            if !sub.contains(me) {
                continue;
            }
            // Ranks of a spoiled subgroup sit out the run: the failure is
            // derived from the shared fault plan at schedule time, so no
            // communication (and no waiting on the failed rank) happens.
            for t in schedule.execution_queue(g) {
                let st = &staged[t];
                // The tree's data shard is resident on this rank for the
                // duration of the build; small-task residency inside the
                // pipeline stacks on top via the same gauge.
                let local = sub.local(me).expect("member rank");
                let shard = (shard_records(st.root.n() as usize, sub.size(), local)
                    * Record::ENCODED_BYTES) as f64;
                if proc.gauges_enabled() {
                    proc.gauge_delta("dnc.resident_bytes", proc.clock(), shard);
                }
                let report = train_in_group(
                    proc,
                    sub,
                    &st.farm,
                    &st.build,
                    &st.root,
                    &cfg.base,
                    Strategy::Mixed,
                );
                if proc.gauges_enabled() {
                    proc.gauge_delta("dnc.resident_bytes", proc.clock(), -shard);
                }
                reports.push(report);
            }
            break;
        }
        reports
    });

    let trees = staged.iter().map(|s| s.build.assemble()).collect();
    EnsembleOutput {
        model: EnsembleModel { trees },
        run,
        schedule,
    }
}

/// Convenience wrapper mirroring [`pdc_pclouds::train_in_memory`]: build a
/// `p`-rank cluster and train the ensemble on it.
pub fn train_ensemble(records: &[Record], p: usize, cfg: &EnsembleConfig) -> EnsembleOutput {
    let cluster = Cluster::new(p);
    train_ensemble_on(&cluster, records, cfg)
}

/// Records rank `local` of a width-`w` farm receives from a round-robin
/// deal of `n` records.
fn shard_records(n: usize, w: usize, local: usize) -> usize {
    if local >= n {
        0
    } else {
        (n - local).div_ceil(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_records_sums_to_n() {
        for (n, w) in [(10, 3), (7, 8), (1, 1), (100, 4)] {
            let total: usize = (0..w).map(|l| shard_records(n, w, l)).sum();
            assert_eq!(total, n, "n={n} w={w}");
        }
    }
}
