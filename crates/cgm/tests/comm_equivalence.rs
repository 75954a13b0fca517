//! Equivalence suite for the reduce-scatter schedules (recursive halving
//! on power-of-two machines, fan-in + scatter on the others): both must
//! produce the per-destination reductions and — via the fallible names —
//! hold up under fault plans. Every run is also checked against the
//! accounting identity
//! `compute + comm + io + fault + io_stall + idle == finish_time`.

use pdc_cgm::{Cluster, FaultPlan, MachineConfig, RunOutput};

const SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];

/// Element count of a bandwidth-bound payload (u64 vectors of a few
/// thousand elements are tens of kilobytes).
const BIG: usize = 4096;

fn assert_counters_identity<T>(out: &RunOutput<T>, what: &str) {
    for (rank, s) in out.stats.iter().enumerate() {
        let c = &s.counters;
        let sum = c.compute_time
            + c.comm_time
            + c.io_time
            + c.fault_time
            + c.io_stall_time
            + s.idle_time();
        assert!(
            (sum - s.finish_time).abs() < 1e-9,
            "{what}: rank {rank}: components {sum} != finish {}",
            s.finish_time
        );
        assert!(s.idle_time() >= 0.0, "{what}: rank {rank}: negative idle");
    }
}

/// Spans on, so [`assert_schedule`] can see which schedule ran.
fn config(faults: FaultPlan) -> MachineConfig {
    MachineConfig {
        faults,
        spans: true,
        ..MachineConfig::default()
    }
}

/// Both reduce-scatter schedules are known to be covered, not believed to
/// be: every rank's one `cgm.reduce_scatter.*` span names recursive halving
/// on `p` ∈ {2, 4, 8} and the fan-in on every other `p` of this suite.
fn assert_schedule<T>(out: &RunOutput<T>, p: usize) {
    let want = match p {
        2 | 4 | 8 => "cgm.reduce_scatter.halving",
        _ => "cgm.reduce_scatter.fanin",
    };
    for s in &out.stats {
        let ran: Vec<&str> = s
            .spans
            .iter()
            .map(|sp| sp.name)
            .filter(|n| n.starts_with("cgm.reduce_scatter"))
            .collect();
        assert_eq!(ran, [want], "p={p} rank={}", s.rank);
    }
}

/// Per-rank contribution: rank-and-index dependent so misrouted or
/// misordered elements are caught.
fn contribution(rank: usize, len: usize) -> Vec<u64> {
    (0..len as u64).map(|i| i * 31 + rank as u64 * 7 + 1).collect()
}

fn zip_sum(a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    a.into_iter().zip(b).map(|(x, y)| x + y).collect()
}

fn expected_sum(p: usize, len: usize) -> Vec<u64> {
    let mut total = vec![0u64; len];
    for r in 0..p {
        for (t, v) in total.iter_mut().zip(contribution(r, len)) {
            *t += v;
        }
    }
    total
}

#[test]
fn reduce_scatter_blocks_matches_per_destination_reduces() {
    for p in SIZES {
        let len = 64; // per-destination block length
        let out = Cluster::with_config(p, config(FaultPlan::default())).run(|proc| {
            let blocks: Vec<Vec<u64>> = (0..proc.nprocs())
                .map(|j| contribution(proc.rank() * proc.nprocs() + j, len))
                .collect();
            proc.reduce_scatter_blocks(blocks, |a, b| a + b)
        });
        assert_counters_identity(&out, &format!("reduce_scatter p={p}"));
        for (j, got) in out.results.iter().enumerate() {
            let mut want = vec![0u64; len];
            for r in 0..p {
                for (t, v) in want.iter_mut().zip(contribution(r * p + j, len)) {
                    *t += v;
                }
            }
            assert_eq!(got, &want, "p={p} dest={j}");
        }
        assert_schedule(&out, p);
    }
}

#[test]
fn halving_is_cheaper_for_large_payloads() {
    // The whole point of the halving schedule: same values, strictly less
    // virtual communication time on bandwidth-bound payloads than the
    // fan-in (binomial reduce of every block to rank 0, then a scatter),
    // written out here from `reduce` and point-to-point sends.
    for p in [4usize, 8] {
        let len = BIG / p;
        let blocks_of = |rank: usize| -> Vec<Vec<u64>> {
            (0..p).map(|j| contribution(rank * p + j, len)).collect()
        };
        let fanin = Cluster::new(p).run(|proc| {
            let merged = proc.reduce(0, blocks_of(proc.rank()), |a, b| {
                a.into_iter().zip(b).map(|(x, y)| zip_sum(x, y)).collect()
            });
            match merged {
                Some(mut blocks) => {
                    for (j, block) in blocks.drain(1..).enumerate() {
                        proc.send(j + 1, 1, &block);
                    }
                    blocks.pop().unwrap()
                }
                None => proc.recv(0, 1),
            }
        });
        let halving = Cluster::new(p).run(|proc| {
            proc.reduce_scatter_blocks(blocks_of(proc.rank()), |a, b| a + b)
        });
        assert_eq!(halving.results, fanin.results, "identical values at p={p}");
        assert!(
            halving.total_counters().comm_time < fanin.total_counters().comm_time,
            "p={p}: halving comm {} must beat fan-in comm {}",
            halving.total_counters().comm_time,
            fanin.total_counters().comm_time
        );
    }
}

#[test]
fn min_loc_ignores_nan_scores() {
    // Regression: a NaN gini score on one rank used to poison the winner
    // nondeterministically (raw f64 tuple ordering). NaN now sorts as +inf.
    for p in [2usize, 3, 4, 5, 8] {
        for nan_rank in 0..p {
            let out = Cluster::new(p).run(|proc| {
                let score = if proc.rank() == nan_rank {
                    f64::NAN
                } else {
                    0.5 + proc.rank() as f64
                };
                proc.min_loc(score)
            });
            let want_rank = if nan_rank == 0 { 1 } else { 0 };
            for (rank, &(v, r)) in out.results.iter().enumerate() {
                if p == 1 {
                    continue;
                }
                assert_eq!(r, want_rank, "p={p} nan_rank={nan_rank} rank={rank}");
                assert_eq!(v, 0.5 + want_rank as f64);
            }
        }
        // All-NaN input still resolves deterministically to rank 0.
        let out = Cluster::new(p).run(|proc| proc.min_loc(f64::NAN));
        for &(v, r) in &out.results {
            assert_eq!(r, 0, "all-NaN min_loc must pick rank 0");
            assert!(v.is_nan());
        }
    }
}

// ---------------------------------------------------------------------
// Fault-plan coverage for the fallible names
// ---------------------------------------------------------------------

#[test]
fn try_variants_surface_errors_instead_of_hanging() {
    // Every transmission drops and retries are exhausted immediately: every
    // rank must come back with Err from every schedule, not hang.
    for p in [2usize, 3, 4, 5, 8] {
        let mut plan = FaultPlan::with_seed(97);
        plan.link.drop_prob = 1.0;
        plan.link.max_retries = 0;
        let out = Cluster::with_config(p, config(plan)).run(|proc| {
            let rs = proc
                .try_reduce_scatter_blocks(
                    (0..proc.nprocs()).map(|_| vec![1u64; 16]).collect(),
                    |a, b| a + b,
                )
                .is_err();
            let re = proc.try_reduce(0, vec![1u64; 64], zip_sum).is_err();
            let ar = proc.try_allreduce(vec![1u64; 64], zip_sum).is_err();
            (rs, re, ar)
        });
        assert_counters_identity(&out, &format!("faulty try variants p={p}"));
        assert_schedule(&out, p);
        for (rank, &(rs, re, ar)) in out.results.iter().enumerate() {
            assert!(
                rs && re && ar,
                "p={p} rank={rank}: every schedule must surface the fault"
            );
        }
    }
}

#[test]
fn try_variants_recover_under_retried_drops() {
    // Drops with generous retries: the collectives must succeed and agree
    // with the fault-free values (retries only cost virtual time).
    for p in SIZES {
        let mut plan = FaultPlan::with_seed(41);
        plan.link.drop_prob = 0.2;
        plan.link.max_retries = 50;
        let out = Cluster::with_config(p, config(plan)).run(|proc| {
            let ar = proc
                .try_allreduce(contribution(proc.rank(), 256), zip_sum)
                .expect("retried allreduce");
            let rs = proc
                .try_reduce_scatter_blocks(
                    (0..proc.nprocs()).map(|j| contribution(j, 16)).collect(),
                    |a, b| a + b,
                )
                .expect("retried reduce_scatter");
            (ar, rs)
        });
        assert_counters_identity(&out, &format!("retried try variants p={p}"));
        assert_schedule(&out, p);
        for (rank, (ar, rs)) in out.results.iter().enumerate() {
            assert_eq!(ar, &expected_sum(p, 256), "p={p} rank={rank}");
            let want: Vec<u64> = contribution(rank, 16).iter().map(|v| v * p as u64).collect();
            assert_eq!(rs, &want, "p={p} rank={rank}");
        }
    }
}
