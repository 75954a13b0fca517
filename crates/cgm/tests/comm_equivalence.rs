//! Equivalence suite for the large-message collectives: every schedule
//! (recursive-halving reduce-scatter, reduce-scatter + (all)gather, ring
//! all-gather) must produce results identical to the binomial/doubling
//! baseline, at power-of-two and non-power-of-two machine sizes, on both
//! sides of the cost-model crossover, and — via the `try_*` variants —
//! under fault plans. Every run is also checked against the accounting
//! identity `compute + comm + io + fault + io_stall + idle == finish_time`.

use pdc_cgm::{Cluster, FaultPlan, MachineConfig, OpKind, RunOutput};

const SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];

/// A payload size far past every crossover, so power-of-two machines take
/// the halving schedules, expressed per test via element count (u64 vectors
/// of a few thousand elements are tens of kilobytes).
const BIG: usize = 4096;
/// A payload hint far below every crossover: selection must keep the
/// binomial / fan-in schedule.
const TINY_HINT: usize = 8;
/// One hint on each side of the crossover.
const HINTS: [usize; 2] = [TINY_HINT, BIG * 8];

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

/// Per-rank contribution: rank-and-index dependent so misrouted or
/// misordered elements are caught.
fn contribution(rank: usize, len: usize) -> Vec<u64> {
    (0..len as u64).map(|i| i * 31 + rank as u64 * 7 + 1).collect()
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
        for hint in HINTS {
            let len = 64; // per-destination block length
            let out = Cluster::new(p).run(|proc| {
                let blocks: Vec<Vec<u64>> = (0..proc.nprocs())
                    .map(|j| contribution(proc.rank() * proc.nprocs() + j, len))
                    .collect();
                proc.reduce_scatter_blocks(blocks, hint, |a, b| a + b)
            });
            assert_counters_identity(&out, &format!("reduce_scatter p={p}"));
            for (j, got) in out.results.iter().enumerate() {
                let mut want = vec![0u64; len];
                for r in 0..p {
                    for (t, v) in want.iter_mut().zip(contribution(r * p + j, len)) {
                        *t += v;
                    }
                }
                assert_eq!(got, &want, "p={p} hint={hint} dest={j}");
            }
        }
    }
}

#[test]
fn reduce_elems_matches_binomial_reduce_for_every_schedule() {
    for p in SIZES {
        for root in 0..p {
            // Baseline: the historical binomial reduce of the whole vector.
            let baseline = Cluster::new(p).run(|proc| {
                proc.reduce(root, contribution(proc.rank(), BIG), |a: Vec<u64>, b| {
                    a.into_iter().zip(b).map(|(x, y)| x + y).collect()
                })
            });
            for hint in HINTS {
                let out = Cluster::new(p).run(|proc| {
                    proc.reduce_elems(root, contribution(proc.rank(), BIG), hint, |a, b| a + b)
                });
                assert_counters_identity(&out, &format!("reduce_elems p={p}"));
                for rank in 0..p {
                    assert_eq!(
                        out.results[rank], baseline.results[rank],
                        "p={p} root={root} hint={hint} rank={rank}"
                    );
                    if rank == root {
                        assert_eq!(out.results[rank].as_deref(), Some(&expected_sum(p, BIG)[..]));
                    }
                }
            }
        }
    }
}

#[test]
fn allreduce_elems_matches_doubling_allreduce_for_every_schedule() {
    for p in SIZES {
        let baseline = Cluster::new(p).run(|proc| {
            proc.allreduce(contribution(proc.rank(), BIG), |a: Vec<u64>, b| {
                a.into_iter().zip(b).map(|(x, y)| x + y).collect()
            })
        });
        for hint in HINTS {
            let out = Cluster::new(p).run(|proc| {
                proc.allreduce_elems(contribution(proc.rank(), BIG), hint, |a, b| a + b)
            });
            assert_counters_identity(&out, &format!("allreduce_elems p={p}"));
            for rank in 0..p {
                assert_eq!(
                    out.results[rank], baseline.results[rank],
                    "p={p} hint={hint} rank={rank}"
                );
                assert_eq!(out.results[rank], expected_sum(p, BIG));
            }
        }
    }
}

#[test]
fn halving_is_cheaper_for_large_payloads() {
    // The whole point of the halving schedules: same values, strictly less
    // virtual communication time on bandwidth-bound payloads than the
    // doubling allreduce of the whole vector.
    for p in [4usize, 8] {
        let doubling = Cluster::new(p).run(|proc| {
            proc.allreduce(contribution(proc.rank(), BIG), |a: Vec<u64>, b| {
                a.into_iter().zip(b).map(|(x, y)| x + y).collect()
            })
        });
        let halving = Cluster::new(p).run(|proc| {
            proc.allreduce_elems(contribution(proc.rank(), BIG), BIG * 8, |a, b| a + b)
        });
        assert_eq!(halving.results, doubling.results, "identical values at p={p}");
        assert!(
            halving.total_counters().comm_time < doubling.total_counters().comm_time,
            "p={p}: halving comm {} must beat doubling comm {}",
            halving.total_counters().comm_time,
            doubling.total_counters().comm_time
        );
    }
}

#[test]
fn small_payloads_keep_the_binomial_schedule() {
    // Below the crossover the element collectives must run the very
    // schedule of the plain reduce/allreduce — finish times agree to the bit.
    fn zip_sum(a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        a.into_iter().zip(b).map(|(x, y)| x + y).collect()
    }
    for p in SIZES {
        let plain = Cluster::new(p).run(|proc| {
            proc.charge(OpKind::Misc, proc.rank() as u64 + 1);
            let r = proc.allreduce(vec![proc.rank() as u64], zip_sum);
            let s = proc.reduce(0, vec![1u64, 2], zip_sum);
            (r, s)
        });
        let elems = Cluster::new(p).run(|proc| {
            proc.charge(OpKind::Misc, proc.rank() as u64 + 1);
            let r = proc.allreduce_elems(vec![proc.rank() as u64], TINY_HINT, |a, b| a + b);
            let s = proc.reduce_elems(0, vec![1u64, 2], TINY_HINT, |a, b| a + b);
            (r, s)
        });
        assert_eq!(elems.results, plain.results);
        for rank in 0..p {
            assert_eq!(
                elems.stats[rank].finish_time.to_bits(),
                plain.stats[rank].finish_time.to_bits(),
                "p={p} rank={rank}: small-payload schedule must not change"
            );
        }
    }
}

#[test]
fn ring_all_gather_matches_all_gather() {
    for p in SIZES {
        let baseline = Cluster::new(p).run(|proc| proc.all_gather(contribution(proc.rank(), 97)));
        let ring = Cluster::new(p).run(|proc| proc.all_gather_ring(contribution(proc.rank(), 97)));
        assert_counters_identity(&ring, &format!("all_gather_ring p={p}"));
        for rank in 0..p {
            assert_eq!(ring.results[rank], baseline.results[rank], "p={p} rank={rank}");
        }
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
// Fault-plan coverage for the try_* variants
// ---------------------------------------------------------------------

fn faulty_config(plan: FaultPlan) -> MachineConfig {
    MachineConfig {
        faults: plan,
        ..MachineConfig::default()
    }
}

#[test]
fn try_variants_match_plain_when_healthy() {
    for p in SIZES {
        for hint in HINTS {
            let run_plain = Cluster::new(p).run(|proc| {
                let rs = proc.reduce_scatter_blocks(
                    (0..proc.nprocs())
                        .map(|j| contribution(proc.rank() + j, 32))
                        .collect(),
                    hint,
                    |a, b| a + b,
                );
                let re = proc.reduce_elems(0, contribution(proc.rank(), BIG), hint, |a, b| a + b);
                let ar = proc.allreduce_elems(contribution(proc.rank(), BIG), hint, |a, b| a + b);
                let rg = proc.all_gather_ring(proc.rank() as u64);
                (rs, re, ar, rg)
            });
            let run_try = Cluster::new(p).run(|proc| {
                let rs = proc
                    .try_reduce_scatter_blocks(
                        (0..proc.nprocs())
                            .map(|j| contribution(proc.rank() + j, 32))
                            .collect(),
                        hint,
                        |a, b| a + b,
                    )
                    .expect("healthy try_reduce_scatter");
                let re = proc
                    .try_reduce_elems(0, contribution(proc.rank(), BIG), hint, |a, b| a + b)
                    .expect("healthy try_reduce_elems");
                let ar = proc
                    .try_allreduce_elems(contribution(proc.rank(), BIG), hint, |a, b| a + b)
                    .expect("healthy try_allreduce_elems");
                let rg = proc
                    .try_all_gather_ring(proc.rank() as u64)
                    .expect("healthy try_all_gather_ring");
                (rs, re, ar, rg)
            });
            assert_counters_identity(&run_try, &format!("try variants p={p}"));
            assert_eq!(run_try.results, run_plain.results, "p={p} hint={hint}");
        }
    }
}

#[test]
fn try_variants_surface_errors_instead_of_hanging() {
    // Every transmission drops and retries are exhausted immediately: every
    // rank must come back with Err from every schedule, not hang.
    for p in [2usize, 3, 4, 5, 8] {
        for hint in HINTS {
            let mut plan = FaultPlan::with_seed(97);
            plan.link.drop_prob = 1.0;
            plan.link.max_retries = 0;
            let out = Cluster::with_config(p, faulty_config(plan)).run(|proc| {
                let rs = proc
                    .try_reduce_scatter_blocks(
                        (0..proc.nprocs()).map(|_| vec![1u64; 16]).collect(),
                        hint,
                        |a, b| a + b,
                    )
                    .is_err();
                let re = proc
                    .try_reduce_elems(0, vec![1u64; 64], hint, |a, b| a + b)
                    .is_err();
                let ar = proc
                    .try_allreduce_elems(vec![1u64; 64], hint, |a, b| a + b)
                    .is_err();
                let rg = proc.try_all_gather_ring(7u64).is_err();
                (rs, re, ar, rg)
            });
            assert_counters_identity(&out, &format!("faulty try variants p={p}"));
            for (rank, &(rs, re, ar, rg)) in out.results.iter().enumerate() {
                assert!(
                    rs && re && ar && rg,
                    "p={p} hint={hint} rank={rank}: every schedule must surface the fault"
                );
            }
        }
    }
}

#[test]
fn try_variants_recover_under_retried_drops() {
    // Drops with generous retries: the collectives must succeed and agree
    // with the fault-free values (retries only cost virtual time).
    for p in SIZES {
        for hint in HINTS {
            let mut plan = FaultPlan::with_seed(41);
            plan.link.drop_prob = 0.2;
            plan.link.max_retries = 50;
            let out = Cluster::with_config(p, faulty_config(plan)).run(|proc| {
                let ar = proc
                    .try_allreduce_elems(contribution(proc.rank(), 256), hint, |a, b| a + b)
                    .expect("retried allreduce_elems");
                let rs = proc
                    .try_reduce_scatter_blocks(
                        (0..proc.nprocs())
                            .map(|j| contribution(j, 16))
                            .collect(),
                        hint,
                        |a, b| a + b,
                    )
                    .expect("retried reduce_scatter");
                (ar, rs)
            });
            assert_counters_identity(&out, &format!("retried try variants p={p}"));
            for (rank, (ar, rs)) in out.results.iter().enumerate() {
                assert_eq!(ar, &expected_sum(p, 256), "p={p} rank={rank}");
                let want: Vec<u64> = contribution(rank, 16).iter().map(|v| v * p as u64).collect();
                assert_eq!(rs, &want, "p={p} rank={rank}");
            }
        }
    }
}
