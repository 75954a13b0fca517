//! Correctness tests for every collective, across power-of-two and
//! non-power-of-two machine sizes, plus virtual-time semantics checks.

use pdc_cgm::{Cluster, MachineConfig, OpKind};

const SIZES: [usize; 7] = [1, 2, 3, 4, 5, 8, 16];

#[test]
fn barrier_synchronizes_clocks() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            // Skewed compute before the barrier.
            proc.charge(OpKind::Misc, 1000 * (proc.rank() as u64 + 1));
            let before = proc.clock();
            proc.barrier();
            (before, proc.clock())
        });
        let max_before = out
            .results
            .iter()
            .map(|&(b, _)| b)
            .fold(0.0_f64, f64::max);
        for &(_, after) in &out.results {
            assert!(
                after >= max_before,
                "p={p}: clock {after} did not reach the slowest entrant {max_before}"
            );
        }
    }
}

#[test]
fn broadcast_from_every_root() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        for root in 0..p {
            let out = cluster.run(|proc| {
                let value = if proc.rank() == root {
                    Some(vec![root as u64, 17, 42])
                } else {
                    None
                };
                proc.broadcast(root, value)
            });
            for (rank, v) in out.results.iter().enumerate() {
                assert_eq!(v, &vec![root as u64, 17, 42], "p={p} root={root} rank={rank}");
            }
        }
    }
}

#[test]
fn reduce_sums_to_every_root() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let expected: u64 = (0..p as u64).sum();
        for root in 0..p {
            let out = cluster.run(|proc| {
                proc.reduce(root, proc.rank() as u64, |a, b| a + b)
            });
            for (rank, r) in out.results.iter().enumerate() {
                if rank == root {
                    assert_eq!(*r, Some(expected), "p={p} root={root}");
                } else {
                    assert_eq!(*r, None, "p={p} root={root} rank={rank}");
                }
            }
        }
    }
}

#[test]
fn allreduce_vector_sum() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            let local = vec![proc.rank() as u64, 1u64];
            proc.allreduce(local, |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            })
        });
        let expected = vec![(0..p as u64).sum::<u64>(), p as u64];
        for r in &out.results {
            assert_eq!(r, &expected, "p={p}");
        }
    }
}

#[test]
fn min_loc_finds_global_minimum_and_owner() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        // Minimum is at rank p-1 with value 1.0/p.
        let out = cluster.run(|proc| {
            let v = 1.0 / (proc.rank() as f64 + 1.0);
            proc.min_loc(v)
        });
        for &(v, owner) in &out.results {
            assert_eq!(owner, p - 1, "p={p}");
            assert!((v - 1.0 / p as f64).abs() < 1e-12);
        }
    }
}

#[test]
fn min_loc_breaks_ties_by_lower_rank() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| proc.min_loc(3.5));
        for &(v, owner) in &out.results {
            assert_eq!(owner, 0, "p={p}");
            assert_eq!(v, 3.5);
        }
    }
}

#[test]
fn inclusive_scan_prefix_sums() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| proc.scan(proc.rank() as u64 + 1, |a, b| a + b));
        for (rank, &v) in out.results.iter().enumerate() {
            let expected: u64 = (1..=rank as u64 + 1).sum();
            assert_eq!(v, expected, "p={p} rank={rank}");
        }
    }
}

#[test]
fn exclusive_scan_prefix_sums() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| proc.exscan(proc.rank() as u64 + 1, 0u64, |a, b| a + b));
        for (rank, &v) in out.results.iter().enumerate() {
            let expected: u64 = (1..=rank as u64).sum();
            assert_eq!(v, expected, "p={p} rank={rank}");
        }
    }
}

#[test]
fn gather_collects_in_rank_order() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        for root in 0..p {
            let out = cluster.run(|proc| {
                proc.gather(root, format!("r{}", proc.rank()))
            });
            for (rank, r) in out.results.iter().enumerate() {
                if rank == root {
                    let got = r.as_ref().expect("root gets the gather");
                    let expected: Vec<String> =
                        (0..p).map(|i| format!("r{i}")).collect();
                    assert_eq!(got, &expected, "p={p} root={root}");
                } else {
                    assert!(r.is_none(), "p={p} root={root} rank={rank}");
                }
            }
        }
    }
}

#[test]
fn all_gather_everyone_gets_everything() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| proc.all_gather(vec![proc.rank() as u32; proc.rank() + 1]));
        let expected: Vec<Vec<u32>> = (0..p).map(|i| vec![i as u32; i + 1]).collect();
        for r in &out.results {
            assert_eq!(r[..], expected, "p={p}");
        }
    }
}

#[test]
fn all_to_all_personalized_delivery() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            // Send (my_rank * 100 + dst) to each dst.
            let parts: Vec<u64> = (0..proc.nprocs())
                .map(|dst| (proc.rank() * 100 + dst) as u64)
                .collect();
            proc.all_to_all(parts)
        });
        for (rank, received) in out.results.iter().enumerate() {
            let expected: Vec<u64> = (0..p).map(|src| (src * 100 + rank) as u64).collect();
            assert_eq!(received, &expected, "p={p} rank={rank}");
        }
    }
}

#[test]
fn all_to_all_variable_sized_payloads() {
    for p in SIZES {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            let parts: Vec<Vec<u8>> = (0..proc.nprocs())
                .map(|dst| vec![proc.rank() as u8; dst + 1])
                .collect();
            proc.all_to_all(parts)
        });
        for (rank, received) in out.results.iter().enumerate() {
            for (src, part) in received.iter().enumerate() {
                assert_eq!(part, &vec![src as u8; rank + 1], "p={p} rank={rank} src={src}");
            }
        }
    }
}

#[test]
fn clocks_are_deterministic_across_runs() {
    let cluster = Cluster::new(8);
    let program = |proc: &mut pdc_cgm::Proc| {
        proc.charge(OpKind::RecordScan, 500 * (proc.rank() as u64 + 3));
        let s: u64 = proc.allreduce(proc.rank() as u64, |a, b| a + b);
        proc.charge(OpKind::Compare, s);
        let _ = proc.all_gather(proc.clock().to_bits());
        proc.barrier();
        proc.clock()
    };
    let a = cluster.run(program);
    let b = cluster.run(program);
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.to_bits(), y.to_bits(), "virtual time must be deterministic");
    }
}

#[test]
fn send_recv_cost_matches_alpha_beta_model() {
    let cfg = MachineConfig::default();
    let alpha = cfg.cost.network.alpha;
    let beta = cfg.cost.network.beta;
    let cluster = Cluster::with_config(2, cfg);
    let payload = vec![0u8; 1000];
    let out = cluster.run(|proc| {
        if proc.rank() == 0 {
            proc.send_bytes(1, 7, payload.clone());
            proc.clock()
        } else {
            let got = proc.recv_bytes(0, 7);
            assert_eq!(got.len(), 1000);
            proc.clock()
        }
    });
    let expected = alpha + beta * 1000.0;
    assert!((out.results[0] - expected).abs() < 1e-12, "sender clock");
    // Receiver was idle, so it completes exactly at the arrival time.
    assert!((out.results[1] - expected).abs() < 1e-12, "receiver clock");
}

#[test]
fn receiver_later_than_message_keeps_its_clock() {
    let cluster = Cluster::new(2);
    let out = cluster.run(|proc| {
        if proc.rank() == 0 {
            proc.send(1, 9, &1u8);
            proc.clock()
        } else {
            // Receiver is busy for 1 virtual second before receiving.
            proc.advance_compute(1.0);
            let _: u8 = proc.recv(0, 9);
            proc.clock()
        }
    });
    assert!((out.results[1] - 1.0).abs() < 1e-12);
}

#[test]
fn stats_account_messages_and_ops() {
    let cluster = Cluster::new(4);
    let out = cluster.run(|proc| {
        proc.charge(OpKind::GiniEval, 10);
        let _ = proc.all_gather(proc.rank() as u64);
    });
    let totals = out.total_counters();
    assert_eq!(totals.ops[OpKind::GiniEval.index()], 40);
    assert!(totals.messages_sent > 0);
    assert_eq!(totals.messages_sent, totals.messages_received);
    assert_eq!(totals.bytes_sent, totals.bytes_received);
    for s in &out.stats {
        assert!(s.finish_time > 0.0);
        assert!(s.counters.compute_time > 0.0);
    }
}

#[test]
fn imbalance_reflects_skew() {
    let cluster = Cluster::new(4);
    let skewed = cluster.run(|proc| {
        proc.charge(OpKind::Misc, if proc.rank() == 0 { 1_000_000 } else { 1 });
    });
    assert!(skewed.imbalance() > 1.5, "imbalance = {}", skewed.imbalance());
    let balanced = cluster.run(|proc| {
        proc.charge(OpKind::Misc, 1000);
    });
    assert!((balanced.imbalance() - 1.0).abs() < 1e-9);
}

#[test]
#[should_panic(expected = "virtual processor 2 panicked")]
fn proc_panic_propagates_with_rank() {
    let cluster = Cluster::new(4);
    cluster.run(|proc| {
        if proc.rank() == 2 {
            panic!("boom");
        }
    });
}

#[test]
fn single_proc_machine_collectives_are_identity() {
    let cluster = Cluster::new(1);
    let out = cluster.run(|proc| {
        let b = proc.broadcast(0, Some(5u32));
        let r = proc.reduce(0, 7u32, |a, b| a + b).unwrap();
        let a = proc.allreduce(9u32, |a, b| a + b);
        let g = proc.gather(0, 3u32).unwrap();
        let ag = proc.all_gather(4u32);
        let s = proc.scan(6u32, |a, b| a + b);
        let aa = proc.all_to_all(vec![8u32]);
        proc.barrier();
        (b, r, a, g, ag, s, aa)
    });
    let (b, r, a, g, ag, s, aa) = out.results[0].clone();
    assert_eq!((b, r, a), (5, 7, 9));
    assert_eq!(g, vec![3]);
    assert_eq!(ag[..], [4]);
    assert_eq!(s, 6);
    assert_eq!(aa, vec![8]);
    assert_eq!(out.makespan(), 0.0);
}

#[test]
fn events_are_recorded_when_enabled() {
    use pdc_cgm::{trace::timeline, Ev};
    let cfg = MachineConfig {
        record: true,
        ..MachineConfig::default()
    };
    let cluster = Cluster::with_config(2, cfg);
    let out = cluster.run(|proc| {
        proc.charge(OpKind::Misc, 1000);
        proc.disk_write(4096);
        if proc.rank() == 0 {
            proc.send(1, 3, &7u8);
        } else {
            let _: u8 = proc.recv(0, 3);
        }
    });
    let e0 = &out.stats[0].events;
    assert!(e0.iter().any(|e| matches!(e, Ev::Compute { .. })));
    assert!(e0.iter().any(|e| matches!(e, Ev::Disk { .. })));
    assert!(e0.iter().any(|e| matches!(e, Ev::Push { .. })));
    let e1 = &out.stats[1].events;
    assert!(e1.iter().any(|e| matches!(e, Ev::Recv { .. })));
    // Replayed timestamps are nondecreasing.
    let graph = pdc_cgm::EventGraph::from_stats(&out.stats);
    let view = pdc_cgm::replay(&graph, &pdc_cgm::CostOverride::identity());
    for times in &view.end {
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
    let line = timeline(&graph, &view, 0, out.makespan(), 20);
    assert_eq!(line.len(), 20);
    assert!(line.contains('C') || line.contains('D'));
}

#[test]
fn no_events_are_recorded_when_disabled() {
    let cluster = Cluster::new(2);
    let out = cluster.run(|proc| {
        proc.charge(OpKind::Misc, 10);
        let _ = proc.all_gather(proc.rank() as u64);
    });
    assert!(out.stats.iter().all(|s| s.events.is_empty()));
}
