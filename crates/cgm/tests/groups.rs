//! Tests of collectives over subgroups ([`pdc_cgm::Proc::scoped`]):
//! correctness within groups, independence between concurrently
//! communicating disjoint groups.

use pdc_cgm::{Cluster, Group};

#[test]
fn group_allreduce_only_sums_members() {
    let cluster = Cluster::new(6);
    let out = cluster.run(|proc| {
        let group = if proc.rank() < 4 {
            Group::new(vec![0, 1, 2, 3])
        } else {
            Group::new(vec![4, 5])
        };
        let mine = proc.rank() as u64;
        proc.scoped(&group, |p| p.allreduce(mine, |a, b| a + b))
    });
    assert_eq!(out.results, vec![6, 6, 6, 6, 9, 9]);
}

#[test]
fn group_broadcast_from_each_local_root() {
    for members in [vec![0usize, 2, 3], vec![1, 4], vec![0, 1, 2, 3, 4]] {
        let group = Group::new(members.clone());
        let cluster = Cluster::new(5);
        for root_local in 0..group.size() {
            let g2 = group.clone();
            let out = cluster.run(|proc| {
                if !g2.contains(proc.rank()) {
                    return None;
                }
                let value = if g2.local(proc.rank()) == Some(root_local) {
                    Some(format!("from-{root_local}"))
                } else {
                    None
                };
                Some(proc.scoped(&g2, |p| p.broadcast(root_local, value)))
            });
            for (rank, r) in out.results.iter().enumerate() {
                if group.contains(rank) {
                    assert_eq!(r.as_deref(), Some(format!("from-{root_local}").as_str()));
                } else {
                    assert!(r.is_none());
                }
            }
        }
    }
}

#[test]
fn group_min_loc_returns_global_rank() {
    let cluster = Cluster::new(5);
    let out = cluster.run(|proc| {
        let group = Group::new(vec![1, 3, 4]);
        if !group.contains(proc.rank()) {
            return None;
        }
        // rank 3 holds the minimum.
        let v = if proc.rank() == 3 { -1.0 } else { proc.rank() as f64 };
        let (min, local) = proc.scoped(&group, |p| p.min_loc(v));
        Some((min, group.global(local)))
    });
    for (rank, r) in out.results.iter().enumerate() {
        if [1, 3, 4].contains(&rank) {
            assert_eq!(*r, Some((-1.0, 3)));
        }
    }
}

#[test]
fn group_all_gather_orders_by_local_rank() {
    let cluster = Cluster::new(4);
    let out = cluster.run(|proc| {
        let group = Group::new(vec![0, 2, 3]);
        if !group.contains(proc.rank()) {
            return None;
        }
        let mine = proc.rank() as u32 * 10;
        Some(proc.scoped(&group, |p| p.all_gather(mine)))
    });
    for (rank, r) in out.results.iter().enumerate() {
        if [0, 2, 3].contains(&rank) {
            assert_eq!(r.as_deref(), Some(&[0u32, 20, 30][..]));
        }
    }
}

#[test]
fn disjoint_groups_communicate_concurrently() {
    // Two disjoint groups run different numbers of collectives — no
    // deadlock, no cross-talk.
    let cluster = Cluster::new(8);
    let out = cluster.run(|proc| {
        let (group, rounds) = if proc.rank() < 3 {
            (Group::new(vec![0, 1, 2]), 5)
        } else {
            (Group::new(vec![3, 4, 5, 6, 7]), 2)
        };
        let mut acc = proc.rank() as u64;
        proc.scoped(&group, |p| {
            for _ in 0..rounds {
                acc = p.allreduce(acc, |a, b| a + b);
            }
            p.barrier();
        });
        acc
    });
    // Group A: sum=3, then 9, 27, 81, 243 (x3 each round).
    for r in 0..3 {
        assert_eq!(out.results[r], 243);
    }
    // Group B: sum=25, then 125.
    for r in 3..8 {
        assert_eq!(out.results[r], 125);
    }
}

#[test]
fn singleton_group_is_identity() {
    let cluster = Cluster::new(2);
    let out = cluster.run(|proc| {
        let group = Group::new(vec![proc.rank()]);
        proc.scoped(&group, |p| {
            let a = p.allreduce(7u64, |x, y| x + y);
            let b = p.broadcast(0, Some(9u64));
            let c = p.all_gather(4u64).to_vec();
            p.barrier();
            (a, b, c)
        })
    });
    for r in &out.results {
        assert_eq!(*r, (7, 9, vec![4]));
    }
}

#[test]
fn group_all_to_all_personalized_delivery() {
    let cluster = Cluster::new(5);
    let out = cluster.run(|proc| {
        let group = Group::new(vec![0, 2, 3, 4]);
        if !group.contains(proc.rank()) {
            return None;
        }
        let me = group.local(proc.rank()).unwrap();
        let parts: Vec<u64> = (0..group.size())
            .map(|dst| (me * 100 + dst) as u64)
            .collect();
        Some(proc.scoped(&group, |p| p.all_to_all(parts)))
    });
    for (rank, r) in out.results.iter().enumerate() {
        if let Some(received) = r {
            let me = [0, 2, 3, 4].iter().position(|&g| g == rank).unwrap();
            let expected: Vec<u64> = (0..4).map(|src| (src * 100 + me) as u64).collect();
            assert_eq!(received, &expected, "rank {rank}");
        } else {
            assert_eq!(rank, 1);
        }
    }
}

#[test]
fn group_collectives_cost_less_than_world() {
    // A subgroup's collectives only charge the members: the world makespan
    // of a run where a small group communicates heavily should be lower
    // than the same traffic over the whole machine.
    let p = 8;
    let traffic = |use_group: bool| {
        let cluster = Cluster::new(p);
        let out = cluster.run(move |proc| {
            let payload = vec![proc.rank() as u64; 4096];
            if use_group {
                let group = Group::new(vec![0, 1]);
                if group.contains(proc.rank()) {
                    for _ in 0..8 {
                        let _ = proc.scoped(&group, |p| p.all_gather(payload.clone()));
                    }
                }
            } else {
                for _ in 0..8 {
                    let _ = proc.all_gather(payload.clone());
                }
            }
        });
        out.makespan()
    };
    assert!(traffic(true) < traffic(false));
}

#[test]
fn split_k_by_cost_is_proportional() {
    let g = Group::world(12);
    let parts = g.split_k_by_cost(&[2.0, 1.0, 1.0]);
    assert_eq!(parts.iter().map(Group::size).collect::<Vec<_>>(), vec![6, 3, 3]);
    // Partition property: contiguous, disjoint, covering, in order.
    let flat: Vec<usize> = parts.iter().flat_map(|s| s.members().to_vec()).collect();
    assert_eq!(flat, (0..12).collect::<Vec<_>>());
}

#[test]
fn split_k_by_cost_single_member_group() {
    let g = Group::new(vec![7]);
    let parts = g.split_k_by_cost(&[3.5]);
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].members(), &[7]);
}

#[test]
#[should_panic(expected = "at least one cost")]
fn split_k_by_cost_rejects_empty_costs() {
    Group::world(4).split_k_by_cost(&[]);
}

#[test]
#[should_panic(expected = "cannot split")]
fn split_k_by_cost_rejects_more_parts_than_members() {
    Group::world(2).split_k_by_cost(&[1.0, 1.0, 1.0]);
}

#[test]
fn split_k_by_cost_degenerate_costs_split_evenly() {
    let g = Group::world(8);
    let parts = g.split_k_by_cost(&[0.0, 0.0, 0.0, 0.0]);
    assert_eq!(parts.iter().map(Group::size).collect::<Vec<_>>(), vec![2, 2, 2, 2]);
    // Every subgroup keeps at least one member even when one cost dwarfs
    // the rest.
    let parts = g.split_k_by_cost(&[1e12, 1.0, 1.0]);
    assert!(parts.iter().all(|s| s.size() >= 1));
    assert_eq!(parts.iter().map(Group::size).sum::<usize>(), 8);
}

#[test]
fn scoped_collectives_are_confined_to_the_subgroup() {
    // Two disjoint subgroups run *world-style* collectives concurrently
    // inside Proc::scoped; each sees only its own members.
    let cluster = Cluster::new(6);
    let out = cluster.run(|proc| {
        let group = if proc.rank() < 4 {
            Group::new(vec![0, 1, 2, 3])
        } else {
            Group::new(vec![4, 5])
        };
        proc.scoped(&group, |p| {
            let local_sum = p.allreduce(p.world_rank() as u64, |a, b| a + b);
            let gathered = p.all_gather(group.global(p.rank()) as u64);
            (p.rank(), p.nprocs(), local_sum, gathered)
        })
    });
    for (rank, (local, size, sum, gathered)) in out.results.iter().enumerate() {
        if rank < 4 {
            assert_eq!((*local, *size, *sum), (rank, 4, 6));
            assert_eq!(gathered[..], [0, 1, 2, 3]);
        } else {
            assert_eq!((*local, *size, *sum), (rank - 4, 2, 9));
            assert_eq!(gathered[..], [4, 5]);
        }
    }
}

#[test]
fn scoped_world_group_is_identity() {
    // Scoping to the world group must be free and behaviorally identical.
    let p = 4;
    let run = |scope: bool| {
        let cluster = Cluster::new(p);
        let out = cluster.run(move |proc| {
            let body = |p: &mut pdc_cgm::Proc| {
                let s = p.allreduce(p.rank() as u64 + 1, |a, b| a + b);
                p.barrier();
                (p.rank(), s)
            };
            if scope {
                let world = Group::world(proc.nprocs());
                proc.scoped(&world, body)
            } else {
                body(proc)
            }
        });
        (out.results.clone(), out.makespan())
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn scoped_rank_translation_round_trips() {
    let cluster = Cluster::new(5);
    let out = cluster.run(|proc| {
        let group = Group::new(vec![1, 3, 4]);
        if !group.contains(proc.rank()) {
            return None;
        }
        Some(proc.scoped(&group, |p| {
            assert_eq!(p.world_nprocs(), 5);
            assert_eq!(group.global(p.rank()), p.world_rank());
            // Ring exchange over local ranks exercises the wire translation.
            let right = (p.rank() + 1) % p.nprocs();
            let left = (p.rank() + p.nprocs() - 1) % p.nprocs();
            p.send(right, 7, &(p.world_rank() as u64));
            let from_left: u64 = p.recv(left, 7);
            (p.rank(), from_left)
        }))
    });
    assert_eq!(out.results[1], Some((0, 4)));
    assert_eq!(out.results[3], Some((1, 1)));
    assert_eq!(out.results[4], Some((2, 3)));
}
