//! Demonstration problem: **parallel out-of-core distribution sort**.
//!
//! A classical divide-and-conquer over disk-resident data: partition the
//! keys around a sampled pivot (one streaming pass, local I/O only), recurse
//! on both halves, and sort small tasks in memory on a single processor.
//! The leaves of the divide-and-conquer tree, read in in-order (heap id)
//! order, form the globally sorted output.
//!
//! Exercises every part of the framework the way pCLOUDS does: sampling via
//! a collective, data-parallel streaming partition, delayed task
//! parallelism with compute-dependent parallel I/O for small tasks.

use pdc_cgm::{OpKind, Proc, Wire};
use pdc_pario::{redistribute, DiskFarm};

use crate::problem::{Outcome, OocProblem, Task};

/// All-reduce within `group`: binomial reduce to its first member, then
/// broadcast (any group size; a group of one sends nothing).
fn group_allreduce<T: Wire>(
    proc: &mut Proc,
    group: &pdc_cgm::Group,
    value: T,
    combine: impl Fn(T, T) -> T,
) -> T {
    proc.scoped(group, |p| {
        let reduced = p.reduce(0, value, combine);
        p.broadcast(0, reduced)
    })
}

/// Task description: the global number of keys in the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortMeta {
    /// Total keys across all processors' partitions of this task.
    pub count: u64,
}

/// The out-of-core distribution sort problem over a disk farm.
pub struct OocSort<'a> {
    /// Per-processor disks holding the task files.
    pub farm: &'a DiskFarm,
    /// Streaming chunk size (records) — the memory budget.
    pub chunk_records: usize,
    /// Tasks with at most this many keys go to the task-parallel path.
    pub small_threshold: u64,
    /// Keys each processor contributes to the pivot sample.
    pub sample_per_proc: usize,
}

impl OocSort<'_> {
    /// Name of the distributed file of task `id`.
    pub fn dist_file(id: u64) -> String {
        format!("sort-d{id}")
    }

    /// Name of the single-owner file of a small task `id`.
    pub fn owned_file(id: u64) -> String {
        format!("sort-o{id}")
    }

    /// Name of the sorted leaf output file of task `id`.
    pub fn leaf_file(id: u64) -> String {
        format!("sort-leaf{id}")
    }

    /// Create the root task's distributed input: slice `keys` round-robin
    /// across the farm (call once, outside the cluster).
    pub fn scatter_input(farm: &DiskFarm, keys: &[u64]) -> SortMeta {
        let p = farm.nprocs();
        for rank in 0..p {
            let mut disk = farm.lock(rank);
            let f = disk.create::<u64>(&Self::dist_file(1));
            let local: Vec<u64> = keys
                .iter()
                .copied()
                .skip(rank)
                .step_by(p)
                .collect();
            // Outside a cluster run there is no processor to charge, so the
            // initial load is free — matching the paper's assumption that
            // the data is already resident on the disks.
            disk.append_uncharged(&f, &local);
        }
        SortMeta {
            count: keys.len() as u64,
        }
    }

    /// Gather the sorted output after a run: leaves in in-order (ascending
    /// heap-id interval) order, each leaf's data concatenated over ranks.
    pub fn collect_sorted(farm: &DiskFarm) -> Vec<u64> {
        let mut leaf_ids: Vec<u64> = Vec::new();
        for rank in 0..farm.nprocs() {
            let disk = farm.lock(rank);
            for name in disk.file_names() {
                if let Some(id) = name.strip_prefix("sort-leaf") {
                    leaf_ids.push(id.parse().expect("leaf id"));
                }
            }
        }
        leaf_ids.sort_unstable();
        leaf_ids.dedup();
        // In-order position of a heap id: visit left subtree, node, right.
        // Leaves partition the key space by construction; ordering leaves by
        // their in-order rank equals ordering their key ranges.
        let mut ordered = leaf_ids.clone();
        ordered.sort_by_key(|&id| in_order_key(id));
        let mut out = Vec::new();
        for id in ordered {
            for rank in 0..farm.nprocs() {
                let mut disk = farm.lock(rank);
                if disk.exists(&Self::leaf_file(id)) {
                    let f = disk.open::<u64>(&Self::leaf_file(id));
                    out.extend(disk.read_all_uncharged(&f));
                }
            }
        }
        out
    }
}

/// In-order sort key of a heap-numbered node: the path from the root,
/// left = 0, right = 1, padded so shorter paths sort between their
/// subtrees. Encodes the path as a binary fraction plus depth tiebreak.
fn in_order_key(id: u64) -> (u128, u32) {
    let depth = 63 - id.leading_zeros();
    let path = id - (1u64 << depth); // bits of the root-to-node path
    // Scale the path to a fixed 64-bit fraction: each left/right choice
    // halves the interval.
    let frac = (path as u128) << (64 - depth as u128);
    // Center of the node's interval: add half of its width.
    let center = frac + (1u128 << (63 - depth as u128));
    (center, depth)
}

impl OocProblem for OocSort<'_> {
    type Meta = SortMeta;

    fn cost(&self, meta: &SortMeta) -> f64 {
        let n = meta.count.max(1) as f64;
        n * n.log2().max(1.0)
    }

    fn is_small(&self, meta: &SortMeta) -> bool {
        meta.count <= self.small_threshold
    }

    fn process(&self, proc: &mut Proc, tasks: &[Task<SortMeta>]) -> Vec<Outcome<SortMeta>> {
        let world = pdc_cgm::Group::world(proc.nprocs());
        tasks
            .iter()
            .map(|task| {
                // Under pure data/concatenated parallelism the driver never
                // routes small tasks to the task-parallel path, so handle
                // them here: ship the task to a deterministic owner and sort
                // it there. This is what makes plain data parallelism pay
                // one redistribution + solve per tiny node — the overhead
                // the mixed strategy's delaying avoids.
                if self.is_small(&task.meta) {
                    let owner = (task.id % proc.nprocs() as u64) as usize;
                    self.redistribute(proc, &[(task.clone(), owner)]);
                    if proc.rank() == owner {
                        self.solve_small_local(proc, task);
                    }
                    return Outcome::Solved;
                }
                self.step(proc, &world, task)
            })
            .collect()
    }

    /// One task at a time: each task's keys move in their own chunked
    /// sequence of all-to-alls.
    fn redistribute(&self, proc: &mut Proc, assignments: &[(Task<SortMeta>, usize)]) {
        for (task, owner) in assignments {
            let src = {
                let mut disk = self.farm.lock(proc.rank());
                if !disk.exists(&Self::dist_file(task.id)) {
                    // The root itself may be small; it always exists.
                    // Children files exist on every rank after a partition
                    // pass.
                    disk.create::<u64>(&Self::dist_file(task.id))
                } else {
                    disk.open::<u64>(&Self::dist_file(task.id))
                }
            };
            let dst = {
                let mut disk = self.farm.lock(proc.rank());
                disk.create::<u64>(&Self::owned_file(task.id))
            };
            redistribute(proc, self.farm, &src, &dst, self.chunk_records, |_| *owner);
            let mut disk = self.farm.lock(proc.rank());
            disk.delete(&Self::dist_file(task.id));
        }
    }

    fn solve_small_local(&self, proc: &mut Proc, task: &Task<SortMeta>) {
        let mut disk = self.farm.lock(proc.rank());
        let f = disk.open::<u64>(&Self::owned_file(task.id));
        let mut keys = disk.read_all(proc, &f);
        proc.charge(
            OpKind::Compare,
            (keys.len() as u64) * (keys.len().max(2) as f64).log2() as u64,
        );
        keys.sort_unstable();
        let leaf = disk.create::<u64>(&Self::leaf_file(task.id));
        disk.append(proc, &leaf, &keys);
        disk.delete(&Self::owned_file(task.id));
    }

    fn process_group(
        &self,
        proc: &mut Proc,
        group: &pdc_cgm::Group,
        task: &Task<SortMeta>,
    ) -> Outcome<SortMeta> {
        self.step(proc, group, task)
    }

    /// Compute-dependent parallel I/O at a task-parallel split: every
    /// parent-group member streams its local left/right files, dealing the
    /// records round-robin onto the corresponding subgroup's disks with one
    /// personalized all-to-all per chunk round.
    fn redistribute_split(
        &self,
        proc: &mut Proc,
        parent: &pdc_cgm::Group,
        left: &Task<SortMeta>,
        left_group: &pdc_cgm::Group,
        right: &Task<SortMeta>,
        right_group: &pdc_cgm::Group,
    ) {
        let chunk = self.chunk_records;
        let me_local = parent.local(proc.rank()).expect("not in parent group");
        let names = [Self::dist_file(left.id), Self::dist_file(right.id)];
        let tmps = [
            format!("sort-tmp{}", left.id),
            format!("sort-tmp{}", right.id),
        ];
        // Rounds: global maximum of each member's total chunks.
        let local_chunks = {
            let disk = self.farm.lock(proc.rank());
            let mut total = 0usize;
            for name in &names {
                let f = disk.open::<u64>(name);
                total += disk.num_records(&f).div_ceil(chunk);
            }
            total.max(1)
        };
        let rounds = group_allreduce(proc, parent, local_chunks as u64, u64::max) as usize;
        // Create the tmp destination on subgroup members.
        {
            let mut disk = self.farm.lock(proc.rank());
            if left_group.contains(proc.rank()) {
                disk.create::<u64>(&tmps[0]);
            }
            if right_group.contains(proc.rank()) {
                disk.create::<u64>(&tmps[1]);
            }
        }
        let subgroups = [left_group, right_group];
        let mut side = 0usize;
        let mut cursor = 0usize;
        let mut deal = [me_local, me_local]; // round-robin counters per side
        for _ in 0..rounds {
            let mut parts: Vec<Vec<(u8, u64)>> = vec![Vec::new(); parent.size()];
            let mut budget = chunk;
            {
                let mut disk = self.farm.lock(proc.rank());
                while budget > 0 && side < 2 {
                    let f = disk.open::<u64>(&names[side]);
                    let remaining = disk.num_records(&f) - cursor;
                    if remaining == 0 {
                        side += 1;
                        cursor = 0;
                        continue;
                    }
                    let take = budget.min(remaining);
                    let keys = disk.read_range(proc, &f, cursor, take);
                    cursor += take;
                    budget -= take;
                    let sg = subgroups[side];
                    for k in keys {
                        let dst_global = sg.global(deal[side] % sg.size());
                        deal[side] += 1;
                        let dst_local =
                            parent.local(dst_global).expect("subgroup within parent");
                        parts[dst_local].push((side as u8, k));
                    }
                }
            }
            let received = proc.scoped(parent, |p| p.all_to_all(parts));
            let mut disk = self.farm.lock(proc.rank());
            let mut buffers: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            for batch in received {
                for (s, k) in batch {
                    buffers[s as usize].push(k);
                }
            }
            for (s, buf) in buffers.iter().enumerate() {
                if !buf.is_empty() {
                    debug_assert!(subgroups[s].contains(proc.rank()));
                    let f = disk.open::<u64>(&tmps[s]);
                    disk.append(proc, &f, buf);
                }
            }
        }
        // Swap the redistributed data in for the old distributed files.
        let mut disk = self.farm.lock(proc.rank());
        for name in &names {
            disk.delete(name);
        }
        if left_group.contains(proc.rank()) {
            disk.rename(&tmps[0], &names[0]);
        }
        if right_group.contains(proc.rank()) {
            disk.rename(&tmps[1], &names[1]);
        }
    }

    /// Sort this processor's whole subtask in memory (group of one).
    fn solve_subtree_local(&self, proc: &mut Proc, task: &Task<SortMeta>) {
        let mut disk = self.farm.lock(proc.rank());
        let f = disk.open::<u64>(&Self::dist_file(task.id));
        let mut keys = disk.read_all(proc, &f);
        proc.charge(
            OpKind::Compare,
            (keys.len() as u64) * (keys.len().max(2) as f64).log2() as u64,
        );
        keys.sort_unstable();
        let leaf = disk.create::<u64>(&Self::leaf_file(task.id));
        disk.append(proc, &leaf, &keys);
        disk.delete(&Self::dist_file(task.id));
    }
}


impl OocSort<'_> {
    /// One divide step over an arbitrary processor group: sample, pick a
    /// pivot, partition the group members' local files. Used both by
    /// data-parallel processing (group = world) and by task parallelism.
    fn step(
        &self,
        proc: &mut Proc,
        group: &pdc_cgm::Group,
        task: &Task<SortMeta>,
    ) -> Outcome<SortMeta> {
        let src_name = Self::dist_file(task.id);
        // --- Pass 1: stream the local partition once, collecting the true
        // local min/max plus an evenly strided sample (no extra seeks).
        let (local_sample, local_min, local_max) = {
            let mut disk = self.farm.lock(proc.rank());
            let f = disk.open::<u64>(&src_name);
            let n = disk.num_records(&f);
            let stride = (n / self.sample_per_proc.max(1)).max(1);
            let mut sample = Vec::new();
            let (mut lo, mut hi) = (u64::MAX, u64::MIN);
            let mut reader = disk.reader(&f, self.chunk_records);
            let mut idx = 0usize;
            while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
                proc.charge(OpKind::Misc, chunk.len() as u64);
                for k in chunk {
                    lo = lo.min(k);
                    hi = hi.max(k);
                    if idx.is_multiple_of(stride) {
                        sample.push(k);
                    }
                    idx += 1;
                }
            }
            (sample, lo, hi)
        };
        let gmin = group_allreduce(proc, group, local_min, u64::min);
        let gmax = group_allreduce(proc, group, local_max, u64::max);
        if gmin >= gmax {
            // Every key is identical (or the task is empty): already sorted.
            self.promote_to_leaf(proc, task.id);
            return Outcome::Solved;
        }
        // All-gather of the samples, one `(member, encoded sample)` entry
        // per member on the wire; the merge below sorts, so arrival order
        // does not matter.
        let me = group.local(proc.rank()).expect("not a member of the group") as u64;
        let entries = vec![(me, local_sample.to_bytes())];
        let mut merged: Vec<u64> = group_allreduce(proc, group, entries, |mut a, mut b| {
            a.append(&mut b);
            a
        })
        .into_iter()
        .flat_map(|(_, bytes)| Vec::<u64>::from_bytes(&bytes).expect("sample decode"))
        .collect();
        proc.charge(
            OpKind::Compare,
            (merged.len() as u64) * (merged.len().max(2) as f64).log2() as u64,
        );
        merged.sort_unstable();
        let mut pivot = merged[merged.len() / 2];
        if pivot >= gmax {
            pivot = gmax - 1; // both sides stay non-empty: min <= pivot < max
        }
        // --- Streaming partition: local I/O only. ---
        let (left_name, right_name) = (Self::dist_file(2 * task.id), Self::dist_file(2 * task.id + 1));
        let (mut nl, mut nr) = (0u64, 0u64);
        {
            let mut disk = self.farm.lock(proc.rank());
            let src = disk.open::<u64>(&src_name);
            let left = disk.create::<u64>(&left_name);
            let right = disk.create::<u64>(&right_name);
            let mut reader = disk.reader(&src, self.chunk_records);
            let mut lbuf = Vec::new();
            let mut rbuf = Vec::new();
            let mut consumed = 0;
            while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
                // Read for the last time: the source's extents go to the sides.
                consumed += chunk.len();
                disk.release_read(&src, consumed);
                proc.charge(OpKind::SplitTest, chunk.len() as u64);
                for k in chunk {
                    if k <= pivot {
                        lbuf.push(k);
                    } else {
                        rbuf.push(k);
                    }
                }
                disk.append(proc, &left, &lbuf);
                disk.append(proc, &right, &rbuf);
                nl += lbuf.len() as u64;
                nr += rbuf.len() as u64;
                lbuf.clear();
                rbuf.clear();
            }
            disk.delete(&src_name);
        }
        let (gl, gr) = (
            group_allreduce(proc, group, nl, |a, b| a + b),
            group_allreduce(proc, group, nr, |a, b| a + b),
        );
        debug_assert!(gl > 0 && gr > 0, "pivot {pivot} failed to partition");
        Outcome::Split(SortMeta { count: gl }, SortMeta { count: gr })
    }
}

impl OocSort<'_> {
    /// A large task whose keys are all equal is already sorted: rename its
    /// distributed file into the leaf file.
    fn promote_to_leaf(&self, proc: &mut Proc, id: u64) {
        let mut disk = self.farm.lock(proc.rank());
        let src = disk.open::<u64>(&Self::dist_file(id));
        let keys = disk.read_all(proc, &src);
        let leaf = disk.create::<u64>(&Self::leaf_file(id));
        disk.append(proc, &leaf, &keys);
        disk.delete(&Self::dist_file(id));
    }
}
