//! pCLOUDS as an instance of the generic out-of-core divide-and-conquer
//! framework (Section 5 of the paper).
//!
//! **Large nodes** (data parallelism, all I/O local):
//!
//! 1. *Statistics* — each processor accumulates interval class frequencies
//!    and categorical count matrices over its local partition (one
//!    streaming pass, or for free when the parent's partition pass fused
//!    them in).
//! 2. *Deriving the splitting point* — the **replication method** with the
//!    **attribute-based approach**: all attributes' statistics are
//!    combined to their owning processors in one batched reduce-scatter
//!    (see [`crate::comm`]); owners prefix-sum the frequency vectors and
//!    evaluate gini at the interval boundaries;
//!    an election (one all-gather of every rank's best candidate) yields
//!    `gini_min`; owners determine the **alive intervals** (SSE lower bound)
//!    and replicate them (all-gather); alive intervals are LPT-assigned,
//!    their points shipped with one personalized all-to-all
//!    (**single-assignment approach**), sorted and scanned exactly; a final
//!    election fixes the splitter.
//! 3. *Partitioning* — sample points are split first (giving the child
//!    interval sets), then each processor streams its local partition into
//!    local left/right files while fusing the children's statistics —
//!    no communication, near-perfect balance by Lemma 2.
//!
//! The step is the framework's `process`, over a batch of tasks: a node is
//! a batch of one under data and mixed parallelism, a whole tree level under
//! **concatenated parallelism** (§3.3), which spools the level's exchanges
//! into the same collectives and shares the memory limit among its tasks.
//! Elections and the alive exchange carry one `PerTask` value per task, so
//! a batch of one moves exactly the bytes of a lone node.
//!
//! **Small nodes** (delayed task parallelism) are LPT-assigned to single
//! processors, their data is moved with batched compute-dependent parallel
//! I/O, and each owner builds the subtree in memory with the direct method.
//! The same redistribution moves a task-parallel split's children into
//! their subgroups, where `process` runs inside the subgroup's scope: disks
//! and build state are addressed by the rank the problem was built on,
//! collective ownership by the group-local `proc.rank()`.

use std::collections::HashMap;
use std::sync::Arc;

use pdc_cgm::{Group, OpKind, Proc};
use pdc_clouds::categorical::EXHAUSTIVE_LIMIT;
use pdc_clouds::derive::{NodeAccumulator, NodeStats};
use pdc_clouds::gini::total;
use pdc_clouds::{
    build_tree_with_stats, exact_interval_scan, AliveInterval, AliveRouter, Candidate,
    ClassCounts, CloudsParams, SplitMethod,
};
use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_NUMERIC};
use pdc_dnc::{lpt_assign, Outcome, OocProblem, Task};
use pdc_pario::{DiskFarm, Rec, RecBuf};

use crate::comm::{HistMsg, PerTask};
use crate::config::PcloudsConfig;
use crate::state::SharedBuild;

/// The better of the boundary (SS) candidate and the exact-pass candidate,
/// either of which may be absent.
fn better_of(ss: Option<Candidate>, exact: Option<Candidate>) -> Option<Candidate> {
    match exact {
        Some(exact) => Candidate::better(ss, exact),
        None => ss,
    }
}

/// Task description: the node's global class distribution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeMeta {
    /// Global class counts of the node.
    pub(crate) counts: ClassCounts,
}

impl NodeMeta {
    /// Number of records in the node.
    pub(crate) fn n(&self) -> u64 {
        total(&self.counts)
    }
}

/// The pCLOUDS divide-and-conquer problem.
pub(crate) struct PcloudsProblem<'a> {
    /// Per-processor local disks holding the node files.
    pub(crate) farm: &'a DiskFarm,
    /// Run configuration.
    pub(crate) config: &'a PcloudsConfig,
    /// Per-processor build state (tree replicas, samples, caches).
    pub(crate) build: &'a SharedBuild,
    /// Training-set size (drives the q schedule).
    pub(crate) n_root: u64,
    /// The rank this problem was built on: its disk in `farm` and its state
    /// in `build`. Inside a task group's scope `proc.rank()` is group-local,
    /// so per-processor state is never addressed by it.
    pub(crate) rank: usize,
}

impl PcloudsProblem<'_> {
    /// Name of the distributed data file of node `id`.
    pub(crate) fn node_file(id: u64) -> String {
        format!("node-{id}")
    }

    /// Name of the single-owner file of a small node `id`.
    pub(crate) fn owned_file(id: u64) -> String {
        format!("owned-{id}")
    }

    fn chunk(&self) -> usize {
        self.config.chunk_records(Record::ENCODED_BYTES)
    }

    fn params(&self) -> &CloudsParams {
        &self.config.clouds
    }

    /// One streaming pass accumulating this processor's node statistics,
    /// over the intervals the node's sample gives.
    fn local_stats_pass(&self, proc: &mut Proc, id: u64, q: usize, chunk: usize) -> NodeStats {
        let span = proc.span("pclouds.attr_scan", &[("node", id as i64)]);
        let mut stats = NodeAccumulator::from_sample(&self.build.sample(id), q);
        let mut disk = self.farm.lock(self.rank);
        let f = disk.open::<Record>(&Self::node_file(id));
        let local_bytes = disk.num_records(&f) * Record::ENCODED_BYTES;
        let mut reader = disk.reader(&f, chunk);
        while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
            proc.charge_ws(OpKind::RecordScan, chunk.len() as u64, local_bytes);
            stats.add_records(&chunk);
        }
        proc.span_end(span);
        stats.finish()
    }

    /// Phase 2a, communication: the replication method (attribute-based).
    /// Every attribute's statistics of every node in `stats` travel in
    /// **one** reduce-scatter — destination `a % p` (numeric) /
    /// `(A_num + a) % p` (categorical) gets one block with all its
    /// attributes. Returns this rank's block: its owned attributes in
    /// ascending global order, `stats.len()` consecutive entries per
    /// attribute, in `stats` order.
    fn combine_statistics(&self, proc: &mut Proc, stats: Vec<NodeStats>) -> Vec<HistMsg> {
        let p = proc.nprocs();
        let mut blocks: Vec<Vec<HistMsg>> = vec![Vec::new(); p];
        // Each task's attributes in global order: numeric, then categorical.
        let mut per_task: Vec<_> = stats
            .into_iter()
            .map(|s| {
                let numeric = s.numeric.into_iter().map(HistMsg::Numeric);
                numeric.chain(s.categorical.into_iter().map(HistMsg::Categorical))
            })
            .collect();
        for a in 0..NUM_NUMERIC + NUM_CATEGORICAL {
            for task in &mut per_task {
                blocks[a % p].push(task.next().expect("statistics of every attribute"));
            }
        }
        proc.reduce_scatter_blocks(blocks, HistMsg::merged)
    }

    /// Phase 2a, owner side: evaluate boundary (numeric) or subset
    /// (categorical) ginis of one combined attribute — "completely local to
    /// the processor". Returns the attribute's best candidate and, for a
    /// numeric attribute, its statistics (for alive-interval determination).
    fn evaluate_owned(
        &self,
        proc: &mut Proc,
        msg: HistMsg,
        node_total: &ClassCounts,
    ) -> (Option<Candidate>, Option<pdc_clouds::AttrIntervalStats>) {
        match msg {
            HistMsg::Numeric(attr_stats) => {
                // Prefix sums over the boundary frequency vectors + one
                // gini evaluation per boundary.
                let nb = attr_stats.intervals().boundaries().len() as u64;
                proc.charge(OpKind::HistUpdate, nb * node_total.len() as u64);
                proc.charge(OpKind::GiniEval, nb);
                (attr_stats.best_boundary(node_total), Some(attr_stats))
            }
            HistMsg::Categorical(matrix) => {
                proc.charge(OpKind::GiniEval, matrix.counts().rows() as u64);
                let cand = matrix.best_split(node_total, EXHAUSTIVE_LIMIT);
                (cand, None)
            }
        }
    }

    /// One election for a batch: one all-gather of every rank's best
    /// candidate per task, after which every rank keeps, per task, the
    /// canonically smallest (the paper's min-reduction on local minimum
    /// ginis, made canonical so no winner depends on ranks or batching).
    /// The gathered candidates are read in place; only each task's winner
    /// is cloned.
    fn elect(&self, proc: &mut Proc, local: Vec<Option<Candidate>>) -> Vec<Option<Candidate>> {
        let batch = local.len();
        let gathered = proc.all_gather(PerTask(local));
        (0..batch)
            .map(|j| {
                gathered
                    .iter()
                    .filter_map(|PerTask(per_rank)| per_rank[j].as_ref())
                    .reduce(|best, cand| if cand.beats(best) { cand } else { best })
                    .cloned()
            })
            .collect()
    }

    /// Phase 2c: single-assignment evaluation of alive intervals — the
    /// exact pass of a whole batch. `alive[j]` holds the alive intervals of
    /// task `active[j]`, sorted by `(attr, index)`; the tasks' node files are
    /// streamed in `active` order, `chunk` records per round. Each interval
    /// is LPT-assigned to one processor; the streaming pass routes each alive
    /// point to its interval's owner (one personalized all-to-all per chunk
    /// round); owners sort and scan exactly. Returns this rank's best exact
    /// candidate per task, for the election.
    fn evaluate_alive(
        &self,
        proc: &mut Proc,
        tasks: &[Task<NodeMeta>],
        active: &[usize],
        alive: &[Vec<&AliveInterval>],
        chunk: usize,
    ) -> Vec<Option<Candidate>> {
        let p = proc.nprocs();
        // Every interval of the batch with its task's position in `active`;
        // intervals are addressed by their position here.
        let flat: Vec<(usize, &AliveInterval)> = alive
            .iter()
            .enumerate()
            .flat_map(|(j, run)| run.iter().map(move |&interval| (j, interval)))
            .collect();
        let costs: Vec<f64> = flat
            .iter()
            .map(|(_, a)| {
                let n = a.count.max(2) as f64;
                n * n.log2()
            })
            .collect();
        let owners = lpt_assign(&costs, p);
        let rounds = {
            let disk = self.farm.lock(self.rank);
            let total_chunks: usize = active
                .iter()
                .map(|&i| {
                    let f = disk.open::<Record>(&Self::node_file(tasks[i].id));
                    disk.num_records(&f).div_ceil(chunk)
                })
                .sum();
            proc.allreduce(total_chunks as u64, u64::max)
        };
        // One router per task, with the position where its intervals start.
        let mut base = 0usize;
        let routers: Vec<(usize, AliveRouter)> = alive
            .iter()
            .map(|run| {
                let start = base;
                base += run.len();
                (start, AliveRouter::new(run.iter().copied()))
            })
            .collect();
        // The points this rank owns, by position.
        let mut mine: Vec<Vec<(f64, u8)>> = vec![Vec::new(); flat.len()];
        let mut task_pos = 0usize;
        let mut cursor = 0usize;
        let mut page = RecBuf::new();
        for _ in 0..rounds {
            // Up to `chunk` records from the scanned files, each piece
            // routed through its task's router as it is read. A rank whose
            // files are exhausted reads nothing and pays nothing.
            let mut buckets: Vec<Vec<(u64, f64, u8)>> = vec![Vec::new(); p];
            let mut records = 0usize;
            {
                let mut disk = self.farm.lock(self.rank);
                let mut budget = chunk;
                while budget > 0 && task_pos < active.len() {
                    let f = disk.open::<Record>(&Self::node_file(tasks[active[task_pos]].id));
                    let remaining = disk.num_records(&f) - cursor;
                    if remaining == 0 {
                        task_pos += 1;
                        cursor = 0;
                        continue;
                    }
                    let take = budget.min(remaining);
                    let piece = disk.read_range_into(proc, &f, cursor, take, &mut page);
                    let (base, router) = &routers[task_pos];
                    router.for_each_hit(&piece, |k, v, class| {
                        let k = base + k;
                        buckets[owners[k]].push((k as u64, v, class));
                    });
                    records += piece.len();
                    cursor += take;
                    budget -= take;
                }
            }
            // The modelled machine tests every record against every
            // interval; the host asks the router once per attribute.
            proc.charge(OpKind::SplitTest, (records * flat.len()) as u64);
            for batch in proc.all_to_all(buckets) {
                for (k, v, class) in batch {
                    mine[k as usize].push((v, class));
                }
            }
        }

        // Exact scans of the intervals this processor owns.
        let mut local_best: Vec<Option<Candidate>> = vec![None; active.len()];
        let mut metrics_points = 0u64;
        let mut metrics_intervals = 0usize;
        for (k, &(j, interval)) in flat.iter().enumerate() {
            if owners[k] != proc.rank() {
                continue;
            }
            let points = &mut mine[k];
            metrics_points += points.len() as u64;
            metrics_intervals += 1;
            let n = points.len().max(2) as u64;
            let ws = points.len() * 16;
            proc.charge_ws(OpKind::Compare, n * (n as f64).log2().ceil() as u64, ws);
            proc.charge_ws(OpKind::GiniEval, n, ws);
            let node_total = &tasks[active[j]].meta.counts;
            if let Some(c) = exact_interval_scan(points, interval, node_total) {
                local_best[j] = Candidate::better(local_best[j].take(), c);
            }
        }
        let mut st = self.build.rank(self.rank);
        st.metrics.alive_intervals_evaluated += metrics_intervals;
        st.metrics.alive_points_scanned += metrics_points;
        local_best
    }

    /// Phase 3: partition data and sample points; fuse the children's
    /// statistics into the same pass. Pure local I/O — "this step does not
    /// require any communication, and gives almost perfect load balance".
    #[allow(clippy::too_many_arguments)]
    fn partition(
        &self,
        proc: &mut Proc,
        task: &Task<NodeMeta>,
        cand: &Candidate,
        left_counts: &ClassCounts,
        right_counts: &ClassCounts,
        chunk: usize,
    ) {
        let id = task.id;
        let (lid, rid) = (2 * id, 2 * id + 1);
        let n_left = total(left_counts);
        let n_right = total(right_counts);
        let q_left = self.params().q_for_node(n_left, self.n_root);
        let q_right = self.params().q_for_node(n_right, self.n_root);

        // Fused child statistics only pay off for children that will be
        // processed as large nodes; small children go to the direct method.
        let fuse_left = !self.is_small_n(n_left);
        let fuse_right = !self.is_small_n(n_right);
        // Split the sample first: the children's interval boundaries come
        // from their sample slices, which lets the data pass below fuse the
        // children's statistics. Every modelled processor splits its own
        // replica and is charged for it; the host splits once.
        let (ls, rs) = self.build.split_sample(id, &cand.splitter, proc.nprocs());
        proc.charge(OpKind::SplitTest, (ls.len() + rs.len()) as u64);
        let mut stats_left = fuse_left.then(|| NodeAccumulator::from_sample(&ls, q_left));
        let mut stats_right = fuse_right.then(|| NodeAccumulator::from_sample(&rs, q_right));

        {
            let mut disk = self.farm.lock(self.rank);
            let src = disk.open::<Record>(&Self::node_file(id));
            let left = disk.create::<Record>(&Self::node_file(lid));
            let right = disk.create::<Record>(&Self::node_file(rid));
            let local_bytes = disk.num_records(&src) * Record::ENCODED_BYTES;
            let mut reader = disk.reader(&src, chunk);
            let (mut lbuf, mut rbuf) = (RecBuf::new(), RecBuf::new());
            let mut consumed = 0;
            while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
                // The node is read for the last time: its extents become
                // the children's as they grow.
                consumed += chunk.len();
                disk.release_read(&src, consumed);
                proc.charge_ws(OpKind::SplitTest, chunk.len() as u64, local_bytes);
                // Route first — whole records, as bytes — and accumulate per
                // side afterwards: each child's statistics see one
                // contiguous batch (attribute-major).
                for i in 0..chunk.len() {
                    if cand.splitter.goes_left_at(&chunk, i) {
                        lbuf.push_from(&chunk, i);
                    } else {
                        rbuf.push_from(&chunk, i);
                    }
                }
                if let Some(stats) = stats_left.as_mut() {
                    stats.add_records(&lbuf.view());
                }
                if let Some(stats) = stats_right.as_mut() {
                    stats.add_records(&rbuf.view());
                }
                // The fused statistics update is the cost the separate pass
                // would have paid.
                let fused = lbuf.len() as u64 * u64::from(fuse_left)
                    + rbuf.len() as u64 * u64::from(fuse_right);
                proc.charge_ws(OpKind::RecordScan, fused, local_bytes);
                disk.append_chunk(proc, &left, lbuf.view());
                disk.append_chunk(proc, &right, rbuf.view());
                lbuf.clear();
                rbuf.clear();
            }
            disk.delete(&Self::node_file(id));
        }

        // Update the skeleton (its one copy stands for the group's replicas)
        // and the statistics cache.
        if proc.rank() == 0 {
            let (l, r) = (left_counts.clone(), right_counts.clone());
            self.build.split_node(id, cand.splitter.clone(), l, r);
        }
        let mut st = self.build.rank(self.rank);
        if let Some(stats) = stats_left {
            st.stats_cache.insert(lid, stats.finish());
        }
        if let Some(stats) = stats_right {
            st.stats_cache.insert(rid, stats.finish());
        }
    }

    /// Node `id` is a leaf on this processor: drop its data file, the
    /// statistics its parent's partition fused for it, and this processor's
    /// hold on its sample.
    fn retire(&self, id: u64) {
        self.farm.lock(self.rank).delete(&Self::node_file(id));
        self.build.rank(self.rank).stats_cache.remove(&id);
        self.build.release_sample(id);
    }

    fn is_small_n(&self, n: u64) -> bool {
        self.params().q_for_node(n, self.n_root) <= self.config.switch_threshold_intervals
    }

    /// Phase 3: partition on the elected candidate, or conclude the node is
    /// a leaf.
    fn conclude(
        &self,
        proc: &mut Proc,
        task: &Task<NodeMeta>,
        best: Option<Candidate>,
        chunk: usize,
    ) -> Outcome<NodeMeta> {
        let id = task.id;
        let node_total = &task.meta.counts;
        let Some(cand) = best else {
            self.retire(id);
            return Outcome::Solved;
        };
        let left_counts = cand.left_counts.clone();
        let right_counts = pdc_clouds::gini::sub(node_total, &left_counts);
        if total(&left_counts) == 0 || total(&right_counts) == 0 {
            self.retire(id);
            return Outcome::Solved;
        }
        self.partition(proc, task, &cand, &left_counts, &right_counts, chunk);
        Outcome::Split(
            NodeMeta {
                counts: left_counts,
            },
            NodeMeta {
                counts: right_counts,
            },
        )
    }
}

impl OocProblem for PcloudsProblem<'_> {
    type Meta = NodeMeta;

    fn cost(&self, meta: &NodeMeta) -> f64 {
        let n = meta.n().max(2) as f64;
        n * n.log2()
    }

    fn is_small(&self, meta: &NodeMeta) -> bool {
        self.is_small_n(meta.n())
    }

    fn task_bytes(&self, meta: &NodeMeta) -> u64 {
        meta.n() * Record::ENCODED_BYTES as u64
    }

    /// The large-node step — statistics, split derivation, partition — for
    /// a batch of tasks at once: one task under data and mixed parallelism,
    /// a whole tree level under concatenated parallelism. A batch spools its
    /// communication into the collectives one task would issue (one
    /// statistics combine, one election, one alive-interval exchange, one
    /// exact pass and its election), at the price §3.3 calls out: "the
    /// available memory has to be shared by the many tasks that are solved
    /// together", so every streaming pass runs with `memory_limit / batch`.
    fn process(&self, proc: &mut Proc, tasks: &[Task<NodeMeta>]) -> Vec<Outcome<NodeMeta>> {
        let chunk = (self.chunk() / tasks.len()).max(1);
        let mut outcomes = vec![Outcome::Solved; tasks.len()];

        // Tasks that stop become leaves immediately: stopping criteria are
        // evaluated on global counts — identical on every rank, no
        // communication needed.
        let mut active = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            if self.params().should_stop(&task.meta.counts, task.depth) {
                self.retire(task.id);
            } else {
                active.push(i);
            }
        }
        // A phase span names its node when one task is active.
        let attrs = |records: bool| match active[..] {
            [i] if records => {
                vec![("node", tasks[i].id as i64), ("records", tasks[i].meta.n() as i64)]
            }
            [i] => vec![("node", tasks[i].id as i64)],
            _ => vec![("tasks", active.len() as i64)],
        };
        if active.is_empty() {
            return outcomes;
        }
        let totals: Vec<&ClassCounts> = active.iter().map(|&i| &tasks[i].meta.counts).collect();

        // Phase 1: local statistics (fused from the parent when possible).
        let stats_span = proc.span("pclouds.stats", &attrs(true));
        let mut stats: Vec<NodeStats> = Vec::with_capacity(active.len());
        for &i in &active {
            let cached = self.build.rank(self.rank).stats_cache.remove(&tasks[i].id);
            stats.push(cached.unwrap_or_else(|| {
                let q = self.params().q_for_node(tasks[i].meta.n(), self.n_root);
                self.local_stats_pass(proc, tasks[i].id, q, chunk)
            }));
        }
        proc.span_end(stats_span);

        // Phase 2: derive the splitting point (replication method,
        // attribute-based). This rank's block of the one reduce-scatter
        // holds `active.len()` consecutive entries per owned attribute.
        let derive_span = proc.span("pclouds.derive", &attrs(false));
        let mut local = vec![None; active.len()];
        let mut owned = Vec::new();
        for (k, msg) in self.combine_statistics(proc, stats).into_iter().enumerate() {
            let j = k % active.len();
            let (cand, attr_stats) = self.evaluate_owned(proc, msg, totals[j]);
            if let Some(cand) = cand {
                local[j] = Candidate::better(local[j].take(), cand);
            }
            owned.extend(attr_stats.map(|s| (j, s)));
        }
        let ss = self.elect(proc, local);

        // The exact pass runs iff the method is SSE, so under SS a task
        // without a boundary candidate is a leaf. Owners determine the alive
        // intervals and replicate them (one all-gather, grouped by task);
        // every rank reads the one gathered copy in place.
        let gathered = if self.params().method == SplitMethod::SSE {
            let mut local = vec![Vec::new(); active.len()];
            for (j, attr_stats) in &owned {
                let gini_min = ss[*j].as_ref().map_or(f64::INFINITY, |c| c.gini);
                proc.charge(OpKind::GiniEval, attr_stats.intervals().num_intervals() as u64);
                local[*j].extend(attr_stats.alive_intervals(totals[*j], gini_min));
            }
            proc.all_gather(PerTask(local))
        } else {
            Arc::from([])
        };
        let mut alive: Vec<Vec<&AliveInterval>> = vec![Vec::new(); active.len()];
        for PerTask(per_rank) in gathered.iter() {
            for (all, mine) in alive.iter_mut().zip(per_rank) {
                all.extend(mine);
            }
        }
        // Deterministic global order (owners may interleave attributes).
        for run in &mut alive {
            run.sort_by_key(|a| (a.attr, a.index));
        }
        for (j, &i) in active.iter().enumerate() {
            if tasks[i].id == 1 {
                let alive_records: u64 = alive[j].iter().map(|a| a.count).sum();
                let ratio = alive_records as f64 / tasks[i].meta.n().max(1) as f64;
                self.build.rank(self.rank).metrics.root_survival_ratio = ratio;
            }
        }
        let exact = if alive.iter().all(Vec::is_empty) {
            vec![None; active.len()]
        } else {
            let local = self.evaluate_alive(proc, tasks, &active, &alive, chunk);
            self.elect(proc, local)
        };
        proc.span_end(derive_span);

        // Phase 3: conclude every task (partition passes are local).
        let partition_span = proc.span("pclouds.partition", &attrs(false));
        for ((&i, ss), exact) in active.iter().zip(ss).zip(exact) {
            outcomes[i] = self.conclude(proc, &tasks[i], better_of(ss, exact), chunk);
        }
        proc.span_end(partition_span);
        outcomes
    }

    /// Batched compute-dependent parallel I/O: every node's data moves in
    /// one chunked sequence of personalized all-to-alls ("the assigning and
    /// processing of small nodes are delayed ... to reduce the number of
    /// message startups"), dealt round-robin over the node's group. A small
    /// node bound for one member lands in its owned file; any other node's
    /// records replace its node file on the group's members.
    fn redistribute(&self, proc: &mut Proc, assignments: &[(Task<NodeMeta>, Group)]) {
        let span = proc.span(
            "pclouds.small_redistribute",
            &[("tasks", assignments.len() as i64)],
        );
        let p = proc.nprocs();
        let me = proc.rank();
        let chunk = self.chunk();
        let owned = |task: &Task<NodeMeta>, group: &Group| {
            group.size() == 1 && self.is_small(&task.meta)
        };
        let dest: HashMap<u64, String> = assignments
            .iter()
            .map(|(task, group)| match owned(task, group) {
                true => (task.id, Self::owned_file(task.id)),
                false => (task.id, format!("moved-{}", task.id)),
            })
            .collect();
        for (task, group) in assignments {
            // A small node is solved exactly and needs no sample; a member
            // that leaves the node's group is done with it.
            if owned(task, group) || !group.contains(me) {
                self.build.release_sample(task.id);
            }
            // Statistics fused for the local share no longer describe it.
            self.build.rank(self.rank).stats_cache.remove(&task.id);
        }
        // Create the destination files on the groups' members; the total
        // local records across all moved files fixes the round count.
        let local_total: usize = {
            let mut disk = self.farm.lock(self.rank);
            for (task, group) in assignments {
                if group.contains(me) {
                    disk.create::<Record>(&dest[&task.id]);
                }
            }
            assignments
                .iter()
                .map(|(t, _)| {
                    let f = disk.open::<Record>(&Self::node_file(t.id));
                    disk.num_records(&f)
                })
                .sum()
        };
        let rounds = proc.allreduce(local_total.div_ceil(chunk) as u64, u64::max) as usize;
        let mut task_idx = 0usize;
        let mut offset = 0usize;
        // Round-robin deal counters, one per node, staggered by member.
        let mut deal = vec![me; assignments.len()];
        let mut page = RecBuf::new();
        for _ in 0..rounds {
            // Fill up to `chunk` records from the concatenated node files.
            let mut buckets: Vec<Vec<(u64, Record)>> = vec![Vec::new(); p];
            let mut budget = chunk;
            {
                let mut disk = self.farm.lock(self.rank);
                while budget > 0 && task_idx < assignments.len() {
                    let (task, group) = &assignments[task_idx];
                    let f = disk.open::<Record>(&Self::node_file(task.id));
                    let remaining = disk.num_records(&f) - offset;
                    if remaining == 0 {
                        task_idx += 1;
                        offset = 0;
                        continue;
                    }
                    let take = budget.min(remaining);
                    let recs = disk.read_range_into(proc, &f, offset, take, &mut page);
                    offset += take;
                    disk.release_read(&f, offset);
                    budget -= take;
                    let (members, deal) = (group.members(), &mut deal[task_idx]);
                    for r in recs.iter() {
                        buckets[members[*deal % members.len()]].push((task.id, r));
                        *deal += 1;
                    }
                }
            }
            let received = proc.all_to_all(buckets);
            let mut disk = self.farm.lock(self.rank);
            // Group arrivals by task to write few, large requests.
            let mut by_task: HashMap<u64, RecBuf<Record>> = HashMap::new();
            for batch in received {
                for (tid, rec) in batch {
                    by_task.entry(tid).or_default().push(&rec);
                }
            }
            let mut tids: Vec<u64> = by_task.keys().copied().collect();
            tids.sort_unstable();
            for tid in tids {
                let f = disk.open::<Record>(&dest[&tid]);
                disk.append_chunk(proc, &f, by_task[&tid].view());
            }
        }
        // Drop the source files; moved node files take their place.
        {
            let mut disk = self.farm.lock(self.rank);
            for (task, group) in assignments {
                disk.delete(&Self::node_file(task.id));
                if group.contains(me) && !owned(task, group) {
                    disk.rename(&dest[&task.id], &Self::node_file(task.id));
                }
            }
        }
        proc.span_end(span);
    }

    fn solve_small_local(&self, proc: &mut Proc, task: &Task<NodeMeta>) {
        let span = proc.span(
            "pclouds.small_solve",
            &[("task", task.id as i64), ("records", task.meta.n() as i64)],
        );
        let records = {
            let mut disk = self.farm.lock(self.rank);
            let f = disk.open::<Record>(&Self::owned_file(task.id));
            let recs = disk.read_all(proc, &f);
            disk.delete(&Self::owned_file(task.id));
            recs
        };
        // "In the direct method we sort the points along every numeric
        // attribute and compute the gini index at each point. Further,
        // these small nodes are processed in-memory."
        let params = CloudsParams {
            method: SplitMethod::Direct,
            max_depth: self.params().max_depth.saturating_sub(task.depth),
            ..self.params().clone()
        };
        let (subtree, stats) = build_tree_with_stats(&records, &params);
        let n = records.len().max(2) as u64;
        let ws = records.len() * Record::ENCODED_BYTES;
        let attrs = (NUM_NUMERIC + NUM_CATEGORICAL) as u64;
        proc.charge_ws(OpKind::RecordScan, stats.record_visits, ws);
        proc.charge_ws(
            OpKind::Compare,
            stats.record_visits * attrs * (n as f64).log2().ceil() as u64,
            ws,
        );
        proc.span_end(span);
        let mut st = self.build.rank(self.rank);
        st.metrics.small_solved += 1;
        st.local_subtrees.push((task.id, subtree));
    }

    /// Task-queue lookahead from the framework: issue asynchronous prefetch
    /// reads for the next task's data file so the transfer rides under the
    /// current task's compute. Small tasks read their single-owner file;
    /// everything else reads the distributed node file. The engine reads the
    /// file ahead only when all of it fits beside the current task's dirty
    /// pages; free (and silent) when the disk farm has no engine.
    fn prefetch_task(&self, proc: &mut Proc, task: &Task<NodeMeta>) {
        let mut disk = self.farm.lock(self.rank);
        let owned = Self::owned_file(task.id);
        if disk.exists(&owned) {
            disk.prefetch_file_by_name(proc, &owned);
        } else {
            disk.prefetch_file_by_name(proc, &Self::node_file(task.id));
        }
    }

    /// End of the run: flush dirty write-back pages and drain the I/O
    /// device timeline so the tree build's accounting closes exactly.
    fn finish(&self, proc: &mut Proc) {
        let mut disk = self.farm.lock(self.rank);
        disk.sync_engine(proc);
    }
}
