//! Data redistribution: the heart of *compute-dependent parallel I/O*.
//!
//! When a subtask is assigned to a processor (sub)group, its disk-resident
//! data must move there: read at the sources, personalized all-to-all
//! communication, write at the destinations. The paper stresses that this is
//! an expensive operation — here each of the three legs (read, transfer,
//! write) is charged to the participating processors' virtual clocks.

use pdc_cgm::{OpKind, Proc};

use crate::disk::TypedFile;
use crate::farm::DiskFarm;
use crate::rec::{Rec, RecBuf};

/// SPMD chunked redistribution: every processor streams its local `src`
/// file in chunks of `chunk_records`, routes each record with `route`
/// (destination rank), exchanges the buckets with a personalized
/// all-to-all, and appends what it receives to its local `dst` file.
///
/// All processors must call this collectively. The number of communication
/// rounds is the global maximum chunk count, so processors with shorter
/// files participate with empty buckets (bounded memory on every rank).
///
/// Returns the number of records this processor received.
pub fn redistribute<R: Rec, F>(
    proc: &mut Proc,
    farm: &DiskFarm,
    src: &TypedFile<R>,
    dst: &TypedFile<R>,
    chunk_records: usize,
    route: F,
) -> usize
where
    F: Fn(&R) -> usize,
{
    assert!(chunk_records > 0, "chunk_records must be positive");
    let span = proc.span(
        "pario.redistribute",
        &[("chunk_records", chunk_records as i64)],
    );
    let p = proc.nprocs();
    let local_records = farm.lock(proc.rank()).num_records(src);
    let local_rounds = local_records.div_ceil(chunk_records);
    let rounds = proc.allreduce(local_rounds as u64, u64::max) as usize;

    let mut received_total = 0usize;
    let mut cursor = 0usize;
    let mut page = RecBuf::new();
    for _ in 0..rounds {
        // Read the next chunk of the local source file (possibly empty).
        let count = chunk_records.min(local_records - cursor);
        let chunk = farm
            .lock(proc.rank())
            .read_range_into(proc, src, cursor, count, &mut page);
        cursor += count;
        // Route records into per-destination buckets, as bytes.
        let mut buckets: Vec<RecBuf<R>> = (0..p).map(|_| RecBuf::new()).collect();
        proc.charge(OpKind::SplitTest, chunk.len() as u64);
        for (i, r) in chunk.iter().enumerate() {
            let dst_rank = route(&r);
            assert!(dst_rank < p, "route() returned rank {dst_rank} of {p}");
            buckets[dst_rank].push_from(&chunk, i);
        }
        // Exchange and write.
        let incoming = proc.all_to_all(buckets);
        let mut disk = farm.lock(proc.rank());
        for batch in incoming {
            received_total += batch.len();
            disk.append_chunk(proc, dst, batch.view());
        }
    }
    proc.span_end(span);
    received_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_cgm::Cluster;

    /// Redistribute by value modulo p and verify every record lands on the
    /// right disk with nothing lost.
    #[test]
    fn modulo_routing_conserves_and_places_records() {
        let p = 4;
        let farm = DiskFarm::in_memory(p);
        let cluster = Cluster::new(p);
        let per_proc = 53; // deliberately not a multiple of the chunk size
        let out = cluster.run(|proc| {
            let (src, dst) = {
                let mut disk = farm.lock(proc.rank());
                let src = disk.create::<u64>("src");
                let dst = disk.create::<u64>("dst");
                let data: Vec<u64> = (0..per_proc)
                    .map(|i| (proc.rank() * 1000 + i) as u64)
                    .collect();
                disk.append(proc, &src, &data);
                (src, dst)
            };
            let got = redistribute(proc, &farm, &src, &dst, 10, |r| (*r % 4) as usize);
            let mut disk = farm.lock(proc.rank());
            let all = disk.read_all(proc, &dst);
            assert_eq!(all.len(), got);
            all
        });
        let mut total = 0;
        for (rank, records) in out.results.iter().enumerate() {
            total += records.len();
            for r in records {
                assert_eq!((*r % 4) as usize, rank, "record {r} misplaced");
            }
        }
        assert_eq!(total, p * per_proc, "records lost or duplicated");
    }

    /// Skewed sources: one processor holds everything; rounds are still
    /// globally agreed so no deadlock, and data spreads correctly.
    #[test]
    fn skewed_source_single_owner() {
        let p = 3;
        let farm = DiskFarm::in_memory(p);
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            let (src, dst) = {
                let mut disk = farm.lock(proc.rank());
                let src = disk.create::<u64>("src");
                let dst = disk.create::<u64>("dst");
                if proc.rank() == 0 {
                    let data: Vec<u64> = (0..90).collect();
                    disk.append(proc, &src, &data);
                }
                (src, dst)
            };
            redistribute(proc, &farm, &src, &dst, 7, |r| (*r % 3) as usize)
        });
        assert_eq!(out.results, vec![30, 30, 30]);
    }

    /// Empty inputs on every rank complete immediately.
    #[test]
    fn empty_redistribution() {
        let p = 2;
        let farm = DiskFarm::in_memory(p);
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            let (src, dst) = {
                let mut disk = farm.lock(proc.rank());
                (disk.create::<u64>("src"), disk.create::<u64>("dst"))
            };
            redistribute(proc, &farm, &src, &dst, 8, |_| 0)
        });
        assert_eq!(out.results, vec![0, 0]);
    }

    /// All records to a single destination (the paper's small-node
    /// assignment pattern).
    #[test]
    fn all_to_one_destination() {
        let p = 4;
        let farm = DiskFarm::in_memory(p);
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            let (src, dst) = {
                let mut disk = farm.lock(proc.rank());
                let src = disk.create::<u64>("src");
                let dst = disk.create::<u64>("dst");
                let data: Vec<u64> = vec![proc.rank() as u64; 20];
                disk.append(proc, &src, &data);
                (src, dst)
            };
            redistribute(proc, &farm, &src, &dst, 6, |_| 2)
        });
        assert_eq!(out.results, vec![0, 0, 80, 0]);
    }
}
