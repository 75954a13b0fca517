//! The disk farm: one [`NodeDisk`] per processor of a shared-nothing
//! machine.
//!
//! Virtual processors run as OS threads, so the farm wraps each disk in a
//! mutex. There is no contention in a correct shared-nothing program — each
//! processor only ever locks its own disk — but the mutex keeps the API safe
//! if a test inspects disks from the outside after a run.
//!
//! Fault injection (see [`pdc_cgm::fault`]) acts on the charging side: a
//! machine with disk faults configured makes [`NodeDisk::read_range`] /
//! [`NodeDisk::try_read_range_into`] retry transient errors and slow down inside
//! degraded-bandwidth windows, charged through the owning processor's
//! virtual clock. The stored bytes themselves are never corrupted — the
//! simulator models *time*, not data loss.

use parking_lot::{Mutex, MutexGuard};

use crate::backend::BackendKind;
use crate::disk::NodeDisk;
use crate::engine::EngineConfig;

/// Per-processor local disks of a `p`-processor machine.
pub struct DiskFarm {
    nodes: Vec<Mutex<NodeDisk>>,
}

impl DiskFarm {
    /// A farm of `p` empty disks.
    pub fn new(p: usize, kind: BackendKind) -> Self {
        DiskFarm {
            nodes: (0..p).map(|r| Mutex::new(NodeDisk::new(r, kind.clone()))).collect(),
        }
    }

    /// In-memory farm (the default for tests and benches).
    pub fn in_memory(p: usize) -> Self {
        Self::new(p, BackendKind::InMemory)
    }

    /// A farm whose disks carry an asynchronous engine per `cfg` (buffer
    /// pool, write-back, prefetch — see [`crate::engine`]). With
    /// [`EngineConfig::disabled`] this is exactly [`DiskFarm::new`].
    pub fn with_engine(p: usize, kind: BackendKind, cfg: &EngineConfig) -> Self {
        DiskFarm {
            nodes: (0..p)
                .map(|r| Mutex::new(NodeDisk::with_engine(r, kind.clone(), cfg)))
                .collect(),
        }
    }

    /// Number of disks.
    pub fn nprocs(&self) -> usize {
        self.nodes.len()
    }

    /// Lock processor `rank`'s local disk.
    pub fn lock(&self, rank: usize) -> MutexGuard<'_, NodeDisk> {
        self.nodes[rank].lock()
    }

    /// Total bytes stored across all disks.
    pub fn used_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.lock().used_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_cgm::Cluster;

    #[test]
    fn each_proc_uses_its_own_disk() {
        let p = 4;
        let farm = DiskFarm::in_memory(p);
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            let mut disk = farm.lock(proc.rank());
            let f = disk.create::<u64>("mine");
            let data: Vec<u64> = (0..10).map(|i| (proc.rank() * 100 + i) as u64).collect();
            disk.append(proc, &f, &data);
            disk.num_records(&f)
        });
        assert!(out.results.iter().all(|&n| n == 10));
        for rank in 0..p {
            let disk = farm.lock(rank);
            assert_eq!(disk.rank(), rank);
            assert_eq!(disk.used_bytes(), 80);
        }
        assert_eq!(farm.used_bytes(), 4 * 80);
    }

    #[test]
    fn transient_read_errors_retry_and_charge_through_the_farm() {
        use pdc_cgm::{FaultPlan, MachineConfig};
        let p = 2;
        let farm = DiskFarm::in_memory(p);
        let mut faults = FaultPlan::with_seed(13);
        faults.disk.read_error_prob = 0.25;
        let cluster = Cluster::with_config(
            p,
            MachineConfig { faults, ..MachineConfig::default() },
        );
        let out = cluster.run(|proc| {
            let mut disk = farm.lock(proc.rank());
            let f = disk.create::<u64>("data");
            let data: Vec<u64> = (0..512).collect();
            disk.append(proc, &f, &data);
            let mut total = 0u64;
            let mut page = crate::RecBuf::new();
            for chunk in 0..32 {
                let recs = disk
                    .try_read_range_into(proc, &f, chunk * 16, 16, &mut page)
                    .expect("bounded retries should recover");
                total += recs.iter().sum::<u64>();
            }
            (total, proc.counters.disk_retries)
        });
        let expected: u64 = (0..512).sum();
        assert!(out.results.iter().all(|&(t, _)| t == expected));
        let retries: u64 = out.results.iter().map(|&(_, r)| r).sum();
        assert!(retries > 0, "25% error rate over 64 reads must retry");
    }
}
