//! The host holds the training data once: a partition pass consumes the
//! node file it reads while it writes the children, so on a RAM farm the
//! live heap during `train` exceeds the heap before it by well under the
//! data size (a node file beside both children in full would be 1×).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use pdc_cgm::Cluster;
use pdc_clouds::CloudsParams;
use pdc_datagen::{ClassifyFn, GeneratorConfig, RecordStream};
use pdc_dnc::Strategy;
use pdc_pario::{DiskFarm, EXTENT_BYTES};
use pdc_pclouds::{load_dataset_stream, train, PcloudsConfig};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
}

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returned; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn train_on_a_ram_farm_holds_the_data_once() {
    let (p, n) = (4, 360_000);
    let farm = DiskFarm::in_memory(p);
    let mut config = PcloudsConfig::paper_scaled(n as u64);
    // Three levels of partition passes: a debug build trains in seconds.
    config.clouds = CloudsParams { q_root: 200, sample_size: 2_000, max_depth: 3, ..CloudsParams::default() };
    let generator = GeneratorConfig { function: ClassifyFn::F6, ..GeneratorConfig::default() };
    let records = RecordStream::new(generator).take(n);
    let root = load_dataset_stream(&farm, records, config.clouds.sample_size, config.clouds.sample_seed);
    let data = farm.used_bytes() as usize;
    assert!(data >= p * 8 * EXTENT_BYTES, "{data} bytes: fewer than 8 extents per rank");
    let cluster = Cluster::new(p);

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = train(&cluster, &farm, &root, &config, Strategy::Mixed);
    let extra = PEAK.load(Relaxed) - before;
    assert_eq!(out.tree.depth(), 3, "every level partitioned");
    assert!(
        2 * extra <= data,
        "peak live heap during train: {extra} bytes over the {before} before it, for {data} bytes of data ({:.2}×)",
        extra as f64 / data as f64
    );
}
