//! The host holds the training data once. A load holds the data it stores
//! and the sample beside it, and little more: a file's first extent is no
//! larger than what the file holds. A partition pass consumes the node file
//! it reads while it writes the children, so on a RAM farm the live heap
//! during `train` exceeds the heap before it by well under the data size (a
//! node file beside both children in full would be 1×).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

use pdc_cgm::Cluster;
use pdc_clouds::CloudsParams;
use pdc_datagen::{ClassifyFn, GeneratorConfig, Record, RecordStream};
use pdc_dnc::Strategy;
use pdc_pario::{DiskFarm, Rec, EXTENT_BYTES};
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

/// The counters see every thread of the process: one test measures at a time.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn a_load_at_p64_holds_the_data_and_the_sample() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // A wide machine's root files are a few extents' worth or less each:
    // 1 407 or 1 406 records, appended in chunks of 512.
    let (p, n, sample) = (64, 90_000, 4_500);
    let farm = DiskFarm::in_memory(p);
    let generator = GeneratorConfig { function: ClassifyFn::F6, ..GeneratorConfig::default() };
    let records = RecordStream::new(generator).take(n);
    let before = LIVE.load(Relaxed);
    let root = load_dataset_stream(&farm, records, sample, 1);
    let held = LIVE.load(Relaxed) - before;
    let data = farm.used_bytes() as usize;
    assert_eq!((data, root.sample.len()), (n * Record::ENCODED_BYTES, sample));
    // Per disk, its namespace entry and extent list: well below a kB.
    let allowance = p * 1024;
    let bound = data + sample * std::mem::size_of::<Record>() + allowance;
    assert!(held <= bound, "a load holds {held} bytes for {data} bytes of data ({bound} allowed)");
}

#[test]
fn train_on_a_ram_farm_holds_the_data_once() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
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
