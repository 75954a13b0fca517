//! Per-rank asynchronous disk engine: the layer between [`crate::NodeDisk`]
//! and the raw [`crate::backend::Store`].
//!
//! The engine owns a [`crate::cache::BufferPool`] and drives the rank's
//! **I/O device timeline** (see [`pdc_cgm::Proc::io_device_submit`]):
//!
//! * a **read** walks the request's pages — hits cost nothing, runs of
//!   missing pages become one device request each (demand reads wait for
//!   completion, charging only the exposed stall);
//! * an **append** marks pages dirty in the pool (write-back: the device is
//!   charged when dirty pages are evicted or synced, coalesced into
//!   contiguous runs);
//! * a **prefetch** submits reads for missing pages without waiting —
//!   compute-independent I/O in the paper's taxonomy — and parks the pages
//!   *in flight*; a later consumer waits only for the unfinished remainder.
//!   Two callers hint: the `dnc` scheduler names the files of task *k+1*
//!   when it starts task *k* (`OocProblem::prefetch_task`), and
//!   [`crate::ChunkedReader`] asks for the next chunk after reading each
//!   one, so a streaming scan hides one chunk of device time behind each
//!   chunk of compute. The engine decides whether to speculate: a request
//!   is issued whole only when all of its pages fit in half the frames the
//!   running task's dirty pages leave clean, and is dropped otherwise (see
//!   [`IoEngine::prefetch`]).
//!
//! The engine is timing metadata only: bytes always live in the backend, so
//! enabling it can never change computed results, and
//! [`EngineConfig::disabled`] detaches it entirely, leaving the legacy
//! synchronous path bit-identical.
//!
//! Unlike the synchronous path's whole-file heuristic
//! ([`pdc_cgm::DiskParams::transfer_cost_ws`]), the engine models residency
//! *explicitly*: misses are charged at cold cost and hits are free, with the
//! bounded budget deciding which is which.

use std::collections::HashMap;

use pdc_cgm::{FaultError, IoTicket, Proc};

use crate::cache::{BufferPool, PageKey, PageState};

/// Evicted dirty pages are written back in coalesced runs once this many
/// have queued up (or at sync, whichever comes first).
const WRITE_BACK_BATCH_PAGES: usize = 16;

/// Configuration of one rank's asynchronous disk engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Buffer-pool page size in bytes.
    pub page_bytes: usize,
    /// Buffer-pool byte budget. A budget smaller than one page disables the
    /// engine entirely (see [`EngineConfig::is_enabled`]).
    pub budget_bytes: usize,
}

impl EngineConfig {
    /// Engine off: no cache, no prefetch, synchronous charging — the exact
    /// legacy path (bit-identical virtual times; regression-tested).
    pub fn disabled() -> Self {
        EngineConfig::new(0)
    }

    /// Engine on with `budget_bytes` of LRU pool in 64 KiB pages.
    pub fn new(budget_bytes: usize) -> Self {
        EngineConfig {
            page_bytes: 64 * 1024,
            budget_bytes,
        }
    }

    /// Whether this configuration attaches an engine at all (the pool must
    /// hold at least one page).
    pub fn is_enabled(&self) -> bool {
        self.page_bytes > 0 && self.budget_bytes >= self.page_bytes
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::disabled()
    }
}

/// One rank's asynchronous disk engine (see the module docs).
pub struct IoEngine {
    page_bytes: u64,
    pool: BufferPool,
    /// Evicted dirty pages queued for coalesced write-back.
    pending: Vec<PageKey>,
    /// Logical byte length per file id (for clamping the last page).
    file_bytes: HashMap<u64, u64>,
}

impl IoEngine {
    /// Build an engine from an enabled configuration. Panics when
    /// `cfg.is_enabled()` is false — callers gate on it.
    pub fn new(cfg: &EngineConfig) -> Self {
        assert!(cfg.is_enabled(), "IoEngine::new on a disabled config");
        IoEngine {
            page_bytes: cfg.page_bytes as u64,
            pool: BufferPool::new(cfg.budget_bytes / cfg.page_bytes),
            pending: Vec::new(),
            file_bytes: HashMap::new(),
        }
    }

    /// The buffer pool, read-only (what is resident, dirty or in flight).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Record `file`'s current logical length (create/append/load).
    pub fn note_file_len(&mut self, file: u64, len: u64) {
        self.file_bytes.insert(file, len);
    }

    /// Sample the pool and write-back state as gauges (see
    /// [`pdc_cgm::gauge`]). Pure observation; free when gauges are off.
    fn sample_pool(&self, proc: &mut Proc) {
        if !proc.gauges_enabled() {
            return;
        }
        proc.gauge("pario.pool.pages", self.pool.len() as f64);
        proc.gauge("pario.pool.dirty", self.pool.dirty_pages() as f64);
        proc.gauge("pario.pool.pinned", self.pool.pinned_pages() as f64);
        proc.gauge("pario.engine.pending", self.pending.len() as f64);
    }

    /// The file was deleted or truncated: drop its pages (dirty pages of a
    /// deleted scratch file never pay write-back — deliberately, a real
    /// write-back cache absorbs short-lived temporaries the same way) and
    /// purge its queued write-backs.
    pub fn invalidate_file(&mut self, file: u64) {
        self.pool.invalidate_file(file);
        self.pending.retain(|k| k.0 != file);
        self.file_bytes.remove(&file);
    }

    fn file_len(&self, file: u64) -> u64 {
        self.file_bytes.get(&file).copied().unwrap_or(0)
    }

    /// Byte size of pages `[p0, p1]` of `file`, the last page clamped to the
    /// file's logical length.
    fn run_bytes(&self, file: u64, p0: u64, p1: u64) -> usize {
        let start = p0 * self.page_bytes;
        let end = ((p1 + 1) * self.page_bytes).min(self.file_len(file).max(start));
        (end - start) as usize
    }

    /// Charge the timing of reading `[offset, offset + len)` of `file`.
    /// Resident pages are free; in-flight pages wait out their remaining
    /// device time; runs of missing pages become one demand device request
    /// each. The caller performs the actual byte transfer from the backend.
    pub fn read(
        &mut self,
        proc: &mut Proc,
        file: u64,
        offset: u64,
        len: usize,
    ) -> Result<(), FaultError> {
        if len == 0 {
            return Ok(());
        }
        let p0 = offset / self.page_bytes;
        let p1 = (offset + len as u64 - 1) / self.page_bytes;
        let mut pinned: Vec<PageKey> = Vec::new();
        let mut run_start: Option<u64> = None;
        let mut result = Ok(());
        for p in p0..=p1 {
            let key = (file, p);
            match self.pool.state(key) {
                Some(PageState::Resident) => {
                    if let Some(rs) = run_start.take() {
                        if let Err(e) = self.fetch_run(proc, file, rs, p - 1, &mut pinned) {
                            result = Err(e);
                            break;
                        }
                    }
                    proc.counters.cache_hits += 1;
                    self.pool.touch(key);
                    self.pool.set_pinned(key, true);
                    pinned.push(key);
                }
                Some(PageState::InFlight(_)) => {
                    if let Some(rs) = run_start.take() {
                        if let Err(e) = self.fetch_run(proc, file, rs, p - 1, &mut pinned) {
                            result = Err(e);
                            break;
                        }
                    }
                    let ticket = self.pool.take_ticket(key).expect("in-flight page");
                    proc.io_device_wait(ticket);
                    // A prefetched page still counts as a hit: the consumer
                    // paid (at most) the stall, not a full device request.
                    proc.counters.cache_hits += 1;
                    self.pool.touch(key);
                    self.pool.set_pinned(key, true);
                    pinned.push(key);
                }
                None => {
                    run_start.get_or_insert(p);
                }
            }
        }
        if result.is_ok() {
            if let Some(rs) = run_start.take() {
                result = self.fetch_run(proc, file, rs, p1, &mut pinned);
            }
        }
        // Sample before unpinning so the pinned high-water mark of this
        // request is observable.
        self.sample_pool(proc);
        for key in pinned {
            self.pool.set_pinned(key, false);
        }
        self.maybe_flush(proc);
        result
    }

    /// Demand-fetch pages `[p0, p1]` of `file` as one device request and
    /// wait for it (the consumer needs the data now).
    fn fetch_run(
        &mut self,
        proc: &mut Proc,
        file: u64,
        p0: u64,
        p1: u64,
        pinned: &mut Vec<PageKey>,
    ) -> Result<(), FaultError> {
        let bytes = self.run_bytes(file, p0, p1);
        let ticket = proc.try_io_device_submit(bytes, true)?;
        proc.io_device_wait(ticket);
        for p in p0..=p1 {
            let key = (file, p);
            proc.counters.cache_misses += 1;
            self.insert(proc, key, PageState::Resident, false);
            self.pool.set_pinned(key, true);
            pinned.push(key);
        }
        Ok(())
    }

    /// Pool insert with eviction bookkeeping (dirty victims queue for
    /// write-back; every victim counts as an eviction).
    fn insert(&mut self, proc: &mut Proc, key: PageKey, state: PageState, dirty: bool) {
        if let Some(ev) = self.pool.insert(key, state, dirty) {
            proc.counters.cache_evictions += 1;
            if ev.dirty {
                self.pending.push(ev.key);
            }
        }
    }

    /// Record an append of `len` bytes at `offset` of `file`: the touched
    /// pages go dirty in the pool (write-back — the device is charged when
    /// they are evicted or synced), and the file's length advances.
    pub fn append(&mut self, proc: &mut Proc, file: u64, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let new_len = offset + len as u64;
        self.file_bytes.insert(file, new_len);
        let p0 = offset / self.page_bytes;
        let p1 = (new_len - 1) / self.page_bytes;
        for p in p0..=p1 {
            let key = (file, p);
            if self.pool.state(key).is_some() {
                self.pool.touch(key);
                self.pool.mark_dirty(key);
            } else {
                self.insert(proc, key, PageState::Resident, true);
            }
        }
        self.sample_pool(proc);
        self.maybe_flush(proc);
    }

    /// Speculatively read `[offset, offset + len)` of `file` onto the device
    /// timeline without waiting (compute-independent I/O). Missing pages are
    /// parked in flight; a later consumer waits only for the remainder.
    ///
    /// Speculating activates the next task early, so it must fit beside the
    /// running one (the memory-bounded activation rule): the request is
    /// issued whole only when all of its pages fit in half the pool's clean
    /// frames (`budget − dirty`), and otherwise not at all. The dirty pages
    /// are the running task's output, and speculation never evicts them
    /// (see [`BufferPool::insert`]). Submission faults are swallowed — the
    /// demand read will retry with fresh fault-stream draws.
    pub fn prefetch(&mut self, proc: &mut Proc, file: u64, offset: u64, len: usize) {
        let flen = self.file_len(file);
        if len == 0 || offset >= flen {
            return;
        }
        let len = (len as u64).min(flen - offset);
        let p0 = offset / self.page_bytes;
        let p1 = (offset + len - 1) / self.page_bytes;
        let clean = self.pool.budget_pages().saturating_sub(self.pool.dirty_pages());
        if p1 - p0 + 1 > (clean / 2) as u64 {
            return;
        }
        let mut run_start: Option<u64> = None;
        for p in p0..=p1 {
            if self.pool.state((file, p)).is_none() {
                run_start.get_or_insert(p);
            } else if let Some(rs) = run_start.take() {
                self.prefetch_run(proc, file, rs, p - 1);
            }
        }
        if let Some(rs) = run_start.take() {
            self.prefetch_run(proc, file, rs, p1);
        }
        self.sample_pool(proc);
        self.maybe_flush(proc);
    }

    fn prefetch_run(&mut self, proc: &mut Proc, file: u64, p0: u64, p1: u64) {
        let bytes = self.run_bytes(file, p0, p1);
        let Ok(ticket) = proc.try_io_device_submit(bytes, true) else {
            return; // transiently unreadable: leave the pages for demand
        };
        let npages = p1 - p0 + 1;
        // Each page carries its share of the request's service so overlap
        // accounting stays exact however the waits interleave.
        let share = IoTicket {
            completion: ticket.completion,
            service: ticket.service / npages as f64,
            req: ticket.req,
        };
        if proc.gauges_enabled() {
            // The prefetched pages are in flight from submission until the
            // request completes on the device timeline.
            proc.gauge_delta("pario.prefetch.inflight", proc.clock(), npages as f64);
            proc.gauge_delta("pario.prefetch.inflight", ticket.completion, -(npages as f64));
        }
        for p in p0..=p1 {
            proc.counters.prefetches += 1;
            self.insert(proc, (file, p), PageState::InFlight(share), false);
        }
    }

    fn maybe_flush(&mut self, proc: &mut Proc) {
        if self.pending.len() >= WRITE_BACK_BATCH_PAGES {
            self.flush_pending(proc);
        }
    }

    /// Submit queued dirty write-backs as coalesced asynchronous device
    /// writes (one request per contiguous page run), without waiting.
    fn flush_pending(&mut self, proc: &mut Proc) {
        if self.pending.is_empty() {
            return;
        }
        let mut keys = std::mem::take(&mut self.pending);
        keys.sort_unstable();
        keys.dedup();
        let mut i = 0;
        while i < keys.len() {
            let (file, p0) = keys[i];
            let mut p1 = p0;
            while i + 1 < keys.len() && keys[i + 1] == (file, p1 + 1) {
                p1 += 1;
                i += 1;
            }
            let bytes = self.run_bytes(file, p0, p1);
            if bytes > 0 {
                proc.io_device_submit(bytes, false);
            }
            i += 1;
        }
    }

    /// Flush every dirty page and wait for the device to drain. Called at
    /// end of run (or any durability point); afterwards the pool holds only
    /// clean resident pages.
    pub fn sync(&mut self, proc: &mut Proc) {
        let dirty = self.pool.drain_dirty();
        self.pending.extend(dirty);
        self.flush_pending(proc);
        proc.io_device_sync();
        self.pool.settle_all();
        self.sample_pool(proc);
    }
}
