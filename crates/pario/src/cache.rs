//! Page-granular LRU buffer pool with a bounded byte budget.
//!
//! The pool is **timing metadata only**: the simulated machine's data always
//! lives in the [`crate::backend::Store`], so a page here records whether a
//! byte range would have been resident in a real node's buffer cache — a hit
//! costs nothing on the device timeline, a miss is charged by the
//! [`crate::engine::IoEngine`]. Pages are keyed by `(file id, page index)`;
//! file ids survive renames and are never reused, so stale pages cannot
//! alias a recreated file.
//!
//! Replacement is least-recently-used. Every access the out-of-core passes
//! make is a forward scan or an append, so what has to be bounded is how
//! much is resident, not which victim goes first (measured against CLOCK
//! and MRU in EXPERIMENTS.md, "One replacement policy").

use pdc_cgm::IoTicket;
use std::collections::HashMap;

/// Key of one cached page: `(file id, page index within the file)`.
pub type PageKey = (u64, u64);

/// Whether a page's device request has completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PageState {
    /// The page is (logically) in memory.
    Resident,
    /// A device read for the page is in flight; the ticket carries its
    /// completion time and this page's share of the request's service.
    InFlight(IoTicket),
}

struct Page {
    key: PageKey,
    state: PageState,
    dirty: bool,
    pinned: bool,
    last_used: u64,
}

/// A page evicted by [`BufferPool::insert`]; dirty pages must be written
/// back by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Key of the evicted page.
    pub key: PageKey,
    /// Whether it held not-yet-written-back data.
    pub dirty: bool,
}

/// Bounded pool of page frames, least-recently-used page out first. All
/// operations are deterministic: victims are selected by slab scans, never
/// by hash-map iteration order.
pub struct BufferPool {
    budget_pages: usize,
    slots: Vec<Option<Page>>,
    free: Vec<usize>,
    map: HashMap<PageKey, usize>,
    tick: u64,
}

impl BufferPool {
    /// Pool holding at most `budget_pages` pages.
    pub fn new(budget_pages: usize) -> Self {
        BufferPool {
            budget_pages,
            slots: Vec::new(),
            free: Vec::new(),
            map: HashMap::new(),
            tick: 0,
        }
    }

    /// Number of pages currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the pool holds no pages.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum pages the pool may hold.
    pub fn budget_pages(&self) -> usize {
        self.budget_pages
    }

    /// Number of dirty (not-yet-written-back) pages currently held.
    pub fn dirty_pages(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|p| p.dirty))
            .count()
    }

    /// Number of pinned (eviction-exempt) pages currently held.
    pub fn pinned_pages(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|p| p.pinned))
            .count()
    }

    /// State of the page under `key`, if cached.
    pub fn state(&self, key: PageKey) -> Option<PageState> {
        self.map
            .get(&key)
            .map(|&i| self.slots[i].as_ref().expect("mapped slot").state)
    }

    fn page_mut(&mut self, key: PageKey) -> Option<&mut Page> {
        let i = *self.map.get(&key)?;
        self.slots[i].as_mut()
    }

    /// Record a use of the page (updates the recency stamp). No-op when the
    /// page is not cached.
    pub fn touch(&mut self, key: PageKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(p) = self.page_mut(key) {
            p.last_used = tick;
        }
    }

    /// Pin (`true`) or unpin (`false`) a page: pinned pages are never chosen
    /// as replacement victims. No-op when the page is not cached.
    pub fn set_pinned(&mut self, key: PageKey, pinned: bool) {
        if let Some(p) = self.page_mut(key) {
            p.pinned = pinned;
        }
    }

    /// Mark a cached page dirty (it holds data not yet written back).
    pub fn mark_dirty(&mut self, key: PageKey) {
        if let Some(p) = self.page_mut(key) {
            p.dirty = true;
        }
    }

    /// If the page's read is in flight, return its ticket and mark the page
    /// resident (the caller is about to wait on it).
    pub fn take_ticket(&mut self, key: PageKey) -> Option<IoTicket> {
        let p = self.page_mut(key)?;
        match p.state {
            PageState::InFlight(t) => {
                p.state = PageState::Resident;
                Some(t)
            }
            PageState::Resident => None,
        }
    }

    /// Insert a page, evicting at most one victim when at budget. Returns
    /// the victim (the caller must write back dirty ones). A page inserted
    /// in flight is speculative and evicts only a clean page. If no frame
    /// can be evicted (pinned, in flight, or dirty for a speculative insert)
    /// the pool goes over budget instead of corrupting an unevictable page.
    /// Inserting an already-cached key updates its state in place (no
    /// eviction).
    pub fn insert(&mut self, key: PageKey, state: PageState, dirty: bool) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(p) = self.page_mut(key) {
            p.state = state;
            p.dirty |= dirty;
            p.last_used = tick;
            return None;
        }
        if self.budget_pages == 0 {
            return None; // a zero-budget pool caches nothing
        }
        let evicted = if self.map.len() >= self.budget_pages {
            self.evict_one(matches!(state, PageState::InFlight(_)))
        } else {
            None
        };
        let page = Page {
            key,
            state,
            dirty,
            pinned: false,
            last_used: tick,
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(page);
                i
            }
            None => {
                self.slots.push(Some(page));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        evicted
    }

    /// Whether slot `i` holds an evictable page (resident, unpinned, and
    /// clean when `spare_dirty`).
    fn evictable(&self, i: usize, spare_dirty: bool) -> bool {
        matches!(
            &self.slots[i],
            Some(p) if !(p.pinned || spare_dirty && p.dirty) && matches!(p.state, PageState::Resident)
        )
    }

    fn evict_slot(&mut self, i: usize) -> Evicted {
        let p = self.slots[i].take().expect("evicting empty slot");
        self.map.remove(&p.key);
        self.free.push(i);
        Evicted { key: p.key, dirty: p.dirty }
    }

    /// Evict the least-recently-used evictable page, if any.
    fn evict_one(&mut self, spare_dirty: bool) -> Option<Evicted> {
        let victim = (0..self.slots.len())
            .filter(|&i| self.evictable(i, spare_dirty))
            .min_by_key(|&i| self.slots[i].as_ref().unwrap().last_used)?;
        Some(self.evict_slot(victim))
    }

    /// Drop every page of `file` (deleted or truncated: its dirty pages no
    /// longer need write-back). Returns how many pages were dropped.
    pub fn invalidate_file(&mut self, file: u64) -> usize {
        let mut dropped = 0;
        for i in 0..self.slots.len() {
            if matches!(&self.slots[i], Some(p) if p.key.0 == file) {
                self.evict_slot(i);
                dropped += 1;
            }
        }
        dropped
    }

    /// Clear the dirty flag on every resident page, returning their keys
    /// sorted (deterministic flush order for write-back).
    pub fn drain_dirty(&mut self) -> Vec<PageKey> {
        let mut keys = Vec::new();
        for slot in self.slots.iter_mut().flatten() {
            if slot.dirty {
                slot.dirty = false;
                keys.push(slot.key);
            }
        }
        keys.sort_unstable();
        keys
    }

    /// Mark every in-flight page resident (used after a device sync: the
    /// device is idle, so every outstanding request has completed).
    pub fn settle_all(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.state = PageState::Resident;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(f: u64, p: u64) -> PageKey {
        (f, p)
    }

    #[test]
    fn lru_evicts_the_coldest_page() {
        let mut pool = BufferPool::new(2);
        assert!(pool.insert(k(0, 0), PageState::Resident, false).is_none());
        assert!(pool.insert(k(0, 1), PageState::Resident, false).is_none());
        pool.touch(k(0, 0)); // 0 is now warmer than 1
        let ev = pool.insert(k(0, 2), PageState::Resident, false).unwrap();
        assert_eq!(ev.key, k(0, 1));
        assert!(pool.state(k(0, 0)).is_some());
        assert!(pool.state(k(0, 2)).is_some());
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn a_full_pool_evicts_in_exact_last_use_order() {
        let mut pool = BufferPool::new(4);
        for p in 0..4 {
            assert!(pool.insert(k(0, p), PageState::Resident, false).is_none());
        }
        pool.touch(k(0, 1));
        // Re-inserting a cached key is a use; marking dirty is not.
        assert!(pool.insert(k(0, 0), PageState::Resident, false).is_none());
        pool.mark_dirty(k(0, 2));
        let victims: Vec<Evicted> = (4..8)
            .map(|p| pool.insert(k(0, p), PageState::Resident, false).unwrap())
            .collect();
        let order: Vec<u64> = victims.iter().map(|ev| ev.key.1).collect();
        assert_eq!(order, vec![2, 3, 1, 0]);
        let dirty: Vec<bool> = victims.iter().map(|ev| ev.dirty).collect();
        assert_eq!(dirty, vec![true, false, false, false]);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn pinned_pages_are_never_victims() {
        let mut pool = BufferPool::new(1);
        pool.insert(k(0, 0), PageState::Resident, true);
        pool.set_pinned(k(0, 0), true);
        // Budget forces an eviction but the only candidate is pinned: the
        // pool transiently exceeds its budget rather than evicting it.
        assert!(pool.insert(k(0, 1), PageState::Resident, false).is_none());
        assert_eq!(pool.len(), 2);
        pool.set_pinned(k(0, 0), false);
        let ev = pool.insert(k(0, 2), PageState::Resident, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.key, k(0, 0));
    }

    #[test]
    fn speculative_inserts_evict_only_clean_pages() {
        let mut pool = BufferPool::new(2);
        pool.insert(k(0, 0), PageState::Resident, true);
        pool.insert(k(0, 1), PageState::Resident, false);
        let ticket = IoTicket { completion: 1.0, service: 1.0, req: 0 };
        // The dirty page is the coldest, but a page read ahead spares it.
        let ev = pool.insert(k(1, 0), PageState::InFlight(ticket), false).unwrap();
        assert_eq!(ev, Evicted { key: k(0, 1), dirty: false });
        // No clean page is left to evict: over budget, the dirty page stays.
        assert!(pool.insert(k(1, 1), PageState::InFlight(ticket), false).is_none());
        assert_eq!((pool.len(), pool.dirty_pages()), (3, 1));
    }

    #[test]
    fn invalidate_drops_only_that_file() {
        let mut pool = BufferPool::new(8);
        pool.insert(k(1, 0), PageState::Resident, true);
        pool.insert(k(1, 1), PageState::Resident, false);
        pool.insert(k(2, 0), PageState::Resident, false);
        assert_eq!(pool.invalidate_file(1), 2);
        assert!(pool.state(k(1, 0)).is_none());
        assert!(pool.state(k(2, 0)).is_some());
    }

    #[test]
    fn drain_dirty_is_sorted_and_clears_flags() {
        let mut pool = BufferPool::new(8);
        pool.insert(k(2, 1), PageState::Resident, true);
        pool.insert(k(1, 3), PageState::Resident, true);
        pool.insert(k(1, 0), PageState::Resident, false);
        assert_eq!(pool.drain_dirty(), vec![k(1, 3), k(2, 1)]);
        assert!(pool.drain_dirty().is_empty());
    }

    #[test]
    fn zero_budget_pool_caches_nothing() {
        let mut pool = BufferPool::new(0);
        assert!(pool.insert(k(0, 0), PageState::Resident, false).is_none());
        assert!(pool.is_empty());
        assert!(pool.state(k(0, 0)).is_none());
    }
}
