//! Simulated disk: files of 4 KiB pages with I/O accounting.
//!
//! The paper's evaluation is phrased entirely in page accesses: Section 3.2
//! charges 20 ms per *random* page fetch, Section 4.3 charges 10 ms per
//! *sequential* page access. The pager classifies every read and write as
//! sequential (next page after the previous access to the same file, or the
//! first access to a file) or random, so measured runs can be priced with
//! the paper's own constants and compared against `setm-costmodel`.
//!
//! An optional buffer cache (CLOCK eviction, write-through) models the
//! "non-leaf index pages reside in memory" assumption of Section 3.2 and
//! supports the buffer-size ablation (E8; see docs/REPRODUCTION.md,
//! Design notes §3). The cache is either *private* to the pager
//! ([`Pager::set_cache_frames`]; `0` frames disables caching entirely —
//! every access is charged, the worst-case accounting the paper's
//! formulas assume) or an attachment to a shared [`BufferPool`]
//! ([`Pager::attach_pool`]; see [`crate::pool`], Design notes §11).
//!
//! [`BufferPool`]: crate::pool::BufferPool

use crate::errors::{Error, Result};
use crate::page::Page;
use crate::pool::PoolHandle;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifier of a simulated file (a growable sequence of pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Per-access costs in milliseconds. `paper()` uses the constants of
/// Sections 3.2 and 4.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    pub seq_ms: f64,
    pub rand_ms: f64,
}

impl CostModel {
    /// The paper's constants: 10 ms sequential, 20 ms random.
    pub fn paper() -> Self {
        CostModel { seq_ms: 10.0, rand_ms: 20.0 }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Counts of page accesses since the last reset, split by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    pub seq_reads: u64,
    pub rand_reads: u64,
    pub seq_writes: u64,
    pub rand_writes: u64,
    /// Reads absorbed by the buffer cache (not charged as I/O).
    pub cache_hits: u64,
    /// Frames this pager's shared-pool owner stole from the pool's free
    /// reserve on admission (see [`crate::pool`]). Zero for private
    /// caches. Not an I/O access — never charged.
    pub pool_steals: u64,
}

impl IoStats {
    /// Total page reads that hit the simulated disk.
    pub fn reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// Total page writes.
    pub fn writes(&self) -> u64 {
        self.seq_writes + self.rand_writes
    }

    /// Total disk page accesses (the unit of the paper's formulas).
    pub fn accesses(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Price these accesses under a cost model, in milliseconds.
    pub fn estimated_ms(&self, model: &CostModel) -> f64 {
        (self.seq_reads + self.seq_writes) as f64 * model.seq_ms
            + (self.rand_reads + self.rand_writes) as f64 * model.rand_ms
    }

    /// Component-wise sum, for aggregating the pagers of a sharded run.
    pub fn plus(&self, other: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads + other.seq_reads,
            rand_reads: self.rand_reads + other.rand_reads,
            seq_writes: self.seq_writes + other.seq_writes,
            rand_writes: self.rand_writes + other.rand_writes,
            cache_hits: self.cache_hits + other.cache_hits,
            pool_steals: self.pool_steals + other.pool_steals,
        }
    }

    /// Component-wise difference (`self - earlier`), for bracketing a phase.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            seq_writes: self.seq_writes - earlier.seq_writes,
            rand_writes: self.rand_writes - earlier.rand_writes,
            cache_hits: self.cache_hits - earlier.cache_hits,
            pool_steals: self.pool_steals - earlier.pool_steals,
        }
    }
}

struct File {
    pages: Vec<Page>,
    last_read: Option<u32>,
    last_write: Option<u32>,
    live: bool,
}

struct CacheEntry {
    page: Page,
    referenced: bool,
}

/// CLOCK (second-chance) page cache, write-through. Private per-pager
/// caches use it directly; the shared [`crate::pool::BufferPool`] runs
/// one per attached owner, resizing it as frames move between owners.
pub(crate) struct Cache {
    capacity: usize,
    map: HashMap<(FileId, u32), usize>,
    slots: Vec<Option<((FileId, u32), CacheEntry)>>,
    hand: usize,
}

impl Cache {
    pub(crate) fn new(capacity: usize) -> Self {
        Cache { capacity, map: HashMap::new(), slots: Vec::new(), hand: 0 }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied frames.
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether every frame of the current capacity is occupied (a
    /// further `put` of a non-resident page would evict).
    pub(crate) fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    pub(crate) fn contains(&self, key: (FileId, u32)) -> bool {
        self.map.contains_key(&key)
    }

    /// Resize the cache. Shrinking below the resident page count evicts
    /// in CLOCK order until the new capacity fits.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        while self.len() > capacity {
            self.evict_one();
        }
        self.capacity = capacity;
        self.compact();
    }

    /// Evict one page chosen by the CLOCK sweep, leaving a hole.
    fn evict_one(&mut self) {
        debug_assert!(self.len() > 0);
        // A trailing-pop compact can leave the hand past the shortened
        // slot vector; re-enter the ring before indexing (see `compact`).
        self.hand %= self.slots.len().max(1);
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len().max(1);
            match self.slots[slot].as_mut() {
                None => continue,
                Some(occupant) => {
                    if occupant.1.referenced {
                        occupant.1.referenced = false;
                    } else {
                        self.map.remove(&occupant.0);
                        self.slots[slot] = None;
                        return;
                    }
                }
            }
        }
    }

    pub(crate) fn get(&mut self, key: (FileId, u32)) -> Option<&Page> {
        let &slot = self.map.get(&key)?;
        let entry = self.slots[slot].as_mut().expect("mapped slot must be occupied");
        entry.1.referenced = true;
        Some(&entry.1.page)
    }

    pub(crate) fn put(&mut self, key: (FileId, u32), page: Page) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            let entry = self.slots[slot].as_mut().expect("mapped slot must be occupied");
            entry.1.page = page;
            entry.1.referenced = true;
            return;
        }
        if self.slots.len() < self.capacity {
            self.map.insert(key, self.slots.len());
            self.slots.push(Some((key, CacheEntry { page, referenced: true })));
            return;
        }
        // CLOCK sweep: clear reference bits until an unreferenced victim
        // is found. The sweep only runs with every slot occupied
        // (`slots.len() == capacity`), but the hand may be stale after a
        // trailing-pop compact followed by a capacity shrink (pool
        // rebalance / detach), so clamp it before indexing and advance
        // modulo the live slot count, never the nominal capacity.
        self.hand %= self.slots.len();
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let occupant = self.slots[slot].as_mut().expect("cache slots are all occupied");
            if occupant.1.referenced {
                occupant.1.referenced = false;
            } else {
                self.map.remove(&occupant.0);
                self.map.insert(key, slot);
                self.slots[slot] = Some((key, CacheEntry { page, referenced: true }));
                return;
            }
        }
    }

    pub(crate) fn evict_file(&mut self, fid: FileId) {
        for slot in self.slots.iter_mut() {
            if let Some((key, _)) = slot {
                if key.0 == fid {
                    self.map.remove(key);
                    *slot = None;
                }
            }
        }
        self.compact();
    }

    /// Remove holes left by eviction so `slots.len() < capacity`
    /// re-enables the cheap insertion path (rare: file free, resize).
    ///
    /// The trailing-pop path can leave `hand >= slots.len()`; it is NOT
    /// clamped here so that the sweep position is preserved when the
    /// vector grows back to its old length (the common, capacity-stable
    /// case). Both sweeps (`put`, `evict_one`) clamp the hand on entry,
    /// which is where a stale value could otherwise index out of bounds
    /// after a capacity shrink.
    fn compact(&mut self) {
        while matches!(self.slots.last(), Some(None)) {
            self.slots.pop();
        }
        if self.slots.iter().any(Option::is_none) {
            let kept: Vec<_> = self.slots.drain(..).flatten().collect();
            self.map.clear();
            for (i, (key, entry)) in kept.into_iter().enumerate() {
                self.map.insert(key, i);
                self.slots.push(Some((key, entry)));
            }
            self.hand = 0;
        }
    }
}

/// Where a pager's buffer cache lives: nowhere (every access charged),
/// in a private CLOCK cache, or in an owner region of a shared
/// [`crate::pool::BufferPool`].
enum CacheBackend {
    None,
    Private(Cache),
    Pooled(PoolHandle),
}

/// The simulated disk. All engine components share one pager via
/// [`SharedPager`].
pub struct Pager {
    files: Vec<File>,
    stats: IoStats,
    cache: CacheBackend,
    cost: CostModel,
    /// Fault injection: when set, the access countdown decrements on
    /// every disk read/write and the access that reaches zero fails.
    fail_after: Option<u64>,
}

/// Shared, `Send`-able handle to a [`Pager`].
///
/// The paper's algorithm is a single loop of sorts and merge-scans, but
/// the parallel sharded execution runs one shard per worker thread, each
/// shard on its own pager — so the handle is an `Arc<Mutex<..>>`. A
/// single-threaded run never contends on the lock; a parallel run gives
/// every shard its own pager, so the locks stay uncontended there too
/// (the mutex buys `Send`, not concurrency on one disk).
#[derive(Clone)]
pub struct SharedPager(Arc<Mutex<Pager>>);

impl SharedPager {
    /// Wrap a pager in a shared handle.
    pub fn new(pager: Pager) -> Self {
        SharedPager(Arc::new(Mutex::new(pager)))
    }

    /// Exclusive access to the pager. Never blocks in practice: each
    /// simulated disk is driven by one thread at a time.
    pub fn lock(&self) -> MutexGuard<'_, Pager> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Pager {
    /// A pager with the paper's cost model and no buffer cache (every page
    /// access is charged).
    pub fn new() -> Self {
        Pager {
            files: Vec::new(),
            stats: IoStats::default(),
            cache: CacheBackend::None,
            cost: CostModel::paper(),
            fail_after: None,
        }
    }

    /// Fault injection for tests: the `n`-th subsequent disk access (1 =
    /// the very next one) fails with [`Error::Corrupt`], simulating a
    /// media error. Pass `None` to disarm.
    pub fn fail_after(&mut self, n: Option<u64>) {
        self.fail_after = n;
    }

    fn tick_fault(&mut self) -> Result<()> {
        if let Some(n) = self.fail_after.as_mut() {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.fail_after = None;
                return Err(Error::Corrupt("injected I/O fault".into()));
            }
        }
        Ok(())
    }

    /// Wrap a new pager in a shared handle.
    pub fn shared() -> SharedPager {
        SharedPager::new(Pager::new())
    }

    /// Install a private buffer cache of `frames` pages.
    ///
    /// `frames == 0` means **no cache at all** — every page access
    /// reaches the simulated disk and is charged, which is the
    /// worst-case accounting the paper's Section 3.2 / 4.3 formulas
    /// assume. (Pinned by the `zero_frames_means_no_cache` test; any
    /// previously installed cache or pool attachment is dropped.)
    pub fn set_cache_frames(&mut self, frames: usize) {
        self.cache = if frames == 0 {
            CacheBackend::None
        } else {
            CacheBackend::Private(Cache::new(frames))
        };
    }

    /// Attach this pager to a shared [`crate::pool::BufferPool`] region,
    /// replacing any private cache. The handle's frames return to the
    /// pool when the pager (or a later `set_cache_frames`) drops it.
    pub fn attach_pool(&mut self, handle: PoolHandle) {
        self.cache = CacheBackend::Pooled(handle);
    }

    /// The effective buffer-cache frame count of this pager right now: 0
    /// when uncached, the private cache's capacity, or the pool owner
    /// region's current allocation (quota plus stolen frames).
    pub fn cache_frames(&self) -> usize {
        match &self.cache {
            CacheBackend::None => 0,
            CacheBackend::Private(cache) => cache.capacity(),
            CacheBackend::Pooled(handle) => handle.frames(),
        }
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Create a new empty file.
    pub fn create_file(&mut self) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(File { pages: Vec::new(), last_read: None, last_write: None, live: true });
        id
    }

    /// Release a file (temporary sort runs, discarded `R'_k` relations).
    /// Its pages stop counting toward [`Pager::total_pages`].
    pub fn free_file(&mut self, fid: FileId) -> Result<()> {
        let file = self.file_mut(fid)?;
        file.pages.clear();
        file.pages.shrink_to_fit();
        file.live = false;
        match &mut self.cache {
            CacheBackend::None => {}
            CacheBackend::Private(cache) => cache.evict_file(fid),
            CacheBackend::Pooled(handle) => handle.evict_file(fid),
        }
        Ok(())
    }

    fn file(&self, fid: FileId) -> Result<&File> {
        self.files.get(fid.0 as usize).filter(|f| f.live).ok_or(Error::NoSuchFile(fid.0))
    }

    fn file_mut(&mut self, fid: FileId) -> Result<&mut File> {
        self.files.get_mut(fid.0 as usize).filter(|f| f.live).ok_or(Error::NoSuchFile(fid.0))
    }

    /// Number of pages in a file.
    pub fn n_pages(&self, fid: FileId) -> Result<u32> {
        Ok(self.file(fid)?.pages.len() as u32)
    }

    /// Total pages across all live files (disk footprint).
    pub fn total_pages(&self) -> u64 {
        self.files.iter().filter(|f| f.live).map(|f| f.pages.len() as u64).sum()
    }

    /// Look up a page in whichever cache backend is installed.
    fn cache_get(&mut self, fid: FileId, pno: u32) -> Option<Page> {
        match &mut self.cache {
            CacheBackend::None => None,
            CacheBackend::Private(cache) => cache.get((fid, pno)).cloned(),
            CacheBackend::Pooled(handle) => handle.get(fid, pno),
        }
    }

    /// Admit a copy of a page into the cache backend, recording pool
    /// steals. Without a cache nothing is copied.
    fn cache_put(
        cache: &mut CacheBackend,
        stats: &mut IoStats,
        fid: FileId,
        pno: u32,
        page: &Page,
    ) {
        match cache {
            CacheBackend::None => {}
            CacheBackend::Private(cache) => cache.put((fid, pno), page.clone()),
            CacheBackend::Pooled(handle) => {
                stats.pool_steals += handle.put(fid, pno, page.clone());
            }
        }
    }

    /// Read a page, charging sequential or random I/O (or a cache hit).
    pub fn read_page(&mut self, fid: FileId, pno: u32) -> Result<Page> {
        if let Some(page) = self.cache_get(fid, pno) {
            self.stats.cache_hits += 1;
            // A cache hit still advances the head position: a subsequent
            // miss on the next page is physically sequential.
            self.file_mut(fid)?.last_read = Some(pno);
            return Ok(page);
        }
        self.tick_fault()?;
        let file = self.file_mut(fid)?;
        let len = file.pages.len() as u32;
        let page = file.pages.get(pno as usize).cloned().ok_or(Error::PageOutOfBounds {
            file: fid.0,
            page: pno,
            len,
        })?;
        let sequential = match file.last_read {
            Some(prev) => pno == prev + 1,
            None => pno == 0,
        };
        file.last_read = Some(pno);
        if sequential {
            self.stats.seq_reads += 1;
        } else {
            self.stats.rand_reads += 1;
        }
        Self::cache_put(&mut self.cache, &mut self.stats, fid, pno, &page);
        Ok(page)
    }

    /// Append a page to a file, charging a write. Returns the new page number.
    pub fn append_page(&mut self, fid: FileId, page: Page) -> Result<u32> {
        self.tick_fault()?;
        let file = self.file_mut(fid)?;
        let pno = file.pages.len() as u32;
        let sequential = match file.last_write {
            Some(prev) => pno == prev + 1,
            None => pno == 0,
        };
        file.last_write = Some(pno);
        file.pages.push(page);
        if sequential {
            self.stats.seq_writes += 1;
        } else {
            self.stats.rand_writes += 1;
        }
        // Appends go through the cache too (write-through).
        let page = &self.files[fid.0 as usize].pages[pno as usize];
        Self::cache_put(&mut self.cache, &mut self.stats, fid, pno, page);
        Ok(pno)
    }

    /// Overwrite an existing page, charging a write.
    pub fn write_page(&mut self, fid: FileId, pno: u32, page: Page) -> Result<()> {
        self.tick_fault()?;
        let file = self.file_mut(fid)?;
        let len = file.pages.len() as u32;
        let slot = file.pages.get_mut(pno as usize).ok_or(Error::PageOutOfBounds {
            file: fid.0,
            page: pno,
            len,
        })?;
        *slot = page;
        let sequential = match file.last_write {
            Some(prev) => pno == prev + 1,
            None => pno == 0,
        };
        file.last_write = Some(pno);
        if sequential {
            self.stats.seq_writes += 1;
        } else {
            self.stats.rand_writes += 1;
        }
        let page = &self.files[fid.0 as usize].pages[pno as usize];
        Self::cache_put(&mut self.cache, &mut self.stats, fid, pno, page);
        Ok(())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Zero the statistics (e.g. after loading, before the measured phase).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Estimated elapsed time of all accesses so far under the cost model.
    pub fn estimated_ms(&self) -> f64 {
        self.stats.estimated_ms(&self.cost)
    }
}

impl Default for Pager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(v: u32) -> Page {
        let mut p = Page::new();
        p.push_records(&[v], 1).unwrap();
        p
    }

    #[test]
    fn sequential_scan_is_classified_sequential() {
        let mut pager = Pager::new();
        let f = pager.create_file();
        for i in 0..5 {
            pager.append_page(f, page_with(i)).unwrap();
        }
        pager.reset_stats();
        for i in 0..5 {
            pager.read_page(f, i).unwrap();
        }
        let s = pager.stats();
        assert_eq!(s.seq_reads, 5);
        assert_eq!(s.rand_reads, 0);
    }

    #[test]
    fn backward_and_repeated_reads_are_random() {
        let mut pager = Pager::new();
        let f = pager.create_file();
        for i in 0..3 {
            pager.append_page(f, page_with(i)).unwrap();
        }
        pager.reset_stats();
        pager.read_page(f, 2).unwrap(); // jump: random
        pager.read_page(f, 2).unwrap(); // repeat: random
        pager.read_page(f, 0).unwrap(); // backward: random
        pager.read_page(f, 1).unwrap(); // forward from 0: sequential
        let s = pager.stats();
        assert_eq!(s.rand_reads, 3);
        assert_eq!(s.seq_reads, 1);
    }

    #[test]
    fn interleaved_scans_of_two_files_stay_sequential() {
        // Merge-scan join alternates between its two inputs; per-file
        // tracking must keep both streams sequential.
        let mut pager = Pager::new();
        let a = pager.create_file();
        let b = pager.create_file();
        for i in 0..4 {
            pager.append_page(a, page_with(i)).unwrap();
            pager.append_page(b, page_with(100 + i)).unwrap();
        }
        pager.reset_stats();
        for i in 0..4 {
            pager.read_page(a, i).unwrap();
            pager.read_page(b, i).unwrap();
        }
        assert_eq!(pager.stats().seq_reads, 8);
        assert_eq!(pager.stats().rand_reads, 0);
    }

    #[test]
    fn appends_count_as_sequential_writes() {
        let mut pager = Pager::new();
        let f = pager.create_file();
        for i in 0..10 {
            pager.append_page(f, page_with(i)).unwrap();
        }
        assert_eq!(pager.stats().seq_writes, 10);
        assert_eq!(pager.stats().rand_writes, 0);
    }

    #[test]
    fn estimated_ms_uses_paper_constants() {
        let model = CostModel::paper();
        let stats = IoStats {
            seq_reads: 3,
            rand_reads: 2,
            seq_writes: 1,
            rand_writes: 0,
            cache_hits: 9,
            pool_steals: 0,
        };
        // 4 sequential * 10ms + 2 random * 20ms = 80ms; hits are free.
        assert_eq!(stats.estimated_ms(&model), 80.0);
    }

    #[test]
    fn cache_absorbs_repeated_reads() {
        let mut pager = Pager::new();
        pager.set_cache_frames(2);
        let f = pager.create_file();
        // Write-through: the appended page is already resident, so every
        // subsequent read is a hit and no read reaches the disk.
        pager.append_page(f, page_with(7)).unwrap();
        pager.reset_stats();
        pager.read_page(f, 0).unwrap();
        pager.read_page(f, 0).unwrap();
        pager.read_page(f, 0).unwrap();
        let s = pager.stats();
        assert_eq!(s.reads(), 0, "appended page is cache-resident");
        assert_eq!(s.cache_hits, 3);
    }

    #[test]
    fn clock_cache_evicts_when_full() {
        let mut pager = Pager::new();
        pager.set_cache_frames(2);
        let f = pager.create_file();
        for i in 0..3 {
            pager.append_page(f, page_with(i)).unwrap();
        }
        pager.reset_stats();
        pager.read_page(f, 0).unwrap(); // miss
        pager.read_page(f, 1).unwrap(); // miss
        pager.read_page(f, 2).unwrap(); // miss, evicts one of {0,1}
        pager.read_page(f, 2).unwrap(); // hit
        let s = pager.stats();
        assert_eq!(s.reads(), 3);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn stale_hand_survives_trailing_evict_then_shrink() {
        // Regression: `evict_file` that only pops trailing slots used to
        // leave the CLOCK hand pointing past the shortened slot vector;
        // a subsequent capacity shrink (pool rebalance or detach) then
        // made the next sweep index out of bounds and panic.
        let mut cache = Cache::new(4);
        let keep = FileId(0);
        let gone = FileId(1);
        // Fill: [k0, k1, g0, g1], all referenced, hand = 0.
        cache.put((keep, 0), page_with(0));
        cache.put((keep, 1), page_with(1));
        cache.put((gone, 0), page_with(2));
        cache.put((gone, 1), page_with(3));
        // Three sweeps advance the hand to 3 and leave (gone, 1) as the
        // sole trailing occupant of the evictable file.
        cache.put((keep, 2), page_with(4)); // full pass + evict slot 0, hand = 1
        cache.put((keep, 3), page_with(5)); // evict slot 1, hand = 2
        cache.put((keep, 4), page_with(6)); // evict slot 2, hand = 3

        // Trailing pop only: slots.len() drops to 3, hand stays at 3.
        cache.evict_file(gone);
        assert_eq!(cache.len(), 3);
        // Shrink at-or-below the stale hand, then force a sweep.
        cache.set_capacity(3);
        cache.put((keep, 5), page_with(7)); // used to panic: slots[3] of len 3
        assert!(cache.contains((keep, 5)));
        assert_eq!(cache.len(), 3, "capacity still honored after the shrink");
        // And the shrink-eviction path (`evict_one`) with the same stale
        // hand: rebuild the state, then shrink below the resident count.
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        cache.put((keep, 6), page_with(8));
        assert!(cache.contains((keep, 6)));
    }

    #[test]
    fn zero_frames_means_no_cache() {
        // `set_cache_frames(0)` disables caching entirely: every read is
        // charged as disk I/O and no hit is ever recorded — including
        // after shrinking away a previously installed cache.
        let mut pager = Pager::new();
        pager.set_cache_frames(4);
        let f = pager.create_file();
        pager.append_page(f, page_with(1)).unwrap();
        pager.set_cache_frames(0);
        assert_eq!(pager.cache_frames(), 0);
        pager.reset_stats();
        pager.read_page(f, 0).unwrap();
        pager.read_page(f, 0).unwrap();
        let s = pager.stats();
        assert_eq!(s.reads(), 2, "uncached reads all reach the disk");
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn cache_frames_reports_the_effective_backend_size() {
        let mut pager = Pager::new();
        assert_eq!(pager.cache_frames(), 0);
        pager.set_cache_frames(8);
        assert_eq!(pager.cache_frames(), 8);
        let pool = crate::pool::BufferPool::new(12);
        let mut handles = pool.attach_weighted(&[1]);
        pager.attach_pool(handles.remove(0));
        assert_eq!(pager.cache_frames(), 12);
    }

    #[test]
    fn freed_files_reject_access_and_drop_footprint() {
        let mut pager = Pager::new();
        let f = pager.create_file();
        pager.append_page(f, page_with(1)).unwrap();
        assert_eq!(pager.total_pages(), 1);
        pager.free_file(f).unwrap();
        assert_eq!(pager.total_pages(), 0);
        assert!(pager.read_page(f, 0).is_err());
        assert!(matches!(pager.n_pages(f), Err(Error::NoSuchFile(_))));
    }

    #[test]
    fn stats_plus_aggregates_shards() {
        let a = IoStats {
            seq_reads: 1,
            rand_reads: 2,
            seq_writes: 3,
            rand_writes: 4,
            cache_hits: 5,
            pool_steals: 6,
        };
        let b = IoStats {
            seq_reads: 10,
            rand_reads: 20,
            seq_writes: 30,
            rand_writes: 40,
            cache_hits: 50,
            pool_steals: 60,
        };
        let s = a.plus(&b);
        assert_eq!(s.reads(), 33);
        assert_eq!(s.writes(), 77);
        assert_eq!(s.cache_hits, 55);
        assert_eq!(s.pool_steals, 66);
    }

    #[test]
    fn stats_since_brackets_a_phase() {
        let mut pager = Pager::new();
        let f = pager.create_file();
        pager.append_page(f, page_with(1)).unwrap();
        let before = pager.stats();
        pager.read_page(f, 0).unwrap();
        let delta = pager.stats().since(&before);
        assert_eq!(delta.reads(), 1);
        assert_eq!(delta.writes(), 0);
    }

    #[test]
    fn out_of_bounds_read_is_an_error() {
        let mut pager = Pager::new();
        let f = pager.create_file();
        assert!(matches!(pager.read_page(f, 0), Err(Error::PageOutOfBounds { .. })));
    }
}
