//! Shared buffer pool with weighted per-owner admission quotas.
//!
//! The parallel engine used to split its `cache_frames` budget evenly
//! across per-shard pagers — the integer remainder was dropped and an
//! idle shard's frames were dead weight. [`BufferPool`] replaces that
//! split with one pool of frames shared by every attached pager:
//!
//! * **Admission quotas.** Each attached owner (a shard's pager) holds a
//!   frame quota proportional to its weight (its share of `SALES` rows at
//!   layout time, re-weighted by live `|R_{k-1}|` between iterations).
//!   Within its quota an owner runs the same CLOCK second-chance
//!   replacement as the private per-pager cache — so a single-owner pool
//!   is bit-for-bit the old cache.
//! * **Sharded locking.** Frames are partitioned by owner and each
//!   owner's region sits behind its own mutex, so concurrent shard
//!   workers never contend. The free-frame reserve is a lock-free atomic
//!   counter, so no path ever holds two locks in conflicting order
//!   (admission steals touch it while holding a region lock; rebalance
//!   and detach touch it around region locks — with a mutex reserve that
//!   was a latent deadlock). The only nested locking left is
//!   [`BufferPool::rebalance`] taking the owner list before each region,
//!   a single fixed order. Quota *re-division* (attach, rebalance) still
//!   runs from deterministic single-threaded points in the engine's use.
//! * **Stealing.** Frames not claimed by any live owner sit in a free
//!   reserve. An owner whose quota is exhausted *steals* from the
//!   reserve before evicting its own pages, and [`BufferPool::rebalance`]
//!   moves frames from owners whose live weight collapsed (idle shards)
//!   to the ones still carrying tuples. Every stolen frame is counted —
//!   the `pool_steals` column of
//!   [`IoStats`](crate::pager::IoStats) — and owners release their
//!   frames back to the reserve on detach (drop).
//!
//! Determinism: quotas are a pure function of the weights, CLOCK
//! eviction is a pure function of the per-owner access sequence, and the
//! engine only touches the shared reserve between parallel phases — so
//! charged page accesses are identical run to run for a given
//! configuration and thread count (gated by `repro -- check-baseline`).

use crate::page::Page;
use crate::pager::{Cache, FileId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Split `total` frames proportionally to `weights` (largest-remainder
/// apportionment; ties go to the heavier owner, then the lower index).
/// The returned shares always sum to exactly `total`.
pub fn distribute_frames(total: usize, weights: &[u64]) -> Vec<usize> {
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: u64 = weights.iter().sum();
    if sum == 0 {
        return split_frames_evenly(total, weights);
    }
    let mut shares: Vec<usize> = Vec::with_capacity(weights.len());
    let mut fractions: Vec<(u64, u64, usize)> = Vec::with_capacity(weights.len());
    let mut granted = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as u128 * w as u128;
        let floor = (exact / sum as u128) as usize;
        let frac = (exact % sum as u128) as u64;
        shares.push(floor);
        granted += floor;
        fractions.push((frac, w, i));
    }
    // Largest fractional part first; heavier weight, then lower index,
    // breaks ties — deterministic for any input.
    fractions.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    for &(_, _, i) in fractions.iter().take(total - granted) {
        shares[i] += 1;
    }
    shares
}

/// The legacy even split, remainder-corrected: every owner gets
/// `total / n` frames and the `total % n` leftover frames go one each to
/// the heaviest owners (ties to the lower index) instead of being
/// silently dropped. The shares always sum to exactly `total`.
pub fn split_frames_evenly(total: usize, weights: &[u64]) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let base = total / n;
    let remainder = total % n;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    let mut shares = vec![base; n];
    for &i in order.iter().take(remainder) {
        shares[i] += 1;
    }
    shares
}

/// One owner's region of the pool: a CLOCK cache whose capacity is the
/// owner's current frame allocation (quota plus stolen frames).
struct OwnerRegion {
    cache: Cache,
}

struct PoolInner {
    frames: usize,
    /// Frames claimed by no live owner — the steal reserve. Atomic (not
    /// a mutex) so it can be touched while a region lock is held without
    /// establishing a lock order ([`take_up_to`]).
    free: AtomicUsize,
    /// Live owners in attach order, for `rebalance`. Weak: an owner's
    /// frames return to `free` when its handle drops, not when the pool
    /// forgets it.
    owners: Mutex<Vec<Weak<Mutex<OwnerRegion>>>>,
}

/// A shared, concurrently accessible pool of buffer frames. Cheap to
/// clone (it is an `Arc`); see the module docs for the design.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// A pool of `frames` page frames, all initially in the free reserve.
    pub fn new(frames: usize) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                frames,
                free: AtomicUsize::new(frames),
                owners: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Total frame budget of the pool.
    pub fn frames(&self) -> usize {
        self.inner.frames
    }

    /// Frames currently in the steal reserve (claimed by no owner).
    pub fn free_frames(&self) -> usize {
        self.inner.free.load(Ordering::SeqCst)
    }

    /// Attach one owner per weight, dividing the *currently free* frames
    /// proportionally ([`distribute_frames`]). The engine calls this once
    /// per shard layout — on a fresh pool, or after the previous layout's
    /// handles dropped — so the whole budget is always (re)granted.
    pub fn attach_weighted(&self, weights: &[u64]) -> Vec<PoolHandle> {
        let mut owners = lock(&self.inner.owners);
        owners.retain(|w| w.strong_count() > 0);
        let quotas = distribute_frames(self.free_frames(), weights);
        let mut handles = Vec::with_capacity(quotas.len());
        for quota in quotas {
            let granted = take_up_to(&self.inner.free, quota);
            debug_assert_eq!(
                granted, quota,
                "attach must not race concurrent steals (single-threaded convention)"
            );
            let region = Arc::new(Mutex::new(OwnerRegion { cache: Cache::new(granted) }));
            owners.push(Arc::downgrade(&region));
            handles.push(PoolHandle { pool: Arc::clone(&self.inner), region });
        }
        handles
    }

    /// Adaptively re-divide the attached owners' frames in proportion to
    /// `weights` (one per live owner, in attach order). Shrunk owners
    /// evict their coldest pages (CLOCK order); grown owners gain the
    /// frames. Returns the number of frames that changed owner — the
    /// steal count the engine attributes to the current iteration. Must
    /// be called from one thread with no concurrent pool access (the
    /// engine calls it between parallel phases).
    pub fn rebalance(&self, weights: &[u64]) -> u64 {
        let mut owners = lock(&self.inner.owners);
        owners.retain(|w| w.strong_count() > 0);
        let regions: Vec<Arc<Mutex<OwnerRegion>>> =
            owners.iter().filter_map(Weak::upgrade).collect();
        if regions.len() != weights.len() {
            return 0; // caller's weight list is stale; keep the layout
        }
        let held: usize = regions.iter().map(|r| lock(r).cache.capacity()).sum();
        let targets = distribute_frames(held + self.free_frames(), weights);
        let mut moved = 0u64;
        // Shrink first so the freed frames are available to the growers.
        for (region, &target) in regions.iter().zip(&targets) {
            let mut region = lock(region);
            let have = region.cache.capacity();
            if target < have {
                region.cache.set_capacity(target);
                self.inner.free.fetch_add(have - target, Ordering::SeqCst);
            }
        }
        for (region, &target) in regions.iter().zip(&targets) {
            let mut region = lock(region);
            let have = region.cache.capacity();
            if target > have {
                let gain = take_up_to(&self.inner.free, target - have);
                moved += gain as u64;
                region.cache.set_capacity(have + gain);
            }
        }
        moved
    }
}

/// One owner's attachment to a [`BufferPool`] — what a
/// [`Pager`](crate::pager::Pager) holds when pooled. Dropping the handle
/// detaches the owner and returns its frames to the pool's free reserve.
pub struct PoolHandle {
    pool: Arc<PoolInner>,
    region: Arc<Mutex<OwnerRegion>>,
}

impl PoolHandle {
    /// Look up a page in the owner's region.
    pub fn get(&self, fid: FileId, pno: u32) -> Option<Page> {
        lock(&self.region).cache.get((fid, pno)).cloned()
    }

    /// Admit a page. When the owner's region is full, one frame is stolen
    /// from the pool's free reserve if any is available (returned as the
    /// steal count, for [`IoStats::pool_steals`]); otherwise the owner's
    /// own coldest page is evicted.
    ///
    /// [`IoStats::pool_steals`]: crate::pager::IoStats::pool_steals
    pub fn put(&self, fid: FileId, pno: u32, page: Page) -> u64 {
        let mut region = lock(&self.region);
        let mut stole = 0u64;
        if region.cache.is_full() && !region.cache.contains((fid, pno)) {
            // Lock-free reserve claim: safe under the region lock because
            // it can never block (no lock order with detach/rebalance).
            if take_up_to(&self.pool.free, 1) == 1 {
                let cap = region.cache.capacity();
                region.cache.set_capacity(cap + 1);
                stole = 1;
            }
        }
        region.cache.put((fid, pno), page);
        stole
    }

    /// Drop every cached page of a freed file (frames stay with the
    /// owner).
    pub fn evict_file(&self, fid: FileId) {
        lock(&self.region).cache.evict_file(fid);
    }

    /// The owner's current frame allocation (quota plus stolen frames).
    pub fn frames(&self) -> usize {
        lock(&self.region).cache.capacity()
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        let mut region = lock(&self.region);
        let freed = region.cache.capacity();
        region.cache.set_capacity(0);
        self.pool.free.fetch_add(freed, Ordering::SeqCst);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Claim up to `want` frames from the free reserve, returning how many
/// were taken. Lock-free, so callers may hold a region lock.
fn take_up_to(free: &AtomicUsize, want: usize) -> usize {
    let mut taken = 0;
    let _ = free.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| {
        taken = f.min(want);
        Some(f - taken)
    });
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    #[test]
    fn distribute_frames_is_exact_and_weight_proportional() {
        assert_eq!(distribute_frames(10, &[1, 1]), vec![5, 5]);
        // 10 × 3/4 = 7.5 and 10 × 1/4 = 2.5: the fractional tie goes to
        // the heavier owner.
        assert_eq!(distribute_frames(10, &[3, 1]), vec![8, 2]);
        // Remainders go to the heaviest owners, never on the floor.
        assert_eq!(distribute_frames(7, &[5, 3, 1]), vec![4, 2, 1]);
        assert_eq!(distribute_frames(7, &[1, 1, 1]).iter().sum::<usize>(), 7);
        assert_eq!(distribute_frames(2, &[1, 1, 1, 1]).iter().sum::<usize>(), 2);
        // Zero total weight degrades to the even split.
        assert_eq!(distribute_frames(5, &[0, 0]), vec![3, 2]);
        for (total, weights) in
            [(255usize, vec![17u64, 9, 31, 2]), (1, vec![1, 1000]), (0, vec![4, 4])]
        {
            let shares = distribute_frames(total, &weights);
            assert_eq!(shares.iter().sum::<usize>(), total, "{total} over {weights:?}");
        }
    }

    #[test]
    fn split_frames_evenly_sends_remainder_to_heaviest() {
        // The old code computed 7 / 3 = 2 per shard and dropped 1 frame.
        assert_eq!(split_frames_evenly(7, &[10, 30, 20]), vec![2, 3, 2]);
        assert_eq!(split_frames_evenly(11, &[1, 1, 1, 1]), vec![3, 3, 3, 2]);
        for (total, weights) in [(7usize, vec![1u64, 2, 3]), (256, vec![9, 9, 9, 9, 9])] {
            let shares = split_frames_evenly(total, &weights);
            assert_eq!(shares.iter().sum::<usize>(), total, "total frames granted");
        }
    }

    #[test]
    fn attach_weighted_grants_the_whole_budget() {
        let pool = BufferPool::new(10);
        let handles = pool.attach_weighted(&[3, 1]);
        assert_eq!(handles.iter().map(PoolHandle::frames).collect::<Vec<_>>(), vec![8, 2]);
        assert_eq!(pool.free_frames(), 0);
        drop(handles);
        assert_eq!(pool.free_frames(), 10, "detach returns every frame");
    }

    #[test]
    fn put_steals_free_frames_before_evicting() {
        let pool = BufferPool::new(4);
        let mut handles = pool.attach_weighted(&[1, 1]);
        let b = handles.pop().expect("two owners");
        let a = handles.pop().expect("two owners");
        let fid = FileId(0);
        // Fill owner a's quota of 2 frames...
        assert_eq!(a.put(fid, 0, Page::new()), 0);
        assert_eq!(a.put(fid, 1, Page::new()), 0);
        // ...then detach the idle owner: its 2 frames hit the reserve.
        drop(b);
        assert_eq!(pool.free_frames(), 2);
        // Over-quota admissions steal from the reserve instead of
        // evicting a's own pages.
        assert_eq!(a.put(fid, 2, Page::new()), 1);
        assert_eq!(a.put(fid, 3, Page::new()), 1);
        assert_eq!(pool.free_frames(), 0);
        assert_eq!(a.frames(), 4);
        for pno in 0..4 {
            assert!(a.get(fid, pno).is_some(), "page {pno} still resident");
        }
        // Reserve dry: the next admission falls back to CLOCK eviction.
        assert_eq!(a.put(fid, 4, Page::new()), 0);
        assert!(a.get(fid, 4).is_some());
        assert_eq!(a.frames(), 4, "no growth without free frames");
    }

    #[test]
    fn rebalance_moves_frames_toward_live_weight() {
        let pool = BufferPool::new(8);
        let handles = pool.attach_weighted(&[1, 1]);
        assert_eq!(handles[0].frames(), 4);
        // Owner 0's residue collapsed, owner 1 is carrying the run.
        let moved = pool.rebalance(&[1, 7]);
        assert_eq!(moved, 3);
        assert_eq!(handles[0].frames(), 1);
        assert_eq!(handles[1].frames(), 7);
        assert_eq!(pool.free_frames(), 0);
        // Equal weights move them back.
        assert_eq!(pool.rebalance(&[1, 1]), 3);
        assert_eq!(handles[0].frames(), 4);
        // A stale-weights call (wrong owner count) keeps the layout.
        assert_eq!(pool.rebalance(&[1, 1, 1]), 0);
        assert_eq!(handles[0].frames(), 4);
    }

    #[test]
    fn rebalance_shrink_after_evict_file_does_not_panic() {
        // Regression: freeing a file whose pages sat in the trailing
        // cache slots left the owner's CLOCK hand past the shortened
        // slot vector; a rebalance shrink then indexed out of bounds.
        let pool = BufferPool::new(8);
        let handles = pool.attach_weighted(&[1, 1]);
        let keep = FileId(0);
        let gone = FileId(1);
        // Fill owner 0's 4 frames and walk the hand to the last slot,
        // leaving `gone`'s page as the trailing occupant.
        handles[0].put(keep, 0, Page::new());
        handles[0].put(keep, 1, Page::new());
        handles[0].put(keep, 2, Page::new());
        handles[0].put(gone, 0, Page::new());
        handles[0].put(keep, 3, Page::new()); // sweep: hand -> 1
        handles[0].put(keep, 4, Page::new()); // sweep: hand -> 2
        handles[0].put(keep, 5, Page::new()); // sweep: hand -> 3
        handles[0].evict_file(gone); // trailing pop, hand stays at 3

        // Shrink owner 0 at-or-below the stale hand via rebalance.
        let moved = pool.rebalance(&[1, 3]);
        assert_eq!(moved, 2);
        assert_eq!(handles[0].frames(), 2);
        assert_eq!(handles[1].frames(), 6);
        // The survivor region still admits and serves pages.
        assert_eq!(handles[0].put(keep, 6, Page::new()), 0);
        assert!(handles[0].get(keep, 6).is_some());
    }

    #[test]
    fn rebalance_evicts_from_shrunk_owners() {
        let pool = BufferPool::new(4);
        let handles = pool.attach_weighted(&[1, 1]);
        let fid = FileId(0);
        handles[0].put(fid, 0, Page::new());
        handles[0].put(fid, 1, Page::new());
        pool.rebalance(&[0, 1]);
        assert_eq!(handles[0].frames(), 0);
        assert!(handles[0].get(fid, 0).is_none(), "shrunk to zero: everything evicted");
        assert!(handles[0].get(fid, 1).is_none());
        assert_eq!(handles[1].frames(), 4);
    }

    #[test]
    fn single_owner_pool_behaves_like_a_private_cache() {
        // The same access pattern through a pooled pager and a private
        // cache charges identical stats.
        let run = |pooled: bool| {
            let shared = Pager::shared();
            let pool = BufferPool::new(2);
            {
                let mut p = shared.lock();
                if pooled {
                    p.attach_pool(pool.attach_weighted(&[1]).pop().expect("one owner"));
                } else {
                    p.set_cache_frames(2);
                }
            }
            let mut p = shared.lock();
            let f = p.create_file();
            for i in 0..3u32 {
                let mut page = Page::new();
                page.push_records(&[i], 1).unwrap();
                p.append_page(f, page).unwrap();
            }
            p.reset_stats();
            for pno in [0u32, 1, 2, 2, 0, 1] {
                p.read_page(f, pno).unwrap();
            }
            p.stats()
        };
        assert_eq!(run(true), run(false));
    }
}
