//! A clock page cache over the simulated device, kept as a residency
//! model.
//!
//! The paper's LFM "performs no buffering anyway", and the paper tables
//! depend on that: Tables 1–4 count every logical 4 KiB page touched.
//! [`crate::IoStats`] keeps counting *logical* I/O whether or not the
//! cache is on (tablegen stays bit-identical, cache disabled by
//! default), while [`CacheStats`] reports how many of those page
//! touches a buffer pool of the configured size would absorb.
//!
//! The pool records which device pages are resident, not their bytes:
//! the device is in memory and every write invalidates the pages it
//! touches, so a frame could only hold what the device already does,
//! and every read copies from the device.  A page table indexed by
//! device page names each resident page's frame; eviction is the
//! classic clock (second-chance) sweep, and pinned frames are skipped,
//! so a read call keeps the pages it touched resident while its own
//! misses stage more.
//!
//! What a read really repeats on this host is the decode after the
//! copy; the decoded objects of whole fields are a separate cache
//! beside this one ([`crate::objects`]), host memory that is on
//! whatever this pool's setting.

/// Buffer-pool knobs on the [`crate::LongFieldManager`].
///
/// The default is all-zero: no frames, cache disabled — the paper's
/// unbuffered LFM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Frames in the pool (one device page each).
    pub capacity_pages: usize,
    /// Master switch; `false` restores the paper's unbuffered LFM.
    pub enabled: bool,
    /// Sequential readahead depth: after a demand fetch, the manager may
    /// stage up to this many following device pages in the same physical
    /// transfer.  Zero disables readahead.  Pure prefetch policy — the
    /// pool itself only records what it is handed, and logical
    /// accounting never sees the staged pages.
    pub readahead_pages: usize,
}

/// Cumulative buffer-pool behaviour (separate from the logical
/// [`crate::IoStats`], which the cache never alters).
///
/// A read call looks each *distinct* page it touches up once, however
/// many pieces share the page, so across cached reads `hits + misses`
/// equals the logical `pages_read`; a page the call's own coalesced
/// transfer or readahead staged is a hit when the call reaches it.
/// Reads with the pool off take no pool lock and count no page here.
///
/// The `object_*` counts are the decoded-object cache's
/// ([`crate::LongFieldManager::read_object`]): one lookup per object
/// read, whatever the field's page count, with the pool off and on —
/// that cache is host memory bounded by the device's data-area bytes,
/// and only the pool models the buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct-page lookups served from the pool.
    pub hits: u64,
    /// Distinct-page lookups that had to go to the device.
    pub misses: u64,
    /// Frames reclaimed by the clock sweep.
    pub evictions: u64,
    /// Object reads served without a copy or a decode.
    pub object_hits: u64,
    /// Object reads that copied and decoded the field's bytes.
    pub object_misses: u64,
    /// Decoded objects dropped to make room for another.
    pub object_evictions: u64,
}

/// Page-table entry of a page with no frame.
const NO_FRAME: u32 = u32::MAX;
/// Page number of an invalidated frame; the clock reuses it next sweep.
const TOMBSTONE: u64 = u64::MAX;

/// The pool itself.  All methods take `&mut self`; the manager wraps it
/// in a `Mutex` so the `&self` read path can use it.
#[derive(Default)]
pub(crate) struct PageCache {
    device_pages: usize,
    /// Frames the pool may hold; zero while it is switched off.
    capacity: usize,
    /// Device page → frame or `NO_FRAME`; allocated when switched on.
    table: Vec<u32>,
    /// Frame → device page or `TOMBSTONE`; grows a frame at a time to
    /// `capacity` frames, then is reused in place.
    pages: Vec<u64>,
    referenced: Vec<bool>,
    pins: Vec<u32>,
    hand: usize,
    stats: CacheStats,
    /// `stats` as of the last [`PageCache::end_call`].
    published: CacheStats,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageCache({}/{} frames, {:?})", self.pages.len(), self.capacity, self.stats)
    }
}

impl PageCache {
    /// A switched-off pool over `device_pages` pages.
    pub(crate) fn new(device_pages: usize) -> PageCache {
        PageCache { device_pages, ..PageCache::default() }
    }

    /// Resizes the pool to `frames` frames (zero switches it off) and
    /// empties it.  Stats survive.
    pub(crate) fn set_capacity(&mut self, frames: usize) {
        // A frame number must fit a page-table entry below `NO_FRAME`.
        self.capacity = frames.min(NO_FRAME as usize);
        self.table = if frames > 0 { vec![NO_FRAME; self.device_pages] } else { Vec::new() };
        self.clear();
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The frame holding `page` — a residency probe that counts neither
    /// a hit nor a miss and leaves the reference bit alone, so the
    /// manager's readahead policy can find the end of a non-resident run
    /// without polluting [`CacheStats`] for pages nobody asked for.
    pub(crate) fn frame_of(&self, page: u64) -> Option<usize> {
        self.table.get(page as usize).filter(|&&f| f != NO_FRAME).map(|&f| f as usize)
    }

    /// Looks `page` up, counting a hit or miss and marking the frame
    /// referenced for the clock sweep.
    pub(crate) fn get(&mut self, page: u64) -> Option<usize> {
        let frame = self.frame_of(page);
        match frame {
            Some(frame) => {
                self.referenced[frame] = true;
                self.stats.hits += 1;
            }
            None => self.stats.misses += 1,
        }
        frame
    }

    /// Ends one read call: returns the call's hit/miss/eviction tallies
    /// for the manager to publish and stamp on its `lfm.read` span.
    pub(crate) fn end_call(&mut self) -> CacheStats {
        let was = std::mem::replace(&mut self.published, self.stats);
        CacheStats {
            hits: self.stats.hits - was.hits,
            misses: self.stats.misses - was.misses,
            evictions: self.stats.evictions - was.evictions,
            ..CacheStats::default()
        }
    }

    /// Makes `page` resident, evicting an unpinned frame via the clock
    /// hand if the pool is full.  When every frame is pinned the insert
    /// is skipped — correctness never depends on residency.
    pub(crate) fn insert(&mut self, page: u64) {
        // Anything else is resident already, or the pool is off.
        if self.table.get(page as usize) != Some(&NO_FRAME) {
            return;
        }
        let frame = if self.pages.len() < self.capacity {
            self.pages.push(page);
            self.referenced.push(true);
            self.pins.push(0);
            self.pages.len() - 1
        } else {
            let Some(frame) = self.sweep() else { return };
            self.pages[frame] = page;
            self.referenced[frame] = true;
            frame
        };
        self.table[page as usize] = frame as u32;
    }

    /// Clock sweep: two full passes guarantee a victim if any frame is
    /// unpinned (the first pass may only clear reference bits).
    fn sweep(&mut self) -> Option<usize> {
        for _ in 0..self.pages.len() * 2 {
            let frame = self.hand;
            self.hand = (self.hand + 1) % self.pages.len();
            if self.pins[frame] > 0 {
                continue;
            }
            if self.referenced[frame] {
                self.referenced[frame] = false;
                continue;
            }
            let victim = self.pages[frame];
            if victim != TOMBSTONE {
                self.table[victim as usize] = NO_FRAME;
            }
            self.stats.evictions += 1;
            return Some(frame);
        }
        None
    }

    /// Pins a frame against eviction.
    pub(crate) fn pin(&mut self, frame: usize) {
        self.pins[frame] += 1;
    }

    /// Releases one pin on a frame.
    pub(crate) fn unpin(&mut self, frame: usize) {
        self.pins[frame] = self.pins[frame].saturating_sub(1);
    }

    /// Forgets `count` device pages starting at `first_page` (called
    /// when the underlying bytes change).
    pub(crate) fn invalidate_range(&mut self, first_page: u64, count: u64) {
        let len = self.table.len() as u64;
        let (first, end) = (first_page.min(len), first_page.saturating_add(count).min(len));
        for slot in &mut self.table[first as usize..end as usize] {
            if *slot != NO_FRAME {
                // Tombstone the frame; the clock reuses it next sweep.
                let frame = std::mem::replace(slot, NO_FRAME) as usize;
                self.referenced[frame] = false;
                self.pins[frame] = 0;
                self.pages[frame] = TOMBSTONE;
            }
        }
    }

    /// Empties the pool (recovery, reconfiguration).  Stats survive.
    pub(crate) fn clear(&mut self) {
        self.table.fill(NO_FRAME);
        self.pages.clear();
        self.referenced.clear();
        self.pins.clear();
        self.hand = 0;
    }

    /// Structural invariants the clock sweep must preserve.
    #[cfg(test)]
    pub(crate) fn validate(&self) {
        let frames = self.pages.len();
        assert!(frames <= self.capacity, "pool overflowed its capacity");
        assert!(self.hand == 0 || self.hand < frames, "clock hand out of range");
        assert_eq!((self.referenced.len(), self.pins.len()), (frames, frames));
        let mut mapped = 0;
        for (page, &frame) in self.table.iter().enumerate().filter(|&(_, &f)| f != NO_FRAME) {
            mapped += 1;
            assert!((frame as usize) < frames, "table points past the frame table");
            assert_eq!(self.pages[frame as usize], page as u64, "table and frame disagree");
        }
        // Mapped pages name distinct frames (each frame holds one page
        // number), so equal counts mean every live frame is the one its
        // page's entry names: no two frames hold one page.
        let live = self.pages.iter().filter(|&&p| p != TOMBSTONE).count();
        assert_eq!(live, mapped, "frame table and page table track different residency");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(capacity: usize) -> PageCache {
        let mut c = PageCache::new(16);
        c.set_capacity(capacity);
        c
    }

    #[test]
    fn default_cache_is_off() {
        let mut c = PageCache::new(16);
        c.insert(3);
        assert!(c.frame_of(3).is_none(), "a switched-off pool stores nothing");
        assert!(!CacheConfig::default().enabled);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = active(4);
        assert!(c.get(7).is_none());
        c.insert(7);
        assert_eq!(c.get(7), Some(0), "the first insert takes the first frame");
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
    }

    #[test]
    fn clock_gives_referenced_pages_a_second_chance() {
        let mut c = active(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        // Pool full: the sweep clears all reference bits, then evicts
        // page 1 (first unreferenced frame after the hand wraps).
        c.insert(4);
        assert!(c.get(1).is_none());
        // Re-reference page 2; page 3's bit stays clear.
        assert_eq!(c.get(2), Some(1));
        c.insert(5);
        assert_eq!(c.get(2), Some(1), "referenced page got its second chance");
        assert!(c.get(3).is_none(), "unreferenced page was the victim");
        assert_eq!(c.get(4), Some(0), "page 4 took evicted page 1's frame");
        assert_eq!(c.get(5), Some(2), "page 5 took evicted page 3's frame");
        assert_eq!(c.stats().evictions, 2);
        c.validate();
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let mut c = active(2);
        c.insert(1);
        c.insert(2);
        let (f1, f2) = (c.frame_of(1).unwrap(), c.frame_of(2).unwrap());
        c.pin(f1);
        c.pin(f2);
        c.insert(3); // nowhere to go: skipped
        assert!(c.get(3).is_none());
        c.unpin(f2);
        c.insert(3);
        assert_eq!(c.get(3), Some(f2), "the one unpinned frame was reused");
        assert_eq!(c.get(1), Some(f1), "pinned page survived the sweep");
        assert!(c.get(2).is_none());
    }

    #[test]
    fn invalidation_forgets_pages() {
        let mut c = active(4);
        for p in 0..4 {
            c.insert(p);
        }
        c.invalidate_range(1, 2);
        assert_eq!(c.get(0), Some(0));
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_none());
        assert_eq!(c.get(3), Some(3));
        // The tombstoned frames are reused before anything live goes.
        c.insert(9);
        c.insert(10);
        c.validate();
        assert_eq!(c.get(9), Some(1));
        assert_eq!(c.get(10), Some(2));
        assert_eq!((c.get(0), c.get(3)), (Some(0), Some(3)), "live pages kept their frames");
    }

    #[test]
    fn reconfiguring_clears_residency() {
        let mut c = active(4);
        c.insert(9);
        c.set_capacity(2);
        assert!(c.get(9).is_none());
        c.validate();
    }

    #[test]
    fn contains_is_stats_neutral() {
        let mut c = active(4);
        c.insert(3);
        let before = c.stats();
        assert!(c.frame_of(3).is_some());
        assert!(c.frame_of(4).is_none());
        assert!(c.frame_of(1 << 40).is_none(), "a page past the device is just not resident");
        assert_eq!(c.stats(), before, "residency probes must not count hits or misses");
    }

    #[test]
    fn validate_accepts_a_worked_pool() {
        let mut c = active(2);
        for p in 0..5 {
            c.insert(p);
            c.validate();
        }
        let f3 = c.frame_of(3).unwrap();
        c.pin(f3);
        c.invalidate_range(4, 1);
        c.validate();
    }

    #[test]
    fn end_call_hands_each_tally_out_once() {
        let mut c = active(1);
        c.insert(1);
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
        c.insert(2);
        assert_eq!(
            c.end_call(),
            CacheStats { hits: 1, misses: 1, evictions: 1, ..CacheStats::default() }
        );
        assert_eq!(c.end_call(), CacheStats::default(), "nothing new since");
        assert_eq!(
            c.stats(),
            CacheStats { hits: 1, misses: 1, evictions: 1, ..CacheStats::default() }
        );
    }

    #[test]
    fn validate_rejects_two_frames_holding_one_page() {
        let mut c = active(2);
        c.insert(1);
        c.insert(2);
        c.pages[1] = 1; // frame 1 now claims page 1 too
        c.table[2] = NO_FRAME;
        assert!(std::panic::catch_unwind(|| c.validate()).is_err());
    }
}
