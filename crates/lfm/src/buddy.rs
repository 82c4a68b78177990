//! Binary buddy allocation over device pages.
//!
//! The buddy scheme is what "promotes contiguity": a long field occupies
//! one naturally aligned power-of-two extent of pages, so a Hilbert-sorted
//! volume reads back as large sequential transfers.

use crate::{LfmError, Result};
use std::collections::BTreeSet;

/// A binary buddy allocator over `2^max_order` pages.
///
/// Blocks are identified by `(page_offset, order)`; a block of order `k`
/// spans `2^k` pages and is aligned to `2^k`.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    max_order: u32,
    /// `free[k]` holds page offsets of free blocks of order `k`.
    free: Vec<BTreeSet<u64>>,
    /// Live blocks `(offset, order)`, for double-free detection.
    live: BTreeSet<(u64, u32)>,
    allocated_pages: u64,
}

impl BuddyAllocator {
    /// An allocator over `2^max_order` pages, initially one free block.
    ///
    /// # Panics
    /// Panics if `max_order > 40` (a absurdly large device).
    pub fn new(max_order: u32) -> Self {
        assert!(max_order <= 40, "max_order {max_order} unreasonably large");
        let mut free = vec![BTreeSet::new(); (max_order + 1) as usize];
        free[max_order as usize].insert(0);
        BuddyAllocator { max_order, free, live: BTreeSet::new(), allocated_pages: 0 }
    }

    /// Total pages managed.
    pub fn total_pages(&self) -> u64 {
        1u64 << self.max_order
    }

    /// Pages currently allocated (including internal fragmentation —
    /// blocks are whole powers of two).
    pub fn allocated_pages(&self) -> u64 {
        self.allocated_pages
    }

    /// Smallest order whose block holds `pages` pages.
    pub fn order_for_pages(pages: u64) -> u32 {
        pages.max(1).next_power_of_two().trailing_zeros()
    }

    /// Allocates a block of the given order, returning its page offset.
    pub fn allocate(&mut self, order: u32) -> Result<u64> {
        if order > self.max_order {
            return Err(LfmError::OutOfSpace { requested: (1u64 << order) });
        }
        // Find the smallest free block of at least this order.
        let found = (order..=self.max_order).find(|&k| !self.free[k as usize].is_empty());
        let Some(mut k) = found else {
            return Err(LfmError::OutOfSpace { requested: 1u64 << order });
        };
        let Some(offset) = self.free[k as usize].pop_first() else {
            return Err(LfmError::OutOfSpace { requested: 1u64 << order });
        };
        // Split down to the requested order, freeing the upper halves.
        while k > order {
            k -= 1;
            let buddy = offset + (1u64 << k);
            self.free[k as usize].insert(buddy);
        }
        self.allocated_pages += 1u64 << order;
        self.live.insert((offset, order));
        Ok(offset)
    }

    /// Allocates the *specific* block `(offset, order)`, splitting the
    /// containing free block down to it.  This is how crash recovery
    /// rebuilds the allocator from the durable field directory: each
    /// directory entry pins its block, and a second claim on the same
    /// pages — a double allocation — comes back as an error instead of
    /// silent corruption.
    pub fn allocate_at(&mut self, offset: u64, order: u32) -> Result<()> {
        let placement = LfmError::CorruptMetadata(format!(
            "cannot place block at page {offset}, order {order}: not free or out of geometry"
        ));
        if order > self.max_order
            || !offset.is_multiple_of(1u64 << order)
            || offset + (1u64 << order) > self.total_pages()
        {
            return Err(placement);
        }
        // Find and remove the free block containing `offset`.
        let mut k = order;
        let (mut k, mut blk) = loop {
            if k > self.max_order {
                return Err(placement);
            }
            let aligned = offset & !((1u64 << k) - 1);
            if self.free[k as usize].remove(&aligned) {
                break (k, aligned);
            }
            k += 1;
        };
        // Split down, keeping the half that contains `offset`.
        while k > order {
            k -= 1;
            let half = 1u64 << k;
            if offset >= blk + half {
                self.free[k as usize].insert(blk);
                blk += half;
            } else {
                self.free[k as usize].insert(blk + half);
            }
        }
        debug_assert_eq!(blk, offset);
        self.allocated_pages += 1u64 << order;
        self.live.insert((offset, order));
        Ok(())
    }

    /// Frees a block previously returned by [`BuddyAllocator::allocate`],
    /// coalescing with free buddies.
    ///
    /// Misaligned offsets, out-of-range orders and double frees return
    /// [`LfmError::InvalidFree`] and leave the allocator untouched —
    /// bytes arriving from a (simulated) disk can be wrong, and wrong
    /// metadata must not corrupt the free lists.
    pub fn free(&mut self, offset: u64, order: u32) -> Result<()> {
        if order > self.max_order || !offset.is_multiple_of(1u64 << order) {
            return Err(LfmError::InvalidFree { offset, order });
        }
        if !self.live.remove(&(offset, order)) {
            // Double free, or a free with the wrong order.
            return Err(LfmError::InvalidFree { offset, order });
        }
        self.allocated_pages -= 1u64 << order;
        let mut off = offset;
        let mut k = order;
        while k < self.max_order {
            let buddy = off ^ (1u64 << k);
            if !self.free[k as usize].remove(&buddy) {
                break;
            }
            off = off.min(buddy);
            k += 1;
        }
        self.free[k as usize].insert(off);
        Ok(())
    }

    /// Live blocks in `(page_offset, order)` order.
    pub fn live_blocks(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.live.iter().copied()
    }

    /// Full structural audit: every page is covered by exactly one free
    /// or live block, blocks are aligned and in range, and the
    /// allocated-page count matches the live set.  `O(total_pages)` —
    /// meant for recovery and tests, not the allocation hot path.
    pub fn verify(&self) -> Result<()> {
        let total = self.total_pages();
        let mut covered = vec![false; total as usize];
        let mark = |off: u64, ord: u32, what: &str, covered: &mut [bool]| -> Result<()> {
            if ord > self.max_order
                || !off.is_multiple_of(1u64 << ord)
                || off + (1u64 << ord) > total
            {
                return Err(LfmError::CorruptMetadata(format!(
                    "{what} block (page {off}, order {ord}) violates device geometry"
                )));
            }
            for p in off..off + (1u64 << ord) {
                if covered[p as usize] {
                    return Err(LfmError::CorruptMetadata(format!(
                        "page {p} covered twice ({what} block at page {off}, order {ord})"
                    )));
                }
                covered[p as usize] = true;
            }
            Ok(())
        };
        for (k, set) in self.free.iter().enumerate() {
            for &off in set {
                mark(off, k as u32, "free", &mut covered)?;
            }
        }
        let mut live_pages = 0u64;
        for &(off, ord) in &self.live {
            mark(off, ord, "live", &mut covered)?;
            live_pages += 1u64 << ord;
        }
        if let Some(p) = covered.iter().position(|c| !c) {
            return Err(LfmError::CorruptMetadata(format!(
                "page {p} leaked: covered by neither a free nor a live block"
            )));
        }
        if live_pages != self.allocated_pages {
            return Err(LfmError::CorruptMetadata(format!(
                "allocated-page count {} disagrees with live blocks ({live_pages} pages)",
                self.allocated_pages
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn order_for_pages_rounds_up() {
        assert_eq!(BuddyAllocator::order_for_pages(0), 0);
        assert_eq!(BuddyAllocator::order_for_pages(1), 0);
        assert_eq!(BuddyAllocator::order_for_pages(2), 1);
        assert_eq!(BuddyAllocator::order_for_pages(3), 2);
        assert_eq!(BuddyAllocator::order_for_pages(4), 2);
        assert_eq!(BuddyAllocator::order_for_pages(5), 3);
        assert_eq!(BuddyAllocator::order_for_pages(513), 10);
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut b = BuddyAllocator::new(6); // 64 pages
        let a0 = b.allocate(3).unwrap(); // 8 pages
        let a1 = b.allocate(2).unwrap(); // 4
        let a2 = b.allocate(3).unwrap(); // 8
        let a3 = b.allocate(0).unwrap(); // 1
        let blocks = [(a0, 8u64), (a1, 4), (a2, 8), (a3, 1)];
        for &(off, len) in &blocks {
            assert_eq!(off % len, 0, "block at {off} not aligned to {len}");
        }
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                let (o1, l1) = blocks[i];
                let (o2, l2) = blocks[j];
                assert!(o1 + l1 <= o2 || o2 + l2 <= o1, "blocks overlap");
            }
        }
        assert_eq!(b.allocated_pages(), 21);
        b.verify().unwrap();
    }

    #[test]
    fn exhaustion_and_recovery() {
        let mut b = BuddyAllocator::new(4); // 16 pages
        let whole = b.allocate(4).unwrap();
        assert_eq!(whole, 0);
        assert!(matches!(b.allocate(0), Err(LfmError::OutOfSpace { .. })));
        b.free(whole, 4).unwrap();
        assert_eq!(b.allocate(4).unwrap(), 0);
    }

    #[test]
    fn coalescing_restores_the_full_block() {
        let mut b = BuddyAllocator::new(5); // 32 pages
        let mut blocks: Vec<u64> = (0..8).map(|_| b.allocate(2).unwrap()).collect();
        assert!(b.allocate(2).is_err());
        // Free in a scrambled order; buddies must coalesce all the way up.
        for &i in &[3usize, 0, 7, 2, 5, 1, 6, 4] {
            b.free(blocks[i], 2).unwrap();
        }
        blocks.clear();
        assert_eq!(b.allocate(5).unwrap(), 0, "full block must be whole again");
        assert_eq!(b.allocated_pages(), b.total_pages());
    }

    #[test]
    fn requests_beyond_device_fail() {
        let mut b = BuddyAllocator::new(3);
        assert!(matches!(b.allocate(4), Err(LfmError::OutOfSpace { .. })));
    }

    #[test]
    fn double_free_is_an_error_not_corruption() {
        let mut b = BuddyAllocator::new(3);
        let blk = b.allocate(1).unwrap();
        b.free(blk, 1).unwrap();
        assert_eq!(b.free(blk, 1), Err(LfmError::InvalidFree { offset: blk, order: 1 }));
        // The failed free must not have perturbed the free lists.
        b.verify().unwrap();
        assert_eq!(b.allocate(3).unwrap(), 0, "device is whole again");
    }

    #[test]
    fn misaligned_free_is_an_error() {
        let mut b = BuddyAllocator::new(3);
        let _ = b.allocate(0).unwrap();
        assert_eq!(b.free(1, 1), Err(LfmError::InvalidFree { offset: 1, order: 1 }));
        assert_eq!(b.free(3, 2), Err(LfmError::InvalidFree { offset: 3, order: 2 }));
        b.verify().unwrap();
    }

    #[test]
    fn free_with_wrong_order_is_an_error() {
        let mut b = BuddyAllocator::new(4);
        let blk = b.allocate(2).unwrap();
        assert!(matches!(b.free(blk, 1), Err(LfmError::InvalidFree { .. })));
        assert!(matches!(b.free(blk, 5), Err(LfmError::InvalidFree { .. })));
        b.free(blk, 2).unwrap();
        b.verify().unwrap();
    }

    #[test]
    fn allocate_at_pins_specific_blocks() {
        // Rebuild the allocator state of a directory with blocks at
        // pages 8 (order 3) and 4 (order 2), in arbitrary order.
        let mut b = BuddyAllocator::new(4);
        b.allocate_at(8, 3).unwrap();
        b.allocate_at(4, 2).unwrap();
        b.verify().unwrap();
        assert_eq!(b.allocated_pages(), 12);
        // A double allocation of covered pages must fail.
        assert!(matches!(b.allocate_at(8, 3), Err(LfmError::CorruptMetadata(_))));
        assert!(matches!(b.allocate_at(10, 1), Err(LfmError::CorruptMetadata(_))));
        assert!(matches!(b.allocate_at(0, 5), Err(LfmError::CorruptMetadata(_))));
        // The remaining free space is still usable.
        assert_eq!(b.allocate(2).unwrap(), 0);
        b.verify().unwrap();
    }

    #[test]
    fn allocate_at_matches_allocate_then_free_roundtrip() {
        let mut a = BuddyAllocator::new(6);
        let offs: Vec<u64> = (0..5).map(|k| a.allocate(k % 3).unwrap()).collect();
        // Rebuild the same layout with allocate_at in reverse order.
        let mut b = BuddyAllocator::new(6);
        for (i, &off) in offs.iter().enumerate().rev() {
            b.allocate_at(off, (i as u32) % 3).unwrap();
        }
        b.verify().unwrap();
        assert_eq!(a.allocated_pages(), b.allocated_pages());
        // And both can free everything back to one block.
        for (i, &off) in offs.iter().enumerate() {
            a.free(off, (i as u32) % 3).unwrap();
            b.free(off, (i as u32) % 3).unwrap();
        }
        assert_eq!(a.allocate(6).unwrap(), 0);
        assert_eq!(b.allocate(6).unwrap(), 0);
    }

    proptest! {
        /// Random alloc/free traffic: blocks never overlap, accounting
        /// stays consistent, and freeing everything restores one block.
        #[test]
        fn random_traffic_preserves_invariants(
            ops in proptest::collection::vec((0u32..5, any::<bool>()), 1..200),
        ) {
            let mut b = BuddyAllocator::new(8); // 256 pages
            let mut live: Vec<(u64, u32)> = Vec::new();
            for (order, is_alloc) in ops {
                if is_alloc || live.is_empty() {
                    if let Ok(off) = b.allocate(order) {
                        // check disjointness against all live blocks
                        let len = 1u64 << order;
                        for &(o, k) in &live {
                            let l = 1u64 << k;
                            prop_assert!(off + len <= o || o + l <= off,
                                "overlap: new ({off},{len}) vs live ({o},{l})");
                        }
                        prop_assert_eq!(off % len, 0);
                        live.push((off, order));
                    }
                } else {
                    let (off, k) = live.swap_remove(live.len() / 2);
                    b.free(off, k).unwrap();
                }
                let live_pages: u64 = live.iter().map(|&(_, k)| 1u64 << k).sum();
                prop_assert_eq!(b.allocated_pages(), live_pages);
            }
            b.verify().unwrap();
            for (off, k) in live.drain(..) {
                b.free(off, k).unwrap();
            }
            prop_assert_eq!(b.allocated_pages(), 0);
            let mut b2 = b;
            prop_assert_eq!(b2.allocate(8).unwrap(), 0);
        }
    }
}
