//! The legacy Linux buddy allocator (paper §III.C).
//!
//! Memory is partitioned into "buddies" of exponentially increasing sizes
//! (`2^(12+order)` bytes). An allocation is served from the matching order's
//! free list or by splitting the next larger buddy; a free coalesces with its
//! buddy recursively. Free lists are ordered sets keyed by start frame, so
//! allocation is deterministic (lowest address first) — which is also what
//! makes the *uncolored* baseline walk the physical address space in order
//! and smear a task's pages across LLC colors, banks, and eventually nodes.

use crate::MAX_ORDER;
use std::collections::BTreeSet;
use tint_hw::decoder::FrameMask;
use tint_hw::types::FrameNumber;

/// Order-indexed free lists over a flat frame range `0..frame_count`.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// `free_lists[order]` holds start frames of free `2^order`-page blocks.
    free_lists: Vec<BTreeSet<u64>>,
    frame_count: u64,
    free_pages: u64,
}

impl BuddyAllocator {
    /// Seed the allocator with all of physical memory, split into maximal
    /// aligned blocks.
    pub fn new(frame_count: u64) -> Self {
        let mut b = Self {
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            frame_count,
            free_pages: 0,
        };
        let mut start = 0u64;
        while start < frame_count {
            // Largest order that keeps the block aligned and in range.
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                if start.is_multiple_of(size) && start + size <= frame_count {
                    break;
                }
                order -= 1;
            }
            b.free_lists[order as usize].insert(start);
            b.free_pages += 1 << order;
            start += 1 << order;
        }
        b
    }

    /// Total frames managed.
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Currently free pages (order-0 equivalents).
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Number of free blocks at `order`.
    pub fn free_blocks(&self, order: u32) -> usize {
        self.free_lists[order as usize].len()
    }

    /// Allocate a `2^order`-page block, splitting larger buddies as needed.
    /// Deterministic: always the lowest-addressed candidate.
    pub fn alloc(&mut self, order: u32) -> Option<FrameNumber> {
        assert!(order <= MAX_ORDER);
        // Find the smallest order with a free block.
        let from = (order..=MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty())?;
        let start = *self.free_lists[from as usize].iter().next().unwrap();
        self.free_lists[from as usize].remove(&start);
        // Split down, returning the low half each time and freeing the high
        // half ("any remaining space is added to lower order free lists").
        for o in (order..from).rev() {
            let buddy = start + (1u64 << o);
            self.free_lists[o as usize].insert(buddy);
        }
        self.free_pages -= 1 << order;
        Some(FrameNumber(start))
    }

    /// Remove a *specific* free block from `order`'s list (used by
    /// Algorithm 1 when it picks the buddy block that contains a page of the
    /// required color). Panics if the block is not free at that order.
    pub fn take_block(&mut self, order: u32, start: FrameNumber) -> FrameNumber {
        let removed = self.free_lists[order as usize].remove(&start.0);
        assert!(removed, "block {start} is not free at order {order}");
        self.free_pages -= 1 << order;
        start
    }

    /// Iterate the free blocks at `order`, lowest address first.
    pub fn blocks(&self, order: u32) -> impl Iterator<Item = FrameNumber> + '_ {
        self.free_lists[order as usize]
            .iter()
            .map(|&s| FrameNumber(s))
    }

    /// Insert a block without attempting to coalesce (used when splitting a
    /// larger block whose outside buddy is known to be allocated).
    fn insert_raw(&mut self, start: u64, order: u32) {
        let inserted = self.free_lists[order as usize].insert(start);
        assert!(inserted, "raw insert collides at {start:#x} order {order}");
        self.free_pages += 1 << order;
    }

    /// Allocate one *specific* order-0 frame if it is currently free: locate
    /// the free block containing it, split toward it, and return the
    /// complement halves to the free lists. This is how the NUMA-aware
    /// first-touch path takes the lowest local frame while preserving buddy
    /// structure. Returns `false` when the frame is not free.
    pub fn alloc_specific(&mut self, target: FrameNumber) -> bool {
        if target.0 >= self.frame_count {
            return false;
        }
        for order in 0..=MAX_ORDER {
            let block = target.0 & !((1u64 << order) - 1);
            if self.free_lists[order as usize].remove(&block) {
                self.free_pages -= 1 << order;
                // Split toward the target, freeing the half not containing it.
                let mut start = block;
                let mut o = order;
                while o > 0 {
                    o -= 1;
                    let half = 1u64 << o;
                    if target.0 < start + half {
                        self.insert_raw(start + half, o);
                    } else {
                        self.insert_raw(start, o);
                        start += half;
                    }
                }
                debug_assert_eq!(start, target.0);
                return true;
            }
        }
        false
    }

    /// The lowest-addressed currently-free frame in `mask`, if any.
    /// Deterministic scan over the free blocks (sorted per order); each
    /// block is one [`FrameMask::first_in_block`] query, so the cost is
    /// per block visited, not per frame.
    pub fn lowest_free_in(&self, mask: &FrameMask) -> Option<FrameNumber> {
        let mut best: Option<u64> = None;
        for order in 0..=MAX_ORDER {
            for &start in &self.free_lists[order as usize] {
                if best.is_some_and(|b| start >= b) {
                    break; // sorted: no lower frame in this order's tail
                }
                if let Some(f) = mask.first_in_block(FrameNumber(start), order) {
                    best = Some(f.0);
                    break; // lowest candidate in this order found
                }
            }
        }
        best.map(FrameNumber)
    }

    /// The first free block (lowest order, then lowest address) holding at
    /// least one frame in `mask` — the block Algorithm 1 hands to
    /// `create_color_list`. Also returns how many blocks were examined,
    /// which the kernel charges to the faulting task.
    pub fn first_block_in(&self, mask: &FrameMask) -> (u64, Option<(u32, FrameNumber)>) {
        let mut scanned = 0u64;
        for order in 0..=MAX_ORDER {
            for start in self.blocks(order) {
                scanned += 1;
                if mask.first_in_block(start, order).is_some() {
                    return (scanned, Some((order, start)));
                }
            }
        }
        (scanned, None)
    }

    /// Free a `2^order`-page block, coalescing with free buddies.
    pub fn free(&mut self, frame: FrameNumber, order: u32) {
        assert!(order <= MAX_ORDER);
        let mut start = frame.0;
        assert!(
            start.is_multiple_of(1 << order),
            "misaligned free of {frame} at order {order}"
        );
        assert!(
            start + (1 << order) <= self.frame_count,
            "free beyond memory"
        );
        let mut order = order;
        self.free_pages += 1 << order;
        while order < MAX_ORDER {
            let buddy = start ^ (1u64 << order);
            if buddy + (1 << order) <= self.frame_count
                && self.free_lists[order as usize].remove(&buddy)
            {
                start = start.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        let inserted = self.free_lists[order as usize].insert(start);
        assert!(inserted, "double free of block {start:#x} at order {order}");
    }

    /// The free frames among the 64 starting at `base` (a multiple of 64),
    /// as a bitmask: bit `i` set ⇔ frame `base + i` lies in a free block.
    /// One ordered-set query per order — a `range` for the blocks smaller
    /// than the word, a point lookup for the one block at each larger order
    /// that could cover it — so the incremental auditor pays
    /// `MAX_ORDER + 1` queries per 64 frames, not per frame.
    pub fn free_word(&self, base: u64) -> u64 {
        debug_assert!(base.is_multiple_of(64), "unaligned free-word base {base}");
        let mut word = 0u64;
        for order in 0..=MAX_ORDER {
            let size = 1u64 << order;
            let list = &self.free_lists[order as usize];
            if size >= 64 {
                // Free blocks never overlap: a block covering the word is
                // the only one that can touch it.
                if list.contains(&(base & !(size - 1))) {
                    return u64::MAX;
                }
            } else {
                let ones = (1u64 << size) - 1;
                for &start in list.range(base..base + 64) {
                    word |= ones << (start - base);
                }
            }
        }
        word
    }

    /// Is `frame` currently free (contained in any free block)? One point
    /// lookup per order, O(orders × log blocks) — the per-frame reference
    /// [`Self::free_word`] is tested against.
    pub fn contains_frame(&self, frame: FrameNumber) -> bool {
        if frame.0 >= self.frame_count {
            return false;
        }
        (0..=MAX_ORDER).any(|o| {
            let start = frame.0 & !((1u64 << o) - 1);
            self.free_lists[o as usize].contains(&start)
        })
    }

    /// Check the structural invariants (used by property tests): no overlap,
    /// alignment, and the free-page count matches the lists.
    pub fn check_invariants(&self) {
        let mut total = 0u64;
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for (o, list) in self.free_lists.iter().enumerate() {
            for &s in list {
                let size = 1u64 << o;
                assert!(s % size == 0, "block {s:#x} misaligned at order {o}");
                assert!(s + size <= self.frame_count, "block out of range");
                blocks.push((s, s + size));
                total += size;
            }
        }
        assert_eq!(total, self.free_pages, "free-page count drifted");
        blocks.sort();
        for w in blocks.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping free blocks {w:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_hw::addrmap::AddressMapping;
    use tint_hw::decoder::{FrameDecoder, FrameInfo};

    #[test]
    fn seeds_full_memory() {
        let b = BuddyAllocator::new(1 << 14);
        assert_eq!(b.free_pages(), 1 << 14);
        assert_eq!(b.free_blocks(MAX_ORDER), (1 << 14) >> MAX_ORDER);
        b.check_invariants();
    }

    #[test]
    fn seeds_unaligned_tail() {
        // 3000 frames: not a power of two — seeded as a mix of orders.
        let b = BuddyAllocator::new(3000);
        assert_eq!(b.free_pages(), 3000);
        b.check_invariants();
    }

    #[test]
    fn alloc_splits_and_free_coalesces() {
        let mut b = BuddyAllocator::new(1 << MAX_ORDER);
        let f = b.alloc(0).unwrap();
        assert_eq!(f, FrameNumber(0), "lowest address first");
        assert_eq!(b.free_pages(), (1 << MAX_ORDER) - 1);
        b.check_invariants();
        b.free(f, 0);
        assert_eq!(b.free_pages(), 1 << MAX_ORDER);
        // Everything coalesced back into one max-order block.
        assert_eq!(b.free_blocks(MAX_ORDER), 1);
        b.check_invariants();
    }

    #[test]
    fn alloc_order_matches_size() {
        let mut b = BuddyAllocator::new(1 << 12);
        let f = b.alloc(3).unwrap();
        assert_eq!(f.0 % 8, 0, "order-3 block is 8-page aligned");
        assert_eq!(b.free_pages(), (1 << 12) - 8);
    }

    #[test]
    fn sequential_allocs_walk_addresses_upward() {
        let mut b = BuddyAllocator::new(1 << 12);
        let f1 = b.alloc(0).unwrap();
        let f2 = b.alloc(0).unwrap();
        let f3 = b.alloc(0).unwrap();
        assert!(
            f1.0 < f2.0 && f2.0 < f3.0,
            "the uncolored baseline walks upward"
        );
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = BuddyAllocator::new(4);
        assert!(b.alloc(2).is_some());
        assert!(b.alloc(0).is_none());
    }

    #[test]
    fn take_block_removes_specific() {
        let mut b = BuddyAllocator::new(1 << 12);
        let blocks: Vec<_> = b.blocks(MAX_ORDER).collect();
        assert_eq!(blocks.len(), 2);
        let second = blocks[1];
        b.take_block(MAX_ORDER, second);
        assert_eq!(b.free_blocks(MAX_ORDER), 1);
        assert_eq!(b.blocks(MAX_ORDER).next(), Some(blocks[0]));
        b.check_invariants();
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn take_block_of_allocated_panics() {
        let mut b = BuddyAllocator::new(1 << 12);
        let f = b.alloc(MAX_ORDER).unwrap();
        b.take_block(MAX_ORDER, f);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(1 << 12);
        let f0 = b.alloc(0).unwrap();
        let _f1 = b.alloc(0).unwrap();
        // f1 stays allocated so f0 cannot coalesce away; the second free of
        // f0 is a detectable duplicate insert.
        b.free(f0, 0);
        b.free(f0, 0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_free_panics() {
        let mut b = BuddyAllocator::new(1 << 12);
        b.free(FrameNumber(1), 3);
    }

    #[test]
    fn alloc_specific_takes_exact_frame() {
        let mut b = BuddyAllocator::new(1 << 12);
        assert!(b.alloc_specific(FrameNumber(1234)));
        assert_eq!(b.free_pages(), (1 << 12) - 1);
        b.check_invariants();
        // The frame is gone: a second specific alloc fails.
        assert!(!b.alloc_specific(FrameNumber(1234)));
        // Freeing restores full coalescing.
        b.free(FrameNumber(1234), 0);
        assert_eq!(b.free_blocks(MAX_ORDER), 2);
        b.check_invariants();
    }

    #[test]
    fn alloc_specific_out_of_range_fails() {
        let mut b = BuddyAllocator::new(16);
        assert!(!b.alloc_specific(FrameNumber(16)));
    }

    fn tiny_mask(pred: impl Fn(FrameInfo) -> bool) -> FrameMask {
        FrameDecoder::new(&AddressMapping::tiny()).mask(pred)
    }

    #[test]
    fn lowest_free_in_scans_ascending() {
        let mut b = BuddyAllocator::new(1 << 12);
        // Tiny mapping: the node is frame bit 3, so node 1 is 8–15, 24–31, …
        let mask = tiny_mask(|i| i.node == 1);
        assert_eq!(b.lowest_free_in(&mask), Some(FrameNumber(8)));
        assert!(b.alloc_specific(FrameNumber(8)));
        assert_eq!(b.lowest_free_in(&mask), Some(FrameNumber(9)));
    }

    #[test]
    fn lowest_free_in_none_when_no_match() {
        let b = BuddyAllocator::new(16);
        assert_eq!(b.lowest_free_in(&tiny_mask(|_| false)), None);
        assert_eq!(b.first_block_in(&tiny_mask(|_| false)), (1, None));
    }

    #[test]
    fn first_block_in_counts_blocks_scanned() {
        let mut b = BuddyAllocator::new(1 << 12);
        // Leave order-0 holes at frames 1 and 5, both on node 0.
        for f in [0, 2, 3, 4, 6, 7] {
            assert!(b.alloc_specific(FrameNumber(f)));
        }
        // Node 0 is in the first order-0 block scanned.
        let node0 = tiny_mask(|i| i.node == 0);
        assert_eq!(b.first_block_in(&node0), (1, Some((0, FrameNumber(1)))));
        // Node 1 skips both holes and finds the order-3 block at 8.
        let node1 = tiny_mask(|i| i.node == 1);
        assert_eq!(b.first_block_in(&node1), (3, Some((3, FrameNumber(8)))));
    }

    #[test]
    fn sequential_specific_allocs_are_contiguous() {
        // The NUMA-aware first-touch pattern: repeatedly take the lowest
        // matching frame — a burst receives a contiguous run.
        let mut b = BuddyAllocator::new(1 << 12);
        let all = tiny_mask(|_| true);
        let mut got = Vec::new();
        for _ in 0..8 {
            let f = b.lowest_free_in(&all).unwrap();
            assert!(b.alloc_specific(f));
            got.push(f.0);
        }
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        b.check_invariants();
    }

    #[test]
    fn free_in_any_order_coalesces_fully() {
        let mut b = BuddyAllocator::new(64);
        let frames: Vec<_> = (0..64).map(|_| b.alloc(0).unwrap()).collect();
        assert_eq!(b.free_pages(), 0);
        // Free even frames first, then odd — exercises deferred coalescing.
        for f in frames.iter().filter(|f| f.0 % 2 == 0) {
            b.free(*f, 0);
        }
        b.check_invariants();
        for f in frames.iter().filter(|f| f.0 % 2 == 1) {
            b.free(*f, 0);
        }
        assert_eq!(b.free_pages(), 64);
        assert_eq!(
            b.free_blocks(6.min(MAX_ORDER)),
            if MAX_ORDER >= 6 { 1 } else { 0 }
        );
        b.check_invariants();
    }
}
