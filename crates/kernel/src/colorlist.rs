//! The `color_list[MEM_ID][cache_ID]` matrix and Algorithm 2.
//!
//! The paper (§III.C): *"TintMalloc maintains a free list and 128\*32 color
//! lists simultaneously inside the Linux kernel. Those color lists are
//! defined as a matrix of color_list\[MEM_ID\]\[cache_ID\]. At boot-up, these
//! color lists are empty, all free pages are in the non-colored free list of
//! the buddy allocator."* Algorithm 2 (`create_color_list`) moves one buddy
//! block into the matrix: the block of `2^order` pages is separated into
//! single 4 KiB pages, each appended to the list matching its (bank color,
//! LLC color).

use std::collections::VecDeque;
use tint_hw::addrmap::AddressMapping;
use tint_hw::decoder::FrameDecoder;
use tint_hw::types::{BankColor, FrameNumber, LlcColor};

/// First set bit of `words` at an index ≥ `start`, wrapping around — the
/// same list a cursor-based linear scan over all bits would find. Padding
/// bits above the logical bit count are never set.
#[inline]
fn first_set_from(words: &[u64], start: usize) -> Option<usize> {
    let sw = start / 64;
    let above = words[sw] >> (start % 64);
    if above != 0 {
        return Some(start + above.trailing_zeros() as usize);
    }
    // Remaining words in wrap order; revisiting word `sw` last also covers
    // its bits *below* `start` (its bits at/above were just ruled out).
    for i in 1..=words.len() {
        let idx = (sw + i) % words.len();
        let w = words[idx];
        if w != 0 {
            return Some(idx * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

/// The matrix of per-(bank color, LLC color) page free lists.
///
/// Alongside the lists the matrix keeps two bitset indexes of the non-empty
/// lists — the LLC colors non-empty per bank color and the bank colors
/// non-empty per LLC color — so the any-color pops
/// ([`pop_bank`](Self::pop_bank), [`pop_llc`](Self::pop_llc)) find their
/// victim with a shift and a trailing-zeros count instead of scanning up to
/// `bank_color_count` lists.
///
/// A third index, a bitset with one bit per frame, records which frames
/// are parked at all, making [`contains_frame`](Self::contains_frame) one
/// load and giving the incremental auditor 64 memberships per word. It
/// grows lazily to the highest frame ever parked, so a machine whose color
/// lists only ever hold low frames never pays for a whole-memory bitset.
#[derive(Debug, Clone)]
pub struct ColorMatrix {
    /// `lists[bank_color][llc_color]` — FIFO page lists.
    lists: Vec<Vec<VecDeque<FrameNumber>>>,
    /// Per bank color, `llc_words` words: bit `l` set ⇔ `lists[b][l]`
    /// is non-empty.
    nonempty_llc: Vec<u64>,
    /// Per LLC color, `bank_words` words: bit `b` set ⇔ `lists[b][l]`
    /// is non-empty.
    nonempty_bank: Vec<u64>,
    /// Words per bank color in `nonempty_llc`.
    llc_words: usize,
    /// Words per LLC color in `nonempty_bank`.
    bank_words: usize,
    /// Bit `f % 64` of word `f / 64` set ⇔ frame `f` is in some list.
    /// Words past the end are all clear.
    member: Vec<u64>,
    mapping: AddressMapping,
    /// LUT decoder for `mapping`: every frame sorted into or probed in the
    /// matrix is one table load, not a field-by-field decode.
    decoder: FrameDecoder,
    /// Pages currently held across all lists.
    pages: u64,
}

impl ColorMatrix {
    /// Empty matrix for a mapping (the boot-up state).
    pub fn new(mapping: AddressMapping) -> Self {
        let banks = mapping.bank_color_count();
        let llcs = mapping.llc_color_count();
        let llc_words = llcs.div_ceil(64);
        let bank_words = banks.div_ceil(64);
        Self {
            lists: vec![vec![VecDeque::new(); llcs]; banks],
            nonempty_llc: vec![0; banks * llc_words],
            nonempty_bank: vec![0; llcs * bank_words],
            llc_words,
            bank_words,
            member: Vec::new(),
            decoder: FrameDecoder::new(&mapping),
            mapping,
            pages: 0,
        }
    }

    /// Record that `lists[b][l]` just became non-empty.
    #[inline]
    fn mark_nonempty(&mut self, b: usize, l: usize) {
        self.nonempty_llc[b * self.llc_words + l / 64] |= 1u64 << (l % 64);
        self.nonempty_bank[l * self.bank_words + b / 64] |= 1u64 << (b % 64);
    }

    /// Record that `lists[b][l]` just became empty.
    #[inline]
    fn mark_empty(&mut self, b: usize, l: usize) {
        self.nonempty_llc[b * self.llc_words + l / 64] &= !(1u64 << (l % 64));
        self.nonempty_bank[l * self.bank_words + b / 64] &= !(1u64 << (b % 64));
    }

    /// Record that `frame` was just parked.
    #[inline]
    fn set_member(&mut self, frame: FrameNumber) {
        let w = (frame.0 / 64) as usize;
        if w >= self.member.len() {
            self.member.resize(w + 1, 0);
        }
        self.member[w] |= 1u64 << (frame.0 % 64);
    }

    /// Record that `frame` just left the lists.
    #[inline]
    fn clear_member(&mut self, frame: FrameNumber) {
        self.member[(frame.0 / 64) as usize] &= !(1u64 << (frame.0 % 64));
    }

    /// Total pages held in color lists.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Pages held in one specific list.
    pub fn len(&self, bc: BankColor, llc: LlcColor) -> usize {
        self.lists[bc.index()][llc.index()].len()
    }

    /// True when every list is empty.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// **Algorithm 2** — `create_color_list(order, page)`: separate the
    /// buddy block starting at `head` into `2^order` single pages and append
    /// each to the color list matching its decoded colors. Returns the page
    /// count moved.
    pub fn create_color_list(&mut self, order: u32, head: FrameNumber) -> u64 {
        let n = 1u64 << order;
        for i in 0..n {
            let f = FrameNumber(head.0 + i);
            let d = self.decoder.info(f);
            let (b, l) = (d.bank_color as usize, d.llc_color as usize);
            self.lists[b][l].push_back(f);
            self.mark_nonempty(b, l);
            self.set_member(f);
        }
        self.pages += n;
        n
    }

    /// Append one page (a colored free()): the paper — "calls to free heap
    /// space by the application cause the kernel to add pages to the
    /// corresponding colored free lists".
    pub fn push(&mut self, frame: FrameNumber) {
        let d = self.decoder.decode_frame(frame);
        let (b, l) = (d.bank_color.index(), d.llc_color.index());
        self.lists[b][l].push_back(frame);
        self.mark_nonempty(b, l);
        self.set_member(frame);
        self.pages += 1;
    }

    /// Pop a page of exactly this (bank color, LLC color).
    pub fn pop(&mut self, bc: BankColor, llc: LlcColor) -> Option<FrameNumber> {
        let (b, l) = (bc.index(), llc.index());
        let f = self.lists[b][l].pop_front()?;
        if self.lists[b][l].is_empty() {
            self.mark_empty(b, l);
        }
        self.clear_member(f);
        self.pages -= 1;
        Some(f)
    }

    /// Pop a page whose bank color is `bc` with *any* LLC color (MEM-only
    /// coloring), round-robining across LLC colors starting at `cursor` to
    /// spread usage. Returns the page and the LLC color it came from.
    pub fn pop_bank(&mut self, bc: BankColor, cursor: usize) -> Option<(FrameNumber, LlcColor)> {
        let b = bc.index();
        let words = &self.nonempty_llc[b * self.llc_words..(b + 1) * self.llc_words];
        // First non-empty LLC color at/after the cursor, wrapping — the same
        // list the linear scan would have found.
        let c = cursor % self.mapping.llc_color_count();
        let l = first_set_from(words, c)?;
        // A set index bit over an empty list means the bitset drifted from
        // the lists. Heal the stale bit and report exhaustion instead of
        // aborting; the debug invariant checker still flags the drift.
        let Some(f) = self.pop(bc, LlcColor(l as u16)) else {
            self.mark_empty(bc.index(), l);
            return None;
        };
        Some((f, LlcColor(l as u16)))
    }

    /// Pop a page whose LLC color is `llc` with *any* bank color (LLC-only
    /// coloring), round-robining across bank colors starting at `cursor`.
    pub fn pop_llc(&mut self, llc: LlcColor, cursor: usize) -> Option<(FrameNumber, BankColor)> {
        let l = llc.index();
        let words = &self.nonempty_bank[l * self.bank_words..(l + 1) * self.bank_words];
        let c = cursor % self.mapping.bank_color_count();
        let b = first_set_from(words, c)?;
        let Some(f) = self.pop(BankColor(b as u16), llc) else {
            self.mark_empty(b, llc.index());
            return None;
        };
        Some((f, BankColor(b as u16)))
    }

    /// Drain every list (last colored task exited): return all parked pages
    /// in deterministic bank-major, LLC-minor, FIFO order so the caller can
    /// hand them back to the buddy allocator. Resets every index and the
    /// page counter — the matrix returns to its boot-up state (the
    /// membership bitset keeps its grown length, all clear).
    pub fn drain_all(&mut self) -> Vec<FrameNumber> {
        let mut out = Vec::with_capacity(self.pages as usize);
        for row in &mut self.lists {
            for list in row {
                out.extend(list.drain(..));
            }
        }
        // Every parked frame is in `out`: zeroing their words clears the
        // index without touching words that were never set.
        for &f in &out {
            self.member[(f.0 / 64) as usize] = 0;
        }
        self.nonempty_llc.iter_mut().for_each(|w| *w = 0);
        self.nonempty_bank.iter_mut().for_each(|w| *w = 0);
        self.pages = 0;
        out
    }

    /// The mapping used to decode frames.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The LUT decoder the matrix sorts frames with (built once, at boot).
    pub fn decoder(&self) -> &FrameDecoder {
        &self.decoder
    }

    /// Is `frame` currently parked in a color list? One bitset load, O(1).
    pub fn contains_frame(&self, frame: FrameNumber) -> bool {
        self.member_word(frame.0 / 64) >> (frame.0 % 64) & 1 == 1
    }

    /// Membership of frames `64 * word .. 64 * word + 64` as a bitmask (bit
    /// `i` set ⇔ frame `64 * word + i` is parked) — the incremental
    /// auditor's word-at-a-time probe. Zero beyond the grown bitset.
    pub fn member_word(&self, word: u64) -> u64 {
        self.member.get(word as usize).copied().unwrap_or(0)
    }

    /// Iterate over every frame currently held in any color list (for
    /// whole-kernel frame accounting).
    pub fn iter_frames(&self) -> impl Iterator<Item = FrameNumber> + '_ {
        self.lists
            .iter()
            .flat_map(|row| row.iter().flat_map(|list| list.iter().copied()))
    }

    /// Check structural invariants: every page sits in the list matching its
    /// decoded colors, the page count is consistent, and the non-empty and
    /// membership indexes agree with the lists — every listed frame has its
    /// membership bit, and the bits number exactly the pages.
    pub fn check_invariants(&self) {
        let mut total = 0u64;
        for (b, row) in self.lists.iter().enumerate() {
            for (l, list) in row.iter().enumerate() {
                for &f in list {
                    let d = self.decoder.decode_frame(f);
                    assert_eq!(d.bank_color.index(), b, "page {f} in wrong bank list");
                    assert_eq!(d.llc_color.index(), l, "page {f} in wrong LLC list");
                    assert!(
                        self.contains_frame(f),
                        "membership index lost listed page {f}"
                    );
                }
                total += list.len() as u64;
                let nonempty = !list.is_empty();
                assert_eq!(
                    self.nonempty_llc[b * self.llc_words + l / 64] >> (l % 64) & 1 == 1,
                    nonempty,
                    "LLC non-empty index out of sync at ({b},{l})"
                );
                assert_eq!(
                    self.nonempty_bank[l * self.bank_words + b / 64] >> (b % 64) & 1 == 1,
                    nonempty,
                    "bank non-empty index out of sync at ({b},{l})"
                );
            }
        }
        assert_eq!(total, self.pages, "page count drifted");
        let members: u64 = self.member.iter().map(|w| w.count_ones() as u64).sum();
        assert_eq!(
            members, self.pages,
            "membership index holds {members} frames for {} listed pages",
            self.pages
        );
    }

    /// Set `frame`'s membership bit without listing it (negative tests).
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn corrupt_member_bit(&mut self, frame: FrameNumber) {
        self.set_member(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> ColorMatrix {
        ColorMatrix::new(AddressMapping::tiny())
    }

    #[test]
    fn starts_empty() {
        let m = matrix();
        assert!(m.is_empty());
        assert_eq!(m.pages(), 0);
    }

    #[test]
    fn create_color_list_sorts_pages_by_color() {
        let mut m = matrix();
        // Tiny mapping: 4 bank colors × 4 LLC colors = 16 combos; an order-4
        // block (16 pages, aligned) covers each combo exactly once.
        let moved = m.create_color_list(4, FrameNumber(0));
        assert_eq!(moved, 16);
        assert_eq!(m.pages(), 16);
        for b in 0..4 {
            for l in 0..4 {
                assert_eq!(m.len(BankColor(b), LlcColor(l)), 1, "combo ({b},{l})");
            }
        }
        m.check_invariants();
    }

    #[test]
    fn pop_exact_color() {
        let mut m = matrix();
        m.create_color_list(4, FrameNumber(0));
        let f = m.pop(BankColor(2), LlcColor(3)).unwrap();
        let d = m.mapping().decode_frame(f);
        assert_eq!(d.bank_color, BankColor(2));
        assert_eq!(d.llc_color, LlcColor(3));
        assert_eq!(
            m.pop(BankColor(2), LlcColor(3)),
            None,
            "only one page of that combo"
        );
        m.check_invariants();
    }

    #[test]
    fn pop_is_fifo() {
        let mut m = matrix();
        // Two order-4 blocks: each combo now has two pages, block-0's first.
        m.create_color_list(4, FrameNumber(0));
        m.create_color_list(4, FrameNumber(16));
        let f1 = m.pop(BankColor(0), LlcColor(0)).unwrap();
        let f2 = m.pop(BankColor(0), LlcColor(0)).unwrap();
        assert!(f1.0 < f2.0, "FIFO: first block's page first");
    }

    #[test]
    fn pop_bank_round_robins_llc() {
        let mut m = matrix();
        m.create_color_list(4, FrameNumber(0));
        let (_, l0) = m.pop_bank(BankColor(1), 0).unwrap();
        let (_, l1) = m.pop_bank(BankColor(1), 1).unwrap();
        assert_eq!(l0, LlcColor(0));
        assert_eq!(l1, LlcColor(1));
        // Cursor pointing at an exhausted color falls through to the next.
        let (_, l2) = m.pop_bank(BankColor(1), 0).unwrap();
        assert_eq!(l2, LlcColor(2));
    }

    #[test]
    fn pop_llc_round_robins_banks() {
        let mut m = matrix();
        m.create_color_list(4, FrameNumber(0));
        let (f, b) = m.pop_llc(LlcColor(2), 3).unwrap();
        assert_eq!(b, BankColor(3));
        assert_eq!(m.mapping().decode_frame(f).llc_color, LlcColor(2));
    }

    #[test]
    fn pop_exhausted_returns_none() {
        let mut m = matrix();
        assert_eq!(m.pop(BankColor(0), LlcColor(0)), None);
        assert_eq!(m.pop_bank(BankColor(0), 0), None);
        assert_eq!(m.pop_llc(LlcColor(0), 0), None);
    }

    #[test]
    fn push_returns_page_to_its_list() {
        let mut m = matrix();
        m.create_color_list(4, FrameNumber(0));
        let f = m.pop(BankColor(1), LlcColor(1)).unwrap();
        m.push(f);
        assert_eq!(m.len(BankColor(1), LlcColor(1)), 1);
        m.check_invariants();
    }

    #[test]
    fn drain_all_empties_the_matrix_deterministically() {
        let mut m = matrix();
        m.create_color_list(4, FrameNumber(0));
        let drained = m.drain_all();
        assert_eq!(drained.len(), 16);
        assert!(m.is_empty());
        assert_eq!(m.pages(), 0);
        m.check_invariants();
        // Deterministic: a second identically-built matrix drains the same.
        let mut m2 = matrix();
        m2.create_color_list(4, FrameNumber(0));
        assert_eq!(m2.drain_all(), drained);
        // Drained matrix behaves like a boot-fresh one.
        assert_eq!(m.pop_bank(BankColor(0), 0), None);
        m.push(FrameNumber(3));
        assert_eq!(m.pages(), 1);
        m.check_invariants();
    }

    #[test]
    fn membership_index_tracks_push_pop_and_drain() {
        let mut m = matrix();
        assert!(
            !m.contains_frame(FrameNumber(5)),
            "empty matrix parks nothing"
        );
        m.create_color_list(4, FrameNumber(64));
        assert!((64..80).all(|f| m.contains_frame(FrameNumber(f))));
        assert!(!m.contains_frame(FrameNumber(80)));
        assert!(
            !m.contains_frame(FrameNumber(1 << 20)),
            "beyond the grown bitset"
        );
        let f = m.pop(BankColor(1), LlcColor(1)).unwrap();
        assert!(!m.contains_frame(f), "pop clears the bit");
        m.push(f);
        assert!(m.contains_frame(f), "push sets it again");
        m.check_invariants();
        m.drain_all();
        assert!((64..80).all(|f| !m.contains_frame(FrameNumber(f))));
        m.check_invariants();
    }

    #[test]
    #[should_panic(expected = "membership index holds 17 frames for 16 listed pages")]
    fn check_invariants_catches_a_phantom_membership_bit() {
        let mut m = matrix();
        m.create_color_list(4, FrameNumber(0));
        m.corrupt_member_bit(FrameNumber(100));
        m.check_invariants();
    }

    #[test]
    #[should_panic(expected = "membership index lost listed page")]
    fn check_invariants_catches_a_lost_membership_bit() {
        let mut m = matrix();
        m.create_color_list(4, FrameNumber(0));
        m.clear_member(FrameNumber(3));
        m.check_invariants();
    }

    #[test]
    fn iter_frames_covers_every_list() {
        let mut m = matrix();
        m.create_color_list(4, FrameNumber(0));
        let mut frames: Vec<u64> = m.iter_frames().map(|f| f.0).collect();
        frames.sort();
        assert_eq!(frames, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn desynced_index_pops_none_and_heals() {
        // Force the failure the old code aborted on: an index bit set over
        // an empty list. The pops must report exhaustion, not panic, and
        // clear the stale bit so later pops stay O(1).
        let mut m = matrix();
        m.mark_nonempty(1, 2);
        assert_eq!(m.pop_bank(BankColor(1), 0), None);
        // Bank 1's index word (llc_words per bank), bit for LLC color 2.
        assert_eq!(
            m.nonempty_llc[m.llc_words] >> 2 & 1,
            0,
            "pop_bank healed the stale LLC-index bit"
        );
        m.mark_nonempty(1, 2);
        assert_eq!(m.pop_llc(LlcColor(2), 0), None);
        m.check_invariants();
    }

    #[test]
    fn eight_node_mapping_exceeds_one_index_word() {
        // The portability preset has 256 bank colors — more than one u64
        // word of non-empty index per LLC color. Exercise the multi-word
        // wrap-scan: populate two far-apart bank colors of one LLC color
        // and pop with cursors on both sides of each.
        let mapping = tint_hw::machine::MachineConfig::eight_node().mapping;
        assert!(mapping.bank_color_count() > 128);
        let mut m = ColorMatrix::new(mapping);
        let llc = LlcColor(0);
        let (lo, hi) = (BankColor(3), BankColor(200));
        let f_lo = m.mapping().compose_frame(lo, llc, 0);
        let f_hi = m.mapping().compose_frame(hi, llc, 0);
        m.push(f_lo);
        m.push(f_hi);
        m.check_invariants();
        // Cursor past the low color wraps to the high one and back.
        let (_, b) = m.pop_llc(llc, 100).unwrap();
        assert_eq!(b, hi);
        let (_, b) = m.pop_llc(llc, 210).unwrap();
        assert_eq!(b, lo);
        assert!(m.pop_llc(llc, 0).is_none());
        m.check_invariants();
    }

    #[test]
    fn opteron_block_covers_all_colors() {
        // On the Opteron mapping an order-11 block has frames covering all
        // 12 color bits except the top node bit — i.e. half the machine's
        // color combos, 4096/2 = 2048 distinct combos, one page each.
        let mut m = ColorMatrix::new(AddressMapping::opteron_6128());
        let moved = m.create_color_list(11, FrameNumber(0));
        assert_eq!(moved, 2048);
        let mut nonempty = 0;
        for b in 0..128 {
            for l in 0..32 {
                if m.len(BankColor(b), LlcColor(l)) > 0 {
                    nonempty += 1;
                }
            }
        }
        assert_eq!(nonempty, 2048);
        m.check_invariants();
    }
}
