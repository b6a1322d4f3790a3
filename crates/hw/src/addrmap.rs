//! Physical-address bit mapping and the paper's color algebra.
//!
//! TintMalloc (§III.A) selects physical frames by decoding the bit-level
//! translation a memory controller applies to a physical address:
//! node (controller), channel, rank, bank, row, column — plus the LLC set
//! index bits that determine the *LLC color*.
//!
//! The paper's equation (1) flattens the DRAM coordinate into a single
//! *bank color*:
//!
//! ```text
//! bc = ((node * NC + channel) * NR + rank) * NB + bank
//! ```
//!
//! (the paper's printed form contains an extra `NN` factor — a typo: the
//! standard mixed-radix expansion above is the only form that is a bijection
//! onto `0 .. NN*NC*NR*NB`, which the paper's own count of `2^7 = 128` bank
//! colors requires; see DESIGN.md).
//!
//! ## Bit layout
//!
//! This reproduction uses a *page-granular* layout so that a 4 KiB frame has
//! exactly one bank color and one LLC color (a requirement of the paper's
//! `color_list[MEM_ID][cache_ID]` design). Low to high:
//!
//! ```text
//! [0 .. 12)                        page offset (line offset = [0..line_shift))
//! [12 .. +channel)                 channel select   (page-granular interleave)
//! [.. +bank)                       bank select      (page-granular interleave)
//! [.. +llc)                        LLC color        (Opteron: 5 bits, 16–20)
//! [.. +rank)                       rank select (chip select)
//! [.. +node)                       node / controller select
//! [.. +row)                        DRAM row
//! ```
//!
//! The real Opteron 6128 interleaves ranks below the page boundary (bit 7)
//! and its bank bits (15, 16, 18) sit below/within the LLC index bits — i.e.
//! consecutive pages rotate channels/banks before they change LLC color. A
//! page-coloring allocator cannot use sub-page bits, so the preset hoists the
//! DRAM-coordinate bits just above the page offset, *keeping channel and
//! bank below the LLC color* to retain that low-bit interleave (consecutive
//! frames spread over 16 channel×bank combinations), while keeping the
//! paper's cardinalities (128 bank colors, 32 LLC colors) and keeping the
//! LLC color inside the L3 set-index bit range. DESIGN.md records this
//! substitution.

use crate::types::{
    BankColor, BankId, ChannelId, FrameNumber, LlcColor, NodeId, PhysAddr, RankId, PAGE_SHIFT,
};

/// Widths (in bits) of every field of the physical address, low to high
/// above the page offset. See the module docs for the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    /// log2 of the cache-line size (Opteron: 7, i.e. 128-byte lines).
    pub line_shift: u32,
    /// Width of the LLC color field (Opteron: 5 → 32 colors).
    pub llc_bits: u32,
    /// Width of the channel-select field (Opteron: 1 → 2 channels/controller).
    pub channel_bits: u32,
    /// Width of the rank-select field (Opteron: 1 → 2 ranks/channel).
    pub rank_bits: u32,
    /// Width of the bank-select field (Opteron: 3 → 8 banks/rank).
    pub bank_bits: u32,
    /// Width of the node-select field (Opteron: 2 → 4 controllers).
    pub node_bits: u32,
    /// Width of the row field (Opteron preset: 10 → 1024 rows per bank-color
    /// × LLC-color pair; total capacity 16 GiB).
    pub row_bits: u32,
}

/// A fully decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Memory node / controller.
    pub node: NodeId,
    /// Channel within the controller.
    pub channel: ChannelId,
    /// Rank within the channel.
    pub rank: RankId,
    /// Bank within the rank.
    pub bank: BankId,
    /// DRAM row id within the bank (the row-buffer granule: one row per
    /// 4 KiB frame of the bank — LLC bits are folded into the row id).
    pub row: u64,
    /// Column within the row (the page offset).
    pub col: u64,
    /// Flattened global bank coordinate (paper eq. 1).
    pub bank_color: BankColor,
    /// LLC color (value of the LLC color bit field).
    pub llc_color: LlcColor,
}

/// The page-granular part of a decoded address: everything a frame fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Memory node / controller the frame lives on.
    pub node: NodeId,
    /// Flattened global bank coordinate.
    pub bank_color: BankColor,
    /// LLC color.
    pub llc_color: LlcColor,
    /// DRAM row.
    pub row: u64,
}

impl AddressMapping {
    /// The paper's AMD Opteron 6128 layout: 4 nodes × 2 channels × 2 ranks ×
    /// 8 banks = 128 bank colors; 32 LLC colors (bits 12–16); 128-byte lines;
    /// 16 GiB of physical memory.
    pub fn opteron_6128() -> Self {
        Self {
            line_shift: 7,
            llc_bits: 5,
            channel_bits: 1,
            rank_bits: 1,
            bank_bits: 3,
            node_bits: 2,
            row_bits: 10,
        }
    }

    /// A deliberately small layout for unit tests: 2 nodes × 1 channel ×
    /// 1 rank × 2 banks = 4 bank colors, 4 LLC colors, 64 MiB.
    pub fn tiny() -> Self {
        Self {
            line_shift: 6,
            llc_bits: 2,
            channel_bits: 0,
            rank_bits: 0,
            bank_bits: 1,
            node_bits: 1,
            row_bits: 10,
        }
    }

    // ----- field offsets (bit positions); order: ch, bank, llc, rank, node -----

    #[inline]
    fn channel_off(&self) -> u32 {
        PAGE_SHIFT
    }
    #[inline]
    fn bank_off(&self) -> u32 {
        self.channel_off() + self.channel_bits
    }
    #[inline]
    fn llc_off(&self) -> u32 {
        self.bank_off() + self.bank_bits
    }
    #[inline]
    fn rank_off(&self) -> u32 {
        self.llc_off() + self.llc_bits
    }
    #[inline]
    fn node_off(&self) -> u32 {
        self.rank_off() + self.rank_bits
    }
    #[inline]
    fn row_off(&self) -> u32 {
        self.node_off() + self.node_bits
    }

    /// One-past the highest LLC color bit (used to check L3 index coverage).
    pub fn llc_color_top_bit(&self) -> u32 {
        self.llc_off() + self.llc_bits
    }

    /// Lowest LLC color bit position (the paper's "bits 12–16" role).
    pub fn llc_color_low_bit(&self) -> u32 {
        self.llc_off()
    }

    /// Total number of physical address bits.
    #[inline]
    pub fn addr_bits(&self) -> u32 {
        self.row_off() + self.row_bits
    }

    /// Total bytes of physical memory described by the mapping.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        1u64 << self.addr_bits()
    }

    /// Total number of 4 KiB frames.
    #[inline]
    pub fn frame_count(&self) -> u64 {
        self.total_bytes() >> PAGE_SHIFT
    }

    // ----- cardinalities -----

    /// Number of memory nodes (controllers), `NN`.
    #[inline]
    pub fn node_count(&self) -> usize {
        1 << self.node_bits
    }
    /// Channels per controller, `NC`.
    #[inline]
    pub fn channels_per_node(&self) -> usize {
        1 << self.channel_bits
    }
    /// Ranks per channel, `NR`.
    #[inline]
    pub fn ranks_per_channel(&self) -> usize {
        1 << self.rank_bits
    }
    /// Banks per rank, `NB`.
    #[inline]
    pub fn banks_per_rank(&self) -> usize {
        1 << self.bank_bits
    }

    /// Total bank colors, `NN*NC*NR*NB` (Opteron: 128).
    #[inline]
    pub fn bank_color_count(&self) -> usize {
        self.node_count()
            * self.channels_per_node()
            * self.ranks_per_channel()
            * self.banks_per_rank()
    }

    /// Bank colors per node (Opteron: 32).
    #[inline]
    pub fn bank_colors_per_node(&self) -> usize {
        self.bank_color_count() / self.node_count()
    }

    /// Total LLC colors (Opteron: 32).
    #[inline]
    pub fn llc_color_count(&self) -> usize {
        1 << self.llc_bits
    }

    /// Frames that share one (bank color, LLC color) pair — one per row.
    #[inline]
    pub fn frames_per_color_pair(&self) -> u64 {
        1 << self.row_bits
    }

    /// Bytes of heap capacity behind one (bank color, LLC color) pair.
    #[inline]
    pub fn bytes_per_color_pair(&self) -> u64 {
        self.frames_per_color_pair() << PAGE_SHIFT
    }

    /// Cache-line size in bytes.
    #[inline]
    pub fn line_size(&self) -> u64 {
        1 << self.line_shift
    }

    // ----- the color algebra -----

    /// Equation (1): flatten a DRAM coordinate into a bank color.
    #[inline]
    pub fn bank_color_of(
        &self,
        node: NodeId,
        channel: ChannelId,
        rank: RankId,
        bank: BankId,
    ) -> BankColor {
        debug_assert!(node.index() < self.node_count());
        debug_assert!(channel.index() < self.channels_per_node());
        debug_assert!(rank.index() < self.ranks_per_channel());
        debug_assert!(bank.index() < self.banks_per_rank());
        let bc = ((node.index() * self.channels_per_node() + channel.index())
            * self.ranks_per_channel()
            + rank.index())
            * self.banks_per_rank()
            + bank.index();
        BankColor(bc as u16)
    }

    /// Invert equation (1): the DRAM coordinate of a bank color.
    pub fn coords_of_bank_color(&self, bc: BankColor) -> (NodeId, ChannelId, RankId, BankId) {
        assert!(
            bc.index() < self.bank_color_count(),
            "bank color {bc} out of range"
        );
        let mut v = bc.index();
        let bank = v % self.banks_per_rank();
        v /= self.banks_per_rank();
        let rank = v % self.ranks_per_channel();
        v /= self.ranks_per_channel();
        let channel = v % self.channels_per_node();
        v /= self.channels_per_node();
        (NodeId(v), ChannelId(channel), RankId(rank), BankId(bank))
    }

    /// The node a bank color belongs to. Bank colors are node-major, so node
    /// `n` owns colors `[n*cpn, (n+1)*cpn)` with `cpn = bank_colors_per_node`.
    #[inline]
    pub fn node_of_bank_color(&self, bc: BankColor) -> NodeId {
        assert!(
            bc.index() < self.bank_color_count(),
            "bank color {bc} out of range"
        );
        NodeId(bc.index() / self.bank_colors_per_node())
    }

    /// The bank colors local to `node`, in order.
    pub fn bank_colors_of_node(&self, node: NodeId) -> impl Iterator<Item = BankColor> {
        assert!(node.index() < self.node_count(), "node {node} out of range");
        let cpn = self.bank_colors_per_node();
        let lo = node.index() * cpn;
        (lo..lo + cpn).map(|c| BankColor(c as u16))
    }

    /// All LLC colors, in order.
    pub fn llc_colors(&self) -> impl Iterator<Item = LlcColor> {
        (0..self.llc_color_count()).map(|c| LlcColor(c as u16))
    }

    // ----- decode / encode -----

    #[inline]
    fn field(&self, addr: u64, off: u32, bits: u32) -> u64 {
        if bits == 0 {
            0
        } else {
            (addr >> off) & ((1u64 << bits) - 1)
        }
    }

    /// Decode a physical address into its DRAM coordinate and colors.
    pub fn decode(&self, addr: PhysAddr) -> DecodedAddr {
        assert!(
            addr.0 < self.total_bytes(),
            "physical address {addr} beyond installed memory"
        );
        let node = NodeId(self.field(addr.0, self.node_off(), self.node_bits) as usize);
        let channel = ChannelId(self.field(addr.0, self.channel_off(), self.channel_bits) as usize);
        let rank = RankId(self.field(addr.0, self.rank_off(), self.rank_bits) as usize);
        let bank = BankId(self.field(addr.0, self.bank_off(), self.bank_bits) as usize);
        let row_field = self.field(addr.0, self.row_off(), self.row_bits);
        let llc = self.field(addr.0, self.llc_off(), self.llc_bits);
        // DRAM row identity: one row per 4 KiB frame of the bank (a
        // realistic row-buffer granule). The LLC color bits are part of the
        // row id, NOT the column — otherwise two frames of different LLC
        // colors would share an open row, which real address maps do not do
        // at page granularity.
        let row = (row_field << self.llc_bits) | llc;
        let col = addr.0 & ((1 << PAGE_SHIFT) - 1);
        DecodedAddr {
            node,
            channel,
            rank,
            bank,
            row,
            col,
            bank_color: self.bank_color_of(node, channel, rank, bank),
            llc_color: LlcColor(llc as u16),
        }
    }

    /// Decode just the frame-granular fields of a frame number.
    pub fn decode_frame(&self, frame: FrameNumber) -> DecodedFrame {
        assert!(
            frame.0 < self.frame_count(),
            "frame {frame} beyond installed memory"
        );
        let d = self.decode(frame.base());
        DecodedFrame {
            node: d.node,
            bank_color: d.bank_color,
            llc_color: d.llc_color,
            // The frame-level row index (the third compose_frame coordinate)
            // excludes the LLC bits folded into the DRAM row id.
            row: d.row >> self.llc_bits,
        }
    }

    /// Compose the frame number that has the given colors and row. This is
    /// the inverse of [`AddressMapping::decode_frame`] and the primitive the
    /// simulated "BIOS" uses to enumerate frames of a color.
    pub fn compose_frame(&self, bc: BankColor, llc: LlcColor, row: u64) -> FrameNumber {
        assert!(
            llc.index() < self.llc_color_count(),
            "LLC color {llc} out of range"
        );
        assert!(row < self.frames_per_color_pair(), "row {row} out of range");
        let (node, channel, rank, bank) = self.coords_of_bank_color(bc);
        let addr = ((llc.raw() as u64) << self.llc_off())
            | ((channel.raw() as u64) << self.channel_off())
            | ((rank.raw() as u64) << self.rank_off())
            | ((bank.raw() as u64) << self.bank_off())
            | ((node.raw() as u64) << self.node_off())
            | (row << self.row_off());
        PhysAddr(addr).frame()
    }

    /// LLC color of an address (the paper's set-index color bits 12–16).
    #[inline]
    pub fn llc_color(&self, addr: PhysAddr) -> LlcColor {
        LlcColor(self.field(addr.0, self.llc_off(), self.llc_bits) as u16)
    }

    /// Global flattened channel index (`node * NC + channel`), used by the
    /// DRAM simulator to index channels machine-wide.
    #[inline]
    pub fn global_channel(&self, node: NodeId, channel: ChannelId) -> usize {
        node.index() * self.channels_per_node() + channel.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opteron_cardinalities_match_paper() {
        let m = AddressMapping::opteron_6128();
        assert_eq!(m.bank_color_count(), 128, "paper: 2^7 = 128 banks");
        assert_eq!(m.llc_color_count(), 32, "paper: 2^5 = 32 LLC colors");
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.channels_per_node(), 2);
        assert_eq!(m.ranks_per_channel(), 2);
        assert_eq!(m.banks_per_rank(), 8);
        assert_eq!(m.total_bytes(), 16 << 30);
        assert_eq!(m.line_size(), 128);
        assert_eq!(m.bank_colors_per_node(), 32);
    }

    #[test]
    fn eq1_is_a_bijection() {
        let m = AddressMapping::opteron_6128();
        let mut seen = vec![false; m.bank_color_count()];
        for n in 0..m.node_count() {
            for c in 0..m.channels_per_node() {
                for r in 0..m.ranks_per_channel() {
                    for b in 0..m.banks_per_rank() {
                        let bc = m.bank_color_of(NodeId(n), ChannelId(c), RankId(r), BankId(b));
                        assert!(!seen[bc.index()], "bank color {bc} produced twice");
                        seen[bc.index()] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "eq. (1) must be onto 0..128");
    }

    #[test]
    fn eq1_roundtrips_through_inverse() {
        let m = AddressMapping::opteron_6128();
        for bc in 0..m.bank_color_count() {
            let bc = BankColor(bc as u16);
            let (n, c, r, b) = m.coords_of_bank_color(bc);
            assert_eq!(m.bank_color_of(n, c, r, b), bc);
        }
    }

    #[test]
    fn bank_colors_are_node_major() {
        let m = AddressMapping::opteron_6128();
        for bc in 0..m.bank_color_count() {
            let bc = BankColor(bc as u16);
            let (n, ..) = m.coords_of_bank_color(bc);
            assert_eq!(m.node_of_bank_color(bc), n);
        }
        let node1: Vec<_> = m.bank_colors_of_node(NodeId(1)).collect();
        assert_eq!(node1.first(), Some(&BankColor(32)));
        assert_eq!(node1.last(), Some(&BankColor(63)));
        assert_eq!(node1.len(), 32);
    }

    #[test]
    fn frame_compose_decode_roundtrip() {
        let m = AddressMapping::opteron_6128();
        for bc in [0u16, 1, 31, 32, 64, 127] {
            for llc in [0u16, 1, 31] {
                for row in [0u64, 1, 1023] {
                    let f = m.compose_frame(BankColor(bc), LlcColor(llc), row);
                    let d = m.decode_frame(f);
                    assert_eq!(d.bank_color, BankColor(bc));
                    assert_eq!(d.llc_color, LlcColor(llc));
                    assert_eq!(d.row, row);
                    assert_eq!(d.node, m.node_of_bank_color(BankColor(bc)));
                }
            }
        }
    }

    #[test]
    fn page_granularity_every_line_in_frame_same_colors() {
        let m = AddressMapping::opteron_6128();
        let f = m.compose_frame(BankColor(77), LlcColor(13), 500);
        let base = m.decode(f.base());
        for off in (0..4096).step_by(128) {
            let d = m.decode(f.at(off));
            assert_eq!(
                d.bank_color, base.bank_color,
                "bank color must be page-granular"
            );
            assert_eq!(
                d.llc_color, base.llc_color,
                "LLC color must be page-granular"
            );
            assert_eq!(d.row, base.row, "a page never splits rows in this model");
        }
    }

    #[test]
    fn llc_color_is_bits_16_20_on_opteron() {
        // The paper's machine colors the LLC via physical index bits 12–16;
        // our preset keeps channel+bank interleave below the color, placing
        // it at bits 16–20 (still inside the L3 set-index range).
        let m = AddressMapping::opteron_6128();
        assert_eq!(m.llc_color_low_bit(), 16);
        assert_eq!(m.llc_color_top_bit(), 21);
        let a = PhysAddr(0b10101 << 16);
        assert_eq!(m.llc_color(a), LlcColor(0b10101));
        assert_eq!(m.decode(a).llc_color, LlcColor(0b10101));
    }

    #[test]
    fn consecutive_frames_interleave_banks_before_llc_colors() {
        // Under the buddy allocator consecutive frames rotate channel/bank
        // (different bank colors) before they change LLC color — the low-bit
        // interleave real maps have, which gives uncolored streams natural
        // bank parallelism.
        let m = AddressMapping::opteron_6128();
        let d0 = m.decode_frame(FrameNumber(0));
        let d1 = m.decode_frame(FrameNumber(1));
        assert_ne!(d0.bank_color, d1.bank_color, "channel rotates first");
        assert_eq!(d0.llc_color, d1.llc_color);
        // 16 consecutive frames cover 16 distinct bank colors.
        let colors: std::collections::BTreeSet<_> = (0..16)
            .map(|f| m.decode_frame(FrameNumber(f)).bank_color)
            .collect();
        assert_eq!(colors.len(), 16);
        // After the 16 channel×bank combos, the LLC color advances.
        let d16 = m.decode_frame(FrameNumber(16));
        assert_eq!(d16.llc_color, LlcColor(1));
        assert_eq!(d16.node, d0.node, "still the local node");
    }

    #[test]
    fn tiny_mapping_is_consistent() {
        let m = AddressMapping::tiny();
        assert_eq!(m.bank_color_count(), 4);
        assert_eq!(m.llc_color_count(), 4);
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.total_bytes(), 1 << 26);
        let f = m.compose_frame(BankColor(3), LlcColor(2), 7);
        let d = m.decode_frame(f);
        assert_eq!(
            (d.bank_color, d.llc_color, d.row),
            (BankColor(3), LlcColor(2), 7)
        );
    }

    #[test]
    #[should_panic(expected = "beyond installed memory")]
    fn decode_out_of_range_panics() {
        AddressMapping::tiny().decode(PhysAddr(1 << 26));
    }

    #[test]
    fn global_channel_indexing() {
        let m = AddressMapping::opteron_6128();
        assert_eq!(m.global_channel(NodeId(0), ChannelId(0)), 0);
        assert_eq!(m.global_channel(NodeId(0), ChannelId(1)), 1);
        assert_eq!(m.global_channel(NodeId(3), ChannelId(1)), 7);
    }
}
