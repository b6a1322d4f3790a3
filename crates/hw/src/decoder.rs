//! Precomputed frame decoding — the fast path for the simulators' inner
//! loops.
//!
//! [`AddressMapping::decode`] re-derives every field offset on each call,
//! which is fine for allocation-time work but wasteful when executed once
//! per simulated memory access. All frame-granular fields (node, channel,
//! rank, bank → bank color, LLC color) live in the *low*
//! `row_off − PAGE_SHIFT` bits of the frame number; the row field is
//! everything above them. A [`FrameDecoder`] therefore tabulates those low
//! bits once per mapping (4096 entries on the Opteron preset, 16 on the
//! tiny preset) and answers per-access decodes with a mask, a shift and one
//! L1-resident table load.
//!
//! The decoder is purely derived state: for every frame it returns exactly
//! what [`AddressMapping::decode_frame`] returns (asserted by tests over
//! the full LUT domain), so swapping it into an inner loop cannot change
//! simulation results.

use crate::addrmap::{AddressMapping, DecodedFrame};
use crate::types::{BankColor, FrameNumber, LlcColor, NodeId, PhysAddr, PAGE_SHIFT};

/// Everything a frame number fixes, packed for table storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Memory node / controller the frame lives on.
    pub node: u32,
    /// Machine-wide flattened channel index (`node * NC + channel`).
    pub global_channel: u32,
    /// Flattened global bank coordinate (paper eq. 1); also the index into
    /// the DRAM simulator's bank array.
    pub bank_color: u16,
    /// LLC color (value of the LLC color bit field).
    pub llc_color: u16,
}

/// Per-mapping lookup table answering frame decodes in O(1) without
/// re-deriving field offsets.
#[derive(Debug, Clone)]
pub struct FrameDecoder {
    lut: Vec<FrameInfo>,
    /// Frame bits covered by the LUT (`row_off − PAGE_SHIFT`).
    low_bits: u32,
    low_mask: u64,
    llc_bits: u32,
    frame_count: u64,
}

impl FrameDecoder {
    /// Build the table for `mapping`. Cost: one `decode_frame` per distinct
    /// sub-row bit pattern (2^low_bits entries), paid once at boot.
    pub fn new(mapping: &AddressMapping) -> Self {
        let low_bits = mapping.addr_bits() - mapping.row_bits - PAGE_SHIFT;
        let entries = 1usize << low_bits;
        let lut = (0..entries as u64)
            .map(|f| {
                let d = mapping.decode_frame(FrameNumber(f));
                let (node, channel, ..) = mapping.coords_of_bank_color(d.bank_color);
                FrameInfo {
                    node: node.raw() as u32,
                    global_channel: mapping.global_channel(node, channel) as u32,
                    bank_color: d.bank_color.raw(),
                    llc_color: d.llc_color.raw(),
                }
            })
            .collect();
        Self {
            lut,
            low_bits,
            low_mask: (1u64 << low_bits) - 1,
            llc_bits: mapping.llc_bits,
            frame_count: mapping.frame_count(),
        }
    }

    /// The packed per-frame fields. One mask + one table load.
    #[inline]
    pub fn info(&self, frame: FrameNumber) -> FrameInfo {
        debug_assert!(
            frame.0 < self.frame_count,
            "frame {frame} beyond installed memory"
        );
        self.lut[(frame.0 & self.low_mask) as usize]
    }

    /// The packed fields of the frame containing `addr`.
    #[inline]
    pub fn info_of_addr(&self, addr: PhysAddr) -> FrameInfo {
        self.info(addr.frame())
    }

    /// Home node of a frame.
    #[inline]
    pub fn node_of_frame(&self, frame: FrameNumber) -> NodeId {
        NodeId(self.info(frame).node as usize)
    }

    /// The DRAM row id opened by an access to `frame`, whose fields are
    /// `info` (from [`Self::info`]) — matches [`AddressMapping::decode`]'s
    /// `row` (LLC bits folded into the row id).
    #[inline]
    pub fn dram_row(&self, frame: FrameNumber, info: FrameInfo) -> u64 {
        ((frame.0 >> self.low_bits) << self.llc_bits) | info.llc_color as u64
    }

    /// Drop-in equivalent of [`AddressMapping::decode_frame`].
    #[inline]
    pub fn decode_frame(&self, frame: FrameNumber) -> DecodedFrame {
        assert!(
            frame.0 < self.frame_count,
            "frame {frame} beyond installed memory"
        );
        let i = self.lut[(frame.0 & self.low_mask) as usize];
        DecodedFrame {
            node: NodeId(i.node as usize),
            bank_color: BankColor(i.bank_color),
            llc_color: LlcColor(i.llc_color),
            row: frame.0 >> self.low_bits,
        }
    }

    /// Number of frames the decoder covers (the mapping's frame count).
    #[inline]
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// The [`FrameMask`] of every LUT pattern whose fields satisfy `pred`.
    /// Cost: one `pred` call per pattern (4096 on the Opteron preset),
    /// independent of how many frames the mask is later asked about.
    pub fn mask(&self, pred: impl Fn(FrameInfo) -> bool) -> FrameMask {
        let mut words = vec![0u64; self.lut.len().div_ceil(64)];
        for (p, &info) in self.lut.iter().enumerate() {
            if pred(info) {
                words[p / 64] |= 1 << (p % 64);
            }
        }
        let first = words
            .iter()
            .position(|&w| w != 0)
            .map(|i| i as u64 * 64 + words[i].trailing_zeros() as u64);
        FrameMask {
            words,
            low_bits: self.low_bits,
            first,
        }
    }
}

/// A set of frames defined by their LUT pattern — "every frame on node 2",
/// "every frame of bank color 5 and LLC color 3" — built once by
/// [`FrameDecoder::mask`] and then asked about whole aligned blocks.
///
/// Because the pattern of a frame is its low `row_off − PAGE_SHIFT` bits,
/// an aligned block of `2^order` frames covers a contiguous, aligned range
/// of patterns when `order` is below the LUT width, and every pattern
/// otherwise. A block query is therefore a scan of at most `2^order / 64`
/// mask words, never a per-frame decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMask {
    /// Bit `p` set ⇔ frames with low bits `p` are in the set.
    words: Vec<u64>,
    low_bits: u32,
    /// Lowest set pattern; the answer for every block at/above LUT width.
    first: Option<u64>,
}

impl FrameMask {
    /// Is `frame` in the set?
    #[inline]
    pub fn contains(&self, frame: FrameNumber) -> bool {
        let p = frame.0 & ((1u64 << self.low_bits) - 1);
        self.words[(p / 64) as usize] >> (p % 64) & 1 == 1
    }

    /// The lowest frame of the aligned block `[start, start + 2^order)`
    /// that is in the set, if any.
    #[inline]
    pub fn first_in_block(&self, start: FrameNumber, order: u32) -> Option<FrameNumber> {
        debug_assert!(
            start.0.is_multiple_of(1 << order),
            "block {start} misaligned at order {order}"
        );
        if order >= self.low_bits {
            return self.first.map(|p| FrameNumber(start.0 + p));
        }
        let lo = start.0 & ((1u64 << self.low_bits) - 1);
        let n = 1u64 << order;
        if n < 64 {
            // The aligned range sits inside one word.
            let bits = self.words[(lo / 64) as usize] >> (lo % 64) & ((1u64 << n) - 1);
            return (bits != 0).then(|| FrameNumber(start.0 + bits.trailing_zeros() as u64));
        }
        let (w0, w1) = ((lo / 64) as usize, ((lo + n) / 64) as usize);
        self.words[w0..w1].iter().position(|&w| w != 0).map(|i| {
            let off = i as u64 * 64 + self.words[w0 + i].trailing_zeros() as u64;
            FrameNumber(start.0 + off)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_against_mapping(m: &AddressMapping) {
        let dec = FrameDecoder::new(m);
        // Exhaustive over the LUT domain × several rows: the decoder must
        // agree with the slow path bit for bit.
        let lut_span = 1u64 << (m.addr_bits() - m.row_bits - PAGE_SHIFT);
        for row in [0u64, 1, 2, m.frames_per_color_pair() - 1] {
            for low in (0..lut_span).step_by(1.max(lut_span as usize / 512)) {
                let f = FrameNumber((row << dec.low_bits) | low);
                let slow = m.decode_frame(f);
                assert_eq!(dec.decode_frame(f), slow);
                assert_eq!(dec.node_of_frame(f), slow.node);
                assert_eq!(dec.dram_row(f, dec.info(f)), m.decode(f.base()).row);
                let i = dec.info(f);
                let (n, c, ..) = m.coords_of_bank_color(slow.bank_color);
                assert_eq!(i.node as usize, n.index());
                assert_eq!(i.global_channel as usize, m.global_channel(n, c));
                assert_eq!(i.bank_color, slow.bank_color.raw());
                assert_eq!(i.llc_color, slow.llc_color.raw());
            }
        }
    }

    #[test]
    fn decoder_matches_slow_decode_opteron() {
        check_against_mapping(&AddressMapping::opteron_6128());
    }

    #[test]
    fn decoder_matches_slow_decode_tiny() {
        check_against_mapping(&AddressMapping::tiny());
    }

    #[test]
    fn lut_sizes_are_small() {
        assert_eq!(
            FrameDecoder::new(&AddressMapping::opteron_6128()).lut.len(),
            4096
        );
        assert_eq!(FrameDecoder::new(&AddressMapping::tiny()).lut.len(), 16);
    }

    /// Per-frame oracle for [`FrameMask::first_in_block`].
    fn brute_first(
        dec: &FrameDecoder,
        pred: impl Fn(FrameInfo) -> bool,
        start: u64,
        order: u32,
    ) -> Option<FrameNumber> {
        (start..start + (1 << order))
            .map(FrameNumber)
            .find(|&f| pred(dec.info(f)))
    }

    fn check_mask_blocks(m: &AddressMapping) {
        let dec = FrameDecoder::new(m);
        type Pred = fn(FrameInfo) -> bool;
        let preds: [(&str, Pred); 5] = [
            ("node 1", |i| i.node == 1),
            ("bank 3", |i| i.bank_color == 3),
            ("bank 2 llc 1", |i| i.bank_color == 2 && i.llc_color == 1),
            ("llc 3", |i| i.llc_color == 3),
            ("none", |_| false),
        ];
        for (what, pred) in preds {
            let mask = dec.mask(pred);
            for order in 0..=dec.low_bits + 1 {
                let n = 1u64 << order;
                let blocks = (dec.frame_count() / n).min(64);
                for b in 0..blocks {
                    // Spread the probed blocks over the whole frame range.
                    let start = b * (dec.frame_count() / n / blocks) * n;
                    assert_eq!(
                        mask.first_in_block(FrameNumber(start), order),
                        brute_first(&dec, pred, start, order),
                        "{what}: block {start:#x} order {order}"
                    );
                }
            }
            for f in (0..dec.frame_count()).step_by(97) {
                assert_eq!(
                    mask.contains(FrameNumber(f)),
                    pred(dec.info(FrameNumber(f)))
                );
            }
        }
    }

    #[test]
    fn mask_block_queries_match_per_frame_scan() {
        check_mask_blocks(&AddressMapping::tiny());
        check_mask_blocks(&AddressMapping::opteron_6128());
    }

    #[test]
    #[should_panic(expected = "beyond installed memory")]
    fn out_of_range_frame_panics() {
        let dec = FrameDecoder::new(&AddressMapping::tiny());
        dec.decode_frame(FrameNumber(dec.frame_count()));
    }
}
