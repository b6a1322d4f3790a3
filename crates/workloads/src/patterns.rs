//! Reusable access-stream iterators.
//!
//! Every pattern is a plain `Iterator<Item = Op>`, which the SPMD engine
//! accepts directly as a section body. Patterns interleave `Op::Compute`
//! with `Op::Access` so memory intensity is a parameter (compute cycles per
//! access), and they never materialize traces.

use tint_hw::rng::SplitMix64;
use tint_hw::types::{Rw, VirtAddr};
use tint_spmd::Op;

/// Sequential sweep: walk `[base, base+len)` with `stride`, `passes` times.
/// Every `write_every`-th access is a store (0 = all loads, 1 = all stores).
#[derive(Debug, Clone)]
pub struct Seq {
    base: VirtAddr,
    len: u64,
    stride: u64,
    passes: u32,
    compute: u64,
    write_every: u32,
    // iteration state
    pos: u64,
    pass: u32,
    count: u64,
    emit_compute: bool,
}

impl Seq {
    /// New sweep; see type docs for the parameters.
    pub fn new(
        base: VirtAddr,
        len: u64,
        stride: u64,
        passes: u32,
        compute: u64,
        write_every: u32,
    ) -> Self {
        assert!(stride > 0 && len >= stride);
        Self {
            base,
            len,
            stride,
            passes,
            compute,
            write_every,
            pos: 0,
            pass: 0,
            count: 0,
            emit_compute: false,
        }
    }
}

impl Iterator for Seq {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.emit_compute {
            self.emit_compute = false;
            return Some(Op::Compute(self.compute));
        }
        if self.pass >= self.passes {
            return None;
        }
        let addr = self.base.offset(self.pos);
        self.pos += self.stride;
        if self.pos >= self.len {
            self.pos = 0;
            self.pass += 1;
        }
        self.count += 1;
        self.emit_compute = self.compute > 0;
        let rw = if self.write_every > 0 && self.count.is_multiple_of(self.write_every as u64) {
            Rw::Write
        } else {
            Rw::Read
        };
        Some(Op::Access { addr, rw })
    }
}

/// Uniform random taps over `[base, base+len)`, aligned to `align`.
#[derive(Debug, Clone)]
pub struct RandomTaps {
    base: VirtAddr,
    slots: u64,
    align: u64,
    remaining: u64,
    compute: u64,
    write_every: u32,
    rng: SplitMix64,
    count: u64,
    emit_compute: bool,
}

impl RandomTaps {
    /// `count` random accesses over the region with `compute` cycles between.
    pub fn new(
        base: VirtAddr,
        len: u64,
        align: u64,
        count: u64,
        compute: u64,
        write_every: u32,
        seed: u64,
    ) -> Self {
        assert!(align > 0 && len >= align);
        Self {
            base,
            slots: len / align,
            align,
            remaining: count,
            compute,
            write_every,
            rng: SplitMix64::new(seed),
            count: 0,
            emit_compute: false,
        }
    }
}

impl Iterator for RandomTaps {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.emit_compute {
            self.emit_compute = false;
            return Some(Op::Compute(self.compute));
        }
        if self.remaining == 0 {
            return None;
        }
        let slot = self.rng.gen_range(self.slots);
        self.remaining -= 1;
        self.count += 1;
        self.emit_compute = self.compute > 0;
        let rw = if self.write_every > 0 && self.count.is_multiple_of(self.write_every as u64) {
            Rw::Write
        } else {
            Rw::Read
        };
        Some(Op::Access {
            addr: self.base.offset(slot * self.align),
            rw,
        })
    }
}

/// The Fig. 10 synthetic pattern: starting from the middle `M` of the
/// region, write `M`, `M+1C`, `M−1C`, `M+2C`, `M−2C`, … so that *each cache
/// line is touched exactly once* and hardware prefetching is defeated.
#[derive(Debug, Clone)]
pub struct AlternatingStride {
    base: VirtAddr,
    line: u64,
    half_lines: u64,
    k: u64,
    forward_next: bool,
    emitted_middle: bool,
}

impl AlternatingStride {
    /// Pattern over `[base, base+len)` with cache-line size `line`.
    pub fn new(base: VirtAddr, len: u64, line: u64) -> Self {
        assert!(len >= 2 * line && len.is_multiple_of(line));
        Self {
            base,
            line,
            half_lines: len / line / 2,
            k: 1,
            forward_next: true,
            emitted_middle: false,
        }
    }

    fn middle(&self) -> u64 {
        self.half_lines * self.line
    }
}

impl Iterator for AlternatingStride {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if !self.emitted_middle {
            self.emitted_middle = true;
            return Some(Op::Access {
                addr: self.base.offset(self.middle()),
                rw: Rw::Write,
            });
        }
        if self.k > self.half_lines {
            return None;
        }
        let off = if self.forward_next {
            // M + kC — skip if it runs past the end.
            let o = self.middle() + self.k * self.line;
            self.forward_next = false;
            if o >= 2 * self.half_lines * self.line {
                return self.next();
            }
            o
        } else {
            let o = self.middle() - self.k * self.line;
            self.forward_next = true;
            self.k += 1;
            o
        };
        Some(Op::Access {
            addr: self.base.offset(off),
            rw: Rw::Write,
        })
    }
}

/// Interleave two streams: a, b, a, b, … draining whichever remains.
#[derive(Debug, Clone)]
pub struct Interleave<A, B> {
    a: A,
    b: B,
    from_a: bool,
}

impl<A: Iterator<Item = Op>, B: Iterator<Item = Op>> Interleave<A, B> {
    /// New interleaving starting with `a`.
    pub fn new(a: A, b: B) -> Self {
        Self { a, b, from_a: true }
    }
}

impl<A: Iterator<Item = Op>, B: Iterator<Item = Op>> Iterator for Interleave<A, B> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let first = self.from_a;
        self.from_a = !self.from_a;
        if first {
            self.a.next().or_else(|| self.b.next())
        } else {
            self.b.next().or_else(|| self.a.next())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accesses(ops: impl Iterator<Item = Op>) -> Vec<(u64, Rw)> {
        ops.filter_map(|op| match op {
            Op::Access { addr, rw } => Some((addr.0, rw)),
            Op::Compute(_) => None,
        })
        .collect()
    }

    #[test]
    fn seq_covers_region_each_pass() {
        let s = Seq::new(VirtAddr(0), 1024, 128, 2, 0, 0);
        let a = accesses(s);
        assert_eq!(a.len(), 16, "8 lines × 2 passes");
        assert_eq!(a[0].0, 0);
        assert_eq!(a[7].0, 896);
        assert_eq!(a[8].0, 0, "second pass restarts");
        assert!(a.iter().all(|&(_, rw)| rw == Rw::Read));
    }

    #[test]
    fn seq_interleaves_compute() {
        let mut s = Seq::new(VirtAddr(0), 256, 128, 1, 7, 1);
        assert!(matches!(s.next(), Some(Op::Access { rw: Rw::Write, .. })));
        assert_eq!(s.next(), Some(Op::Compute(7)));
        assert!(matches!(s.next(), Some(Op::Access { .. })));
        assert_eq!(s.next(), Some(Op::Compute(7)));
        assert_eq!(s.next(), None);
    }

    #[test]
    fn seq_write_every() {
        let s = Seq::new(VirtAddr(0), 512, 128, 1, 0, 2);
        let a = accesses(s);
        let writes = a.iter().filter(|&&(_, rw)| rw == Rw::Write).count();
        assert_eq!(writes, 2, "every 2nd of 4 accesses");
    }

    #[test]
    fn random_taps_stay_in_region_and_align() {
        let r = RandomTaps::new(VirtAddr(0x1000), 4096, 64, 100, 0, 3, 42);
        let a = accesses(r);
        assert_eq!(a.len(), 100);
        for &(addr, _) in &a {
            assert!((0x1000..0x2000).contains(&addr));
            assert_eq!(addr % 64, 0);
        }
        let writes = a.iter().filter(|&&(_, rw)| rw == Rw::Write).count();
        assert_eq!(writes, 33);
    }

    #[test]
    fn random_taps_deterministic_by_seed() {
        let a = accesses(RandomTaps::new(VirtAddr(0), 4096, 64, 50, 0, 0, 7));
        let b = accesses(RandomTaps::new(VirtAddr(0), 4096, 64, 50, 0, 0, 7));
        let c = accesses(RandomTaps::new(VirtAddr(0), 4096, 64, 50, 0, 0, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn alternating_stride_touches_each_line_once() {
        let line = 128u64;
        let len = 16 * line;
        let s = AlternatingStride::new(VirtAddr(0), len, line);
        let a = accesses(s);
        let mut offsets: Vec<u64> = a.iter().map(|&(o, _)| o).collect();
        // Pattern order: M, M+1C, M-1C, M+2C, M-2C, ...
        assert_eq!(offsets[0], 8 * line);
        assert_eq!(offsets[1], 9 * line);
        assert_eq!(offsets[2], 7 * line);
        assert_eq!(offsets[3], 10 * line);
        assert_eq!(offsets[4], 6 * line);
        // Every line exactly once.
        offsets.sort();
        offsets.dedup();
        assert_eq!(offsets.len(), 16);
        assert!(a.iter().all(|&(_, rw)| rw == Rw::Write), "paper: writes");
    }

    #[test]
    fn alternating_stride_defeats_sequential_prefetch() {
        // No three consecutive accesses are monotone with a constant stride.
        let s = AlternatingStride::new(VirtAddr(0), 64 * 128, 128);
        let a: Vec<u64> = accesses(s).iter().map(|&(o, _)| o).collect();
        let monotone_runs = a
            .windows(3)
            .filter(|w| w[1].wrapping_sub(w[0]) == w[2].wrapping_sub(w[1]))
            .count();
        assert_eq!(monotone_runs, 0);
    }

    #[test]
    fn fill_matches_next_op_for_every_pattern() {
        use tint_spmd::SectionBody;
        // The engine pulls ops through `SectionBody::fill`; its test
        // oracle pulls them one at a time through `next_op`.
        // Both routes must yield the identical op stream for every pattern
        // (an odd buffer size exercises chunk boundaries).
        fn drain_fill(body: &mut dyn SectionBody) -> Vec<Op> {
            let mut out = Vec::new();
            let mut buf = [Op::Compute(0); 7];
            loop {
                let n = body.fill(&mut buf);
                out.extend_from_slice(&buf[..n]);
                if n < buf.len() {
                    return out;
                }
            }
        }
        let seq = Seq::new(VirtAddr(0), 1024, 128, 2, 5, 3);
        let taps = RandomTaps::new(VirtAddr(0x1000), 4096, 64, 100, 2, 3, 42);
        let alt = AlternatingStride::new(VirtAddr(0), 16 * 128, 128);
        let mix = Interleave::new(seq.clone(), taps.clone());
        assert_eq!(drain_fill(&mut seq.clone()), seq.collect::<Vec<_>>());
        assert_eq!(drain_fill(&mut taps.clone()), taps.collect::<Vec<_>>());
        assert_eq!(drain_fill(&mut alt.clone()), alt.collect::<Vec<_>>());
        assert_eq!(drain_fill(&mut mix.clone()), mix.collect::<Vec<_>>());
    }

    #[test]
    fn interleave_alternates_then_drains() {
        let a = (0..3).map(Op::Compute);
        let b = (10..12).map(Op::Compute);
        let got: Vec<_> = Interleave::new(a, b).collect();
        assert_eq!(
            got,
            vec![
                Op::Compute(0),
                Op::Compute(10),
                Op::Compute(1),
                Op::Compute(11),
                Op::Compute(2),
            ]
        );
    }
}
