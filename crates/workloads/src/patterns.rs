//! Reusable access-stream iterators.
//!
//! The leaf patterns are plain `Iterator<Item = Op>`s, which the SPMD
//! engine accepts directly as section bodies; [`Interleave`] is a
//! [`SectionBody`] that merges two bodies through small per-side batches.
//! Patterns interleave `Op::Compute` with `Op::Access` so memory intensity
//! is a parameter (compute cycles per access), and they never materialize
//! traces.

use tint_hw::rng::SplitMix64;
use tint_hw::types::{Rw, VirtAddr};
use tint_spmd::{Op, SectionBody};

/// Store-selection countdown: every `every`-th call is a store (`every` = 0:
/// none). Counting down replaces a per-access `count % every`.
#[derive(Debug, Clone)]
struct WriteEvery {
    every: u32,
    left: u32,
}

impl WriteEvery {
    fn new(every: u32) -> Self {
        Self { every, left: every }
    }

    /// The direction of the next access.
    #[inline]
    fn next(&mut self) -> Rw {
        if self.every == 0 {
            return Rw::Read;
        }
        self.left -= 1;
        if self.left == 0 {
            self.left = self.every;
            Rw::Write
        } else {
            Rw::Read
        }
    }
}

/// Sequential sweep: walk `[base, base+len)` with `stride`, `passes` times.
/// Every `write_every`-th access is a store (0 = all loads, 1 = all stores).
#[derive(Debug, Clone)]
pub struct Seq {
    base: VirtAddr,
    len: u64,
    stride: u64,
    passes: u32,
    compute: u64,
    writes: WriteEvery,
    // iteration state
    pos: u64,
    pass: u32,
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
            writes: WriteEvery::new(write_every),
            pos: 0,
            pass: 0,
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
        self.emit_compute = self.compute > 0;
        Some(Op::Access {
            addr,
            rw: self.writes.next(),
        })
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
    writes: WriteEvery,
    rng: SplitMix64,
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
            writes: WriteEvery::new(write_every),
            rng: SplitMix64::new(seed),
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
        self.emit_compute = self.compute > 0;
        Some(Op::Access {
            addr: self.base.offset(slot * self.align),
            rw: self.writes.next(),
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

/// Ops each side of an [`Interleave`] pulls per `fill`: half an engine
/// batch, so one engine refill costs one fill per side.
const SIDE_OPS: usize = tint_spmd::engine::BATCH_OPS / 2;

/// One side of an [`Interleave`]: a body plus the batch pulled from it
/// through its own `fill`. The batch is allocated on first use, so the
/// bodies of sections not yet running hold no buffer.
#[derive(Debug, Clone)]
struct Side<S> {
    body: S,
    /// The ops of the body's last `fill`.
    batch: Vec<Op>,
    /// Next op of `batch` to hand out.
    cur: usize,
    /// The body's last `fill` came back short: nothing follows `batch`.
    done: bool,
}

impl<S: SectionBody> Side<S> {
    fn new(body: S) -> Self {
        Self {
            body,
            batch: Vec::new(),
            cur: 0,
            done: false,
        }
    }

    /// The buffered ops not yet handed out, refilling an empty batch from
    /// the body; empty only once the body is exhausted.
    #[inline]
    fn ready(&mut self, side_ops: usize) -> &[Op] {
        if self.cur == self.batch.len() && !self.done {
            self.batch.resize(side_ops, Op::Compute(0));
            let n = self.body.fill(&mut self.batch);
            self.batch.truncate(n);
            self.cur = 0;
            self.done = n < side_ops;
        }
        &self.batch[self.cur..]
    }

    /// The next op, if any.
    #[inline]
    fn pull(&mut self, side_ops: usize) -> Option<Op> {
        let op = self.ready(side_ops).first().copied();
        self.cur += op.is_some() as usize;
        op
    }

    /// Copy the rest of this side's ops into `out`, bypassing the batch
    /// once it is used up; returns how many were written.
    fn drain_into(&mut self, out: &mut [Op]) -> usize {
        let buffered = &self.batch[self.cur..];
        let k = buffered.len().min(out.len());
        out[..k].copy_from_slice(&buffered[..k]);
        self.cur += k;
        if k == out.len() || self.done {
            return k;
        }
        let got = self.body.fill(&mut out[k..]);
        self.done = got < out.len() - k;
        k + got
    }
}

/// Interleave two streams op by op: a, b, a, b, … draining whichever
/// remains once the other is exhausted.
///
/// Each side is pulled through its own [`SectionBody::fill`] into a small
/// batch and the output alternates from the two batches; once one side is
/// exhausted, the rest of the other is copied in bulk. The op stream is
/// exactly the one a `next_op`-at-a-time merge yields.
#[derive(Debug, Clone)]
pub struct Interleave<A, B> {
    a: Side<A>,
    b: Side<B>,
    from_a: bool,
    side_ops: usize,
}

impl<A: SectionBody, B: SectionBody> Interleave<A, B> {
    /// New interleaving starting with `a`.
    pub fn new(a: A, b: B) -> Self {
        Self::with_batch(a, b, SIDE_OPS)
    }

    /// [`new`](Self::new) with `side_ops` ops buffered per side.
    fn with_batch(a: A, b: B, side_ops: usize) -> Self {
        assert!(side_ops > 0);
        Self {
            a: Side::new(a),
            b: Side::new(b),
            from_a: true,
            side_ops,
        }
    }
}

impl<A: SectionBody, B: SectionBody> SectionBody for Interleave<A, B> {
    fn next_op(&mut self) -> Option<Op> {
        let first = self.from_a;
        self.from_a = !first;
        let n = self.side_ops;
        if first {
            self.a.pull(n).or_else(|| self.b.pull(n))
        } else {
            self.b.pull(n).or_else(|| self.a.pull(n))
        }
    }

    fn fill(&mut self, out: &mut [Op]) -> usize {
        let mut n = 0;
        while n < out.len() {
            let side_ops = self.side_ops;
            let (a, b) = (self.a.ready(side_ops), self.b.ready(side_ops));
            if a.is_empty() {
                return n + self.b.drain_into(&mut out[n..]);
            }
            if b.is_empty() {
                return n + self.a.drain_into(&mut out[n..]);
            }
            let (x, y) = if self.from_a { (a, b) } else { (b, a) };
            let both = x.len().min(y.len());
            let pairs = both.min((out.len() - n) / 2);
            for (k, (&p, &q)) in x[..pairs].iter().zip(&y[..pairs]).enumerate() {
                out[n + 2 * k] = p;
                out[n + 2 * k + 1] = q;
            }
            n += 2 * pairs;
            // One slot left with both sides still buffered: the side whose
            // turn it is fills it.
            let odd = n + 1 == out.len() && pairs < both;
            if odd {
                out[n] = x[pairs];
                n += 1;
            }
            self.a.cur += pairs + (odd && self.from_a) as usize;
            self.b.cur += pairs + (odd && !self.from_a) as usize;
            self.from_a ^= odd;
        }
        n
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

    /// Every op of `body`, pulled through `fill` with a `chunk`-op buffer.
    fn drain_fill(body: &mut dyn SectionBody, chunk: usize) -> Vec<Op> {
        let mut out = Vec::new();
        let mut buf = vec![Op::Compute(0); chunk];
        loop {
            let n = body.fill(&mut buf);
            out.extend_from_slice(&buf[..n]);
            if n < buf.len() {
                return out;
            }
        }
    }

    /// Every op of `body`, pulled one at a time through `next_op`.
    fn drain_next(body: &mut dyn SectionBody) -> Vec<Op> {
        std::iter::from_fn(|| body.next_op()).collect()
    }

    /// The unbuffered merge `Interleave` must reproduce: take from the side
    /// whose turn it is, else from the other.
    fn reference_merge(
        mut a: impl Iterator<Item = Op>,
        mut b: impl Iterator<Item = Op>,
    ) -> Vec<Op> {
        let mut from_a = true;
        std::iter::from_fn(|| {
            from_a = !from_a;
            if !from_a {
                a.next().or_else(|| b.next())
            } else {
                b.next().or_else(|| a.next())
            }
        })
        .collect()
    }

    #[test]
    fn fill_matches_next_op_for_every_pattern() {
        // The engine pulls ops through `SectionBody::fill`; its test
        // oracle pulls them one at a time through `next_op`.
        // Both routes must yield the identical op stream for every pattern
        // (an odd buffer size exercises chunk boundaries).
        let seq = Seq::new(VirtAddr(0), 1024, 128, 2, 5, 3);
        let taps = RandomTaps::new(VirtAddr(0x1000), 4096, 64, 100, 2, 3, 42);
        let alt = AlternatingStride::new(VirtAddr(0), 16 * 128, 128);
        let mix = Interleave::new(seq.clone(), taps.clone());
        assert_eq!(drain_fill(&mut seq.clone(), 7), seq.collect::<Vec<_>>());
        assert_eq!(drain_fill(&mut taps.clone(), 7), taps.collect::<Vec<_>>());
        assert_eq!(drain_fill(&mut alt.clone(), 7), alt.collect::<Vec<_>>());
        assert_eq!(
            drain_fill(&mut mix.clone(), 7),
            drain_next(&mut mix.clone())
        );
    }

    /// `Interleave`'s `fill` and `next_op` both equal the unbuffered merge
    /// when either side runs out mid-batch, when either side is empty, for
    /// every per-side batch of 1–7 and 64 ops and every `fill` buffer of
    /// 1–7 and 64 ops — and when `fill` and `next_op` calls are mixed.
    #[test]
    fn interleave_matches_the_unbuffered_merge() {
        let seq = |n: u64| Seq::new(VirtAddr(0), n * 64, 64, 1, 3, 2);
        let taps = |n: u64| RandomTaps::new(VirtAddr(0x10_0000), 4096, 64, n, 0, 3, n);
        let sizes = [1usize, 2, 3, 4, 5, 6, 7, 64];
        // Side lengths in accesses: empty, shorter and longer than a
        // batch, and one side outliving the other by several batches.
        for (na, nb) in [
            (0, 0),
            (0, 9),
            (9, 0),
            (1, 40),
            (40, 1),
            (13, 13),
            (100, 37),
        ] {
            let want = reference_merge(seq(na.max(1)).take(2 * na as usize), taps(nb));
            for side_ops in sizes {
                let mk = || {
                    Interleave::with_batch(seq(na.max(1)).take(2 * na as usize), taps(nb), side_ops)
                };
                assert_eq!(
                    drain_next(&mut mk()),
                    want,
                    "next_op, sides {na}/{nb}, batch {side_ops}"
                );
                for chunk in sizes {
                    assert_eq!(
                        drain_fill(&mut mk(), chunk),
                        want,
                        "fill, sides {na}/{nb}, batch {side_ops}, chunk {chunk}"
                    );
                }
                // Alternate single pulls with fills of varying size.
                let mut m = mk();
                let mut got = Vec::new();
                let mut buf = [Op::Compute(0); 5];
                for k in 0.. {
                    if k % 2 == 0 {
                        match m.next_op() {
                            Some(op) => got.push(op),
                            None => break,
                        }
                    } else {
                        let len = 1 + k % buf.len();
                        let n = m.fill(&mut buf[..len]);
                        got.extend_from_slice(&buf[..n]);
                        if n < len {
                            break;
                        }
                    }
                }
                assert_eq!(got, want, "mixed, sides {na}/{nb}, batch {side_ops}");
            }
        }
    }

    #[test]
    fn interleave_alternates_then_drains() {
        let a = (0..3).map(Op::Compute);
        let b = (10..12).map(Op::Compute);
        let got = drain_next(&mut Interleave::new(a, b));
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
