//! A generic set-associative cache with true-LRU replacement.
//!
//! Lines are identified by *line address* (`addr >> line_shift`). Each line
//! optionally records an owner tag (the core that filled it) so the shared
//! LLC can attribute evictions to inter-task interference.

use tint_hw::types::{CoreId, PhysAddr};

/// Fibonacci multiplicative spread: mixes all input bits into the high
/// output bits (take the top `k` bits for a `k`-bit hash index).
#[inline]
fn fibonacci_spread(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Bits a line address may occupy in a packed slot word: the low
/// [`OWNER_BITS`] hold the owning core, the rest the line address (55-bit
/// physical space / 64 B lines). Checked once per machine by
/// `CacheHierarchy::new`, and per access in debug builds.
pub(crate) const ADDR_BITS: u32 = 56;
/// Low bits of a slot word that hold the owning core.
pub(crate) const OWNER_BITS: u32 = 8;
/// Mask of the owner field.
const OWNER_MASK: u64 = (1 << OWNER_BITS) - 1;
/// Mask a line address must fit under.
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;

/// Result of a cache fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address that was evicted.
    pub line_addr: u64,
    /// Core that owned the evicted line.
    pub owner: CoreId,
}

/// How a physical address maps to a set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// Plain modulo indexing: `(addr >> line_shift) & (sets - 1)`.
    Modulo,
    /// XOR-fold every address bit above the line offset into the index
    /// (a hash-indexed cache). Used for the private L1/L2, whose modulo
    /// index would otherwise be restricted by the bank-select bits of
    /// bank-colored pages — an interaction page coloring does not have on
    /// real parts, where sub-page interleave bits feed the private indices.
    Hash,
    /// Color-preserving hashed indexing, as shared LLCs use: the color bit
    /// field `[color_low, color_low + color_bits)` becomes the *top* bits of
    /// the set index (so page colors partition the cache into contiguous
    /// slices, the property page coloring needs), while every remaining
    /// address bit above the line offset is XOR-folded into the low index
    /// bits (so pages spread over the whole slice regardless of which bank/
    /// rank/node/row they live in).
    ColorHash {
        /// Lowest bit of the color field.
        color_low: u32,
        /// Width of the color field.
        color_bits: u32,
    },
}

/// A set-associative cache with LRU replacement.
///
/// Storage is one word per line: a flat `slots` array of `sets × assoc`
/// words (set `i` owns `slots[i*assoc .. (i+1)*assoc]`), each packing
/// `(line_addr << 8) | owner`, plus a per-set occupancy count — no per-set
/// allocations, so a lookup, its move-to-MRU and an eviction all touch
/// exactly one contiguous stride. Each occupied stride is kept in LRU
/// order (most recent last); with the associativities in play (2–16) a
/// rotate within the stride beats fancier structures.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Flat `(line_addr << 8) | owner` storage, `set_count * assoc` slots.
    slots: Vec<u64>,
    /// Occupied slots per set (0..=assoc; assoc ≤ 255 asserted).
    lens: Vec<u8>,
    set_count: usize,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    index_mode: IndexMode,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build a cache with `sets` sets (power of two), `assoc` ways, and
    /// `line_shift` log2-line-size, using plain modulo indexing.
    pub fn new(sets: usize, assoc: usize, line_shift: u32) -> Self {
        Self::with_index_mode(sets, assoc, line_shift, IndexMode::Modulo)
    }

    /// Build a cache with an explicit [`IndexMode`].
    pub fn with_index_mode(
        sets: usize,
        assoc: usize,
        line_shift: u32,
        index_mode: IndexMode,
    ) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(assoc > 0 && assoc <= u8::MAX as usize);
        match index_mode {
            IndexMode::ColorHash {
                color_low,
                color_bits,
            } => {
                let idx_bits = sets.trailing_zeros();
                assert!(
                    color_bits < idx_bits,
                    "color field must leave hash bits in the index"
                );
                assert!(color_low >= line_shift, "color field below the line offset");
            }
            IndexMode::Hash => {
                // `set_index` shifts by `64 - idx_bits`; a 1-set cache would
                // shift by 64 (overflow). A 1-set cache is fully associative
                // anyway — use Modulo for it.
                assert!(sets >= 2, "hash indexing needs at least 2 sets");
            }
            IndexMode::Modulo => {}
        }
        Self {
            slots: vec![0; sets * assoc],
            lens: vec![0; sets],
            set_count: sets,
            assoc,
            line_shift,
            set_mask: (sets - 1) as u64,
            index_mode,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.slots.len() as u64 * (1u64 << self.line_shift)
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Set index of an address.
    #[inline]
    pub fn set_index(&self, addr: PhysAddr) -> usize {
        match self.index_mode {
            IndexMode::Modulo => ((addr.0 >> self.line_shift) & self.set_mask) as usize,
            IndexMode::Hash => {
                let idx_bits = self.set_mask.count_ones();
                let v = addr.0 >> self.line_shift;
                (fibonacci_spread(v) >> (64 - idx_bits)) as usize
            }
            IndexMode::ColorHash {
                color_low,
                color_bits,
            } => {
                let idx_bits = self.set_mask.count_ones();
                let non_color = idx_bits - color_bits;
                let color = (addr.0 >> color_low) & ((1u64 << color_bits) - 1);
                // Every address bit above the line offset except the color
                // field, concatenated and spread multiplicatively.
                let low_bits = color_low - self.line_shift;
                let low = (addr.0 >> self.line_shift) & ((1u64 << low_bits) - 1);
                let high = addr.0 >> (color_low + color_bits);
                let v = (high << low_bits) | low;
                let spread = fibonacci_spread(v) >> (64 - non_color);
                ((color << non_color) | spread) as usize
            }
        }
    }

    #[inline]
    fn line_addr(&self, addr: PhysAddr) -> u64 {
        let la = addr.0 >> self.line_shift;
        debug_assert!(la <= ADDR_MASK, "line address must fit the packed field");
        la
    }

    /// The occupied slots of `addr`'s set, and the set index.
    #[inline]
    fn stride(&self, addr: PhysAddr) -> (usize, std::ops::Range<usize>) {
        let idx = self.set_index(addr);
        let base = idx * self.assoc;
        (idx, base..base + self.lens[idx] as usize)
    }

    /// Look up and touch `addr` for `core`. On a hit the line moves to MRU;
    /// on a miss the line is filled (evicting LRU if the set is full) and
    /// the eviction, if any, is returned.
    ///
    /// Returns `(hit, eviction)`.
    pub fn access(&mut self, core: CoreId, addr: PhysAddr) -> (bool, Option<Eviction>) {
        debug_assert!(core.index() < 1 << OWNER_BITS, "owner must fit a byte");
        let la = self.line_addr(addr);
        let word = (la << OWNER_BITS) | core.index() as u64;
        let (idx, range) = self.stride(addr);
        let len = range.len();
        let slots = &mut self.slots[range];
        if let Some(pos) = slots.iter().position(|&w| w >> OWNER_BITS == la) {
            // Hit: move to MRU (end), refresh owner.
            slots[pos..].rotate_left(1);
            slots[len - 1] = word;
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        if len == self.assoc {
            // Evict LRU (front), shift the rest down, fill the MRU slot.
            let victim = slots[0];
            slots.rotate_left(1);
            slots[len - 1] = word;
            (
                false,
                Some(Eviction {
                    line_addr: victim >> OWNER_BITS,
                    owner: CoreId((victim & OWNER_MASK) as usize),
                }),
            )
        } else {
            self.slots[idx * self.assoc + len] = word;
            self.lens[idx] = (len + 1) as u8;
            (false, None)
        }
    }

    /// Non-mutating lookup: does the cache currently hold `addr`?
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let la = self.line_addr(addr);
        let (_, range) = self.stride(addr);
        self.slots[range].iter().any(|&w| w >> OWNER_BITS == la)
    }

    /// Drop a line if present (used for invalidation tests).
    pub fn invalidate(&mut self, addr: PhysAddr) -> bool {
        let la = self.line_addr(addr);
        let (idx, range) = self.stride(addr);
        let slots = &mut self.slots[range];
        if let Some(pos) = slots.iter().position(|&w| w >> OWNER_BITS == la) {
            slots[pos..].rotate_left(1);
            self.lens[idx] -= 1;
            true
        } else {
            false
        }
    }

    /// Number of resident lines (for occupancy assertions).
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Number of resident lines owned by `core`.
    pub fn resident_lines_of(&self, core: CoreId) -> usize {
        self.lens
            .iter()
            .enumerate()
            .flat_map(|(i, &len)| &self.slots[i * self.assoc..i * self.assoc + len as usize])
            .filter(|&&w| (w & OWNER_MASK) as usize == core.index())
            .count()
    }

    /// Zero the hit/miss counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Empty the cache and reset stats.
    pub fn flush(&mut self) {
        self.lens.fill(0);
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    fn cache() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(4, 2, 6)
    }

    #[test]
    fn geometry() {
        let c = cache();
        assert_eq!(c.set_count(), 4);
        assert_eq!(c.assoc(), 2);
        assert_eq!(c.capacity_bytes(), 512);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        let a = PhysAddr(0x1000);
        assert_eq!(c.access(C0, a), (false, None));
        assert!(c.access(C0, a).0);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = cache();
        c.access(C0, PhysAddr(0x1000));
        assert!(c.access(C0, PhysAddr(0x103f)).0, "same 64B line");
        assert!(!c.access(C0, PhysAddr(0x1040)).0, "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache();
        // Three lines mapping to set 0: line addresses 0, 4, 8 (set = la & 3).
        let a = PhysAddr(0 << 6);
        let b = PhysAddr(4 << 6);
        let d = PhysAddr(8 << 6);
        c.access(C0, a);
        c.access(C0, b);
        // Touch a so b becomes LRU.
        c.access(C0, a);
        let (_, ev) = c.access(C0, d);
        assert_eq!(ev.unwrap().line_addr, 4, "b was LRU");
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn eviction_reports_owner() {
        let mut c = cache();
        let a = PhysAddr(0 << 6);
        let b = PhysAddr(4 << 6);
        let d = PhysAddr(8 << 6);
        c.access(C1, a);
        c.access(C0, b);
        let (_, ev) = c.access(C0, d);
        let ev = ev.unwrap();
        assert_eq!(ev.owner, C1, "victim was core 1's line");
    }

    #[test]
    fn hit_refreshes_owner() {
        let mut c = cache();
        let a = PhysAddr(0x40);
        c.access(C0, a);
        c.access(C1, a);
        assert_eq!(c.resident_lines_of(C1), 1);
        assert_eq!(c.resident_lines_of(C0), 0);
    }

    #[test]
    fn disjoint_sets_no_eviction() {
        let mut c = cache();
        // 8 lines across 4 sets, 2 per set: fits exactly.
        for la in 0..8u64 {
            let (_, ev) = c.access(C0, PhysAddr(la << 6));
            assert!(ev.is_none());
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = cache();
        let a = PhysAddr(0x1000);
        c.access(C0, a);
        assert!(c.invalidate(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn flush_empties() {
        let mut c = cache();
        c.access(C0, PhysAddr(0x1000));
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!((c.hits(), c.misses()), (0, 0));
    }

    #[test]
    fn probe_does_not_count() {
        let mut c = cache();
        c.access(C0, PhysAddr(0));
        let before = (c.hits(), c.misses());
        c.probe(PhysAddr(0));
        c.probe(PhysAddr(0x4000));
        assert_eq!((c.hits(), c.misses()), before);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        SetAssocCache::new(3, 2, 6);
    }
}
