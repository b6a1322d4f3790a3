//! A generic set-associative cache with true-LRU replacement.
//!
//! Lines are identified by *line address* (`addr >> line_shift`). Each line
//! optionally records an owner tag (the core that filled it) so the shared
//! LLC can attribute evictions to inter-task interference.

use tint_hw::machine::{LINE_ADDR_BITS, MAX_ASSOC, MAX_CORES};
use tint_hw::types::{CoreId, PhysAddr};

/// Fibonacci multiplicative spread: mixes all input bits into the high
/// output bits (take the top `k` bits for a `k`-bit hash index).
#[inline]
pub(crate) fn fibonacci_spread(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Low bits of a slot word that hold the owning core; the other
/// [`LINE_ADDR_BITS`] hold `line_addr + 1` (the `+ 1` keeps every stored
/// word nonzero, so an all-zero word is an empty slot). `MachineConfig`
/// bounds a machine to fit: at most [`MAX_CORES`] cores and a highest line
/// address below `2^LINE_ADDR_BITS − 1`. `CacheHierarchy::new` asserts both
/// once per machine; debug builds check them per access.
pub(crate) const OWNER_BITS: u32 = 4;
const _: () = assert!(MAX_CORES <= 1 << OWNER_BITS && LINE_ADDR_BITS + OWNER_BITS == 32);
/// Mask of the owner field.
const OWNER_MASK: u32 = (1 << OWNER_BITS) - 1;

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
/// Storage is one 32-bit word per line: a flat `slots` array of
/// `slices × sets × assoc` words (set `i` owns `slots[i*assoc ..
/// (i+1)*assoc]`), each packing `((line_addr + 1) << 4) | owner`. A cache
/// built with [`new`](Self::new) or [`with_index_mode`](Self::with_index_mode)
/// has one slice; the hierarchy keeps every core's private L1 (or L2) in one
/// cache of `cores` slices, core `c` owning sets `c*sets .. (c+1)*sets`.
/// The public methods address slice 0. An all-zero word is an empty slot, so
/// the cache needs no occupancy count and a fresh cache is a zeroed
/// allocation the OS commits lazily, page by page as sets are touched. A
/// stride is kept in LRU order, most recent last, with its empty slots at
/// the LRU end: a miss always shifts the whole stride down one slot and
/// fills the MRU slot, and the word shifted out is the eviction (none when
/// it is 0). Lookup, move-to-MRU and eviction are one fixed-width kernel,
/// instantiated per way count (see `touch`).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Flat `((line_addr + 1) << 4) | owner` storage, `slices * set_count
    /// * assoc` slots; 0 is an empty slot.
    slots: Vec<u32>,
    /// Sets per slice.
    set_count: usize,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    /// `64 −` the number of hashed index bits: the shift that takes the top
    /// bits of a [`fibonacci_spread`] (all index bits for `Hash`, the bits
    /// below the color field for `ColorHash`).
    spread_shift: u32,
    index_mode: IndexMode,
    hits: u64,
    misses: u64,
}

/// The stored tag of a line address: `line_addr + 1`, never 0.
#[inline]
pub(crate) fn line_tag(line_addr: u64) -> u32 {
    debug_assert!(
        line_addr + 1 < 1 << LINE_ADDR_BITS,
        "line address {line_addr:#x} must fit the slot word's {LINE_ADDR_BITS}-bit field"
    );
    line_addr as u32 + 1
}

/// The slot word `core` stores for a line with tag `tag`.
#[inline]
pub(crate) fn slot_word(tag: u32, core: CoreId) -> u32 {
    debug_assert!(core.index() < MAX_CORES, "owner must fit the 4-bit field");
    (tag << OWNER_BITS) | core.index() as u32
}

/// Look `tag` (a stored `line_addr + 1`) up in one LRU-ordered set and
/// touch it with `word`: a hit moves the line to the MRU end, a miss shifts
/// the set down one slot and fills the MRU end. Returns whether it hit and
/// the word that left the set (on a miss the LRU word, 0 when that slot
/// was empty). The way count is a compile-time constant, so the scan and
/// the shift unroll into straight-line code.
#[inline(always)]
fn touch<const A: usize>(set: &mut [u32; A], tag: u32, word: u32) -> (bool, u32) {
    let hit = set.iter().position(|&w| w >> OWNER_BITS == tag);
    let pos = hit.unwrap_or(0);
    let out = set[pos];
    // Shift every slot above `pos` down one, as selects over a fixed width.
    for k in 0..A - 1 {
        if k >= pos {
            set[k] = set[k + 1];
        }
    }
    set[A - 1] = word;
    (hit.is_some(), out)
}

impl SetAssocCache {
    /// Build a cache with `sets` sets (power of two), `assoc` ways, and
    /// `line_shift` log2-line-size, using plain modulo indexing.
    pub fn new(sets: usize, assoc: usize, line_shift: u32) -> Self {
        Self::with_index_mode(sets, assoc, line_shift, IndexMode::Modulo)
    }

    /// Build a cache with an explicit [`IndexMode`].
    ///
    /// Panics unless `sets` is a power of two and `assoc` is in
    /// `1..=`[`MAX_ASSOC`].
    pub fn with_index_mode(
        sets: usize,
        assoc: usize,
        line_shift: u32,
        index_mode: IndexMode,
    ) -> Self {
        Self::with_slices(sets, assoc, line_shift, index_mode, 1)
    }

    /// Build `slices` independent caches of `sets` sets each in one slot
    /// array, all indexed by `index_mode` within their slice.
    pub(crate) fn with_slices(
        sets: usize,
        assoc: usize,
        line_shift: u32,
        index_mode: IndexMode,
        slices: usize,
    ) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            (1..=MAX_ASSOC).contains(&assoc),
            "associativity {assoc} outside 1..={MAX_ASSOC}"
        );
        let idx_bits = sets.trailing_zeros();
        let hashed_bits = match index_mode {
            IndexMode::ColorHash {
                color_low,
                color_bits,
            } => {
                assert!(
                    color_bits < idx_bits,
                    "color field must leave hash bits in the index"
                );
                assert!(color_low >= line_shift, "color field below the line offset");
                idx_bits - color_bits
            }
            IndexMode::Hash => {
                // The spread shifts by `64 - idx_bits`; a 1-set cache would
                // shift by 64 (overflow). A 1-set cache is fully associative
                // anyway — use Modulo for it.
                assert!(sets >= 2, "hash indexing needs at least 2 sets");
                idx_bits
            }
            IndexMode::Modulo => 0,
        };
        Self {
            slots: vec![0; slices * sets * assoc],
            set_count: sets,
            assoc,
            line_shift,
            set_mask: (sets - 1) as u64,
            spread_shift: 64 - hashed_bits,
            index_mode,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets (per slice).
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
                let v = addr.0 >> self.line_shift;
                (fibonacci_spread(v) >> self.spread_shift) as usize
            }
            IndexMode::ColorHash {
                color_low,
                color_bits,
            } => {
                let non_color = 64 - self.spread_shift;
                let color = (addr.0 >> color_low) & ((1u64 << color_bits) - 1);
                // Every address bit above the line offset except the color
                // field, concatenated and spread multiplicatively.
                let low_bits = color_low - self.line_shift;
                let low = (addr.0 >> self.line_shift) & ((1u64 << low_bits) - 1);
                let high = addr.0 >> (color_low + color_bits);
                let v = (high << low_bits) | low;
                let spread = fibonacci_spread(v) >> self.spread_shift;
                ((color << non_color) | spread) as usize
            }
        }
    }

    /// The flat set a [`fibonacci_spread`] of a line address selects in
    /// slice `slice` of a hash-indexed cache (in slice 0, the same as
    /// [`set_index`](Self::set_index)), so a caller probing several
    /// hash-indexed caches spreads each line once.
    #[inline]
    pub(crate) fn hashed_set(&self, slice: usize, spread: u64) -> usize {
        debug_assert_eq!(self.index_mode, IndexMode::Hash);
        slice * self.set_count + (spread >> self.spread_shift) as usize
    }

    /// The slots of flat set `set`.
    #[inline]
    fn stride(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.assoc;
        base..base + self.assoc
    }

    /// Look `tag` up in flat set `set` and touch it with `word` (see
    /// `touch`), without counting: returns whether it hit and the word that
    /// left the set on a miss (0 when none did).
    #[inline]
    pub(crate) fn touch_set(&mut self, set: usize, tag: u32, word: u32) -> (bool, u32) {
        // One instantiation of `touch` per way count; `assoc` is fixed per
        // cache, so the branch is perfectly predicted.
        macro_rules! dispatch {
            ($($a:literal)*) => {
                match self.assoc {
                    $($a => touch::<$a>(&mut self.slots.as_chunks_mut::<$a>().0[set], tag, word),)*
                    _ => unreachable!("associativity checked at construction"),
                }
            };
        }
        const _: () = assert!(MAX_ASSOC == 16, "instantiate `touch` for every way count");
        dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    }

    /// [`touch_set`](Self::touch_set), counted, with the displaced word
    /// decoded: `(hit, eviction)`.
    #[inline]
    pub(crate) fn fill(&mut self, set: usize, tag: u32, word: u32) -> (bool, Option<Eviction>) {
        let (hit, out) = self.touch_set(set, tag, word);
        if hit {
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let eviction = (out != 0).then(|| Eviction {
            line_addr: u64::from(out >> OWNER_BITS) - 1,
            owner: CoreId((out & OWNER_MASK) as usize),
        });
        (false, eviction)
    }

    /// Does flat set `set` hold `tag`?
    #[inline]
    pub(crate) fn holds(&self, set: usize, tag: u32) -> bool {
        self.slots[self.stride(set)]
            .iter()
            .any(|&w| w >> OWNER_BITS == tag)
    }

    /// Look up and touch `addr` for `core`. On a hit the line moves to MRU;
    /// on a miss the line is filled (evicting LRU if the set is full) and
    /// the eviction, if any, is returned.
    ///
    /// Returns `(hit, eviction)`.
    pub fn access(&mut self, core: CoreId, addr: PhysAddr) -> (bool, Option<Eviction>) {
        let tag = line_tag(addr.0 >> self.line_shift);
        self.fill(self.set_index(addr), tag, slot_word(tag, core))
    }

    /// Non-mutating lookup: does the cache currently hold `addr`?
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.holds(self.set_index(addr), line_tag(addr.0 >> self.line_shift))
    }

    /// Drop a line if present (used for invalidation tests). The slots on
    /// its LRU side move up one, keeping the empty slots at the LRU end.
    pub fn invalidate(&mut self, addr: PhysAddr) -> bool {
        let tag = line_tag(addr.0 >> self.line_shift);
        let range = self.stride(self.set_index(addr));
        let slots = &mut self.slots[range];
        if let Some(pos) = slots.iter().position(|&w| w >> OWNER_BITS == tag) {
            slots[..=pos].rotate_right(1);
            slots[0] = 0;
            true
        } else {
            false
        }
    }

    /// Number of resident lines (for occupancy assertions).
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|&&w| w != 0).count()
    }

    /// Number of resident lines owned by `core`.
    pub fn resident_lines_of(&self, core: CoreId) -> usize {
        self.slots
            .iter()
            .filter(|&&w| w != 0 && (w & OWNER_MASK) as usize == core.index())
            .count()
    }

    /// Zero the hit/miss counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Empty the cache and reset stats.
    pub fn flush(&mut self) {
        self.slots.fill(0);
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
