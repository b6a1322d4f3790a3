//! The three-level hierarchy: private L1/L2 per core, shared L3.
//!
//! On an access the levels are walked in order; a hit at level *k* fills all
//! levels above it (non-inclusive fill, no back-invalidation — a deliberate
//! simplification documented in DESIGN.md). The walk returns where the
//! access was resolved and the cycles spent in the hierarchy; on
//! [`HitLevel::Memory`] the caller (tint-mem) adds interconnect + DRAM time.

use crate::cache::{fibonacci_spread, line_tag, slot_word, IndexMode, SetAssocCache};
use crate::stats::HierarchyStats;
use tint_hw::machine::{MachineConfig, LINE_ADDR_BITS, MAX_CORES};
use tint_hw::types::{CoreId, PhysAddr};

/// Where an access was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared LLC hit.
    L3,
    /// Missed everywhere — resolved in DRAM.
    Memory,
}

/// The full cache hierarchy of the machine.
///
/// Each private level is one [`SetAssocCache`] of `cores` slices (core `c`
/// indexes slice `c`), so every core's L1 sets sit in one slot array and
/// its L2 sets in another; the shared L3 is the same type with one slice.
/// Hit and miss counts live in [`HierarchyStats`] only: the private levels
/// are touched uncounted.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    line_shift: u32,
    l1_lat: u64,
    l2_lat: u64,
    l3_lat: u64,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Build the hierarchy described by `m`.
    ///
    /// Panics if the machine does not fit the 32-bit slot word
    /// (`((line_addr + 1) << 4) | owner`): more than [`MAX_CORES`] cores, or
    /// a highest line address not below `2^`[`LINE_ADDR_BITS`]` − 1` — the
    /// bounds `MachineConfig::validate` enforces.
    pub fn new(m: &MachineConfig) -> Self {
        let line = m.mapping.line_size();
        let shift = m.mapping.line_shift;
        let cores = m.topology.core_count();
        let top_line = (m.mapping.total_bytes() - 1) >> shift;
        assert!(
            cores <= MAX_CORES && top_line < (1 << LINE_ADDR_BITS) - 1,
            "{cores} cores and highest line {top_line:#x} exceed the cache's \
             {MAX_CORES}-core, 2^{LINE_ADDR_BITS} - 1-line bound"
        );
        // Private levels are hash-indexed so their placement is independent
        // of which bank/LLC colors back a page (see IndexMode::Hash).
        let private = |lvl: &tint_hw::machine::CacheLevelConfig| {
            SetAssocCache::with_slices(lvl.sets(line), lvl.assoc, shift, IndexMode::Hash, cores)
        };
        // The shared L3 is physically indexed with a color-preserving hash:
        // the LLC color bits become the top set-index bits (colors partition
        // the cache, the property coloring relies on) and all other physical
        // bits spread within the slice.
        let l3 = SetAssocCache::with_index_mode(
            m.cache.l3.sets(line),
            m.cache.l3.assoc,
            shift,
            IndexMode::ColorHash {
                color_low: m.mapping.llc_color_low_bit(),
                color_bits: m.mapping.llc_bits,
            },
        );
        Self {
            l1: private(&m.cache.l1),
            l2: private(&m.cache.l2),
            l3,
            line_shift: shift,
            l1_lat: m.cache.l1.latency,
            l2_lat: m.cache.l2.latency,
            l3_lat: m.cache.l3.latency,
            stats: HierarchyStats::new(cores),
        }
    }

    /// `core`'s private L1 and L2 sets of a line, from one spread of its
    /// address.
    #[inline]
    fn private_sets(&self, c: usize, line: u64) -> (usize, usize) {
        let spread = fibonacci_spread(line);
        (self.l1.hashed_set(c, spread), self.l2.hashed_set(c, spread))
    }

    /// Walk the hierarchy for `core` touching `addr`.
    ///
    /// Returns the resolution level and the hierarchy cycles spent (the
    /// *lookup chain* cost: L1 on a hit; L1+L2 when resolved at L2; and so
    /// on — a miss everywhere costs the full chain and the caller adds
    /// memory time).
    #[inline]
    pub fn access(&mut self, core: CoreId, addr: PhysAddr) -> (HitLevel, u64) {
        let c = core.index();
        let line = addr.0 >> self.line_shift;
        let tag = line_tag(line);
        let word = slot_word(tag, core);
        let (l1_set, l2_set) = self.private_sets(c, line);
        let st = &mut self.stats.cores[c];

        if self.l1.touch_set(l1_set, tag, word).0 {
            st.l1_hits += 1;
            return (HitLevel::L1, self.l1_lat);
        }
        st.l1_misses += 1;

        if self.l2.touch_set(l2_set, tag, word).0 {
            st.l2_hits += 1;
            return (HitLevel::L2, self.l1_lat + self.l2_lat);
        }
        st.l2_misses += 1;

        let (l3_hit, evicted) = self.l3.fill(self.l3.set_index(addr), tag, word);
        if let Some(ev) = evicted {
            if ev.owner != core {
                // Interference: this fill displaced another core's line.
                self.stats.cores[ev.owner.index()].l3_evicted_by_others += 1;
            }
        }
        let st = &mut self.stats.cores[c];
        if l3_hit {
            st.l3_hits += 1;
            (HitLevel::L3, self.l1_lat + self.l2_lat + self.l3_lat)
        } else {
            st.l3_misses += 1;
            (HitLevel::Memory, self.l1_lat + self.l2_lat + self.l3_lat)
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Zero all counters (contents preserved).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::new(self.stats.cores.len());
        self.l3.reset_stats();
    }

    /// The shared L3 (for occupancy inspection in tests).
    pub fn l3(&self) -> &SetAssocCache {
        &self.l3
    }

    /// Does any level currently hold `addr` for `core`?
    pub fn probe(&self, core: CoreId, addr: PhysAddr) -> Option<HitLevel> {
        let line = addr.0 >> self.line_shift;
        let tag = line_tag(line);
        let (l1_set, l2_set) = self.private_sets(core.index(), line);
        if self.l1.holds(l1_set, tag) {
            Some(HitLevel::L1)
        } else if self.l2.holds(l2_set, tag) {
            Some(HitLevel::L2)
        } else if self.l3.probe(addr) {
            Some(HitLevel::L3)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_hw::types::LlcColor;

    fn hierarchy() -> (MachineConfig, CacheHierarchy) {
        let m = MachineConfig::tiny();
        let h = CacheHierarchy::new(&m);
        (m, h)
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let (_, mut h) = hierarchy();
        let a = PhysAddr(0x1000);
        let (lvl, cyc) = h.access(CoreId(0), a);
        assert_eq!(lvl, HitLevel::Memory);
        assert_eq!(cyc, 3 + 12 + 38);
        let (lvl, cyc) = h.access(CoreId(0), a);
        assert_eq!(lvl, HitLevel::L1);
        assert_eq!(cyc, 3);
    }

    #[test]
    fn fill_populates_all_levels() {
        let (_, mut h) = hierarchy();
        let a = PhysAddr(0x2000);
        h.access(CoreId(0), a);
        assert_eq!(h.probe(CoreId(0), a), Some(HitLevel::L1));
        // Another core misses privately but hits shared L3.
        let (lvl, _) = h.access(CoreId(1), a);
        assert_eq!(lvl, HitLevel::L3);
    }

    #[test]
    fn l2_hit_after_l1_capacity_eviction() {
        let (m, mut h) = hierarchy();
        let line = m.mapping.line_size();
        let a = PhysAddr(0);
        h.access(CoreId(0), a);
        // Stream enough lines to evict `a` from tiny L1 (2 KiB) but not from
        // L2 (8 KiB).
        let l1_lines = m.cache.l1.bytes / line;
        for i in 1..=(l1_lines * 2) {
            h.access(CoreId(0), PhysAddr(i * line));
        }
        let lvl = h.probe(CoreId(0), a);
        assert!(
            matches!(lvl, Some(HitLevel::L2) | Some(HitLevel::L3)),
            "a should have fallen out of L1, got {lvl:?}"
        );
    }

    #[test]
    fn cross_core_llc_interference_is_counted() {
        let (m, mut h) = hierarchy();
        // Both cores stream disjoint data of the SAME LLC color — they fight
        // for the same L3 sets (Fig. 9).
        // Same bank color too: the bank bit is part of the L3 index in this
        // layout, so only same-(bank, llc) pages contend for the same sets.
        let llc = LlcColor(1);
        let frames_a: Vec<_> = (0..8)
            .map(|r| {
                m.mapping
                    .compose_frame(tint_hw::types::BankColor(0), llc, r)
            })
            .collect();
        let frames_b: Vec<_> = (8..16)
            .map(|r| {
                m.mapping
                    .compose_frame(tint_hw::types::BankColor(0), llc, r)
            })
            .collect();
        // Fill way beyond the color's L3 slice from both cores, interleaved.
        for round in 0..4 {
            let _ = round;
            for f in &frames_a {
                for off in (0..4096).step_by(64) {
                    h.access(CoreId(0), f.at(off));
                }
            }
            for f in &frames_b {
                for off in (0..4096).step_by(64) {
                    h.access(CoreId(1), f.at(off));
                }
            }
        }
        assert!(
            h.stats().total_llc_interference() > 0,
            "same-color streams must interfere in L3"
        );
    }

    #[test]
    fn disjoint_llc_colors_do_not_interfere() {
        let (m, mut h) = hierarchy();
        // Core 0 uses color 0, core 1 uses color 1; each working set fits in
        // its color's slice (64 sets × 2 ways × 64 B = 8 KiB per color).
        let fa = m
            .mapping
            .compose_frame(tint_hw::types::BankColor(0), LlcColor(0), 0);
        let fb = m
            .mapping
            .compose_frame(tint_hw::types::BankColor(1), LlcColor(1), 0);
        // Half a page (32 lines) fits the tiny 2 KiB L1 exactly.
        for _ in 0..4 {
            for off in (0..2048).step_by(64) {
                h.access(CoreId(0), fa.at(off));
                h.access(CoreId(1), fb.at(off));
            }
        }
        assert_eq!(
            h.stats().total_llc_interference(),
            0,
            "disjoint colors must not evict each other"
        );
        // After warm-up both cores hit in L1.
        let s0 = h.stats().core(CoreId(0));
        assert!(s0.l1_hits > s0.l1_misses);
    }

    #[test]
    fn llc_color_restricts_set_usage() {
        let (m, mut h) = hierarchy();
        // Touching one color's pages touches only that color's L3 sets:
        // stream one full page of color 2 and check the set indices used.
        let f = m
            .mapping
            .compose_frame(tint_hw::types::BankColor(0), LlcColor(2), 0);
        let l3_sets = h.l3().set_count();
        let sets_per_color = l3_sets / m.mapping.llc_color_count();
        let mut used = std::collections::BTreeSet::new();
        for off in (0..4096).step_by(64) {
            let a = f.at(off);
            used.insert(h.l3().set_index(a));
            h.access(CoreId(0), a);
        }
        assert!(used.len() <= sets_per_color);
        for s in used {
            assert_eq!(
                s / sets_per_color,
                2usize,
                "set {s} does not belong to color 2's slice"
            );
        }
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let (_, mut h) = hierarchy();
        let a = PhysAddr(0x3000);
        h.access(CoreId(0), a);
        h.reset_stats();
        assert_eq!(h.stats().core(CoreId(0)).accesses(), 0);
        let (lvl, _) = h.access(CoreId(0), a);
        assert_eq!(lvl, HitLevel::L1, "contents survived the reset");
    }

    #[test]
    fn same_line_repeats_hit_l1() {
        let (_, mut h) = hierarchy();
        let a = PhysAddr(0x5000);
        h.access(CoreId(0), a); // cold miss, fills every level
        for off in 0..8 {
            let (lvl, cyc) = h.access(CoreId(0), PhysAddr(0x5000 + off * 8));
            assert_eq!((lvl, cyc), (HitLevel::L1, 3), "same 64B line");
        }
        let st = h.stats().core(CoreId(0));
        assert_eq!(st.l1_hits, 8);
        assert_eq!(st.l1_misses, 1);
    }

    #[test]
    #[should_panic(expected = "17 cores and highest line 0xfffff exceed the cache's 16-core")]
    fn rejects_seventeen_cores() {
        let mut m = MachineConfig::tiny();
        m.topology = tint_hw::Topology::new(1, 1, 17);
        CacheHierarchy::new(&m);
    }

    #[test]
    fn private_slices_of_one_line_are_disjoint() {
        // Core 15's copy of a line lives in its own L1/L2 slices: evicting
        // it there leaves core 0's copy resident.
        let mut m = MachineConfig::tiny();
        m.topology = tint_hw::Topology::new(2, 1, 8);
        let mut h = CacheHierarchy::new(&m);
        let (c0, c15) = (CoreId(0), CoreId(15));
        let a = PhysAddr(0x4000);
        h.access(c0, a);
        assert_eq!(h.access(c15, a).0, HitLevel::L3, "core 15 misses privately");
        assert_eq!(h.probe(c0, a), Some(HitLevel::L1));
        assert_eq!(h.probe(c15, a), Some(HitLevel::L1));
        // Same line, same index within a slice; disjoint flat sets.
        let line = a.0 >> m.mapping.line_shift;
        let (s1_0, s2_0) = h.private_sets(0, line);
        let (s1_15, s2_15) = h.private_sets(15, line);
        assert_eq!(s1_15 - s1_0, 15 * h.l1.set_count());
        assert_eq!(s2_15 - s2_0, 15 * h.l2.set_count());
        // Core 15 streams lines of the same L1 and L2 sets until its copy
        // is gone from both private levels.
        let line_size = m.mapping.line_size();
        let mut evicted = false;
        for i in 1..1 << 16 {
            let b = PhysAddr(a.0 + i * line_size);
            if h.private_sets(15, b.0 >> m.mapping.line_shift) == (s1_15, s2_15) {
                h.access(c15, b);
            }
            if !matches!(h.probe(c15, a), Some(HitLevel::L1 | HitLevel::L2)) {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "core 15's private copy was never evicted");
        assert_eq!(
            h.access(c0, a),
            (HitLevel::L1, 3),
            "core 0's copy survives in its own slice"
        );
    }

    #[test]
    fn per_core_privacy_of_l1_l2() {
        let (_, mut h) = hierarchy();
        let a = PhysAddr(0x4000);
        h.access(CoreId(0), a);
        assert_eq!(
            h.probe(CoreId(1), a),
            Some(HitLevel::L3),
            "only shared L3 visible to core 1"
        );
    }
}
