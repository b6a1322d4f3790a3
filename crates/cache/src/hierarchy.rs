//! The three-level hierarchy: private L1/L2 per core, shared L3.
//!
//! On an access the levels are walked in order; a hit at level *k* fills all
//! levels above it (non-inclusive fill, no back-invalidation — a deliberate
//! simplification documented in DESIGN.md). The walk returns where the
//! access was resolved and the cycles spent in the hierarchy; on
//! [`HitLevel::Memory`] the caller (tint-mem) adds interconnect + DRAM time.

use crate::cache::SetAssocCache;
use crate::stats::HierarchyStats;
use tint_hw::machine::MachineConfig;
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
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: SetAssocCache,
    l1_lat: u64,
    l2_lat: u64,
    l3_lat: u64,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Build the hierarchy described by `m`.
    ///
    /// Panics if the machine does not fit the packed slot word
    /// (`((line_addr + 1) << 8) | owner`): more than 256 cores, or a
    /// highest line address whose successor needs more than 56 bits.
    pub fn new(m: &MachineConfig) -> Self {
        let line = m.mapping.line_size();
        let shift = m.mapping.line_shift;
        let cores = m.topology.core_count();
        assert!(
            cores <= 1 << crate::cache::OWNER_BITS,
            "{cores} cores do not fit the cache's 8-bit owner field"
        );
        let top_line = m.mapping.total_bytes().saturating_sub(1) >> shift;
        assert!(
            top_line + 1 < 1 << crate::cache::ADDR_BITS,
            "line address {top_line:#x} does not fit the cache's 56-bit line field"
        );
        // Private levels are hash-indexed so their placement is independent
        // of which bank/LLC colors back a page (see IndexMode::Hash).
        let mk = |lvl: &tint_hw::machine::CacheLevelConfig| {
            SetAssocCache::with_index_mode(
                lvl.sets(line),
                lvl.assoc,
                shift,
                crate::cache::IndexMode::Hash,
            )
        };
        // The shared L3 is physically indexed with a color-preserving hash:
        // the LLC color bits become the top set-index bits (colors partition
        // the cache, the property coloring relies on) and all other physical
        // bits spread within the slice.
        let l3 = SetAssocCache::with_index_mode(
            m.cache.l3.sets(line),
            m.cache.l3.assoc,
            shift,
            crate::cache::IndexMode::ColorHash {
                color_low: m.mapping.llc_color_low_bit(),
                color_bits: m.mapping.llc_bits,
            },
        );
        Self {
            l1: (0..cores).map(|_| mk(&m.cache.l1)).collect(),
            l2: (0..cores).map(|_| mk(&m.cache.l2)).collect(),
            l3,
            l1_lat: m.cache.l1.latency,
            l2_lat: m.cache.l2.latency,
            l3_lat: m.cache.l3.latency,
            stats: HierarchyStats::new(cores),
        }
    }

    /// Walk the hierarchy for `core` touching `addr`.
    ///
    /// Returns the resolution level and the hierarchy cycles spent (the
    /// *lookup chain* cost: L1 on a hit; L1+L2 when resolved at L2; and so
    /// on — a miss everywhere costs the full chain and the caller adds
    /// memory time).
    pub fn access(&mut self, core: CoreId, addr: PhysAddr) -> (HitLevel, u64) {
        let c = core.index();
        let st = &mut self.stats.cores[c];

        let (l1_hit, _) = self.l1[c].access(core, addr);
        if l1_hit {
            st.l1_hits += 1;
            return (HitLevel::L1, self.l1_lat);
        }
        st.l1_misses += 1;

        let (l2_hit, _) = self.l2[c].access(core, addr);
        if l2_hit {
            st.l2_hits += 1;
            return (HitLevel::L2, self.l1_lat + self.l2_lat);
        }
        st.l2_misses += 1;

        let (l3_hit, evicted) = self.l3.access(core, addr);
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
        let cores = self.l1.len();
        self.stats = HierarchyStats::new(cores);
        for c in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            c.reset_stats();
        }
        self.l3.reset_stats();
    }

    /// The shared L3 (for occupancy inspection in tests).
    pub fn l3(&self) -> &SetAssocCache {
        &self.l3
    }

    /// Does any level currently hold `addr` for `core`?
    pub fn probe(&self, core: CoreId, addr: PhysAddr) -> Option<HitLevel> {
        let c = core.index();
        if self.l1[c].probe(addr) {
            Some(HitLevel::L1)
        } else if self.l2[c].probe(addr) {
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
    #[should_panic(expected = "owner field")]
    fn rejects_more_cores_than_the_owner_field_holds() {
        let mut m = MachineConfig::tiny();
        m.topology = tint_hw::Topology::new(1, 1, 257);
        CacheHierarchy::new(&m);
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
