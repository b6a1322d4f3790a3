//! Whole-machine configuration presets.
//!
//! [`MachineConfig`] bundles everything the downstream simulators need:
//! topology, address mapping, cache geometry, DRAM timing, and interconnect
//! latencies. All times are in **core clock cycles**; the Opteron preset runs
//! cores at 2 GHz (paper §IV: the ondemand governor immediately raises
//! CPU-bound work to 2 GHz), so one cycle is 0.5 ns.

use crate::addrmap::AddressMapping;
use crate::topology::Topology;

/// The widest associativity a cache level may have: the cache simulator
/// keeps one fixed-width set kernel per way count in `1..=MAX_ASSOC`.
pub const MAX_ASSOC: usize = 16;

/// Geometry and hit latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Capacity in bytes.
    pub bytes: u64,
    /// Associativity (ways), in `1..=`[`MAX_ASSOC`].
    pub assoc: usize,
    /// Hit latency in core cycles.
    pub latency: u64,
}

impl CacheLevelConfig {
    /// Number of sets for a given line size.
    pub fn sets(&self, line_size: u64) -> usize {
        let sets = self.bytes / (line_size * self.assoc as u64);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        sets as usize
    }
}

/// The cache hierarchy: private L1 and L2 per core, shared L3 (LLC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Private per-core L1 data cache.
    pub l1: CacheLevelConfig,
    /// Private per-core unified L2.
    pub l2: CacheLevelConfig,
    /// Shared L3 = LLC.
    pub l3: CacheLevelConfig,
}

/// Row-buffer management policy of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Open-page: leave the row open after an access (rewards locality,
    /// punishes sharing — the regime the paper's analysis assumes).
    #[default]
    Open,
    /// Closed-page: auto-precharge after every access (every access pays
    /// `tRCD + tCAS`; there are no row hits and no row conflicts).
    Closed,
}

/// DRAM device and controller timing, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Column access strobe: row-buffer hit cost.
    pub t_cas: u64,
    /// Row-to-column delay: activating a closed row.
    pub t_rcd: u64,
    /// Precharge: closing a dirty/conflicting row before activating another.
    pub t_rp: u64,
    /// Data transfer time for one cache line on the channel.
    pub t_transfer: u64,
    /// Fixed controller pipeline overhead per request.
    pub ctrl_overhead: u64,
    /// Refresh interval (tREFI); `0` disables refresh modeling.
    pub t_refi: u64,
    /// Refresh cycle time (tRFC): bank-unavailable window per refresh.
    pub t_rfc: u64,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

/// Interconnect (HyperTransport-style) latencies, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterconnectConfig {
    /// Extra latency for a same-socket remote node (1 extra hop).
    pub same_socket_extra: u64,
    /// Extra latency for a cross-socket node (2 extra hops).
    pub cross_socket_extra: u64,
    /// Link occupancy per transfer — serializes concurrent remote traffic on
    /// the same link (models interconnect contention, paper §II.B).
    pub link_busy: u64,
}

impl InterconnectConfig {
    /// Extra one-way latency for `hops` extra hops (0, 1 or 2).
    #[inline]
    pub fn hop_extra(&self, hops: u32) -> u64 {
        match hops {
            0 => 0,
            1 => self.same_socket_extra,
            _ => self.cross_socket_extra,
        }
    }
}

/// Full machine description consumed by every simulator crate.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable preset name.
    pub name: String,
    /// Socket/node/core layout.
    pub topology: Topology,
    /// Physical address bit mapping (colors, banks, rows).
    pub mapping: AddressMapping,
    /// Cache hierarchy geometry.
    pub cache: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Interconnect latencies.
    pub interconnect: InterconnectConfig,
    /// Core frequency in GHz (informational; all times are cycles).
    pub core_ghz: f64,
}

impl MachineConfig {
    /// The paper's evaluation platform (§IV): dual-socket AMD Opteron 6128 —
    /// 2 sockets × 2 nodes × 4 cores = 16 cores over 4 memory controllers,
    /// 128 KiB private L1d, 512 KiB private L2, 12 MiB shared L3, 128-byte
    /// lines, 128 bank colors, 32 LLC colors, cores at 2 GHz.
    pub fn opteron_6128() -> Self {
        let mapping = AddressMapping::opteron_6128();
        let cfg = Self {
            name: "opteron-6128".to_string(),
            topology: Topology::new(2, 2, 4),
            mapping,
            cache: CacheConfig {
                l1: CacheLevelConfig {
                    bytes: 128 << 10,
                    assoc: 2,
                    latency: 3,
                },
                l2: CacheLevelConfig {
                    bytes: 512 << 10,
                    assoc: 8,
                    latency: 12,
                },
                // 16384 sets × 128 B × 6 ways = 12 MiB: the set-index bits
                // [7..21) cover the LLC color bits [16..21).
                l3: CacheLevelConfig {
                    bytes: 12 << 20,
                    assoc: 6,
                    latency: 38,
                },
            },
            // DDR3-1333-class timings at 2 GHz (0.5 ns/cycle): tCAS/tRCD/tRP
            // ≈ 13.5 ns → 27 cycles; 128 B over a 64-bit channel at 1333 MT/s
            // ≈ 12 ns → 24 cycles.
            dram: DramConfig {
                t_cas: 27,
                t_rcd: 27,
                t_rp: 27,
                t_transfer: 24,
                ctrl_overhead: 10,
                t_refi: 15_600, // 7.8 µs
                t_rfc: 320,     // 160 ns
                page_policy: PagePolicy::Open,
            },
            // HyperTransport: ~20 ns extra on-chip hop, ~45 ns cross-socket.
            interconnect: InterconnectConfig {
                same_socket_extra: 40,
                cross_socket_extra: 90,
                link_busy: 6,
            },
            core_ghz: 2.0,
        };
        cfg.validate();
        cfg
    }

    /// A portability demonstration (the paper's §VII: "portable across x86
    /// architectures with documented bit mappings"): an eight-node machine —
    /// 2 sockets × 4 nodes × 2 cores, 256 bank colors, 32 LLC colors,
    /// 16 GiB — with the Opteron cache/DRAM/interconnect parameters. Every
    /// layer (PCI derivation, kernel, planners, SPMD engine) works on it
    /// unchanged.
    pub fn eight_node() -> Self {
        let mut cfg = Self::opteron_6128();
        cfg.name = "eight-node".to_string();
        cfg.topology = Topology::new(2, 4, 2);
        cfg.mapping = AddressMapping {
            node_bits: 3,
            row_bits: 9, // keep 16 GiB total
            ..AddressMapping::opteron_6128()
        };
        cfg.validate();
        cfg
    }

    /// A small machine for fast tests: 2 sockets × 1 node × 2 cores, 4 bank
    /// colors, 4 LLC colors, 64 MiB, tiny caches with the same structure.
    pub fn tiny() -> Self {
        let mapping = AddressMapping::tiny();
        let cfg = Self {
            name: "tiny".to_string(),
            topology: Topology::new(2, 1, 2),
            mapping,
            cache: CacheConfig {
                l1: CacheLevelConfig {
                    bytes: 2 << 10,
                    assoc: 2,
                    latency: 3,
                },
                l2: CacheLevelConfig {
                    bytes: 8 << 10,
                    assoc: 4,
                    latency: 12,
                },
                // 512 sets × 64 B × 2 ways = 64 KiB; set-index bits [6..15)
                // cover the tiny LLC color bits [13..15).
                l3: CacheLevelConfig {
                    bytes: 64 << 10,
                    assoc: 2,
                    latency: 38,
                },
            },
            dram: DramConfig {
                t_cas: 27,
                t_rcd: 27,
                t_rp: 27,
                t_transfer: 24,
                ctrl_overhead: 10,
                t_refi: 0,
                t_rfc: 0,
                page_policy: PagePolicy::Open,
            },
            interconnect: InterconnectConfig {
                same_socket_extra: 60,
                cross_socket_extra: 140,
                link_busy: 8,
            },
            core_ghz: 2.0,
        };
        cfg.validate();
        cfg
    }

    /// Panic if the configuration is internally inconsistent.
    pub fn validate(&self) {
        assert_eq!(
            self.topology.node_count(),
            self.mapping.node_count(),
            "topology and address mapping disagree on the number of nodes"
        );
        for (name, lvl) in [
            ("L1", &self.cache.l1),
            ("L2", &self.cache.l2),
            ("L3", &self.cache.l3),
        ] {
            assert!(
                (1..=MAX_ASSOC).contains(&lvl.assoc),
                "{name} associativity {} outside 1..={MAX_ASSOC}",
                lvl.assoc
            );
        }
        let line = self.mapping.line_size();
        // L3 set-index bits must cover the LLC color bits, otherwise LLC
        // coloring cannot partition the cache (paper §III.A).
        let l3_sets = self.cache.l3.sets(line);
        let index_top = self.mapping.line_shift + l3_sets.trailing_zeros();
        let color_top = self.mapping.llc_color_top_bit();
        assert!(
            index_top >= color_top,
            "L3 set-index bits [{}..{}) do not cover the LLC color bits [{}..{})",
            self.mapping.line_shift,
            index_top,
            self.mapping.llc_color_low_bit(),
            color_top
        );
        // L1/L2 must also be valid geometries.
        let _ = self.cache.l1.sets(line);
        let _ = self.cache.l2.sets(line);
    }

    /// Number of L3 sets owned by one LLC color.
    pub fn l3_sets_per_color(&self) -> usize {
        self.cache.l3.sets(self.mapping.line_size()) / self.mapping.llc_color_count()
    }

    /// Convert cycles to nanoseconds at this machine's core frequency.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.core_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opteron_preset_validates() {
        let m = MachineConfig::opteron_6128();
        assert_eq!(m.topology.core_count(), 16);
        assert_eq!(m.mapping.bank_color_count(), 128);
        // 12 MiB / (128 B × 6 ways) = 16384 sets; 16384/32 colors = 512.
        assert_eq!(m.l3_sets_per_color(), 512);
    }

    #[test]
    fn eight_node_preset_validates() {
        let m = MachineConfig::eight_node();
        assert_eq!(m.topology.node_count(), 8);
        assert_eq!(m.mapping.bank_color_count(), 256);
        assert_eq!(m.mapping.llc_color_count(), 32);
        assert_eq!(m.mapping.total_bytes(), 16 << 30);
        assert_eq!(m.mapping.bank_colors_per_node(), 32);
    }

    #[test]
    fn tiny_preset_validates() {
        let m = MachineConfig::tiny();
        assert_eq!(m.topology.core_count(), 4);
        assert_eq!(m.mapping.bank_color_count(), 4);
        assert_eq!(m.l3_sets_per_color(), 128);
    }

    #[test]
    #[should_panic(expected = "disagree on the number of nodes")]
    fn mismatched_topology_rejected() {
        let mut m = MachineConfig::tiny();
        m.topology = Topology::new(1, 1, 2);
        m.validate();
    }

    #[test]
    #[should_panic(expected = "do not cover the LLC color bits")]
    fn too_small_llc_rejected() {
        let mut m = MachineConfig::tiny();
        m.cache.l3.bytes = 4 << 10; // 32 sets: index top = bit 11 < color top 15
        m.validate();
    }

    #[test]
    #[should_panic(expected = "L2 associativity 0 outside 1..=16")]
    fn zero_ways_rejected() {
        let mut m = MachineConfig::tiny();
        m.cache.l2.assoc = 0;
        m.validate();
    }

    #[test]
    #[should_panic(expected = "L3 associativity 17 outside 1..=16")]
    fn seventeen_ways_rejected() {
        let mut m = MachineConfig::tiny();
        m.cache.l3.assoc = 17;
        m.validate();
    }

    #[test]
    fn hop_extras() {
        let m = MachineConfig::opteron_6128();
        assert_eq!(m.interconnect.hop_extra(0), 0);
        assert_eq!(m.interconnect.hop_extra(1), 40);
        assert_eq!(m.interconnect.hop_extra(2), 90);
    }

    #[test]
    fn cycles_to_ns_at_2ghz() {
        let m = MachineConfig::opteron_6128();
        assert_eq!(m.cycles_to_ns(200), 100.0);
    }

    #[test]
    fn sets_rejects_non_power_of_two() {
        let lvl = CacheLevelConfig {
            bytes: 12 << 20,
            assoc: 6,
            latency: 1,
        };
        assert_eq!(lvl.sets(128), 16384);
        let bad = CacheLevelConfig {
            bytes: 3000,
            assoc: 3,
            latency: 1,
        };
        let r = std::panic::catch_unwind(|| bad.sets(128));
        assert!(r.is_err());
    }
}
