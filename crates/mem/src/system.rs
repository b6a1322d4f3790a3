//! The composed memory system and the interconnect model.

use crate::stats::MemStats;
use tint_cache::{CacheHierarchy, HitLevel};
use tint_dram::{DramAccess, DramSystem};
use tint_hw::machine::MachineConfig;
use tint_hw::types::{CoreId, PhysAddr, Rw};

/// Outcome of one memory access with its latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// End-to-end cycles from issue to data return.
    pub latency: u64,
    /// Where the access was resolved.
    pub level: HitLevel,
    /// Extra interconnect hops taken (0 = local node).
    pub hops: u32,
    /// DRAM detail when the access reached memory (its `node` is the
    /// address's home node).
    pub dram: Option<DramAccess>,
}

/// Caches + interconnect + DRAM behind one `access` call.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MachineConfig,
    hierarchy: CacheHierarchy,
    dram: DramSystem,
    /// Per-node HT port availability: remote requests into a node serialize
    /// briefly on its link, modeling interconnect contention (§II.B).
    link_free_at: Vec<u64>,
    /// `core * nodes + node` → the route from a core to a memory node,
    /// tabulated once from the topology and interconnect.
    routes: Vec<Route>,
    stats: MemStats,
}

/// Interconnect route from a core to a memory node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Route {
    /// Extra hops ([`Topology::hops`](tint_hw::topology::Topology::hops)).
    hops: u32,
    /// The hops' interconnect penalty
    /// ([`InterconnectConfig::hop_extra`](tint_hw::machine::InterconnectConfig::hop_extra)),
    /// half paid on the way out and half on the way back.
    extra: u64,
}

impl MemorySystem {
    /// Build the memory system for a machine.
    pub fn new(config: MachineConfig) -> Self {
        config.validate();
        let hierarchy = CacheHierarchy::new(&config);
        let dram = DramSystem::new(config.mapping, config.dram);
        let nodes = config.topology.node_count();
        let cores = config.topology.core_count();
        let routes = config
            .topology
            .cores()
            .flat_map(|c| config.topology.nodes().map(move |n| (c, n)))
            .map(|(c, n)| {
                let hops = config.topology.hops(c, n);
                Route {
                    hops,
                    extra: config.interconnect.hop_extra(hops),
                }
            })
            .collect();
        Self {
            config,
            hierarchy,
            dram,
            link_free_at: vec![0; nodes],
            routes,
            stats: MemStats::new(cores),
        }
    }

    /// The route from `core` to memory node `node`.
    #[inline]
    fn route(&self, core: CoreId, node: usize) -> Route {
        self.routes[core.index() * self.link_free_at.len() + node]
    }

    /// The machine this system simulates.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Serve one access from `core` to physical address `addr` at cycle
    /// `now`; returns the latency breakdown. Loads and stores share timing
    /// (see DESIGN.md).
    #[inline]
    pub fn access(&mut self, core: CoreId, addr: PhysAddr, _rw: Rw, now: u64) -> AccessResult {
        let (level, hier_cycles) = self.hierarchy.access(core, addr);

        let result = if level == HitLevel::Memory {
            // Only an access that reached memory needs its frame decoded,
            // once: the home node routes it, the rest picks bank and channel.
            let frame = self.dram.decode(addr);
            let home = frame.node as usize;
            let Route {
                hops,
                extra: hop_extra,
            } = self.route(core, home);
            // Outbound: remote requests serialize on the home node's link
            // (the stats' interconnect share is derived by subtraction).
            let mut arrive = now + hier_cycles + hop_extra / 2;
            if hops > 0 {
                let port = &mut self.link_free_at[home];
                let start = arrive.max(*port);
                *port = start + self.config.interconnect.link_busy;
                arrive = start;
            }
            let dram = self.dram.access_decoded(addr, frame, arrive);
            // Return trip: the other half of the hop penalty.
            let done = dram.complete_at + (hop_extra - hop_extra / 2);
            AccessResult {
                latency: done - now,
                level,
                hops,
                dram: Some(dram),
            }
        } else {
            AccessResult {
                latency: hier_cycles,
                level,
                hops: 0,
                dram: None,
            }
        };

        // Book-keeping.
        let st = &mut self.stats.cores[core.index()];
        st.accesses += 1;
        st.total_latency += result.latency;
        st.hierarchy_cycles += hier_cycles;
        match result.dram {
            None => st.cache_resolved += 1,
            Some(d) => {
                match result.hops {
                    0 => st.dram_local += 1,
                    1 => st.dram_same_socket += 1,
                    _ => st.dram_cross_socket += 1,
                }
                st.dram_cycles += d.latency;
                st.interconnect_cycles += result.latency - hier_cycles - d.latency;
            }
        }
        result
    }

    /// Accumulated per-core counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The cache hierarchy (for cache-level stats).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// The DRAM system (for bank-level stats).
    pub fn dram(&self) -> &DramSystem {
        &self.dram
    }

    /// Zero every counter in the stack (contents/timing state preserved).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::new(self.config.topology.core_count());
        self.hierarchy.reset_stats();
        self.dram.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_hw::types::{BankColor, LlcColor};

    fn sys() -> MemorySystem {
        MemorySystem::new(MachineConfig::opteron_6128())
    }

    fn frame(s: &MemorySystem, bc: u16, llc: u16, row: u64) -> tint_hw::types::FrameNumber {
        s.config()
            .mapping
            .compose_frame(BankColor(bc), LlcColor(llc), row)
    }

    #[test]
    fn local_dram_access_has_no_hop_penalty() {
        let mut s = sys();
        // Core 0 is on node 0; bank color 0 is node 0.
        let a = frame(&s, 0, 0, 0).base();
        let r = s.access(CoreId(0), a, Rw::Read, 0);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(r.hops, 0);
        assert_eq!(r.dram.map(|d| d.node), Some(tint_hw::types::NodeId(0)));
    }

    #[test]
    fn remote_latency_exceeds_local_exceeds_cache() {
        // Paper claim (1): local controller latency ≪ remote.
        let mut s = sys();
        let local = frame(&s, 0, 0, 0).base(); // node 0
        let same_socket = frame(&s, 32, 0, 0).base(); // node 1
        let cross_socket = frame(&s, 96, 0, 0).base(); // node 3
        let r_local = s.access(CoreId(0), local, Rw::Read, 0);
        let r_1hop = s.access(CoreId(0), same_socket, Rw::Read, 100_000);
        let r_2hop = s.access(CoreId(0), cross_socket, Rw::Read, 200_000);
        assert!(r_1hop.latency > r_local.latency);
        assert!(r_2hop.latency > r_1hop.latency);
        // And a repeat access is a cache hit far below all of them.
        // A repeat access is resolved in the caches, far below all of them
        // (the three same-set fills above may have demoted it from L1 to L2).
        let r_hit = s.access(CoreId(0), local, Rw::Read, 300_000);
        assert!(
            r_hit.dram.is_none(),
            "expected a cache hit, got {:?}",
            r_hit.level
        );
        assert!(r_hit.latency < r_local.latency / 5);
    }

    #[test]
    fn hop_penalty_matches_config() {
        let mut s = sys();
        let local = frame(&s, 0, 0, 0).base();
        let remote = frame(&s, 96, 0, 1).base(); // cross socket, same row shape
        let r0 = s.access(CoreId(0), local, Rw::Read, 0);
        let r2 = s.access(CoreId(0), remote, Rw::Read, 100_000);
        assert_eq!(
            r2.latency - r0.latency,
            s.config().interconnect.cross_socket_extra,
            "difference must be exactly the hop penalty on an unloaded machine"
        );
    }

    #[test]
    fn remote_link_contention_serializes() {
        let mut s = sys();
        // Two cores on socket 0 both hammer node 3 simultaneously.
        let a = frame(&s, 96, 0, 0).base();
        let b = frame(&s, 97, 0, 0).base(); // different bank, same node
        let r1 = s.access(CoreId(0), a, Rw::Read, 0);
        let r2 = s.access(CoreId(1), b, Rw::Read, 0);
        // Different banks, so without a link model both would be equal except
        // controller overhead; link_busy adds serialization on the HT port.
        assert!(
            r2.latency >= r1.latency,
            "second remote access waits on the link/controller"
        );
    }

    #[test]
    fn stats_classify_locality() {
        let mut s = sys();
        let local = frame(&s, 0, 0, 0).base();
        let one_hop = frame(&s, 32, 0, 0).base();
        let two_hop = frame(&s, 96, 0, 0).base();
        s.access(CoreId(0), local, Rw::Read, 0);
        s.access(CoreId(0), one_hop, Rw::Read, 10_000);
        s.access(CoreId(0), two_hop, Rw::Read, 20_000);
        let st = s.stats().core(CoreId(0));
        assert_eq!(st.dram_local, 1);
        assert_eq!(st.dram_same_socket, 1);
        assert_eq!(st.dram_cross_socket, 1);
        assert!((st.remote_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_hit_counts_as_cache_resolved() {
        let mut s = sys();
        let a = frame(&s, 0, 0, 0).base();
        s.access(CoreId(0), a, Rw::Read, 0);
        s.access(CoreId(0), a, Rw::Read, 1000);
        let st = s.stats().core(CoreId(0));
        assert_eq!(st.accesses, 2);
        assert_eq!(st.cache_resolved, 1);
        assert_eq!(st.dram_total(), 1);
    }

    #[test]
    fn latency_breakdown_sums() {
        let mut s = sys();
        let a = frame(&s, 96, 3, 7).base();
        let r = s.access(CoreId(0), a, Rw::Write, 0);
        let st = s.stats().core(CoreId(0));
        assert_eq!(
            st.hierarchy_cycles + st.interconnect_cycles + st.dram_cycles,
            r.latency,
            "breakdown must sum to end-to-end latency"
        );
    }

    #[test]
    fn routes_match_the_topology_on_every_preset() {
        for m in [
            MachineConfig::opteron_6128(),
            MachineConfig::eight_node(),
            MachineConfig::tiny(),
        ] {
            let s = MemorySystem::new(m.clone());
            for c in m.topology.cores() {
                for n in m.topology.nodes() {
                    let hops = m.topology.hops(c, n);
                    assert_eq!(
                        s.route(c, n.index()),
                        Route {
                            hops,
                            extra: m.interconnect.hop_extra(hops),
                        },
                        "{}: core {c} to node {n}",
                        m.name
                    );
                }
            }
        }
    }

    /// The access path as it was before the one-decode DRAM path: the home
    /// node from a full `AddressMapping` decode, the hop count from the
    /// topology, and a `DramSystem::access` that decodes the frame again.
    fn access_decoding_twice(
        s: &mut MemorySystem,
        core: CoreId,
        addr: PhysAddr,
        rw: Rw,
        now: u64,
    ) -> AccessResult {
        let (level, hier_cycles) = s.hierarchy.access(core, addr);
        if level != HitLevel::Memory {
            return AccessResult {
                latency: hier_cycles,
                level,
                hops: 0,
                dram: None,
            };
        }
        let home = s.config.mapping.decode_frame(addr.frame()).node;
        let hops = s.config.topology.hops(core, home);
        let hop_extra = s.config.interconnect.hop_extra(hops);
        let mut arrive = now + hier_cycles + hop_extra / 2;
        if hops > 0 {
            let port = &mut s.link_free_at[home.index()];
            let start = arrive.max(*port);
            *port = start + s.config.interconnect.link_busy;
            arrive = start;
        }
        let dram = s.dram.access(addr, rw, arrive);
        let done = dram.complete_at + (hop_extra - hop_extra / 2);
        AccessResult {
            latency: done - now,
            level,
            hops,
            dram: Some(dram),
        }
    }

    #[test]
    fn one_decode_path_matches_decoding_twice() {
        let mut rng = tint_hw::rng::SplitMix64::new(0xD0DE);
        let mut fast = sys();
        let mut slow = sys();
        let mut now = 0;
        for i in 0..20_000 {
            let core = CoreId(rng.gen_range(16) as usize);
            // Every bank color and node, but only eight rows each, so rows,
            // banks and links contend.
            let frame = tint_hw::types::FrameNumber(rng.gen_range(1 << 15));
            let addr = frame.at(rng.gen_range(32) * 128);
            let rw = if rng.gen_range(2) == 0 {
                Rw::Read
            } else {
                Rw::Write
            };
            now += rng.gen_range(40);
            let want = access_decoding_twice(&mut slow, core, addr, rw, now);
            assert_eq!(fast.access(core, addr, rw, now), want, "access {i}");
        }
        assert_eq!(
            format!("{:?}", fast.dram().stats()),
            format!("{:?}", slow.dram().stats())
        );
        assert_eq!(
            format!("{:?}", fast.hierarchy().stats()),
            format!("{:?}", slow.hierarchy().stats())
        );
        assert_eq!(fast.link_free_at, slow.link_free_at);
    }

    #[test]
    fn reset_stats_clears_everything() {
        let mut s = sys();
        s.access(CoreId(0), frame(&s, 0, 0, 0).base(), Rw::Read, 0);
        s.reset_stats();
        assert_eq!(s.stats().core(CoreId(0)).accesses, 0);
        assert_eq!(s.dram().stats().requests, 0);
        assert_eq!(s.hierarchy().stats().core(CoreId(0)).accesses(), 0);
    }
}
