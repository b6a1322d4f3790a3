//! Per-thread color planners for every policy the paper evaluates (§V.B).
//!
//! Given the machine and the thread→core pinning, a [`ColorScheme`] produces
//! each thread's color sets:
//!
//! * **`Buddy`** — no colors; the stock NUMA-aware Linux buddy behaviour
//!   (local-node preference). The paper's normalization baseline.
//! * **`LegacyGlobal`** — no colors and *no node awareness* (a pre-NUMA
//!   buddy); an ablation showing what locality alone buys.
//! * **`LlcOnly`** — private LLC colors per thread, banks uncolored.
//! * **`MemOnly`** — private bank colors per thread **from its local node**
//!   (this is the controller-awareness), LLC uncolored.
//! * **`MemLlc`** — both; full isolation ("there is no sharing").
//! * **`MemLlcPart`** — private banks; LLC colors shared within a node
//!   group (paper: 16 threads → 4 groups × 8 LLC colors).
//! * **`LlcMemPart`** — private LLC colors; each thread shares *all* of its
//!   node's bank colors with its node-mates.
//! * **`Bpm`** — prior work \[10\]: banks and LLC partitioned, but bank colors
//!   assigned round-robin across the whole machine *ignoring the
//!   controller* — threads end up with mostly-remote banks, which is
//!   exactly why the paper finds BPM slower than buddy.

use std::fmt;
use tint_hw::machine::MachineConfig;
use tint_hw::types::{BankColor, CoreId, LlcColor, NodeId};
use tint_kernel::HeapPolicy;

/// A thread's planned colors and base policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadColors {
    /// Memory (bank) colors to register via `SET_MEM_COLOR`.
    pub mem: Vec<BankColor>,
    /// LLC colors to register via `SET_LLC_COLOR`.
    pub llc: Vec<LlcColor>,
    /// Base policy when uncolored.
    pub policy: HeapPolicy,
}

impl ThreadColors {
    /// No colors under the given base policy.
    pub fn uncolored(policy: HeapPolicy) -> Self {
        Self {
            mem: Vec::new(),
            llc: Vec::new(),
            policy,
        }
    }
}

/// The allocation policies compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColorScheme {
    /// Stock Linux buddy (NUMA-aware local preference) — the baseline.
    Buddy,
    /// Node-oblivious buddy (ablation).
    LegacyGlobal,
    /// Private LLC colors only.
    LlcOnly,
    /// Private local-node bank colors only.
    MemOnly,
    /// Private bank colors and private LLC colors.
    MemLlc,
    /// Private bank colors; LLC colors shared within node groups.
    MemLlcPart,
    /// Private LLC colors; node's bank colors shared within node groups.
    LlcMemPart,
    /// Bank+LLC partitioning ignoring the controller (Liu et al. \[10\]).
    Bpm,
    /// PALLOC (Yun et al. \[8\]): DRAM-bank-aware allocation only — private
    /// banks per thread for performance isolation, but no LLC coloring and
    /// no controller awareness.
    Palloc,
}

impl ColorScheme {
    /// Every scheme, in the order figures present them.
    pub const ALL: [ColorScheme; 9] = [
        ColorScheme::Buddy,
        ColorScheme::LegacyGlobal,
        ColorScheme::Bpm,
        ColorScheme::Palloc,
        ColorScheme::LlcOnly,
        ColorScheme::MemOnly,
        ColorScheme::MemLlc,
        ColorScheme::MemLlcPart,
        ColorScheme::LlcMemPart,
    ];

    /// The TintMalloc coloring variants (excludes baselines).
    pub const TINT: [ColorScheme; 5] = [
        ColorScheme::LlcOnly,
        ColorScheme::MemOnly,
        ColorScheme::MemLlc,
        ColorScheme::MemLlcPart,
        ColorScheme::LlcMemPart,
    ];

    /// Does this scheme register any colors (use Algorithm 1)?
    pub fn is_colored(self) -> bool {
        !matches!(self, ColorScheme::Buddy | ColorScheme::LegacyGlobal)
    }

    /// Plan per-thread colors for threads pinned to `cores` (thread `i` on
    /// `cores[i]`).
    ///
    /// Panics if there are more threads than LLC colors (a scheme needing
    /// private LLC colors could not provide any) or more threads on a node
    /// than the node has bank colors.
    pub fn plan(self, machine: &MachineConfig, cores: &[CoreId]) -> Vec<ThreadColors> {
        let t = cores.len();
        assert!(t > 0, "no threads to plan for");
        let map = &machine.mapping;
        let llc_total = map.llc_color_count();
        let nodes: Vec<NodeId> = cores
            .iter()
            .map(|&c| machine.topology.node_of_core(c))
            .collect();

        // Per-node membership: rank_in_node[i] = position of thread i among
        // the threads sharing its node; node_sizes[n] = threads on node n.
        let mut node_sizes = vec![0usize; machine.topology.node_count()];
        let rank_in_node: Vec<usize> = nodes
            .iter()
            .map(|&n| {
                let r = node_sizes[n.index()];
                node_sizes[n.index()] += 1;
                r
            })
            .collect();

        // Distinct nodes in pinning order define the "groups" of the (part)
        // schemes.
        let mut groups: Vec<NodeId> = Vec::new();
        for &n in &nodes {
            if !groups.contains(&n) {
                groups.push(n);
            }
        }

        let llc_private = |i: usize| -> Vec<LlcColor> {
            chunk(llc_total, t, i).map(|c| LlcColor(c as u16)).collect()
        };
        let mem_private = |i: usize| -> Vec<BankColor> {
            let n = nodes[i];
            let local: Vec<BankColor> = map.bank_colors_of_node(n).collect();
            chunk(local.len(), node_sizes[n.index()], rank_in_node[i])
                .map(|k| local[k])
                .collect()
        };

        (0..t)
            .map(|i| match self {
                ColorScheme::Buddy => ThreadColors::uncolored(HeapPolicy::FirstTouch),
                ColorScheme::LegacyGlobal => ThreadColors::uncolored(HeapPolicy::Legacy),
                ColorScheme::LlcOnly => ThreadColors {
                    mem: Vec::new(),
                    llc: llc_private(i),
                    policy: HeapPolicy::FirstTouch,
                },
                ColorScheme::MemOnly => ThreadColors {
                    mem: mem_private(i),
                    llc: Vec::new(),
                    policy: HeapPolicy::FirstTouch,
                },
                ColorScheme::MemLlc => ThreadColors {
                    mem: mem_private(i),
                    llc: llc_private(i),
                    policy: HeapPolicy::FirstTouch,
                },
                ColorScheme::MemLlcPart => {
                    // LLC shared within the thread's node group.
                    let g = groups.iter().position(|&n| n == nodes[i]).unwrap();
                    let llc = chunk(llc_total, groups.len(), g)
                        .map(|c| LlcColor(c as u16))
                        .collect();
                    ThreadColors {
                        mem: mem_private(i),
                        llc,
                        policy: HeapPolicy::FirstTouch,
                    }
                }
                ColorScheme::LlcMemPart => ThreadColors {
                    // All the node's bank colors, shared with node-mates.
                    mem: map.bank_colors_of_node(nodes[i]).collect(),
                    llc: llc_private(i),
                    policy: HeapPolicy::FirstTouch,
                },
                ColorScheme::Palloc => ThreadColors {
                    // Bank-aware only: private banks strided across the
                    // machine (no controller awareness), LLC uncolored.
                    mem: (0..map.bank_color_count())
                        .filter(|c| c % t == i)
                        .map(|c| BankColor(c as u16))
                        .collect(),
                    llc: Vec::new(),
                    policy: HeapPolicy::FirstTouch,
                },
                ColorScheme::Bpm => {
                    // Controller-oblivious: colors strided across the whole
                    // machine — thread i owns {c : c ≡ i (mod t)}.
                    let mem = (0..map.bank_color_count())
                        .filter(|c| c % t == i)
                        .map(|c| BankColor(c as u16))
                        .collect();
                    ThreadColors {
                        mem,
                        llc: llc_private(i),
                        policy: HeapPolicy::FirstTouch,
                    }
                }
            })
            .collect()
    }

    /// Paper-style label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            ColorScheme::Buddy => "buddy",
            ColorScheme::LegacyGlobal => "legacy(global)",
            ColorScheme::LlcOnly => "LLC",
            ColorScheme::MemOnly => "MEM",
            ColorScheme::MemLlc => "MEM+LLC",
            ColorScheme::MemLlcPart => "MEM+LLC(part)",
            ColorScheme::LlcMemPart => "LLC+MEM(part)",
            ColorScheme::Bpm => "BPM",
            ColorScheme::Palloc => "PALLOC",
        }
    }
}

impl fmt::Display for ColorScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Split `total` items into `parts` nearly-even chunks; returns chunk `i`'s
/// index range. Panics when a chunk would be empty.
fn chunk(total: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    assert!(parts > 0 && i < parts);
    assert!(
        total >= parts,
        "cannot give {parts} threads private shares of {total} colors"
    );
    let lo = i * total / parts;
    let hi = (i + 1) * total / parts;
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opteron_16() -> (MachineConfig, Vec<CoreId>) {
        let m = MachineConfig::opteron_6128();
        let cores = (0..16).map(CoreId).collect();
        (m, cores)
    }

    /// Pinning for the paper's 8_threads_4_nodes config: cores 0,1,4,5,8,9,12,13.
    fn opteron_8t4n() -> (MachineConfig, Vec<CoreId>) {
        let m = MachineConfig::opteron_6128();
        let cores = [0, 1, 4, 5, 8, 9, 12, 13].map(CoreId).to_vec();
        (m, cores)
    }

    fn assert_disjoint<T: Ord + Copy>(sets: &[Vec<T>]) {
        let mut seen = std::collections::BTreeSet::new();
        for s in sets {
            for &x in s {
                assert!(seen.insert(x), "color assigned to two threads");
            }
        }
    }

    #[test]
    fn memllc_16t_disjoint_local_and_private() {
        let (m, cores) = opteron_16();
        let plan = ColorScheme::MemLlc.plan(&m, &cores);
        assert_eq!(plan.len(), 16);
        // Paper: 16 threads → 2 private LLC colors each.
        for p in &plan {
            assert_eq!(p.llc.len(), 2);
            assert_eq!(p.mem.len(), 8, "32 node colors / 4 threads per node");
        }
        assert_disjoint(&plan.iter().map(|p| p.llc.clone()).collect::<Vec<_>>());
        assert_disjoint(&plan.iter().map(|p| p.mem.clone()).collect::<Vec<_>>());
        // Controller-awareness: every mem color is on the thread's node.
        for (i, p) in plan.iter().enumerate() {
            let node = m.topology.node_of_core(cores[i]);
            for &bc in &p.mem {
                assert_eq!(m.mapping.node_of_bank_color(bc), node, "thread {i}");
            }
        }
    }

    #[test]
    fn memllc_8t_gives_four_llc_colors() {
        // Paper: "For 8 threads, each thread has four private LLC colors."
        let (m, cores) = opteron_8t4n();
        let plan = ColorScheme::MemLlc.plan(&m, &cores);
        for p in &plan {
            assert_eq!(p.llc.len(), 4);
            assert_eq!(p.mem.len(), 16, "32 node colors / 2 threads per node");
        }
    }

    #[test]
    fn memllcpart_16t_matches_paper_grouping() {
        // Paper: "For MEM+LLC (part) coloring with 16 threads, we create 4
        // thread groups. Each group has its private 8 LLC colors."
        let (m, cores) = opteron_16();
        let plan = ColorScheme::MemLlcPart.plan(&m, &cores);
        for (i, p) in plan.iter().enumerate() {
            assert_eq!(p.llc.len(), 8, "thread {i}");
        }
        // Threads 0–3 (node 0) share one LLC set, disjoint from threads 4–7.
        assert_eq!(plan[0].llc, plan[3].llc);
        assert_ne!(plan[0].llc, plan[4].llc);
        // Banks stay private.
        assert_disjoint(&plan.iter().map(|p| p.mem.clone()).collect::<Vec<_>>());
    }

    #[test]
    fn llcmempart_shares_node_banks() {
        let (m, cores) = opteron_16();
        let plan = ColorScheme::LlcMemPart.plan(&m, &cores);
        // Node-mates share all 32 node colors.
        assert_eq!(plan[0].mem, plan[1].mem);
        assert_eq!(plan[0].mem.len(), 32);
        assert_ne!(plan[0].mem, plan[4].mem);
        // LLC colors private.
        assert_disjoint(&plan.iter().map(|p| p.llc.clone()).collect::<Vec<_>>());
    }

    #[test]
    fn bpm_ignores_controller() {
        let (m, cores) = opteron_16();
        let plan = ColorScheme::Bpm.plan(&m, &cores);
        assert_disjoint(&plan.iter().map(|p| p.mem.clone()).collect::<Vec<_>>());
        for (i, p) in plan.iter().enumerate() {
            assert_eq!(p.mem.len(), 8);
            // The stride spreads every thread's banks over all 4 nodes.
            let nodes: std::collections::BTreeSet<_> = p
                .mem
                .iter()
                .map(|&bc| m.mapping.node_of_bank_color(bc))
                .collect();
            assert_eq!(nodes.len(), 4, "thread {i} must touch every node");
        }
    }

    #[test]
    fn bpm_mostly_remote() {
        let (m, cores) = opteron_16();
        let plan = ColorScheme::Bpm.plan(&m, &cores);
        let mut remote = 0;
        let mut total = 0;
        for (i, p) in plan.iter().enumerate() {
            let node = m.topology.node_of_core(cores[i]);
            for &bc in &p.mem {
                total += 1;
                if m.mapping.node_of_bank_color(bc) != node {
                    remote += 1;
                }
            }
        }
        assert_eq!(remote * 4, total * 3, "3 of 4 BPM banks are remote");
    }

    #[test]
    fn baselines_are_uncolored() {
        let (m, cores) = opteron_16();
        for (scheme, policy) in [
            (ColorScheme::Buddy, HeapPolicy::FirstTouch),
            (ColorScheme::LegacyGlobal, HeapPolicy::Legacy),
        ] {
            let plan = scheme.plan(&m, &cores);
            for p in &plan {
                assert!(p.mem.is_empty() && p.llc.is_empty());
                assert_eq!(p.policy, policy);
            }
            assert!(!scheme.is_colored());
        }
    }

    #[test]
    fn llconly_has_no_mem_colors() {
        let (m, cores) = opteron_16();
        let plan = ColorScheme::LlcOnly.plan(&m, &cores);
        for p in &plan {
            assert!(p.mem.is_empty());
            assert_eq!(p.llc.len(), 2);
        }
    }

    #[test]
    fn four_threads_four_nodes() {
        // Paper config 4_threads_4_nodes: cores 0,4,8,12.
        let m = MachineConfig::opteron_6128();
        let cores = [0, 4, 8, 12].map(CoreId).to_vec();
        let plan = ColorScheme::MemLlc.plan(&m, &cores);
        for (i, p) in plan.iter().enumerate() {
            assert_eq!(p.mem.len(), 32, "alone on its node: all 32 colors");
            assert_eq!(p.llc.len(), 8);
            let node = m.topology.node_of_core(cores[i]);
            assert!(p
                .mem
                .iter()
                .all(|&bc| m.mapping.node_of_bank_color(bc) == node));
        }
    }

    #[test]
    fn palloc_is_bank_only_and_controller_oblivious() {
        let (m, cores) = opteron_16();
        let plan = ColorScheme::Palloc.plan(&m, &cores);
        assert_disjoint(&plan.iter().map(|p| p.mem.clone()).collect::<Vec<_>>());
        for p in &plan {
            assert!(p.llc.is_empty(), "PALLOC does not color the LLC");
            assert_eq!(p.mem.len(), 8);
            let nodes: std::collections::BTreeSet<_> = p
                .mem
                .iter()
                .map(|&bc| m.mapping.node_of_bank_color(bc))
                .collect();
            assert_eq!(nodes.len(), 4, "banks spread over all nodes");
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ColorScheme::MemLlc.to_string(), "MEM+LLC");
        assert_eq!(ColorScheme::Bpm.to_string(), "BPM");
        assert_eq!(ColorScheme::LlcMemPart.to_string(), "LLC+MEM(part)");
    }

    #[test]
    #[should_panic(expected = "private shares")]
    fn too_many_threads_panics() {
        let m = MachineConfig::tiny(); // 4 LLC colors
        let cores: Vec<_> = (0..4).map(CoreId).collect();
        // 4 threads × tiny is fine for LLC, but force the panic with mem:
        // tiny has 2 colors per node and we pin 3 threads to node 0's cores…
        // tiny topology has 2 cores per node, so use LLC with a fake excess.
        let _ = ColorScheme::LlcOnly.plan(&m, &cores); // 4 colors / 4 threads OK
        let m2 = MachineConfig::tiny();
        let cores5 = vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3), CoreId(0)];
        let _ = ColorScheme::LlcOnly.plan(&m2, &cores5); // 5 > 4 → panic
    }
}
