//! The paper's five thread/node pinning configurations (§V.B).
//!
//! *"There are a total of five configurations: 16_threads_4_nodes,
//! 8_threads_4_nodes, 8_threads_2_nodes, 4_threads_4_nodes and
//! 4_threads_1_nodes."* Core lists follow the paper's examples exactly
//! (e.g. 8_threads_4_nodes pins to cores 0,1,4,5,8,9,12,13).

use std::fmt;
use tint_hw::types::CoreId;

/// One of the paper's pinning configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinConfig {
    /// 16 threads over all 4 nodes (cores 0–15).
    T16N4,
    /// 8 threads over 4 nodes (cores 0,1,4,5,8,9,12,13).
    T8N4,
    /// 8 threads over 2 nodes (cores 0–7).
    T8N2,
    /// 4 threads over 4 nodes (cores 0,4,8,12).
    T4N4,
    /// 4 threads on 1 node (cores 0–3).
    T4N1,
}

impl PinConfig {
    /// All five configurations, in the paper's order.
    pub const ALL: [PinConfig; 5] = [
        PinConfig::T16N4,
        PinConfig::T8N4,
        PinConfig::T8N2,
        PinConfig::T4N4,
        PinConfig::T4N1,
    ];

    /// The pinned core list (thread `i` → `cores()[i]`).
    pub fn cores(self) -> Vec<CoreId> {
        match self {
            PinConfig::T16N4 => (0..16).map(CoreId).collect(),
            PinConfig::T8N4 => [0, 1, 4, 5, 8, 9, 12, 13].map(CoreId).to_vec(),
            PinConfig::T8N2 => (0..8).map(CoreId).collect(),
            PinConfig::T4N4 => [0, 4, 8, 12].map(CoreId).to_vec(),
            PinConfig::T4N1 => (0..4).map(CoreId).collect(),
        }
    }

    /// Number of threads.
    pub fn threads(self) -> usize {
        self.cores().len()
    }

    /// Number of distinct nodes used (on the Opteron topology).
    pub fn nodes(self) -> usize {
        match self {
            PinConfig::T16N4 | PinConfig::T8N4 | PinConfig::T4N4 => 4,
            PinConfig::T8N2 => 2,
            PinConfig::T4N1 => 1,
        }
    }

    /// The paper's label, e.g. `16_threads_4_nodes`.
    pub fn label(self) -> &'static str {
        match self {
            PinConfig::T16N4 => "16_threads_4_nodes",
            PinConfig::T8N4 => "8_threads_4_nodes",
            PinConfig::T8N2 => "8_threads_2_nodes",
            PinConfig::T4N4 => "4_threads_4_nodes",
            PinConfig::T4N1 => "4_threads_1_nodes",
        }
    }
}

impl fmt::Display for PinConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_hw::machine::MachineConfig;

    #[test]
    fn core_lists_match_paper_examples() {
        assert_eq!(PinConfig::T16N4.cores().len(), 16);
        assert_eq!(
            PinConfig::T8N4.cores(),
            [0, 1, 4, 5, 8, 9, 12, 13].map(CoreId).to_vec()
        );
        assert_eq!(PinConfig::T4N4.cores(), [0, 4, 8, 12].map(CoreId).to_vec());
        assert_eq!(
            PinConfig::T4N1.cores(),
            (0..4).map(CoreId).collect::<Vec<_>>()
        );
        assert_eq!(
            PinConfig::T8N2.cores(),
            (0..8).map(CoreId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn node_counts_match_on_opteron() {
        let m = MachineConfig::opteron_6128();
        for cfg in PinConfig::ALL {
            let nodes: std::collections::BTreeSet<_> = cfg
                .cores()
                .iter()
                .map(|&c| m.topology.node_of_core(c))
                .collect();
            assert_eq!(nodes.len(), cfg.nodes(), "{cfg}");
            assert_eq!(cfg.cores().len(), cfg.threads());
        }
    }

    #[test]
    fn labels() {
        assert_eq!(PinConfig::T16N4.to_string(), "16_threads_4_nodes");
        assert_eq!(PinConfig::ALL.len(), 5);
    }
}
