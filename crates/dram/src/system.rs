//! The machine-wide DRAM system: controllers → channels → banks.
//!
//! [`DramSystem::access`] is the entry point: given a physical address, an
//! access direction, and the cycle at which the request reaches memory, it
//! routes the request through its node's controller front-end, the
//! addressed bank's row buffer, and the channel data bus, returning the
//! completion cycle and a latency breakdown. A caller that needs the
//! frame's fields itself (the home node, for routing) decodes once with
//! [`DramSystem::decode`] and serves with [`DramSystem::access_decoded`].

use crate::bank::{BankState, RowOutcome};
use crate::stats::DramStats;
use tint_hw::addrmap::AddressMapping;
use tint_hw::decoder::{FrameDecoder, FrameInfo};
use tint_hw::machine::DramConfig;
use tint_hw::types::{BankColor, NodeId, PhysAddr, Rw};

/// Result of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Cycle at which the data transfer completes.
    pub complete_at: u64,
    /// End-to-end DRAM cycles (complete_at − request arrival).
    pub latency: u64,
    /// Row-buffer outcome at the bank.
    pub outcome: RowOutcome,
    /// Node whose controller served the request.
    pub node: NodeId,
    /// Bank color that served the request.
    pub bank_color: BankColor,
    /// Cycles spent queued at the controller front-end.
    pub ctrl_wait: u64,
    /// Cycles spent waiting for the bank.
    pub bank_wait: u64,
    /// Cycles spent waiting for the channel data bus.
    pub channel_wait: u64,
}

/// Machine-wide DRAM timing state.
#[derive(Debug, Clone)]
pub struct DramSystem {
    timing: DramConfig,
    mapping: AddressMapping,
    /// Precomputed frame→(node, bank, channel, row) decode for the access
    /// inner loop; pure derived state, rebuilt from `mapping` on construction.
    decoder: FrameDecoder,
    /// One bank per bank color (the flattened global bank coordinate).
    banks: Vec<BankState>,
    /// Controller front-end availability, per node.
    ctrl_free_at: Vec<u64>,
    /// Channel data-bus availability, per global channel.
    channel_free_at: Vec<u64>,
    stats: DramStats,
}

impl DramSystem {
    /// Build the DRAM system for a mapping and timing set.
    pub fn new(mapping: AddressMapping, timing: DramConfig) -> Self {
        let banks = (0..mapping.bank_color_count())
            .map(|_| BankState::new(&timing))
            .collect();
        let nodes = mapping.node_count();
        let channels = nodes * mapping.channels_per_node();
        Self {
            timing,
            decoder: FrameDecoder::new(&mapping),
            mapping,
            banks,
            ctrl_free_at: vec![0; nodes],
            channel_free_at: vec![0; channels],
            stats: DramStats::new(mapping.bank_color_count(), nodes),
        }
    }

    /// The address mapping this system decodes with.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Zero all counters (timing state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::new(self.mapping.bank_color_count(), self.mapping.node_count());
    }

    /// The fields of the frame holding `addr` (home node, bank color,
    /// channel): one table load. Panics beyond installed memory.
    #[inline]
    pub fn decode(&self, addr: PhysAddr) -> FrameInfo {
        let frame = addr.frame();
        assert!(
            frame.0 < self.decoder.frame_count(),
            "physical address {addr} beyond installed memory"
        );
        self.decoder.info(frame)
    }

    /// Serve an access to `addr` arriving at the memory system at cycle
    /// `now`. `rw` currently shares timing between reads and writes (the
    /// paper's synthetic benchmark measures write latency; the row-buffer
    /// dynamics are identical in this model).
    #[inline]
    pub fn access(&mut self, addr: PhysAddr, _rw: Rw, now: u64) -> DramAccess {
        self.access_decoded(addr, self.decode(addr), now)
    }

    /// [`access`](Self::access) with `addr`'s frame already decoded: `d`
    /// must be [`decode`](Self::decode)`(addr)`.
    #[inline]
    pub fn access_decoded(&mut self, addr: PhysAddr, d: FrameInfo, now: u64) -> DramAccess {
        debug_assert_eq!(d, self.decode(addr));
        let frame = addr.frame();
        let node = NodeId(d.node as usize);
        let bc = BankColor(d.bank_color);
        let chan = d.global_channel as usize;
        let row = self.decoder.dram_row(frame, d);

        // 1. Controller front-end: demultiplexes requests serially (§II.B).
        let ctrl_start = now.max(self.ctrl_free_at[node.index()]);
        let ctrl_wait = ctrl_start - now;
        let issued = ctrl_start + self.timing.ctrl_overhead;
        self.ctrl_free_at[node.index()] = issued;

        // 2. Bank: row-buffer state machine.
        let (outcome, bank_start, bank_done) =
            self.banks[bc.index()].access(row, issued, &self.timing);
        let bank_wait = bank_start - issued;

        // 3. Channel data bus: one line transfer.
        let bus_start = bank_done.max(self.channel_free_at[chan]);
        let channel_wait = bus_start - bank_done;
        let complete_at = bus_start + self.timing.t_transfer;
        self.channel_free_at[chan] = complete_at;

        // Book-keeping.
        let latency = complete_at - now;
        self.stats.banks[bc.index()].record(outcome, bank_wait);
        self.stats.node_requests[node.index()] += 1;
        self.stats.ctrl_wait_cycles += ctrl_wait;
        self.stats.channel_wait_cycles += channel_wait;
        self.stats.requests += 1;
        self.stats.total_latency += latency;

        DramAccess {
            complete_at,
            latency,
            outcome,
            node,
            bank_color: bc,
            ctrl_wait,
            bank_wait,
            channel_wait,
        }
    }

    /// Unloaded best-case latency: a row hit on an idle bank and bus.
    pub fn unloaded_hit_latency(&self) -> u64 {
        self.timing.ctrl_overhead + self.timing.t_cas + self.timing.t_transfer
    }

    /// Unloaded row-conflict latency.
    pub fn unloaded_conflict_latency(&self) -> u64 {
        self.timing.ctrl_overhead
            + self.timing.t_rp
            + self.timing.t_rcd
            + self.timing.t_cas
            + self.timing.t_transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_hw::machine::MachineConfig;
    use tint_hw::types::{FrameNumber, LlcColor};

    fn sys() -> DramSystem {
        let m = MachineConfig::opteron_6128();
        let mut t = m.dram;
        t.t_refi = 0; // deterministic tests without refresh
        DramSystem::new(m.mapping, t)
    }

    fn addr_of(sys: &DramSystem, bc: u16, llc: u16, row: u64, off: u64) -> PhysAddr {
        sys.mapping()
            .compose_frame(BankColor(bc), LlcColor(llc), row)
            .at(off)
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut s = sys();
        let a = addr_of(&s, 0, 0, 0, 0);
        let r = s.access(a, Rw::Read, 0);
        assert_eq!(r.outcome, RowOutcome::Miss);
        assert_eq!(
            r.latency,
            s.timing.ctrl_overhead + s.timing.t_rcd + s.timing.t_cas + s.timing.t_transfer
        );
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut s = sys();
        let a = addr_of(&s, 0, 0, 0, 0);
        let b = addr_of(&s, 0, 0, 0, 128);
        let r1 = s.access(a, Rw::Read, 0);
        let r2 = s.access(b, Rw::Read, r1.complete_at);
        assert_eq!(r2.outcome, RowOutcome::Hit);
        assert!(r2.latency < r1.latency);
    }

    #[test]
    fn same_bank_different_llc_color_is_a_row_switch() {
        // Frames of different LLC colors are different DRAM rows even in the
        // same bank: page-granular coloring cannot share open rows.
        let mut s = sys();
        let a = addr_of(&s, 0, 0, 0, 0);
        let b = addr_of(&s, 0, 1, 0, 0);
        let r1 = s.access(a, Rw::Read, 0);
        let r2 = s.access(b, Rw::Read, r1.complete_at);
        assert_eq!(r2.outcome, RowOutcome::Conflict);
    }

    #[test]
    fn within_page_accesses_row_hit() {
        let mut s = sys();
        let a = addr_of(&s, 0, 0, 0, 0);
        let b = addr_of(&s, 0, 0, 0, 3968);
        let r1 = s.access(a, Rw::Read, 0);
        let r2 = s.access(b, Rw::Read, r1.complete_at);
        assert_eq!(r2.outcome, RowOutcome::Hit, "a page is one open row");
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut s = sys();
        let a = addr_of(&s, 0, 0, 0, 0);
        let b = addr_of(&s, 0, 0, 1, 0);
        let r1 = s.access(a, Rw::Read, 0);
        let r2 = s.access(b, Rw::Read, r1.complete_at);
        assert_eq!(r2.outcome, RowOutcome::Conflict);
    }

    #[test]
    fn disjoint_banks_overlap_in_time() {
        // Two simultaneous requests to different banks on different nodes:
        // no shared resource, both complete with unloaded latency.
        let mut s = sys();
        let a = addr_of(&s, 0, 0, 0, 0); // node 0
        let b = addr_of(&s, 96, 0, 0, 0); // node 3
        let r1 = s.access(a, Rw::Read, 0);
        let r2 = s.access(b, Rw::Read, 0);
        assert_eq!(r1.latency, r2.latency, "no contention across nodes");
        assert_eq!(r2.ctrl_wait + r2.bank_wait + r2.channel_wait, 0);
    }

    #[test]
    fn same_bank_contention_inflates_latency() {
        // The Fig. 8 scenario: two concurrent streams to the same bank with
        // different rows — the second pays wait + conflict.
        let mut s = sys();
        let a = addr_of(&s, 0, 0, 0, 0);
        let b = addr_of(&s, 0, 0, 1, 0);
        let r1 = s.access(a, Rw::Read, 0);
        let r2 = s.access(b, Rw::Read, 0);
        assert!(r2.latency > r1.latency);
        assert_eq!(r2.outcome, RowOutcome::Conflict);
        assert!(r2.bank_wait > 0, "second stream waited for the bank");
    }

    #[test]
    fn same_controller_different_banks_pay_frontend_only() {
        let mut s = sys();
        // Bank colors 0 and 8: same node 0, different channels? bc=8 is
        // node 0 (colors 0..32). Use bc 0 and 1 (same channel? bank differs).
        let a = addr_of(&s, 0, 0, 0, 0);
        let b = addr_of(&s, 1, 0, 0, 0);
        let r1 = s.access(a, Rw::Read, 0);
        let r2 = s.access(b, Rw::Read, 0);
        assert!(r2.ctrl_wait > 0, "controller front-end serializes");
        assert!(
            r2.latency < r1.latency + s.timing.t_rp,
            "but far cheaper than bank conflict serialization"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = sys();
        let a = addr_of(&s, 5, 0, 0, 0);
        s.access(a, Rw::Read, 0);
        s.access(a, Rw::Write, 1000);
        let st = s.stats();
        assert_eq!(st.requests, 2);
        assert_eq!(st.bank(BankColor(5)).accesses(), 2);
        assert_eq!(st.bank(BankColor(5)).row_hits, 1);
        assert_eq!(st.node(NodeId(0)), 2);
        assert!(st.mean_latency() > 0.0);
        s.reset_stats();
        assert_eq!(s.stats().requests, 0);
    }

    #[test]
    fn unloaded_latencies_ordered() {
        let s = sys();
        assert!(s.unloaded_conflict_latency() > s.unloaded_hit_latency());
    }

    #[test]
    fn frame_routes_to_its_color_bank() {
        let mut s = sys();
        for bc in [0u16, 31, 32, 127] {
            let f = s.mapping().compose_frame(BankColor(bc), LlcColor(0), 3);
            let r = s.access(f.base(), Rw::Read, 0);
            assert_eq!(r.bank_color, BankColor(bc));
            assert_eq!(r.node, s.mapping().node_of_bank_color(BankColor(bc)));
        }
        let _ = FrameNumber(0);
    }
}
