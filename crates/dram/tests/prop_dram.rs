//! Property tests for the DRAM timing model.
//!
//! Seeded-loop randomized tests over the workspace's deterministic PRNG —
//! no external property-testing framework required.

use tint_dram::{DramSystem, RowOutcome};
use tint_hw::machine::MachineConfig;
use tint_hw::rng::SplitMix64;
use tint_hw::types::{BankColor, LlcColor, Rw};

const CASES: u64 = 30;

// (bank color, llc color, row, inter-arrival gap)
fn arb_accesses(rng: &mut SplitMix64) -> Vec<(u16, u16, u64, u64)> {
    let n = rng.gen_range_in(1, 200);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(128) as u16,
                rng.gen_range(32) as u16,
                rng.gen_range(32),
                rng.gen_range(200),
            )
        })
        .collect()
}

/// Completion times are causally consistent: an access completes after
/// it arrives, and per-bank completions are monotone.
#[test]
fn completions_are_causal_and_banks_serialize() {
    let mut rng = SplitMix64::new(0xca05a1);
    for _ in 0..CASES {
        let accs = arb_accesses(&mut rng);
        let m = MachineConfig::opteron_6128();
        let mut dram = DramSystem::new(m.mapping, m.dram);
        let mut now = 0u64;
        let mut last_done_per_bank = std::collections::BTreeMap::new();
        for (bc, llc, row, gap) in accs {
            now += gap;
            let addr = m
                .mapping
                .compose_frame(BankColor(bc), LlcColor(llc), row)
                .base();
            let r = dram.access(addr, Rw::Read, now);
            assert!(r.complete_at > now, "completion after arrival");
            assert_eq!(r.latency, r.complete_at - now);
            assert_eq!(r.bank_color, BankColor(bc));
            if let Some(&prev) = last_done_per_bank.get(&bc) {
                assert!(
                    r.complete_at > prev,
                    "bank {bc} must serialize its accesses"
                );
            }
            last_done_per_bank.insert(bc, r.complete_at);
        }
    }
}

/// The row-buffer law: an access to the currently-open row is a Hit and
/// is never slower than any other outcome at the same arrival time.
#[test]
fn row_hits_are_cheapest() {
    let mut rng = SplitMix64::new(0x70b);
    for _ in 0..CASES {
        let bc = rng.gen_range(128) as u16;
        let n = rng.gen_range_in(2, 50);
        let rows: Vec<u64> = (0..n).map(|_| rng.gen_range(8)).collect();
        let m = MachineConfig::opteron_6128();
        let mut dram = DramSystem::new(m.mapping, {
            let mut t = m.dram;
            t.t_refi = 0; // isolate the row logic from refresh
            t
        });
        let mut now = 0u64;
        let mut open: Option<u64> = None;
        for row in rows {
            let addr = m
                .mapping
                .compose_frame(BankColor(bc), LlcColor(0), row)
                .base();
            let r = dram.access(addr, Rw::Write, now);
            match open {
                Some(o) if o == row => assert_eq!(r.outcome, RowOutcome::Hit),
                Some(_) => assert_eq!(r.outcome, RowOutcome::Conflict),
                None => assert_eq!(r.outcome, RowOutcome::Miss),
            }
            open = Some(row);
            now = r.complete_at + 1;
        }
    }
}

/// Stats conservation: requests == sum of per-bank outcomes == sum of
/// per-node request counts.
#[test]
fn stats_conserve() {
    let mut rng = SplitMix64::new(0x57a75);
    for _ in 0..CASES {
        let accs = arb_accesses(&mut rng);
        let m = MachineConfig::opteron_6128();
        let mut dram = DramSystem::new(m.mapping, m.dram);
        let mut now = 0;
        for (bc, llc, row, gap) in &accs {
            now += gap;
            let addr = m
                .mapping
                .compose_frame(BankColor(*bc), LlcColor(*llc), *row)
                .base();
            dram.access(addr, Rw::Read, now);
        }
        let s = dram.stats();
        assert_eq!(s.requests, accs.len() as u64);
        let bank_total: u64 = s.banks.iter().map(|b| b.accesses()).sum();
        assert_eq!(bank_total, s.requests);
        let node_total: u64 = s.node_requests.iter().sum();
        assert_eq!(node_total, s.requests);
        assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    }
}

/// Idle banks in parallel: simultaneous accesses to N distinct banks on
/// distinct nodes all see the unloaded latency.
#[test]
fn distinct_nodes_fully_parallel() {
    let mut rng = SplitMix64::new(0x9a7a);
    for _ in 0..CASES {
        let rows: Vec<u64> = (0..4).map(|_| rng.gen_range_in(1, 1000)).collect();
        let m = MachineConfig::opteron_6128();
        let mut dram = DramSystem::new(m.mapping, m.dram);
        let mut lat = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let bc = BankColor((i * 32) as u16); // one bank per node
            let addr = m.mapping.compose_frame(bc, LlcColor(0), *row).base();
            lat.push(dram.access(addr, Rw::Read, 0).latency);
        }
        for w in lat.windows(2) {
            assert_eq!(w[0], w[1], "no shared resource between nodes");
        }
    }
}
