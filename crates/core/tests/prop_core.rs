//! Property tests for the tintmalloc crate: heap correctness under random
//! malloc/free traffic and planner invariants for arbitrary pinnings.
//!
//! Seeded-loop randomized tests over the workspace's deterministic PRNG —
//! no external property-testing framework required.

use tint_hw::machine::MachineConfig;
use tint_hw::rng::SplitMix64;
use tint_hw::types::CoreId;
use tintmalloc::colors::ColorScheme;
use tintmalloc::prelude::*;

const CASES: u64 = 40;

#[derive(Debug, Clone)]
enum HeapOp {
    Malloc(u64),
    FreeNth(usize),
    ReallocNth(usize, u64),
}

fn arb_heap_ops(rng: &mut SplitMix64) -> Vec<HeapOp> {
    let n = rng.gen_range_in(1, 60);
    (0..n)
        .map(|_| match rng.gen_range(3) {
            0 => HeapOp::Malloc(rng.gen_range_in(1, 20_000)),
            1 => HeapOp::FreeNth(rng.next_u64() as usize),
            _ => HeapOp::ReallocNth(rng.next_u64() as usize, rng.gen_range_in(1, 20_000)),
        })
        .collect()
}

/// Live allocations never overlap and all heap operations round-trip.
#[test]
fn heap_allocations_never_overlap() {
    let mut rng = SplitMix64::new(0x4ea9);
    for _ in 0..CASES {
        let ops = arb_heap_ops(&mut rng);
        let mut sys = System::boot(MachineConfig::tiny());
        let t = sys.spawn(CoreId(0));
        // (addr, requested size)
        let mut live: Vec<(VirtAddr, u64)> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Malloc(size) => {
                    let a = sys.malloc(t, size).unwrap();
                    live.push((a, size));
                }
                HeapOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (a, _) = live.remove(n % live.len());
                        sys.free(t, a).unwrap();
                    }
                }
                HeapOp::ReallocNth(n, size) => {
                    if !live.is_empty() {
                        let idx = n % live.len();
                        let (a, _) = live[idx];
                        let b = sys.realloc(t, a, size).unwrap();
                        live[idx] = (b, size);
                    }
                }
            }
            // No two live allocations overlap (compare by requested size).
            let mut spans: Vec<(u64, u64)> = live.iter().map(|(a, s)| (a.0, a.0 + s)).collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
            }
        }
        // Everything freed → heap reports zero in use.
        for (a, _) in live.drain(..) {
            sys.free(t, a).unwrap();
        }
        assert_eq!(sys.heap(t).unwrap().bytes_in_use(), 0);
        assert_eq!(sys.heap(t).unwrap().live_allocations(), 0);
    }
}

/// Color plans: per-thread LLC colors are disjoint for every scheme with
/// private LLC colors; MEM-colored schemes keep every bank color on the
/// owning thread's node; all colors are in range.
#[test]
fn plans_are_well_formed() {
    let m = MachineConfig::opteron_6128();
    for n_threads in 1usize..16 {
        for scheme in ColorScheme::ALL {
            let cores: Vec<CoreId> = (0..n_threads).map(CoreId).collect();
            let plan = scheme.plan(&m, &cores);
            assert_eq!(plan.len(), n_threads);
            for (i, p) in plan.iter().enumerate() {
                for &bc in &p.mem {
                    assert!(bc.index() < m.mapping.bank_color_count());
                }
                for &lc in &p.llc {
                    assert!(lc.index() < m.mapping.llc_color_count());
                }
                // Controller-awareness of the Tint schemes (not BPM, which is
                // deliberately node-oblivious).
                if matches!(
                    scheme,
                    ColorScheme::MemOnly
                        | ColorScheme::MemLlc
                        | ColorScheme::MemLlcPart
                        | ColorScheme::LlcMemPart
                ) {
                    let node = m.topology.node_of_core(cores[i]);
                    for &bc in &p.mem {
                        assert_eq!(m.mapping.node_of_bank_color(bc), node);
                    }
                }
            }
            // Private-LLC schemes: pairwise disjoint LLC colors.
            if matches!(
                scheme,
                ColorScheme::LlcOnly
                    | ColorScheme::MemLlc
                    | ColorScheme::LlcMemPart
                    | ColorScheme::Bpm
            ) {
                let mut seen = std::collections::BTreeSet::new();
                for p in &plan {
                    for &lc in &p.llc {
                        assert!(seen.insert(lc), "LLC color shared between threads");
                    }
                }
            }
            // Private-bank schemes: pairwise disjoint bank colors.
            if matches!(
                scheme,
                ColorScheme::MemOnly
                    | ColorScheme::MemLlc
                    | ColorScheme::MemLlcPart
                    | ColorScheme::Bpm
                    | ColorScheme::Palloc
            ) {
                let mut seen = std::collections::BTreeSet::new();
                for p in &plan {
                    for &bc in &p.mem {
                        assert!(seen.insert(bc), "bank color shared between threads");
                    }
                }
            }
        }
    }
}

/// Applying any plan and allocating always yields pages matching the
/// plan's constraints.
#[test]
fn applied_plans_constrain_pages() {
    let mut rng = SplitMix64::new(0x91a);
    for scheme in ColorScheme::ALL {
        let pages = rng.gen_range_in(1, 12);
        let m = MachineConfig::opteron_6128();
        let cores = vec![CoreId(0), CoreId(5), CoreId(10), CoreId(15)];
        let plan = scheme.plan(&m, &cores);
        let mut sys = System::boot(m);
        let leader = sys.spawn(cores[0]);
        let mut tids = vec![leader];
        for &c in &cores[1..] {
            tids.push(sys.spawn_thread(c, leader).unwrap());
        }
        for (tid, p) in tids.iter().zip(&plan) {
            sys.apply_colors(*tid, p).unwrap();
        }
        for (i, &tid) in tids.iter().enumerate() {
            let a = sys.malloc(tid, pages * 4096).unwrap();
            for pg in 0..pages {
                let pa = sys.resolve(tid, a.offset(pg * 4096)).unwrap();
                let d = sys.machine().mapping.decode_frame(pa.frame());
                if !plan[i].mem.is_empty() {
                    assert!(plan[i].mem.contains(&d.bank_color), "thread {i}");
                }
                if !plan[i].llc.is_empty() {
                    assert!(plan[i].llc.contains(&d.llc_color), "thread {i}");
                }
            }
        }
    }
}
