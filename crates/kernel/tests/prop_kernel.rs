//! Property tests for the simulated kernel: buddy structure, color-list
//! consistency, and allocation correctness under random operation sequences.
//!
//! Seeded-loop randomized tests over the workspace's deterministic PRNG —
//! no external property-testing framework required.

use std::collections::BTreeMap;
use tint_hw::addrmap::{AddressMapping, DecodedFrame};
use tint_hw::decoder::FrameDecoder;
use tint_hw::rng::SplitMix64;
use tint_hw::topology::Topology;
use tint_hw::types::{
    BankColor, CoreId, FrameNumber, LlcColor, NodeId, PageNumber, VirtAddr, PAGE_SIZE,
};
use tint_kernel::kernel::{Corruption, COLOR_ALLOC, SET_LLC_COLOR, SET_MEM_COLOR};
use tint_kernel::task::VmId;
use tint_kernel::{
    AuditCursor, BuddyAllocator, Errno, HeapPolicy, Kernel, KernelCosts, Tid, VictimPolicy,
    MAX_ORDER,
};

const CASES: u64 = 60;

/// Random alloc/free traffic keeps every buddy invariant.
#[derive(Debug, Clone)]
enum BuddyOp {
    Alloc(u32),
    FreeNth(usize),
    AllocSpecific(u64),
}

fn arb_buddy_ops(rng: &mut SplitMix64) -> Vec<BuddyOp> {
    let n = rng.gen_range_in(1, 120);
    (0..n)
        .map(|_| match rng.gen_range(3) {
            0 => BuddyOp::Alloc(rng.gen_range(5) as u32),
            1 => BuddyOp::FreeNth(rng.next_u64() as usize),
            _ => BuddyOp::AllocSpecific(rng.gen_range(512)),
        })
        .collect()
}

#[test]
fn buddy_invariants_under_random_traffic() {
    let mut rng = SplitMix64::new(0xb0dd);
    for _ in 0..CASES {
        let ops = arb_buddy_ops(&mut rng);
        let mut b = BuddyAllocator::new(512);
        let mut live: Vec<(FrameNumber, u32)> = Vec::new();
        let mut live_pages = 0u64;
        for op in ops {
            match op {
                BuddyOp::Alloc(order) => {
                    if let Some(f) = b.alloc(order) {
                        live.push((f, order));
                        live_pages += 1 << order;
                    }
                }
                BuddyOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (f, order) = live.remove(n % live.len());
                        b.free(f, order);
                        live_pages -= 1 << order;
                    }
                }
                BuddyOp::AllocSpecific(f) => {
                    let f = FrameNumber(f);
                    if b.alloc_specific(f) {
                        live.push((f, 0));
                        live_pages += 1;
                    }
                }
            }
            b.check_invariants();
            assert_eq!(b.free_pages() + live_pages, 512, "pages conserved");
        }
        // Freeing everything coalesces back to the initial state.
        for (f, order) in live.drain(..) {
            b.free(f, order);
        }
        b.check_invariants();
        assert_eq!(b.free_pages(), 512);
        assert_eq!(b.free_blocks(9.min(MAX_ORDER)), 1, "fully coalesced");
    }
}

/// No two live allocations overlap.
#[test]
fn buddy_allocations_never_overlap() {
    let mut rng = SplitMix64::new(0x0e1a);
    for _ in 0..CASES {
        let ops = arb_buddy_ops(&mut rng);
        let mut b = BuddyAllocator::new(512);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                BuddyOp::Alloc(order) => {
                    if let Some(f) = b.alloc(order) {
                        live.push((f.0, f.0 + (1 << order)));
                    }
                }
                BuddyOp::AllocSpecific(f) => {
                    if b.alloc_specific(FrameNumber(f)) {
                        live.push((f, f + 1));
                    }
                }
                BuddyOp::FreeNth(_) => {} // keep everything live for overlap check
            }
        }
        let mut sorted = live.clone();
        sorted.sort();
        for w in sorted.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "overlap between {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// Every page a colored task faults matches one of its colors, no page
/// is handed out twice, and ENOMEM only happens when the color is
/// genuinely exhausted.
#[test]
fn colored_pages_always_match_task_colors() {
    let mut rng = SplitMix64::new(0xc0105);
    for _ in 0..CASES {
        let bank = rng.gen_range(4) as u16;
        let llc = rng.gen_range(4) as u16;
        let pages = rng.gen_range_in(1, 80);
        let seed_noise = rng.gen_range(64);
        let mut k = Kernel::new(
            AddressMapping::tiny(),
            Topology::new(2, 1, 2),
            KernelCosts::default(),
        );
        k.consume_boot_noise(seed_noise);
        let t = k.create_task(CoreId(0));
        k.sys_mmap(t, SET_MEM_COLOR | bank as u64, 0, COLOR_ALLOC)
            .unwrap();
        k.sys_mmap(t, SET_LLC_COLOR | llc as u64, 0, COLOR_ALLOC)
            .unwrap();
        let base = k.sys_mmap(t, 0, pages * PAGE_SIZE, 0).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for p in 0..pages {
            let tr = k.translate(t, base.offset(p * PAGE_SIZE)).unwrap();
            let d = k.mapping().decode_frame(tr.phys.frame());
            assert_eq!(d.bank_color, BankColor(bank));
            assert_eq!(d.llc_color, LlcColor(llc));
            assert!(seen.insert(tr.phys.frame()), "frame handed out twice");
        }
        k.color_lists().check_invariants();
        k.buddy().check_invariants();
    }
}

/// Translation is stable: once faulted, a page keeps its frame.
#[test]
fn translation_is_stable() {
    let mut rng = SplitMix64::new(0x57ab1e);
    for _ in 0..CASES {
        let pages = rng.gen_range_in(1, 40);
        let probes = rng.gen_range_in(1, 30) as usize;
        let mut k = Kernel::new(
            AddressMapping::tiny(),
            Topology::new(2, 1, 2),
            KernelCosts::default(),
        );
        let t = k.create_task(CoreId(1));
        k.set_policy(t, HeapPolicy::FirstTouch).unwrap();
        let base = k.sys_mmap(t, 0, pages * PAGE_SIZE, 0).unwrap();
        let first: Vec<_> = (0..pages)
            .map(|p| k.translate(t, base.offset(p * PAGE_SIZE)).unwrap().phys)
            .collect();
        for i in 0..probes {
            let p = (i as u64 * 7) % pages;
            let tr = k.translate(t, base.offset(p * PAGE_SIZE)).unwrap();
            assert_eq!(tr.phys, first[p as usize]);
            assert_eq!(tr.fault_cycles, 0, "no re-fault");
        }
    }
}

/// munmap then re-malloc recycles memory without leaking pages.
#[test]
fn alloc_free_cycles_conserve_pages() {
    let mut rng = SplitMix64::new(0xa110c);
    for _ in 0..CASES {
        let rounds = rng.gen_range_in(1, 8) as usize;
        let pages = rng.gen_range_in(1, 32);
        let mut k = Kernel::new(
            AddressMapping::tiny(),
            Topology::new(2, 1, 2),
            KernelCosts::default(),
        );
        let t = k.create_task(CoreId(0));
        k.sys_mmap(t, SET_MEM_COLOR, 0, COLOR_ALLOC).unwrap();
        let total = k.buddy().free_pages() + k.color_lists().pages();
        for _ in 0..rounds {
            let base = k.sys_mmap(t, 0, pages * PAGE_SIZE, 0).unwrap();
            for p in 0..pages {
                k.translate(t, base.offset(p * PAGE_SIZE)).unwrap();
            }
            k.sys_munmap(t, base, pages * PAGE_SIZE).unwrap();
            assert_eq!(
                k.buddy().free_pages() + k.color_lists().pages(),
                total,
                "pages conserved across alloc/free cycles"
            );
        }
    }
}

/// The mmap color protocol rejects malformed arguments without state
/// changes.
#[test]
fn malformed_color_ops_are_rejected() {
    let mut rng = SplitMix64::new(0xba0);
    for _ in 0..CASES {
        let mode = rng.gen_range_in(5, 16);
        let color = rng.gen_range(1000);
        let mut k = Kernel::new(
            AddressMapping::tiny(),
            Topology::new(2, 1, 2),
            KernelCosts::default(),
        );
        let t = k.create_task(CoreId(0));
        let r = k.sys_mmap(t, (mode << 60) | color, 0, COLOR_ALLOC);
        assert_eq!(r, Err(Errno::Einval));
        assert!(!k.task(t).unwrap().coloring_active());
    }
}

/// A buddy state over `frames` frames shaped by random alloc / free /
/// `alloc_specific` traffic at every order.
fn arb_buddy_state(rng: &mut SplitMix64, frames: u64) -> BuddyAllocator {
    let mut b = BuddyAllocator::new(frames);
    let mut live: Vec<(FrameNumber, u32)> = Vec::new();
    for _ in 0..rng.gen_range_in(1, 300) {
        match rng.gen_range(4) {
            0 => {
                let order = rng.gen_range(MAX_ORDER as u64 + 1) as u32;
                if let Some(f) = b.alloc(order) {
                    live.push((f, order));
                }
            }
            1 if !live.is_empty() => {
                let (f, order) = live.remove(rng.gen_range(live.len() as u64) as usize);
                b.free(f, order);
            }
            _ => {
                let f = FrameNumber(rng.gen_range(frames));
                if b.alloc_specific(f) {
                    live.push((f, 0));
                }
            }
        }
    }
    b.check_invariants();
    b
}

/// Brute-force oracle for [`BuddyAllocator::lowest_free_in`]: decode every
/// free frame and take the lowest one `pred` accepts.
fn oracle_lowest(b: &BuddyAllocator, pred: &dyn Fn(FrameNumber) -> bool) -> Option<FrameNumber> {
    let mut free: Vec<u64> = (0..=MAX_ORDER)
        .flat_map(|o| b.blocks(o).flat_map(move |s| s.0..s.0 + (1 << o)))
        .collect();
    free.sort_unstable();
    free.into_iter().map(FrameNumber).find(|&f| pred(f))
}

/// Brute-force oracle for [`BuddyAllocator::first_block_in`]: walk the
/// free blocks lowest order first, lowest address first, decoding every
/// frame of each, and count the blocks examined.
fn oracle_first_block(
    b: &BuddyAllocator,
    pred: &dyn Fn(FrameNumber) -> bool,
) -> (u64, Option<(u32, FrameNumber)>) {
    let mut scanned = 0;
    for order in 0..=MAX_ORDER {
        for start in b.blocks(order) {
            scanned += 1;
            if (start.0..start.0 + (1 << order)).any(|f| pred(FrameNumber(f))) {
                return (scanned, Some((order, start)));
            }
        }
    }
    (scanned, None)
}

/// The block-granular mask queries answer exactly what a per-frame decode
/// of every free frame answers — returned frame and blocks scanned — on
/// the tiny mapping (`MAX_ORDER` 11 above its 4-bit LUT) and on the
/// Opteron mapping (12-bit LUT above `MAX_ORDER`), for node, exact-color,
/// bank-only, LLC-only and empty masks.
#[test]
fn mask_queries_match_a_per_frame_scan() {
    let mut rng = SplitMix64::new(0x3a5c);
    for (map, frames, cases) in [
        (AddressMapping::tiny(), 1 << 14, CASES),
        (AddressMapping::opteron_6128(), 1 << 16, CASES / 4),
    ] {
        let dec = FrameDecoder::new(&map);
        for _ in 0..cases {
            let b = arb_buddy_state(&mut rng, frames);
            let node = rng.gen_range(map.node_count() as u64) as usize;
            let bank = rng.gen_range(map.bank_color_count() as u64) as u16;
            let llc = rng.gen_range(map.llc_color_count() as u64) as u16;
            let banks: Vec<u16> = (0..3)
                .map(|_| rng.gen_range(map.bank_color_count() as u64) as u16)
                .collect();
            type Query<'a> = Box<dyn Fn(DecodedFrame) -> bool + 'a>;
            let queries: [(&str, Query); 6] = [
                ("node", Box::new(|d| d.node.index() == node)),
                (
                    "exact color",
                    Box::new(|d| d.bank_color == BankColor(bank) && d.llc_color == LlcColor(llc)),
                ),
                (
                    "bank-only",
                    Box::new(|d| banks.contains(&d.bank_color.raw())),
                ),
                ("LLC-only", Box::new(|d| d.llc_color == LlcColor(llc))),
                (
                    "LLC-only on node",
                    Box::new(|d| d.node.index() == node && d.llc_color == LlcColor(llc)),
                ),
                ("empty", Box::new(|_| false)),
            ];
            for (what, pred) in &queries {
                let mask = dec.mask(|i| {
                    pred(DecodedFrame {
                        node: NodeId(i.node as usize),
                        bank_color: BankColor(i.bank_color),
                        llc_color: LlcColor(i.llc_color),
                        row: 0,
                    })
                });
                let per_frame = |f: FrameNumber| pred(map.decode_frame(f));
                assert_eq!(
                    b.lowest_free_in(&mask),
                    oracle_lowest(&b, &per_frame),
                    "{what}: lowest free frame"
                );
                assert_eq!(
                    b.first_block_in(&mask),
                    oracle_first_block(&b, &per_frame),
                    "{what}: first matching block and blocks scanned"
                );
            }
        }
    }
}

/// A live tenant of a random kernel state and the regions it mapped.
struct Tenant {
    tid: Tid,
    regions: Vec<(VirtAddr, u64)>,
}

/// Boot a small kernel (32 to 1,024 frames: sub-word, word-sized and
/// multi-word bitsets) and drive it through random tenant traffic — legacy,
/// first-touch and colored tasks, CLONE_VM threads, partial faulting,
/// `munmap`, exits, OOM kills and raw blocks — leaving every owner kind
/// populated some of the time.
fn arb_kernel_state(rng: &mut SplitMix64) -> (Kernel, Vec<Tenant>) {
    let mut map = AddressMapping::tiny();
    map.row_bits = rng.gen_range_in(1, 7) as u32;
    let mut k = Kernel::new(map, Topology::new(2, 1, 2), KernelCosts::default());
    k.consume_boot_noise(rng.gen_range(8));
    let mut live: Vec<Tenant> = Vec::new();
    let mut raw: Vec<(FrameNumber, u32)> = Vec::new();
    for _ in 0..rng.gen_range_in(1, 40) {
        match rng.gen_range(8) {
            0 | 1 => {
                let core = CoreId(rng.gen_range(4) as usize);
                let tid = match live.first() {
                    Some(leader) if rng.gen_ratio(1, 4) => {
                        k.create_thread(core, leader.tid).unwrap()
                    }
                    _ => k.create_task(core),
                };
                match rng.gen_range(3) {
                    0 => {}
                    1 => k.set_policy(tid, HeapPolicy::FirstTouch).unwrap(),
                    _ => {
                        let bank = rng.gen_range(map.bank_color_count() as u64);
                        let llc = rng.gen_range(map.llc_color_count() as u64);
                        k.sys_mmap(tid, SET_MEM_COLOR | bank, 0, COLOR_ALLOC)
                            .unwrap();
                        k.sys_mmap(tid, SET_LLC_COLOR | llc, 0, COLOR_ALLOC)
                            .unwrap();
                    }
                }
                live.push(Tenant {
                    tid,
                    regions: Vec::new(),
                });
            }
            2 | 3 if !live.is_empty() => {
                let i = rng.gen_range(live.len() as u64) as usize;
                let pages = rng.gen_range_in(1, 9);
                let tid = live[i].tid;
                let base = k.sys_mmap(tid, 0, pages * PAGE_SIZE, 0).unwrap();
                for p in 0..pages {
                    if rng.gen_ratio(2, 3) {
                        let _ = k.translate(tid, base.offset(p * PAGE_SIZE));
                    }
                }
                live[i].regions.push((base, pages));
            }
            4 if !live.is_empty() => {
                let i = rng.gen_range(live.len() as u64) as usize;
                if !live[i].regions.is_empty() {
                    let r = rng.gen_range(live[i].regions.len() as u64) as usize;
                    let (base, pages) = live[i].regions.remove(r);
                    k.sys_munmap(live[i].tid, base, pages * PAGE_SIZE).unwrap();
                }
            }
            5 if !live.is_empty() => {
                let i = rng.gen_range(live.len() as u64) as usize;
                k.sys_exit(live.remove(i).tid).unwrap();
            }
            6 if !live.is_empty() => {
                let kill = k.oom_kill(VictimPolicy::LargestFootprint).unwrap();
                live.retain(|t| t.tid != kill.victim);
            }
            _ => match raw.pop() {
                Some((f, order)) if rng.gen_ratio(1, 2) => k.free_pages_raw(f, order),
                popped => {
                    raw.extend(popped);
                    if let Some(t) = live.first() {
                        let order = rng.gen_range(3) as u32;
                        if let Ok(out) = k.alloc_pages_raw(t.tid, order) {
                            raw.push((out.frame, order));
                        }
                    }
                }
            },
        }
    }
    (k, live)
}

/// Does `f` run to completion without panicking?
fn passes(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_ok()
}

/// Audit every frame once: windows of `window` frames from `start`,
/// wrapping past the top of memory.
fn audit_wrap(k: &Kernel, start: u64, window: u64) {
    let total = k.mapping().frame_count();
    let mut cursor = AuditCursor { next: start };
    let mut audited = 0;
    while audited < total {
        audited += k.audit_step(&mut cursor, window);
    }
}

/// The seeded corruptions that apply to `k`'s current state: a frame given
/// a second owner (every pair of buddy, color list, pcp batch and page
/// table the auditor distinguishes), a stray or misdirected rmap entry, a
/// drifted resident counter, and a color-membership bit on a free frame.
fn applicable_corruptions(k: &Kernel, live: &[Tenant]) -> Vec<Corruption> {
    let free: Vec<FrameNumber> = (0..=MAX_ORDER).flat_map(|o| k.buddy().blocks(o)).collect();
    let mut mapped: Vec<(VmId, PageNumber, FrameNumber)> = Vec::new();
    for t in live {
        let vm = k.task(t.tid).unwrap().vm;
        if !mapped.iter().any(|m| m.0 == vm) {
            mapped.extend(k.vm(vm).resident().map(|(p, f)| (vm, p, f)));
        }
    }
    mapped.sort_unstable_by_key(|m| m.2 .0);
    let batched: Vec<Tid> = live
        .iter()
        .map(|t| t.tid)
        .filter(|&t| k.task(t).unwrap().pcp_pages() > 0)
        .collect();
    let parked = k.color_lists().pages() > 0;
    let mut out = Vec::new();
    if let Some(&f) = free.last() {
        out.push(Corruption::ParkedBit(f));
    }
    if let Some(&f) = free.first() {
        if parked {
            out.push(Corruption::ParkInColors(f));
        }
        out.extend(batched.iter().map(|&t| Corruption::BatchInPcp(t, f)));
        if let Some(&(vm, page, _)) = mapped.first() {
            out.push(Corruption::Rmap(f, vm, page));
            out.push(Corruption::Rmap(f, vm, PageNumber(page.0 + 4096)));
        }
    }
    if let Some(&(vm, page, f)) = mapped.last() {
        if parked {
            out.push(Corruption::ParkInColors(f));
        }
        out.extend(batched.iter().map(|&t| Corruption::BatchInPcp(t, f)));
        out.push(Corruption::Rmap(f, vm, PageNumber(page.0 + 4096)));
        if let Some(&(vm2, page2, _)) = mapped.first().filter(|m| m.2 != f) {
            out.push(Corruption::Rmap(f, vm2, page2));
        }
        out.push(Corruption::ResidentCounter);
    }
    if parked {
        if let Some(&t) = batched.first() {
            let f = k.color_lists().iter_frames().next().unwrap();
            out.push(Corruption::BatchInPcp(t, f));
        }
    }
    out
}

/// The buddy allocator's word-at-a-time free mask agrees with its
/// per-frame membership probe on every word, partial top words included.
#[test]
fn free_word_matches_contains_frame() {
    let mut rng = SplitMix64::new(0xf3ee);
    for _ in 0..CASES {
        let frames = [32, 96, 512, 1 << 13][rng.gen_range(4) as usize];
        let b = arb_buddy_state(&mut rng, frames);
        for base in (0..frames).step_by(64) {
            let word = b.free_word(base);
            for i in 0..64 {
                let f = FrameNumber(base + i);
                assert_eq!(word >> i & 1 == 1, b.contains_frame(f), "frame {f}");
            }
        }
    }
}

/// `free_frames` of a batch leaves exactly the free lists and free-page
/// count that freeing the same frames one at a time, in random order,
/// leaves: the free lists are canonical, so the order of coalescing cannot
/// matter. States are fragmented by `alloc`, `alloc_specific` and
/// `take_block` on 32 to 16 384 frames, unaligned totals included; the
/// batch is a random subset of the allocated frames (frames of one
/// allocated block may be freed singly, as a buddy allocator allows).
#[test]
fn free_frames_equals_freeing_one_frame_at_a_time() {
    let mut rng = SplitMix64::new(0xba7c);
    for case in 0..CASES {
        let frames = [32, 96, 512, 3000, 1 << 13, 1 << 14][rng.gen_range(6) as usize];
        let mut b = BuddyAllocator::new(frames);
        for _ in 0..rng.gen_range_in(1, 400) {
            match rng.gen_range(3) {
                0 => {
                    b.alloc(rng.gen_range(MAX_ORDER as u64 + 1) as u32);
                }
                1 => {
                    b.alloc_specific(FrameNumber(rng.gen_range(frames)));
                }
                _ => {
                    let order = rng.gen_range(MAX_ORDER as u64 + 1) as u32;
                    let n = b.free_blocks(order) as u64;
                    if n > 0 {
                        let start = b.blocks(order).nth(rng.gen_range(n) as usize).unwrap();
                        b.take_block(order, start);
                    }
                }
            }
        }
        let allocated: Vec<FrameNumber> = (0..frames)
            .map(FrameNumber)
            .filter(|&f| !b.contains_frame(f))
            .collect();
        let keep = rng.gen_range_in(1, 101);
        let mut batch: Vec<FrameNumber> = allocated
            .into_iter()
            .filter(|_| rng.gen_range(100) < keep)
            .collect();
        for i in (1..batch.len()).rev() {
            batch.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }

        let mut bulk = b.clone();
        bulk.free_frames(batch.clone());
        let mut single = b;
        for &f in &batch {
            single.free(f, 0);
        }
        bulk.check_invariants();
        single.check_invariants();
        assert_eq!(bulk.free_pages(), single.free_pages(), "case {case}");
        for order in 0..=MAX_ORDER {
            assert!(
                bulk.blocks(order).eq(single.blocks(order)),
                "case {case}: {frames} frames, {} freed, order {order} differs",
                batch.len()
            );
        }
    }
}

/// On random kernel states, a full wrap of `audit_step` — any window of
/// 1..=frames, any start, wrapping — passes exactly when
/// `check_invariants` passes: on the clean state (both pass) and after
/// every applicable seeded corruption (both panic).
#[test]
fn a_full_audit_wrap_agrees_with_check_invariants() {
    let mut rng = SplitMix64::new(0xa0d17);
    let mut corrupted = 0;
    for _ in 0..CASES {
        let (k, live) = arb_kernel_state(&mut rng);
        let total = k.mapping().frame_count();
        let window = rng.gen_range_in(1, total + 1);
        let start = rng.gen_range(total);
        assert!(passes(|| k.check_invariants()), "clean state");
        assert!(passes(|| audit_wrap(&k, start, window)), "clean audit");
        for c in applicable_corruptions(&k, &live) {
            let mut bad = k.clone();
            bad.corrupt(c);
            let window = rng.gen_range_in(1, total + 1);
            let start = rng.gen_range(total);
            assert!(
                !passes(|| bad.check_invariants()),
                "{c:?}: check_invariants"
            );
            assert!(
                !passes(|| audit_wrap(&bad, start, window)),
                "{c:?}: audit wrap from {start}, window {window}"
            );
            corrupted += 1;
        }
    }
    assert!(
        corrupted > CASES,
        "corruptions were exercised ({corrupted})"
    );
}

/// Every [`Corruption`] variant, by index: a new variant fails to compile
/// here until the differential property below seeds it.
fn variant(c: Corruption) -> usize {
    match c {
        Corruption::ParkInColors(_) => 0,
        Corruption::BatchInPcp(..) => 1,
        Corruption::Rmap(..) => 2,
        Corruption::ClearRmap(_) => 3,
        Corruption::ResidentCounter => 4,
        Corruption::ParkedBit(_) => 5,
        Corruption::Sharers(_) => 6,
        Corruption::PcpFrames => 7,
    }
}

/// Seeded corruptions of every variant for `k`: the auditor's list, the
/// drifted counts and an erased rmap entry, plus variants aimed at random
/// frames. A random aim is sometimes harmless (re-parking the front page,
/// re-batching the last batched frame, rewriting an entry to its own
/// value, clearing an empty entry, setting a bit already set, swapping an
/// untracked frame into a batch), so both outcomes of the checks are
/// exercised.
fn every_corruption(k: &Kernel, live: &[Tenant], rng: &mut SplitMix64) -> Vec<Corruption> {
    let mut out = applicable_corruptions(k, live);
    out.push(Corruption::PcpFrames);
    let total = k.mapping().frame_count();
    let vms: Vec<VmId> = live.iter().map(|t| k.task(t.tid).unwrap().vm).collect();
    let batched: Vec<Tid> = live
        .iter()
        .map(|t| t.tid)
        .filter(|&t| k.task(t).unwrap().pcp_pages() > 0)
        .collect();
    if let Some(&vm) = vms.first() {
        out.push(Corruption::Sharers(vm));
        if let Some((_, f)) = k.vm(vm).resident().next() {
            out.push(Corruption::ClearRmap(f));
        }
    }
    for _ in 0..8 {
        let f = FrameNumber(rng.gen_range(total));
        out.push(Corruption::ClearRmap(f));
        out.push(Corruption::ParkedBit(f));
        if k.color_lists().pages() > 0 {
            out.push(Corruption::ParkInColors(f));
        }
        if !batched.is_empty() {
            let t = batched[rng.gen_range(batched.len() as u64) as usize];
            out.push(Corruption::BatchInPcp(t, f));
        }
        if !vms.is_empty() {
            let vm = vms[rng.gen_range(vms.len() as u64) as usize];
            let resident: Vec<PageNumber> = k.vm(vm).resident().map(|(p, _)| p).collect();
            let page = match resident.len() {
                0 => PageNumber(rng.gen_range(1 << 20)),
                n => resident[rng.gen_range(n as u64) as usize],
            };
            out.push(Corruption::Rmap(f, vm, page));
        }
    }
    out
}

/// The word-at-a-time `check_invariants` panics exactly when the per-frame
/// reference check does: on random kernel states (32 to 1 024 frames)
/// uncorrupted, and after each seeded corruption of every variant.
#[test]
fn check_invariants_panics_exactly_when_the_reference_does() {
    let mut rng = SplitMix64::new(0xd1ff);
    let (mut seen, mut caught, mut harmless) = ([false; 8], 0, 0);
    for _ in 0..CASES {
        let (k, live) = arb_kernel_state(&mut rng);
        assert!(passes(|| k.check_invariants_reference()), "clean reference");
        assert!(passes(|| k.check_invariants()), "clean state");
        for c in every_corruption(&k, &live, &mut rng) {
            seen[variant(c)] = true;
            let mut bad = k.clone();
            bad.corrupt(c);
            let reference = passes(|| bad.check_invariants_reference());
            assert_eq!(passes(|| bad.check_invariants()), reference, "{c:?}");
            if reference {
                harmless += 1;
            } else {
                caught += 1;
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "every variant seeded: {seen:?}");
    assert!(
        caught > CASES && harmless > CASES,
        "both outcomes exercised (caught {caught}, harmless {harmless})"
    );
}

/// Under random create/thread/exit/OOM sequences the kernel's task table
/// agrees with a `BTreeMap` model: the same lookups (live and dead tids),
/// the same live count, and the same OOM victims under both policies.
#[test]
fn task_table_matches_a_btreemap_model() {
    let mut rng = SplitMix64::new(0x7a5c);
    for _ in 0..CASES {
        let mut map = AddressMapping::tiny();
        map.row_bits = 6;
        let mut k = Kernel::new(map, Topology::new(2, 1, 2), KernelCosts::default());
        let mut model: BTreeMap<Tid, (CoreId, VmId)> = BTreeMap::new();
        let mut issued: Vec<Tid> = Vec::new();
        for _ in 0..rng.gen_range_in(1, 120) {
            match rng.gen_range(6) {
                0 | 1 => {
                    let core = CoreId(rng.gen_range(4) as usize);
                    let leader = issued[..]
                        .get(rng.gen_range(issued.len() as u64 + 1) as usize)
                        .copied();
                    let tid = match leader {
                        Some(l) if rng.gen_ratio(1, 3) => match k.create_thread(core, l) {
                            Ok(t) => t,
                            Err(e) => {
                                assert!(!model.contains_key(&l), "live leader refused");
                                assert_eq!(e, Errno::Esrch);
                                continue;
                            }
                        },
                        _ => k.create_task(core),
                    };
                    assert!(issued.last().is_none_or(|&last| tid > last), "tids ascend");
                    let vm = k.task(tid).unwrap().vm;
                    if rng.gen_ratio(1, 2) {
                        k.sys_mmap(tid, SET_MEM_COLOR | rng.gen_range(4), 0, COLOR_ALLOC)
                            .unwrap();
                    }
                    let pages = rng.gen_range(6);
                    if pages > 0 {
                        let base = k.sys_mmap(tid, 0, pages * PAGE_SIZE, 0).unwrap();
                        for p in 0..pages {
                            let _ = k.translate(tid, base.offset(p * PAGE_SIZE));
                        }
                    }
                    model.insert(tid, (core, vm));
                    issued.push(tid);
                }
                2 | 3 if !issued.is_empty() => {
                    let tid = issued[rng.gen_range(issued.len() as u64) as usize];
                    let expect = if model.remove(&tid).is_some() {
                        Ok(())
                    } else {
                        Err(Errno::Esrch)
                    };
                    assert_eq!(k.sys_exit(tid), expect, "exit of {tid:?}");
                }
                _ => {
                    let policy = if rng.gen_ratio(1, 2) {
                        VictimPolicy::Youngest
                    } else {
                        VictimPolicy::LargestFootprint
                    };
                    let expect = match policy {
                        VictimPolicy::Youngest => model.keys().next_back().copied(),
                        VictimPolicy::LargestFootprint => model
                            .iter()
                            .map(|(&tid, &(_, vm))| {
                                let pcp = k.task(tid).unwrap().pcp_pages();
                                (k.vm(vm).resident_pages() + pcp, tid)
                            })
                            .max()
                            .map(|(_, tid)| tid),
                    };
                    match k.oom_kill(policy) {
                        Ok(kill) => {
                            assert_eq!(Some(kill.victim), expect, "{policy:?} victim");
                            model.remove(&kill.victim);
                        }
                        Err(e) => {
                            assert_eq!(e, Errno::Esrch);
                            assert!(expect.is_none(), "an empty table has no victim");
                        }
                    }
                }
            }
            assert_eq!(k.task_count(), model.len(), "live count");
            for &tid in &issued {
                match (k.task(tid), model.get(&tid)) {
                    (Ok(t), Some(&(core, vm))) => {
                        assert_eq!((t.tid, t.core, t.vm), (tid, core, vm), "{tid:?}");
                    }
                    (Err(e), None) => assert_eq!(e, Errno::Esrch),
                    (got, want) => panic!("{tid:?}: kernel {got:?}, model {want:?}"),
                }
            }
            let unissued = Tid(issued.last().map_or(1, |t| t.0 + 1));
            assert_eq!(k.task(unissued).err(), Some(Errno::Esrch));
            assert_eq!(k.task(Tid(0)).err(), Some(Errno::Esrch));
        }
        k.check_invariants();
    }
}
