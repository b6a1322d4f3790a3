//! Property tests for translation coherence in [`System::access`].
//!
//! The access path reads each translation from the task's flat page table
//! through a cached per-task entry. These tests check that what it reads
//! follows every change to the mapping — `munmap`, remap, recolor
//! migration, task exit — so a stale-translation bug (an access served
//! from a frame the mapping no longer holds) fails the suite instead of
//! silently corrupting timing results.

use tint_hw::machine::MachineConfig;
use tint_hw::rng::SplitMix64;
use tint_hw::types::{CoreId, Rw, VirtAddr, PAGE_SIZE};
use tintmalloc::prelude::*;

/// The home node of the frame `System::access` uses for `va`: the
/// translation is read from the flat page table, as on the access path.
fn tlb_node(sys: &mut System, tid: Tid, va: VirtAddr) -> tint_hw::types::NodeId {
    let phys = sys.translate(tid, va).expect("mapped page");
    sys.machine().mapping.decode_frame(phys.frame()).node
}

/// Assert that the access path's translation of `va` is the kernel's
/// current one.
fn assert_tlb_matches_page_table(sys: &mut System, tid: Tid, va: VirtAddr, ctx: &str) {
    let truth = sys.resolve(tid, va).expect("page still mapped");
    assert_eq!(
        sys.translate(tid, va).unwrap(),
        truth,
        "stale translation: {ctx}"
    );
}

/// Access every page of `[base, base + len)` and return the home node of
/// the frame each page's access used.
fn touch_all(sys: &mut System, tid: Tid, base: VirtAddr, len: u64) -> Vec<tint_hw::types::NodeId> {
    let mut nodes = Vec::new();
    let mut off = 0;
    while off < len {
        let va = base.offset(off);
        sys.access(tid, va, Rw::Read, 0).expect("mapped page");
        nodes.push(tlb_node(sys, tid, va));
        off += PAGE_SIZE;
    }
    nodes
}

/// `free()` of a page-granular allocation munmaps it; a subsequent access
/// must fault with `Efault`, not hit a stale cached translation.
#[test]
fn munmap_invalidates_cached_translations() {
    let mut sys = System::boot(MachineConfig::opteron_6128());
    let tid = sys.spawn(CoreId(0));
    // > 2048 bytes → page-granular allocation, so free() really munmaps.
    let len = 4 * PAGE_SIZE;
    let buf = sys.malloc(tid, len).unwrap();

    // First pass faults the pages in; second pass reads the mapped pages.
    touch_all(&mut sys, tid, buf, len);
    for off in (0..len).step_by(PAGE_SIZE as usize) {
        let acc = sys.access(tid, buf.offset(off), Rw::Read, 0).unwrap();
        assert!(!acc.faulted, "second touch must be fault-free");
    }

    sys.free(tid, buf).unwrap();
    for off in (0..len).step_by(PAGE_SIZE as usize) {
        assert_eq!(
            sys.access(tid, buf.offset(off), Rw::Read, 0),
            Err(Errno::Efault),
            "access after munmap must fault, not reuse a cached translation (offset {off})"
        );
    }
}

/// After the freed region's pages are handed to a *different* task, the
/// first task's re-allocation must observe its own new frames — the
/// access path must not keep the dead translation across the malloc/free
/// boundary.
#[test]
fn remalloc_after_free_sees_fresh_frames() {
    let mut sys = System::boot(MachineConfig::opteron_6128());
    let tid = sys.spawn(CoreId(0));
    let len = 8 * PAGE_SIZE;
    let buf = sys.malloc(tid, len).unwrap();
    touch_all(&mut sys, tid, buf, len);
    sys.free(tid, buf).unwrap();

    let buf2 = sys.malloc(tid, len).unwrap();
    touch_all(&mut sys, tid, buf2, len);
    for off in (0..len).step_by(PAGE_SIZE as usize) {
        sys.access(tid, buf2.offset(off), Rw::Read, 0).unwrap();
        assert_tlb_matches_page_table(&mut sys, tid, buf2.offset(off), &format!("offset {off}"));
    }
}

/// Recoloring migrates pages to new frames; accesses immediately after
/// must see the migrated placement. An access path that missed the
/// recolor would keep routing accesses to the old node and fail the
/// home-node assertions.
#[test]
fn recolor_invalidates_cached_translations() {
    let machine = MachineConfig::opteron_6128();
    let mut sys = System::boot(machine);
    // Core 12 lives on node 3; color the task with a node-0 bank color.
    let core = CoreId(12);
    let local = sys.machine().topology.node_of_core(core);
    let target = sys.machine().mapping.node_of_bank_color(BankColor(0));
    assert_ne!(local, target, "test needs a remote color target");

    let tid = sys.spawn(core);
    // NUMA-aware base policy so uncolored pages land node-local (the
    // default `Legacy` policy hands out the globally lowest frames, which
    // sit on node 0 and can coincidentally match bank color 0).
    sys.set_policy(tid, HeapPolicy::FirstTouch).unwrap();
    sys.set_mem_color(tid, BankColor(0)).unwrap();

    // Page-cache pages ignore the task's colors: first-touch, node-local,
    // and therefore in violation of the task's color set.
    let len = 16 * PAGE_SIZE;
    let buf = sys.malloc_pagecache(tid, len).unwrap();
    let before = touch_all(&mut sys, tid, buf, len);
    assert!(
        before.iter().all(|&n| n == local),
        "page-cache pages should start node-local: {before:?}"
    );

    let (migrated, _cycles) = sys.recolor(tid).unwrap();
    assert_eq!(
        migrated,
        len / PAGE_SIZE,
        "every violating page must migrate"
    );

    // Every access must now observe the migrated, node-0 frames, though
    // every page was accessed before the migration.
    let after = touch_all(&mut sys, tid, buf, len);
    assert!(
        after.iter().all(|&n| n == target),
        "post-recolor accesses must land on the color's node: {after:?}"
    );
    for off in (0..len).step_by(PAGE_SIZE as usize) {
        sys.access(tid, buf.offset(off), Rw::Read, 0).unwrap();
        assert_tlb_matches_page_table(&mut sys, tid, buf.offset(off), &format!("offset {off}"));
    }
}

/// Range recoloring invalidates only what it must, but accesses must stay
/// coherent for the whole buffer: migrated pages move, others don't.
#[test]
fn recolor_range_keeps_accesses_coherent() {
    let mut sys = System::boot(MachineConfig::opteron_6128());
    let core = CoreId(12);
    let local = sys.machine().topology.node_of_core(core);
    let target = sys.machine().mapping.node_of_bank_color(BankColor(0));
    let tid = sys.spawn(core);
    sys.set_policy(tid, HeapPolicy::FirstTouch).unwrap();
    sys.set_mem_color(tid, BankColor(0)).unwrap();

    let len = 16 * PAGE_SIZE;
    let buf = sys.malloc_pagecache(tid, len).unwrap();
    touch_all(&mut sys, tid, buf, len);

    // Migrate only the first half.
    let half = len / 2;
    let (migrated, _) = sys.recolor_range(tid, buf, half).unwrap();
    assert_eq!(migrated, half / PAGE_SIZE);

    let nodes = touch_all(&mut sys, tid, buf, len);
    for (i, &n) in nodes.iter().enumerate() {
        let want = if (i as u64) < half / PAGE_SIZE {
            target
        } else {
            local
        };
        assert_eq!(n, want, "page {i} on wrong node after range recolor");
    }
}

/// Repeated accesses to one page, then a munmap of that page, a remap, and
/// a recolor of it: the very next access sees each change — `translate`
/// equals `resolve` after every step.
#[test]
fn repeated_accesses_follow_remaps_and_recolors() {
    let mut sys = System::boot(MachineConfig::opteron_6128());
    // Core 12 lives on node 3; the task's color is a node-0 bank color.
    let core = CoreId(12);
    let local = sys.machine().topology.node_of_core(core);
    let target = sys.machine().mapping.node_of_bank_color(BankColor(0));
    let tid = sys.spawn(core);
    sys.set_policy(tid, HeapPolicy::FirstTouch).unwrap();
    sys.set_mem_color(tid, BankColor(0)).unwrap();
    let len = 2 * PAGE_SIZE;
    let lines = |base: VirtAddr| (0..PAGE_SIZE / 64).map(move |i| base.offset(i * 64));

    // Page-cache pages land uncolored and node-local; hammer one page.
    let buf = sys.malloc_pagecache(tid, len).unwrap();
    for va in lines(buf) {
        sys.access(tid, va, Rw::Read, 0).unwrap();
        assert_tlb_matches_page_table(&mut sys, tid, va, "repeated accesses");
    }
    assert_eq!(tlb_node(&mut sys, tid, buf), local);

    // munmap the hammered page: the next access faults. Then map a fresh
    // range under the task's colors and hammer its first page.
    sys.free(tid, buf).unwrap();
    assert_eq!(sys.access(tid, buf, Rw::Read, 0), Err(Errno::Efault));
    assert_eq!(sys.translate(tid, buf), Err(Errno::Efault));
    let buf = sys.malloc(tid, len).unwrap();
    for va in lines(buf) {
        sys.access(tid, va, Rw::Write, 0).unwrap();
        assert_tlb_matches_page_table(&mut sys, tid, va, "after munmap and remap");
    }
    assert_eq!(tlb_node(&mut sys, tid, buf), target);

    // A new LLC color makes the page non-conforming; recoloring its range
    // migrates it right after it was accessed.
    let before = sys.resolve(tid, buf).unwrap();
    let llc = sys.machine().mapping.decode_frame(before.frame()).llc_color;
    let other = LlcColor((llc.raw() + 1) % sys.machine().mapping.llc_color_count() as u16);
    sys.set_llc_color(tid, other).unwrap();
    let (moved, _) = sys.recolor_range(tid, buf, PAGE_SIZE).unwrap();
    assert_eq!(moved, 1);
    assert_ne!(sys.resolve(tid, buf).unwrap(), before);
    for va in lines(buf) {
        sys.access(tid, va, Rw::Read, 0).unwrap();
        assert_tlb_matches_page_table(&mut sys, tid, va, "after recolor_range");
    }
    let now = sys.translate(tid, buf).unwrap();
    assert_eq!(
        sys.machine().mapping.decode_frame(now.frame()).llc_color,
        other
    );
}

/// Assert that every page of `[base, base + len)` is resident and that the
/// access path's translation agrees with a fresh page-table walk — i.e. no access is
/// served from a stale cached translation.
fn assert_tlb_coherent(sys: &mut System, tid: Tid, base: VirtAddr, len: u64) {
    for off in (0..len).step_by(PAGE_SIZE as usize) {
        let va = base.offset(off);
        let acc = sys.access(tid, va, Rw::Read, 0).unwrap();
        assert!(!acc.faulted, "page at offset {off} must stay resident");
        assert_tlb_matches_page_table(sys, tid, va, &format!("offset {off}"));
    }
}

/// A recolor that dies of genuine color exhaustion part-way through must
/// leave every translation coherent (no page lost, none stale),
/// and the same recolor must succeed once the hoarded color is freed.
#[test]
fn failed_partial_recolor_is_coherent_and_retry_succeeds() {
    let mut sys = System::boot(MachineConfig::tiny());
    let pair = sys.machine().mapping.frames_per_color_pair();

    // The victim's pages are placed uncolored and node-local first (the
    // hog's later replenish sweeps nearly all of the buddy's free blocks
    // into the color matrix, where first-touch cannot reach them).
    let victim = sys.spawn(CoreId(1));
    sys.set_policy(victim, HeapPolicy::FirstTouch).unwrap();
    let len = 16 * PAGE_SIZE;
    let buf = sys.malloc_pagecache(victim, len).unwrap();
    touch_all(&mut sys, victim, buf, len);

    // A hog owns color pair (0,0) and drains its supply to a few pages.
    let hog = sys.spawn(CoreId(0));
    sys.set_mem_color(hog, BankColor(0)).unwrap();
    sys.set_llc_color(hog, LlcColor(0)).unwrap();
    let hog_len = (pair - 4) * PAGE_SIZE;
    let hog_buf = sys.malloc(hog, hog_len).unwrap();
    touch_all(&mut sys, hog, hog_buf, hog_len);

    // Now the victim adopts the hoarded pair.
    sys.set_mem_color(victim, BankColor(0)).unwrap();
    sys.set_llc_color(victim, LlcColor(0)).unwrap();

    // Migration runs out of (0,0) pages part-way through.
    assert_eq!(sys.recolor(victim), Err(Errno::Enomem));
    assert_tlb_coherent(&mut sys, victim, buf, len);
    sys.check_invariants();

    // Freeing the hog returns its pages to the (0,0) color list; the
    // retried migration completes and every page conforms.
    sys.free(hog, hog_buf).unwrap();
    let (migrated, _) = sys.recolor(victim).unwrap();
    assert!(migrated > 0, "retry migrates the remaining pages");
    assert_tlb_coherent(&mut sys, victim, buf, len);
    for off in (0..len).step_by(PAGE_SIZE as usize) {
        let truth = sys.resolve(victim, buf.offset(off)).unwrap();
        let d = sys.machine().mapping.decode_frame(truth.frame());
        assert_eq!(d.bank_color, BankColor(0), "offset {off} conforms");
        assert_eq!(d.llc_color, LlcColor(0), "offset {off} conforms");
    }
    sys.check_invariants();
}

/// Same contract when the mid-migration failure is an *injected* page-copy
/// fault rather than true exhaustion: the transactional rollback keeps
/// every translation coherent, and the migration completes after the
/// weather clears.
#[test]
fn injected_page_copy_fault_keeps_tlb_coherent() {
    let mut sys = System::boot(MachineConfig::tiny());
    let tid = sys.spawn(CoreId(1));
    sys.set_policy(tid, HeapPolicy::FirstTouch).unwrap();
    let len = 8 * PAGE_SIZE;
    let buf = sys.malloc_pagecache(tid, len).unwrap();
    touch_all(&mut sys, tid, buf, len);
    sys.set_mem_color(tid, BankColor(0)).unwrap();

    sys.set_fault_plan(Some(FaultPlan::new(5).with_rate(FaultSite::PageCopy, 1000)));
    assert_eq!(sys.recolor(tid), Err(Errno::Enomem));
    assert_tlb_coherent(&mut sys, tid, buf, len);
    sys.check_invariants();

    sys.set_fault_plan(None);
    let (migrated, _) = sys.recolor(tid).unwrap();
    assert!(migrated > 0, "migration completes once injection is off");
    assert_tlb_coherent(&mut sys, tid, buf, len);
    sys.check_invariants();
}

/// Seeded property loop: under a random mix of malloc / touch / free /
/// recolor, every access's translation matches the kernel's, and every
/// freed address faults. This is the invariant the access path must
/// preserve no matter how translations churn.
#[test]
fn random_op_stream_never_observes_stale_translations() {
    let mut rng = SplitMix64::new(0x7e5_7db);
    for case in 0..8u64 {
        let mut sys = System::boot(MachineConfig::opteron_6128());
        let core = CoreId((case % 16) as usize);
        let tid = sys.spawn(core);
        sys.set_mem_color(tid, BankColor(0)).unwrap();

        let mut live: Vec<(VirtAddr, u64)> = Vec::new();
        let mut dead: Vec<VirtAddr> = Vec::new();
        for _ in 0..40 {
            match rng.next_u64() % 5 {
                // malloc a few pages (page-granular, uncolored via the
                // page cache half the time to create migration targets).
                0 => {
                    let pages = 1 + rng.next_u64() % 4;
                    let len = pages * PAGE_SIZE;
                    let buf = if rng.next_u64().is_multiple_of(2) {
                        sys.malloc_pagecache(tid, len).unwrap()
                    } else {
                        sys.malloc(tid, len).unwrap()
                    };
                    live.push((buf, len));
                }
                // free a live buffer.
                1 if !live.is_empty() => {
                    let i = (rng.next_u64() % live.len() as u64) as usize;
                    let (buf, _) = live.swap_remove(i);
                    sys.free(tid, buf).unwrap();
                    dead.push(buf);
                }
                // recolor everything resident.
                2 => {
                    sys.recolor(tid).unwrap();
                }
                // touch a random live page and check against ground truth.
                _ if !live.is_empty() => {
                    let i = (rng.next_u64() % live.len() as u64) as usize;
                    let (buf, len) = live[i];
                    let off = (rng.next_u64() % (len / PAGE_SIZE)) * PAGE_SIZE;
                    let va = buf.offset(off);
                    sys.access(tid, va, Rw::Read, 0).unwrap();
                    assert_tlb_matches_page_table(&mut sys, tid, va, &format!("case {case}: {va}"));
                }
                _ => {}
            }
        }
        for buf in dead {
            assert_eq!(
                sys.access(tid, buf, Rw::Read, 0),
                Err(Errno::Efault),
                "case {case}: freed address {buf} must fault"
            );
        }
    }
}
