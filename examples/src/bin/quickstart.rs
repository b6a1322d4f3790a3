//! Quickstart: the paper's "one line of code" usage model, end to end.
//!
//! Boots the simulated dual-socket Opteron 6128, spawns two threads on
//! different NUMA nodes, gives each private memory and LLC colors with the
//! one-line `mmap()` calls, and shows that plain `malloc` then returns
//! node-local, bank- and LLC-isolated pages — while an uncolored task's heap
//! smears across colors.
//!
//! Run: `cargo run --release -p tint-examples --bin quickstart`

use tintmalloc::prelude::*;

fn main() {
    // Boot: BIOS programs the PCI config space; the kernel derives the
    // address mapping from it (paper §III.A).
    let mut sys = System::boot(MachineConfig::opteron_6128());
    let m = sys.machine().clone();
    println!(
        "booted {}: {} nodes, {} cores, {} bank colors, {} LLC colors",
        m.name,
        m.topology.node_count(),
        m.topology.core_count(),
        m.mapping.bank_color_count(),
        m.mapping.llc_color_count()
    );

    // A thread pinned to core 0 (node 0) and one pinned to core 12 (node 3).
    let t0 = sys.spawn(CoreId(0));
    let t1 = sys.spawn_thread(CoreId(12), t0).unwrap();

    // The paper's one-line initialization: pick colors once, at startup.
    // Thread 0: bank color 3 (node 0) + LLC color 0.
    sys.set_mem_color(t0, BankColor(3)).unwrap();
    sys.set_llc_color(t0, LlcColor(0)).unwrap();
    // Thread 1: bank color 96 (node 3) + LLC color 1 — fully disjoint.
    sys.set_mem_color(t1, BankColor(96)).unwrap();
    sys.set_llc_color(t1, LlcColor(1)).unwrap();

    // Plain malloc() now returns colored memory: no per-call color argument.
    for (name, tid, want_node) in [("t0", t0, 0usize), ("t1", t1, 3usize)] {
        let buf = sys.malloc(tid, 64 * 1024).unwrap();
        let mut nodes = std::collections::BTreeSet::new();
        let mut banks = std::collections::BTreeSet::new();
        let mut llcs = std::collections::BTreeSet::new();
        for page in 0..16u64 {
            let pa = sys.resolve(tid, buf.offset(page * 4096)).unwrap();
            let d = m.mapping.decode_frame(pa.frame());
            nodes.insert(d.node);
            banks.insert(d.bank_color);
            llcs.insert(d.llc_color);
        }
        println!(
            "{name}: 16 heap pages → nodes {:?}, bank colors {:?}, LLC colors {:?}",
            nodes, banks, llcs
        );
        assert_eq!(nodes.len(), 1, "all pages on one node");
        assert!(nodes.iter().all(|n| n.index() == want_node));
        assert_eq!(banks.len(), 1, "private bank");
        assert_eq!(llcs.len(), 1, "private LLC color");
    }

    // Contrast: an uncolored task's pages walk banks and LLC colors freely.
    let t2 = sys.spawn(CoreId(4));
    sys.set_policy(t2, HeapPolicy::FirstTouch).unwrap();
    let buf = sys.malloc(t2, 256 * 1024).unwrap();
    let mut banks = std::collections::BTreeSet::new();
    let mut llcs = std::collections::BTreeSet::new();
    for page in 0..64u64 {
        let pa = sys.resolve(t2, buf.offset(page * 4096)).unwrap();
        let d = m.mapping.decode_frame(pa.frame());
        banks.insert(d.bank_color);
        llcs.insert(d.llc_color);
    }
    println!(
        "uncolored task: 64 heap pages → {} bank colors, {} LLC colors (shared with everyone)",
        banks.len(),
        llcs.len()
    );

    // And the timing model sees the difference: one access, fully broken down.
    let a = sys.malloc(t0, 4096).unwrap();
    let acc = sys.access(t0, a, Rw::Write, 0).unwrap();
    println!(
        "t0 first write: {} cycles (page fault: {}, level: {:?}, hops: {})",
        acc.latency, acc.faulted, acc.detail.level, acc.detail.hops
    );
    let acc2 = sys.access(t0, a, Rw::Read, acc.latency).unwrap();
    println!(
        "t0 re-read:    {} cycles ({:?})",
        acc2.latency, acc2.detail.level
    );
}
