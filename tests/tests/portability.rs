//! Portability (paper §VII): the whole stack — PCI derivation, kernel,
//! planners, heap, SPMD engine — works unchanged on a different machine.

use tint_hw::pci::{derive_mapping, PciConfigSpace};
use tint_hw::types::{CoreId, NodeId};
use tint_spmd::SimThread;
use tint_workloads::synthetic::Synthetic;
use tint_workloads::traits::Workload;
use tintmalloc::prelude::*;

#[test]
fn eight_node_machine_boots_via_pci() {
    let m = MachineConfig::eight_node();
    let pci = PciConfigSpace::programmed_by_bios(&m.mapping);
    assert_eq!(derive_mapping(&pci).unwrap(), m.mapping);
    let _sys = System::boot(m);
}

#[test]
fn memllc_plan_is_local_and_disjoint_on_eight_nodes() {
    let m = MachineConfig::eight_node();
    let cores: Vec<CoreId> = m.topology.cores().collect(); // 16 cores, 8 nodes
    let plan = ColorScheme::MemLlc.plan(&m, &cores);
    let mut seen_banks = std::collections::BTreeSet::new();
    let mut seen_llc = std::collections::BTreeSet::new();
    for (i, p) in plan.iter().enumerate() {
        assert_eq!(p.mem.len(), 16, "32 node colors / 2 threads per node");
        assert_eq!(p.llc.len(), 2);
        let node = m.topology.node_of_core(cores[i]);
        for &bc in &p.mem {
            assert_eq!(m.mapping.node_of_bank_color(bc), node);
            assert!(seen_banks.insert(bc));
        }
        for &lc in &p.llc {
            assert!(seen_llc.insert(lc));
        }
    }
}

#[test]
fn full_run_on_eight_nodes_beats_buddy_and_stays_local() {
    let run = |scheme: ColorScheme| {
        let mut sys = System::boot(MachineConfig::eight_node());
        let cores: Vec<CoreId> = sys.machine().topology.cores().collect();
        let mut threads = SimThread::spawn_all(&mut sys, &cores);
        for (t, p) in threads.iter().zip(&scheme.plan(sys.machine(), &cores)) {
            sys.apply_colors(t.tid, p).unwrap();
        }
        let w = Synthetic {
            bytes_per_thread: 48 * 4096,
        };
        let program = w.build(&mut sys, &threads, 1).unwrap();
        let m = program.run(&mut sys, &mut threads).unwrap();
        (m.runtime, sys.mem().stats().remote_fraction())
    };
    let (buddy, buddy_remote) = run(ColorScheme::Buddy);
    let (tint, tint_remote) = run(ColorScheme::MemLlc);
    assert_eq!(buddy_remote, 0.0);
    assert_eq!(tint_remote, 0.0, "controller-aware on 8 nodes too");
    assert!(tint < buddy, "MEM+LLC {tint} vs buddy {buddy}");
}

#[test]
fn colored_placement_reaches_every_node() {
    // Eight tasks, one per node, each colored with its node's first bank
    // color: pages land exactly where planned on all 8 controllers.
    let mut sys = System::boot(MachineConfig::eight_node());
    let cpn = sys.machine().mapping.bank_colors_per_node();
    for n in 0..8usize {
        let core = CoreId(n * 2);
        let t = sys.spawn(core);
        sys.set_mem_color(t, BankColor((n * cpn) as u16)).unwrap();
        let a = sys.malloc(t, 4 * 4096).unwrap();
        let pa = sys.resolve(t, a).unwrap();
        assert_eq!(
            sys.machine().mapping.decode_frame(pa.frame()).node,
            NodeId(n)
        );
    }
}
