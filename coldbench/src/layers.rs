//! Isolated drives of each layer's public entry point, on freshly booted
//! machines, in host nanoseconds per operation.
//!
//! Each drive sets its layer up untimed, runs a fixed operation stream
//! through the one public function under test, and divides. Every drive
//! repeats [`REPS`] times on a fresh machine and reports the median. The
//! drives check the outcome they meant to produce (hit level, row
//! outcome, refill) and say on stderr when the layer did something else.

use crate::units::median;
use std::hint::black_box;
use std::time::Instant;
use tint_cache::{CacheHierarchy, HitLevel};
use tint_dram::{DramSystem, RowOutcome};
use tint_hw::machine::MachineConfig;
use tint_hw::types::{CoreId, NodeId, PageNumber, PhysAddr, PAGE_SIZE};
use tint_kernel::BuddyAllocator;
use tint_mem::MemorySystem;
use tint_spmd::{Op, Program, SectionBody, SimThread};
use tint_workloads::PinConfig;
use tintmalloc::prelude::*;

/// Fresh-machine repetitions per drive.
const REPS: usize = 5;

/// Per-operation host cost of every driven layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    pub compute_op_ns: f64,
    pub dynamic_op_ns: f64,
    pub access_tlb_hit_ns: f64,
    pub access_tlb_miss_ns: f64,
    pub l1_hit_ns: f64,
    pub l2_hit_ns: f64,
    pub l3_hit_ns: f64,
    pub l3_miss_ns: f64,
    pub row_hit_ns: f64,
    pub row_conflict_ns: f64,
    pub local_miss_ns: f64,
    pub remote_miss_ns: f64,
    pub fault_buddy_ns: f64,
    pub fault_colored_ns: f64,
    pub refill_ns: f64,
    pub buddy_alloc_free_ns: f64,
    pub mmap_munmap_ns: f64,
    pub task_create_destroy_ns: f64,
    pub check_invariants_ms: f64,
}

fn med(mut drive: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| drive()).collect();
    median(&mut v)
}

fn ns_per(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Report a drive whose operations did not land where intended.
fn expect_share(drive: &str, hits: u64, ops: u64) {
    if hits * 10 < ops * 9 {
        eprintln!("warning: {drive}: only {hits} of {ops} operations took the driven path");
    }
}

impl Layers {
    pub fn measure() -> Self {
        let (fault_colored_ns, refill_ns) = colored_faults();
        Self {
            compute_op_ns: med(|| compute_ops(false)),
            dynamic_op_ns: med(|| compute_ops(true)),
            access_tlb_hit_ns: med(|| system_access(false)),
            access_tlb_miss_ns: med(|| system_access(true)),
            l1_hit_ns: med(|| cache_walk(HitLevel::L1)),
            l2_hit_ns: med(|| cache_walk(HitLevel::L2)),
            l3_hit_ns: med(|| cache_walk(HitLevel::L3)),
            l3_miss_ns: med(|| cache_walk(HitLevel::Memory)),
            row_hit_ns: med(|| dram(false)),
            row_conflict_ns: med(|| dram(true)),
            local_miss_ns: med(|| mem_miss(false)),
            remote_miss_ns: med(|| mem_miss(true)),
            fault_buddy_ns: med(buddy_faults),
            fault_colored_ns,
            refill_ns,
            buddy_alloc_free_ns: med(buddy_alloc_free),
            mmap_munmap_ns: med(mmap_munmap),
            task_create_destroy_ns: med(task_create_destroy),
            check_invariants_ms: med(check_invariants),
        }
    }

    /// `(name, value, unit)` of every drive.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("spmd.compute_op_ns", self.compute_op_ns, "ns"),
            ("spmd.dynamic_op_ns", self.dynamic_op_ns, "ns"),
            ("core.access_tlb_hit_ns", self.access_tlb_hit_ns, "ns"),
            ("core.access_tlb_miss_ns", self.access_tlb_miss_ns, "ns"),
            ("cache.l1_hit_ns", self.l1_hit_ns, "ns"),
            ("cache.l2_hit_ns", self.l2_hit_ns, "ns"),
            ("cache.l3_hit_ns", self.l3_hit_ns, "ns"),
            ("cache.l3_miss_ns", self.l3_miss_ns, "ns"),
            ("dram.row_hit_ns", self.row_hit_ns, "ns"),
            ("dram.row_conflict_ns", self.row_conflict_ns, "ns"),
            ("mem.local_miss_ns", self.local_miss_ns, "ns"),
            ("mem.remote_miss_ns", self.remote_miss_ns, "ns"),
            ("kernel.fault_buddy_ns", self.fault_buddy_ns, "ns"),
            ("kernel.fault_colored_ns", self.fault_colored_ns, "ns"),
            ("kernel.refill_ns", self.refill_ns, "ns"),
            ("kernel.buddy_alloc_free_ns", self.buddy_alloc_free_ns, "ns"),
            ("kernel.mmap_munmap_ns", self.mmap_munmap_ns, "ns"),
            (
                "kernel.task_create_destroy_ns",
                self.task_create_destroy_ns,
                "ns",
            ),
            ("kernel.check_invariants_ms", self.check_invariants_ms, "ms"),
        ]
    }
}

/// `Program::run` over Compute-only bodies on the paper's 16-thread team:
/// static sections (one body per thread) or a dynamic chunk queue.
fn compute_ops(dynamic: bool) -> f64 {
    const OPS_PER_THREAD: u64 = 40_000;
    const CHUNKS: u64 = 256;
    let mut sys = System::boot(MachineConfig::opteron_6128());
    let cores = PinConfig::T16N4.cores();
    let mut team = SimThread::spawn_all(&mut sys, &cores);
    let total = OPS_PER_THREAD * team.len() as u64;
    let body = |n: u64| Box::new((0..n).map(|i| Op::Compute(1 + i % 7))) as Box<dyn SectionBody>;
    let program = if dynamic {
        Program::new().parallel_dynamic((0..CHUNKS).map(|_| body(total / CHUNKS)).collect())
    } else {
        Program::new().parallel(team.iter().map(|_| body(OPS_PER_THREAD)).collect())
    };
    let t = Instant::now();
    black_box(
        program
            .run(&mut sys, &mut team)
            .expect("compute-only program runs"),
    );
    ns_per(t, total)
}

/// `System::access` from one task: TLB-resident pages, or two resident
/// pages that share a software-TLB slot (8 192 slots, direct mapped) so
/// every access misses the TLB. Either way the lines stay in L1.
fn system_access(tlb_miss: bool) -> f64 {
    const OPS: u64 = 1_000_000;
    const TLB_SLOTS: u64 = 8_192;
    let mut sys = System::boot(MachineConfig::opteron_6128());
    let tid = sys.spawn(CoreId(0));
    let len = (TLB_SLOTS + 1) * PAGE_SIZE;
    let base = sys.malloc(tid, len).expect("drive region");
    let far = base.offset(TLB_SLOTS * PAGE_SIZE);
    for a in [base, far] {
        sys.access(tid, a, Rw::Read, 0).expect("first touch");
    }
    let mut now = 0;
    let t = Instant::now();
    for i in 0..OPS {
        let a = if tlb_miss && i % 2 == 1 { far } else { base };
        let r = sys
            .access(tid, a.offset((i % 8) * 8), Rw::Read, now)
            .expect("resident page");
        now += r.latency;
    }
    ns_per(t, black_box(OPS))
}

/// `CacheHierarchy::access` on core 0 over a working set sized to land
/// in the level under test (the Opteron's 128 KiB L1, 512 KiB L2, 12 MiB
/// L3), or a stream of never-reused lines for misses.
fn cache_walk(level: HitLevel) -> f64 {
    const OPS: u64 = 1_000_000;
    let m = MachineConfig::opteron_6128();
    let line = m.mapping.line_size();
    let lines: u64 = match level {
        HitLevel::L1 => 16,
        HitLevel::L2 => (256 << 10) / line,
        HitLevel::L3 => (2 << 20) / line,
        HitLevel::Memory => OPS,
    };
    let mut h = CacheHierarchy::new(&m);
    let addr = |i: u64| PhysAddr((i % lines) * line);
    if level != HitLevel::Memory {
        for i in 0..lines {
            h.access(CoreId(0), addr(i));
        }
    }
    let mut hits = 0;
    let t = Instant::now();
    for i in 0..OPS {
        hits += (h.access(CoreId(0), addr(i)).0 == level) as u64;
    }
    let ns = ns_per(t, OPS);
    expect_share("cache walk", hits, OPS);
    ns
}

/// `DramSystem::access` to one bank: lines of one open row, or two rows
/// of the same bank in turn.
fn dram(conflict: bool) -> f64 {
    const OPS: u64 = 1_000_000;
    let m = MachineConfig::opteron_6128();
    let map = &m.mapping;
    let bc = map
        .bank_colors_of_node(NodeId(0))
        .next()
        .expect("node 0 has banks");
    let llc = map.llc_colors().next().expect("an LLC color");
    let rows = [map.compose_frame(bc, llc, 0), map.compose_frame(bc, llc, 1)];
    let mut d = DramSystem::new(*map, m.dram);
    let want = if conflict {
        RowOutcome::Conflict
    } else {
        RowOutcome::Hit
    };
    d.access(rows[0].at(0), Rw::Read, 0);
    let (mut now, mut hits) = (0, 0);
    let t = Instant::now();
    for i in 0..OPS {
        let frame = rows[if conflict { (i as usize + 1) % 2 } else { 0 }];
        let r = d.access(frame.at((i % 32) * map.line_size()), Rw::Read, now);
        hits += (r.outcome == want) as u64;
        now = r.complete_at;
    }
    let ns = ns_per(t, OPS);
    expect_share("dram", hits, OPS);
    ns
}

/// `MemorySystem::access` from core 0 (node 0) to never-reused lines
/// homed on node 0, or on the three other nodes in turn.
fn mem_miss(remote: bool) -> f64 {
    const OPS: u64 = 500_000;
    let m = MachineConfig::opteron_6128();
    let map = m.mapping;
    let nodes: Vec<NodeId> = if remote {
        (1..4).map(NodeId).collect()
    } else {
        vec![NodeId(0)]
    };
    let banks: Vec<Vec<_>> = nodes
        .iter()
        .map(|&n| map.bank_colors_of_node(n).collect())
        .collect();
    let llcs: Vec<_> = map.llc_colors().collect();
    let lines_per_frame = PAGE_SIZE / map.line_size();
    let mut sys = MemorySystem::new(m);
    let addr = |i: u64| {
        let f = i / lines_per_frame;
        let node = &banks[(f % banks.len() as u64) as usize];
        let f = f / banks.len() as u64;
        let bc = node[(f % node.len() as u64) as usize];
        let f = f / node.len() as u64;
        let llc = llcs[(f % llcs.len() as u64) as usize];
        let row = f / llcs.len() as u64;
        map.compose_frame(bc, llc, row)
            .at((i % lines_per_frame) * map.line_size())
    };
    let (mut now, mut hits) = (0, 0);
    let t = Instant::now();
    for i in 0..OPS {
        let r = sys.access(CoreId(0), addr(i), Rw::Read, now);
        hits += (r.level == HitLevel::Memory && (r.hops > 0) == remote) as u64;
        now += r.latency;
    }
    let ns = ns_per(t, OPS);
    expect_share("mem miss", hits, OPS);
    ns
}

/// `Kernel::page_fault` for an uncolored (legacy buddy) task.
fn buddy_faults() -> f64 {
    const PAGES: u64 = 20_000;
    let mut sys = System::boot(MachineConfig::opteron_6128());
    let tid = sys.spawn(CoreId(0));
    let k = sys.kernel_mut();
    let base = k
        .sys_mmap(tid, 0, PAGES * PAGE_SIZE, 0)
        .expect("drive region")
        .page();
    let t = Instant::now();
    for p in 0..PAGES {
        black_box(
            k.page_fault(tid, PageNumber(base.0 + p))
                .expect("buddy fault"),
        );
    }
    ns_per(t, PAGES)
}

/// `Kernel::page_fault` for the paper's MEM+LLC `16t4n` team, each
/// thread faulting its own region in turn as the synthetic benchmark
/// does, each fault timed alone: the median of faults that popped a
/// colored page, and of faults that first refilled the color lists
/// (`create_color_list_calls` advanced).
fn colored_faults() -> (f64, f64) {
    const PAGES_PER_THREAD: u64 = 512;
    let (mut pop, mut refill) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut sys = System::boot(MachineConfig::opteron_6128());
        let cores = PinConfig::T16N4.cores();
        let team = SimThread::spawn_all(&mut sys, &cores);
        let plan = ColorScheme::MemLlc.plan(sys.machine(), &cores);
        for (t, p) in team.iter().zip(&plan) {
            sys.apply_colors(t.tid, p).expect("color plan applies");
        }
        let k = sys.kernel_mut();
        let bases: Vec<PageNumber> = team
            .iter()
            .map(|t| {
                k.sys_mmap(t.tid, 0, PAGES_PER_THREAD * PAGE_SIZE, 0)
                    .expect("drive region")
                    .page()
            })
            .collect();
        for p in 0..PAGES_PER_THREAD {
            for (t, base) in team.iter().zip(&bases) {
                let calls = k.stats().create_color_list_calls;
                let start = Instant::now();
                black_box(
                    k.page_fault(t.tid, PageNumber(base.0 + p))
                        .expect("colored fault"),
                );
                let ns = start.elapsed().as_nanos() as f64;
                if k.stats().create_color_list_calls > calls {
                    refill.push(ns);
                } else {
                    pop.push(ns);
                }
            }
        }
    }
    let refill_ns = if refill.is_empty() {
        0.0
    } else {
        median(&mut refill)
    };
    (median(&mut pop), refill_ns)
}

/// `BuddyAllocator::alloc` + `free` of order-0 blocks, 1 024 live at once.
fn buddy_alloc_free() -> f64 {
    const ROUNDS: u64 = 500;
    const LIVE: usize = 1_024;
    let mut b = BuddyAllocator::new(1 << 20);
    let mut held = Vec::with_capacity(LIVE);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for _ in 0..LIVE {
            held.push(b.alloc(0).expect("free frames"));
        }
        for f in held.drain(..) {
            b.free(f, 0);
        }
    }
    ns_per(t, ROUNDS * LIVE as u64)
}

/// `Kernel::sys_mmap` + `sys_munmap` of an untouched 16-page region on
/// the tiny machine the churn tenants run on.
fn mmap_munmap() -> f64 {
    const OPS: u64 = 100_000;
    let mut sys = System::boot(MachineConfig::tiny());
    let tid = sys.spawn(CoreId(0));
    let k = sys.kernel_mut();
    let len = 16 * PAGE_SIZE;
    let t = Instant::now();
    for _ in 0..OPS {
        let base = k.sys_mmap(tid, 0, len, 0).expect("mmap");
        k.sys_munmap(tid, base, len).expect("munmap");
    }
    ns_per(t, OPS)
}

/// `Kernel::create_task` + `destroy_task` on the tiny machine.
fn task_create_destroy() -> f64 {
    const OPS: u64 = 20_000;
    let mut sys = System::boot(MachineConfig::tiny());
    let k = sys.kernel_mut();
    let t = Instant::now();
    for i in 0..OPS {
        let tid = k.create_task(CoreId((i % 4) as usize));
        k.destroy_task(tid).expect("task exists");
    }
    ns_per(t, OPS)
}

/// `System::check_invariants` on a freshly booted tiny machine, in ms.
fn check_invariants() -> f64 {
    const OPS: u64 = 20;
    let sys = System::boot(MachineConfig::tiny());
    let t = Instant::now();
    for _ in 0..OPS {
        sys.check_invariants();
    }
    ns_per(t, OPS) * 1e-6
}
