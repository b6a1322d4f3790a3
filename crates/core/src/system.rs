//! The top-level [`System`]: simulated machine + kernel + per-task heaps.
//!
//! `System` is what an application links against in this reproduction. It
//! wires the simulated kernel (frame allocation, Algorithm 1) to the
//! simulated memory system (caches, interconnect, DRAM timing) and exposes
//! the paper's user model:
//!
//! 1. [`System::spawn`] a task pinned to a core;
//! 2. one [`System::set_mem_color`] / [`System::set_llc_color`] call per
//!    color ("just 1–2 lines of code suffice", §III.B);
//! 3. plain [`System::malloc`] — pages arrive colored;
//! 4. [`System::access`] drives the timing model and returns per-access
//!    latency, which the SPMD engine turns into thread runtimes.

use crate::colors::ThreadColors;
use crate::heap::{Heap, PageSource};
use tint_hw::machine::MachineConfig;
use tint_hw::pci::PciConfigSpace;
use tint_hw::types::{BankColor, CoreId, FrameNumber, LlcColor, PhysAddr, Rw, VirtAddr};
use tint_kernel::kernel::{COLOR_ALLOC, SET_LLC_COLOR, SET_MEM_COLOR};
use tint_kernel::task::VmId;
use tint_kernel::{
    AuditCursor, Errno, ExhaustionPolicy, FaultPlan, HeapPolicy, Kernel, KernelCosts, MemPressure,
    OomKill, Tid, VictimPolicy, Watermarks,
};
use tint_mem::{AccessResult, MemorySystem};

/// One memory access as seen by the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// End-to-end cycles, including any page-fault cost on first touch.
    pub latency: u64,
    /// Whether this access took a page fault.
    pub faulted: bool,
    /// Memory-system detail (level, hops, DRAM breakdown).
    pub detail: AccessResult,
}

/// Simulated machine + kernel + heaps behind the paper's API.
#[derive(Debug, Clone)]
pub struct System {
    machine: MachineConfig,
    kernel: Kernel,
    mem: MemorySystem,
    /// `tid.0` → the task's heap arena, `None` once it exited (tids are
    /// small, sequential and never reused). Boxed, so a slot costs one word
    /// for every tid ever issued, not a whole heap.
    heaps: Vec<Option<Box<Heap>>>,
    /// `tid.0` → the task's [`TaskEntry`], filled on its first access.
    /// Tasks never migrate and tids are never reused, so an entry stays
    /// valid for the task's whole life; [`System::exit`] clears it when the
    /// task dies.
    tasks: Vec<Option<TaskEntry>>,
}

/// What [`System::access`] keeps per task: the task-struct fields it needs
/// on every call, so a warm access never looks the task up in the kernel.
#[derive(Debug, Clone, Copy)]
struct TaskEntry {
    /// The task's address space.
    vm: VmId,
    /// The core the task is pinned to.
    core: CoreId,
}

/// Bridges the user-level heap's page requests to the kernel's `mmap`.
struct KernelPages<'a> {
    kernel: &'a mut Kernel,
    tid: Tid,
}

impl PageSource for KernelPages<'_> {
    fn map_pages(&mut self, pages: u64) -> Result<VirtAddr, Errno> {
        self.kernel
            .sys_mmap(self.tid, 0, pages * tint_hw::types::PAGE_SIZE, 0)
    }
    fn unmap_pages(&mut self, base: VirtAddr, pages: u64) -> Result<(), Errno> {
        self.kernel
            .sys_munmap(self.tid, base, pages * tint_hw::types::PAGE_SIZE)
    }
}

/// `tid`'s heap arena in [`System::heaps`].
fn heap_mut(heaps: &mut [Option<Box<Heap>>], tid: Tid) -> Result<&mut Heap, Errno> {
    match heaps.get_mut(tid.0 as usize) {
        Some(Some(heap)) => Ok(heap),
        _ => Err(Errno::Esrch),
    }
}

impl System {
    /// Boot the machine: program the PCI configuration space the way the
    /// BIOS would and let the kernel derive the address mapping from it at
    /// boot, exactly as §III.A describes.
    pub fn boot(machine: MachineConfig) -> Self {
        Self::boot_with_costs(machine, KernelCosts::default())
    }

    /// Boot with explicit kernel cost parameters.
    pub fn boot_with_costs(machine: MachineConfig, costs: KernelCosts) -> Self {
        machine.validate();
        let pci = PciConfigSpace::programmed_by_bios(&machine.mapping);
        let kernel = Kernel::boot_from_pci(&pci, machine.topology.clone(), costs)
            .expect("BIOS-programmed PCI space must derive cleanly");
        let mem = MemorySystem::new(machine.clone());
        Self {
            machine,
            kernel,
            mem,
            heaps: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// The machine configuration.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The simulated kernel (stats, inspection).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The memory system (stats, inspection).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Simulate pre-existing allocation activity (per-repetition jitter).
    pub fn boot_noise(&mut self, pages: u64) {
        self.kernel.consume_boot_noise(pages);
    }

    /// Create a task pinned to `core` with a fresh address space and an
    /// empty heap (a new process / OpenMP group leader).
    pub fn spawn(&mut self, core: CoreId) -> Tid {
        let tid = self.kernel.create_task(core);
        self.new_heap(tid);
        tid
    }

    /// Create a thread pinned to `core` sharing `leader`'s address space
    /// (the OpenMP team model). The thread gets its own heap arena — its
    /// `malloc`s carve fresh regions of the *shared* space, so first touch
    /// by owner applies.
    pub fn spawn_thread(&mut self, core: CoreId, leader: Tid) -> Result<Tid, Errno> {
        let tid = self.kernel.create_thread(core, leader)?;
        self.new_heap(tid);
        Ok(tid)
    }

    /// Give a fresh task an empty heap arena.
    fn new_heap(&mut self, tid: Tid) {
        let ti = tid.0 as usize;
        if ti >= self.heaps.len() {
            self.heaps.resize_with(ti + 1, || None);
        }
        self.heaps[ti] = Some(Box::default());
    }

    /// Drop a dead task's heap arena and cached task entry.
    fn forget(&mut self, tid: Tid) {
        let ti = tid.0 as usize;
        if let Some(heap) = self.heaps.get_mut(ti) {
            *heap = None;
        }
        if let Some(task) = self.tasks.get_mut(ti) {
            *task = None;
        }
    }

    /// The paper's one-line initialization call for a memory color:
    /// `mmap(c | SET_MEM_COLOR, 0, prot | COLOR_ALLOC, ...)`.
    pub fn set_mem_color(&mut self, tid: Tid, color: BankColor) -> Result<(), Errno> {
        self.kernel
            .sys_mmap(tid, SET_MEM_COLOR | color.raw() as u64, 0, COLOR_ALLOC)
            .map(|_| ())
    }

    /// The paper's one-line initialization call for an LLC color.
    pub fn set_llc_color(&mut self, tid: Tid, color: LlcColor) -> Result<(), Errno> {
        self.kernel
            .sys_mmap(tid, SET_LLC_COLOR | color.raw() as u64, 0, COLOR_ALLOC)
            .map(|_| ())
    }

    /// Set the uncolored base policy (buddy vs first-touch baselines).
    pub fn set_policy(&mut self, tid: Tid, policy: HeapPolicy) -> Result<(), Errno> {
        self.kernel.set_policy(tid, policy)
    }

    /// Set what a thread's colored allocations do when the color supply is
    /// exhausted (strict ENOMEM, nearest-color borrowing, or node-local
    /// uncolored fallback).
    pub fn set_exhaustion_policy(
        &mut self,
        tid: Tid,
        policy: ExhaustionPolicy,
    ) -> Result<(), Errno> {
        self.kernel.set_exhaustion_policy(tid, policy)
    }

    /// Arm (or with `None` disarm) deterministic kernel fault injection.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.kernel.set_fault_plan(plan);
    }

    /// Run the kernel's whole-machine consistency check (panics on
    /// violation; see [`Kernel::check_invariants`]). It costs ~87 µs a
    /// call in the median on the `tenant-churn` machine (16 384 frames,
    /// ~1 100 live tasks), about 70 % of it the walk of the page tables.
    pub fn check_invariants(&self) {
        self.kernel.check_invariants();
    }

    /// One bounded slice of the incremental invariant audit (see
    /// [`Kernel::audit_step`]): up to `frames` frames from `cursor`, plus
    /// the conservation check over the live tasks. Returns the frames
    /// examined.
    pub fn audit_step(&self, cursor: &mut AuditCursor, frames: u64) -> u64 {
        self.kernel.audit_step(cursor, frames)
    }

    /// The kernel's memory-pressure signal (free frames vs watermarks).
    pub fn mem_pressure(&self) -> MemPressure {
        self.kernel.mem_pressure()
    }

    /// Replace the kernel's free-frame watermarks.
    pub fn set_watermarks(&mut self, w: Watermarks) {
        self.kernel.set_watermarks(w);
    }

    /// Kill one task to relieve memory pressure: deterministic victim
    /// selection in the kernel, then the same user-level cleanup as
    /// [`System::exit`] — the victim's heap arena and cached task entry die
    /// with it, so a later syscall on the dead tid is a clean `ESRCH`.
    pub fn oom_kill(&mut self, policy: VictimPolicy) -> Result<OomKill, Errno> {
        let kill = self.kernel.oom_kill(policy)?;
        self.forget(kill.victim);
        Ok(kill)
    }

    /// Record a pressure-deferred admission in the kernel's ledger.
    pub fn note_admission_reject(&mut self) {
        self.kernel.note_admission_reject();
    }

    /// Record an allocation retried after a transient `EAGAIN`.
    pub fn note_alloc_retry(&mut self) {
        self.kernel.note_alloc_retry();
    }

    /// Mutable kernel access for kernel-level experiments (raw syscalls,
    /// fuzzing). Translations need no care: [`System::access`] reads them
    /// from the kernel's page tables on every call. This call drops every
    /// cached task entry: a task destroyed through the returned kernel skips
    /// [`System::exit`]'s cleanup, so its next access must reach the kernel
    /// and read `ESRCH`, even while a CLONE_VM sibling keeps its address
    /// space alive. Live tasks re-cache their entry on their next access.
    /// Heap metadata is *not* aware of raw kernel changes, so don't unmap
    /// regions the heap owns.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        self.tasks.clear();
        &mut self.kernel
    }

    /// Apply a planned color set: the base policy plus one `mmap()` call per
    /// color, exactly as an application's init section would.
    pub fn apply_colors(&mut self, tid: Tid, plan: &ThreadColors) -> Result<(), Errno> {
        self.set_policy(tid, plan.policy)?;
        for &c in &plan.mem {
            self.set_mem_color(tid, c)?;
        }
        for &c in &plan.llc {
            self.set_llc_color(tid, c)?;
        }
        Ok(())
    }

    /// Allocate `size` bytes on `tid`'s heap (plain `malloc`).
    pub fn malloc(&mut self, tid: Tid, size: u64) -> Result<VirtAddr, Errno> {
        let heap = heap_mut(&mut self.heaps, tid)?;
        heap.malloc(
            &mut KernelPages {
                kernel: &mut self.kernel,
                tid,
            },
            size,
        )
    }

    /// `calloc(count, size)`.
    pub fn calloc(&mut self, tid: Tid, count: u64, size: u64) -> Result<VirtAddr, Errno> {
        let heap = heap_mut(&mut self.heaps, tid)?;
        heap.calloc(
            &mut KernelPages {
                kernel: &mut self.kernel,
                tid,
            },
            count,
            size,
        )
    }

    /// `realloc(addr, new_size)`.
    pub fn realloc(&mut self, tid: Tid, addr: VirtAddr, new_size: u64) -> Result<VirtAddr, Errno> {
        let heap = heap_mut(&mut self.heaps, tid)?;
        heap.realloc(
            &mut KernelPages {
                kernel: &mut self.kernel,
                tid,
            },
            addr,
            new_size,
        )
    }

    /// `free(addr)`.
    pub fn free(&mut self, tid: Tid, addr: VirtAddr) -> Result<(), Errno> {
        let heap = heap_mut(&mut self.heaps, tid)?;
        heap.free(
            &mut KernelPages {
                kernel: &mut self.kernel,
                tid,
            },
            addr,
        )
    }

    /// The task's heap (stats).
    pub fn heap(&self, tid: Tid) -> Result<&Heap, Errno> {
        match self.heaps.get(tid.0 as usize) {
            Some(Some(heap)) => Ok(heap),
            _ => Err(Errno::Esrch),
        }
    }

    /// Exit a task: let the kernel run the full reclamation — address-space
    /// teardown when the last sharer exits, provenance-routed frame returns,
    /// TCB removal — then drop the task's heap arena and cached task entry.
    /// Nothing else is cached, so no other task's translations are touched.
    /// Heap metadata needs no unwinding of its own: all heap memory lives in
    /// the task's address space, which the kernel reclaims wholesale.
    pub fn exit(&mut self, tid: Tid) -> Result<(), Errno> {
        self.kernel.sys_exit(tid)?;
        self.forget(tid);
        Ok(())
    }

    /// Issue one memory access from `tid` at cycle `now`: translates
    /// (faulting on first touch, which allocates a frame under the task's
    /// coloring) and drives the timing model. A resident page's translation
    /// is one load from the task's flat page table
    /// ([`AddressSpace::frame_of`](tint_kernel::AddressSpace::frame_of));
    /// only first touches reach [`Kernel::translate`].
    #[inline]
    pub fn access(
        &mut self,
        tid: Tid,
        addr: VirtAddr,
        rw: Rw,
        now: u64,
    ) -> Result<MemAccess, Errno> {
        let (phys, fault_cycles, core) = self.translate_cached(tid, addr)?;
        let detail = self.mem.access(core, phys, rw, now + fault_cycles);
        Ok(MemAccess {
            latency: fault_cycles + detail.latency,
            faulted: fault_cycles > 0,
            detail,
        })
    }

    /// The translation step of [`System::access`]: `addr`'s physical
    /// address, the page-fault cycles taken to install it (0 for a resident
    /// page) and `tid`'s pinned core. Three steps: the cached task entry,
    /// the address space's page-table slot, and [`Kernel::translate`] only
    /// when the page is not resident.
    #[inline(always)]
    fn translate_cached(
        &mut self,
        tid: Tid,
        addr: VirtAddr,
    ) -> Result<(PhysAddr, u64, CoreId), Errno> {
        let task = match self.tasks.get(tid.0 as usize).copied().flatten() {
            Some(task) => task,
            None => self.cache_task(tid)?,
        };
        if let Some(frame) = self.kernel.vm(task.vm).frame_of(addr.page().0) {
            let phys = FrameNumber(frame.into()).at(addr.page_offset());
            return Ok((phys, 0, task.core));
        }
        let tr = self.kernel.translate(tid, addr)?;
        Ok((tr.phys, tr.fault_cycles, task.core))
    }

    /// Cache `tid`'s task entry (address space, pinned core) on its first
    /// access.
    #[cold]
    fn cache_task(&mut self, tid: Tid) -> Result<TaskEntry, Errno> {
        let t = self.kernel.task(tid)?;
        let entry = TaskEntry {
            vm: t.vm,
            core: t.core,
        };
        let ti = tid.0 as usize;
        if ti >= self.tasks.len() {
            self.tasks.resize(ti + 1, None);
        }
        self.tasks[ti] = Some(entry);
        Ok(entry)
    }

    /// The physical address [`System::access`] uses for `addr`, taken
    /// through the same cached task entry and page-table load, without
    /// timing. Faults the page in on first touch, like `access`;
    /// [`System::resolve`] is the kernel's translation to compare it with.
    pub fn translate(&mut self, tid: Tid, addr: VirtAddr) -> Result<PhysAddr, Errno> {
        Ok(self.translate_cached(tid, addr)?.0)
    }

    /// Translate through [`Kernel::translate`], bypassing the access path's
    /// cached task entry (used by tests to inspect placement).
    pub fn resolve(&mut self, tid: Tid, addr: VirtAddr) -> Result<PhysAddr, Errno> {
        Ok(self.kernel.translate(tid, addr)?.phys)
    }

    /// Allocate `size` bytes the way a *file read* would back them: through
    /// the page cache, i.e. uncolored first-touch pages, regardless of the
    /// task's heap colors. (The paper colors the heap via `mmap`; input data
    /// read from files lands in page-cache pages the allocator never sees.)
    /// The region is pre-faulted so the placement happens here, not inside
    /// a timed section.
    pub fn malloc_pagecache(&mut self, tid: Tid, size: u64) -> Result<VirtAddr, Errno> {
        // Save the task's colors, drop to the uncolored base policy, place
        // the pages, then restore.
        let (mem, llc) = {
            let t = self.kernel.task(tid)?;
            (t.mem_colors().to_vec(), t.llc_colors().to_vec())
        };
        self.kernel
            .sys_mmap(tid, tint_kernel::kernel::CLEAR_MEM_COLOR, 0, COLOR_ALLOC)?;
        self.kernel
            .sys_mmap(tid, tint_kernel::kernel::CLEAR_LLC_COLOR, 0, COLOR_ALLOC)?;
        // Place the pages, then restore the colors *before* propagating any
        // error — a failed read must not leave the task uncolored.
        let base = self.malloc(tid, size);
        let prefault = base.and_then(|b| self.prefault(tid, b, size).map(|()| b));
        for c in mem {
            self.set_mem_color(tid, c)?;
        }
        for c in llc {
            self.set_llc_color(tid, c)?;
        }
        prefault
    }

    /// Pre-fault every page of `[base, base+len)` (an eager-touch helper for
    /// init sections that should not be timed).
    pub fn prefault(&mut self, tid: Tid, base: VirtAddr, len: u64) -> Result<(), Errno> {
        let mut off = 0;
        while off < len {
            self.kernel.translate(tid, base.offset(off))?;
            off += tint_hw::types::PAGE_SIZE;
        }
        Ok(())
    }

    /// Zero all statistics in the memory stack (kernel stats retained).
    pub fn reset_mem_stats(&mut self) {
        self.mem.reset_stats();
    }

    /// Dynamic recoloring (extension): migrate the task's resident pages to
    /// its current colors. Returns `(pages_migrated, cycles_charged)` — the
    /// cycles belong on the calling thread's clock if invoked mid-run.
    pub fn recolor(&mut self, tid: Tid) -> Result<(u64, u64), Errno> {
        self.kernel.recolor_task(tid)
    }

    /// Range-scoped recoloring: migrate only `[base, base + len)`. Use this
    /// inside thread teams — whole-space recoloring would migrate teammates'
    /// pages onto the caller's colors.
    pub fn recolor_range(
        &mut self,
        tid: Tid,
        base: VirtAddr,
        len: u64,
    ) -> Result<(u64, u64), Errno> {
        self.kernel.recolor_range(tid, base, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colors::ColorScheme;
    use tint_cache::HitLevel;
    use tint_hw::types::NodeId;

    fn sys() -> System {
        System::boot(MachineConfig::tiny())
    }

    #[test]
    fn boot_and_spawn() {
        let mut s = sys();
        let t0 = s.spawn(CoreId(0));
        let t1 = s.spawn(CoreId(2));
        assert_ne!(t0, t1);
        assert_eq!(s.kernel().task(t0).unwrap().core, CoreId(0));
    }

    #[test]
    fn one_line_coloring_colors_the_heap() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        s.set_mem_color(t, BankColor(1)).unwrap();
        s.set_llc_color(t, LlcColor(2)).unwrap();
        let a = s.malloc(t, 3 * 4096).unwrap();
        for p in 0..3u64 {
            let pa = s.resolve(t, a.offset(p * 4096)).unwrap();
            let d = s.machine().mapping.decode_frame(pa.frame());
            assert_eq!(d.bank_color, BankColor(1));
            assert_eq!(d.llc_color, LlcColor(2));
        }
    }

    #[test]
    fn malloc_small_then_access() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        let a = s.malloc(t, 100).unwrap();
        let acc = s.access(t, a, Rw::Write, 0).unwrap();
        assert!(acc.faulted, "first touch faults");
        assert_eq!(acc.detail.level, HitLevel::Memory);
        let acc2 = s.access(t, a, Rw::Read, acc.latency).unwrap();
        assert!(!acc2.faulted);
        assert!(acc2.latency < acc.latency);
    }

    #[test]
    fn free_and_reuse() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        let a = s.malloc(t, 100).unwrap();
        s.free(t, a).unwrap();
        let b = s.malloc(t, 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn access_before_malloc_is_efault() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        assert_eq!(
            s.access(t, VirtAddr(0x5000_0000), Rw::Read, 0),
            Err(Errno::Efault)
        );
    }

    #[test]
    fn apply_plan_memllc_places_locally() {
        let mut s = sys();
        let cores = vec![CoreId(0), CoreId(2)]; // nodes 0 and 1 on tiny
        let plan = ColorScheme::MemLlc.plan(s.machine(), &cores);
        let tids: Vec<_> = cores.iter().map(|&c| s.spawn(c)).collect();
        for (tid, p) in tids.iter().zip(&plan) {
            s.apply_colors(*tid, p).unwrap();
        }
        for (i, &tid) in tids.iter().enumerate() {
            let a = s.malloc(tid, 8 * 4096).unwrap();
            let node = s.machine().topology.node_of_core(cores[i]);
            for pg in 0..8u64 {
                let pa = s.resolve(tid, a.offset(pg * 4096)).unwrap();
                assert_eq!(
                    s.machine().mapping.decode_frame(pa.frame()).node,
                    node,
                    "thread {i} page {pg} must be node-local"
                );
            }
        }
    }

    #[test]
    fn buddy_plan_is_first_touch() {
        let mut s = sys();
        let plan = ColorScheme::Buddy.plan(s.machine(), &[CoreId(2)]);
        let t = s.spawn(CoreId(2));
        s.apply_colors(t, &plan[0]).unwrap();
        let a = s.malloc(t, 4 * 4096).unwrap();
        let pa = s.resolve(t, a).unwrap();
        assert_eq!(
            s.machine().mapping.decode_frame(pa.frame()).node,
            NodeId(1),
            "first touch places on the local node"
        );
    }

    #[test]
    fn legacy_plan_walks_global_cursor() {
        let mut s = sys();
        let plan = ColorScheme::LegacyGlobal.plan(s.machine(), &[CoreId(2)]);
        let t = s.spawn(CoreId(2));
        s.apply_colors(t, &plan[0]).unwrap();
        let a = s.malloc(t, 4 * 4096).unwrap();
        let pa = s.resolve(t, a).unwrap();
        assert_eq!(
            s.machine().mapping.decode_frame(pa.frame()).node,
            NodeId(0),
            "global cursor starts at frame 0 regardless of locality"
        );
    }

    #[test]
    fn prefault_backs_whole_region() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        let a = s.malloc(t, 5 * 4096).unwrap();
        s.prefault(t, a, 5 * 4096).unwrap();
        let acc = s.access(t, a.offset(3 * 4096), Rw::Read, 0).unwrap();
        assert!(!acc.faulted, "prefault already took the fault");
    }

    #[test]
    fn unknown_task_everywhere() {
        let mut s = sys();
        let bogus = Tid(999);
        assert_eq!(s.malloc(bogus, 16), Err(Errno::Esrch));
        assert_eq!(s.set_mem_color(bogus, BankColor(0)), Err(Errno::Esrch));
        assert!(s.heap(bogus).is_err());
    }

    #[test]
    fn exit_reclaims_everything_and_invalidates_translations() {
        let mut s = sys();
        let baseline = s.kernel().pool_snapshot();
        let t = s.spawn(CoreId(0));
        s.set_mem_color(t, BankColor(1)).unwrap();
        s.set_llc_color(t, LlcColor(2)).unwrap();
        let a = s.malloc(t, 8 * 4096).unwrap();
        // Cache the task entry through the access path, then kill the task.
        s.access(t, a, Rw::Write, 0).unwrap();
        s.exit(t).unwrap();
        assert_eq!(s.access(t, a, Rw::Read, 0), Err(Errno::Esrch));
        assert_eq!(s.malloc(t, 16), Err(Errno::Esrch));
        assert!(s.heap(t).is_err());
        assert_eq!(
            s.kernel().pool_snapshot(),
            baseline,
            "zero leaked frames, zero pool skew"
        );
        s.check_invariants();
        // The machine is reusable: a fresh task colors and allocates again.
        let t2 = s.spawn(CoreId(2));
        s.set_mem_color(t2, BankColor(2)).unwrap();
        let b = s.malloc(t2, 4096).unwrap();
        s.access(t2, b, Rw::Write, 0).unwrap();
        s.exit(t2).unwrap();
        assert_eq!(s.kernel().pool_snapshot(), baseline);
        s.check_invariants();
    }

    #[test]
    fn thread_exit_leaves_the_team_running() {
        let mut s = sys();
        let leader = s.spawn(CoreId(0));
        s.set_mem_color(leader, BankColor(0)).unwrap();
        let worker = s.spawn_thread(CoreId(2), leader).unwrap();
        // The worker inherited the leader's colors at spawn.
        assert!(s.kernel().task(worker).unwrap().using_bank);
        let a = s.malloc(leader, 4096).unwrap();
        s.access(worker, a, Rw::Write, 0).unwrap();
        s.exit(worker).unwrap();
        // The shared space survives: the leader still sees the page.
        let acc = s.access(leader, a, Rw::Read, 0).unwrap();
        assert!(!acc.faulted, "page survived the sibling's exit");
        s.exit(leader).unwrap();
        s.check_invariants();
    }

    #[test]
    fn exit_unknown_task_is_esrch() {
        let mut s = sys();
        assert_eq!(s.exit(Tid(999)), Err(Errno::Esrch));
    }

    #[test]
    fn oom_kill_cleans_up_heap_and_tlb_like_exit() {
        let mut s = sys();
        let baseline = s.kernel().pool_snapshot();
        let t = s.spawn(CoreId(0));
        s.set_mem_color(t, BankColor(1)).unwrap();
        let a = s.malloc(t, 4 * 4096).unwrap();
        // Cache the task entry so the kill has cached state to drop.
        s.access(t, a, Rw::Write, 0).unwrap();
        let kill = s.oom_kill(VictimPolicy::LargestFootprint).unwrap();
        assert_eq!(kill.victim, t);
        assert!(kill.frames_reclaimed >= 1);
        assert_eq!(s.access(t, a, Rw::Read, 0), Err(Errno::Esrch));
        assert_eq!(s.malloc(t, 16), Err(Errno::Esrch));
        assert!(s.heap(t).is_err());
        assert_eq!(s.kernel().stats().oom_kills, 1);
        assert_eq!(s.kernel().pool_snapshot(), baseline, "kill reclaims all");
        s.check_invariants();
    }

    #[test]
    fn tenant_exit_leaves_other_tenants_translations_live() {
        let mut s = sys();
        let a = s.spawn(CoreId(0));
        let b = s.spawn(CoreId(2));
        s.set_mem_color(b, BankColor(1)).unwrap();
        let pa = s.malloc(a, 4 * 4096).unwrap();
        let pb = s.malloc(b, 4 * 4096).unwrap();
        s.access(a, pa.offset(4096), Rw::Write, 0).unwrap();
        s.access(a, pa, Rw::Write, 0).unwrap();
        s.access(b, pb, Rw::Write, 0).unwrap();
        let before = [
            s.translate(a, pa).unwrap(),
            s.translate(a, pa.offset(4096)).unwrap(),
        ];

        // B's space is torn down with a resident page; A's translations
        // must survive it untouched.
        s.exit(b).unwrap();
        for (i, va) in [pa, pa.offset(4096)].into_iter().enumerate() {
            let acc = s.access(a, va, Rw::Read, 0).unwrap();
            assert!(!acc.faulted, "A's page {i} is still resident");
            assert_eq!(s.translate(a, va).unwrap(), before[i]);
            assert_eq!(s.translate(a, va).unwrap(), s.resolve(a, va).unwrap());
        }
        assert_eq!(s.access(b, pb, Rw::Read, 0), Err(Errno::Esrch));
        assert_eq!(s.translate(b, pb), Err(Errno::Esrch));
        s.check_invariants();
    }

    #[test]
    fn task_destroyed_behind_the_systems_back_reads_esrch() {
        let mut s = sys();
        // A lone tenant: its space dies with it.
        let t = s.spawn(CoreId(0));
        let a = s.malloc(t, 4 * 4096).unwrap();
        s.access(t, a, Rw::Write, 0).unwrap();
        s.kernel_mut().destroy_task(t).unwrap();
        assert_eq!(s.access(t, a, Rw::Read, 0), Err(Errno::Esrch));
        assert_eq!(s.translate(t, a), Err(Errno::Esrch));

        // A CLONE_VM thread: the space lives on, and the surviving leader
        // refills the shared page's slot after the thread is gone.
        let leader = s.spawn(CoreId(0));
        let worker = s.spawn_thread(CoreId(2), leader).unwrap();
        let b = s.malloc(leader, 4 * 4096).unwrap();
        s.access(worker, b, Rw::Write, 0).unwrap();
        s.kernel_mut().destroy_task(worker).unwrap();
        assert!(!s.access(leader, b, Rw::Read, 0).unwrap().faulted);
        assert_eq!(s.access(worker, b, Rw::Read, 0), Err(Errno::Esrch));
        assert_eq!(s.translate(worker, b), Err(Errno::Esrch));
        assert_eq!(
            s.translate(leader, b).unwrap(),
            s.resolve(leader, b).unwrap()
        );
    }

    #[test]
    fn munmap_of_a_resident_page_strands_its_slot() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        // > 2048 bytes: page-granular, so `free` munmaps.
        let a = s.malloc(t, 4 * 4096).unwrap();
        let b = s.malloc(t, 4 * 4096).unwrap();
        s.access(t, a, Rw::Write, 0).unwrap();
        s.access(t, b, Rw::Write, 0).unwrap();
        let b_phys = s.translate(t, b).unwrap();
        s.free(t, a).unwrap();
        assert_eq!(s.access(t, a, Rw::Read, 0), Err(Errno::Efault));
        assert_eq!(s.translate(t, a), Err(Errno::Efault));
        assert!(!s.access(t, b, Rw::Read, 0).unwrap().faulted);
        assert_eq!(
            s.translate(t, b).unwrap(),
            b_phys,
            "the neighbour kept its frame"
        );
    }

    #[test]
    fn colored_enomem_surfaces_through_malloc_access() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        s.set_mem_color(t, BankColor(0)).unwrap();
        s.set_llc_color(t, LlcColor(0)).unwrap();
        let per_pair = s.machine().mapping.frames_per_color_pair();
        let a = s.malloc(t, (per_pair + 1) * 4096).unwrap();
        // Touch pages until the color runs dry.
        let mut got_enomem = false;
        for p in 0..=per_pair {
            match s.access(t, a.offset(p * 4096), Rw::Write, 0) {
                Ok(_) => {}
                Err(Errno::Enomem) => {
                    got_enomem = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(got_enomem, "color exhaustion must surface as ENOMEM");
    }
}
