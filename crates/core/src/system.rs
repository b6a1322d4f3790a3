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
    /// small, sequential and never reused, as in [`Tlb::tasks`]). Boxed, so
    /// a slot costs one word for every tid ever issued, not a whole heap.
    heaps: Vec<Option<Box<Heap>>>,
    tlb: Tlb,
}

/// Slots in the software TLB (direct-mapped).
const TLB_SLOTS: usize = 1 << 13;

/// Bits of a [`TlbEntry::key`] that hold the virtual page number; the
/// address-space index sits above them, so it must stay below
/// `2^(64 − PAGE_BITS)`.
const PAGE_BITS: u32 = 36;

/// One direct-mapped TLB slot, 16 bytes. A slot is live only when its
/// `generation` equals the table's current one, so invalidating every
/// cached translation is a counter bump, not a sweep.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    /// `vm << PAGE_BITS | page`: the address space and virtual page number.
    key: u64,
    /// Frame backing the page.
    frame: u32,
    /// Table generation when this slot was filled; 0 never matches.
    generation: u32,
}

/// What the TLB keeps per task: the task-struct fields `access` needs every
/// call, and a memo of the task's last translation in front of the table.
#[derive(Debug, Clone, Copy)]
struct TaskEntry {
    /// The address-space index shifted into place (`vm << PAGE_BITS`).
    vm_key: u64,
    /// The core the task is pinned to.
    core: CoreId,
    /// The page the task translated last.
    memo_page: u64,
    /// The frame backing `memo_page`.
    memo_frame: u32,
    /// Table generation when the memo was taken; 0 never matches.
    memo_generation: u32,
}

/// Software TLB over [`Kernel::translate`], the [`System::access`] fast
/// path. A direct-mapped table of (address space, page) → frame
/// translations plus, per task, the task-struct fields `access` needs every
/// call (address space, pinned core) and a one-entry memo of the task's last
/// translation, checked before the table. Coherence is generation-based:
/// the kernel bumps its [`translation_epoch`](Kernel::translation_epoch)
/// whenever an existing translation dies (`munmap`, recolor migration); the
/// table then advances its own 32-bit generation, which strands every slot
/// and every memo filled under the old one — exactly the
/// shoot-down-everything model of a hardware TLB without ASID tracking, and
/// cheap because remap events are rare next to accesses. A memo is a copy of
/// a translation that was current under its generation, so it is live
/// exactly when a table slot filled at the same moment would be. When the
/// generation wraps, the table and every memo are swept once, so a stale
/// slot or memo can never match a reused generation.
#[derive(Debug, Clone)]
struct Tlb {
    /// Direct-mapped slots; conflicting pages simply evict each other.
    entries: Vec<TlbEntry>,
    /// Generation live slots carry, in `1..=u32::MAX`.
    generation: u32,
    /// The kernel translation epoch `generation` belongs to.
    epoch: u64,
    /// `tid.0` → the task's entry; tids are small and sequential. Tasks
    /// never migrate, and tids are never reused, so an entry's address space
    /// and core stay valid for the task's whole life; [`System::exit`]
    /// clears the slot when the task dies.
    tasks: Vec<Option<TaskEntry>>,
}

/// A slot no lookup matches: generation 0 is never current.
const DEAD_ENTRY: TlbEntry = TlbEntry {
    key: u64::MAX,
    frame: 0,
    generation: 0,
};

impl Default for Tlb {
    fn default() -> Self {
        Self {
            entries: vec![DEAD_ENTRY; TLB_SLOTS],
            generation: 1,
            epoch: 0,
            tasks: Vec::new(),
        }
    }
}

impl Tlb {
    /// Slot index for a translation: per-VM pages stream through distinct
    /// slots; the multiplied VM key keeps different address spaces from
    /// colliding on the same low page numbers.
    #[inline]
    fn slot(vm_key: u64, page: u64) -> usize {
        (page ^ (vm_key >> PAGE_BITS).wrapping_mul(0x9E37_79B9)) as usize & (TLB_SLOTS - 1)
    }

    /// Bring the generation up to the kernel's translation epoch: a new
    /// epoch means some cached translation died, so every slot goes stale.
    #[inline]
    fn sync(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.advance(epoch);
        }
    }

    /// Start the generation for a new kernel epoch.
    #[cold]
    fn advance(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: slots and memos filled 2^32 − 1 generations ago
            // would match again, so kill them all and start over.
            self.entries.fill(DEAD_ENTRY);
            for task in self.tasks.iter_mut().flatten() {
                task.memo_generation = 0;
            }
            self.generation = 1;
        }
    }

    /// The cached frame of `page` in the address space `vm_key`, if live.
    #[inline]
    fn lookup(&self, vm_key: u64, page: u64) -> Option<u32> {
        let e = self.entries[Self::slot(vm_key, page)];
        // A page number wider than its field would alias another space's
        // key; such an address is never mapped, so it always misses.
        (e.key == vm_key | page && e.generation == self.generation && page >> PAGE_BITS == 0)
            .then_some(e.frame)
    }

    /// Make `page → frame`, current under this generation, task `ti`'s memo.
    #[inline]
    fn memoize(&mut self, ti: usize, page: u64, frame: u32) {
        if let Some(Some(task)) = self.tasks.get_mut(ti) {
            task.memo_page = page;
            task.memo_frame = frame;
            task.memo_generation = self.generation;
        }
    }

    /// Cache `page → frame` for the address space `vm_key`.
    #[inline]
    fn fill(&mut self, vm_key: u64, page: u64, frame: u32) {
        if page >> PAGE_BITS != 0 {
            return;
        }
        self.entries[Self::slot(vm_key, page)] = TlbEntry {
            key: vm_key | page,
            frame,
            generation: self.generation,
        };
    }
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
            tlb: Tlb::default(),
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

    /// Drop a dead task's heap arena and cached TLB task entry.
    fn forget(&mut self, tid: Tid) {
        let ti = tid.0 as usize;
        if let Some(heap) = self.heaps.get_mut(ti) {
            *heap = None;
        }
        if let Some(task) = self.tlb.tasks.get_mut(ti) {
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
    /// violation). For tests and fuzzing — O(frames).
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
    /// [`System::exit`] — the victim's heap arena and cached TLB task entry
    /// die with it, so a later syscall on the dead tid is a clean `ESRCH`.
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
    /// fuzzing). The software TLB follows the kernel's translation epoch, so
    /// direct kernel mutations stay coherent with later [`System::access`]
    /// calls — but heap metadata is *not* aware of raw kernel changes, so
    /// don't unmap regions the heap owns.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
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

    /// Exit a task: drop its heap arena and cached TLB task entry, then let
    /// the kernel run the full reclamation — address-space teardown when the
    /// last sharer exits, provenance-routed frame returns, TCB removal, and
    /// a translation-epoch bump that strands every cached translation of the
    /// torn-down space. Heap metadata needs no unwinding of its own: all
    /// heap memory lives in the task's address space, which the kernel
    /// reclaims wholesale.
    pub fn exit(&mut self, tid: Tid) -> Result<(), Errno> {
        self.kernel.sys_exit(tid)?;
        self.forget(tid);
        Ok(())
    }

    /// Issue one memory access from `tid` at cycle `now`: translates
    /// (faulting on first touch, which allocates a frame under the task's
    /// coloring) and drives the timing model. Warm translations come from
    /// the software [`Tlb`]; only TLB misses and first touches reach
    /// [`Kernel::translate`].
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
    /// address, the page-fault cycles taken to install it (0 on a TLB hit or
    /// a resident page) and `tid`'s pinned core. Warm translations come from
    /// the software [`Tlb`]; misses go to [`Kernel::translate`] and are
    /// cached.
    #[inline(always)]
    fn translate_cached(
        &mut self,
        tid: Tid,
        addr: VirtAddr,
    ) -> Result<(PhysAddr, u64, CoreId), Errno> {
        // Any destroyed/changed translation bumps the kernel epoch, which
        // strands every slot and memo filled earlier. (Sync before copying
        // the task entry: a wrap clears the memo.)
        self.tlb.sync(self.kernel.translation_epoch());
        let ti = tid.0 as usize;
        let task = match self.tlb.tasks.get(ti).copied().flatten() {
            Some(task) => task,
            None => self.cache_task(tid)?,
        };
        let page = addr.page().0;
        if task.memo_page == page && task.memo_generation == self.tlb.generation {
            let frame = FrameNumber(task.memo_frame.into());
            return Ok((frame.at(addr.page_offset()), 0, task.core));
        }
        let (frame, phys, fault_cycles) = match self.tlb.lookup(task.vm_key, page) {
            Some(frame) => (frame, FrameNumber(frame.into()).at(addr.page_offset()), 0),
            None => {
                let tr = self.kernel.translate(tid, addr)?;
                // `translate` can only install translations (a fault), never
                // destroy one, so the entry we cache is current.
                let frame = u32::try_from(tr.phys.frame().0).expect("frame numbers fit 32 bits");
                self.tlb.fill(task.vm_key, page, frame);
                (frame, tr.phys, tr.fault_cycles)
            }
        };
        self.tlb.memoize(ti, page, frame);
        Ok((phys, fault_cycles, task.core))
    }

    /// Cache `tid`'s TLB task entry (address space, pinned core, an empty
    /// memo) on its first access.
    #[cold]
    fn cache_task(&mut self, tid: Tid) -> Result<TaskEntry, Errno> {
        let t = self.kernel.task(tid)?;
        assert!(
            t.vm.0 < 1 << (64 - PAGE_BITS),
            "address space {} does not fit the TLB key",
            t.vm.0
        );
        let entry = TaskEntry {
            vm_key: (t.vm.0 as u64) << PAGE_BITS,
            core: t.core,
            memo_page: 0,
            memo_frame: 0,
            memo_generation: 0,
        };
        let ti = tid.0 as usize;
        if ti >= self.tlb.tasks.len() {
            self.tlb.tasks.resize(ti + 1, None);
        }
        self.tlb.tasks[ti] = Some(entry);
        Ok(entry)
    }

    /// The physical address [`System::access`] uses for `addr`, taken
    /// through the same software TLB (so a stale cached translation shows
    /// here exactly as it would on the access path), without timing. Faults
    /// the page in on first touch, like `access`; [`System::resolve`] is the
    /// page-table walk to compare it with.
    pub fn translate(&mut self, tid: Tid, addr: VirtAddr) -> Result<PhysAddr, Errno> {
        Ok(self.translate_cached(tid, addr)?.0)
    }

    /// Translate by a page-table walk, bypassing the software TLB (used by
    /// tests to inspect placement).
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
        // Warm the TLB through the access path, then kill the task.
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
        // Warm the TLB so the kill has cached state to invalidate.
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
    fn generation_wrap_strands_entries_filled_before_it() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        // > 2048 bytes: page-granular, so `free` munmaps and bumps the
        // kernel's translation epoch.
        let a = s.malloc(t, 4 * 4096).unwrap();
        let b = s.malloc(t, 4 * 4096).unwrap();
        s.access(t, a, Rw::Write, 0).unwrap();
        s.access(t, b, Rw::Write, 0).unwrap();
        let vm_key = s.tlb.tasks[t.0 as usize].unwrap().vm_key;
        let page = a.page().0;
        assert_eq!(s.tlb.generation, 1);
        assert!(
            s.tlb.lookup(vm_key, page).is_some(),
            "filled at generation 1"
        );

        // 2^32 − 2 epoch bumps later the generation is about to wrap back to
        // 1, the generation `a`'s entry carries.
        s.tlb.generation = u32::MAX;
        let epoch = s.kernel().translation_epoch();
        s.free(t, b).unwrap();
        assert_ne!(
            s.kernel().translation_epoch(),
            epoch,
            "munmap bumps the epoch"
        );
        s.tlb.sync(s.kernel().translation_epoch());
        assert_eq!(s.tlb.generation, 1, "the generation wrapped");
        assert!(
            s.tlb.lookup(vm_key, page).is_none(),
            "an entry filled before the wrap must miss after it"
        );
        // The access path refills the slot from the page table.
        let acc = s.access(t, a, Rw::Read, 0).unwrap();
        assert!(!acc.faulted);
        assert!(s.tlb.lookup(vm_key, page).is_some());
        assert_eq!(s.translate(t, a).unwrap(), s.resolve(t, a).unwrap());
    }

    #[test]
    fn generation_wrap_strands_the_last_page_memo() {
        let mut s = sys();
        let t = s.spawn(CoreId(0));
        let a = s.malloc(t, 4 * 4096).unwrap();
        let b = s.malloc(t, 4 * 4096).unwrap();
        s.access(t, a, Rw::Write, 0).unwrap();
        // Repeated accesses to one page: the memo holds `b` at generation 1.
        for off in [0, 64, 128, 4000] {
            s.access(t, b.offset(off), Rw::Write, 0).unwrap();
            assert_eq!(
                s.translate(t, b.offset(off)).unwrap(),
                s.resolve(t, b.offset(off)).unwrap()
            );
        }
        let memo = s.tlb.tasks[t.0 as usize].unwrap();
        assert_eq!((memo.memo_page, memo.memo_generation), (b.page().0, 1));

        // Unmap `b` just as the generation wraps back to 1, the generation
        // the memo carries: the sweep must clear it, or the dead page would
        // still translate to its old frame.
        s.tlb.generation = u32::MAX;
        s.free(t, b).unwrap();
        assert_eq!(s.access(t, b, Rw::Read, 0), Err(Errno::Efault));
        assert_eq!(s.tlb.generation, 1, "the generation wrapped");
        assert_eq!(s.translate(t, b), Err(Errno::Efault));
        // A live page translates afresh and is memoized at the new generation.
        s.access(t, a, Rw::Read, 0).unwrap();
        assert_eq!(s.translate(t, a).unwrap(), s.resolve(t, a).unwrap());
        let memo = s.tlb.tasks[t.0 as usize].unwrap();
        assert_eq!((memo.memo_page, memo.memo_generation), (a.page().0, 1));
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
