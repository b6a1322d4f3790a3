//! The simulated kernel: `mmap()` color protocol, page faults, Algorithm 1.
//!
//! ## The `mmap()` protocol (paper §III.B, Fig. 6)
//!
//! A **zero-length** `mmap()` whose protection argument has bit 30
//! ([`COLOR_ALLOC`]) set is interpreted as a color-set operation: the
//! address argument carries a mode in its most significant bits and the
//! color in its low bits:
//!
//! ```text
//! char *A = (char*) mmap(c | SET_LLC_COLOR, 0, prot | COLOR_ALLOC, ...);
//! ```
//!
//! The color is recorded in the calling task's TCB together with the
//! `using_bank`/`using_llc` flags; subsequent ordinary heap allocations are
//! colored without any further source change.
//!
//! ## Algorithm 1 (colored page selection)
//!
//! Order-0 requests from a task with a coloring flag set are served from
//! `color_list[MEM_ID][LLC_ID]`. When the matching lists are empty, the
//! kernel walks the buddy free lists from low order to `MAX_ORDER`, finds a
//! block *containing a page of a matching color*, and moves it into the
//! color matrix with `create_color_list` (Algorithm 2) — then retries. When
//! no such block exists the allocation fails with `ENOMEM` ("no more page of
//! this color"). Orders greater than zero and uncolored tasks go straight to
//! the legacy buddy allocator.

use crate::buddy::BuddyAllocator;
use crate::colorlist::ColorMatrix;
use crate::errno::Errno;
use crate::fault::{FaultInjector, FaultPlan, FaultSite};
use crate::pressure::{AuditCursor, MemPressure, OomKill, VictimPolicy, Watermarks};
use crate::task::{ColorOp, ExhaustionPolicy, HeapPolicy, TaskStruct, Tid, VmId};
use crate::vm::{AddressSpace, FrameSource};
use crate::MAX_ORDER;
use tint_hw::addrmap::AddressMapping;
use tint_hw::decoder::{FrameDecoder, FrameInfo, FrameMask};
use tint_hw::pci::{derive_mapping, PciConfigSpace};
use tint_hw::topology::Topology;
use tint_hw::types::{
    BankColor, CoreId, FrameNumber, LlcColor, NodeId, PageNumber, PhysAddr, VirtAddr, PAGE_SIZE,
};

/// Protection-argument flag (bit 30): "interpret this `mmap()` as a color
/// operation" (paper Fig. 6).
pub const COLOR_ALLOC: u64 = 1 << 30;

/// Mode nibble (bits 60–63 of the address argument): add a memory color.
pub const SET_MEM_COLOR: u64 = 1 << 60;
/// Mode nibble: add an LLC color.
pub const SET_LLC_COLOR: u64 = 2 << 60;
/// Mode nibble: clear all memory colors.
pub const CLEAR_MEM_COLOR: u64 = 3 << 60;
/// Mode nibble: clear all LLC colors.
pub const CLEAR_LLC_COLOR: u64 = 4 << 60;

const MODE_SHIFT: u32 = 60;
const COLOR_MASK: u64 = (1 << MODE_SHIFT) - 1;

/// Cycle costs charged to a faulting task for kernel work. These surface in
/// thread runtimes: the paper notes the overhead of colored allocation "is
/// higher for the first heap requests as the kernel traverses the general
/// buddy free list" (§III.C) — `block_scan`/`per_page_move` is that cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCosts {
    /// Base cost of any page fault (trap, zeroing, page-table update).
    pub page_fault: u64,
    /// Cost per buddy block *examined* while locating a block for
    /// `create_color_list` — restrictive color sets scan further, which is
    /// the paper's "traverses the general buddy free list" overhead.
    pub block_scan: u64,
    /// Per-page cost of moving pages into the color matrix.
    pub per_page_move: u64,
    /// Cost of copying one page during migration (recoloring).
    pub page_copy: u64,
}

impl Default for KernelCosts {
    fn default() -> Self {
        Self {
            page_fault: 1500,
            block_scan: 150,
            per_page_move: 4,
            page_copy: 800,
        }
    }
}

/// Allocation-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Order-0 pages served by the legacy buddy path.
    pub legacy_allocs: u64,
    /// Pages served from the color matrix.
    pub colored_allocs: u64,
    /// Pages served by the first-touch local-node preference.
    pub firsttouch_allocs: u64,
    /// First-touch pages that fell back to the global list (remote).
    pub fallback_allocs: u64,
    /// Algorithm 2 invocations.
    pub create_color_list_calls: u64,
    /// Pages moved from buddy lists into the color matrix.
    pub pages_moved: u64,
    /// Page faults served.
    pub page_faults: u64,
    /// Colored allocations that failed (no page of the color left).
    pub color_enomem: u64,
    /// Pages migrated by [`Kernel::recolor_task`].
    pub pages_migrated: u64,
    /// Total fault cycles charged to tasks.
    pub fault_cycles: u64,
    /// Colored allocations served from a *borrowed* bank/LLC color under
    /// [`ExhaustionPolicy::NearestColor`].
    pub off_color_allocs: u64,
    /// Colored allocations served uncolored under
    /// [`ExhaustionPolicy::LocalUncolored`].
    pub exhaustion_fallbacks: u64,
    /// Faults injected by the armed [`FaultPlan`] (0 when injection is off).
    pub injected_faults: u64,
    /// Tasks destroyed by [`Kernel::oom_kill`].
    pub oom_kills: u64,
    /// Admissions deferred or dropped by a scheduler's watermark gate
    /// (reported via [`Kernel::note_admission_reject`]).
    pub admission_rejects: u64,
    /// Allocation attempts retried after a transient `EAGAIN` (reported via
    /// [`Kernel::note_alloc_retry`]).
    pub alloc_retries: u64,
}

/// What a page fault returned: the frame plus the cycles the kernel charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocOutcome {
    /// The frame that now backs the page.
    pub frame: FrameNumber,
    /// Kernel cycles charged to the faulting task.
    pub cycles: u64,
    /// Pool the frame was taken from — recorded in the PTE so reclamation
    /// routes by where the frame *came from*, not by the task's current
    /// coloring flags (which may have changed, or never matched: an
    /// exhaustion fallback serves buddy pages to colored tasks).
    pub source: FrameSource,
}

/// Result of an address translation that may have faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub phys: PhysAddr,
    /// Fault cost if this access took a page fault (first touch).
    pub fault_cycles: u64,
}

/// The simulated kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    mapping: AddressMapping,
    topology: Topology,
    buddy: BuddyAllocator,
    colors: ColorMatrix,
    tasks: TaskTable,
    /// Address spaces; threads created with [`Kernel::create_thread`] share
    /// their group leader's entry (CLONE_VM).
    vms: Vec<AddressSpace>,
    /// `sharers[vm]`: live tasks using address space `vm` — 1 at
    /// `create_task`, +1 per `create_thread`, −1 per `destroy_task`, which
    /// tears the space down at 0. Redundant with the task table
    /// ([`Kernel::check_invariants`] recounts it) so that an exit learns
    /// whether it was the last sharer in O(1).
    sharers: Vec<u32>,
    next_tid: u64,
    costs: KernelCosts,
    stats: KernelStats,
    /// Bumped whenever an existing virtual→physical translation of a space
    /// that lives on is destroyed or changed (`munmap`, recolor migration).
    /// Software TLBs above the kernel ([`tintmalloc::System`]) compare this
    /// against their snapshot and flush on mismatch — installing a *new*
    /// translation never bumps it, so fault-heavy phases keep their TLB
    /// warm. Tearing a whole space down at the last sharer's exit does not
    /// bump it either: `VmId`s are never reissued, so once the cache above
    /// has dropped the dead tasks, no lookup can present the dead space's
    /// key again.
    translation_epoch: u64,
    /// Armed fault-injection state; `None` (the default) costs one branch
    /// per injection site and keeps behaviour bit-identical to a kernel
    /// without the feature.
    fault: Option<FaultInjector>,
    /// Frames allocated but deliberately not tracked by any structure the
    /// invariant checker walks: boot-noise pages (permanently consumed) and
    /// outstanding [`Kernel::alloc_pages_raw`] blocks. Balances the
    /// whole-memory accounting in [`Kernel::check_invariants`].
    untracked_pages: u64,
    /// Free-frame watermarks backing [`Kernel::mem_pressure`].
    watermarks: Watermarks,
    /// Boot-time placement masks for the uncolored paths.
    node_masks: NodeMasks,
    /// Reverse map: frame number → packed `(vm, page)` of the translation
    /// it backs, or [`RMAP_NONE`]. Maintained on every install/remap/
    /// release, it gives [`Kernel::audit_step`] an O(1) "who owns this
    /// frame" answer — genuine redundancy against the page tables, which is
    /// what makes the incremental audit able to *catch* drift rather than
    /// re-derive it. Allocated zeroed ([`RMAP_NONE`] is 0), so the host
    /// commits only the pages of it that a fault has written.
    rmap: Vec<u64>,
    /// Pages currently resident across all address spaces (PTE count).
    /// Redundant with walking every VM; kept incrementally so the auditor's
    /// whole-memory conservation check is O(tasks), not O(frames).
    resident_pages: u64,
    /// Frames held in the live tasks' pcp batches: raised by `refill_pcp`,
    /// lowered by the two pcp pops and by `destroy_task`'s drain. Redundant
    /// with the task table ([`Kernel::check_invariants`] recounts it) so
    /// that [`Kernel::audit_step`] walks the tasks only when some batch
    /// holds a frame.
    pcp_frames: u64,
}

/// [`Kernel::rmap`] sentinel: the frame backs no translation. Zero, so a
/// fresh rmap is a zeroed allocation; entries store `vm + 1` to keep every
/// real translation, `(0, 0)` included, nonzero.
const RMAP_NONE: u64 = 0;

/// Bits of the packed rmap entry reserved for the page number.
const RMAP_PAGE_BITS: u32 = 44;

/// A deliberate inconsistency, seeded by [`Kernel::corrupt`] so negative
/// tests can prove each detection path of [`Kernel::check_invariants`] and
/// [`Kernel::audit_step`] fires. Every variant except
/// [`Corruption::ResidentCounter`] and [`Corruption::PcpFrames`] keeps the
/// frame-conservation counters balanced, so only the per-frame checks can
/// catch it; [`Corruption::Sharers`] touches no frame, and only
/// [`Kernel::check_invariants`] catches it.
#[cfg(any(test, feature = "test-hooks"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Park the frame in its color list as well, leaking the front page of
    /// the first non-empty list to keep the page count (panics when no
    /// page is parked).
    ParkInColors(FrameNumber),
    /// Batch the frame in the task's pcp list as well, leaking the batch's
    /// last frame to keep the count (panics when the batch is empty).
    BatchInPcp(Tid, FrameNumber),
    /// Overwrite the frame's rmap entry with `(vm, page)`.
    Rmap(FrameNumber, VmId, PageNumber),
    /// Erase the frame's rmap entry.
    ClearRmap(FrameNumber),
    /// Count one resident page fewer than the page tables hold.
    ResidentCounter,
    /// Set the frame's color-membership bit without listing the frame.
    ParkedBit(FrameNumber),
    /// Count one sharer more than the address space has live tasks.
    Sharers(VmId),
    /// Count one batched frame more than the pcp batches hold.
    PcpFrames,
}

/// [`TaskTable::slot`] entry of a tid that is not live.
const NO_SLOT: u32 = u32::MAX;

/// The live tasks, packed densely, plus a `tid → slot` index.
///
/// Tids are issued sequentially and never reused (like [`VmId`]s), so the
/// index is a vector indexed by tid rather than a hash map, and an exit
/// swap-removes its task from `live`. Every whole-table walk — the exit
/// path's sharer and colored-task scans, the OOM victim pick, the pcp sums
/// of the invariant checks — then scans a contiguous slice whose length is
/// the live count, not the table's high-water capacity. Walk order is
/// unspecified; no caller depends on it (the victim pick is a max over
/// unique `(footprint, tid)` keys).
#[derive(Debug, Clone, Default)]
struct TaskTable {
    live: Vec<TaskStruct>,
    /// `slot[tid]`: index of the task in `live`, or [`NO_SLOT`].
    slot: Vec<u32>,
}

impl TaskTable {
    fn insert(&mut self, task: TaskStruct) {
        let tid = task.tid.0 as usize;
        if tid >= self.slot.len() {
            self.slot.resize(tid + 1, NO_SLOT);
        }
        debug_assert_eq!(self.slot[tid], NO_SLOT, "tid {tid} issued twice");
        self.slot[tid] = u32::try_from(self.live.len()).expect("task table overflow");
        self.live.push(task);
    }

    fn slot_of(&self, tid: Tid) -> Option<usize> {
        let slot = *self.slot.get(tid.0 as usize)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    fn get(&self, tid: Tid) -> Option<&TaskStruct> {
        self.slot_of(tid).map(|s| &self.live[s])
    }

    fn get_mut(&mut self, tid: Tid) -> Option<&mut TaskStruct> {
        self.slot_of(tid).map(|s| &mut self.live[s])
    }

    fn remove(&mut self, tid: Tid) -> Option<TaskStruct> {
        let slot = self.slot_of(tid)?;
        self.slot[tid.0 as usize] = NO_SLOT;
        let task = self.live.swap_remove(slot);
        if let Some(moved) = self.live.get(slot) {
            self.slot[moved.tid.0 as usize] = slot as u32;
        }
        Some(task)
    }

    fn iter(&self) -> std::slice::Iter<'_, TaskStruct> {
        self.live.iter()
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// Placement masks fixed at boot: every frame, and every frame of each
/// node — the queries of the legacy, first-touch and local-uncolored paths.
#[derive(Debug, Clone)]
struct NodeMasks {
    any: FrameMask,
    node: Vec<FrameMask>,
}

impl NodeMasks {
    fn new(decoder: &FrameDecoder, nodes: usize) -> Self {
        Self {
            any: decoder.mask(|_| true),
            node: (0..nodes)
                .map(|n| decoder.mask(|i| i.node as usize == n))
                .collect(),
        }
    }

    fn of(&self, node: NodeId) -> &FrameMask {
        &self.node[node.index()]
    }
}

impl Kernel {
    /// Boot with a known mapping (tests, presets).
    pub fn new(mapping: AddressMapping, topology: Topology, costs: KernelCosts) -> Self {
        assert_eq!(
            mapping.node_count(),
            topology.node_count(),
            "mapping and topology disagree on node count"
        );
        let colors = ColorMatrix::new(mapping);
        Self {
            buddy: BuddyAllocator::new(mapping.frame_count()),
            node_masks: NodeMasks::new(colors.decoder(), mapping.node_count()),
            colors,
            tasks: TaskTable::default(),
            vms: Vec::new(),
            sharers: Vec::new(),
            next_tid: 1,
            topology,
            costs,
            stats: KernelStats::default(),
            translation_epoch: 0,
            fault: None,
            untracked_pages: 0,
            watermarks: Watermarks::for_frames(mapping.frame_count()),
            rmap: vec![RMAP_NONE; mapping.frame_count() as usize],
            resident_pages: 0,
            pcp_frames: 0,
            mapping,
        }
    }

    /// Boot the way the paper does (§III.A): derive the mapping from the
    /// PCI configuration space "in the late phase of booting Linux".
    pub fn boot_from_pci(
        pci: &PciConfigSpace,
        topology: Topology,
        costs: KernelCosts,
    ) -> Result<Self, tint_hw::pci::PciError> {
        Ok(Self::new(derive_mapping(pci)?, topology, costs))
    }

    /// The address mapping in force.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Allocation-path counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The buddy allocator (inspection).
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// The color matrix (inspection).
    pub fn color_lists(&self) -> &ColorMatrix {
        &self.colors
    }

    /// An address space (inspection).
    pub fn vm(&self, id: VmId) -> &AddressSpace {
        &self.vms[id.0]
    }

    /// Current translation epoch. Any cached virtual→physical translation
    /// obtained at an older epoch may be stale and must be dropped. A space
    /// torn down by [`Kernel::destroy_task`] does not advance it: a cache
    /// keyed by [`VmId`] must instead stop serving the dead tids, whose
    /// space is never reissued.
    pub fn translation_epoch(&self) -> u64 {
        self.translation_epoch
    }

    /// Simulate pre-existing system activity: permanently consume `pages`
    /// order-0 pages from the buddy allocator. Gives the "10 repetitions"
    /// of the paper's experiments distinct physical layouts per seed.
    pub fn consume_boot_noise(&mut self, pages: u64) {
        for _ in 0..pages {
            if self.buddy.alloc(0).is_some() {
                self.untracked_pages += 1;
            }
        }
    }

    /// Arm (or with `None` disarm) deterministic fault injection. With no
    /// plan armed every injection site is a single never-taken branch.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan.map(FaultInjector::new);
    }

    /// The armed fault injector, if any (per-site injection counters).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Should the operation at `site` fail now? One branch when no plan is
    /// armed.
    #[inline]
    fn inject(fault: &mut Option<FaultInjector>, stats: &mut KernelStats, site: FaultSite) -> bool {
        let Some(inj) = fault else { return false };
        if inj.should_fail(site) {
            stats.injected_faults += 1;
            true
        } else {
            false
        }
    }

    /// Whole-kernel consistency check, hard-asserted by the churn and soak
    /// harnesses and the fuzzer. Panics with a description on violation.
    ///
    /// Verified invariants:
    /// * the buddy allocator's and color matrix's own structural invariants
    ///   (the color-membership index included);
    /// * every physical frame is owned by **exactly one** of: a buddy free
    ///   list, a color list, a page table, or a task's pcp batch;
    /// * every resident page lies inside a VMA of its address space;
    /// * the frames owned by none of those structures are exactly the
    ///   untracked pool (boot noise + outstanding raw blocks);
    /// * the reverse map is the exact inverse of the page tables;
    /// * each address space's sharer count is the number of live tasks
    ///   naming it, and the batched-frame count is the number of frames in
    ///   the live tasks' pcp batches.
    ///
    /// Frames are claimed into one bit per frame, 64 to a word: free blocks
    /// a word (or a run within one) at a time, parked frames straight from
    /// the color matrix's membership words, batched frames one bit each. The
    /// reverse map is checked from the PTE side (each resident page's entry
    /// points back at it, which also makes the mapped frames distinct, so
    /// they are only tested against the mask) and then by a branch-free
    /// count of its non-empty entries, which must equal the PTEs walked.
    ///
    /// Measured cost on the `tenant-churn` machine (16 384 frames, ~1 100
    /// live tasks, ~8 700 resident pages): ~110 µs a call, about 70 % of
    /// it the PTE walk, against ~145 µs for the per-frame form
    /// (`Kernel::check_invariants_reference` keeps it); EXPERIMENTS.md,
    /// "Integrity checks at word speed". The mask is 512 KiB on the
    /// Opteron preset.
    pub fn check_invariants(&self) {
        self.buddy.check_invariants();
        self.colors.check_invariants();
        let total = self.mapping.frame_count();
        let mut owned = vec![0u64; total.div_ceil(64) as usize];
        // Free blocks never overlap (the buddy check above): a block of 64
        // or more frames fills whole words, a smaller one a run of bits.
        for order in 0..=MAX_ORDER {
            let size = 1u64 << order;
            for start in self.buddy.blocks(order) {
                let w = (start.0 / 64) as usize;
                if size >= 64 {
                    owned[w..w + (size / 64) as usize].fill(u64::MAX);
                } else {
                    owned[w] |= ((1u64 << size) - 1) << (start.0 % 64);
                }
            }
        }
        // The membership words are exactly the listed frames: the color
        // matrix's check proves every listed frame has its bit and the bits
        // number the listed pages.
        for (w, word) in owned.iter_mut().enumerate() {
            let parked = self.colors.member_word(w as u64);
            if *word & parked != 0 {
                let bit = (*word & parked).trailing_zeros() as u64;
                panic!(
                    "frame {} claimed twice (now color list)",
                    w as u64 * 64 + bit
                );
            }
            *word |= parked;
        }
        let held = |f: FrameNumber| owned[(f.0 / 64) as usize] >> (f.0 % 64) & 1 == 1;
        // The reverse map must be the inverse of the page tables. From the
        // PTE side, one array load each: every resident page's frame maps
        // back to exactly that page. That also makes the mapped frames
        // distinct (one entry cannot point back at two pages), so each needs
        // only a test against the free and parked frames, not a claim.
        let mut ptes = 0u64;
        for (vm_index, vm) in self.vms.iter().enumerate() {
            for (p, f) in vm.resident() {
                assert!(
                    vm.vma_of(p).is_some(),
                    "resident page {p:?} outside any VMA"
                );
                assert!(!held(f), "frame {f} claimed twice (now page table)");
                let entry = self.rmap[f.0 as usize];
                assert_ne!(
                    entry, RMAP_NONE,
                    "frame {f} is page-table-owned but has no rmap entry"
                );
                let (rvm, rpage) = Self::rmap_unpack(entry);
                assert!(
                    (rvm, rpage) == (vm_index, p.0),
                    "rmap of frame {f} points at vm {rvm} page {rpage}, \
                     but vm {vm_index} page {} maps it",
                    p.0
                );
                ptes += 1;
            }
        }
        // From the rmap side: the walk found a distinct frame for each PTE,
        // each with an entry pointing back at it, so the rmap is the inverse
        // of the page tables exactly when it holds no other entry — when its
        // population equals the PTEs walked. Only a mismatch pays for the
        // per-frame scan, to name the stray entry.
        let rmapped = self
            .rmap
            .iter()
            .map(|&e| (e != RMAP_NONE) as u64)
            .sum::<u64>();
        if rmapped != ptes {
            for (fno, &entry) in self.rmap.iter().enumerate() {
                if entry == RMAP_NONE {
                    continue;
                }
                let (vm, page) = Self::rmap_unpack(entry);
                let pte = self.vms.get(vm).and_then(|v| v.pte(PageNumber(page)));
                assert!(
                    pte.is_some_and(|p| p.frame.0 == fno as u64),
                    "frame {fno} rmapped but not page-table-owned"
                );
            }
            panic!("rmap holds {rmapped} entries for {ptes} page-table entries");
        }
        assert_eq!(
            rmapped, self.resident_pages,
            "resident-page counter drifted from the rmap population"
        );
        // With the rmap proven exact, a frame is mapped iff its entry is
        // set: batched frames are claimed against that and the mask.
        let mut sharers = vec![0u32; self.vms.len()];
        let mut batched = 0u64;
        for t in self.tasks.iter() {
            sharers[t.vm.0] += 1;
            batched += t.pcp.len() as u64;
            for &f in &t.pcp {
                let (w, bit) = ((f.0 / 64) as usize, 1u64 << (f.0 % 64));
                assert!(
                    owned[w] & bit == 0 && self.rmap[f.0 as usize] == RMAP_NONE,
                    "frame {f} claimed twice (now pcp batch)"
                );
                owned[w] |= bit;
            }
        }
        assert!(
            sharers == self.sharers,
            "per-space sharer counts drifted from the task table"
        );
        assert_eq!(
            batched, self.pcp_frames,
            "batched-frame count drifted from the pcp batches"
        );
        // The four pools are pairwise disjoint, so the frames they own are
        // the sum of their sizes.
        assert_eq!(
            self.buddy.free_pages() + self.colors.pages() + ptes + batched + self.untracked_pages,
            total,
            "frame accounting drifted (untracked: {})",
            self.untracked_pages
        );
        self.check_post_exit_baseline();
    }

    /// Post-exit baseline: once every task is gone there is nothing to hold
    /// pages — the color matrix must have drained and the buddy allocator
    /// must own every tracked frame again (zero leaked frames, zero pool
    /// skew, regardless of the churn that came before).
    fn check_post_exit_baseline(&self) {
        if self.tasks.is_empty() {
            assert_eq!(
                self.colors.pages(),
                0,
                "no tasks left but the color matrix still parks pages"
            );
            assert_eq!(
                self.buddy.free_pages() + self.untracked_pages,
                self.mapping.frame_count(),
                "post-exit buddy population below the post-boot baseline"
            );
        }
    }

    /// The per-frame form of [`Kernel::check_invariants`]: the same
    /// invariants, checked with a byte of owner kind per frame, each listed
    /// color-list frame claimed from the lists, and every rmap entry looked
    /// up in that byte array. Kept as the oracle the word-at-a-time check
    /// is tested against; O(frames) and 1 byte per frame.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn check_invariants_reference(&self) {
        self.buddy.check_invariants();
        self.colors.check_invariants();
        let mut owner = vec![0u8; self.mapping.frame_count() as usize];
        let mut claimed = 0u64;
        let mut claim = |frames: std::ops::Range<u64>, code: u8, what: &str| {
            let slots = &mut owner[frames.start as usize..frames.end as usize];
            if let Some(i) = slots.iter().position(|&c| c != 0) {
                panic!(
                    "frame {} claimed twice (now {what})",
                    frames.start + i as u64
                );
            }
            slots.fill(code);
            claimed += frames.end - frames.start;
        };
        for order in 0..=MAX_ORDER {
            for start in self.buddy.blocks(order) {
                claim(start.0..start.0 + (1 << order), 1, "buddy free list");
            }
        }
        for f in self.colors.iter_frames() {
            claim(f.0..f.0 + 1, 2, "color list");
        }
        // The reverse map must be the inverse of the page tables. From the
        // PTE side, one array load each: every resident page's frame maps
        // back to exactly that page.
        for (vm_index, vm) in self.vms.iter().enumerate() {
            for (p, f) in vm.resident() {
                assert!(
                    vm.vma_of(p).is_some(),
                    "resident page {p:?} outside any VMA"
                );
                claim(f.0..f.0 + 1, 3, "page table");
                let entry = self.rmap[f.0 as usize];
                assert_ne!(
                    entry, RMAP_NONE,
                    "frame {f} is page-table-owned but has no rmap entry"
                );
                let (rvm, rpage) = Self::rmap_unpack(entry);
                assert!(
                    (rvm, rpage) == (vm_index, p.0),
                    "rmap of frame {f} points at vm {rvm} page {rpage}, \
                     but vm {vm_index} page {} maps it",
                    p.0
                );
            }
        }
        let mut sharers = vec![0u32; self.vms.len()];
        let mut batched = 0u64;
        for t in self.tasks.iter() {
            sharers[t.vm.0] += 1;
            batched += t.pcp.len() as u64;
            for &f in &t.pcp {
                claim(f.0..f.0 + 1, 4, "pcp batch");
            }
        }
        assert!(
            sharers == self.sharers,
            "per-space sharer counts drifted from the task table"
        );
        assert_eq!(
            batched, self.pcp_frames,
            "batched-frame count drifted from the pcp batches"
        );
        assert_eq!(
            claimed + self.untracked_pages,
            self.mapping.frame_count(),
            "frame accounting drifted (untracked: {})",
            self.untracked_pages
        );
        // From the rmap side: an entry on nothing but page-table-owned
        // frames, and exactly as many entries as resident pages. With the
        // PTE-side check (and no frame claimed twice) this makes the rmap
        // and the page tables a bijection.
        let mut rmapped = 0u64;
        for (fno, &entry) in self.rmap.iter().enumerate() {
            if entry != RMAP_NONE {
                rmapped += 1;
                assert_eq!(
                    owner[fno], 3,
                    "frame {fno} rmapped but not page-table-owned"
                );
            }
        }
        assert_eq!(
            rmapped, self.resident_pages,
            "resident-page counter drifted from the rmap population"
        );
        self.check_post_exit_baseline();
    }

    /// Free-pool populations, `(buddy_free_pages, color_list_pages)` — the
    /// snapshot churn harnesses compare before/after task lifecycles.
    pub fn pool_snapshot(&self) -> (u64, u64) {
        (self.buddy.free_pages(), self.colors.pages())
    }

    // ------------------------------------------------------------------
    // Memory pressure
    // ------------------------------------------------------------------

    /// The watermarks in force.
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Replace the watermarks (harness knobs; defaults come from
    /// [`Watermarks::for_frames`] at boot).
    pub fn set_watermarks(&mut self, w: Watermarks) {
        assert!(w.min <= w.low, "min watermark above low watermark");
        self.watermarks = w;
    }

    /// Total allocatable frames: buddy free pages plus pages parked in the
    /// color lists.
    pub fn free_frames(&self) -> u64 {
        self.buddy.free_pages() + self.colors.pages()
    }

    /// The current pressure signal, from [`Kernel::free_frames`] against
    /// the watermarks. O(1).
    pub fn mem_pressure(&self) -> MemPressure {
        let free = self.free_frames();
        if free <= self.watermarks.min {
            MemPressure::Critical
        } else if free <= self.watermarks.low {
            MemPressure::Low
        } else {
            MemPressure::Normal
        }
    }

    /// Live task count (OOM candidates).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The OOM killer: pick a victim under `policy` (deterministic — equal
    /// kernel states pick equal victims), destroy it through the ordinary
    /// provenance-routed [`Kernel::destroy_task`] path, and report what was
    /// reclaimed. `ESRCH` when no task is left to kill.
    pub fn oom_kill(&mut self, policy: VictimPolicy) -> Result<OomKill, Errno> {
        let victim = match policy {
            VictimPolicy::LargestFootprint => self
                .tasks
                .iter()
                .map(|t| {
                    let footprint = (self.vms[t.vm.0].resident_pages() + t.pcp_pages()) as u64;
                    (footprint, t.tid.0)
                })
                // Ties by *youngest* (largest tid): kill the newcomer.
                .max()
                .map(|(_, tid)| Tid(tid)),
            VictimPolicy::Youngest => self.tasks.iter().map(|t| t.tid).max(),
        }
        .ok_or(Errno::Esrch)?;
        let before = self.free_frames();
        self.destroy_task(victim)?;
        self.stats.oom_kills += 1;
        Ok(OomKill {
            victim,
            frames_reclaimed: self.free_frames() - before,
        })
    }

    /// Record that a scheduler deferred or dropped an admission because of
    /// memory pressure. The gate lives in the scheduler (it owns arrival
    /// time); the counter lives here so every harness shares one ledger.
    pub fn note_admission_reject(&mut self) {
        self.stats.admission_rejects += 1;
    }

    /// Record that a caller retried an allocation after a transient
    /// `EAGAIN`.
    pub fn note_alloc_retry(&mut self) {
        self.stats.alloc_retries += 1;
    }

    /// One bounded slice of the invariant audit: examine up to `frames`
    /// physical frames starting at `cursor`, plus a whole-memory
    /// conservation check over the live tasks. Returns the number of frames
    /// examined and advances (wrapping) the cursor, so a scheduler can keep
    /// auditing *continuously* during simulated-hours runs at a bounded
    /// per-quantum cost instead of stop-the-world
    /// [`Kernel::check_invariants`] sweeps.
    ///
    /// Per frame, exactly one of these may own it: a buddy free list, a
    /// color list, a translation (checked *both ways* through the reverse
    /// map and the page table it claims), or a task's pcp batch. The window
    /// is audited 64 frames at a time: one owner bitmask per kind (a range
    /// query per buddy order, a color-membership word, the rmap entries,
    /// the window's pcp frames), and any pairwise overlap is a frame with
    /// two owners. Cost: O(window × orders / 64) ordered-set queries, one
    /// page-table probe per mapped frame, and — only when the batched-frame
    /// count is non-zero — one walk of the live tasks' pcp batches. On the
    /// soak machine (2 048 frames, 256-frame slices, colored tenants that
    /// hold no batch) a slice measured ~2.4 µs, against ~6.6 µs when the
    /// conservation sum and the pcp gather each walked every live task
    /// (EXPERIMENTS.md, "Integrity checks at word speed"). Panics with a
    /// description on any violation.
    pub fn audit_step(&self, cursor: &mut AuditCursor, frames: u64) -> u64 {
        let total = self.mapping.frame_count();
        // Conservation first: every frame is free, resident, batched, or
        // deliberately untracked.
        let pcp_total = self.pcp_frames;
        assert_eq!(
            self.buddy.free_pages()
                + self.colors.pages()
                + self.resident_pages
                + pcp_total
                + self.untracked_pages,
            total,
            "frame conservation drifted (free {} + colors {} + resident {} + pcp {} + untracked {})",
            self.buddy.free_pages(),
            self.colors.pages(),
            self.resident_pages,
            pcp_total,
            self.untracked_pages
        );
        let budget = frames.min(total);
        let start = cursor.next % total;
        // The window's pcp frames as offsets from `start`, ascending; a
        // frame batched twice appears twice. The batched-frame count says
        // whether any task holds one: colored tenants never do.
        let mut batched: Vec<u64> = Vec::new();
        if pcp_total > 0 {
            for f in self.tasks.iter().flat_map(|t| &t.pcp) {
                let off = if f.0 >= start {
                    f.0 - start
                } else {
                    f.0 + total - start
                };
                if off < budget {
                    batched.push(off);
                }
            }
        }
        batched.sort_unstable();
        let mut batched = batched.as_slice();
        let mut done = 0u64;
        while done < budget {
            let mut f = start + done;
            if f >= total {
                f -= total;
            }
            // Bits lo..hi of the 64-frame word at `base`.
            let base = f & !63;
            let lo = f - base;
            let hi = (lo + budget - done).min(64).min(total - base);
            let window = (u64::MAX >> (64 - hi)) & (u64::MAX << lo);
            let free = self.buddy.free_word(base) & window;
            let parked = self.colors.member_word(base / 64) & window;
            let mut mapped = 0u64;
            for bit in lo..hi {
                let fno = base + bit;
                let entry = self.rmap[fno as usize];
                if entry == RMAP_NONE {
                    continue;
                }
                mapped |= 1 << bit;
                let f = FrameNumber(fno);
                let (vm, page) = Self::rmap_unpack(entry);
                let pte = self.vms[vm].pte(PageNumber(page));
                assert_eq!(
                    pte.map(|p| p.frame),
                    Some(f),
                    "audit: rmap says frame {f} backs vm {vm} page {page}, page table disagrees"
                );
            }
            let word_end = done + (hi - lo);
            let in_word = batched.partition_point(|&off| off < word_end);
            let (mut pcp, mut pcp_twice) = (0u64, 0u64);
            for &off in &batched[..in_word] {
                let bit = 1u64 << (lo + off - done);
                pcp_twice |= pcp & bit;
                pcp |= bit;
            }
            let claimed_twice = (free & (parked | mapped | pcp))
                | (parked & (mapped | pcp))
                | (mapped & pcp)
                | pcp_twice;
            if claimed_twice != 0 {
                let bit = claimed_twice.trailing_zeros() as u64;
                let off = done + bit - lo;
                let owners = [free, parked, mapped]
                    .iter()
                    .map(|m| m >> bit & 1)
                    .sum::<u64>()
                    + batched[..in_word].iter().filter(|&&o| o == off).count() as u64;
                panic!(
                    "audit: frame {} claimed by {owners} owners",
                    FrameNumber(base + bit)
                );
            }
            batched = &batched[in_word..];
            done = word_end;
        }
        cursor.next = start + budget;
        if cursor.next >= total {
            cursor.next -= total;
        }
        budget
    }

    /// Pack an rmap entry: `vm + 1` in the high bits, so no translation
    /// packs to [`RMAP_NONE`].
    fn rmap_pack(vm: usize, page: u64) -> u64 {
        assert!(page < 1 << RMAP_PAGE_BITS, "page number beyond rmap range");
        assert!(
            (vm as u64) < (1 << (64 - RMAP_PAGE_BITS)) - 1,
            "vm index beyond rmap range"
        );
        ((vm as u64 + 1) << RMAP_PAGE_BITS) | page
    }

    /// Unpack a non-[`RMAP_NONE`] entry into `(vm index, page number)`.
    fn rmap_unpack(entry: u64) -> (usize, u64) {
        debug_assert_ne!(entry, RMAP_NONE, "unpacking an empty rmap entry");
        (
            (entry >> RMAP_PAGE_BITS) as usize - 1,
            entry & ((1 << RMAP_PAGE_BITS) - 1),
        )
    }

    /// Record that `frame` now backs `page` of `vm`.
    fn rmap_set(&mut self, frame: FrameNumber, vm: usize, page: u64) {
        let slot = &mut self.rmap[frame.0 as usize];
        debug_assert_eq!(*slot, RMAP_NONE, "frame {frame} rmapped twice");
        *slot = Self::rmap_pack(vm, page);
    }

    /// Record that `frame` no longer backs any translation.
    fn rmap_clear(&mut self, frame: FrameNumber) {
        debug_assert_ne!(
            self.rmap[frame.0 as usize], RMAP_NONE,
            "frame {frame} rmap-cleared while unmapped"
        );
        self.rmap[frame.0 as usize] = RMAP_NONE;
    }

    /// Seed `c` behind the kernel's back (negative tests only).
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn corrupt(&mut self, c: Corruption) {
        match c {
            Corruption::ParkInColors(f) => {
                let banks = self.mapping.bank_color_count() as u16;
                (0..banks)
                    .find_map(|b| self.colors.pop_bank(BankColor(b), 0))
                    .expect("a parked page to leak");
                self.colors.push(f);
            }
            Corruption::BatchInPcp(tid, f) => {
                let pcp = &mut self.task_mut(tid).expect("a live task").pcp;
                pcp.pop_back().expect("a batched frame to leak");
                pcp.push_back(f);
            }
            Corruption::Rmap(f, vm, page) => {
                self.rmap[f.0 as usize] = Self::rmap_pack(vm.0, page.0)
            }
            Corruption::ClearRmap(f) => self.rmap[f.0 as usize] = RMAP_NONE,
            Corruption::ResidentCounter => self.resident_pages -= 1,
            Corruption::ParkedBit(f) => self.colors.corrupt_member_bit(f),
            Corruption::Sharers(vm) => self.sharers[vm.0] += 1,
            Corruption::PcpFrames => self.pcp_frames += 1,
        }
    }

    // ------------------------------------------------------------------
    // Tasks
    // ------------------------------------------------------------------

    /// Create a task pinned to `core` with a fresh address space (a new
    /// process / OpenMP group leader).
    pub fn create_task(&mut self, core: CoreId) -> Tid {
        assert!(core.index() < self.topology.core_count(), "no such core");
        let vm = VmId(self.vms.len());
        self.vms.push(AddressSpace::new());
        self.sharers.push(1);
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        self.tasks.insert(TaskStruct::new(tid, core, vm));
        tid
    }

    /// Create a thread pinned to `core` sharing `leader`'s address space
    /// (CLONE_VM) — the OpenMP team model. The new thread inherits the
    /// leader's color sets and policies (like a forked `task_struct` copy);
    /// colors remain per-thread in the TCB afterwards, so the
    /// *first-touching* thread's colors place each page.
    pub fn create_thread(&mut self, core: CoreId, leader: Tid) -> Result<Tid, Errno> {
        assert!(core.index() < self.topology.core_count(), "no such core");
        let vm = self.task(leader)?.vm;
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        let mut t = TaskStruct::new(tid, core, vm);
        t.inherit_from(self.task(leader)?);
        self.tasks.insert(t);
        self.sharers[vm.0] += 1;
        Ok(tid)
    }

    /// The `exit()` system call: destroy `tid` and reclaim everything it
    /// exclusively owned.
    pub fn sys_exit(&mut self, tid: Tid) -> Result<(), Errno> {
        self.destroy_task(tid)
    }

    /// Tear a task down: remove its TCB, drain its pcp batch back to the
    /// buddy allocator in one [`BuddyAllocator::free_frames`] batch and —
    /// when it was the last CLONE_VM sharer, which a per-space sharer count
    /// answers in O(1) — tear its address space down, returning every frame
    /// to the pool recorded in its PTE. The teardown does not bump the
    /// translation epoch (see [`Kernel::translation_epoch`]). When the last
    /// *colored* task leaves, the color matrix is nothing but a cache of
    /// free pages, so it drains back to the buddy allocator in one batch:
    /// after arbitrary churn the free-pool populations return to their
    /// post-boot baseline (zero leaked frames, zero pool skew). The cost is
    /// O(what the task owned), plus one walk of the live tasks for the
    /// colored-task test.
    pub fn destroy_task(&mut self, tid: Tid) -> Result<(), Errno> {
        let task = self.tasks.remove(tid).ok_or(Errno::Esrch)?;
        self.pcp_frames -= task.pcp.len() as u64;
        self.buddy.free_frames(Vec::from(task.pcp));
        let vm = task.vm;
        self.sharers[vm.0] -= 1;
        if self.sharers[vm.0] == 0 {
            // No epoch bump: `VmId`s are never reissued, so no live task can
            // name the dead space again and caches above need not flush.
            let ptes = self.vms[vm.0].teardown();
            self.resident_pages -= ptes.len() as u64;
            for pte in ptes {
                self.rmap_clear(pte.frame);
                self.release_frame(pte.frame, pte.source);
            }
        }
        if !self.tasks.iter().any(|t| t.coloring_active()) {
            self.buddy.free_frames(self.colors.drain_all());
        }
        Ok(())
    }

    /// Immutable task access.
    pub fn task(&self, tid: Tid) -> Result<&TaskStruct, Errno> {
        self.tasks.get(tid).ok_or(Errno::Esrch)
    }

    /// Mutable task access.
    pub fn task_mut(&mut self, tid: Tid) -> Result<&mut TaskStruct, Errno> {
        self.tasks.get_mut(tid).ok_or(Errno::Esrch)
    }

    /// Set the base policy used when no colors are active.
    pub fn set_policy(&mut self, tid: Tid, policy: HeapPolicy) -> Result<(), Errno> {
        self.task_mut(tid)?.policy = policy;
        Ok(())
    }

    /// Set what a colored allocation does when its color supply runs dry.
    pub fn set_exhaustion_policy(
        &mut self,
        tid: Tid,
        policy: ExhaustionPolicy,
    ) -> Result<(), Errno> {
        self.task_mut(tid)?.exhaustion = policy;
        Ok(())
    }

    // ------------------------------------------------------------------
    // System calls
    // ------------------------------------------------------------------

    /// The `mmap()` system call. Color protocol (zero length + bit 30 in
    /// `prot`) or ordinary anonymous mapping of `length` bytes.
    pub fn sys_mmap(
        &mut self,
        tid: Tid,
        addr_arg: u64,
        length: u64,
        prot: u64,
    ) -> Result<VirtAddr, Errno> {
        if length == 0 {
            if prot & COLOR_ALLOC == 0 {
                return Err(Errno::Einval);
            }
            let op = self.decode_color_op(addr_arg)?;
            self.task_mut(tid)?.apply(op);
            return Ok(VirtAddr(0));
        }
        let pages = length.div_ceil(PAGE_SIZE);
        let vm = self.task(tid)?.vm;
        if Self::inject(&mut self.fault, &mut self.stats, FaultSite::SysMmap) {
            return Err(Errno::Enomem);
        }
        Ok(self.vms[vm.0].map_region(pages))
    }

    /// The `munmap()` system call: unmap a region and return its frames to
    /// the pool each was allocated from — color-list pages back to their
    /// color lists (the paper: "calls to free heap space ... add pages to
    /// the corresponding colored free lists"), buddy pages back to the
    /// buddy allocator. Routing is by the provenance recorded in each PTE,
    /// never by the task's *current* coloring flags: a `CLEAR_MEM_COLOR`
    /// before unmap, or an exhaustion fallback that served buddy pages to a
    /// colored task, must not drain one pool into the other.
    pub fn sys_munmap(&mut self, tid: Tid, base: VirtAddr, length: u64) -> Result<(), Errno> {
        let pages = length.div_ceil(PAGE_SIZE);
        let vm = self.tasks.get(tid).ok_or(Errno::Esrch)?.vm;
        let ptes = self.vms[vm.0].unmap_region(base, pages)?;
        if !ptes.is_empty() {
            self.translation_epoch += 1;
        }
        self.resident_pages -= ptes.len() as u64;
        for pte in ptes {
            self.rmap_clear(pte.frame);
            self.release_frame(pte.frame, pte.source);
        }
        Ok(())
    }

    /// Return one order-0 frame to the pool it was allocated from.
    fn release_frame(&mut self, frame: FrameNumber, source: FrameSource) {
        match source {
            FrameSource::Colors => self.colors.push(frame),
            FrameSource::Buddy => self.buddy.free(frame, 0),
        }
    }

    fn decode_color_op(&self, addr_arg: u64) -> Result<ColorOp, Errno> {
        let mode = addr_arg & !COLOR_MASK;
        let color = addr_arg & COLOR_MASK;
        match mode {
            SET_MEM_COLOR => {
                if (color as usize) < self.mapping.bank_color_count() {
                    Ok(ColorOp::SetMemColor(BankColor(color as u16)))
                } else {
                    Err(Errno::Einval)
                }
            }
            SET_LLC_COLOR => {
                if (color as usize) < self.mapping.llc_color_count() {
                    Ok(ColorOp::SetLlcColor(LlcColor(color as u16)))
                } else {
                    Err(Errno::Einval)
                }
            }
            CLEAR_MEM_COLOR => Ok(ColorOp::ClearMemColors),
            CLEAR_LLC_COLOR => Ok(ColorOp::ClearLlcColors),
            _ => Err(Errno::Einval),
        }
    }

    // ------------------------------------------------------------------
    // Page faults and translation
    // ------------------------------------------------------------------

    /// Translate `addr` for `tid`, taking a page fault (and allocating a
    /// frame under the task's policy) on first touch.
    pub fn translate(&mut self, tid: Tid, addr: VirtAddr) -> Result<Translation, Errno> {
        let task = self.tasks.get(tid).ok_or(Errno::Esrch)?;
        if let Some(phys) = self.vms[task.vm.0].translate(addr) {
            return Ok(Translation {
                phys,
                fault_cycles: 0,
            });
        }
        let out = self.page_fault(tid, addr.page())?;
        Ok(Translation {
            phys: out.frame.at(addr.page_offset()),
            fault_cycles: out.cycles,
        })
    }

    /// Handle a page fault at `page` for `tid`: allocate a frame under the
    /// faulting task's policy (Algorithm 1 for colored tasks) and install it
    /// into the task's — possibly shared — address space.
    pub fn page_fault(&mut self, tid: Tid, page: PageNumber) -> Result<AllocOutcome, Errno> {
        let task = self.tasks.get_mut(tid).ok_or(Errno::Esrch)?;
        let vm = task.vm;
        if self.vms[vm.0].vma_of(page).is_none() {
            return Err(Errno::Efault);
        }
        if let Some(pte) = self.vms[vm.0].pte(page) {
            // Spurious fault: the page is already resident (e.g. a direct
            // `page_fault` call on a mapped page, or a CLONE_VM teammate won
            // the race). Nothing to allocate or install.
            return Ok(AllocOutcome {
                frame: pte.frame,
                cycles: 0,
                source: pte.source,
            });
        }
        if Self::inject(&mut self.fault, &mut self.stats, FaultSite::PageFault) {
            return Err(Errno::Enomem);
        }
        let out = Self::alloc_pages(
            &self.mapping,
            &self.topology,
            &self.node_masks,
            &mut self.buddy,
            &mut self.colors,
            &mut self.stats,
            &self.costs,
            &mut self.fault,
            &mut self.pcp_frames,
            task,
            0,
        )?;
        if let Err(e) = self.vms[vm.0].install(page, out.frame, out.source) {
            // Unreachable (the VMA was checked above); if it ever regresses,
            // return the frame instead of leaking it and surface the error.
            self.release_frame(out.frame, out.source);
            return Err(e);
        }
        self.rmap_set(out.frame, vm.0, page.0);
        self.resident_pages += 1;
        self.stats.page_faults += 1;
        self.stats.fault_cycles += out.cycles;
        Ok(out)
    }

    /// Allocate a raw `2^order`-page block for `tid` (no page-table
    /// involvement). Exposes Algorithm 1's order gate: order-0 requests from
    /// colored tasks go through the color lists; **orders greater than zero
    /// always default to the standard buddy allocator** ("return page from
    /// normal_buddy_alloc"), exactly as the paper restricts TintMalloc to
    /// order-zero requests (§III.C).
    pub fn alloc_pages_raw(&mut self, tid: Tid, order: u32) -> Result<AllocOutcome, Errno> {
        assert!(order <= MAX_ORDER, "order beyond MAX_ORDER");
        let task = self.tasks.get_mut(tid).ok_or(Errno::Esrch)?;
        let out = Self::alloc_pages(
            &self.mapping,
            &self.topology,
            &self.node_masks,
            &mut self.buddy,
            &mut self.colors,
            &mut self.stats,
            &self.costs,
            &mut self.fault,
            &mut self.pcp_frames,
            task,
            order,
        )?;
        self.untracked_pages += 1 << order;
        Ok(out)
    }

    /// Free a block obtained from [`Kernel::alloc_pages_raw`].
    pub fn free_pages_raw(&mut self, frame: FrameNumber, order: u32) {
        self.buddy.free(frame, order);
        self.untracked_pages = self.untracked_pages.saturating_sub(1 << order);
    }

    /// Dynamic recoloring: migrate every resident page of `tid`'s address
    /// space whose frame violates the task's *current* color constraints to
    /// a conforming frame (an extension of the paper's design, where colors
    /// are fixed at initialization). Old frames return to their color lists;
    /// the caller is charged `page_copy` plus the usual Algorithm-1 cost per
    /// migrated page.
    ///
    /// Returns `(pages_migrated, cycles_charged)`. On color exhaustion the
    /// migration stops early with `ENOMEM`; already-migrated pages keep
    /// their new frames (partial migration, like an interrupted kernel
    /// compaction pass).
    pub fn recolor_task(&mut self, tid: Tid) -> Result<(u64, u64), Errno> {
        self.recolor(tid, None)
    }

    /// Range-scoped recoloring (like `migrate_pages`/`mbind` on a range):
    /// migrate only the resident pages of `[base, base + len)` — the right
    /// tool inside a CLONE_VM team, where whole-space recoloring would drag
    /// teammates' pages onto the caller's colors.
    pub fn recolor_range(
        &mut self,
        tid: Tid,
        base: VirtAddr,
        len: u64,
    ) -> Result<(u64, u64), Errno> {
        self.recolor(tid, Some((base.page(), len.div_ceil(PAGE_SIZE))))
    }

    fn recolor(&mut self, tid: Tid, range: Option<(PageNumber, u64)>) -> Result<(u64, u64), Errno> {
        let task = self.tasks.get(tid).ok_or(Errno::Esrch)?;
        if !task.coloring_active() {
            return Ok((0, 0));
        }
        let vm = task.vm;
        // Collect the violating pages first (cannot mutate while iterating),
        // in page order: the page table iterates in hash order, and each
        // migration pops the next frame off the color lists, so the order
        // decides which page gets which frame.
        let mut violating: Vec<PageNumber> = self.vms[vm.0]
            .resident()
            .filter(|&(p, _)| {
                range.is_none_or(|(start, pages)| p.0 >= start.0 && p.0 < start.0 + pages)
            })
            .filter(|&(_, f)| !Self::info_matches(task, self.colors.decoder().info(f)))
            .map(|(p, _)| p)
            .collect();
        violating.sort_unstable_by_key(|p| p.0);
        let mut cycles = 0u64;
        let mut migrated = 0u64;
        for page in violating {
            let Some(task) = self.tasks.get_mut(tid) else {
                self.stats.pages_migrated += migrated;
                self.stats.fault_cycles += cycles;
                return Err(Errno::Esrch);
            };
            let out = Self::alloc_pages(
                &self.mapping,
                &self.topology,
                &self.node_masks,
                &mut self.buddy,
                &mut self.colors,
                &mut self.stats,
                &self.costs,
                &mut self.fault,
                &mut self.pcp_frames,
                task,
                0,
            );
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    self.stats.pages_migrated += migrated;
                    self.stats.fault_cycles += cycles;
                    return Err(e);
                }
            };
            if Self::inject(&mut self.fault, &mut self.stats, FaultSite::PageCopy) {
                // The copy "failed" after the destination frame was
                // allocated: roll the destination back to its origin pool.
                // The old frame stays mapped, no translation changed, so the
                // epoch is untouched — already-migrated pages keep their new
                // frames, exactly like an interrupted compaction pass.
                self.release_frame(out.frame, out.source);
                self.stats.pages_migrated += migrated;
                self.stats.fault_cycles += cycles;
                return Err(Errno::Enomem);
            }
            let prev = self.vms[vm.0].remap(page, out.frame, out.source);
            self.translation_epoch += 1;
            self.rmap_clear(prev.frame);
            self.rmap_set(out.frame, vm.0, page.0);
            self.release_frame(prev.frame, prev.source);
            cycles += out.cycles + self.costs.page_copy;
            migrated += 1;
        }
        self.stats.pages_migrated += migrated;
        self.stats.fault_cycles += cycles;
        Ok((migrated, cycles))
    }

    // ------------------------------------------------------------------
    // Algorithm 1
    // ------------------------------------------------------------------

    /// Colored page selection (paper Algorithm 1) plus the legacy and
    /// first-touch fallbacks. Associated function to allow split borrows.
    #[allow(clippy::too_many_arguments)]
    fn alloc_pages(
        mapping: &AddressMapping,
        topology: &Topology,
        node_masks: &NodeMasks,
        buddy: &mut BuddyAllocator,
        colors: &mut ColorMatrix,
        stats: &mut KernelStats,
        costs: &KernelCosts,
        fault: &mut Option<FaultInjector>,
        pcp_frames: &mut u64,
        task: &mut TaskStruct,
        order: u32,
    ) -> Result<AllocOutcome, Errno> {
        if order == 0 && task.coloring_active() {
            return Self::colored_alloc(
                mapping, topology, node_masks, buddy, colors, stats, costs, fault, task,
            );
        }
        if order == 0 && task.policy == HeapPolicy::FirstTouch {
            let local = node_masks.of(topology.node_of_core(task.core));
            return Self::first_touch_alloc(buddy, stats, costs, pcp_frames, task, local);
        }
        if order == 0 {
            // Legacy buddy path ("return page from normal_buddy_alloc"),
            // with Linux's per-CPU page batching: a refill reserves a run of
            // contiguous frames so each task's faults stream sequentially.
            if task.pcp.is_empty() {
                Self::refill_pcp(buddy, pcp_frames, task, &node_masks.any);
            }
            let frame = task.pcp.pop_front().ok_or(Errno::Enomem)?;
            *pcp_frames -= 1;
            stats.legacy_allocs += 1;
            return Ok(AllocOutcome {
                frame,
                cycles: costs.page_fault,
                source: FrameSource::Buddy,
            });
        }
        let frame = buddy.alloc(order).ok_or(Errno::Enomem)?;
        stats.legacy_allocs += 1 << order;
        Ok(AllocOutcome {
            frame,
            cycles: costs.page_fault,
            source: FrameSource::Buddy,
        })
    }

    /// Linux pcp batch size (order-0 pages reserved per refill).
    const PCP_BATCH: u64 = 32;

    /// Refill a task's pcp list with up to [`Self::PCP_BATCH`] *contiguous*
    /// frames starting at the lowest free frame in `mask`.
    fn refill_pcp(
        buddy: &mut BuddyAllocator,
        pcp_frames: &mut u64,
        task: &mut TaskStruct,
        mask: &FrameMask,
    ) {
        let Some(start) = buddy.lowest_free_in(mask) else {
            return;
        };
        for i in 0..Self::PCP_BATCH {
            let f = FrameNumber(start.0 + i);
            if f.0 >= buddy.frame_count() || !mask.contains(f) || !buddy.alloc_specific(f) {
                break;
            }
            task.pcp.push_back(f);
            *pcp_frames += 1;
        }
    }

    /// Try to pop a page matching the task's flags/colors, rotating the
    /// task's cursors on success so pages spread across its color set.
    ///
    /// When only the LLC is colored, banks are unconstrained — but a stock
    /// Linux kernel would still serve the fault from the local node's zone,
    /// so the bank rotation prefers the faulting task's local bank colors
    /// before spilling to remote ones.
    fn try_pop_colored(
        mapping: &AddressMapping,
        topology: &Topology,
        colors: &mut ColorMatrix,
        task: &mut TaskStruct,
    ) -> Option<FrameNumber> {
        if task.using_bank && task.using_llc {
            // Rotate the *bank* cursor every allocation (LLC cursor on
            // wrap-around): consecutive pages land on different banks, so a
            // thread's own streams never chase each other on one bank.
            let m = task.mem_colors().len();
            let l = task.llc_colors().len();
            for i in 0..m {
                let bc = task.mem_colors()[(task.mem_cursor + i) % m];
                for j in 0..l {
                    let llc = task.llc_colors()[(task.llc_cursor + j) % l];
                    if let Some(f) = colors.pop(bc, llc) {
                        task.mem_cursor = (task.mem_cursor + 1) % m;
                        if task.mem_cursor == 0 {
                            task.llc_cursor = (task.llc_cursor + 1) % l;
                        }
                        return Some(f);
                    }
                }
            }
            None
        } else if task.using_bank {
            let m = task.mem_colors().len();
            for i in 0..m {
                let bc = task.mem_colors()[(task.mem_cursor + i) % m];
                if let Some((f, _)) = colors.pop_bank(bc, task.llc_cursor) {
                    task.mem_cursor = (task.mem_cursor + 1) % m;
                    task.llc_cursor = task.llc_cursor.wrapping_add(1);
                    return Some(f);
                }
            }
            None
        } else {
            // LLC-only coloring: the caller drives two stages — local banks
            // only (zone-local preference), then any bank (remote spill).
            Self::try_pop_llc_only(mapping, topology, colors, task, true)
                .or_else(|| Self::try_pop_llc_only(mapping, topology, colors, task, false))
        }
    }

    /// LLC-only pop restricted to the local node's banks (`local_only`) or
    /// to any bank. Rotates the task's cursors on success.
    fn try_pop_llc_only(
        mapping: &AddressMapping,
        topology: &Topology,
        colors: &mut ColorMatrix,
        task: &mut TaskStruct,
        local_only: bool,
    ) -> Option<FrameNumber> {
        let l = task.llc_colors().len();
        let node = topology.node_of_core(task.core);
        let cpn = mapping.bank_colors_per_node();
        let lo = node.index() * cpn;
        let banks = mapping.bank_color_count();
        for j in 0..l {
            let llc = task.llc_colors()[(task.llc_cursor + j) % l];
            let mut found = None;
            if local_only {
                for i in 0..cpn {
                    let bc = BankColor((lo + (task.mem_cursor + i) % cpn) as u16);
                    if let Some(f) = colors.pop(bc, llc) {
                        found = Some(f);
                        break;
                    }
                }
            } else {
                for b in 0..banks {
                    if b >= lo && b < lo + cpn {
                        continue;
                    }
                    if let Some(f) = colors.pop(BankColor(b as u16), llc) {
                        found = Some(f);
                        break;
                    }
                }
            }
            if let Some(f) = found {
                task.llc_cursor = (task.llc_cursor + 1) % l;
                task.mem_cursor = task.mem_cursor.wrapping_add(1);
                return Some(f);
            }
        }
        None
    }

    /// Do a frame's decoded fields satisfy the task's color requirements?
    fn info_matches(task: &TaskStruct, i: FrameInfo) -> bool {
        (!task.using_bank || task.mem_colors().contains(&BankColor(i.bank_color)))
            && (!task.using_llc || task.llc_colors().contains(&LlcColor(i.llc_color)))
    }

    /// The frames the task's color set accepts, optionally only those on
    /// `node` — the replenish query of Algorithm 1. Built when a replenish
    /// needs it: one pass over the LUT, not over the free blocks' frames.
    fn color_mask(decoder: &FrameDecoder, task: &TaskStruct, node: Option<NodeId>) -> FrameMask {
        decoder.mask(|i| {
            node.is_none_or(|n| i.node as usize == n.index()) && Self::info_matches(task, i)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn colored_alloc(
        mapping: &AddressMapping,
        topology: &Topology,
        node_masks: &NodeMasks,
        buddy: &mut BuddyAllocator,
        colors: &mut ColorMatrix,
        stats: &mut KernelStats,
        costs: &KernelCosts,
        fault: &mut Option<FaultInjector>,
        task: &mut TaskStruct,
    ) -> Result<AllocOutcome, Errno> {
        let mut extra = 0u64;
        let llc_only = task.using_llc && !task.using_bank;
        // Stage 1 (LLC-only coloring): local-node pages, replenishing from
        // buddy blocks that contain a *local* frame of a wanted color —
        // zone-local free-list traversal — before any remote spill.
        if llc_only {
            let node = topology.node_of_core(task.core);
            let mut local = None;
            loop {
                if let Some(frame) = Self::try_pop_llc_only(mapping, topology, colors, task, true) {
                    stats.colored_allocs += 1;
                    return Ok(AllocOutcome {
                        frame,
                        cycles: costs.page_fault + extra,
                        source: FrameSource::Colors,
                    });
                }
                if Self::inject(fault, stats, FaultSite::BuddyReplenish) {
                    return Err(Errno::Eagain);
                }
                let mask = local
                    .get_or_insert_with(|| Self::color_mask(colors.decoder(), task, Some(node)));
                let (scanned, found) = buddy.first_block_in(mask);
                extra += costs.block_scan * scanned;
                match found {
                    Some((order, start)) => {
                        if Self::inject(fault, stats, FaultSite::CreateColorList) {
                            return Err(Errno::Eagain);
                        }
                        buddy.take_block(order, start);
                        let moved = colors.create_color_list(order, start);
                        stats.create_color_list_calls += 1;
                        stats.pages_moved += moved;
                        extra += costs.per_page_move * moved;
                    }
                    None => break, // local supply exhausted: fall through
                }
            }
        }
        // Stage 2: the general path (for bank-colored tasks this is the only
        // stage; for LLC-only tasks it is the remote spill).
        let mut wanted = None;
        loop {
            let popped = if llc_only {
                Self::try_pop_llc_only(mapping, topology, colors, task, false)
            } else {
                Self::try_pop_colored(mapping, topology, colors, task)
            };
            if let Some(frame) = popped {
                stats.colored_allocs += 1;
                return Ok(AllocOutcome {
                    frame,
                    cycles: costs.page_fault + extra,
                    source: FrameSource::Colors,
                });
            }
            if Self::inject(fault, stats, FaultSite::BuddyReplenish) {
                return Err(Errno::Eagain);
            }
            let mask = wanted.get_or_insert_with(|| Self::color_mask(colors.decoder(), task, None));
            let (scanned, found) = buddy.first_block_in(mask);
            extra += costs.block_scan * scanned;
            match found {
                Some((order, start)) => {
                    if Self::inject(fault, stats, FaultSite::CreateColorList) {
                        return Err(Errno::Eagain);
                    }
                    buddy.take_block(order, start);
                    let moved = colors.create_color_list(order, start);
                    stats.create_color_list_calls += 1;
                    stats.pages_moved += moved;
                    extra += costs.per_page_move * moved;
                }
                None => {
                    return Self::exhausted_alloc(
                        mapping, topology, node_masks, buddy, colors, stats, costs, task, extra,
                    );
                }
            }
        }
    }

    /// The task's color supply is truly exhausted: no free page of an owned
    /// color remains and no buddy block can replenish the lists. Dispatch on
    /// the task's [`ExhaustionPolicy`].
    #[allow(clippy::too_many_arguments)]
    fn exhausted_alloc(
        mapping: &AddressMapping,
        topology: &Topology,
        node_masks: &NodeMasks,
        buddy: &mut BuddyAllocator,
        colors: &mut ColorMatrix,
        stats: &mut KernelStats,
        costs: &KernelCosts,
        task: &mut TaskStruct,
        mut extra: u64,
    ) -> Result<AllocOutcome, Errno> {
        match task.exhaustion {
            ExhaustionPolicy::Strict => {}
            ExhaustionPolicy::NearestColor => {
                if let Some(frame) = Self::nearest_color_alloc(
                    mapping, topology, buddy, colors, stats, costs, task, &mut extra,
                ) {
                    task.off_color_allocs += 1;
                    stats.off_color_allocs += 1;
                    return Ok(AllocOutcome {
                        frame,
                        cycles: costs.page_fault + extra,
                        source: FrameSource::Colors,
                    });
                }
            }
            ExhaustionPolicy::LocalUncolored => {
                if let Some((frame, source)) =
                    Self::local_uncolored_alloc(mapping, topology, node_masks, buddy, colors, task)
                {
                    task.exhaustion_fallbacks += 1;
                    stats.exhaustion_fallbacks += 1;
                    return Ok(AllocOutcome {
                        frame,
                        cycles: costs.page_fault + extra,
                        source,
                    });
                }
            }
        }
        stats.color_enomem += 1;
        Err(Errno::Enomem)
    }

    /// [`ExhaustionPolicy::NearestColor`]: borrow a page of the *nearest*
    /// non-owned color. For bank-colored tasks the bank constraint is
    /// relaxed — candidates are the non-owned bank colors on the nodes the
    /// owned colors live on, ordered by color-index distance — while any LLC
    /// constraint is kept. For LLC-only tasks the LLC constraint is relaxed
    /// the same way. Cursors are *not* advanced: borrowed pages must not
    /// perturb the task's on-color rotation.
    #[allow(clippy::too_many_arguments)]
    fn nearest_color_alloc(
        mapping: &AddressMapping,
        topology: &Topology,
        buddy: &mut BuddyAllocator,
        colors: &mut ColorMatrix,
        stats: &mut KernelStats,
        costs: &KernelCosts,
        task: &TaskStruct,
        extra: &mut u64,
    ) -> Option<FrameNumber> {
        if task.using_bank {
            let owned = task.mem_colors();
            let mut nodes: Vec<usize> = owned
                .iter()
                .map(|&c| mapping.node_of_bank_color(c).index())
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            let mut candidates: Vec<(usize, usize)> = (0..mapping.bank_color_count())
                .filter(|&b| !owned.contains(&BankColor(b as u16)))
                .filter(|&b| {
                    nodes.contains(&mapping.node_of_bank_color(BankColor(b as u16)).index())
                })
                .map(|b| {
                    let dist = owned
                        .iter()
                        .map(|&c| (b as isize - c.index() as isize).unsigned_abs())
                        .min()
                        .expect("using_bank implies owned colors");
                    (dist, b)
                })
                .collect();
            candidates.sort_unstable();
            for (_, b) in candidates {
                let bc = BankColor(b as u16);
                if let Some(f) = Self::pop_borrowed_bank(colors, task, bc) {
                    return Some(f);
                }
                // Targeted replenish for the borrowed color only.
                let mask = colors.decoder().mask(|i| {
                    i.bank_color == bc.raw()
                        && (!task.using_llc || task.llc_colors().contains(&LlcColor(i.llc_color)))
                });
                let (scanned, found) = buddy.first_block_in(&mask);
                *extra += costs.block_scan * scanned;
                if let Some((order, start)) = found {
                    buddy.take_block(order, start);
                    let moved = colors.create_color_list(order, start);
                    stats.create_color_list_calls += 1;
                    stats.pages_moved += moved;
                    *extra += costs.per_page_move * moved;
                    if let Some(f) = Self::pop_borrowed_bank(colors, task, bc) {
                        return Some(f);
                    }
                }
            }
            None
        } else {
            // LLC-only coloring: relax the LLC constraint to the nearest
            // non-owned LLC color, preferring the local node's banks the way
            // the on-color path does.
            let owned = task.llc_colors();
            let node = topology.node_of_core(task.core);
            let mut candidates: Vec<(usize, usize)> = (0..mapping.llc_color_count())
                .filter(|&l| !owned.contains(&LlcColor(l as u16)))
                .map(|l| {
                    let dist = owned
                        .iter()
                        .map(|&c| (l as isize - c.index() as isize).unsigned_abs())
                        .min()
                        .expect("using_llc implies owned colors");
                    (dist, l)
                })
                .collect();
            candidates.sort_unstable();
            for (_, l) in candidates {
                let llc = LlcColor(l as u16);
                if let Some((f, _)) = colors.pop_llc(llc, task.mem_cursor) {
                    return Some(f);
                }
                let mask = colors
                    .decoder()
                    .mask(|i| i.node as usize == node.index() && i.llc_color == llc.raw());
                let (scanned, found) = buddy.first_block_in(&mask);
                *extra += costs.block_scan * scanned;
                if let Some((order, start)) = found {
                    buddy.take_block(order, start);
                    let moved = colors.create_color_list(order, start);
                    stats.create_color_list_calls += 1;
                    stats.pages_moved += moved;
                    *extra += costs.per_page_move * moved;
                    if let Some((f, _)) = colors.pop_llc(llc, task.mem_cursor) {
                        return Some(f);
                    }
                }
            }
            None
        }
    }

    /// Pop from a borrowed bank color, honouring the task's LLC constraint
    /// (if any) without advancing its cursors.
    fn pop_borrowed_bank(
        colors: &mut ColorMatrix,
        task: &TaskStruct,
        bc: BankColor,
    ) -> Option<FrameNumber> {
        if task.using_llc {
            let l = task.llc_colors().len();
            (0..l).find_map(|j| {
                let llc = task.llc_colors()[(task.llc_cursor + j) % l];
                colors.pop(bc, llc)
            })
        } else {
            colors.pop_bank(bc, task.llc_cursor).map(|(f, _)| f)
        }
    }

    /// [`ExhaustionPolicy::LocalUncolored`]: the paper's §III.C degraded
    /// mode. Abandon both color constraints but keep controller locality:
    /// serve from the local node's buddy pages first, then local pages
    /// parked in other colors' lists, then any buddy page, then any parked
    /// page. Each served frame is tagged with the pool it actually left —
    /// the buddy-served branches hand out [`FrameSource::Buddy`] frames to
    /// a *colored* task, which is exactly why reclamation cannot route by
    /// the task's flags. Returns `None` only when physical memory is truly
    /// gone.
    fn local_uncolored_alloc(
        mapping: &AddressMapping,
        topology: &Topology,
        node_masks: &NodeMasks,
        buddy: &mut BuddyAllocator,
        colors: &mut ColorMatrix,
        task: &TaskStruct,
    ) -> Option<(FrameNumber, FrameSource)> {
        let node = topology.node_of_core(task.core);
        if let Some(f) = buddy.lowest_free_in(node_masks.of(node)) {
            if buddy.alloc_specific(f) {
                return Some((f, FrameSource::Buddy));
            }
        }
        for bc in mapping.bank_colors_of_node(node) {
            if let Some((f, _)) = colors.pop_bank(bc, 0) {
                return Some((f, FrameSource::Colors));
            }
        }
        if let Some(f) = buddy.alloc(0) {
            return Some((f, FrameSource::Buddy));
        }
        for b in 0..mapping.bank_color_count() {
            if let Some((f, _)) = colors.pop_bank(BankColor(b as u16), 0) {
                return Some((f, FrameSource::Colors));
            }
        }
        None
    }

    /// The NUMA-aware buddy behaviour of a stock Linux kernel: serve the
    /// fault from the *lowest free frame on the faulting task's local node*
    /// (zone-list preference), falling back to any free frame when the node
    /// is exhausted. Bursts of faults therefore receive contiguous local
    /// frames — preserving row-buffer locality but sharing banks and LLC
    /// colors freely between tasks, exactly the baseline the paper beats.
    fn first_touch_alloc(
        buddy: &mut BuddyAllocator,
        stats: &mut KernelStats,
        costs: &KernelCosts,
        pcp_frames: &mut u64,
        task: &mut TaskStruct,
        local: &FrameMask,
    ) -> Result<AllocOutcome, Errno> {
        if task.pcp.is_empty() {
            Self::refill_pcp(buddy, pcp_frames, task, local);
        }
        if let Some(frame) = task.pcp.pop_front() {
            *pcp_frames -= 1;
            stats.firsttouch_allocs += 1;
            return Ok(AllocOutcome {
                frame,
                cycles: costs.page_fault,
                source: FrameSource::Buddy,
            });
        }
        // Local node exhausted: fall back to any free page (remote).
        let frame = buddy.alloc(0).ok_or(Errno::Enomem)?;
        stats.fallback_allocs += 1;
        Ok(AllocOutcome {
            frame,
            cycles: costs.page_fault,
            source: FrameSource::Buddy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(
            AddressMapping::tiny(),
            Topology::new(2, 1, 2),
            KernelCosts::default(),
        )
    }

    fn colored_task(k: &mut Kernel, core: usize, bank: u16, llc: u16) -> Tid {
        let tid = k.create_task(CoreId(core));
        k.sys_mmap(tid, SET_MEM_COLOR | bank as u64, 0, COLOR_ALLOC)
            .unwrap();
        k.sys_mmap(tid, SET_LLC_COLOR | llc as u64, 0, COLOR_ALLOC)
            .unwrap();
        tid
    }

    #[test]
    fn rmap_encoding_keeps_every_translation_off_the_sentinel() {
        assert_ne!(Kernel::rmap_pack(0, 0), RMAP_NONE);
        let max_vm = (1usize << (64 - RMAP_PAGE_BITS)) - 2;
        let max_page = (1u64 << RMAP_PAGE_BITS) - 1;
        for (vm, page) in [(0, 0), (0, max_page), (max_vm, 0), (max_vm, max_page)] {
            let entry = Kernel::rmap_pack(vm, page);
            assert_ne!(entry, RMAP_NONE);
            assert_eq!(Kernel::rmap_unpack(entry), (vm, page));
        }
    }

    #[test]
    #[should_panic(expected = "vm index beyond rmap range")]
    fn rmap_pack_rejects_a_vm_past_the_encoding() {
        Kernel::rmap_pack((1usize << (64 - RMAP_PAGE_BITS)) - 1, 0);
    }

    #[test]
    fn fresh_opteron_kernel_passes_check_invariants() {
        let m = tint_hw::machine::MachineConfig::opteron_6128();
        let k = Kernel::new(m.mapping, m.topology, KernelCosts::default());
        assert!(k.rmap.iter().all(|&e| e == RMAP_NONE));
        k.check_invariants();
    }

    #[test]
    fn boot_from_pci_matches_direct() {
        let map = AddressMapping::tiny();
        let pci = PciConfigSpace::programmed_by_bios(&map);
        let k = Kernel::boot_from_pci(&pci, Topology::new(2, 1, 2), KernelCosts::default())
            .expect("boot");
        assert_eq!(k.mapping(), &map);
    }

    #[test]
    fn color_protocol_sets_tcb() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let r = k.sys_mmap(tid, SET_LLC_COLOR | 2, 0, COLOR_ALLOC).unwrap();
        assert_eq!(r, VirtAddr(0));
        let t = k.task(tid).unwrap();
        assert!(t.using_llc && !t.using_bank);
        assert_eq!(t.llc_colors(), &[LlcColor(2)]);
    }

    #[test]
    fn zero_length_without_flag_is_einval() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        assert_eq!(k.sys_mmap(tid, 0, 0, 0), Err(Errno::Einval));
    }

    #[test]
    fn out_of_range_color_is_einval() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        assert_eq!(
            k.sys_mmap(tid, SET_LLC_COLOR | 99, 0, COLOR_ALLOC),
            Err(Errno::Einval)
        );
        assert_eq!(
            k.sys_mmap(tid, SET_MEM_COLOR | 99, 0, COLOR_ALLOC),
            Err(Errno::Einval)
        );
        assert_eq!(k.sys_mmap(tid, 7 << 60, 0, COLOR_ALLOC), Err(Errno::Einval));
    }

    #[test]
    fn unknown_task_is_esrch() {
        let mut k = kernel();
        assert_eq!(k.sys_mmap(Tid(99), 0, 4096, 0), Err(Errno::Esrch));
    }

    #[test]
    fn legacy_fault_uses_buddy() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let base = k.sys_mmap(tid, 0, 4096 * 3, 0).unwrap();
        let t = k.translate(tid, base).unwrap();
        assert!(t.fault_cycles > 0, "first touch faults");
        let again = k.translate(tid, base.offset(8)).unwrap();
        assert_eq!(again.fault_cycles, 0, "second touch is mapped");
        assert_eq!(again.phys.0, t.phys.0 + 8);
        assert_eq!(k.stats().legacy_allocs, 1);
        assert_eq!(k.stats().page_faults, 1);
    }

    #[test]
    fn colored_fault_returns_matching_colors() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 1, 2);
        let base = k.sys_mmap(tid, 0, 4096 * 8, 0).unwrap();
        for p in 0..8u64 {
            let t = k.translate(tid, base.offset(p * 4096)).unwrap();
            let d = k.mapping().decode_frame(t.phys.frame());
            assert_eq!(d.bank_color, BankColor(1), "page {p}");
            assert_eq!(d.llc_color, LlcColor(2), "page {p}");
        }
        assert_eq!(k.stats().colored_allocs, 8);
        assert!(k.stats().create_color_list_calls >= 1);
    }

    #[test]
    fn multi_color_task_rotates_colors() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        k.sys_mmap(tid, SET_MEM_COLOR, 0, COLOR_ALLOC).unwrap();
        k.sys_mmap(tid, SET_LLC_COLOR, 0, COLOR_ALLOC).unwrap();
        k.sys_mmap(tid, SET_LLC_COLOR | 1, 0, COLOR_ALLOC).unwrap();
        let base = k.sys_mmap(tid, 0, 4096 * 8, 0).unwrap();
        let mut seen = [0u32; 2];
        for p in 0..8u64 {
            let t = k.translate(tid, base.offset(p * 4096)).unwrap();
            let d = k.mapping().decode_frame(t.phys.frame());
            assert_eq!(d.bank_color, BankColor(0));
            seen[d.llc_color.index()] += 1;
        }
        assert_eq!(seen, [4, 4], "pages spread evenly across owned LLC colors");
    }

    #[test]
    fn llc_only_coloring_ignores_banks() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        k.sys_mmap(tid, SET_LLC_COLOR | 3, 0, COLOR_ALLOC).unwrap();
        let base = k.sys_mmap(tid, 0, 4096 * 4, 0).unwrap();
        let mut banks_seen = std::collections::BTreeSet::new();
        for p in 0..4u64 {
            let t = k.translate(tid, base.offset(p * 4096)).unwrap();
            let d = k.mapping().decode_frame(t.phys.frame());
            assert_eq!(d.llc_color, LlcColor(3));
            banks_seen.insert(d.bank_color);
        }
        assert!(banks_seen.len() > 1, "bank colors rotate when uncolored");
    }

    #[test]
    fn first_touch_prefers_local_node() {
        let mut k = kernel();
        // Core 1 is on node 1 in the 2×1×2 topology.
        let tid = k.create_task(CoreId(3));
        k.set_policy(tid, HeapPolicy::FirstTouch).unwrap();
        let base = k.sys_mmap(tid, 0, 4096 * 6, 0).unwrap();
        for p in 0..6u64 {
            let t = k.translate(tid, base.offset(p * 4096)).unwrap();
            let d = k.mapping().decode_frame(t.phys.frame());
            assert_eq!(d.node.index(), 1, "page {p} must be node-local");
        }
        assert_eq!(k.stats().firsttouch_allocs, 6);
        assert_eq!(k.stats().fallback_allocs, 0);
    }

    #[test]
    fn first_touch_burst_gets_contiguous_frames() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        k.set_policy(tid, HeapPolicy::FirstTouch).unwrap();
        let base = k.sys_mmap(tid, 0, 4096 * 4, 0).unwrap();
        let frames: Vec<_> = (0..4u64)
            .map(|p| {
                k.translate(tid, base.offset(p * 4096))
                    .unwrap()
                    .phys
                    .frame()
                    .0
            })
            .collect();
        for w in frames.windows(2) {
            assert_eq!(w[1], w[0] + 1, "burst faults receive contiguous frames");
        }
    }

    #[test]
    fn first_touch_falls_back_remote_when_node_full() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0)); // node 0
        k.set_policy(tid, HeapPolicy::FirstTouch).unwrap();
        // Node 0 owns half the tiny machine's frames.
        let node0_frames = k.mapping().frame_count() / 2;
        let base = k.sys_mmap(tid, 0, 4096 * (node0_frames + 1), 0).unwrap();
        for p in 0..node0_frames {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        assert_eq!(k.stats().fallback_allocs, 0);
        let t = k.translate(tid, base.offset(node0_frames * 4096)).unwrap();
        assert_eq!(
            k.mapping().decode_frame(t.phys.frame()).node.index(),
            1,
            "spill lands on the remote node"
        );
        assert_eq!(k.stats().fallback_allocs, 1);
    }

    #[test]
    fn colored_enomem_when_color_exhausted() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 0, 0);
        // tiny mapping: 2^10 rows → 1024 pages of combo (0,0).
        let total = k.mapping().frames_per_color_pair();
        let base = k.sys_mmap(tid, 0, 4096 * (total + 1), 0).unwrap();
        for p in 0..total {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        let r = k.translate(tid, base.offset(total * 4096));
        assert_eq!(r, Err(Errno::Enomem), "paper: error when color exhausted");
        assert_eq!(k.stats().color_enomem, 1);
    }

    #[test]
    fn munmap_colored_pages_return_to_color_lists() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 2, 1);
        let base = k.sys_mmap(tid, 0, 4096 * 4, 0).unwrap();
        for p in 0..4u64 {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        let before = k.color_lists().len(BankColor(2), LlcColor(1));
        k.sys_munmap(tid, base, 4096 * 4).unwrap();
        let after = k.color_lists().len(BankColor(2), LlcColor(1));
        assert_eq!(after, before + 4);
        // And they are reusable: next faults pop them again.
        let base2 = k.sys_mmap(tid, 0, 4096 * 4, 0).unwrap();
        for p in 0..4u64 {
            let t = k.translate(tid, base2.offset(p * 4096)).unwrap();
            assert_eq!(
                k.mapping().decode_frame(t.phys.frame()).bank_color,
                BankColor(2)
            );
        }
    }

    #[test]
    fn munmap_legacy_pages_return_to_buddy() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let free0 = k.buddy().free_pages();
        let base = k.sys_mmap(tid, 0, 4096 * 4, 0).unwrap();
        for p in 0..4u64 {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        // One pcp batch was reserved; 4 of its pages are installed.
        assert_eq!(k.buddy().free_pages(), free0 - 32);
        k.sys_munmap(tid, base, 4096 * 4).unwrap();
        assert_eq!(k.buddy().free_pages(), free0 - 32 + 4);
    }

    #[test]
    fn unmapped_access_is_efault() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        assert_eq!(k.translate(tid, VirtAddr(0xdead_0000)), Err(Errno::Efault));
    }

    #[test]
    fn first_colored_alloc_charges_population_cost() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 0, 0);
        let base = k.sys_mmap(tid, 0, 4096 * 2, 0).unwrap();
        let t1 = k.translate(tid, base).unwrap();
        let t2 = k.translate(tid, base.offset(4096)).unwrap();
        assert!(
            t1.fault_cycles > t2.fault_cycles,
            "first request pays the color-list population cost (§III.C)"
        );
    }

    #[test]
    fn threads_share_address_space() {
        let mut k = kernel();
        let leader = k.create_task(CoreId(0));
        let worker = k.create_thread(CoreId(2), leader).unwrap();
        let base = k.sys_mmap(leader, 0, 4096 * 2, 0).unwrap();
        // The worker can touch the leader's mapping...
        let t = k.translate(worker, base).unwrap();
        assert!(t.fault_cycles > 0);
        // ...and the leader then sees the same frame without faulting.
        let t2 = k.translate(leader, base).unwrap();
        assert_eq!(t2.fault_cycles, 0);
        assert_eq!(t2.phys, t.phys);
    }

    #[test]
    fn first_toucher_colors_decide_placement() {
        let mut k = kernel();
        let leader = k.create_task(CoreId(0));
        let worker = k.create_thread(CoreId(2), leader).unwrap();
        // Worker owns color (3, 1); leader is uncolored.
        k.sys_mmap(worker, SET_MEM_COLOR | 3, 0, COLOR_ALLOC)
            .unwrap();
        k.sys_mmap(worker, SET_LLC_COLOR | 1, 0, COLOR_ALLOC)
            .unwrap();
        let base = k.sys_mmap(leader, 0, 4096, 0).unwrap();
        let t = k.translate(worker, base).unwrap();
        let d = k.mapping().decode_frame(t.phys.frame());
        assert_eq!(
            d.bank_color,
            BankColor(3),
            "worker's colors placed the page"
        );
        assert_eq!(d.llc_color, LlcColor(1));
    }

    #[test]
    fn create_thread_for_unknown_leader_fails() {
        let mut k = kernel();
        assert_eq!(k.create_thread(CoreId(0), Tid(77)), Err(Errno::Esrch));
    }

    #[test]
    fn recolor_migrates_violating_pages_only() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        // Touch 6 pages uncolored: frames scattered across colors.
        let base = k.sys_mmap(tid, 0, 4096 * 6, 0).unwrap();
        for p in 0..6u64 {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        // Now adopt colors and recolor.
        k.sys_mmap(tid, SET_MEM_COLOR | 1, 0, COLOR_ALLOC).unwrap();
        k.sys_mmap(tid, SET_LLC_COLOR | 2, 0, COLOR_ALLOC).unwrap();
        let (migrated, cycles) = k.recolor_task(tid).unwrap();
        assert!(
            migrated >= 5,
            "most scattered pages violated (got {migrated})"
        );
        assert!(cycles >= migrated * 800, "page_copy charged per page");
        // Every page now conforms, and translation is intact.
        for p in 0..6u64 {
            let tr = k.translate(tid, base.offset(p * 4096)).unwrap();
            assert_eq!(tr.fault_cycles, 0, "no re-fault after migration");
            let d = k.mapping().decode_frame(tr.phys.frame());
            assert_eq!(d.bank_color, BankColor(1));
            assert_eq!(d.llc_color, LlcColor(2));
        }
        assert_eq!(k.stats().pages_migrated, migrated);
        // A second pass is a no-op.
        assert_eq!(k.recolor_task(tid).unwrap().0, 0);
        k.color_lists().check_invariants();
    }

    /// Recoloring is a function of kernel state alone: two identically
    /// built kernels migrate every page to the same frame at the same cost,
    /// and the violating pages take the color list's frames in page order
    /// (not in page-table iteration order).
    #[test]
    fn recolor_is_deterministic_and_in_page_order() {
        const PAGES: u64 = 12;
        let build = || {
            let mut k = kernel();
            let tid = k.create_task(CoreId(0));
            let base = k.sys_mmap(tid, 0, 4096 * PAGES, 0).unwrap();
            for p in (0..PAGES).rev() {
                k.translate(tid, base.offset(p * 4096)).unwrap();
            }
            k.sys_mmap(tid, SET_MEM_COLOR | 1, 0, COLOR_ALLOC).unwrap();
            k.sys_mmap(tid, SET_LLC_COLOR | 2, 0, COLOR_ALLOC).unwrap();
            (k, tid, base)
        };
        let frames = |k: &mut Kernel, tid: Tid, base: VirtAddr| -> Vec<u64> {
            (0..PAGES)
                .map(|p| {
                    k.translate(tid, base.offset(p * 4096))
                        .unwrap()
                        .phys
                        .frame()
                        .0
                })
                .collect()
        };
        let (mut a, tid, base) = build();
        let (mut b, _, _) = build();
        let before = frames(&mut a, tid, base);
        let conforming = |k: &Kernel, f: u64| {
            let d = k.mapping().decode_frame(FrameNumber(f));
            d.bank_color == BankColor(1) && d.llc_color == LlcColor(2)
        };
        let violating: Vec<usize> = (0..PAGES as usize)
            .filter(|&p| !conforming(&a, before[p]))
            .collect();
        assert!(violating.len() >= 2, "the order must matter");
        // The frames migration will take, in pop order: fresh faults on a
        // clone pop the same color list the same way.
        let mut probe = a.clone();
        let fresh = probe.sys_mmap(tid, 0, 4096 * PAGES, 0).unwrap();
        let popped: Vec<u64> = (0..violating.len() as u64)
            .map(|p| {
                probe
                    .translate(tid, fresh.offset(p * 4096))
                    .unwrap()
                    .phys
                    .frame()
                    .0
            })
            .collect();

        let ra = a.recolor_task(tid).unwrap();
        let rb = b.recolor_task(tid).unwrap();
        assert_eq!(ra, rb, "migration count and cycles");
        assert_eq!(ra.0, violating.len() as u64);
        let after = frames(&mut a, tid, base);
        assert_eq!(after, frames(&mut b, tid, base), "frame for every page");
        let got: Vec<u64> = violating.iter().map(|&p| after[p]).collect();
        assert_eq!(got, popped, "violating pages migrate in page order");
    }

    #[test]
    fn recolor_uncolored_task_is_noop() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let base = k.sys_mmap(tid, 0, 4096, 0).unwrap();
        k.translate(tid, base).unwrap();
        assert_eq!(k.recolor_task(tid).unwrap(), (0, 0));
    }

    #[test]
    fn recolor_stops_with_enomem_when_color_exhausted() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let per_pair = k.mapping().frames_per_color_pair();
        // Touch more pages than one color pair can hold, uncolored.
        let base = k.sys_mmap(tid, 0, 4096 * (per_pair + 16), 0).unwrap();
        for p in 0..per_pair + 16 {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        k.sys_mmap(tid, SET_MEM_COLOR, 0, COLOR_ALLOC).unwrap();
        k.sys_mmap(tid, SET_LLC_COLOR, 0, COLOR_ALLOC).unwrap();
        let r = k.recolor_task(tid);
        assert_eq!(r, Err(Errno::Enomem), "partial migration reports ENOMEM");
        assert!(k.stats().pages_migrated > 0, "some pages did move");
        // Address space still fully translated (old frames kept where the
        // migration stopped).
        for p in 0..per_pair + 16 {
            assert_eq!(
                k.translate(tid, base.offset(p * 4096))
                    .unwrap()
                    .fault_cycles,
                0
            );
        }
    }

    #[test]
    fn order_gt_zero_defaults_to_buddy_even_when_colored() {
        // Algorithm 1 lines 27–28: only order-0 requests are colored.
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 1, 2);
        let out = k.alloc_pages_raw(tid, 3).unwrap();
        assert_eq!(out.frame.0 % 8, 0, "aligned buddy block");
        // The block's pages span multiple colors: it did NOT come from the
        // color lists.
        let colors: std::collections::BTreeSet<_> = (0..8)
            .map(|i| {
                k.mapping()
                    .decode_frame(FrameNumber(out.frame.0 + i))
                    .bank_color
            })
            .collect();
        assert!(
            colors.len() > 1,
            "multi-color block ⇒ normal_buddy_alloc path"
        );
        assert_eq!(k.stats().colored_allocs, 0);
        k.free_pages_raw(out.frame, 3);
        k.buddy().check_invariants();
    }

    #[test]
    fn order_zero_raw_respects_colors() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 1, 2, 3);
        let out = k.alloc_pages_raw(tid, 0).unwrap();
        let d = k.mapping().decode_frame(out.frame);
        assert_eq!(d.bank_color, BankColor(2));
        assert_eq!(d.llc_color, LlcColor(3));
        assert_eq!(k.stats().colored_allocs, 1);
    }

    #[test]
    fn boot_noise_shifts_legacy_allocation() {
        let mut k1 = kernel();
        let mut k2 = kernel();
        k2.consume_boot_noise(17);
        let t1 = k1.create_task(CoreId(0));
        let t2 = k2.create_task(CoreId(0));
        let b1 = k1.sys_mmap(t1, 0, 4096, 0).unwrap();
        let b2 = k2.sys_mmap(t2, 0, 4096, 0).unwrap();
        let p1 = k1.translate(t1, b1).unwrap().phys;
        let p2 = k2.translate(t2, b2).unwrap().phys;
        assert_ne!(p1.frame(), p2.frame());
    }

    #[test]
    fn spurious_page_fault_returns_resident_frame() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let base = k.sys_mmap(tid, 0, 4096, 0).unwrap();
        let first = k.page_fault(tid, base.page()).unwrap();
        assert!(first.cycles > 0);
        let again = k.page_fault(tid, base.page()).unwrap();
        assert_eq!(again.frame, first.frame);
        assert_eq!(again.cycles, 0, "spurious fault is free");
        assert_eq!(k.stats().page_faults, 1, "not double-counted");
    }

    // --------------------------------------------------------------
    // Exhaustion policies
    // --------------------------------------------------------------

    /// Exhaust the (bank 0, llc 0) pair of the tiny machine and return the
    /// base of a region with one still-untouched page.
    fn exhaust_pair(k: &mut Kernel, tid: Tid) -> VirtAddr {
        let total = k.mapping().frames_per_color_pair();
        let base = k.sys_mmap(tid, 0, 4096 * (total + 4), 0).unwrap();
        for p in 0..total {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        base.offset(total * 4096)
    }

    #[test]
    fn nearest_color_borrows_adjacent_bank() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 0, 0);
        k.set_exhaustion_policy(tid, ExhaustionPolicy::NearestColor)
            .unwrap();
        let next = exhaust_pair(&mut k, tid);
        let t = k.translate(tid, next).unwrap();
        let d = k.mapping().decode_frame(t.phys.frame());
        assert_eq!(
            d.bank_color,
            BankColor(1),
            "borrowed the adjacent local bank color"
        );
        assert_eq!(d.llc_color, LlcColor(0), "LLC constraint kept");
        assert_eq!(k.task(tid).unwrap().off_color_allocs, 1);
        assert_eq!(k.stats().off_color_allocs, 1);
        assert_eq!(k.stats().color_enomem, 0, "no failure surfaced");
        k.check_invariants();
    }

    #[test]
    fn local_uncolored_falls_back_on_node() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 0, 0);
        k.set_exhaustion_policy(tid, ExhaustionPolicy::LocalUncolored)
            .unwrap();
        let next = exhaust_pair(&mut k, tid);
        let t = k.translate(tid, next).unwrap();
        let d = k.mapping().decode_frame(t.phys.frame());
        assert_eq!(d.node.index(), 0, "fallback stays node-local");
        assert_eq!(k.task(tid).unwrap().exhaustion_fallbacks, 1);
        assert_eq!(k.stats().exhaustion_fallbacks, 1);
        k.check_invariants();
    }

    #[test]
    fn strict_policy_still_fails_with_enomem() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 0, 0);
        let next = exhaust_pair(&mut k, tid);
        assert_eq!(k.translate(tid, next), Err(Errno::Enomem));
        assert_eq!(k.stats().off_color_allocs, 0);
        assert_eq!(k.stats().exhaustion_fallbacks, 0);
        k.check_invariants();
    }

    #[test]
    fn graceful_policies_never_run_dry_before_memory_does() {
        // A LocalUncolored task can consume *every* frame in the machine;
        // the allocator only fails when physical memory is truly gone.
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 0, 0);
        k.set_exhaustion_policy(tid, ExhaustionPolicy::LocalUncolored)
            .unwrap();
        let frames = k.mapping().frame_count();
        let base = k.sys_mmap(tid, 0, 4096 * (frames + 1), 0).unwrap();
        for p in 0..frames {
            k.translate(tid, base.offset(p * 4096))
                .unwrap_or_else(|e| panic!("page {p} of {frames}: {e}"));
        }
        assert_eq!(
            k.translate(tid, base.offset(frames * 4096)),
            Err(Errno::Enomem),
            "machine truly empty"
        );
        k.check_invariants();
    }

    // --------------------------------------------------------------
    // Fault injection
    // --------------------------------------------------------------

    fn always(site: FaultSite) -> FaultPlan {
        FaultPlan::new(1).with_rate(site, 1000)
    }

    #[test]
    fn injected_mmap_fault_is_enomem_and_transient() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        k.set_fault_plan(Some(always(FaultSite::SysMmap)));
        assert_eq!(k.sys_mmap(tid, 0, 4096, 0), Err(Errno::Enomem));
        assert_eq!(k.stats().injected_faults, 1);
        // Color-protocol calls do not allocate and are never injected.
        k.sys_mmap(tid, SET_MEM_COLOR | 1, 0, COLOR_ALLOC).unwrap();
        k.set_fault_plan(None);
        k.sys_mmap(tid, 0, 4096, 0).unwrap();
        k.check_invariants();
    }

    #[test]
    fn injected_replenish_fault_is_eagain_then_retry_succeeds() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 1, 2);
        let base = k.sys_mmap(tid, 0, 4096, 0).unwrap();
        // First colored fault needs a replenish; injection fails it before
        // anything is mutated.
        k.set_fault_plan(Some(always(FaultSite::BuddyReplenish)));
        assert_eq!(k.translate(tid, base), Err(Errno::Eagain));
        k.check_invariants();
        k.set_fault_plan(None);
        let t = k.translate(tid, base).unwrap();
        let d = k.mapping().decode_frame(t.phys.frame());
        assert_eq!(d.bank_color, BankColor(1));
        assert_eq!(d.llc_color, LlcColor(2));
    }

    #[test]
    fn injected_create_color_list_fault_is_eagain() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 1, 2);
        let base = k.sys_mmap(tid, 0, 4096, 0).unwrap();
        k.set_fault_plan(Some(always(FaultSite::CreateColorList)));
        assert_eq!(k.translate(tid, base), Err(Errno::Eagain));
        assert_eq!(k.stats().pages_moved, 0, "nothing moved before the fault");
        k.check_invariants();
        k.set_fault_plan(None);
        k.translate(tid, base).unwrap();
    }

    #[test]
    fn injected_page_fault_is_enomem_before_any_allocation() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let base = k.sys_mmap(tid, 0, 4096, 0).unwrap();
        let free0 = k.buddy().free_pages();
        k.set_fault_plan(Some(always(FaultSite::PageFault)));
        assert_eq!(k.translate(tid, base), Err(Errno::Enomem));
        assert_eq!(k.buddy().free_pages(), free0, "no frame consumed");
        k.set_fault_plan(None);
        k.translate(tid, base).unwrap();
        k.check_invariants();
    }

    #[test]
    fn injected_page_copy_rolls_back_migration_transactionally() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let base = k.sys_mmap(tid, 0, 4096 * 6, 0).unwrap();
        for p in 0..6u64 {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        let frames_before: Vec<_> = (0..6u64)
            .map(|p| k.translate(tid, base.offset(p * 4096)).unwrap().phys)
            .collect();
        let epoch_before = k.translation_epoch();
        k.sys_mmap(tid, SET_MEM_COLOR | 1, 0, COLOR_ALLOC).unwrap();
        k.set_fault_plan(Some(always(FaultSite::PageCopy)));
        assert_eq!(k.recolor_task(tid), Err(Errno::Enomem));
        assert_eq!(
            k.translation_epoch(),
            epoch_before,
            "no translation changed, so no epoch bump"
        );
        for (p, &phys) in frames_before.iter().enumerate() {
            let tr = k.translate(tid, base.offset(p as u64 * 4096)).unwrap();
            assert_eq!(tr.fault_cycles, 0, "page {p} still resident");
            assert_eq!(tr.phys, phys, "page {p} kept its old frame");
        }
        k.check_invariants();
        // With the weather cleared, the same migration completes.
        k.set_fault_plan(None);
        let (migrated, _) = k.recolor_task(tid).unwrap();
        assert!(migrated > 0);
        k.check_invariants();
    }

    #[test]
    fn injection_off_is_bit_identical_to_unarmed_kernel() {
        // An armed plan whose rates are all zero must reproduce the unarmed
        // kernel's exact allocation sequence (the zero-cost-when-off
        // contract underlying the baseline figures).
        let mut a = kernel();
        let mut b = kernel();
        b.set_fault_plan(Some(FaultPlan::new(99)));
        let ta = colored_task(&mut a, 0, 1, 2);
        let tb = colored_task(&mut b, 0, 1, 2);
        let ba = a.sys_mmap(ta, 0, 4096 * 64, 0).unwrap();
        let bb = b.sys_mmap(tb, 0, 4096 * 64, 0).unwrap();
        for p in 0..64u64 {
            let pa = a.translate(ta, ba.offset(p * 4096)).unwrap();
            let pb = b.translate(tb, bb.offset(p * 4096)).unwrap();
            assert_eq!(pa, pb, "page {p}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn check_invariants_passes_through_mixed_workload() {
        let mut k = kernel();
        let colored = colored_task(&mut k, 0, 2, 1);
        let legacy = k.create_task(CoreId(2));
        k.consume_boot_noise(13);
        k.check_invariants();
        let cb = k.sys_mmap(colored, 0, 4096 * 16, 0).unwrap();
        let lb = k.sys_mmap(legacy, 0, 4096 * 16, 0).unwrap();
        for p in 0..16u64 {
            k.translate(colored, cb.offset(p * 4096)).unwrap();
            k.translate(legacy, lb.offset(p * 4096)).unwrap();
        }
        k.check_invariants();
        let raw = k.alloc_pages_raw(legacy, 3).unwrap();
        k.check_invariants();
        k.sys_munmap(colored, cb, 4096 * 16).unwrap();
        k.check_invariants();
        k.free_pages_raw(raw.frame, 3);
        k.sys_mmap(colored, SET_MEM_COLOR | 3, 0, COLOR_ALLOC)
            .unwrap();
        let cb2 = k.sys_mmap(colored, 0, 4096 * 8, 0).unwrap();
        for p in 0..8u64 {
            k.translate(colored, cb2.offset(p * 4096)).unwrap();
        }
        k.recolor_task(colored).unwrap();
        k.check_invariants();
    }

    // --------------------------------------------------------------
    // Provenance routing (the sys_munmap mis-routing regressions)
    // --------------------------------------------------------------

    #[test]
    fn munmap_after_clear_color_still_returns_frames_to_color_lists() {
        // The historical bug: sys_munmap routed by the task's *current*
        // coloring flags, so CLEAR_MEM_COLOR before unmap leaked colored
        // frames into the buddy allocator. Provenance routing must return
        // them to the color lists they came from.
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 2, 1);
        let base = k.sys_mmap(tid, 0, 4096 * 4, 0).unwrap();
        for p in 0..4u64 {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        let list_before = k.color_lists().len(BankColor(2), LlcColor(1));
        let (buddy_before, colors_before) = k.pool_snapshot();
        k.check_invariants();
        // Drop both color sets — the task is now uncolored.
        k.sys_mmap(tid, CLEAR_MEM_COLOR, 0, COLOR_ALLOC).unwrap();
        k.sys_mmap(tid, CLEAR_LLC_COLOR, 0, COLOR_ALLOC).unwrap();
        assert!(!k.task(tid).unwrap().coloring_active());
        k.sys_munmap(tid, base, 4096 * 4).unwrap();
        let (buddy_after, colors_after) = k.pool_snapshot();
        assert_eq!(
            k.color_lists().len(BankColor(2), LlcColor(1)),
            list_before + 4,
            "colored frames went back to their origin color list"
        );
        assert_eq!(colors_after, colors_before + 4);
        assert_eq!(buddy_after, buddy_before, "buddy gained nothing");
        k.check_invariants();
    }

    #[test]
    fn munmap_uncolored_fallback_frames_return_to_buddy() {
        // The dual leak: a LocalUncolored exhaustion fallback serves a
        // *buddy* frame to a still-colored task. Routing the unmap by the
        // coloring flags would push that buddy frame into the color lists.
        //
        // Exhausting a pair on the tiny machine normally drains the whole
        // buddy into the matrix (every block holds pages of every combo), so
        // a bystander first parks one frame of a *different* color out of
        // reach, and returns it to the buddy only after exhaustion: the
        // fallback then has exactly one frame to take, and it is buddy's.
        let mut k = kernel();
        let bystander = k.create_task(CoreId(0));
        let held = k.alloc_pages_raw(bystander, 0).unwrap().frame;
        assert_ne!(
            k.mapping().decode_frame(held).bank_color,
            BankColor(2),
            "the held frame must not be able to replenish the task's pair"
        );
        let tid = colored_task(&mut k, 0, 2, 0);
        let pair = k.mapping().frames_per_color_pair();
        let base = k.sys_mmap(tid, 0, 4096 * (pair + 4), 0).unwrap();
        let mut colored = 0u64;
        while k.translate(tid, base.offset(colored * 4096)).is_ok() {
            colored += 1;
        }
        // Give the bystander's frame back: the only page left in buddy.
        k.free_pages_raw(held, 0);
        k.set_exhaustion_policy(tid, ExhaustionPolicy::LocalUncolored)
            .unwrap();
        let t = k.translate(tid, base.offset(colored * 4096)).unwrap();
        assert_eq!(t.phys.frame(), held, "fallback took the buddy frame");
        assert_eq!(k.task(tid).unwrap().exhaustion_fallbacks, 1);
        let (buddy_before, colors_before) = k.pool_snapshot();
        assert_eq!(buddy_before, 0);
        k.check_invariants();
        k.sys_munmap(tid, base, 4096 * (pair + 4)).unwrap();
        let (buddy_after, colors_after) = k.pool_snapshot();
        assert_eq!(
            buddy_after, 1,
            "the one buddy-served fallback frame went back to buddy"
        );
        assert_eq!(
            colors_after,
            colors_before + colored,
            "the colored frames went back to the color lists"
        );
        k.check_invariants();
    }

    // --------------------------------------------------------------
    // Task lifecycle (sys_exit / destroy_task)
    // --------------------------------------------------------------

    #[test]
    fn exit_of_unknown_task_is_esrch() {
        let mut k = kernel();
        assert_eq!(k.sys_exit(Tid(42)), Err(Errno::Esrch));
    }

    #[test]
    fn exit_restores_pool_baseline() {
        let mut k = kernel();
        let baseline = k.pool_snapshot();
        let tid = colored_task(&mut k, 0, 1, 2);
        let base = k.sys_mmap(tid, 0, 4096 * 16, 0).unwrap();
        for p in 0..16u64 {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        assert_ne!(k.pool_snapshot(), baseline, "frames are in use / parked");
        k.sys_exit(tid).unwrap();
        assert_eq!(k.task(tid).err(), Some(Errno::Esrch), "TCB removed");
        assert_eq!(
            k.pool_snapshot(),
            baseline,
            "zero leaked frames, zero pool skew after the last exit"
        );
        // check_invariants now also asserts the post-exit baseline itself.
        k.check_invariants();
    }

    #[test]
    fn exit_drains_the_pcp_cache() {
        let mut k = kernel();
        let baseline = k.pool_snapshot();
        let tid = k.create_task(CoreId(0));
        let base = k.sys_mmap(tid, 0, 4096 * 4, 0).unwrap();
        for p in 0..4u64 {
            k.translate(tid, base.offset(p * 4096)).unwrap();
        }
        // A 32-frame pcp batch was reserved; only 4 frames are installed.
        assert_eq!(k.pool_snapshot().0, baseline.0 - 32);
        k.sys_exit(tid).unwrap();
        assert_eq!(k.pool_snapshot(), baseline, "pcp remainder drained too");
        k.check_invariants();
    }

    #[test]
    fn teardown_leaves_the_epoch_alone_and_munmap_bumps_it() {
        let mut k = kernel();
        let a = k.create_task(CoreId(0));
        let b = k.create_task(CoreId(2));
        let base_a = k.sys_mmap(a, 0, 4096, 0).unwrap();
        let untouched = k.sys_mmap(a, 0, 4096, 0).unwrap();
        let base_b = k.sys_mmap(b, 0, 4096, 0).unwrap();
        k.translate(a, base_a).unwrap();
        k.translate(b, base_b).unwrap();
        let epoch = k.translation_epoch();
        // B's space dies whole with resident pages: its VmId is never
        // reissued, so no cache above needs a flush.
        k.sys_exit(b).unwrap();
        assert_eq!(k.translation_epoch(), epoch, "teardown does not bump");
        // A translation dying in a space that lives on still does.
        k.sys_munmap(a, base_a, 4096).unwrap();
        assert!(k.translation_epoch() > epoch, "munmap of a resident page");
        // Unmapping a never-touched page destroys no translation.
        let epoch = k.translation_epoch();
        k.sys_munmap(a, untouched, 4096).unwrap();
        assert_eq!(k.translation_epoch(), epoch);
        k.check_invariants();
    }

    #[test]
    fn thread_exit_keeps_the_shared_address_space_alive() {
        let mut k = kernel();
        let baseline = k.pool_snapshot();
        let leader = k.create_task(CoreId(0));
        let worker = k.create_thread(CoreId(2), leader).unwrap();
        let base = k.sys_mmap(leader, 0, 4096, 0).unwrap();
        let t = k.translate(worker, base).unwrap();
        k.sys_exit(worker).unwrap();
        // The leader still owns the mapping, same frame, no re-fault.
        let t2 = k.translate(leader, base).unwrap();
        assert_eq!(t2.fault_cycles, 0, "page survived the sibling's exit");
        assert_eq!(t2.phys, t.phys);
        // The last sharer's exit reclaims everything.
        k.sys_exit(leader).unwrap();
        assert_eq!(k.pool_snapshot(), baseline);
        k.check_invariants();
    }

    #[test]
    fn shared_space_dies_exactly_at_the_last_of_three_exits() {
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut k = kernel();
            let baseline = k.pool_snapshot();
            let leader = colored_task(&mut k, 0, 1, 2);
            let team = [
                leader,
                k.create_thread(CoreId(1), leader).unwrap(),
                k.create_thread(CoreId(2), leader).unwrap(),
            ];
            let vm = k.task(leader).unwrap().vm;
            // Each member maps and touches its own region of the space.
            for &tid in &team {
                let base = k.sys_mmap(tid, 0, 3 * PAGE_SIZE, 0).unwrap();
                for p in 0..3u64 {
                    k.translate(tid, base.offset(p * PAGE_SIZE)).unwrap();
                }
            }
            assert_eq!(k.vm(vm).resident_pages(), 9);
            k.check_invariants();
            for (i, &who) in order.iter().enumerate() {
                k.sys_exit(team[who]).unwrap();
                let last = i == team.len() - 1;
                assert_eq!(
                    k.vm(vm).resident_pages(),
                    if last { 0 } else { 9 },
                    "order {order:?}: exit {i} of {who}"
                );
                assert_eq!(k.vm(vm).vma_count(), if last { 0 } else { 3 });
                k.check_invariants();
            }
            assert_eq!(k.pool_snapshot(), baseline, "order {order:?}");
        }
    }

    #[test]
    fn colored_frames_stay_parked_until_the_last_colored_task_exits() {
        let mut k = kernel();
        let baseline = k.pool_snapshot();
        let a = colored_task(&mut k, 0, 0, 0);
        let b = colored_task(&mut k, 1, 1, 1);
        for &tid in &[a, b] {
            let base = k.sys_mmap(tid, 0, 4096 * 4, 0).unwrap();
            for p in 0..4u64 {
                k.translate(tid, base.offset(p * 4096)).unwrap();
            }
        }
        k.sys_exit(a).unwrap();
        assert!(
            k.pool_snapshot().1 > 0,
            "a colored task is still live: its supply stays parked"
        );
        k.check_invariants();
        k.sys_exit(b).unwrap();
        assert_eq!(
            k.pool_snapshot(),
            baseline,
            "last colored exit drains the matrix back to buddy"
        );
        k.check_invariants();
    }

    #[test]
    fn create_thread_inherits_the_leader_color_set() {
        let mut k = kernel();
        let leader = colored_task(&mut k, 0, 3, 1);
        k.set_exhaustion_policy(leader, ExhaustionPolicy::NearestColor)
            .unwrap();
        let worker = k.create_thread(CoreId(2), leader).unwrap();
        let w = k.task(worker).unwrap();
        assert!(w.using_bank && w.using_llc, "flags inherited");
        assert_eq!(w.mem_colors(), &[BankColor(3)]);
        assert_eq!(w.llc_colors(), &[LlcColor(1)]);
        assert_eq!(w.exhaustion, ExhaustionPolicy::NearestColor);
        // And the inherited colors actually drive the worker's faults.
        let base = k.sys_mmap(worker, 0, 4096, 0).unwrap();
        let t = k.translate(worker, base).unwrap();
        let d = k.mapping().decode_frame(t.phys.frame());
        assert_eq!(d.bank_color, BankColor(3));
        assert_eq!(d.llc_color, LlcColor(1));
    }

    #[test]
    fn exit_under_churn_with_mixed_policies_leaks_nothing() {
        // A miniature churn loop over all three exhaustion policies; every
        // generation must leave the pools exactly at the boot baseline.
        let mut k = kernel();
        let baseline = k.pool_snapshot();
        let policies = [
            ExhaustionPolicy::Strict,
            ExhaustionPolicy::NearestColor,
            ExhaustionPolicy::LocalUncolored,
        ];
        for gen in 0..6u64 {
            let tid = colored_task(&mut k, (gen % 4) as usize, (gen % 4) as u16, 0);
            k.set_exhaustion_policy(tid, policies[gen as usize % 3])
                .unwrap();
            let base = k.sys_mmap(tid, 0, 4096 * 8, 0).unwrap();
            for p in 0..8u64 {
                k.translate(tid, base.offset(p * 4096)).unwrap();
            }
            if gen % 2 == 0 {
                // Half the generations unmap before exit, half let exit
                // reclaim — both paths must route identically.
                k.sys_munmap(tid, base, 4096 * 8).unwrap();
            }
            k.sys_exit(tid).unwrap();
            assert_eq!(k.pool_snapshot(), baseline, "generation {gen} leaked");
            k.check_invariants();
        }
    }

    #[test]
    fn pressure_signal_follows_watermarks() {
        let mut k = kernel();
        assert_eq!(k.mem_pressure(), MemPressure::Normal);
        let free = k.free_frames();
        // Raise the watermarks around the current population and watch the
        // signal move through the whole band.
        k.set_watermarks(Watermarks {
            low: free,
            min: free / 2,
        });
        assert_eq!(k.mem_pressure(), MemPressure::Low);
        k.set_watermarks(Watermarks {
            low: free + 1,
            min: free,
        });
        assert_eq!(k.mem_pressure(), MemPressure::Critical);
        // Consuming frames crosses thresholds the other way round too.
        k.set_watermarks(Watermarks {
            low: free - 8,
            min: free - 16,
        });
        assert_eq!(k.mem_pressure(), MemPressure::Normal);
        k.consume_boot_noise(8);
        assert_eq!(k.mem_pressure(), MemPressure::Low);
        k.consume_boot_noise(8);
        assert_eq!(k.mem_pressure(), MemPressure::Critical);
    }

    #[test]
    fn watermark_ordering_is_enforced() {
        let mut k = kernel();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.set_watermarks(Watermarks { low: 1, min: 2 })
        }));
        assert!(r.is_err(), "min above low must be rejected");
    }

    #[test]
    fn oom_kill_picks_largest_footprint_then_youngest() {
        let mut k = kernel();
        let baseline = k.pool_snapshot();
        // Colored tasks: no pcp batch, so the footprint is exactly the
        // resident page count.
        let small = colored_task(&mut k, 0, 0, 0);
        let big = colored_task(&mut k, 1, 1, 1);
        let late = colored_task(&mut k, 2, 2, 2);
        for (tid, pages) in [(small, 2u64), (big, 6), (late, 2)] {
            let base = k.sys_mmap(tid, 0, pages * PAGE_SIZE, 0).unwrap();
            for p in 0..pages {
                k.translate(tid, base.offset(p * PAGE_SIZE)).unwrap();
            }
        }
        // Largest footprint wins outright...
        let kill = k.oom_kill(VictimPolicy::LargestFootprint).unwrap();
        assert_eq!(kill.victim, big);
        assert!(kill.frames_reclaimed >= 6, "the victim's frames came back");
        // ...and equal footprints break towards the youngest (largest tid).
        let kill = k.oom_kill(VictimPolicy::LargestFootprint).unwrap();
        assert_eq!(kill.victim, late);
        let kill = k.oom_kill(VictimPolicy::Youngest).unwrap();
        assert_eq!(kill.victim, small);
        assert_eq!(k.stats().oom_kills, 3);
        assert_eq!(k.pool_snapshot(), baseline, "kills reclaim like exits");
        k.check_invariants();
        // An empty machine has nobody left to kill.
        assert_eq!(
            k.oom_kill(VictimPolicy::LargestFootprint),
            Err(Errno::Esrch)
        );
    }

    #[test]
    fn audit_step_sweeps_cleanly_and_wraps() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 1, 2);
        let base = k.sys_mmap(tid, 0, 16 * PAGE_SIZE, 0).unwrap();
        for p in 0..16u64 {
            k.translate(tid, base.offset(p * PAGE_SIZE)).unwrap();
        }
        let total = k.mapping().frame_count();
        let mut cursor = AuditCursor::default();
        let mut audited = 0;
        while audited < 2 * total {
            audited += k.audit_step(&mut cursor, 1024);
        }
        assert_eq!(cursor.next, 0, "two full wraps land back at frame 0");
        k.sys_exit(tid).unwrap();
        k.audit_step(&mut cursor, total);
    }

    /// A kernel with every owner kind populated: a legacy task with one
    /// resident page and a partly used pcp batch, and a colored task with
    /// resident pages and parked color-list pages. Returns the kernel, the
    /// legacy task, its resident frame, a colored resident frame and a
    /// buddy-free frame.
    fn populated() -> (Kernel, Tid, FrameNumber, FrameNumber, FrameNumber) {
        let mut k = kernel();
        let legacy = k.create_task(CoreId(0));
        let base = k.sys_mmap(legacy, 0, PAGE_SIZE, 0).unwrap();
        let legacy_frame = k.translate(legacy, base).unwrap().phys.frame();
        let colored = colored_task(&mut k, 1, 1, 2);
        let base = k.sys_mmap(colored, 0, 4 * PAGE_SIZE, 0).unwrap();
        let colored_frame = k.translate(colored, base).unwrap().phys.frame();
        k.translate(colored, base.offset(PAGE_SIZE)).unwrap();
        let free = (0..=MAX_ORDER)
            .find_map(|o| k.buddy().blocks(o).next())
            .unwrap();
        k.check_invariants();
        k.audit_step(&mut AuditCursor::default(), k.mapping().frame_count());
        (k, legacy, legacy_frame, colored_frame, free)
    }

    fn full_audit(k: &Kernel) {
        k.audit_step(&mut AuditCursor::default(), k.mapping().frame_count());
    }

    #[test]
    #[should_panic(expected = "page table disagrees")]
    fn audit_step_catches_a_corrupted_rmap() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let base = k.sys_mmap(tid, 0, 4 * PAGE_SIZE, 0).unwrap();
        let frame = k.translate(tid, base).unwrap().phys.frame();
        // Point the frame's entry at a page that was never mapped.
        k.corrupt(Corruption::Rmap(frame, VmId(0), PageNumber(1)));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "frame conservation drifted")]
    fn audit_step_catches_a_lost_frame() {
        let mut k = kernel();
        let tid = k.create_task(CoreId(0));
        let base = k.sys_mmap(tid, 0, PAGE_SIZE, 0).unwrap();
        k.translate(tid, base).unwrap();
        // The resident counter says one fewer page than the page tables
        // actually hold.
        k.corrupt(Corruption::ResidentCounter);
        k.audit_step(&mut AuditCursor::default(), 1);
    }

    #[test]
    #[should_panic(expected = "claimed by 2 owners")]
    fn audit_step_catches_a_free_frame_in_a_color_list() {
        let (mut k, _, _, _, free) = populated();
        k.corrupt(Corruption::ParkInColors(free));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "claimed by 2 owners")]
    fn audit_step_catches_a_free_frame_in_a_pcp_batch() {
        let (mut k, legacy, _, _, free) = populated();
        k.corrupt(Corruption::BatchInPcp(legacy, free));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "claimed by 2 owners")]
    fn audit_step_catches_a_mapped_frame_in_a_color_list() {
        let (mut k, _, _, colored_frame, _) = populated();
        k.corrupt(Corruption::ParkInColors(colored_frame));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "claimed by 2 owners")]
    fn audit_step_catches_a_mapped_frame_in_a_pcp_batch() {
        let (mut k, legacy, legacy_frame, _, _) = populated();
        k.corrupt(Corruption::BatchInPcp(legacy, legacy_frame));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "claimed by 2 owners")]
    fn audit_step_catches_a_frame_batched_twice() {
        let (mut k, legacy, _, _, _) = populated();
        let batched = k.task(legacy).unwrap().pcp[0];
        k.corrupt(Corruption::BatchInPcp(legacy, batched));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "page table disagrees")]
    fn audit_step_catches_a_stray_rmap_entry_on_a_free_frame() {
        let (mut k, legacy, _, _, free) = populated();
        let vm = k.task(legacy).unwrap().vm;
        k.corrupt(Corruption::Rmap(free, vm, PageNumber(0)));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "rmapped but not page-table-owned")]
    fn check_invariants_catches_a_stray_rmap_entry_on_a_free_frame() {
        let (mut k, legacy, _, _, free) = populated();
        let vm = k.task(legacy).unwrap().vm;
        k.corrupt(Corruption::Rmap(free, vm, PageNumber(0)));
        k.check_invariants();
    }

    #[test]
    #[should_panic(expected = "page-table-owned but has no rmap entry")]
    fn check_invariants_catches_a_missing_rmap_entry() {
        let (mut k, _, legacy_frame, _, _) = populated();
        k.corrupt(Corruption::ClearRmap(legacy_frame));
        k.check_invariants();
    }

    #[test]
    #[should_panic(expected = "rmap of frame")]
    fn check_invariants_catches_a_misdirected_rmap_entry() {
        let (mut k, legacy, legacy_frame, _, _) = populated();
        let vm = k.task(legacy).unwrap().vm;
        let page = k.vm(vm).resident().next().unwrap().0;
        k.corrupt(Corruption::Rmap(legacy_frame, vm, PageNumber(page.0 + 1)));
        k.check_invariants();
    }

    #[test]
    #[should_panic(expected = "membership index holds")]
    fn check_invariants_catches_a_drifted_membership_index() {
        let (mut k, _, _, _, free) = populated();
        k.corrupt(Corruption::ParkedBit(free));
        k.check_invariants();
    }

    #[test]
    #[should_panic(expected = "claimed by 2 owners")]
    fn audit_step_catches_a_phantom_membership_bit() {
        let (mut k, _, _, _, free) = populated();
        k.corrupt(Corruption::ParkedBit(free));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn check_invariants_catches_a_frame_claimed_twice() {
        let (mut k, _, _, _, free) = populated();
        k.corrupt(Corruption::ParkInColors(free));
        k.check_invariants();
    }

    #[test]
    #[should_panic(expected = "sharer counts drifted")]
    fn check_invariants_catches_a_drifted_sharer_count() {
        let mut k = kernel();
        let leader = k.create_task(CoreId(0));
        k.create_thread(CoreId(2), leader).unwrap();
        k.check_invariants();
        let vm = k.task(leader).unwrap().vm;
        k.corrupt(Corruption::Sharers(vm));
        k.check_invariants();
    }

    #[test]
    #[should_panic(expected = "batched-frame count drifted")]
    fn check_invariants_catches_a_drifted_pcp_count() {
        let (mut k, _, _, _, _) = populated();
        k.corrupt(Corruption::PcpFrames);
        k.check_invariants();
    }

    #[test]
    #[should_panic(expected = "frame conservation drifted")]
    fn audit_step_catches_a_drifted_pcp_count() {
        let (mut k, _, _, _, _) = populated();
        k.corrupt(Corruption::PcpFrames);
        full_audit(&k);
    }

    /// Eight colored tasks with resident pages, then one legacy task with
    /// one resident page and the rest of its pcp batch: the batch's holder
    /// is one task among many that hold none. Returns the kernel, the
    /// legacy task and a buddy-free frame.
    fn one_legacy_among_colored() -> (Kernel, Tid, FrameNumber) {
        let mut k = kernel();
        for i in 0..8u16 {
            let t = colored_task(&mut k, i as usize % 4, i % 2, i % 4);
            let base = k.sys_mmap(t, 0, 2 * PAGE_SIZE, 0).unwrap();
            k.translate(t, base).unwrap();
        }
        let legacy = k.create_task(CoreId(0));
        let base = k.sys_mmap(legacy, 0, PAGE_SIZE, 0).unwrap();
        k.translate(legacy, base).unwrap();
        let free = (0..=MAX_ORDER)
            .find_map(|o| k.buddy().blocks(o).next())
            .unwrap();
        k.check_invariants();
        full_audit(&k);
        (k, legacy, free)
    }

    #[test]
    #[should_panic(expected = "claimed by 2 owners")]
    fn audit_step_catches_a_free_frame_batched_by_one_legacy_task_among_colored() {
        let (mut k, legacy, free) = one_legacy_among_colored();
        k.corrupt(Corruption::BatchInPcp(legacy, free));
        full_audit(&k);
    }

    #[test]
    #[should_panic(expected = "claimed by 2 owners")]
    fn audit_step_catches_a_frame_batched_twice_by_one_legacy_task_among_colored() {
        let (mut k, legacy, _) = one_legacy_among_colored();
        let batched = k.task(legacy).unwrap().pcp[0];
        k.corrupt(Corruption::BatchInPcp(legacy, batched));
        full_audit(&k);
    }

    #[test]
    fn rmap_survives_recolor_and_munmap() {
        let mut k = kernel();
        let tid = colored_task(&mut k, 0, 0, 0);
        let base = k.sys_mmap(tid, 0, 8 * PAGE_SIZE, 0).unwrap();
        for p in 0..8u64 {
            k.translate(tid, base.offset(p * PAGE_SIZE)).unwrap();
        }
        // Switch colors and migrate: every remap must move the rmap entry.
        k.sys_mmap(tid, CLEAR_MEM_COLOR, 0, COLOR_ALLOC).unwrap();
        k.sys_mmap(tid, SET_MEM_COLOR | 2, 0, COLOR_ALLOC).unwrap();
        let (migrated, _) = k.recolor_task(tid).unwrap();
        assert!(migrated > 0, "color change must migrate pages");
        k.check_invariants();
        k.audit_step(&mut AuditCursor::default(), k.mapping().frame_count());
        k.sys_munmap(tid, base, 8 * PAGE_SIZE).unwrap();
        k.sys_exit(tid).unwrap();
        k.check_invariants();
    }
}
