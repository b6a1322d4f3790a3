//! The task control block (`task_struct` in Linux terms).
//!
//! The paper (§III.B): *"zero-sized mmap() calls result in memory
//! controller/bank and LLC colors to be saved in the task_struct ... In
//! addition, two coloring flags using_bank and using_llc are set"*. Any
//! later allocation looks the colors up here — which is what makes the
//! "just one line of code" usage model work: `malloc()` itself is unchanged.

use tint_hw::types::{BankColor, CoreId, LlcColor};

/// Identifier of a shared address space (CLONE_VM semantics: threads of one
/// OpenMP process share a `VmId`, each with its own TCB and colors — so the
/// first-touching thread's colors decide a page's placement, exactly like
/// Linux first-touch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmId(pub usize);

/// Task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u64);

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid:{}", self.0)
    }
}

/// Base heap policy used when a task has **no** colors set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapPolicy {
    /// Legacy Linux buddy allocation: global free list, no node awareness —
    /// the paper's "standard buddy allocator" baseline.
    #[default]
    Legacy,
    /// NUMA first-touch: prefer a frame on the faulting task's local node,
    /// fall back to the global list. An ablation point between legacy buddy
    /// and full TintMalloc coloring.
    FirstTouch,
}

/// What Algorithm 1 does when a colored task's supply is exhausted — no
/// free page of any owned color remains and no buddy block can replenish
/// the color lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExhaustionPolicy {
    /// Fail the allocation with `ENOMEM` — the paper's §III.B contract
    /// ("mmap() will return an error code indicating that no more pages of
    /// this color are available") and this kernel's historical behaviour.
    #[default]
    Strict,
    /// Borrow the nearest free bank color on the task's local node: the
    /// LLC constraint (if any) is kept, only the bank constraint is
    /// relaxed, and candidates are tried in order of distance from the
    /// task's owned colors so contention stays adjacent.
    NearestColor,
    /// Fall back to node-local uncolored buddy allocation — the paper's
    /// §III.C degraded mode, where Algorithm 1's buddy traversal simply
    /// serves the page it finds. Keeps controller locality, abandons both
    /// color constraints.
    LocalUncolored,
}

/// A decoded color-set operation (the `mmap()` protocol's payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColorOp {
    /// Add a memory (controller/bank) color to the calling task.
    SetMemColor(BankColor),
    /// Add an LLC color to the calling task.
    SetLlcColor(LlcColor),
    /// Drop all memory colors (clears `using_bank`).
    ClearMemColors,
    /// Drop all LLC colors (clears `using_llc`).
    ClearLlcColors,
}

/// The simulated TCB.
#[derive(Debug, Clone)]
pub struct TaskStruct {
    /// Task id.
    pub tid: Tid,
    /// Core the task is pinned to (the paper assumes static pinning, §III).
    pub core: CoreId,
    /// Owned memory (bank) colors, in insertion order.
    mem_colors: Vec<BankColor>,
    /// Owned LLC colors, in insertion order.
    llc_colors: Vec<LlcColor>,
    /// `using_bank` flag: memory coloring active.
    pub using_bank: bool,
    /// `using_llc` flag: LLC coloring active.
    pub using_llc: bool,
    /// Base policy when no coloring flag is set.
    pub policy: HeapPolicy,
    /// What a colored allocation does when its color supply is exhausted.
    pub exhaustion: ExhaustionPolicy,
    /// Colored allocations served off-color under
    /// [`ExhaustionPolicy::NearestColor`] (a borrowed bank color).
    pub off_color_allocs: u64,
    /// Colored allocations served uncolored under
    /// [`ExhaustionPolicy::LocalUncolored`] (buddy fallback).
    pub exhaustion_fallbacks: u64,
    /// Round-robin cursor over `mem_colors`.
    pub(crate) mem_cursor: usize,
    /// Round-robin cursor over `llc_colors` (and over the full LLC space for
    /// MEM-only coloring).
    pub(crate) llc_cursor: usize,
    /// The (possibly shared) address space the task runs in.
    pub vm: VmId,
    /// Per-task page cache for the *uncolored* paths, modeling Linux's
    /// per-CPU page (pcp) lists: faults are served from a batch of
    /// contiguous frames reserved in one go. The paper disables pcp lists
    /// for colored allocation (§III.C), so colored paths never use this.
    pub(crate) pcp: std::collections::VecDeque<tint_hw::types::FrameNumber>,
}

impl TaskStruct {
    /// Fresh task pinned to `core` in address space `vm`, with legacy policy
    /// and no colors.
    pub fn new(tid: Tid, core: CoreId, vm: VmId) -> Self {
        Self {
            tid,
            core,
            mem_colors: Vec::new(),
            llc_colors: Vec::new(),
            using_bank: false,
            using_llc: false,
            policy: HeapPolicy::Legacy,
            exhaustion: ExhaustionPolicy::default(),
            off_color_allocs: 0,
            exhaustion_fallbacks: 0,
            // Stagger rotation phases per task so concurrently-allocating
            // tasks do not all pop the same color at the same time (the
            // paper's kernel gets this effect for free from per-CPU list
            // traversal order).
            mem_cursor: (tid.0 as usize).wrapping_mul(7),
            llc_cursor: (tid.0 as usize).wrapping_mul(3),
            vm,
            pcp: std::collections::VecDeque::new(),
        }
    }

    /// Owned memory colors.
    pub fn mem_colors(&self) -> &[BankColor] {
        &self.mem_colors
    }

    /// Owned LLC colors.
    pub fn llc_colors(&self) -> &[LlcColor] {
        &self.llc_colors
    }

    /// Apply a color-set operation, updating the flags exactly as the
    /// paper's kernel patch does.
    pub fn apply(&mut self, op: ColorOp) {
        match op {
            ColorOp::SetMemColor(c) => {
                if !self.mem_colors.contains(&c) {
                    self.mem_colors.push(c);
                }
                self.using_bank = true;
            }
            ColorOp::SetLlcColor(c) => {
                if !self.llc_colors.contains(&c) {
                    self.llc_colors.push(c);
                }
                self.using_llc = true;
            }
            ColorOp::ClearMemColors => {
                self.mem_colors.clear();
                self.mem_cursor = 0;
                self.using_bank = false;
            }
            ColorOp::ClearLlcColors => {
                self.llc_colors.clear();
                self.llc_cursor = 0;
                self.using_llc = false;
            }
        }
    }

    /// Frames reserved in the pcp batch, not yet installed (part of the
    /// task's OOM footprint).
    pub fn pcp_pages(&self) -> usize {
        self.pcp.len()
    }

    /// True when any coloring flag is active (Algorithm 1's gate).
    pub fn coloring_active(&self) -> bool {
        self.using_bank || self.using_llc
    }

    /// Inherit the color configuration of a thread-group leader
    /// (`create_thread` semantics): owned color sets, both coloring flags,
    /// the base heap policy, and the exhaustion policy are copied; per-task
    /// state (counters, cursors, pcp cache) keeps its fresh-task values so
    /// rotation staggering and statistics stay per-thread.
    pub fn inherit_from(&mut self, leader: &TaskStruct) {
        self.mem_colors = leader.mem_colors.clone();
        self.llc_colors = leader.llc_colors.clone();
        self.using_bank = leader.using_bank;
        self.using_llc = leader.using_llc;
        self.policy = leader.policy;
        self.exhaustion = leader.exhaustion;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_task_is_legacy_uncolored() {
        let t = TaskStruct::new(Tid(1), CoreId(0), VmId(0));
        assert!(!t.coloring_active());
        assert_eq!(t.policy, HeapPolicy::Legacy);
        assert!(t.mem_colors().is_empty());
        assert_eq!(t.exhaustion, ExhaustionPolicy::Strict);
        assert_eq!(t.off_color_allocs, 0);
        assert_eq!(t.exhaustion_fallbacks, 0);
    }

    #[test]
    fn set_mem_color_sets_flag() {
        let mut t = TaskStruct::new(Tid(1), CoreId(0), VmId(0));
        t.apply(ColorOp::SetMemColor(BankColor(5)));
        assert!(t.using_bank);
        assert!(!t.using_llc);
        assert_eq!(t.mem_colors(), &[BankColor(5)]);
        assert!(t.coloring_active());
    }

    #[test]
    fn multiple_mmap_calls_accumulate_colors() {
        // Paper: "A thread may even call mmap() multiple times to establish
        // a set of 'owned' colors."
        let mut t = TaskStruct::new(Tid(1), CoreId(0), VmId(0));
        t.apply(ColorOp::SetLlcColor(LlcColor(1)));
        t.apply(ColorOp::SetLlcColor(LlcColor(2)));
        t.apply(ColorOp::SetLlcColor(LlcColor(1))); // duplicate ignored
        assert_eq!(t.llc_colors(), &[LlcColor(1), LlcColor(2)]);
    }

    #[test]
    fn clear_resets_flag_and_cursor() {
        let mut t = TaskStruct::new(Tid(1), CoreId(0), VmId(0));
        t.apply(ColorOp::SetMemColor(BankColor(1)));
        t.mem_cursor = 1;
        t.apply(ColorOp::ClearMemColors);
        assert!(!t.using_bank);
        assert!(t.mem_colors().is_empty());
        assert_eq!(t.mem_cursor, 0);
    }

    #[test]
    fn inherit_copies_colors_but_not_counters_or_cursors() {
        let mut leader = TaskStruct::new(Tid(1), CoreId(0), VmId(0));
        leader.apply(ColorOp::SetMemColor(BankColor(2)));
        leader.apply(ColorOp::SetLlcColor(LlcColor(1)));
        leader.policy = HeapPolicy::FirstTouch;
        leader.exhaustion = ExhaustionPolicy::NearestColor;
        leader.off_color_allocs = 9;
        let mut t = TaskStruct::new(Tid(4), CoreId(1), VmId(0));
        t.inherit_from(&leader);
        assert_eq!(t.mem_colors(), &[BankColor(2)]);
        assert_eq!(t.llc_colors(), &[LlcColor(1)]);
        assert!(t.using_bank && t.using_llc);
        assert_eq!(t.policy, HeapPolicy::FirstTouch);
        assert_eq!(t.exhaustion, ExhaustionPolicy::NearestColor);
        assert_eq!(t.off_color_allocs, 0, "stats stay per-thread");
        assert_eq!(t.mem_cursor, 4 * 7, "stagger keeps the fresh value");
        assert_eq!(t.llc_cursor, 4 * 3);
    }

    #[test]
    fn flags_are_independent() {
        let mut t = TaskStruct::new(Tid(1), CoreId(0), VmId(0));
        t.apply(ColorOp::SetMemColor(BankColor(0)));
        t.apply(ColorOp::SetLlcColor(LlcColor(0)));
        t.apply(ColorOp::ClearMemColors);
        assert!(!t.using_bank);
        assert!(t.using_llc);
        assert!(t.coloring_active());
    }
}
