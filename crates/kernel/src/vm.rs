//! Per-task virtual memory: VMAs, a page table, and demand paging.
//!
//! `mmap()` only creates a *virtual memory area*; physical frames are bound
//! lazily, on first touch, by the page-fault path — which is exactly where
//! TintMalloc's colored `alloc_pages` (Algorithm 1) plugs in. The address
//! space here is a map from virtual page numbers to frames plus a sorted
//! list of mapped regions.

use crate::errno::Errno;
use tint_hw::fxhash::FxHashMap;
use tint_hw::types::{FrameNumber, PageNumber, PhysAddr, VirtAddr, PAGE_SHIFT};

/// Base of the simulated mmap arena (like Linux's mmap_base, just fixed).
pub const MMAP_BASE: u64 = 0x7000_0000_0000;

/// One mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First page of the region.
    pub start: PageNumber,
    /// Length in pages.
    pub pages: u64,
}

impl Vma {
    /// Does the region contain `page`?
    #[inline]
    pub fn contains(&self, page: PageNumber) -> bool {
        page.0 >= self.start.0 && page.0 < self.start.0 + self.pages
    }
}

/// Which free-page pool a frame was taken from at allocation time.
///
/// Recorded in the PTE so that every reclamation path (`sys_munmap`, heap
/// `free`, `sys_exit`) can return the frame to the pool it actually came
/// from. Routing by the task's *current* coloring flags instead is wrong:
/// a `CLEAR_MEM_COLOR` before unmap, or an exhaustion fallback that served
/// a buddy page to a colored task, would silently drain one pool into the
/// other over uptime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameSource {
    /// Popped from the `color_list[MEM_ID][cache_ID]` matrix (including
    /// frames a `NearestColor` fallback borrowed from a neighbouring list).
    Colors,
    /// Served by the buddy allocator directly (legacy/first-touch paths,
    /// per-CPU page caches, and the `LocalUncolored` degraded mode).
    Buddy,
}

/// One page-table entry: the backing frame plus its origin pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical frame backing the page.
    pub frame: FrameNumber,
    /// Pool the frame was allocated from.
    pub source: FrameSource,
}

/// A task's address space.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    vmas: Vec<Vma>,
    table: FxHashMap<u64, Pte>,
    next_base: u64,
}

impl AddressSpace {
    /// Empty address space.
    pub fn new() -> Self {
        Self {
            vmas: Vec::new(),
            table: FxHashMap::default(),
            next_base: MMAP_BASE >> PAGE_SHIFT,
        }
    }

    /// Create a new VMA of `pages` pages; returns its base address.
    /// (A bump allocator over a huge virtual range — regions are never
    /// reused, matching how short-lived simulations use mmap.)
    pub fn map_region(&mut self, pages: u64) -> VirtAddr {
        assert!(pages > 0, "zero-length VMAs are the color protocol's job");
        let start = PageNumber(self.next_base);
        self.next_base += pages;
        self.vmas.push(Vma { start, pages });
        start.base()
    }

    /// The VMA containing `page`, if any.
    pub fn vma_of(&self, page: PageNumber) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.contains(page))
    }

    /// Is `addr` inside some VMA (mapped, though possibly not yet backed)?
    pub fn is_mapped(&self, addr: VirtAddr) -> bool {
        self.vma_of(addr.page()).is_some()
    }

    /// Translate without faulting: the frame backing `page`, if present.
    pub fn lookup(&self, page: PageNumber) -> Option<FrameNumber> {
        self.table.get(&page.0).map(|pte| pte.frame)
    }

    /// The full PTE for `page`, if resident.
    pub fn pte(&self, page: PageNumber) -> Option<Pte> {
        self.table.get(&page.0).copied()
    }

    /// Translate a full address without faulting.
    pub fn translate(&self, addr: VirtAddr) -> Option<PhysAddr> {
        self.lookup(addr.page()).map(|f| f.at(addr.page_offset()))
    }

    /// Install a frame for `page`, recording which pool it came from.
    /// Returns `Err(Efault)` if the page is not covered by any VMA, panics
    /// on double-install (kernel bug).
    pub fn install(
        &mut self,
        page: PageNumber,
        frame: FrameNumber,
        source: FrameSource,
    ) -> Result<(), Errno> {
        if self.vma_of(page).is_none() {
            return Err(Errno::Efault);
        }
        let prev = self.table.insert(page.0, Pte { frame, source });
        assert!(prev.is_none(), "double page-fault install at {page:?}");
        Ok(())
    }

    /// Replace the frame backing an already-resident page (page migration),
    /// returning the *old* frame's source so the caller can route it back
    /// to the right pool. Panics if the page is not resident — migration
    /// only moves what exists.
    pub fn remap(&mut self, page: PageNumber, frame: FrameNumber, source: FrameSource) -> Pte {
        let prev = self.table.insert(page.0, Pte { frame, source });
        prev.unwrap_or_else(|| panic!("remap of a non-resident page {page:?}"))
    }

    /// Remove the region starting exactly at `base` spanning `pages`,
    /// returning every PTE that was backing it (for the kernel to free,
    /// each to its origin pool).
    pub fn unmap_region(&mut self, base: VirtAddr, pages: u64) -> Result<Vec<Pte>, Errno> {
        let start = base.page();
        let pos = self
            .vmas
            .iter()
            .position(|v| v.start == start && v.pages == pages)
            .ok_or(Errno::Einval)?;
        self.vmas.remove(pos);
        let mut ptes = Vec::new();
        for p in start.0..start.0 + pages {
            if let Some(pte) = self.table.remove(&p) {
                ptes.push(pte);
            }
        }
        Ok(ptes)
    }

    /// Tear the whole address space down (task exit): drop every VMA and
    /// return every resident PTE, sorted by frame for determinism. The
    /// space is reset in place and its storage released: `VmId` slots are
    /// never reused, so a dead space must not keep a table's capacity that
    /// every later whole-kernel walk would still step over.
    pub fn teardown(&mut self) -> Vec<Pte> {
        self.vmas = Vec::new();
        self.next_base = MMAP_BASE >> PAGE_SHIFT;
        let mut ptes: Vec<Pte> = std::mem::take(&mut self.table).into_values().collect();
        ptes.sort_by_key(|pte| pte.frame.0);
        ptes
    }

    /// Number of resident (backed) pages.
    pub fn resident_pages(&self) -> usize {
        self.table.len()
    }

    /// Number of live VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Iterate over resident (page, frame) pairs in unspecified order.
    pub fn resident(&self) -> impl Iterator<Item = (PageNumber, FrameNumber)> + '_ {
        self.table
            .iter()
            .map(|(&p, pte)| (PageNumber(p), pte.frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_region_returns_page_aligned_disjoint_bases() {
        let mut a = AddressSpace::new();
        let r1 = a.map_region(4);
        let r2 = a.map_region(2);
        assert_eq!(r1.page_offset(), 0);
        assert_eq!(r2.0, r1.0 + 4 * 4096);
        assert_eq!(a.vma_count(), 2);
    }

    #[test]
    fn translate_unbacked_is_none_but_mapped() {
        let mut a = AddressSpace::new();
        let base = a.map_region(1);
        assert!(a.is_mapped(base));
        assert_eq!(a.translate(base), None, "no frame until first touch");
    }

    #[test]
    fn install_then_translate() {
        let mut a = AddressSpace::new();
        let base = a.map_region(2);
        a.install(base.page(), FrameNumber(7), FrameSource::Colors)
            .unwrap();
        let t = a.translate(base.offset(12)).unwrap();
        assert_eq!(t, FrameNumber(7).at(12));
        assert_eq!(a.resident_pages(), 1);
        assert_eq!(
            a.pte(base.page()),
            Some(Pte {
                frame: FrameNumber(7),
                source: FrameSource::Colors
            })
        );
    }

    #[test]
    fn install_outside_vma_is_efault() {
        let mut a = AddressSpace::new();
        assert_eq!(
            a.install(PageNumber(999), FrameNumber(0), FrameSource::Buddy),
            Err(Errno::Efault)
        );
    }

    #[test]
    #[should_panic(expected = "double page-fault install")]
    fn double_install_panics() {
        let mut a = AddressSpace::new();
        let base = a.map_region(1);
        a.install(base.page(), FrameNumber(1), FrameSource::Buddy)
            .unwrap();
        a.install(base.page(), FrameNumber(2), FrameSource::Buddy)
            .unwrap();
    }

    #[test]
    fn unmap_returns_backed_ptes_only() {
        let mut a = AddressSpace::new();
        let base = a.map_region(3);
        a.install(base.page(), FrameNumber(10), FrameSource::Colors)
            .unwrap();
        a.install(
            PageNumber(base.page().0 + 2),
            FrameNumber(12),
            FrameSource::Buddy,
        )
        .unwrap();
        let ptes = a.unmap_region(base, 3).unwrap();
        assert_eq!(ptes.len(), 2);
        assert!(ptes.contains(&Pte {
            frame: FrameNumber(10),
            source: FrameSource::Colors
        }));
        assert!(ptes.contains(&Pte {
            frame: FrameNumber(12),
            source: FrameSource::Buddy
        }));
        assert_eq!(a.vma_count(), 0);
        assert!(!a.is_mapped(base));
    }

    #[test]
    fn remap_returns_the_old_pte() {
        let mut a = AddressSpace::new();
        let base = a.map_region(1);
        a.install(base.page(), FrameNumber(3), FrameSource::Buddy)
            .unwrap();
        let old = a.remap(base.page(), FrameNumber(9), FrameSource::Colors);
        assert_eq!(old.frame, FrameNumber(3));
        assert_eq!(old.source, FrameSource::Buddy);
        assert_eq!(a.lookup(base.page()), Some(FrameNumber(9)));
        assert_eq!(a.pte(base.page()).unwrap().source, FrameSource::Colors);
    }

    #[test]
    fn teardown_drains_everything_and_resets() {
        let mut a = AddressSpace::new();
        let b1 = a.map_region(2);
        let b2 = a.map_region(1);
        a.install(b1.page(), FrameNumber(20), FrameSource::Colors)
            .unwrap();
        a.install(b2.page(), FrameNumber(5), FrameSource::Buddy)
            .unwrap();
        let ptes = a.teardown();
        assert_eq!(
            ptes.iter().map(|p| p.frame.0).collect::<Vec<_>>(),
            vec![5, 20],
            "sorted by frame for determinism"
        );
        assert_eq!(a.vma_count(), 0);
        assert_eq!(a.resident_pages(), 0);
        assert_eq!(
            a.table.capacity(),
            0,
            "the dead table's storage is released"
        );
        // The arena restarts at its base: fresh regions map as if new.
        assert_eq!(a.map_region(1), VirtAddr(MMAP_BASE));
    }

    #[test]
    fn unmap_wrong_region_is_einval() {
        let mut a = AddressSpace::new();
        let base = a.map_region(3);
        assert_eq!(a.unmap_region(base, 2), Err(Errno::Einval));
        assert_eq!(a.unmap_region(base.offset(4096), 3), Err(Errno::Einval));
    }

    #[test]
    fn vma_contains() {
        let v = Vma {
            start: PageNumber(10),
            pages: 2,
        };
        assert!(!v.contains(PageNumber(9)));
        assert!(v.contains(PageNumber(10)));
        assert!(v.contains(PageNumber(11)));
        assert!(!v.contains(PageNumber(12)));
    }
}
