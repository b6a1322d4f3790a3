//! Per-task virtual memory: VMAs, a page table, and demand paging.
//!
//! `mmap()` only creates a *virtual memory area*; physical frames are bound
//! lazily, on first touch, by the page-fault path — which is exactly where
//! TintMalloc's colored `alloc_pages` (Algorithm 1) plugs in. The address
//! space here is a sorted list of mapped regions plus a flat page table:
//! one packed `u32` PTE per virtual page of the bump-allocated arena, so
//! translating a page is a single indexed load and no translation cache
//! sits in front of it.

use crate::errno::Errno;
use std::ops::Range;
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

impl Pte {
    /// The table slot holding this PTE: `(frame + 1) << 1 | source`, so a
    /// resident page's slot is never [`NOT_RESIDENT`].
    fn pack(self) -> u32 {
        assert!(
            self.frame.0 < u64::from(u32::MAX >> 1),
            "frame {} does not fit the packed PTE",
            self.frame
        );
        (self.frame.0 as u32 + 1) << 1 | (self.source == FrameSource::Buddy) as u32
    }

    /// The PTE in a slot, `None` for [`NOT_RESIDENT`].
    fn unpack(slot: u32) -> Option<Self> {
        let frame = (slot >> 1).checked_sub(1)?;
        let source = if slot & 1 == 1 {
            FrameSource::Buddy
        } else {
            FrameSource::Colors
        };
        Some(Self {
            frame: FrameNumber(frame.into()),
            source,
        })
    }
}

/// The slot of a page that is not resident.
const NOT_RESIDENT: u32 = 0;

/// First page of the mmap arena: page table slot 0.
const BASE_PAGE: u64 = MMAP_BASE >> PAGE_SHIFT;

/// A task's address space.
///
/// Regions are bump-allocated upward from [`MMAP_BASE`] and never reused
/// until the space is torn down, so the page table is one flat `Vec` of
/// packed PTEs indexed by `page − MMAP_BASE` page. It covers at most the
/// space's span (the pages mapped since [`MMAP_BASE`]), which the paper's
/// heaps and the churn tenants fill almost completely: translation is one
/// bounds-checked load ([`AddressSpace::frame_of`]), and every walk visits
/// pages in page order.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// The live regions, sorted by start (they are appended in address
    /// order and only ever removed).
    vmas: Vec<Vma>,
    /// `table[page − BASE_PAGE]`: the packed PTE ([`Pte::pack`]), or
    /// [`NOT_RESIDENT`].
    table: Vec<u32>,
    /// Resident slots in `table`.
    resident: usize,
    /// Pages mapped so far: the next region starts at `BASE_PAGE + span`.
    span: u64,
}

impl AddressSpace {
    /// Empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Table index of `page`; a page below the arena wraps far past any
    /// table, so it misses like a page beyond the span.
    #[inline]
    fn slot(page: u64) -> usize {
        usize::try_from(page.wrapping_sub(BASE_PAGE)).unwrap_or(usize::MAX)
    }

    /// The table slots of the pages in `pages` that the table holds.
    fn slots(&self, pages: Range<u64>) -> Range<usize> {
        let clamp = |p: u64| (p.max(BASE_PAGE) - BASE_PAGE).min(self.table.len() as u64) as usize;
        clamp(pages.start)..clamp(pages.end).max(clamp(pages.start))
    }

    /// Create a new VMA of `pages` pages; returns its base address.
    /// (A bump allocator over a huge virtual range — regions are never
    /// reused, matching how short-lived simulations use mmap.)
    pub fn map_region(&mut self, pages: u64) -> VirtAddr {
        assert!(pages > 0, "zero-length VMAs are the color protocol's job");
        let start = PageNumber(BASE_PAGE + self.span);
        self.span += pages;
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

    /// The frame backing virtual page number `page`, if resident: one
    /// bounds-checked load, the translation `System::access` reads.
    #[inline]
    pub fn frame_of(&self, page: u64) -> Option<u32> {
        (self.table.get(Self::slot(page))? >> 1).checked_sub(1)
    }

    /// Translate without faulting: the frame backing `page`, if present.
    pub fn lookup(&self, page: PageNumber) -> Option<FrameNumber> {
        self.frame_of(page.0).map(|f| FrameNumber(f.into()))
    }

    /// The full PTE for `page`, if resident.
    pub fn pte(&self, page: PageNumber) -> Option<Pte> {
        Pte::unpack(*self.table.get(Self::slot(page.0))?)
    }

    /// Translate a full address without faulting.
    pub fn translate(&self, addr: VirtAddr) -> Option<PhysAddr> {
        self.lookup(addr.page()).map(|f| f.at(addr.page_offset()))
    }

    /// Install a frame for `page`, recording which pool it came from.
    /// Returns `Err(Efault)` if the page is not covered by any VMA, panics
    /// on double-install (kernel bug). The table grows to the space's span
    /// when `page` lies beyond it.
    pub fn install(
        &mut self,
        page: PageNumber,
        frame: FrameNumber,
        source: FrameSource,
    ) -> Result<(), Errno> {
        if self.vma_of(page).is_none() {
            return Err(Errno::Efault);
        }
        let i = Self::slot(page.0);
        if i >= self.table.len() {
            self.table.resize(self.span as usize, NOT_RESIDENT);
        }
        assert_eq!(
            self.table[i], NOT_RESIDENT,
            "double page-fault install at {page:?}"
        );
        self.table[i] = Pte { frame, source }.pack();
        self.resident += 1;
        Ok(())
    }

    /// Replace the frame backing an already-resident page (page migration),
    /// returning the *old* frame's source so the caller can route it back
    /// to the right pool. Panics if the page is not resident — migration
    /// only moves what exists.
    pub fn remap(&mut self, page: PageNumber, frame: FrameNumber, source: FrameSource) -> Pte {
        let slot = self
            .table
            .get_mut(Self::slot(page.0))
            .filter(|s| **s != NOT_RESIDENT)
            .unwrap_or_else(|| panic!("remap of a non-resident page {page:?}"));
        let prev = std::mem::replace(slot, Pte { frame, source }.pack());
        Pte::unpack(prev).expect("resident slot")
    }

    /// Remove the region starting exactly at `base` spanning `pages`,
    /// returning every PTE that was backing it, in page order (for the
    /// kernel to free, each to its origin pool).
    pub fn unmap_region(&mut self, base: VirtAddr, pages: u64) -> Result<Vec<Pte>, Errno> {
        let start = base.page();
        let pos = self
            .vmas
            .iter()
            .position(|v| v.start == start && v.pages == pages)
            .ok_or(Errno::Einval)?;
        self.vmas.remove(pos);
        let slots = self.slots(start.0..start.0 + pages);
        let ptes: Vec<Pte> = self.table[slots]
            .iter_mut()
            .filter_map(|s| Pte::unpack(std::mem::replace(s, NOT_RESIDENT)))
            .collect();
        self.resident -= ptes.len();
        Ok(ptes)
    }

    /// Tear the whole address space down (task exit): drop every VMA and
    /// return every resident PTE, sorted by frame — the order the frames
    /// go back to their pools. The space is reset in place and its storage
    /// released: `VmId` slots are never reused, so a dead space must not
    /// keep a table that every later whole-kernel walk would still step
    /// over.
    pub fn teardown(&mut self) -> Vec<Pte> {
        let mut ptes: Vec<Pte> = self.table.iter().filter_map(|&s| Pte::unpack(s)).collect();
        ptes.sort_unstable_by_key(|pte| pte.frame.0);
        *self = Self::new();
        ptes
    }

    /// Number of resident (backed) pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Number of live VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Iterate over resident (page, frame) pairs in page order.
    pub fn resident(&self) -> impl Iterator<Item = (PageNumber, FrameNumber)> + '_ {
        self.resident_in(0..u64::MAX)
    }

    /// Iterate over the resident (page, frame) pairs whose page lies in
    /// `pages`, in page order: a walk of that slice of the table only.
    pub fn resident_in(
        &self,
        pages: Range<u64>,
    ) -> impl Iterator<Item = (PageNumber, FrameNumber)> + '_ {
        let slots = self.slots(pages);
        let first = BASE_PAGE + slots.start as u64;
        self.table[slots]
            .iter()
            .zip(first..)
            .filter_map(|(&s, page)| Pte::unpack(s).map(|pte| (PageNumber(page), pte.frame)))
    }

    /// The first resident page outside every VMA, if any (a page-table
    /// corruption): one scan of the gaps between the sorted VMAs.
    pub fn stray_page(&self) -> Option<PageNumber> {
        let mut from = 0;
        for v in &self.vmas {
            if let Some((page, _)) = self.resident_in(from..v.start.0).next() {
                return Some(page);
            }
            from = v.start.0 + v.pages;
        }
        self.resident_in(from..u64::MAX)
            .next()
            .map(|(page, _)| page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;
    use tint_hw::rng::SplitMix64;

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

    /// A slot left set in a gap between VMAs, or past the last one, is a
    /// page-table corruption that `stray_page` must name; the API cannot
    /// leave one, so the test writes the slot directly.
    #[test]
    fn stray_page_finds_a_resident_slot_outside_every_vma() {
        let mut a = AddressSpace::new();
        let [b1, b2, b3] = [2, 3, 2].map(|pages| a.map_region(pages).page());
        a.install(b1, FrameNumber(1), FrameSource::Buddy).unwrap();
        a.install(PageNumber(b3.0 + 1), FrameNumber(2), FrameSource::Colors)
            .unwrap();
        a.unmap_region(b2.base(), 3).unwrap();
        assert_eq!(a.stray_page(), None);
        for stray in [b2.0, b2.0 + 2, b3.0 + 1] {
            let mut bad = a.clone();
            if stray == b3.0 + 1 {
                bad.unmap_region(b3.base(), 2).unwrap();
            }
            bad.table[AddressSpace::slot(stray)] = Pte {
                frame: FrameNumber(7),
                source: FrameSource::Buddy,
            }
            .pack();
            assert_eq!(bad.stray_page(), Some(PageNumber(stray)));
        }
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

    /// Check every observable of `a` against the model: the PTE and frame
    /// of each probed page and of every page of the span (resident or
    /// not), the page-order walk, the resident count, and the table's size
    /// against the span.
    fn assert_matches(a: &AddressSpace, model: &BTreeMap<u64, Pte>, probes: &[u64], ctx: &str) {
        for p in probes.iter().copied().chain(BASE_PAGE..BASE_PAGE + a.span) {
            let want = model.get(&p).copied();
            assert_eq!(a.pte(PageNumber(p)), want, "{ctx}: pte of page {p:#x}");
            assert_eq!(
                a.frame_of(p).map(u64::from),
                want.map(|pte| pte.frame.0),
                "{ctx}: frame_of page {p:#x}"
            );
        }
        let walk: Vec<_> = a.resident().collect();
        let want: Vec<_> = model
            .iter()
            .map(|(&p, pte)| (PageNumber(p), pte.frame))
            .collect();
        assert_eq!(walk, want, "{ctx}: resident() in page order");
        assert_eq!(a.resident_pages(), model.len(), "{ctx}: resident count");
        assert!(
            a.table.len() as u64 <= a.span,
            "{ctx}: table of {} slots past a span of {} pages",
            a.table.len(),
            a.span
        );
        assert_eq!(a.stray_page(), None, "{ctx}: resident page outside a VMA");
    }

    /// The flat table against a `BTreeMap` model under random map, install,
    /// remap, unmap and teardown traffic. Edge pages (below the arena, one
    /// past the span, `u64::MAX`) must miss and must not alias a resident
    /// slot.
    #[test]
    fn flat_table_matches_a_btreemap_model() {
        let mut rng = SplitMix64::new(0xf1a7);
        for case in 0..40 {
            let mut a = AddressSpace::new();
            let mut model: BTreeMap<u64, Pte> = BTreeMap::new();
            let mut vmas: Vec<(u64, u64)> = Vec::new();
            // Frame numbers are unique per case; some sit at the top of the
            // packed range.
            let mut next_frame = 0u64;
            for step in 0..200 {
                let ctx = format!("case {case} step {step}");
                let mut frame = || {
                    next_frame += 1;
                    let top = u64::from(u32::MAX >> 1) - 1;
                    let f = if next_frame.is_multiple_of(7) {
                        top - next_frame
                    } else {
                        next_frame
                    };
                    FrameNumber(f)
                };
                let source = if rng.gen_ratio(1, 2) {
                    FrameSource::Colors
                } else {
                    FrameSource::Buddy
                };
                let edges = [BASE_PAGE - 1, BASE_PAGE + a.span, u64::MAX, 0];
                match rng.gen_range(10) {
                    0..=1 => {
                        let pages = rng.gen_range_in(1, 9);
                        let base = a.map_region(pages);
                        vmas.push((base.page().0, pages));
                    }
                    2..=5 if !vmas.is_empty() => {
                        let (start, pages) = vmas[rng.gen_range(vmas.len() as u64) as usize];
                        let page = start + rng.gen_range(pages);
                        if let Entry::Vacant(slot) = model.entry(page) {
                            let pte = slot.insert(Pte {
                                frame: frame(),
                                source,
                            });
                            a.install(PageNumber(page), pte.frame, source).unwrap();
                        }
                    }
                    6 if !model.is_empty() => {
                        let nth = rng.gen_range(model.len() as u64) as usize;
                        let page = *model.keys().nth(nth).unwrap();
                        let pte = Pte {
                            frame: frame(),
                            source,
                        };
                        let old = a.remap(PageNumber(page), pte.frame, source);
                        assert_eq!(Some(old), model.insert(page, pte), "{ctx}: remap");
                    }
                    7..=8 if !vmas.is_empty() => {
                        let (start, pages) = vmas.remove(rng.gen_range(vmas.len() as u64) as usize);
                        let got = a.unmap_region(PageNumber(start).base(), pages).unwrap();
                        let gone: Vec<u64> =
                            model.range(start..start + pages).map(|(&p, _)| p).collect();
                        let want: Vec<Pte> =
                            gone.iter().map(|p| model.remove(p).unwrap()).collect();
                        assert_eq!(got, want, "{ctx}: unmap in page order");
                    }
                    9 if rng.gen_ratio(1, 4) => {
                        let mut want: Vec<Pte> = std::mem::take(&mut model).into_values().collect();
                        want.sort_by_key(|pte| pte.frame.0);
                        assert_eq!(a.teardown(), want, "{ctx}: teardown sorted by frame");
                        vmas.clear();
                    }
                    _ => {
                        // An edge page can never be installed.
                        let page = edges[rng.gen_range(edges.len() as u64) as usize];
                        assert_eq!(
                            a.install(PageNumber(page), frame(), source),
                            Err(Errno::Efault),
                            "{ctx}: install at edge page {page:#x}"
                        );
                    }
                }
                let edges = [BASE_PAGE - 1, BASE_PAGE + a.span, u64::MAX, 0];
                assert_matches(&a, &model, &edges, &ctx);
            }
        }
    }
}
