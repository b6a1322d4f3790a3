//! The user-level heap: `malloc`/`free` over colored pages.
//!
//! The paper keeps `malloc()` itself unchanged — glibc's allocator simply
//! obtains pages via `mmap()`/page faults, and the kernel colors them. This
//! module plays glibc's role: a size-class segregated-free-list allocator
//! whose backing pages come from the simulated kernel one slab at a time.
//! Per the paper (§III.C), all slabs are order-0-page-backed: "TintMalloc is
//! currently restricted to serve only order-zero requests ... which suffices
//! to handle all ordinary user heap requests".

use tint_hw::fxhash::FxHashMap;
use tint_hw::types::{VirtAddr, PAGE_SIZE};

/// Size classes for small allocations (bytes). Larger requests are served
/// page-granular.
pub const SIZE_CLASSES: [u64; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

/// Pages fetched per slab refill (one `mmap` per slab keeps VMA counts low).
pub const SLAB_PAGES: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AllocMeta {
    /// Small allocation: index into [`SIZE_CLASSES`].
    Class(usize),
    /// Large allocation: whole pages.
    Pages(u64),
}

/// What the heap needs from below: a way to map fresh page regions.
/// (Implemented by `System`; a simple closure keeps the heap testable.)
pub trait PageSource {
    /// Map `pages` fresh pages and return the region base.
    fn map_pages(&mut self, pages: u64) -> Result<VirtAddr, tint_kernel::Errno>;
    /// Unmap a region previously returned by `map_pages`.
    fn unmap_pages(&mut self, base: VirtAddr, pages: u64) -> Result<(), tint_kernel::Errno>;
}

/// Per-task user-level heap state.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    free_lists: [Vec<VirtAddr>; SIZE_CLASSES.len()],
    allocs: FxHashMap<u64, AllocMeta>,
    /// Bytes handed out and not yet freed.
    bytes_in_use: u64,
    /// Pages requested from the kernel (slabs + large allocations).
    pages_mapped: u64,
}

impl Heap {
    /// Fresh empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently allocated.
    pub fn bytes_in_use(&self) -> u64 {
        self.bytes_in_use
    }

    /// Pages ever requested from the kernel.
    pub fn pages_mapped(&self) -> u64 {
        self.pages_mapped
    }

    /// Live allocation count.
    pub fn live_allocations(&self) -> usize {
        self.allocs.len()
    }

    fn class_of(size: u64) -> Option<usize> {
        SIZE_CLASSES.iter().position(|&c| size <= c)
    }

    /// Allocate `size` bytes (the `malloc` entry point).
    pub fn malloc<S: PageSource>(
        &mut self,
        src: &mut S,
        size: u64,
    ) -> Result<VirtAddr, tint_kernel::Errno> {
        if size == 0 {
            return Err(tint_kernel::Errno::Einval);
        }
        match Self::class_of(size) {
            Some(class) => {
                if self.free_lists[class].is_empty() {
                    self.refill(src, class)?;
                }
                // A successful refill guarantees a free slot; if that ever
                // regresses, surface ENOMEM instead of aborting the caller.
                let addr = self.free_lists[class]
                    .pop()
                    .ok_or(tint_kernel::Errno::Enomem)?;
                self.allocs.insert(addr.0, AllocMeta::Class(class));
                self.bytes_in_use += SIZE_CLASSES[class];
                Ok(addr)
            }
            None => {
                let pages = size.div_ceil(PAGE_SIZE);
                let base = src.map_pages(pages)?;
                self.pages_mapped += pages;
                self.allocs.insert(base.0, AllocMeta::Pages(pages));
                self.bytes_in_use += pages * PAGE_SIZE;
                Ok(base)
            }
        }
    }

    /// Allocate zero-initialized memory (`calloc`). The simulation does not
    /// model memory contents, so this is `malloc` with the same signature
    /// contract (fresh kernel pages are zero anyway).
    pub fn calloc<S: PageSource>(
        &mut self,
        src: &mut S,
        count: u64,
        size: u64,
    ) -> Result<VirtAddr, tint_kernel::Errno> {
        let total = count.checked_mul(size).ok_or(tint_kernel::Errno::Einval)?;
        self.malloc(src, total)
    }

    /// Resize an allocation (`realloc`): may return the same address when
    /// the size class already fits.
    pub fn realloc<S: PageSource>(
        &mut self,
        src: &mut S,
        addr: VirtAddr,
        new_size: u64,
    ) -> Result<VirtAddr, tint_kernel::Errno> {
        let meta = *self.allocs.get(&addr.0).ok_or(tint_kernel::Errno::Einval)?;
        let fits = match meta {
            AllocMeta::Class(c) => Self::class_of(new_size) == Some(c),
            AllocMeta::Pages(p) => {
                new_size > *SIZE_CLASSES.last().unwrap() && new_size.div_ceil(PAGE_SIZE) == p
            }
        };
        if fits {
            return Ok(addr);
        }
        let new = self.malloc(src, new_size)?;
        self.free(src, addr)?;
        Ok(new)
    }

    /// Release an allocation (`free`).
    pub fn free<S: PageSource>(
        &mut self,
        src: &mut S,
        addr: VirtAddr,
    ) -> Result<(), tint_kernel::Errno> {
        let meta = self
            .allocs
            .remove(&addr.0)
            .ok_or(tint_kernel::Errno::Einval)?;
        match meta {
            AllocMeta::Class(class) => {
                self.free_lists[class].push(addr);
                self.bytes_in_use -= SIZE_CLASSES[class];
            }
            AllocMeta::Pages(pages) => {
                src.unmap_pages(addr, pages)?;
                self.bytes_in_use -= pages * PAGE_SIZE;
                self.pages_mapped -= pages;
            }
        }
        Ok(())
    }

    /// Carve a fresh slab into chunks of `class`.
    fn refill<S: PageSource>(
        &mut self,
        src: &mut S,
        class: usize,
    ) -> Result<(), tint_kernel::Errno> {
        let base = src.map_pages(SLAB_PAGES)?;
        self.pages_mapped += SLAB_PAGES;
        let chunk = SIZE_CLASSES[class];
        let total = SLAB_PAGES * PAGE_SIZE;
        let mut off = 0;
        while off + chunk <= total {
            self.free_lists[class].push(base.offset(off));
            off += chunk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page source handing out consecutive fake regions.
    #[derive(Default)]
    struct FakeSource {
        next: u64,
        mapped: Vec<(u64, u64)>,
        unmapped: Vec<(u64, u64)>,
    }

    impl PageSource for FakeSource {
        fn map_pages(&mut self, pages: u64) -> Result<VirtAddr, tint_kernel::Errno> {
            let base = 0x1000_0000 + self.next * PAGE_SIZE;
            self.next += pages;
            self.mapped.push((base, pages));
            Ok(VirtAddr(base))
        }
        fn unmap_pages(&mut self, base: VirtAddr, pages: u64) -> Result<(), tint_kernel::Errno> {
            self.unmapped.push((base.0, pages));
            Ok(())
        }
    }

    #[test]
    fn small_allocations_share_a_slab() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        let a = h.malloc(&mut s, 60).unwrap();
        let b = h.malloc(&mut s, 64).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.mapped.len(), 1, "both served from one slab");
        assert_eq!(h.bytes_in_use(), 128);
        assert_eq!(h.live_allocations(), 2);
    }

    #[test]
    fn zero_size_is_einval() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        assert!(h.malloc(&mut s, 0).is_err());
    }

    #[test]
    fn large_allocation_gets_own_pages() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        let a = h.malloc(&mut s, 10_000).unwrap();
        assert_eq!(s.mapped.last().unwrap().1, 3, "ceil(10000/4096) pages");
        h.free(&mut s, a).unwrap();
        assert_eq!(s.unmapped.len(), 1);
        assert_eq!(h.bytes_in_use(), 0);
    }

    #[test]
    fn free_then_malloc_reuses_chunk() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        let a = h.malloc(&mut s, 100).unwrap();
        h.free(&mut s, a).unwrap();
        let b = h.malloc(&mut s, 100).unwrap();
        assert_eq!(a, b, "LIFO reuse of the freed chunk");
        assert_eq!(s.mapped.len(), 1);
    }

    #[test]
    fn double_free_is_einval() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        let a = h.malloc(&mut s, 100).unwrap();
        h.free(&mut s, a).unwrap();
        assert!(h.free(&mut s, a).is_err());
    }

    #[test]
    fn free_of_unknown_address_is_einval() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        assert!(h.free(&mut s, VirtAddr(0x1234)).is_err());
    }

    #[test]
    fn calloc_multiplies() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        let _ = h.calloc(&mut s, 100, 100).unwrap(); // 10 000 B → pages
        assert_eq!(s.mapped.last().unwrap().1, 3);
        assert!(h.calloc(&mut s, u64::MAX, 2).is_err(), "overflow detected");
    }

    #[test]
    fn realloc_same_class_is_identity() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        let a = h.malloc(&mut s, 100).unwrap();
        let b = h.realloc(&mut s, a, 120).unwrap();
        assert_eq!(a, b, "both fit the 128-byte class");
    }

    #[test]
    fn realloc_grows_to_new_class() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        let a = h.malloc(&mut s, 100).unwrap();
        let b = h.realloc(&mut s, a, 2000).unwrap();
        assert_ne!(a, b);
        assert_eq!(h.live_allocations(), 1);
        // The old chunk is reusable.
        let c = h.malloc(&mut s, 100).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn slab_chunks_do_not_overlap() {
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        let n = (SLAB_PAGES * PAGE_SIZE / 2048) as usize;
        let mut addrs: Vec<_> = (0..n).map(|_| h.malloc(&mut s, 2048).unwrap().0).collect();
        addrs.sort();
        for w in addrs.windows(2) {
            assert!(w[1] - w[0] >= 2048, "chunks overlap");
        }
        assert_eq!(s.mapped.len(), 1, "exactly one slab used");
        // The next allocation triggers a second slab.
        h.malloc(&mut s, 2048).unwrap();
        assert_eq!(s.mapped.len(), 2);
    }

    #[test]
    fn balanced_alloc_free_does_not_grow_pages() {
        // Paper §III.C: "the overhead becomes constant for a stable working
        // set size ... assuming [allocations] are balanced in size".
        let mut h = Heap::new();
        let mut s = FakeSource::default();
        for _ in 0..1000 {
            let a = h.malloc(&mut s, 512).unwrap();
            h.free(&mut s, a).unwrap();
        }
        assert_eq!(
            h.pages_mapped(),
            SLAB_PAGES,
            "one slab serves the steady state"
        );
    }
}
