//! Property tests for the cache simulator: LRU laws, occupancy bounds, and
//! the color-partition guarantee of the hashed LLC index.
//!
//! Seeded-loop randomized tests over the workspace's deterministic PRNG —
//! no external property-testing framework required.

use std::collections::VecDeque;
use tint_cache::{CacheHierarchy, HitLevel, IndexMode, SetAssocCache};
use tint_hw::machine::MachineConfig;
use tint_hw::rng::SplitMix64;
use tint_hw::types::{BankColor, CoreId, LlcColor, PhysAddr};
use tint_hw::Topology;

const CASES: u64 = 40;

fn arb_addrs(rng: &mut SplitMix64) -> Vec<u64> {
    let n = rng.gen_range_in(1, 300);
    (0..n).map(|_| rng.gen_range(1 << 20)).collect()
}

/// Occupancy never exceeds sets × assoc, and an immediate re-access of
/// the last line always hits (LRU keeps the MRU line).
#[test]
fn occupancy_bounded_and_mru_sticks() {
    let mut rng = SplitMix64::new(0x0cc);
    for _ in 0..CASES {
        let addrs = arb_addrs(&mut rng);
        let mut c = SetAssocCache::new(16, 2, 6);
        for &a in &addrs {
            c.access(CoreId(0), PhysAddr(a));
            assert!(c.resident_lines() <= 32);
            let (hit, ev) = c.access(CoreId(0), PhysAddr(a));
            assert!(hit, "immediate re-access must hit");
            assert!(ev.is_none());
        }
    }
}

/// probe() agrees with what access() would report, and never mutates.
#[test]
fn probe_agrees_with_access() {
    let mut rng = SplitMix64::new(0x9808e);
    for _ in 0..CASES {
        let addrs = arb_addrs(&mut rng);
        let probe = rng.gen_range(1 << 20);
        let mut c = SetAssocCache::new(16, 4, 6);
        for &a in &addrs {
            c.access(CoreId(0), PhysAddr(a));
        }
        let before_hits = c.hits();
        let p = c.probe(PhysAddr(probe));
        assert_eq!(c.hits(), before_hits);
        let (hit, _) = c.access(CoreId(0), PhysAddr(probe));
        assert_eq!(hit, p, "probe must predict the access outcome");
    }
}

/// Hashed and modulo indexing agree on hit/miss for a working set that
/// fits entirely (both are just placement functions).
#[test]
fn small_working_set_always_hits_after_warm() {
    for lines in 1u64..16 {
        for mode in [IndexMode::Modulo, IndexMode::Hash] {
            let mut c = SetAssocCache::with_index_mode(16, 2, 6, mode);
            let addrs: Vec<_> = (0..lines).map(|i| PhysAddr(i * 64)).collect();
            for &a in &addrs {
                c.access(CoreId(0), a);
            }
            for &a in &addrs {
                assert!(c.probe(a), "{mode:?}: line {a} evicted from a fitting set");
            }
        }
    }
}

/// ColorHash partition law: addresses of different colors never map to
/// the same set, and each color's sets form a contiguous slice.
#[test]
fn color_hash_partitions_sets() {
    let mut rng = SplitMix64::new(0xc01);
    let c = SetAssocCache::with_index_mode(
        1 << 14,
        6,
        7,
        IndexMode::ColorHash {
            color_low: 16,
            color_bits: 5,
        },
    );
    for _ in 0..2000 {
        let addr = rng.gen_range(1 << 30);
        let idx = c.set_index(PhysAddr(addr));
        let color = ((addr >> 16) & 31) as usize;
        let sets_per_color = (1 << 14) / 32;
        assert_eq!(
            idx / sets_per_color,
            color,
            "set outside color slice: {idx}"
        );
    }
}

/// Hierarchy inclusion-ish law: after an access, the line is findable at
/// some level for the accessing core, and a different core sees at most
/// the shared L3.
#[test]
fn hierarchy_visibility() {
    let mut rng = SplitMix64::new(0x415);
    for _ in 0..CASES {
        let n = rng.gen_range_in(1, 100);
        let m = MachineConfig::tiny();
        let mut h = CacheHierarchy::new(&m);
        for _ in 0..n {
            let a = PhysAddr(rng.gen_range(1 << 22) % m.mapping.total_bytes());
            h.access(CoreId(0), a);
            assert!(
                h.probe(CoreId(0), a).is_some(),
                "just-accessed line visible"
            );
            let other = h.probe(CoreId(1), a);
            assert!(
                other.is_none() || other == Some(HitLevel::L3),
                "private levels must stay private"
            );
        }
    }
}

/// Per-core stats add up: hits + misses == accesses at L1.
#[test]
fn stats_conserve_accesses() {
    let mut rng = SplitMix64::new(0x57a7);
    for _ in 0..CASES {
        let addrs = arb_addrs(&mut rng);
        let m = MachineConfig::tiny();
        let mut h = CacheHierarchy::new(&m);
        for &a in &addrs {
            h.access(CoreId(0), PhysAddr(a % m.mapping.total_bytes()));
        }
        let s = h.stats().core(CoreId(0));
        assert_eq!(s.l1_hits + s.l1_misses, addrs.len() as u64);
        assert_eq!(
            s.l2_hits + s.l2_misses,
            s.l1_misses,
            "L2 lookups = L1 misses"
        );
        assert_eq!(
            s.l3_hits + s.l3_misses,
            s.l2_misses,
            "L3 lookups = L2 misses"
        );
    }
}

/// Disjoint LLC colors cannot interfere, whatever the access pattern.
#[test]
fn disjoint_colors_never_interfere() {
    let mut rng = SplitMix64::new(0xd15);
    for _ in 0..CASES {
        let na = rng.gen_range_in(1, 40);
        let nb = rng.gen_range_in(1, 40);
        let rows_a: Vec<u64> = (0..na).map(|_| rng.gen_range(64)).collect();
        let rows_b: Vec<u64> = (0..nb).map(|_| rng.gen_range(64)).collect();
        let m = MachineConfig::tiny();
        let mut h = CacheHierarchy::new(&m);
        for (ra, rb) in rows_a.iter().zip(rows_b.iter().cycle()) {
            let fa = m.mapping.compose_frame(BankColor(0), LlcColor(0), *ra);
            let fb = m.mapping.compose_frame(BankColor(1), LlcColor(1), *rb);
            for off in (0..4096).step_by(512) {
                h.access(CoreId(0), fa.at(off));
                h.access(CoreId(1), fb.at(off));
            }
        }
        assert_eq!(h.stats().total_llc_interference(), 0);
    }
}

/// The reference model: a set is a `VecDeque<(line, owner)>` in LRU order
/// (front = least recent), with no packing, no occupancy bytes and no
/// shared storage.
struct NaiveCache {
    sets: Vec<VecDeque<(u64, usize)>>,
    assoc: usize,
    line_shift: u32,
    mode: IndexMode,
    hits: u64,
    misses: u64,
}

impl NaiveCache {
    fn new(sets: usize, assoc: usize, line_shift: u32, mode: IndexMode) -> Self {
        Self {
            sets: vec![VecDeque::new(); sets],
            assoc,
            line_shift,
            mode,
            hits: 0,
            misses: 0,
        }
    }

    /// The index functions, written out from their definitions.
    fn set_of(&self, addr: PhysAddr) -> usize {
        let bits = self.sets.len().trailing_zeros();
        let line = addr.0 >> self.line_shift;
        let top = |v: u64, k: u32| {
            if k == 0 {
                0
            } else {
                v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - k)
            }
        };
        (match self.mode {
            IndexMode::Modulo => line % self.sets.len() as u64,
            IndexMode::Hash => top(line, bits),
            IndexMode::ColorHash {
                color_low,
                color_bits,
            } => {
                let color = (addr.0 >> color_low) % (1 << color_bits);
                let below = color_low - self.line_shift;
                let rest = ((addr.0 >> (color_low + color_bits)) << below) | (line % (1 << below));
                (color << (bits - color_bits)) | top(rest, bits - color_bits)
            }
        }) as usize
    }

    fn access(&mut self, core: usize, addr: PhysAddr) -> (bool, Option<(u64, usize)>) {
        let line = addr.0 >> self.line_shift;
        let assoc = self.assoc;
        let set = self.set_of(addr);
        let set = &mut self.sets[set];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            set.remove(pos);
            set.push_back((line, core));
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let victim = if set.len() == assoc {
            set.pop_front()
        } else {
            None
        };
        set.push_back((line, core));
        (false, victim)
    }

    fn probe(&self, addr: PhysAddr) -> bool {
        let line = addr.0 >> self.line_shift;
        self.sets[self.set_of(addr)].iter().any(|&(l, _)| l == line)
    }

    fn invalidate(&mut self, addr: PhysAddr) -> bool {
        let line = addr.0 >> self.line_shift;
        let set = self.set_of(addr);
        let set = &mut self.sets[set];
        set.iter()
            .position(|&(l, _)| l == line)
            .map(|pos| set.remove(pos))
            .is_some()
    }

    fn resident_of(&self, core: usize) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|&&(_, o)| o == core)
            .count()
    }
}

/// A random address from a span a few times the cache's capacity, so sets
/// fill, evict and re-hit.
fn arb_line_addr(rng: &mut SplitMix64, span_lines: u64) -> PhysAddr {
    PhysAddr((rng.gen_range(span_lines) << 6) | rng.gen_range(64))
}

/// `SetAssocCache` is state-identical to the naive model on seeded random
/// access/probe/invalidate streams: same hit/miss, same victim line and
/// owner, same counters, same resident lines per owner — under every index
/// mode, associativity 1–16 and up to 16 owning cores.
#[test]
fn set_assoc_cache_matches_naive_lru_model() {
    let mut rng = SplitMix64::new(0x1A1E);
    let mut foreign_victims = 0;
    for case in 0..240u64 {
        let assoc = 1 + (case % 16) as usize;
        let set_bits = rng.gen_range_in(1, 7) as u32;
        let sets = 1usize << set_bits;
        let cores = rng.gen_range_in(1, 17) as usize;
        let mode = match case % 3 {
            0 => IndexMode::Modulo,
            1 => IndexMode::Hash,
            _ => IndexMode::ColorHash {
                color_low: 12,
                color_bits: rng.gen_range_in(0, set_bits as u64) as u32,
            },
        };
        let mut c = SetAssocCache::with_index_mode(sets, assoc, 6, mode);
        let mut n = NaiveCache::new(sets, assoc, 6, mode);
        let span = (sets * assoc) as u64 * rng.gen_range_in(1, 5);
        for step in 0..3_000 {
            let a = arb_line_addr(&mut rng, span);
            let core = rng.gen_range(cores as u64) as usize;
            let ctx = format!("case {case} ({sets}x{assoc} {mode:?}) step {step}");
            assert_eq!(c.set_index(a), n.set_of(a), "{ctx}: set index");
            match rng.gen_range(10) {
                0 => assert_eq!(c.invalidate(a), n.invalidate(a), "{ctx}: invalidate"),
                1 => assert_eq!(c.probe(a), n.probe(a), "{ctx}: probe"),
                _ => {
                    let (hit, ev) = c.access(CoreId(core), a);
                    let ev = ev.map(|e| (e.line_addr, e.owner.index()));
                    assert_eq!((hit, ev), n.access(core, a), "{ctx}: access");
                    foreign_victims += ev.is_some_and(|(_, o)| o != core) as u64;
                }
            }
        }
        assert_eq!((c.hits(), c.misses()), (n.hits, n.misses), "case {case}");
        let total: usize = n.sets.iter().map(VecDeque::len).sum();
        assert_eq!(c.resident_lines(), total, "case {case}");
        for core in 0..16 {
            assert_eq!(
                c.resident_lines_of(CoreId(core)),
                n.resident_of(core),
                "case {case} owner {core}"
            );
        }
        for &(line, _) in n.sets.iter().flatten() {
            assert!(c.probe(PhysAddr(line << 6)), "case {case}: line {line:#x}");
        }
    }
    assert!(
        foreign_victims > 1_000,
        "streams must evict other owners' lines"
    );
}

/// The three-level walk over naive caches: private L1/L2 per core, a
/// shared L3, fill-on-miss at every level, and a cross-core eviction
/// counter charged to the victim's owner. `stats[core]` holds L1, L2 and
/// L3 hits and misses, then `l3_evicted_by_others`.
struct NaiveHierarchy {
    l1: Vec<NaiveCache>,
    l2: Vec<NaiveCache>,
    l3: NaiveCache,
    lat: [u64; 3],
    stats: Vec<[u64; 7]>,
}

impl NaiveHierarchy {
    fn new(m: &MachineConfig) -> Self {
        let line = m.mapping.line_size();
        let shift = m.mapping.line_shift;
        let cores = m.topology.core_count();
        let private = |lvl: &tint_hw::machine::CacheLevelConfig| {
            (0..cores)
                .map(|_| NaiveCache::new(lvl.sets(line), lvl.assoc, shift, IndexMode::Hash))
                .collect()
        };
        let color = IndexMode::ColorHash {
            color_low: m.mapping.llc_color_low_bit(),
            color_bits: m.mapping.llc_bits,
        };
        Self {
            l1: private(&m.cache.l1),
            l2: private(&m.cache.l2),
            l3: NaiveCache::new(m.cache.l3.sets(line), m.cache.l3.assoc, shift, color),
            lat: [m.cache.l1.latency, m.cache.l2.latency, m.cache.l3.latency],
            stats: vec![[0; 7]; cores],
        }
    }

    fn access(&mut self, core: usize, a: PhysAddr) -> (HitLevel, u64) {
        let [l1, l2, l3] = self.lat;
        let st = &mut self.stats[core];
        let hit = self.l1[core].access(core, a).0;
        st[!hit as usize] += 1;
        if hit {
            return (HitLevel::L1, l1);
        }
        let hit = self.l2[core].access(core, a).0;
        st[2 + !hit as usize] += 1;
        if hit {
            return (HitLevel::L2, l1 + l2);
        }
        let (hit, victim) = self.l3.access(core, a);
        st[4 + !hit as usize] += 1;
        if let Some((_, owner)) = victim.filter(|&(_, o)| o != core) {
            self.stats[owner][6] += 1;
        }
        let level = if hit { HitLevel::L3 } else { HitLevel::Memory };
        (level, l1 + l2 + l3)
    }

    fn probe(&self, core: usize, a: PhysAddr) -> Option<HitLevel> {
        [
            (self.l1[core].probe(a), HitLevel::L1),
            (self.l2[core].probe(a), HitLevel::L2),
            (self.l3.probe(a), HitLevel::L3),
        ]
        .into_iter()
        .find_map(|(held, level)| held.then_some(level))
    }
}

/// `CacheHierarchy` matches the naive three-level model step for step —
/// resolution level and cycles, per-core hit/miss counters at every level,
/// `l3_evicted_by_others`, L3 ownership and probe results — on random
/// streams with same-line repeats, over machines of 2–16 cores and
/// associativities 1–16.
#[test]
fn hierarchy_matches_naive_lru_model() {
    let mut rng = SplitMix64::new(0x41E2);
    let mut interference = 0;
    for case in 0..24u64 {
        let mut m = MachineConfig::tiny();
        m.topology = Topology::new(2, 1, 1 << (case % 4));
        for (lvl, min_sets) in [
            (&mut m.cache.l1, 2),
            (&mut m.cache.l2, 2),
            (&mut m.cache.l3, 8),
        ] {
            lvl.assoc = 1 << rng.gen_range(5);
            lvl.bytes = (min_sets << rng.gen_range(3)) * lvl.assoc as u64 * 64;
        }
        let cores = m.topology.core_count();
        let mut h = CacheHierarchy::new(&m);
        let mut n = NaiveHierarchy::new(&m);
        let span = m.cache.l3.bytes / 64 * 4;
        let mut last = vec![PhysAddr(0); cores];
        for step in 0..6_000 {
            let core = rng.gen_range(cores as u64) as usize;
            let a = if step > 0 && rng.gen_range(3) == 0 {
                last[core]
            } else {
                arb_line_addr(&mut rng, span)
            };
            last[core] = a;
            assert_eq!(
                h.access(CoreId(core), a),
                n.access(core, a),
                "case {case} step {step}"
            );
            let pc = rng.gen_range(cores as u64) as usize;
            assert_eq!(
                h.probe(CoreId(pc), a),
                n.probe(pc, a),
                "case {case} step {step}"
            );
        }
        for c in 0..cores {
            let s = h.stats().core(CoreId(c));
            let got = [
                s.l1_hits,
                s.l1_misses,
                s.l2_hits,
                s.l2_misses,
                s.l3_hits,
                s.l3_misses,
                s.l3_evicted_by_others,
            ];
            assert_eq!(got, n.stats[c], "case {case} core {c}");
            interference += s.l3_evicted_by_others;
            assert_eq!(
                h.l3().resident_lines_of(CoreId(c)),
                n.l3.resident_of(c),
                "case {case} core {c}"
            );
        }
    }
    assert!(interference > 1_000, "streams must interfere in L3");
}
