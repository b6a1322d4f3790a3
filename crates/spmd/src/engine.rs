//! The conservative discrete-event SPMD scheduler.
//!
//! Two interchangeable pipelines execute a section:
//!
//! * The **batched pipeline** (default): section bodies hand the engine
//!   *runs* of operations through [`SectionBody::fill`] (one virtual call
//!   per [`BATCH_OPS`] ops instead of one per op), the scheduler is a
//!   16-leaf winner tree over packed `(clock, index)` keys with a
//!   *still-minimum* fast path (n ≤ 16 threads makes a `BinaryHeap` pure
//!   overhead), and consecutive `Compute` ops are fused into one clock
//!   add. All three specializations preserve the exact
//!   min-clock/tie-by-index execution order, so results are bit-identical
//!   to the reference pipeline (asserted by tests here and by a
//!   figure-level equivalence test in `tint-bench`).
//! * The **reference pipeline**: the original one-op-at-a-time
//!   `BinaryHeap` loop, kept as the semantic baseline. Export
//!   `TINT_REFERENCE_PIPELINE=1` to route every section through it.
//!
//! Why the still-minimum fast path is safe: after thread *i* executes an
//! operation, the heap loop would push `(clock_i, i)` back and immediately
//! pop the global minimum. If `(clock_i, i)` is still lexicographically
//! smaller than every other runnable thread's `(clock, index)` key, that
//! pop returns *i* again — so the batched pipeline just keeps draining
//! thread *i* and only re-picks when its key rises past the runner-up's.
//! Why compute fusion is safe: `Compute` ops touch nothing but the local
//! clock, and the memory system observes only `(access order, issue
//! cycle)` pairs, which depend on clock values alone — summing consecutive
//! compute increments changes neither.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tint_hw::profile::{self, Component};
use tint_hw::types::{CoreId, Rw, VirtAddr};
use tint_kernel::{Errno, Tid};
use tintmalloc::System;

/// A simulated thread: a kernel task pinned to a core plus a local clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimThread {
    /// Kernel task id.
    pub tid: Tid,
    /// Core the thread is pinned to.
    pub core: CoreId,
    /// Local clock in cycles.
    pub clock: u64,
}

impl SimThread {
    /// Spawn an OpenMP-style team: the first core gets the group leader (a
    /// fresh address space); the rest are threads sharing that space.
    pub fn spawn_all(sys: &mut System, cores: &[CoreId]) -> Vec<SimThread> {
        assert!(!cores.is_empty());
        let leader = sys.spawn(cores[0]);
        let mut team = vec![SimThread {
            tid: leader,
            core: cores[0],
            clock: 0,
        }];
        for &core in &cores[1..] {
            team.push(SimThread {
                tid: sys.spawn_thread(core, leader).expect("leader exists"),
                core,
                clock: 0,
            });
        }
        team
    }
}

/// One operation of a thread's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Pure computation: advance the thread clock by `cycles`.
    Compute(u64),
    /// One memory reference.
    Access {
        /// Virtual address touched.
        addr: VirtAddr,
        /// Load or store.
        rw: Rw,
    },
}

/// Ops the engine requests per [`SectionBody::fill`] call. Large enough to
/// amortize the virtual call, small enough to stay in L1 (64 × 24 B).
pub const BATCH_OPS: usize = 64;

/// A thread's work within one parallel (or serial) section, pulled in
/// batches (or operation-by-operation) so huge traces never materialize.
pub trait SectionBody {
    /// The next operation, or `None` when the thread reaches the barrier.
    fn next_op(&mut self) -> Option<Op>;

    /// Bulk variant: write upcoming ops into `buf` and return how many were
    /// written. **Contract:** a return value shorter than `buf.len()`
    /// (including 0) means the body is exhausted — the engine will not call
    /// again. The default implementation delegates to [`Self::next_op`]
    /// (stopping at its first `None`), which upholds the contract and, for
    /// concrete body types behind `Box<dyn SectionBody>`, monomorphizes the
    /// whole batch loop into one virtual call.
    fn fill(&mut self, buf: &mut [Op]) -> usize {
        let mut n = 0;
        while n < buf.len() {
            match self.next_op() {
                Some(op) => {
                    buf[n] = op;
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// Blanket impl so closures/iterators can be used as bodies in tests.
impl<I: Iterator<Item = Op>> SectionBody for I {
    fn next_op(&mut self) -> Option<Op> {
        self.next()
    }
}

/// Route sections through the reference (one-op-at-a-time heap) pipeline?
/// Checked once per section, so the env lookup never sits on a hot path.
/// Public because the `tint-bench` cell cache folds this mode into its
/// memoization key: the two pipelines are asserted bit-identical, but a
/// cache that served a reference-mode request from a batched-mode result
/// would make that very assertion vacuous.
pub fn reference_pipeline() -> bool {
    std::env::var_os("TINT_REFERENCE_PIPELINE").is_some_and(|v| v == "1")
}

/// How parallel sections execute memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Every access runs the full timing model (the default; figure
    /// output in this mode is bit-identical to the reference pipeline).
    Exact,
    /// Functional warm-up (TLB + cache state updated, latency estimated
    /// from a running per-core mean) interleaved with exact detailed
    /// measurement windows on a seeded deterministic schedule. Measured at
    /// 1.1× the speed of exact mode at its default warm-touch setting, the
    /// only setting that holds the 2 % ratio bound (EXPERIMENTS.md, fig11/
    /// fig12 at 16t4n on a 1-vCPU host); validated against exact mode by
    /// `repro validate-sampled`. `TINT_REFERENCE_PIPELINE=1` overrides it
    /// (the reference pipeline is always exact), and serial and dynamic
    /// sections always run exact.
    Sampled,
}

/// Process-global engine mode, initialized from `TINT_ENGINE` on first
/// read (`exact`/unset or `sampled`) and overridable programmatically —
/// the `validate-sampled` differential needs to flip modes mid-process.
static ENGINE_MODE: std::sync::OnceLock<std::sync::atomic::AtomicU8> = std::sync::OnceLock::new();

fn engine_mode_cell() -> &'static std::sync::atomic::AtomicU8 {
    ENGINE_MODE.get_or_init(|| {
        std::sync::atomic::AtomicU8::new(match std::env::var_os("TINT_ENGINE") {
            None => 0,
            Some(v) if v == "exact" => 0,
            Some(v) if v == "sampled" => 1,
            Some(v) => panic!("TINT_ENGINE must be `exact` or `sampled`, got {v:?}"),
        })
    })
}

/// The current engine mode. Checked once per section; also folded into the
/// `tint-bench` cell-cache key so sampled and exact results never mix.
pub fn engine_mode() -> EngineMode {
    if engine_mode_cell().load(std::sync::atomic::Ordering::Relaxed) == 1 {
        EngineMode::Sampled
    } else {
        EngineMode::Exact
    }
}

/// Override the engine mode for this process (wins over `TINT_ENGINE`).
pub fn set_engine_mode(mode: EngineMode) {
    engine_mode_cell().store(
        match mode {
            EngineMode::Exact => 0,
            EngineMode::Sampled => 1,
        },
        std::sync::atomic::Ordering::Relaxed,
    );
}

/// Sampled-mode schedule knobs: detailed-window length and period (both in
/// accesses per core), the schedule seed, and the warm-touch stride (one
/// in this many warm-up accesses walks the hierarchy; `1` = every one),
/// from `TINT_SAMPLE_WINDOW` / `TINT_SAMPLE_PERIOD` / `TINT_SAMPLE_SEED` /
/// `TINT_SAMPLE_WARM_TOUCH`. Read once per section.
fn sampling_knobs() -> (u64, u64, u64, u64) {
    let parse = |name: &str, default: u64| -> u64 {
        match std::env::var(name) {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("{name} must be an integer, got {v:?}")),
            Err(_) => default,
        }
    };
    let window = parse("TINT_SAMPLE_WINDOW", 256).max(1);
    let period = parse("TINT_SAMPLE_PERIOD", 8_192).max(window);
    let seed = parse("TINT_SAMPLE_SEED", 0x5A3D);
    // Default stride 1: every warm-up access walks the hierarchy for real
    // (exact state and latency; only bookkeeping is skipped). Strides > 1
    // replay ring latencies for TLB-resident repeats — faster, but skipped
    // walks starve cache/DRAM state and the figure-ratio error grows
    // quickly; `repro validate-sampled` measures exactly that drift.
    let warm_touch = parse("TINT_SAMPLE_WARM_TOUCH", 1).max(1);
    (window, period, seed, warm_touch)
}

/// Per-thread batch cursor over a section body.
struct BodyCursor {
    buf: [Op; BATCH_OPS],
    /// Valid ops in `buf`.
    len: usize,
    /// Next op to execute.
    cur: usize,
    /// The last `fill` came back short: the body is exhausted once `cur`
    /// reaches `len`.
    exhausted: bool,
}

impl BodyCursor {
    fn new() -> Self {
        Self {
            buf: [Op::Compute(0); BATCH_OPS],
            len: 0,
            cur: 0,
            exhausted: false,
        }
    }

    /// Refill from `body`. Returns `false` when the body had no further ops.
    fn refill(&mut self, body: &mut (dyn SectionBody + '_)) -> bool {
        self.len = body.fill(&mut self.buf);
        self.cur = 0;
        self.exhausted = self.len < BATCH_OPS;
        self.len > 0
    }
}

/// Max threads the winner-tree scheduler handles; larger teams fall back to
/// the reference heap. 16 is the evaluation machine's core count and leaves
/// 4 index bits in the packed key.
const TREE_LEAVES: usize = 16;

/// Pack a thread's scheduling key: `(clock, index)` lexicographic order
/// becomes plain `u64` order. Clocks stay far below 2^60 (simulations run
/// ~10^10 cycles), asserted in debug builds.
#[inline(always)]
fn pack_key(clock: u64, i: usize) -> u64 {
    debug_assert!(clock < 1 << 60);
    (clock << 4) | i as u64
}

/// A tournament (winner) tree over up to [`TREE_LEAVES`] packed keys:
/// leaves live at `t[16..32]`, node `k` holds the min of `t[2k]` and
/// `t[2k + 1]`, and the root `t[1]` is the global minimum. Dead threads
/// and unused leaves hold `u64::MAX`. Keys are unique (the index lives in
/// the low bits), so the minimum and the runner-up — the min of the four
/// siblings on the winner's leaf-to-root path — are exactly what a flat
/// scan over the keys would return.
struct WinnerTree {
    t: [u64; 2 * TREE_LEAVES],
}

impl WinnerTree {
    /// Build over `threads`' current `(clock, index)` keys.
    fn new(threads: &[SimThread]) -> Self {
        debug_assert!(threads.len() <= TREE_LEAVES);
        let mut t = [u64::MAX; 2 * TREE_LEAVES];
        for (i, th) in threads.iter().enumerate() {
            t[TREE_LEAVES + i] = pack_key(th.clock, i);
        }
        for k in (1..TREE_LEAVES).rev() {
            t[k] = t[2 * k].min(t[2 * k + 1]);
        }
        Self { t }
    }

    /// The global minimum key and the runner-up (`u64::MAX` when no second
    /// live key exists). Only meaningful while some key is live.
    #[inline]
    fn min2(&self) -> (u64, u64) {
        let m1 = self.t[1];
        let mut k = TREE_LEAVES + (m1 & 0xF) as usize;
        let mut m2 = u64::MAX;
        for _ in 0..4 {
            m2 = m2.min(self.t[k ^ 1]);
            k >>= 1;
        }
        (m1, m2)
    }

    /// Replace thread `i`'s key and replay its four matches.
    #[inline]
    fn set(&mut self, i: usize, key: u64) {
        let mut k = TREE_LEAVES + i;
        self.t[k] = key;
        for _ in 0..4 {
            k >>= 1;
            self.t[k] = self.t[2 * k].min(self.t[2 * k + 1]);
        }
    }
}

/// Run one parallel section: each thread executes its body to completion;
/// the section ends at the implicit barrier. Returns each thread's end time
/// (the engine caller computes idle per Algorithm 3).
///
/// Determinism: the runnable thread with the smallest clock executes its
/// next operation; ties break by thread index.
pub fn run_section(
    sys: &mut System,
    threads: &mut [SimThread],
    bodies: &mut [Box<dyn SectionBody + '_>],
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let t0 = profile::start();
    let r = if reference_pipeline() {
        run_section_reference(sys, threads, bodies, ops_budget)
    } else if engine_mode() == EngineMode::Sampled {
        run_section_sampled(sys, threads, bodies, ops_budget)
    } else {
        run_section_batched(sys, threads, bodies, ops_budget)
    };
    profile::stop(Component::Engine, t0);
    r
}

fn run_section_batched(
    sys: &mut System,
    threads: &mut [SimThread],
    bodies: &mut [Box<dyn SectionBody + '_>],
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    assert_eq!(threads.len(), bodies.len(), "one body per thread");
    let n = threads.len();
    if n > TREE_LEAVES {
        return run_section_reference(sys, threads, bodies, ops_budget);
    }
    let mut end = vec![0u64; n];
    let mut tree = WinnerTree::new(threads);
    let mut live = n;
    let mut cursors: Vec<BodyCursor> = (0..n).map(|_| BodyCursor::new()).collect();
    let mut ops = 0u64;
    while live > 0 {
        let (m1, runner_up) = tree.min2();
        let i = (m1 & 0xF) as usize;
        let tid = threads[i].tid;
        let mut clock = threads[i].clock;
        let cur = &mut cursors[i];
        let body = bodies[i].as_mut();
        // Drain thread i while it remains the min-clock thread.
        loop {
            if cur.cur == cur.len && (cur.exhausted || !cur.refill(body)) {
                // The reference loop's final `None` pop.
                ops += 1;
                assert!(
                    ops <= ops_budget,
                    "section exceeded its operation budget ({ops_budget}); runaway body?"
                );
                end[i] = clock;
                tree.set(i, u64::MAX);
                live -= 1;
                break;
            }
            let batch = &cur.buf[..cur.len];
            match batch[cur.cur] {
                Op::Compute(c) => {
                    // Fuse the run of consecutive Compute ops: no memory
                    // side effects, so one clock add covers them all.
                    cur.cur += 1;
                    ops += 1;
                    let mut add = c;
                    while cur.cur < cur.len {
                        let Op::Compute(c2) = batch[cur.cur] else {
                            break;
                        };
                        add += c2;
                        cur.cur += 1;
                        ops += 1;
                    }
                    clock += add;
                }
                Op::Access { addr, rw } => {
                    cur.cur += 1;
                    ops += 1;
                    let ta = profile::start();
                    let acc = match sys.access(tid, addr, rw, clock) {
                        Ok(a) => a,
                        Err(e) => {
                            threads[i].clock = clock;
                            return Err(e);
                        }
                    };
                    profile::stop(Component::Access, ta);
                    clock += acc.latency;
                }
            }
            assert!(
                ops <= ops_budget,
                "section exceeded its operation budget ({ops_budget}); runaway body?"
            );
            // Still-minimum fast path: one compare against the runner-up.
            let key = pack_key(clock, i);
            if key >= runner_up {
                tree.set(i, key);
                break;
            }
        }
        threads[i].clock = clock;
    }
    // The implicit barrier: every thread resumes at the latest end time.
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// The sampled parallel-section driver: the batched scheduler, but each
/// access first consults the per-core sampling schedule — inside a
/// detailed window it runs the exact pipeline ([`System::access`], which
/// also feeds the latency estimator), outside it runs the functional
/// warm-up ([`System::access_estimated`]: real TLB and cache state, DRAM
/// latency replaced by the running per-core mean). Deterministic for a
/// given seed/window/period regardless of host job count — the schedule is
/// pure per-core counter state inside the `System`. Teams wider than the
/// winner-tree scheduler fall back to the (exact) reference pipeline.
fn run_section_sampled(
    sys: &mut System,
    threads: &mut [SimThread],
    bodies: &mut [Box<dyn SectionBody + '_>],
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    assert_eq!(threads.len(), bodies.len(), "one body per thread");
    let n = threads.len();
    if n > TREE_LEAVES {
        return run_section_reference(sys, threads, bodies, ops_budget);
    }
    let (window, period, seed, warm_touch) = sampling_knobs();
    sys.configure_sampling(window, period, seed, warm_touch);
    let mut end = vec![0u64; n];
    let mut tree = WinnerTree::new(threads);
    let mut live = n;
    let mut cursors: Vec<BodyCursor> = (0..n).map(|_| BodyCursor::new()).collect();
    let mut ops = 0u64;
    while live > 0 {
        let (m1, runner_up) = tree.min2();
        let i = (m1 & 0xF) as usize;
        let tid = threads[i].tid;
        let core = threads[i].core;
        let mut clock = threads[i].clock;
        let cur = &mut cursors[i];
        let body = bodies[i].as_mut();
        loop {
            if cur.cur == cur.len && (cur.exhausted || !cur.refill(body)) {
                ops += 1;
                assert!(
                    ops <= ops_budget,
                    "section exceeded its operation budget ({ops_budget}); runaway body?"
                );
                end[i] = clock;
                tree.set(i, u64::MAX);
                live -= 1;
                break;
            }
            let batch = &cur.buf[..cur.len];
            match batch[cur.cur] {
                Op::Compute(c) => {
                    cur.cur += 1;
                    ops += 1;
                    let mut add = c;
                    while cur.cur < cur.len {
                        let Op::Compute(c2) = batch[cur.cur] else {
                            break;
                        };
                        add += c2;
                        cur.cur += 1;
                        ops += 1;
                    }
                    clock += add;
                }
                Op::Access { addr, rw } => {
                    cur.cur += 1;
                    ops += 1;
                    let ta = profile::start();
                    let r = if sys.sample_is_detailed(core) {
                        let td = profile::start();
                        let r = sys.access(tid, addr, rw, clock);
                        profile::stop(Component::Detailed, td);
                        r
                    } else {
                        let tw = profile::start();
                        let r = sys.access_estimated(tid, addr, rw, clock);
                        profile::stop(Component::Warmup, tw);
                        r
                    };
                    let acc = match r {
                        Ok(a) => a,
                        Err(e) => {
                            threads[i].clock = clock;
                            return Err(e);
                        }
                    };
                    profile::stop(Component::Access, ta);
                    clock += acc.latency;
                }
            }
            assert!(
                ops <= ops_budget,
                "section exceeded its operation budget ({ops_budget}); runaway body?"
            );
            let key = pack_key(clock, i);
            if key >= runner_up {
                tree.set(i, key);
                break;
            }
        }
        threads[i].clock = clock;
    }
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// The reference parallel-section pipeline: one op at a time through a
/// min-heap. Semantically authoritative; the batched pipeline must match it
/// bit for bit.
pub fn run_section_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    bodies: &mut [Box<dyn SectionBody + '_>],
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    assert_eq!(threads.len(), bodies.len(), "one body per thread");
    let n = threads.len();
    let mut end = vec![0u64; n];
    // Min-heap of (clock, thread index).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((threads[i].clock, i))).collect();
    let mut ops = 0u64;
    while let Some(Reverse((clock, i))) = heap.pop() {
        debug_assert_eq!(clock, threads[i].clock);
        match bodies[i].next_op() {
            Some(Op::Compute(c)) => {
                threads[i].clock += c;
                heap.push(Reverse((threads[i].clock, i)));
            }
            Some(Op::Access { addr, rw }) => {
                let ta = profile::start();
                let acc = sys.access(threads[i].tid, addr, rw, threads[i].clock)?;
                profile::stop(Component::Access, ta);
                threads[i].clock += acc.latency;
                heap.push(Reverse((threads[i].clock, i)));
            }
            None => {
                end[i] = threads[i].clock;
            }
        }
        ops += 1;
        assert!(
            ops <= ops_budget,
            "section exceeded its operation budget ({ops_budget}); runaway body?"
        );
    }
    // The implicit barrier: every thread resumes at the latest end time.
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// Run a parallel section with **dynamic scheduling** (OpenMP
/// `schedule(dynamic)`): `chunks` is a shared work queue; every thread pulls
/// the next chunk when it finishes its current one, and the section ends
/// when the queue drains and every thread reaches the barrier. Determinism:
/// chunks are handed out in queue order to whichever thread asks first under
/// the min-clock rule (ties by thread index).
pub fn run_section_dynamic(
    sys: &mut System,
    threads: &mut [SimThread],
    chunks: std::collections::VecDeque<Box<dyn SectionBody + '_>>,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let t0 = profile::start();
    let r = if reference_pipeline() {
        run_section_dynamic_reference(sys, threads, chunks, ops_budget)
    } else {
        run_section_dynamic_batched(sys, threads, chunks, ops_budget)
    };
    profile::stop(Component::Engine, t0);
    r
}

fn run_section_dynamic_batched<'b>(
    sys: &mut System,
    threads: &mut [SimThread],
    mut chunks: std::collections::VecDeque<Box<dyn SectionBody + 'b>>,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let n = threads.len();
    if n > TREE_LEAVES {
        return run_section_dynamic_reference(sys, threads, chunks, ops_budget);
    }
    let mut end = vec![0u64; n];
    let mut current: Vec<Option<Box<dyn SectionBody + 'b>>> = (0..n).map(|_| None).collect();
    let mut cursors: Vec<BodyCursor> = (0..n).map(|_| BodyCursor::new()).collect();
    let mut tree = WinnerTree::new(threads);
    let mut live = n;
    let mut ops = 0u64;
    'threads: while live > 0 {
        let (m1, runner_up) = tree.min2();
        let i = (m1 & 0xF) as usize;
        let tid = threads[i].tid;
        let mut clock = threads[i].clock;
        let cur = &mut cursors[i];
        // Drain thread i (pulling chunks as needed) while it stays minimal.
        loop {
            if cur.cur == cur.len {
                // Current chunk batch consumed: charge the reference loop's
                // chunk-finishing `None` op, then pull queue chunks until
                // one yields ops. A finishing/pulling thread keeps its clock,
                // so it stays the minimum throughout (as the reference
                // re-push/re-pop does).
                loop {
                    if cur.exhausted {
                        cur.exhausted = false;
                        cur.len = 0;
                        cur.cur = 0;
                        current[i] = None;
                        ops += 1;
                        assert!(
                            ops <= ops_budget,
                            "dynamic section exceeded its operation budget ({ops_budget})"
                        );
                    }
                    if current[i].is_none() {
                        current[i] = chunks.pop_front();
                        if current[i].is_none() {
                            // Queue drained: this thread is done (the
                            // reference loop's `continue` — not an op).
                            threads[i].clock = clock;
                            end[i] = clock;
                            tree.set(i, u64::MAX);
                            live -= 1;
                            continue 'threads;
                        }
                    }
                    if cur.refill(current[i].as_mut().unwrap().as_mut()) {
                        break;
                    }
                    // Empty fill: the chunk was already exhausted;
                    // `cur.exhausted` is set, so loop to charge its None op
                    // and pull the next chunk.
                }
            }
            let batch = &cur.buf[..cur.len];
            match batch[cur.cur] {
                Op::Compute(c) => {
                    cur.cur += 1;
                    ops += 1;
                    let mut add = c;
                    while cur.cur < cur.len {
                        let Op::Compute(c2) = batch[cur.cur] else {
                            break;
                        };
                        add += c2;
                        cur.cur += 1;
                        ops += 1;
                    }
                    clock += add;
                }
                Op::Access { addr, rw } => {
                    cur.cur += 1;
                    ops += 1;
                    let ta = profile::start();
                    let acc = match sys.access(tid, addr, rw, clock) {
                        Ok(a) => a,
                        Err(e) => {
                            threads[i].clock = clock;
                            return Err(e);
                        }
                    };
                    profile::stop(Component::Access, ta);
                    clock += acc.latency;
                }
            }
            assert!(
                ops <= ops_budget,
                "dynamic section exceeded its operation budget ({ops_budget})"
            );
            let key = pack_key(clock, i);
            if key >= runner_up {
                tree.set(i, key);
                break;
            }
        }
        threads[i].clock = clock;
    }
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// The reference dynamic-section pipeline (one op at a time, min-heap).
pub fn run_section_dynamic_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    mut chunks: std::collections::VecDeque<Box<dyn SectionBody + '_>>,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let n = threads.len();
    let mut end = vec![0u64; n];
    let mut current: Vec<Option<Box<dyn SectionBody + '_>>> = (0..n).map(|_| None).collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((threads[i].clock, i))).collect();
    let mut ops = 0u64;
    while let Some(Reverse((_, i))) = heap.pop() {
        // Ensure the thread has a chunk; pull the next one if needed.
        if current[i].is_none() {
            current[i] = chunks.pop_front();
        }
        let Some(body) = current[i].as_mut() else {
            end[i] = threads[i].clock; // queue drained: this thread is done
            continue;
        };
        match body.next_op() {
            Some(Op::Compute(c)) => threads[i].clock += c,
            Some(Op::Access { addr, rw }) => {
                let ta = profile::start();
                let acc = sys.access(threads[i].tid, addr, rw, threads[i].clock)?;
                profile::stop(Component::Access, ta);
                threads[i].clock += acc.latency;
            }
            None => {
                current[i] = None; // chunk finished; try the queue next turn
            }
        }
        heap.push(Reverse((threads[i].clock, i)));
        ops += 1;
        assert!(
            ops <= ops_budget,
            "dynamic section exceeded its operation budget ({ops_budget})"
        );
    }
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// Run a serial section on the master (index 0); the other threads simply
/// wait (their clocks move to the master's end — serial time is excluded
/// from idle accounting, as in the paper's Algorithm 3 instrumentation).
pub fn run_serial(
    sys: &mut System,
    threads: &mut [SimThread],
    body: &mut (dyn SectionBody + '_),
    ops_budget: u64,
) -> Result<u64, Errno> {
    let t0 = profile::start();
    let r = if reference_pipeline() {
        run_serial_reference(sys, threads, body, ops_budget)
    } else {
        run_serial_batched(sys, threads, body, ops_budget)
    };
    profile::stop(Component::Engine, t0);
    r
}

fn run_serial_batched(
    sys: &mut System,
    threads: &mut [SimThread],
    body: &mut (dyn SectionBody + '_),
    ops_budget: u64,
) -> Result<u64, Errno> {
    let tid = threads[0].tid;
    let mut clock = threads[0].clock;
    let mut buf = [Op::Compute(0); BATCH_OPS];
    let mut ops = 0u64;
    loop {
        let len = body.fill(&mut buf);
        let mut k = 0;
        while k < len {
            match buf[k] {
                Op::Compute(c) => {
                    k += 1;
                    ops += 1;
                    let mut add = c;
                    while k < len {
                        let Op::Compute(c2) = buf[k] else { break };
                        add += c2;
                        k += 1;
                        ops += 1;
                    }
                    clock += add;
                }
                Op::Access { addr, rw } => {
                    k += 1;
                    ops += 1;
                    let ta = profile::start();
                    let acc = sys.access(tid, addr, rw, clock)?;
                    profile::stop(Component::Access, ta);
                    clock += acc.latency;
                }
            }
            assert!(ops <= ops_budget, "serial section exceeded its budget");
        }
        if len < BATCH_OPS {
            break;
        }
    }
    for t in threads.iter_mut() {
        t.clock = clock;
    }
    Ok(clock)
}

/// The reference serial-section pipeline (one op at a time).
pub fn run_serial_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    body: &mut (dyn SectionBody + '_),
    ops_budget: u64,
) -> Result<u64, Errno> {
    let master = &mut threads[0];
    let mut ops = 0u64;
    while let Some(op) = body.next_op() {
        match op {
            Op::Compute(c) => master.clock += c,
            Op::Access { addr, rw } => {
                let ta = profile::start();
                let acc = sys.access(master.tid, addr, rw, master.clock)?;
                profile::stop(Component::Access, ta);
                master.clock += acc.latency;
            }
        }
        ops += 1;
        assert!(ops <= ops_budget, "serial section exceeded its budget");
    }
    let end = threads[0].clock;
    for t in threads.iter_mut() {
        t.clock = end;
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_hw::machine::MachineConfig;

    fn setup(n: usize) -> (System, Vec<SimThread>) {
        let mut sys = System::boot(MachineConfig::tiny());
        let cores: Vec<_> = (0..n).map(CoreId).collect();
        let threads = SimThread::spawn_all(&mut sys, &cores);
        (sys, threads)
    }

    fn compute_body(steps: u64, each: u64) -> Box<dyn SectionBody + 'static> {
        Box::new((0..steps).map(move |_| Op::Compute(each)))
    }

    #[test]
    fn pure_compute_section_ends_deterministically() {
        let (mut sys, mut threads) = setup(2);
        let mut bodies = vec![compute_body(10, 100), compute_body(5, 100)];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 1_000).unwrap();
        assert_eq!(end, vec![1000, 500]);
        // Barrier: both clocks jump to the max.
        assert!(threads.iter().all(|t| t.clock == 1000));
    }

    #[test]
    fn idle_is_max_minus_end() {
        let (mut sys, mut threads) = setup(2);
        let mut bodies = vec![compute_body(4, 100), compute_body(1, 100)];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 1_000).unwrap();
        let max = *end.iter().max().unwrap();
        let idle: Vec<u64> = end.iter().map(|e| max - e).collect();
        assert_eq!(idle, vec![0, 300], "Algorithm 3");
    }

    #[test]
    fn access_ops_advance_by_latency() {
        let (mut sys, mut threads) = setup(1);
        let t = threads[0].tid;
        let a = sys.malloc(t, 4096).unwrap();
        let mut bodies: Vec<Box<dyn SectionBody>> = vec![Box::new(
            [
                Op::Access {
                    addr: a,
                    rw: Rw::Write,
                },
                Op::Access {
                    addr: a,
                    rw: Rw::Read,
                },
            ]
            .into_iter(),
        )];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 100).unwrap();
        assert!(end[0] > 0);
        let st = sys.mem().stats().core(CoreId(0));
        assert_eq!(st.accesses, 2);
    }

    #[test]
    fn interleaving_is_clock_ordered() {
        // A fast thread issues many cheap ops while a slow one issues few
        // expensive ones; both make progress and end at their own times.
        let (mut sys, mut threads) = setup(2);
        let mut bodies = vec![compute_body(100, 1), compute_body(2, 500)];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 10_000).unwrap();
        assert_eq!(end, vec![100, 1000]);
    }

    #[test]
    fn serial_section_runs_on_master_only() {
        let (mut sys, mut threads) = setup(2);
        let mut body = (0..3).map(|_| Op::Compute(100));
        let end = run_serial(&mut sys, &mut threads, &mut body, 100).unwrap();
        assert_eq!(end, 300);
        assert!(threads.iter().all(|t| t.clock == 300));
    }

    #[test]
    fn sections_resume_from_barrier_time() {
        let (mut sys, mut threads) = setup(2);
        let mut b1 = vec![compute_body(1, 700), compute_body(1, 100)];
        run_section(&mut sys, &mut threads, &mut b1, 100).unwrap();
        let mut b2 = vec![compute_body(1, 50), compute_body(1, 50)];
        let end = run_section(&mut sys, &mut threads, &mut b2, 100).unwrap();
        assert_eq!(end, vec![750, 750]);
    }

    #[test]
    #[should_panic(expected = "operation budget")]
    fn runaway_body_trips_budget() {
        let (mut sys, mut threads) = setup(1);
        let mut bodies: Vec<Box<dyn SectionBody>> =
            vec![Box::new(std::iter::repeat(Op::Compute(1)))];
        let _ = run_section(&mut sys, &mut threads, &mut bodies, 10);
    }

    #[test]
    #[should_panic(expected = "operation budget")]
    fn runaway_body_trips_budget_reference() {
        let (mut sys, mut threads) = setup(1);
        let mut bodies: Vec<Box<dyn SectionBody>> =
            vec![Box::new(std::iter::repeat(Op::Compute(1)))];
        let _ = run_section_reference(&mut sys, &mut threads, &mut bodies, 10);
    }

    #[test]
    fn empty_bodies_end_immediately() {
        let (mut sys, mut threads) = setup(2);
        let mut bodies: Vec<Box<dyn SectionBody>> =
            vec![Box::new(std::iter::empty()), Box::new(std::iter::empty())];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 10).unwrap();
        assert_eq!(end, vec![0, 0]);
    }

    #[test]
    fn dynamic_scheduling_balances_imbalanced_chunks() {
        // 8 chunks of very different sizes over 2 threads. Static pairing
        // (0..4 vs 4..8) would idle one thread heavily; dynamic pulls from
        // the queue and ends nearly balanced.
        let sizes = [800u64, 100, 100, 100, 100, 100, 100, 100];
        let mk =
            |s: u64| -> Box<dyn SectionBody + 'static> { Box::new((0..s).map(|_| Op::Compute(1))) };
        let (mut sys, mut threads) = setup(2);
        let chunks: std::collections::VecDeque<_> = sizes.iter().map(|&s| mk(s)).collect();
        let end = run_section_dynamic(&mut sys, &mut threads, chunks, 100_000).unwrap();
        let max = *end.iter().max().unwrap();
        let min = *end.iter().min().unwrap();
        // Thread 0 takes the 800-chunk; thread 1 drains the seven
        // 100-chunks (700) in the meantime: 800 vs 700 — near-balanced,
        // where a static 4+4 split would be 1100 vs 300.
        assert_eq!(max, 800);
        assert_eq!(min, 700);
    }

    #[test]
    fn dynamic_with_fewer_chunks_than_threads() {
        let (mut sys, mut threads) = setup(4);
        let chunks: std::collections::VecDeque<Box<dyn SectionBody>> =
            vec![compute_body(3, 10), compute_body(1, 10)]
                .into_iter()
                .collect();
        let end = run_section_dynamic(&mut sys, &mut threads, chunks, 1000).unwrap();
        assert_eq!(
            end.iter().filter(|&&e| e > 0).count(),
            2,
            "2 threads worked"
        );
        assert!(threads.iter().all(|t| t.clock == 30), "barrier at max end");
    }

    #[test]
    fn dynamic_empty_queue_ends_immediately() {
        let (mut sys, mut threads) = setup(2);
        let end = run_section_dynamic(
            &mut sys,
            &mut threads,
            std::collections::VecDeque::new(),
            10,
        )
        .unwrap();
        assert_eq!(end, vec![0, 0]);
    }

    #[test]
    fn dynamic_is_deterministic() {
        let run = || {
            let (mut sys, mut threads) = setup(3);
            let chunks: std::collections::VecDeque<Box<dyn SectionBody>> =
                (0..9).map(|i| compute_body(i % 4 + 1, 50)).collect();
            run_section_dynamic(&mut sys, &mut threads, chunks, 10_000).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let (mut sys, mut threads) = setup(4);
            // Each thread writes its own array: contention at the controller.
            let mut bodies: Vec<Box<dyn SectionBody>> = Vec::new();
            let addrs: Vec<_> = threads
                .iter()
                .map(|t| sys.malloc(t.tid, 16 * 4096).unwrap())
                .collect();
            for a in addrs {
                bodies.push(Box::new((0..64u64).map(move |i| Op::Access {
                    addr: a.offset(i * 1024 % (16 * 4096)),
                    rw: Rw::Write,
                })));
            }
            run_section(&mut sys, &mut threads, &mut bodies, 100_000).unwrap()
        };
        assert_eq!(run(), run(), "bit-identical repeat runs");
    }

    /// Build the mixed-op body set used by the pipeline-equivalence tests:
    /// per-thread streams with irregular compute runs (including
    /// consecutive computes to exercise fusion, and zero-cycle computes to
    /// exercise tie-breaking) interleaved with real memory accesses.
    fn mixed_bodies(
        sys: &mut System,
        threads: &[SimThread],
        seed: u64,
    ) -> Vec<Box<dyn SectionBody + 'static>> {
        use tint_hw::rng::SplitMix64;
        let mut bodies: Vec<Box<dyn SectionBody>> = Vec::new();
        for (ti, t) in threads.iter().enumerate() {
            let a = sys.malloc(t.tid, 32 * 4096).unwrap();
            let mut rng = SplitMix64::new(seed ^ (ti as u64).wrapping_mul(0x9E37));
            let ops: Vec<Op> = (0..300)
                .map(|_| match rng.gen_range(5) {
                    0 => Op::Compute(rng.gen_range(200)),
                    1 => Op::Compute(0),
                    2 => Op::Compute(rng.gen_range(7)),
                    _ => Op::Access {
                        addr: a.offset(rng.gen_range(32 * 4096 / 64) * 64),
                        rw: if rng.gen_range(3) == 0 {
                            Rw::Write
                        } else {
                            Rw::Read
                        },
                    },
                })
                .collect();
            bodies.push(Box::new(ops.into_iter()));
        }
        bodies
    }

    #[test]
    fn batched_section_matches_reference_bit_for_bit() {
        for seed in 0..4u64 {
            let (mut sys_a, mut thr_a) = setup(4);
            let mut bodies_a = mixed_bodies(&mut sys_a, &thr_a, seed);
            let end_a =
                run_section_batched(&mut sys_a, &mut thr_a, &mut bodies_a, 1_000_000).unwrap();

            let (mut sys_b, mut thr_b) = setup(4);
            let mut bodies_b = mixed_bodies(&mut sys_b, &thr_b, seed);
            let end_b =
                run_section_reference(&mut sys_b, &mut thr_b, &mut bodies_b, 1_000_000).unwrap();

            assert_eq!(end_a, end_b, "seed {seed}: end times diverge");
            assert_eq!(thr_a, thr_b, "seed {seed}: barrier clocks diverge");
            for c in 0..4 {
                let (a, b) = (
                    sys_a.mem().stats().core(CoreId(c)),
                    sys_b.mem().stats().core(CoreId(c)),
                );
                assert_eq!(a.accesses, b.accesses, "seed {seed} core {c}");
                assert_eq!(a.total_latency, b.total_latency, "seed {seed} core {c}");
            }
            assert_eq!(
                sys_a.mem().dram().stats().requests,
                sys_b.mem().dram().stats().requests
            );
            assert_eq!(
                sys_a.mem().dram().stats().total_latency,
                sys_b.mem().dram().stats().total_latency,
                "seed {seed}: DRAM timing state diverged"
            );
        }
    }

    #[test]
    fn batched_dynamic_matches_reference_bit_for_bit() {
        use tint_hw::rng::SplitMix64;
        let build_chunks = |sys: &mut System,
                            threads: &[SimThread],
                            seed: u64|
         -> std::collections::VecDeque<Box<dyn SectionBody + 'static>> {
            let a = sys.malloc(threads[0].tid, 64 * 4096).unwrap();
            let mut rng = SplitMix64::new(seed);
            (0..13)
                .map(|ci| {
                    let ops: Vec<Op> = (0..rng.gen_range(120) + 1)
                        .map(|_| match rng.gen_range(4) {
                            0 => Op::Compute(rng.gen_range(90)),
                            1 => Op::Compute(0),
                            _ => Op::Access {
                                addr: a.offset(
                                    (rng.gen_range(64 * 4096 / 64) * 64 + ci * 64) % (64 * 4096),
                                ),
                                rw: Rw::Write,
                            },
                        })
                        .collect();
                    Box::new(ops.into_iter()) as Box<dyn SectionBody>
                })
                .collect()
        };
        for seed in 0..4u64 {
            let (mut sys_a, mut thr_a) = setup(3);
            let chunks_a = build_chunks(&mut sys_a, &thr_a, seed);
            let end_a =
                run_section_dynamic_batched(&mut sys_a, &mut thr_a, chunks_a, 1_000_000).unwrap();

            let (mut sys_b, mut thr_b) = setup(3);
            let chunks_b = build_chunks(&mut sys_b, &thr_b, seed);
            let end_b =
                run_section_dynamic_reference(&mut sys_b, &mut thr_b, chunks_b, 1_000_000).unwrap();

            assert_eq!(end_a, end_b, "seed {seed}: end times diverge");
            assert_eq!(thr_a, thr_b, "seed {seed}: barrier clocks diverge");
            for c in 0..3 {
                assert_eq!(
                    sys_a.mem().stats().core(CoreId(c)).accesses,
                    sys_b.mem().stats().core(CoreId(c)).accesses,
                    "seed {seed} core {c}"
                );
            }
        }
    }

    #[test]
    fn batched_serial_matches_reference() {
        let run = |reference: bool| {
            let (mut sys, mut threads) = setup(2);
            let a = sys.malloc(threads[0].tid, 8 * 4096).unwrap();
            let ops: Vec<Op> = (0..200)
                .map(|i| {
                    if i % 3 == 0 {
                        Op::Compute(i)
                    } else {
                        Op::Access {
                            addr: a.offset((i * 64) % (8 * 4096)),
                            rw: Rw::Write,
                        }
                    }
                })
                .collect();
            let mut body = ops.into_iter();
            let end = if reference {
                run_serial_reference(&mut sys, &mut threads, &mut body, 10_000).unwrap()
            } else {
                run_serial_batched(&mut sys, &mut threads, &mut body, 10_000).unwrap()
            };
            (end, sys.mem().stats().core(CoreId(0)).total_latency)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn env_var_routes_to_reference_pipeline() {
        // Process-global env var: this test is the only one in the crate
        // that sets it, and it restores the variable before returning.
        let run = || {
            let (mut sys, mut threads) = setup(2);
            let mut bodies = vec![compute_body(10, 7), compute_body(3, 11)];
            run_section(&mut sys, &mut threads, &mut bodies, 1_000).unwrap()
        };
        let batched = run();
        std::env::set_var("TINT_REFERENCE_PIPELINE", "1");
        assert!(reference_pipeline());
        let referenced = run();
        std::env::remove_var("TINT_REFERENCE_PIPELINE");
        assert!(!reference_pipeline());
        assert_eq!(batched, referenced);
    }

    /// The winner tree's `(min, runner-up)` equals a brute-force scan
    /// after every leaf update: random clocks, deaths (`u64::MAX`),
    /// revivals, and teams of 1–16 threads.
    #[test]
    fn winner_tree_matches_brute_force_scan() {
        use tint_hw::rng::SplitMix64;
        let brute = |keys: &[u64]| {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            (sorted[0], sorted.get(1).copied().unwrap_or(u64::MAX))
        };
        let mut rng = SplitMix64::new(0x7EE);
        for case in 0..400u64 {
            let n = 1 + (case % TREE_LEAVES as u64) as usize;
            let clock_span = 1 + rng.gen_range(1 << (4 * (case % 4) + 2));
            let threads: Vec<SimThread> = (0..n)
                .map(|i| SimThread {
                    tid: Tid(i as u64),
                    core: CoreId(i),
                    clock: rng.gen_range(clock_span),
                })
                .collect();
            let mut keys: Vec<u64> = (0..n).map(|i| pack_key(threads[i].clock, i)).collect();
            let mut tree = WinnerTree::new(&threads);
            for step in 0..200 {
                if keys.iter().any(|&k| k != u64::MAX) {
                    assert_eq!(tree.min2(), brute(&keys), "case {case} step {step}");
                }
                let i = rng.gen_range(n as u64) as usize;
                keys[i] = if rng.gen_range(5) == 0 {
                    u64::MAX
                } else {
                    pack_key(rng.gen_range(clock_span), i)
                };
                tree.set(i, keys[i]);
            }
        }
    }

    #[test]
    fn fill_default_impl_respects_short_fill_contract() {
        let mut it = (0..10u64).map(Op::Compute);
        let mut buf = [Op::Compute(0); BATCH_OPS];
        let n = SectionBody::fill(&mut it, &mut buf);
        assert_eq!(n, 10, "short fill signals exhaustion");
        assert_eq!(buf[9], Op::Compute(9));
        let mut small = [Op::Compute(0); 4];
        let mut it2 = (0..10u64).map(Op::Compute);
        assert_eq!(SectionBody::fill(&mut it2, &mut small), 4, "full buffer");
        assert_eq!(SectionBody::fill(&mut it2, &mut small), 4);
        assert_eq!(SectionBody::fill(&mut it2, &mut small), 2, "then short");
    }
}
