//! The conservative discrete-event SPMD scheduler.
//!
//! Every section — parallel, dynamic or serial — runs through one loop,
//! generic over where threads get their work (a `WorkSource`): one body
//! per thread for static and serial sections, a shared chunk queue for
//! dynamic ones. The runnable thread with the smallest clock executes its
//! next operation; ties break by thread index. Four devices make that
//! order cheap to follow without changing it:
//!
//! * section bodies hand the engine *runs* of operations through
//!   [`SectionBody::fill`] (one virtual call per [`BATCH_OPS`] ops);
//! * the scheduler is a 16-leaf winner tree over packed `(clock, index)`
//!   keys with a *still-minimum* fast path;
//! * a thread's step is one access plus the run of `Compute` ops that
//!   follows it in the current batch, all fused into the clock before the
//!   thread is re-keyed;
//! * the next thread is the runner-up the fast path compared against, not
//!   a read of the tree's root after the re-key, so the next access's
//!   translation and cache walk need not wait for the previous access's
//!   latency to pass through the tree.
//!
//! The result is bit-identical to the one-op-at-a-time min-heap loops
//! the engine started from; those loops now live in this crate's tests as
//! the oracle the engine is checked against.
//!
//! Why the still-minimum fast path is safe: after thread *i* executes an
//! operation, a heap loop would push `(clock_i, i)` back and immediately
//! pop the global minimum. If `(clock_i, i)` is still lexicographically
//! smaller than every other runnable thread's `(clock, index)` key, that
//! pop returns *i* again — so the engine just keeps draining thread *i*
//! and only re-picks when its key rises past the runner-up's.
//! Why the runner-up pick is exact: a thread leaves the fast path only
//! when its new key is at or above the runner-up's, or when it dies
//! (`u64::MAX`). Keys are unique, so after the re-key the runner-up is
//! the smallest key in the tree — the root a heap loop's pop would read —
//! and its index was known before the leaving thread's access ran. Only
//! the new runner-up, which the next fast-path compare needs, is read
//! back from the tree.
//! Why compute fusion is safe, also past the runner-up's key: `Compute`
//! ops touch nothing but the local clock, and the memory system observes
//! only `(access order, issue cycle)` pairs. A thread that absorbs the
//! computes after its access re-enters the tree keyed at its next
//! access's issue time — the key the heap loop would give that access —
//! so every access keeps its place in `(clock, index)` order, and other
//! threads' accesses cannot tell when the computes ran. The run stops at
//! the batch end: a refill (and a dynamic chunk pull) waits until the
//! thread is the minimum again, as in the heap loop. Only when an access
//! fails mid-section can fusion show: a thread may have run computes the
//! heap loop had not started yet, and the error path rewinds them.

use std::borrow::BorrowMut;
use std::collections::VecDeque;
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
/// amortize the virtual call, small enough to stay in L1 (64 × 16 B, a
/// 1 KiB batch).
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

/// Max threads in a team: sections of wider teams return `EINVAL`. 16 is
/// the largest preset's core count and leaves 4 index bits in the packed
/// key.
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
    /// live key exists; both are `u64::MAX` once every key is dead).
    #[inline]
    fn min2(&self) -> (u64, u64) {
        let m1 = self.t[1];
        (m1, self.runner_up_of(m1))
    }

    /// The runner-up behind `m1`, which must be the current minimum: the
    /// min of the four siblings on `m1`'s leaf-to-root path (`u64::MAX`
    /// when no second live key exists).
    #[inline]
    fn runner_up_of(&self, m1: u64) -> u64 {
        debug_assert_eq!(self.t[1], m1);
        let mut k = TREE_LEAVES + (m1 & 0xF) as usize;
        let mut m2 = u64::MAX;
        for _ in 0..4 {
            m2 = m2.min(self.t[k ^ 1]);
            k >>= 1;
        }
        m2
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

/// Where a section's threads get their work.
trait WorkSource {
    /// Load thread `i`'s next ops into `cur`, whose previous batch is used
    /// up. Returns `false` once the thread has reached the barrier. Adds
    /// to `ops` the operations a one-op-at-a-time loop charges for
    /// finishing a body or a chunk (its `None` pops).
    fn refill(&mut self, i: usize, cur: &mut BodyCursor, ops: &mut u64) -> bool;
}

/// One body per thread. An exhausted body charges `end_ops` operations: 1
/// for the final `None` of a parallel section, 0 in a serial section,
/// whose budget counts only real operations.
struct Static<'s, B> {
    bodies: &'s mut [B],
    end_ops: u64,
}

impl<'b, B: BorrowMut<dyn SectionBody + 'b>> WorkSource for Static<'_, B> {
    #[inline]
    fn refill(&mut self, i: usize, cur: &mut BodyCursor, ops: &mut u64) -> bool {
        if !cur.exhausted && cur.refill(self.bodies[i].borrow_mut()) {
            return true;
        }
        *ops += self.end_ops;
        false
    }
}

/// A shared chunk queue (OpenMP `schedule(dynamic)`). Each finished chunk
/// charges one operation; a thread that finds the queue drained is done
/// and charges none.
struct Dynamic<'b> {
    queue: VecDeque<Box<dyn SectionBody + 'b>>,
    /// The chunk each thread is working on.
    current: Vec<Option<Box<dyn SectionBody + 'b>>>,
}

impl WorkSource for Dynamic<'_> {
    #[inline]
    fn refill(&mut self, i: usize, cur: &mut BodyCursor, ops: &mut u64) -> bool {
        // A thread that finishes or pulls a chunk keeps its clock, so it
        // stays the minimum throughout, as in the one-op-at-a-time loop.
        loop {
            if cur.exhausted {
                cur.exhausted = false;
                self.current[i] = None;
                *ops += 1;
            }
            let chunk = match &mut self.current[i] {
                Some(chunk) => chunk,
                None => match self.queue.pop_front() {
                    Some(chunk) => self.current[i].insert(chunk),
                    None => return false,
                },
            };
            if cur.refill(chunk.as_mut()) {
                return true;
            }
            // An empty fill set `cur.exhausted`: charge the chunk's end and
            // pull the next one.
        }
    }
}

/// Called when an access fails at packed key `failed`: a one-op-at-a-time
/// loop would by then have started exactly the ops whose key is below
/// `failed`. Compute fusion can run past that point only in the fused run
/// that ended a thread's latest stint as the minimum (every earlier op
/// started below the runner-up, hence below `failed`). Consecutive
/// computes in a batch always form one fused run — whether they open the
/// batch or follow an access — so that run is the computes right before
/// the thread's cursor. Replaying it stops each
/// clock where the one-op-at-a-time loop would; for a finished thread, and
/// for the failing one (its last op is the access), it changes nothing.
fn rewind_fused_tails(threads: &mut [SimThread], cursors: &[BodyCursor], failed: u64) {
    for (j, (t, cur)) in threads.iter_mut().zip(cursors).enumerate() {
        let ran = &cur.buf[..cur.cur];
        let start = ran
            .iter()
            .rposition(|op| matches!(op, Op::Access { .. }))
            .map_or(0, |p| p + 1);
        let run = &ran[start..]; // computes only
        let cycles = |op: &Op| if let Op::Compute(c) = *op { c } else { 0 };
        let mut clock = t.clock - run.iter().map(cycles).sum::<u64>();
        for op in run {
            if pack_key(clock, j) > failed {
                break;
            }
            clock += cycles(op);
        }
        t.clock = clock;
    }
}

/// The section loop: run every thread of `threads` to the barrier in
/// min-clock order, ties by index. Returns each thread's end time and
/// moves every clock to the latest one.
fn run_team<W: WorkSource>(
    sys: &mut System,
    threads: &mut [SimThread],
    work: &mut W,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let n = threads.len();
    if n > TREE_LEAVES {
        return Err(Errno::Einval);
    }
    let check_budget = |ops: u64| {
        assert!(
            ops <= ops_budget,
            "section exceeded its operation budget ({ops_budget}); runaway body?"
        )
    };
    let mut end = vec![0u64; n];
    let mut tree = WinnerTree::new(threads);
    let mut live = n;
    let mut cursors: Vec<BodyCursor> = (0..n).map(|_| BodyCursor::new()).collect();
    let mut ops = 0u64;
    let (mut m1, mut runner_up) = tree.min2();
    while live > 0 {
        let i = (m1 & 0xF) as usize;
        let tid = threads[i].tid;
        let mut clock = threads[i].clock;
        let cur = &mut cursors[i];
        // Drain thread i while it remains the min-clock thread.
        loop {
            if cur.cur == cur.len {
                let more = work.refill(i, cur, &mut ops);
                check_budget(ops);
                if !more {
                    end[i] = clock;
                    tree.set(i, u64::MAX);
                    live -= 1;
                    break;
                }
            }
            // One step: at most one access, then the run of computes that
            // follows it in this batch (or that opens the batch). The run is
            // never extended by a refill: a refill, and with it a dynamic
            // chunk pull, happens only while the thread is the minimum.
            let first = cur.cur;
            if let Op::Access { addr, rw } = cur.buf[cur.cur] {
                cur.cur += 1;
                let acc = match sys.access(tid, addr, rw, clock) {
                    Ok(a) => a,
                    Err(e) => {
                        threads[i].clock = clock;
                        rewind_fused_tails(threads, &cursors, pack_key(clock, i));
                        return Err(e);
                    }
                };
                clock += acc.latency;
            }
            while let Some(&Op::Compute(c)) = cur.buf[..cur.len].get(cur.cur) {
                clock += c;
                cur.cur += 1;
            }
            ops += (cur.cur - first) as u64;
            check_budget(ops);
            // Still-minimum fast path: one compare against the runner-up.
            let key = pack_key(clock, i);
            if key >= runner_up {
                tree.set(i, key);
                break;
            }
        }
        threads[i].clock = clock;
        // Thread i left at a key at or above the runner-up (or died at
        // `u64::MAX`), so the runner-up is the new minimum: known before
        // i's access ran, it lets the next access start while the tree
        // update above is still settling. Only the next fast-path compare
        // waits for the tree. (Once every thread is dead, both are
        // `u64::MAX`.)
        m1 = runner_up;
        runner_up = tree.runner_up_of(m1);
    }
    // The implicit barrier: every thread resumes at the latest end time.
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// Run one parallel section: each thread executes its body to completion;
/// the section ends at the implicit barrier. Returns each thread's end time
/// (the engine caller computes idle per Algorithm 3).
///
/// `EINVAL` when the team is wider than 16 threads or `bodies` does not
/// hold exactly one body per thread.
pub fn run_section(
    sys: &mut System,
    threads: &mut [SimThread],
    bodies: &mut [Box<dyn SectionBody + '_>],
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    if threads.len() != bodies.len() {
        return Err(Errno::Einval);
    }
    let mut work = Static { bodies, end_ops: 1 };
    run_team(sys, threads, &mut work, ops_budget)
}

/// Run a parallel section with **dynamic scheduling** (OpenMP
/// `schedule(dynamic)`): `chunks` is a shared work queue; every thread pulls
/// the next chunk when it finishes its current one, and the section ends
/// when the queue drains and every thread reaches the barrier. Determinism:
/// chunks are handed out in queue order to whichever thread asks first under
/// the min-clock rule (ties by thread index). `EINVAL` for teams wider
/// than 16 threads.
pub fn run_section_dynamic(
    sys: &mut System,
    threads: &mut [SimThread],
    chunks: VecDeque<Box<dyn SectionBody + '_>>,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let mut work = Dynamic {
        queue: chunks,
        current: (0..threads.len()).map(|_| None).collect(),
    };
    run_team(sys, threads, &mut work, ops_budget)
}

/// Run a serial section on the master (index 0); the other threads simply
/// wait (their clocks move to the master's end — serial time is excluded
/// from idle accounting, as in the paper's Algorithm 3 instrumentation).
/// `EINVAL` for an empty team.
pub fn run_serial(
    sys: &mut System,
    threads: &mut [SimThread],
    mut body: &mut (dyn SectionBody + '_),
    ops_budget: u64,
) -> Result<u64, Errno> {
    let Some(master) = threads.first_mut() else {
        return Err(Errno::Einval);
    };
    let mut work = Static {
        bodies: std::slice::from_mut(&mut body),
        end_ops: 0,
    };
    let end = run_team(sys, std::slice::from_mut(master), &mut work, ops_budget)?[0];
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
    fn teams_wider_than_the_tree_are_einval() {
        let mut sys = System::boot(MachineConfig::tiny());
        let cores: Vec<_> = (0..TREE_LEAVES + 1).map(|i| CoreId(i % 4)).collect();
        let mut threads = SimThread::spawn_all(&mut sys, &cores);
        let before = threads.clone();
        let mut bodies: Vec<_> = (0..threads.len()).map(|_| compute_body(3, 10)).collect();
        assert_eq!(
            run_section(&mut sys, &mut threads, &mut bodies, 1_000),
            Err(Errno::Einval)
        );
        let chunks: VecDeque<_> = (0..4).map(|_| compute_body(3, 10)).collect();
        assert_eq!(
            run_section_dynamic(&mut sys, &mut threads, chunks, 1_000),
            Err(Errno::Einval)
        );
        assert_eq!(
            run_section(&mut sys, &mut threads[..2], &mut bodies[..1], 1_000),
            Err(Errno::Einval),
            "one body per thread"
        );
        assert_eq!(
            threads, before,
            "a refused section leaves every clock alone"
        );
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

    /// The winner tree's `(min, runner-up)` equals a brute-force scan
    /// after every leaf update: random clocks, deaths (`u64::MAX`),
    /// revivals, and teams of 1–16 threads. Half the updates are the
    /// engine's own: the minimum leaves at a key at or above the runner-up
    /// (or dies), after which the old runner-up must be the new minimum —
    /// the invariant `run_team`'s next-thread pick relies on.
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
                let live = keys.iter().any(|&k| k != u64::MAX);
                if live {
                    let (m1, m2) = brute(&keys);
                    assert_eq!(tree.min2(), (m1, m2), "case {case} step {step}");
                    assert_eq!(tree.runner_up_of(m1), m2, "case {case} step {step}");
                }
                if live && rng.gen_range(2) == 0 {
                    // The minimum leaves past the runner-up, or dies.
                    let (m1, runner_up) = tree.min2();
                    let i = (m1 & 0xF) as usize;
                    keys[i] = if runner_up == u64::MAX || rng.gen_range(5) == 0 {
                        u64::MAX
                    } else {
                        let mut clock = (runner_up >> 4) + rng.gen_range(clock_span);
                        if pack_key(clock, i) < runner_up {
                            clock += 1;
                        }
                        pack_key(clock, i)
                    };
                    tree.set(i, keys[i]);
                    assert_eq!(tree.t[1], runner_up, "case {case} step {step}");
                    continue;
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
