//! Time-sliced round-robin scheduling of short-lived tasks.
//!
//! The fork-join [`Program`](crate::Program) model runs one immortal team to
//! completion; multi-tenant churn (ROADMAP item 1) needs the opposite: tasks
//! that *arrive* over simulated time, share cores, run for a bounded
//! lifetime, and *exit* — exercising the kernel's full reclamation path on
//! every completion. This module provides that harness: a deterministic
//! round-robin scheduler with a fixed time quantum per core.
//!
//! Determinism follows the engine's rule: among cores with runnable work,
//! always advance the one with the smallest local clock (ties by core
//! index). A core with an empty run queue jumps its clock forward to the
//! next arrival; simulated time never depends on host scheduling.
//!
//! ## Surviving memory pressure
//!
//! Sustained over-commit turns every kernel error into a policy question,
//! and the scheduler owns the answers:
//!
//! * **Admission control** — with [`RoundRobin::admission_control`] set, a
//!   job arriving while the kernel reports [`MemPressure::Low`] or worse is
//!   *re-queued* at `arrival + backoff` instead of admitted; after
//!   [`RoundRobin::max_retries`] deferrals it is dropped as
//!   [`ChurnOutcome::rejected_admission`].
//! * **Retry with backoff** — a transient `EAGAIN` (the fault injector's
//!   replenish-path faults) retries the same operation after an
//!   exponentially growing pause in *simulated* cycles, bounded by
//!   [`RoundRobin::max_retries`]; schedules are bit-deterministic because
//!   the backoff clock is the core's own.
//! * **OOM victim kill** — with [`RoundRobin::oom`] armed, a mid-run or
//!   setup `ENOMEM` under pressure invokes [`System::oom_kill`]; the
//!   victim's queue entry is skipped when it surfaces, and a task that
//!   selects *itself* simply ends (it is already destroyed).
//! * **Incremental auditing** — [`RoundRobin::audit_frames`] > 0 runs one
//!   bounded [`System::audit_step`] slice after every quantum, keeping
//!   invariant checking *on* for simulated-hours runs at O(K) per quantum
//!   instead of O(frames) stop-the-world sweeps.
//!
//! Every kernel error that previously panicked the harness is now a counted
//! outcome: see [`ChurnOutcome`].

use crate::engine::{Op, SectionBody};
use std::collections::{BTreeSet, VecDeque};
use tint_hw::types::CoreId;
use tint_kernel::{AuditCursor, Errno, MemPressure, Tid, VictimPolicy, MAX_ORDER};
use tintmalloc::System;

/// One task arrival: when, where, and how to set the task up.
///
/// `setup` runs at admission time on the scheduler's clock: it spawns the
/// kernel task (colors, policies, heap regions — whatever the tenant needs)
/// and returns the task id plus its op stream. **Contract:** on `Err` the
/// closure must not leak a task — anything it spawned it must have
/// [`System::exit`]ed before returning, so a failed admission leaves the
/// kernel exactly as it found it. The closure is `FnMut` because a
/// transient failure (`EAGAIN`, or `ENOMEM` relieved by an OOM kill) may be
/// *retried* after a backoff: each call must build a fresh task.
pub struct Job<'a> {
    /// Simulated cycle the task becomes runnable.
    pub arrival: u64,
    /// Core the task is pinned to (the paper's static-pinning model).
    pub core: CoreId,
    /// Admission-time task construction (see the leak/retry contract above).
    #[allow(clippy::type_complexity)]
    pub setup: Box<dyn FnMut(&mut System) -> Result<(Tid, Box<dyn SectionBody + 'a>), Errno> + 'a>,
}

/// Scheduler parameters. The defaults reproduce the pre-pressure behaviour
/// exactly (no admission gate, no OOM killer, no incremental audit), so
/// existing harnesses run bit-identically unless they opt in.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    /// Time slice in cycles: a job is preempted (rotated to the back of its
    /// core's queue) once it has consumed at least this many cycles.
    pub quantum: u64,
    /// Ceiling on total executed ops — a runaway-body backstop. Exceeding
    /// it ends the run *gracefully*: every live task is exited, partial
    /// stats are returned, and [`ChurnOutcome::budget_exceeded`] is set.
    pub ops_budget: u64,
    /// Run [`System::check_invariants`] every this many executed ops
    /// (`0` = never). A check walks every page table and every frame's
    /// reverse-map entry: ~110 µs on the 16 384-frame churn machine with
    /// ~1 100 live tenants. At 4 096 (the churn figure's setting) a seed-1
    /// coldbench `tenant-churn` pass makes 426 checks. For bounded
    /// per-quantum cost prefer [`RoundRobin::audit_frames`].
    pub check_every: u64,
    /// Frames examined by the *incremental* auditor after each quantum
    /// (`0` = off). Bounded per-quantum cost, full machine coverage over
    /// successive quanta — auditing that can stay on for simulated hours.
    pub audit_frames: u64,
    /// Defer admissions while the kernel reports pressure at or above
    /// [`MemPressure::Low`].
    pub admission_control: bool,
    /// First retry/defer pause in simulated cycles; doubles per attempt.
    pub backoff_base: u64,
    /// Ceiling on one backoff pause.
    pub backoff_cap: u64,
    /// Retries granted per job admission and per in-flight op before the
    /// failure becomes terminal (`0` = every transient failure is fatal,
    /// the pre-pressure behaviour).
    pub max_retries: u32,
    /// Arm the OOM killer: on `ENOMEM` under pressure, kill this policy's
    /// victim and retry. `None` (default) surfaces `ENOMEM` as a failure.
    pub oom: Option<VictimPolicy>,
}

impl Default for RoundRobin {
    fn default() -> Self {
        Self {
            quantum: 10_000,
            ops_budget: u64::MAX,
            check_every: 0,
            audit_frames: 0,
            admission_control: false,
            backoff_base: 4_096,
            backoff_cap: 262_144,
            max_retries: 6,
            oom: None,
        }
    }
}

/// What a churn run did, in aggregate. Every arrival ends in exactly one of
/// `completed`, `failed_setup`, `killed_mid_run`, `killed_oom`, or
/// `rejected_admission` (unless the run ended over budget, which abandons
/// in-flight work after exiting it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnOutcome {
    /// Jobs whose admission was attempted at least once.
    pub arrivals: u64,
    /// Tasks that ran their op stream to completion and exited.
    pub completed: u64,
    /// Jobs whose setup failed terminally (retries exhausted or a
    /// non-retryable error); nothing was admitted.
    pub failed_setup: u64,
    /// Tasks killed mid-run by a terminal op error (e.g. `ENOMEM` under
    /// [`ExhaustionPolicy::Strict`](tint_kernel::ExhaustionPolicy::Strict)
    /// with no OOM killer armed); reclaimed through the normal exit path.
    pub killed_mid_run: u64,
    /// Tasks destroyed by the OOM killer to relieve memory pressure.
    pub killed_oom: u64,
    /// Jobs dropped by admission control after exhausting their deferrals.
    pub rejected_admission: u64,
    /// The run ended because [`RoundRobin::ops_budget`] was exceeded; all
    /// live tasks were exited and the stats below are partial.
    pub budget_exceeded: bool,
    /// [`System::exit`] calls that themselves failed (counted, never
    /// panicking the harness).
    pub exit_errors: u64,
    /// Admissions deferred by the watermark gate (re-queued with backoff).
    pub admission_backoffs: u64,
    /// Operations retried after a transient `EAGAIN`.
    pub alloc_retries: u64,
    /// Frames examined by the incremental auditor across the run.
    pub audited_frames: u64,
    /// Largest core clock at the end — the simulated uptime.
    pub makespan: u64,
    /// Ops executed across all tasks.
    pub total_ops: u64,
    /// Preemptions that handed the core to a *different* runnable task.
    pub context_switches: u64,
}

impl ChurnOutcome {
    /// Arrivals that did **not** complete, across all failure fates.
    pub fn failed(&self) -> u64 {
        self.failed_setup + self.killed_mid_run + self.killed_oom + self.rejected_admission
    }
}

/// One uptime window of a pressure run: cumulative counters plus an
/// instantaneous snapshot of the memory pools, emitted by
/// [`RoundRobin::run_with_windows`] each time simulated time crosses a
/// window boundary. All-integer so runs compare with `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureWindow {
    /// Window boundary (a multiple of the window length; the final snapshot
    /// uses the makespan).
    pub end: u64,
    /// Cumulative completions.
    pub completed: u64,
    /// Cumulative OOM kills.
    pub killed_oom: u64,
    /// Cumulative admission rejections (terminal).
    pub rejected_admission: u64,
    /// Cumulative `EAGAIN` retries.
    pub alloc_retries: u64,
    /// Live tasks at the boundary.
    pub live_tasks: u64,
    /// Buddy free pages at the boundary.
    pub buddy_free: u64,
    /// Pages parked in the color lists at the boundary.
    pub color_pages: u64,
    /// Largest buddy order with a free block — the fragmentation signal
    /// (a machine that only has order-0 pages left cannot replenish color
    /// lists efficiently).
    pub largest_free_order: u32,
    /// Cumulative off-color + exhaustion-fallback allocations.
    pub off_color_allocs: u64,
    /// Cumulative on-color allocations.
    pub colored_allocs: u64,
    /// Cumulative frames examined by the incremental auditor.
    pub audited_frames: u64,
}

/// A not-yet-admitted job plus its retry budget consumed so far.
struct PendingJob<'a> {
    job: Job<'a>,
    attempts: u32,
}

/// Per-core scheduler state.
struct CoreState<'a> {
    clock: u64,
    /// FIFO run queue of admitted tasks.
    queue: VecDeque<(Tid, Box<dyn SectionBody + 'a>)>,
    /// Not-yet-admitted jobs keyed by `(ready_time, seq)`; `seq` preserves
    /// arrival order at equal times and indexes `jobs`. A job is pending at
    /// most once, so keys are unique.
    pending: BTreeSet<(u64, u64)>,
    /// Slot storage for pending jobs (a popped entry takes its slot).
    jobs: Vec<Option<PendingJob<'a>>>,
}

impl CoreState<'_> {
    fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.pending.is_empty()
    }

    /// The clock at which this core can next run something.
    fn ready_at(&self) -> u64 {
        if self.queue.is_empty() {
            let (t, _) = self.pending.first().expect("has_work checked");
            self.clock.max(*t)
        } else {
            self.clock
        }
    }
}

/// How a quantum ended.
enum Fate {
    Completed,
    Errored,
    /// The running task was chosen by the OOM killer (self-kill): it is
    /// already destroyed, there is nothing to exit.
    OomVictim,
    Preempted,
    OverBudget,
}

impl RoundRobin {
    /// Run `jobs` to completion: every job is admitted at its arrival time
    /// on its core (or deferred under the admission gate), time-sliced
    /// against its core-mates, and exited when its op stream ends (or
    /// errors terminally). Returns once every queue is empty.
    pub fn run<'a>(&self, sys: &mut System, jobs: Vec<Job<'a>>) -> ChurnOutcome {
        self.run_with_windows(sys, jobs, 0).0
    }

    /// Like [`RoundRobin::run`], additionally emitting a [`PressureWindow`]
    /// snapshot every `window` simulated cycles (plus one final snapshot at
    /// the makespan). `window == 0` emits nothing.
    pub fn run_with_windows<'a>(
        &self,
        sys: &mut System,
        jobs: Vec<Job<'a>>,
        window: u64,
    ) -> (ChurnOutcome, Vec<PressureWindow>) {
        let mut out = ChurnOutcome::default();
        let mut windows = Vec::new();
        let mut next_window = if window == 0 { u64::MAX } else { window };
        let mut cursor = AuditCursor::default();
        // Tasks destroyed by the OOM killer while parked in a run queue;
        // their stale queue entries are skipped when popped.
        let mut killed: BTreeSet<Tid> = BTreeSet::new();
        let mut cores: Vec<CoreState<'a>> = Vec::new();
        for job in jobs {
            let idx = job.core.0;
            while cores.len() <= idx {
                cores.push(CoreState {
                    clock: 0,
                    queue: VecDeque::new(),
                    pending: BTreeSet::new(),
                    jobs: Vec::new(),
                });
            }
            let core = &mut cores[idx];
            let seq = core.jobs.len() as u64;
            core.pending.insert((job.arrival, seq));
            core.jobs.push(Some(PendingJob { job, attempts: 0 }));
        }

        // Deterministic pick: smallest ready time, ties by core index. The
        // minimum ready time never decreases, so it is the run's virtual
        // time — window boundaries are crossed in order.
        while let Some(ci) = cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.has_work())
            .min_by_key(|&(i, c)| (c.ready_at(), i))
            .map(|(i, _)| i)
        {
            let now = cores[ci].ready_at();
            while now >= next_window {
                windows.push(Self::window_snapshot(sys, &out, next_window));
                next_window = next_window.saturating_add(window);
            }
            let core = &mut cores[ci];
            core.clock = now;
            // Admit everything that is due by now, in (ready, seq) order.
            while let Some(&(t, seq)) = core.pending.first() {
                if t > core.clock {
                    break;
                }
                core.pending.pop_first();
                let mut pj = core.jobs[seq as usize].take().expect("pending job slot");
                if pj.attempts == 0 {
                    out.arrivals += 1;
                }
                if self.admission_control && sys.mem_pressure() >= MemPressure::Low {
                    // Watermark gate: no new tenants while memory is tight.
                    sys.note_admission_reject();
                    if pj.attempts >= self.max_retries {
                        out.rejected_admission += 1;
                    } else {
                        pj.attempts += 1;
                        out.admission_backoffs += 1;
                        let ready = core.clock + self.backoff(pj.attempts);
                        core.pending.insert((ready, seq));
                        core.jobs[seq as usize] = Some(pj);
                    }
                    continue;
                }
                match (pj.job.setup)(sys) {
                    Ok((tid, body)) => core.queue.push_back((tid, body)),
                    Err(Errno::Eagain) if pj.attempts < self.max_retries => {
                        pj.attempts += 1;
                        out.alloc_retries += 1;
                        sys.note_alloc_retry();
                        let ready = core.clock + self.backoff(pj.attempts);
                        core.pending.insert((ready, seq));
                        core.jobs[seq as usize] = Some(pj);
                    }
                    Err(Errno::Enomem)
                        if self.oom.is_some()
                            && pj.attempts < self.max_retries
                            && sys.mem_pressure() >= MemPressure::Low =>
                    {
                        match sys.oom_kill(self.oom.expect("checked above")) {
                            Ok(kill) => {
                                out.killed_oom += 1;
                                killed.insert(kill.victim);
                                pj.attempts += 1;
                                let ready = core.clock + self.backoff(pj.attempts);
                                core.pending.insert((ready, seq));
                                core.jobs[seq as usize] = Some(pj);
                            }
                            // Nobody left to kill: the failure is terminal.
                            Err(_) => out.failed_setup += 1,
                        }
                    }
                    Err(_) => out.failed_setup += 1,
                }
            }
            let Some((tid, mut body)) = core.queue.pop_front() else {
                continue; // admission deferred/failed; re-pick
            };
            if killed.remove(&tid) {
                continue; // reaped by the OOM killer while queued
            }

            // One quantum: ops advance the core clock until the slice is
            // spent, the body ends, or an op fails terminally.
            let mut slice = 0u64;
            let fate = 'quantum: loop {
                if slice >= self.quantum {
                    break Fate::Preempted;
                }
                match body.next_op() {
                    None => break Fate::Completed,
                    Some(op) => {
                        out.total_ops += 1;
                        if out.total_ops > self.ops_budget {
                            break Fate::OverBudget;
                        }
                        let cost = match op {
                            Op::Compute(c) => c,
                            Op::Access { addr, rw } => {
                                let mut attempts = 0u32;
                                loop {
                                    match sys.access(tid, addr, rw, core.clock) {
                                        Ok(a) => break a.latency,
                                        Err(Errno::Eagain) if attempts < self.max_retries => {
                                            // Transient: back off on the
                                            // core's own clock and retry.
                                            attempts += 1;
                                            out.alloc_retries += 1;
                                            sys.note_alloc_retry();
                                            let pause = self.backoff(attempts);
                                            core.clock += pause;
                                            slice += pause;
                                        }
                                        Err(Errno::Enomem)
                                            if self.oom.is_some()
                                                && attempts < self.max_retries
                                                && sys.mem_pressure() >= MemPressure::Low =>
                                        {
                                            attempts += 1;
                                            match sys.oom_kill(self.oom.expect("checked above")) {
                                                Ok(kill) => {
                                                    out.killed_oom += 1;
                                                    if kill.victim == tid {
                                                        break 'quantum Fate::OomVictim;
                                                    }
                                                    killed.insert(kill.victim);
                                                }
                                                Err(_) => break 'quantum Fate::Errored,
                                            }
                                        }
                                        Err(_) => break 'quantum Fate::Errored,
                                    }
                                }
                            }
                        };
                        // A zero-cost op still consumes a cycle of slice so
                        // pathological bodies cannot monopolize the core.
                        core.clock += cost;
                        slice += cost.max(1);
                        if self.check_every > 0 && out.total_ops % self.check_every == 0 {
                            sys.check_invariants();
                        }
                    }
                }
            };
            match fate {
                Fate::Completed => {
                    Self::exit_task(sys, tid, &mut out);
                    out.completed += 1;
                }
                Fate::Errored => {
                    Self::exit_task(sys, tid, &mut out);
                    out.killed_mid_run += 1;
                }
                Fate::OomVictim => {} // already destroyed by the kernel
                Fate::Preempted => {
                    if !core.queue.is_empty() {
                        out.context_switches += 1;
                    }
                    core.queue.push_back((tid, body));
                }
                Fate::OverBudget => {
                    out.budget_exceeded = true;
                    Self::exit_task(sys, tid, &mut out);
                    out.killed_mid_run += 1;
                }
            }
            if self.audit_frames > 0 {
                out.audited_frames += sys.audit_step(&mut cursor, self.audit_frames);
            }
            if out.budget_exceeded {
                break;
            }
        }
        if out.budget_exceeded {
            // Graceful shutdown: exit every still-live task so nothing
            // leaks; un-admitted jobs are simply dropped (partial stats).
            for core in &mut cores {
                while let Some((tid, _)) = core.queue.pop_front() {
                    if killed.remove(&tid) {
                        continue;
                    }
                    Self::exit_task(sys, tid, &mut out);
                    out.killed_mid_run += 1;
                }
            }
        }
        out.makespan = cores.iter().map(|c| c.clock).max().unwrap_or(0);
        if window != 0 {
            windows.push(Self::window_snapshot(sys, &out, out.makespan));
        }
        (out, windows)
    }

    /// Exit `tid`, counting (never panicking on) a failed exit.
    fn exit_task(sys: &mut System, tid: Tid, out: &mut ChurnOutcome) {
        if sys.exit(tid).is_err() {
            out.exit_errors += 1;
        }
    }

    /// Exponential backoff for the `attempts`-th retry, in simulated cycles.
    fn backoff(&self, attempts: u32) -> u64 {
        let shift = attempts.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(1 << shift)
            .min(self.backoff_cap)
            .max(1)
    }

    /// Cumulative counters + instantaneous pool state at `end`.
    fn window_snapshot(sys: &System, out: &ChurnOutcome, end: u64) -> PressureWindow {
        let k = sys.kernel();
        let st = k.stats();
        let (buddy_free, color_pages) = k.pool_snapshot();
        let largest_free_order = (0..=MAX_ORDER)
            .rev()
            .find(|&o| k.buddy().free_blocks(o) > 0)
            .unwrap_or(0);
        PressureWindow {
            end,
            completed: out.completed,
            killed_oom: out.killed_oom,
            rejected_admission: out.rejected_admission,
            alloc_retries: out.alloc_retries,
            live_tasks: k.task_count() as u64,
            buddy_free,
            color_pages,
            largest_free_order,
            off_color_allocs: st.off_color_allocs + st.exhaustion_fallbacks,
            colored_allocs: st.colored_allocs,
            audited_frames: out.audited_frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_hw::machine::MachineConfig;
    use tint_hw::types::{Rw, VirtAddr, PAGE_SIZE};
    use tint_kernel::Watermarks;

    fn sys() -> System {
        System::boot(MachineConfig::tiny())
    }

    /// A job that mallocs `pages` pages and walks them `ops` times.
    fn walker(arrival: u64, core: usize, pages: u64, ops: u64) -> Job<'static> {
        Job {
            arrival,
            core: CoreId(core),
            setup: Box::new(move |sys: &mut System| {
                let tid = sys.spawn(CoreId(core));
                let base = match sys.malloc(tid, pages * PAGE_SIZE) {
                    Ok(b) => b,
                    Err(e) => {
                        let _ = sys.exit(tid);
                        return Err(e);
                    }
                };
                let body = (0..ops).map(move |i| Op::Access {
                    addr: VirtAddr(base.0 + (i * PAGE_SIZE) % (pages * PAGE_SIZE)),
                    rw: Rw::Read,
                });
                Ok((tid, Box::new(body) as Box<dyn SectionBody>))
            }),
        }
    }

    #[test]
    fn single_job_completes_and_exits() {
        let mut s = sys();
        let baseline = s.kernel().pool_snapshot();
        let out = RoundRobin::default().run(&mut s, vec![walker(0, 0, 2, 10)]);
        assert_eq!(out.arrivals, 1);
        assert_eq!(out.completed, 1);
        assert_eq!(out.failed(), 0);
        assert_eq!(out.total_ops, 10);
        assert!(out.makespan > 0);
        assert_eq!(s.kernel().pool_snapshot(), baseline, "task fully reclaimed");
        s.check_invariants();
    }

    #[test]
    fn same_core_jobs_time_slice() {
        let mut s = sys();
        let rr = RoundRobin {
            quantum: 500,
            ..RoundRobin::default()
        };
        let out = rr.run(&mut s, vec![walker(0, 0, 2, 200), walker(0, 0, 2, 200)]);
        assert_eq!(out.completed, 2);
        assert!(
            out.context_switches > 0,
            "a 500-cycle quantum must preempt 200-access bodies"
        );
        s.check_invariants();
    }

    #[test]
    fn idle_core_jumps_to_next_arrival() {
        let mut s = sys();
        let out = RoundRobin::default().run(&mut s, vec![walker(1_000_000, 1, 1, 1)]);
        assert_eq!(out.completed, 1);
        assert!(out.makespan >= 1_000_000, "clock jumped to the arrival");
    }

    #[test]
    fn runs_are_deterministic() {
        let jobs = || {
            vec![
                walker(0, 0, 2, 50),
                walker(100, 0, 3, 80),
                walker(50, 1, 1, 30),
                walker(5_000, 1, 2, 60),
            ]
        };
        let mut s1 = sys();
        let mut s2 = sys();
        let o1 = RoundRobin::default().run(&mut s1, jobs());
        let o2 = RoundRobin::default().run(&mut s2, jobs());
        assert_eq!(o1, o2);
    }

    #[test]
    fn failed_setup_counts_and_leaks_nothing() {
        let mut s = sys();
        let baseline = s.kernel().pool_snapshot();
        let bad = Job {
            arrival: 0,
            core: CoreId(0),
            setup: Box::new(|sys: &mut System| {
                let tid = sys.spawn(CoreId(0));
                let _ = sys.exit(tid);
                Err(Errno::Enomem)
            }),
        };
        let out = RoundRobin::default().run(&mut s, vec![bad, walker(0, 0, 1, 5)]);
        assert_eq!(out.arrivals, 2);
        assert_eq!(out.failed_setup, 1);
        assert_eq!(out.failed(), 1);
        assert_eq!(out.completed, 1);
        assert_eq!(s.kernel().pool_snapshot(), baseline);
        s.check_invariants();
    }

    #[test]
    fn budget_exhaustion_ends_gracefully_with_partial_stats() {
        let mut s = sys();
        let baseline = s.kernel().pool_snapshot();
        let rr = RoundRobin {
            ops_budget: 5,
            ..RoundRobin::default()
        };
        // Two runaway bodies on different cores; the run must stop at the
        // budget, exit every live task, and report what it managed.
        let out = rr.run(&mut s, vec![walker(0, 0, 1, 100), walker(0, 1, 1, 100)]);
        assert!(out.budget_exceeded, "the backstop tripped");
        assert_eq!(out.total_ops, 6, "the over-budget op is counted, not run");
        assert!(
            out.killed_mid_run >= 1,
            "live tasks were killed, not leaked"
        );
        assert_eq!(out.exit_errors, 0);
        assert_eq!(
            s.kernel().pool_snapshot(),
            baseline,
            "graceful shutdown reclaims everything"
        );
        s.check_invariants();
    }

    #[test]
    fn exit_failure_is_counted_not_fatal() {
        // Regression for the four historical `sys.exit(tid).expect(...)`
        // panics: a task that dies behind the scheduler's back (here: a
        // hostile sibling job exits tid 1 directly) must surface as counted
        // outcomes, never a harness panic.
        let mut s = sys();
        let baseline = s.kernel().pool_snapshot();
        let hostile = Job {
            arrival: 100,
            core: CoreId(0),
            setup: Box::new(|sys: &mut System| {
                // The first walker's task is Tid(1) (tids are sequential).
                let _ = sys.exit(Tid(1));
                Err(Errno::Einval)
            }),
        };
        let rr = RoundRobin {
            quantum: 50,
            ..RoundRobin::default()
        };
        let out = rr.run(&mut s, vec![walker(0, 0, 2, 500), hostile]);
        assert_eq!(out.arrivals, 2);
        assert!(
            out.killed_mid_run >= 1 && out.exit_errors >= 1,
            "the orphaned task errored and its exit failure was counted: {out:?}"
        );
        assert_eq!(s.kernel().pool_snapshot(), baseline);
        s.check_invariants();
    }

    #[test]
    fn admission_control_defers_then_rejects_under_pressure() {
        let mut s = sys();
        let frames = s.machine().mapping.frame_count();
        // Pin the low watermark above the whole machine: pressure is Low
        // from the first cycle, so every admission is deferred and, after
        // the retries run out, dropped.
        s.set_watermarks(Watermarks {
            low: frames + 1,
            min: 1,
        });
        let rr = RoundRobin {
            admission_control: true,
            max_retries: 3,
            ..RoundRobin::default()
        };
        let out = rr.run(&mut s, vec![walker(0, 0, 1, 5), walker(10, 1, 1, 5)]);
        assert_eq!(out.arrivals, 2);
        assert_eq!(out.completed, 0);
        assert_eq!(out.rejected_admission, 2);
        assert_eq!(out.admission_backoffs, 2 * 3, "max_retries deferrals each");
        assert_eq!(out.failed(), 2);
        assert_eq!(s.kernel().stats().admission_rejects, 2 * 4);
        s.check_invariants();
    }

    #[test]
    fn oom_kill_relieves_pressure_mid_run() {
        let mut s = sys();
        let frames = s.machine().mapping.frame_count();
        // Leave only a sliver of memory: two 40-page walkers cannot both
        // fit, so the second's faults hit ENOMEM and the armed killer must
        // sacrifice somebody.
        s.kernel_mut().consume_boot_noise(frames - 64);
        let baseline = s.kernel().pool_snapshot();
        let rr = RoundRobin {
            quantum: 2_000,
            oom: Some(VictimPolicy::LargestFootprint),
            audit_frames: 128,
            ..RoundRobin::default()
        };
        let out = rr.run(&mut s, vec![walker(0, 0, 40, 300), walker(0, 1, 40, 300)]);
        assert!(out.killed_oom >= 1, "the killer fired: {out:?}");
        assert_eq!(out.completed + out.failed(), 2, "every arrival accounted");
        assert_eq!(out.exit_errors, 0);
        assert!(out.audited_frames > 0, "the incremental audit ran");
        assert_eq!(s.kernel().stats().oom_kills, out.killed_oom);
        assert_eq!(s.kernel().pool_snapshot(), baseline, "kills leak nothing");
        s.check_invariants();
    }

    #[test]
    fn pressure_runs_are_deterministic_with_windows() {
        let run = || {
            let mut s = sys();
            let frames = s.machine().mapping.frame_count();
            s.kernel_mut().consume_boot_noise(frames - 96);
            let rr = RoundRobin {
                quantum: 1_000,
                admission_control: true,
                oom: Some(VictimPolicy::LargestFootprint),
                audit_frames: 64,
                max_retries: 4,
                ..RoundRobin::default()
            };
            let jobs = vec![
                walker(0, 0, 30, 200),
                walker(500, 1, 30, 200),
                walker(900, 0, 30, 200),
            ];
            rr.run_with_windows(&mut s, jobs, 50_000)
        };
        let (o1, w1) = run();
        let (o2, w2) = run();
        assert_eq!(o1, o2);
        assert_eq!(w1, w2);
        assert!(!w1.is_empty(), "windows were emitted");
        assert_eq!(w1.last().unwrap().end, o1.makespan, "final snapshot");
    }
}
