//! Run cells ([`crate::cell`]) on fresh machines: the one executor.
//!
//! A [`Harness`] is one run's context. It is built from a [`RunConfig`] —
//! the `repro` binary parses its flags and `TINT_*` variables into one,
//! once — and owns everything the run keeps: the cell cache, the journal,
//! the host-fault schedule and the run counters ([`Stats`]). Figures take
//! `&Harness`, so two harnesses with conflicting configurations run side by
//! side in one process without seeing each other.
//!
//! Three layers sit between a figure and the simulator:
//!
//! * the **cell cache** ([`CellCache`]): cells are deterministic, so
//!   results are memoized by their [`CellKey`] — figures run through one
//!   harness share cells (fig13/fig14 are a subset of the fig11 matrix)
//!   without knowing about each other;
//! * the **cell farm** ([`crate::journal`]): completed cells are also
//!   appended to a crash-safe on-disk store, replayed into the cache when
//!   the harness is built, so a killed run resumes without re-simulating
//!   its completed prefix;
//! * the **executor** ([`Harness::run_cells`]): every simulating command
//!   flattens its whole cell list into one work queue drained by `--jobs`
//!   host threads. Cells vary ~100× in cost (lbm vs blackscholes), so
//!   stealing from one flattened queue is what load-balances a sweep.
//!
//! Results are merged back in canonical (input) order, so figure output is
//! byte-identical at any job count and with the cache/journal on or off.
//!
//! ## Worker isolation
//!
//! Each cell attempt runs under `catch_unwind`: a panicking cell (a real
//! bug, a contract a scenario asserts inside its cell, or a scheduled
//! [`crate::hostfault`] injection) is requeued at once, up to
//! [`RunConfig::cell_retries`] times, and only then recorded as
//! **poisoned**: a zeroed sentinel with [`ExpResult::poisoned`] set, which
//! figures render as `ERR` and [`Stats::poisoned`] counts, so `repro`
//! exits nonzero without aborting the rest of the matrix. Poisoned results
//! are never cached or journaled; a later run retries them.
//!
//! A watchdog thread ([`RunConfig::cell_timeout`]) warns about overdue
//! cells; with [`RunConfig::strict_deadline`] their results are discarded
//! (poisoned), and a cell stuck past 20× the deadline aborts the process
//! (exit 124, journal flushed) so a livelock cannot hang CI.
//! SIGINT/SIGTERM (once the binary called [`install_cancel_handlers`])
//! flip a process-wide cancel flag: workers drain at the next cell
//! boundary, the journal is flushed, and the process exits 130.

pub use crate::cell::{cells_for, CellSpec, ExpResult};
use crate::cell::{poisoned_sentinel, simulate, CellKey};
use crate::hostfault::{HostFaultPlan, PANIC_MARKER};
use crate::journal::Journal;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tint_hw::fxhash::FxHashMap;

/// Lock `m`, absorbing poisoning: every mutex here guards plain values
/// (results, counters, bookkeeping) valid wherever a panicking holder
/// stopped.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Completed cells by content key. The flag marks a cell loaded from the
/// journal: serving it is a *journal hit*, the counter a resumed run uses
/// to prove it did not re-simulate its completed prefix.
#[derive(Default)]
pub struct CellCache(Mutex<FxHashMap<CellKey, (ExpResult, bool)>>);

impl CellCache {
    /// The cached result for `key` and whether it came from the journal.
    pub fn get(&self, key: &CellKey) -> Option<(ExpResult, bool)> {
        lock(&self.0).get(key).cloned()
    }

    /// Store a completed cell (`from_journal`: loaded by journal replay).
    pub fn insert(&self, key: CellKey, result: ExpResult, from_journal: bool) {
        lock(&self.0).insert(key, (result, from_journal));
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        lock(&self.0).len()
    }

    /// True when no cell is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Worker isolation: poisoned cells, deadlines, cancellation
// ---------------------------------------------------------------------------

/// Cooperative cancellation flag, flipped by SIGINT/SIGTERM once the
/// binary has armed the handlers.
static CANCELLED: AtomicBool = AtomicBool::new(false);
/// True once [`install_cancel_handlers`] ran: only then may the executor
/// exit the process on cancellation (library tests never arm this).
static CANCEL_ARMED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_cancel_signal(_sig: i32) {
    // Async-signal-safe: a single atomic store.
    CANCELLED.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that request cooperative cancellation:
/// workers drain at the next cell boundary, the journal is flushed, and
/// the process exits 130 with a resume notice. Binary entry points only —
/// library code must never install process-wide handlers.
pub fn install_cancel_handlers() {
    type Handler = extern "C" fn(i32);
    extern "C" {
        // The platform libc every Rust std binary already links.
        fn signal(signum: i32, handler: Handler) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_cancel_signal);
        signal(SIGTERM, on_cancel_signal);
    }
    CANCEL_ARMED.store(true, Ordering::SeqCst);
}

/// Has a cancellation been requested (signal received)?
pub fn cancel_requested() -> bool {
    CANCELLED.load(Ordering::SeqCst)
}

/// True when any repetition in `rs` is a poisoned sentinel — figures use
/// this to render the affected row's value cells as `ERR`.
pub fn any_poisoned(rs: &[ExpResult]) -> bool {
    rs.iter().any(|r| r.poisoned)
}

/// Shared worker↔watchdog state for one `run_cells` batch.
struct Watch {
    /// Per-worker: `(cell index, start)` while a cell is being simulated.
    active: Mutex<Vec<Option<(usize, Instant)>>>,
    /// Cells the watchdog found overdue (it warns once about each).
    overdue: Mutex<BTreeSet<usize>>,
    /// Workers still draining the queue; the watchdog exits at zero.
    workers_alive: AtomicUsize,
    /// Strict-deadline mode: overdue cells' results are discarded.
    strict: bool,
}

impl Watch {
    fn new(workers: usize, strict: bool) -> Self {
        Self {
            active: Mutex::new(vec![None; workers]),
            overdue: Mutex::default(),
            workers_alive: AtomicUsize::new(workers),
            strict,
        }
    }

    fn begin(&self, worker: usize, cell: usize) {
        lock(&self.active)[worker] = Some((cell, Instant::now()));
    }

    /// Clear the worker's slot; returns true when strict-deadline mode
    /// found this cell overdue while it ran (its result must be discarded).
    fn end(&self, worker: usize, cell: usize) -> bool {
        lock(&self.active)[worker] = None;
        self.strict && lock(&self.overdue).contains(&cell)
    }

    fn worker_done(&self) {
        self.workers_alive.fetch_sub(1, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// The run context: configuration, cache, journal, counters
// ---------------------------------------------------------------------------

/// Parse a worker count: a positive decimal integer. `0`, signs, hex
/// (`0x4`), empty, and non-numeric strings are rejected — silent clamping
/// hid typos like `TINT_JOBS=-2` behind a serial run.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    let t = s.trim();
    if t.is_empty() {
        return Err("job count is empty".to_string());
    }
    if !t.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("job count {t:?} is not a positive decimal integer"));
    }
    match t.parse::<usize>() {
        Ok(0) => Err("job count must be >= 1".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("job count {t:?} is out of range")),
    }
}

/// A run's settings: what `repro` takes from its flags and `TINT_*`
/// variables for the harness. [`Default`] is a library run: host
/// parallelism, 2 retries, no deadline, cache on, no journal, no faults.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads per cell batch; `None` = host parallelism.
    pub jobs: Option<usize>,
    /// Retries per panicking cell before it is poisoned.
    pub cell_retries: u32,
    /// Soft per-cell deadline the watchdog enforces; `None` = unarmed.
    pub cell_timeout: Option<Duration>,
    /// Poison overdue cells instead of only warning about them.
    pub strict_deadline: bool,
    /// Memoize cells in a content-addressed cell cache.
    pub cache: bool,
    /// Journal directory; `None` = no journal.
    pub journal: Option<PathBuf>,
    /// Host-fault schedule: a `panic:` plan reaches the executor, an `io:`
    /// plan the journal.
    pub host_fault: Option<HostFaultPlan>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            jobs: None,
            cell_retries: 2,
            cell_timeout: None,
            strict_deadline: false,
            cache: true,
            journal: None,
            host_fault: None,
        }
    }
}

/// A harness's run counters (a snapshot: [`Harness::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Simulated cycles of every cell this harness simulated: a workload
    /// cell's `metrics.runtime`, or what a scenario cell reports (its
    /// makespan, or the cycles of its accesses). Cache hits do not add to
    /// it: it counts *new* work, which is how `BENCH_repro.json` proves a
    /// command was served from the cache.
    pub sim_cycles: u64,
    /// Cells that exhausted every attempt.
    pub poisoned: u64,
    /// Panicked attempts that were requeued.
    pub retries: u64,
    /// Worker panics the `panic:` plan injected.
    pub faults_injected: u64,
    /// Cells served without simulation (cache or in-batch dedup).
    pub cache_hits: u64,
    /// Cells that had to be simulated.
    pub cache_misses: u64,
    /// Cache hits whose value was loaded from the journal: the counter a
    /// resumed run uses to prove it reused prior work.
    pub journal_hits: u64,
    /// New cells appended to the journal.
    pub journal_appends: u64,
    /// OOM victim kills, summed over the kernels of every simulated cell.
    pub oom_kills: u64,
    /// Watermark admission rejections, summed likewise.
    pub admission_rejects: u64,
    /// `EAGAIN` allocation retries, summed likewise.
    pub alloc_retries: u64,
}

/// One run's context: its configuration, cell cache, journal, host-fault
/// schedule and counters. See the module docs.
pub struct Harness {
    config: RunConfig,
    /// `None` when the configuration turns the cache off.
    cache: Option<CellCache>,
    journal: Journal,
    /// Cell attempts so far: the host-fault schedule's index (only a
    /// `panic:` plan fires on it).
    attempts: AtomicU64,
    stats: Mutex<Stats>,
}

impl Harness {
    /// Build a run's harness. Opening the configured journal replays its
    /// store into the new cell cache, as a fresh process does: a second
    /// harness on the same journal directory is a process restart.
    pub fn new(config: RunConfig) -> Self {
        let (journal, replayed) = Journal::open(config.journal.as_deref(), config.host_fault);
        let cache = config.cache.then(|| {
            let cache = CellCache::default();
            for (key, r) in replayed {
                cache.insert(key, r, true);
            }
            cache
        });
        Self {
            config,
            cache,
            journal,
            attempts: AtomicU64::new(0),
            stats: Mutex::default(),
        }
    }

    /// Worker threads per cell batch: the configured count, else the host's
    /// available parallelism. Always ≥ 1.
    pub fn jobs(&self) -> usize {
        self.config
            .jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }

    /// The cell cache, if the configuration keeps one.
    pub fn cache(&self) -> Option<&CellCache> {
        self.cache.as_ref()
    }

    /// The run's journal (inert when none is configured).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The run counters so far.
    pub fn stats(&self) -> Stats {
        let s = *lock(&self.stats);
        Stats {
            journal_appends: self.journal.appends(),
            ..s
        }
    }

    fn note(&self, f: impl FnOnce(&mut Stats)) {
        f(&mut lock(&self.stats));
    }

    /// Run one cell attempt-isolated: `catch_unwind` around the simulation
    /// (plus the host-fault injection point), immediate requeue up to
    /// [`RunConfig::cell_retries`] times, then a poisoned sentinel.
    /// Simulation is deterministic, so a successful retry returns exactly
    /// what an undisturbed run would have.
    fn run_cell_guarded(&self, c: &CellSpec<'_>, key: &CellKey) -> ExpResult {
        let attempts = 1 + self.config.cell_retries as u64;
        for attempt in 1..=attempts {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = self.config.host_fault {
                    let n = self.attempts.fetch_add(1, Ordering::Relaxed);
                    if plan.panics(n) {
                        self.note(|s| s.faults_injected += 1);
                        panic!("{PANIC_MARKER} (attempt {n})");
                    }
                }
                simulate(c)
            }));
            match outcome {
                Ok((r, spent)) => {
                    self.note(|s| {
                        s.sim_cycles += spent.sim_cycles;
                        s.oom_kills += spent.oom_kills;
                        s.admission_rejects += spent.admission_rejects;
                        s.alloc_retries += spent.alloc_retries;
                    });
                    return r;
                }
                Err(_) if attempt < attempts => {
                    self.note(|s| s.retries += 1);
                    eprintln!(
                        "worker: cell [{}] panicked (attempt {attempt}/{attempts}); requeueing",
                        key.0
                    );
                }
                Err(_) => {
                    self.note(|s| s.poisoned += 1);
                    eprintln!(
                        "worker: cell [{}] poisoned after {attempts} attempts — \
                         it will render as ERR and the run will exit nonzero",
                        key.0
                    );
                }
            }
        }
        poisoned_sentinel(c)
    }

    /// Watchdog body: wake a few times per deadline, warn about overdue
    /// cells (once each), and — strict mode, armed binary only — abort the
    /// process if a cell is stuck past 20× the deadline (the journal holds
    /// everything completed, so an abort is resumable).
    fn watchdog_loop(&self, watch: &Watch, keys: &[CellKey], timeout: Duration) {
        let strict = self.config.strict_deadline;
        let tick = (timeout / 4)
            .min(Duration::from_millis(200))
            .max(Duration::from_millis(10));
        let hard_kill = timeout.saturating_mul(20);
        while watch.workers_alive.load(Ordering::Acquire) > 0 {
            std::thread::sleep(tick);
            let overdue: Vec<(usize, Duration)> = {
                let active = lock(&watch.active);
                active
                    .iter()
                    .flatten()
                    .filter(|(_, start)| start.elapsed() > timeout)
                    .map(|&(i, start)| (i, start.elapsed()))
                    .collect()
            };
            for (i, elapsed) in overdue {
                if lock(&watch.overdue).insert(i) {
                    eprintln!(
                        "watchdog: cell [{}] running {:.1}s, past the {:.1}s deadline{}",
                        keys[i].0,
                        elapsed.as_secs_f64(),
                        timeout.as_secs_f64(),
                        if strict {
                            " — its result will be discarded (strict-deadline)"
                        } else {
                            ""
                        }
                    );
                }
                if strict && elapsed > hard_kill && CANCEL_ARMED.load(Ordering::SeqCst) {
                    self.journal.flush();
                    eprintln!(
                        "watchdog: cell [{}] stuck for {:.1}s (20x the deadline); \
                         aborting — completed cells are journaled, resume with the same command",
                        keys[i].0,
                        elapsed.as_secs_f64()
                    );
                    std::process::exit(124);
                }
            }
        }
    }

    /// Run a batch of cells across [`Self::jobs`] host threads with a
    /// shared work queue, returning results in input order. See
    /// [`Self::run_cells_with_progress`].
    pub fn run_cells(&self, cells: &[CellSpec<'_>]) -> Vec<ExpResult> {
        self.run_cells_with_progress(cells, &|_, _| {})
    }

    /// [`Self::run_cells`] with a progress callback, invoked (possibly from
    /// worker threads) after each *simulated* cell as
    /// `progress(done, to_simulate)`; cache hits are not reported.
    ///
    /// Cached cells are filled first; the misses form one flat queue
    /// drained by `min(jobs, misses)` scoped threads through an atomic
    /// cursor, which load-balances cells of wildly different cost. Cells
    /// are independent and deterministic, so the fan-out changes only
    /// wall-clock time: the canonical-order merge makes the output
    /// independent of `jobs`. Each completed cell is journaled the moment
    /// it finishes, so a crash loses at most the cells in flight. In-batch
    /// duplicates (one key twice) are simulated once and counted as cache
    /// hits when the cache is on.
    pub fn run_cells_with_progress(
        &self,
        cells: &[CellSpec<'_>],
        progress: &(dyn Fn(usize, usize) + Sync),
    ) -> Vec<ExpResult> {
        let keys: Vec<CellKey> = cells.iter().map(CellSpec::key).collect();
        let mut slots: Vec<Option<ExpResult>> = Vec::with_capacity(cells.len());
        let mut to_run: Vec<usize> = Vec::new();
        let mut pending: FxHashMap<CellKey, usize> = FxHashMap::default();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        let (mut hits, mut journal_hits) = (0u64, 0u64);
        for (i, key) in keys.iter().enumerate() {
            let Some(cache) = &self.cache else {
                slots.push(None);
                to_run.push(i);
                continue;
            };
            if let Some((r, from_journal)) = cache.get(key) {
                slots.push(Some(r));
                hits += 1;
                journal_hits += from_journal as u64;
                continue;
            }
            slots.push(None);
            match pending.entry(key.clone()) {
                Entry::Occupied(src) => {
                    dups.push((i, *src.get()));
                    hits += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    to_run.push(i);
                }
            }
        }
        self.note(|s| {
            s.cache_hits += hits;
            s.cache_misses += to_run.len() as u64;
            s.journal_hits += journal_hits;
        });

        let total = to_run.len();
        if total > 0 {
            let workers = self.jobs().min(total);
            let next = AtomicUsize::new(0);
            let done = AtomicUsize::new(0);
            let results: Mutex<Vec<(usize, ExpResult)>> = Mutex::new(Vec::with_capacity(total));
            let watch = Watch::new(workers, self.config.strict_deadline);
            std::thread::scope(|s| {
                if let Some(t) = self.config.cell_timeout {
                    let (watch, keys) = (&watch, &keys);
                    s.spawn(move || self.watchdog_loop(watch, keys, t));
                }
                for w in 0..workers {
                    let (watch, next, done, results) = (&watch, &next, &done, &results);
                    let (to_run, keys) = (&to_run, &keys);
                    s.spawn(move || {
                        loop {
                            if cancel_requested() {
                                break;
                            }
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= total {
                                break;
                            }
                            let i = to_run[k];
                            let c = &cells[i];
                            watch.begin(w, i);
                            let mut r = self.run_cell_guarded(c, &keys[i]);
                            if watch.end(w, i) && !r.poisoned {
                                // Strict deadline: the cell finished, but
                                // too late — treat like a failed cell.
                                self.note(|s| s.poisoned += 1);
                                eprintln!(
                                    "worker: cell [{}] exceeded the strict deadline; \
                                     result discarded (ERR)",
                                    keys[i].0
                                );
                                r = poisoned_sentinel(c);
                            }
                            if !r.poisoned {
                                self.journal.append(&keys[i], &r);
                            }
                            lock(results).push((i, r));
                            progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
                        }
                        watch.worker_done();
                    });
                }
            });
            for (i, r) in results.into_inner().unwrap_or_else(|e| e.into_inner()) {
                slots[i] = Some(r);
            }
            if let Some(cache) = &self.cache {
                for &i in &to_run {
                    match &slots[i] {
                        Some(r) if !r.poisoned => cache.insert(keys[i].clone(), r.clone(), false),
                        _ => {}
                    }
                }
            }
        }
        // Graceful shutdown: everything completed so far is journaled;
        // tell the user how to pick the run back up and stop here.
        if CANCEL_ARMED.load(Ordering::SeqCst) && cancel_requested() {
            self.journal.flush();
            eprintln!(
                "\nrepro: interrupted — completed cells are journaled; \
                 resume by re-running the same command"
            );
            std::process::exit(130);
        }
        // A cancelled batch without armed handlers (library use) can leave
        // unfilled slots; that never happens in practice because only the
        // binary arms cancellation, but fail soft rather than panicking.
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() && !dups.iter().any(|&(d, _)| d == i) {
                *slot = Some(poisoned_sentinel(&cells[i]));
            }
        }
        for (i, src) in dups {
            slots[i] = slots[src].clone();
        }
        slots
            .into_iter()
            .map(|o| o.expect("every cell filled"))
            .collect()
    }
}

/// Mean/min/max over repetitions of a scalar metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean over repetitions.
    pub mean: f64,
    /// Minimum (lower error bar).
    pub min: f64,
    /// Maximum (upper error bar).
    pub max: f64,
}

impl Summary {
    /// Summarize `f(result)` over a repetition set.
    pub fn of(results: &[ExpResult], f: impl Fn(&ExpResult) -> f64) -> Self {
        assert!(!results.is_empty());
        let vals: Vec<f64> = results.iter().map(f).collect();
        Self {
            mean: vals.iter().sum::<f64>() / vals.len() as f64,
            min: vals.iter().copied().fold(f64::INFINITY, f64::min),
            max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Benchmark runtime summary.
    pub fn runtime(results: &[ExpResult]) -> Self {
        Self::of(results, |r| r.metrics.runtime as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_workloads::traits::Scale;
    use tint_workloads::{PinConfig, Synthetic};
    use tintmalloc::colors::ColorScheme;

    fn tiny_synth() -> Synthetic {
        Synthetic {
            bytes_per_thread: 32 * 4096,
        }
    }

    fn harness(jobs: usize) -> Harness {
        Harness::new(RunConfig {
            jobs: Some(jobs),
            ..RunConfig::default()
        })
    }

    #[test]
    fn simulate_cell_is_deterministic_per_seed() {
        // Bypass the cache on purpose: a==b must hold because the simulator
        // is deterministic, not because a memo served the second call.
        let w = tiny_synth();
        let runtime = |scheme, seed| {
            let (r, spent) = simulate(&CellSpec::team(&w, scheme, PinConfig::T4N4, seed));
            assert_eq!(spent.sim_cycles, r.metrics.runtime);
            r.metrics.runtime
        };
        let a = simulate(&CellSpec::team(&w, ColorScheme::Buddy, PinConfig::T4N4, 3)).0;
        let b = simulate(&CellSpec::team(&w, ColorScheme::Buddy, PinConfig::T4N4, 3)).0;
        assert_eq!(a.metrics, b.metrics);
        // Under the node-oblivious legacy baseline, boot noise shifts the
        // global cursor and with it the node mix → runtimes differ. (The
        // NUMA-aware buddy is translation-invariant on this symmetric
        // workload, so it is not a good seed probe.)
        assert_ne!(
            runtime(ColorScheme::LegacyGlobal, 3),
            runtime(ColorScheme::LegacyGlobal, 4),
            "seed changes layout"
        );
    }

    #[test]
    fn summary_math() {
        let w = tiny_synth();
        let rs = harness(2).run_cells(&cells_for(&w, &[ColorScheme::MemLlc], PinConfig::T4N4, 3));
        assert_eq!(rs.len(), 3);
        let s = Summary::runtime(&rs);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn flattened_executor_matches_serial_at_any_job_count() {
        // Mixed-cost cell list (two schemes × reps) through the flat queue.
        let w = tiny_synth();
        let schemes = [ColorScheme::MemLlc, ColorScheme::Buddy];
        let cells = cells_for(&w, &schemes, PinConfig::T4N4, 3);
        let serial = harness(1).run_cells(&cells);
        let parallel = harness(4).run_cells(&cells);
        assert_eq!(serial.len(), cells.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.metrics, b.metrics, "fan-out must not change results");
        }
    }

    #[test]
    fn single_cell_and_rep_batch_share_cells() {
        // Seed 2 of a rep batch is the same content cell as a one-cell batch
        // at seed 2: the second batch is served it from the cache, and the
        // values are identical — the invariant byte-identical figures rest
        // on.
        let w = tiny_synth();
        let h = harness(1);
        let cells = cells_for(&w, &[ColorScheme::MemOnly], PinConfig::T4N4, 2);
        let one = h.run_cells(&cells[1..]);
        let reps = h.run_cells(&cells);
        assert_eq!(one[0].metrics, reps[1].metrics);
        assert_eq!((h.stats().cache_hits, h.stats().cache_misses), (1, 2));
    }

    #[test]
    fn colored_run_moves_pages() {
        let w = tiny_synth();
        let cell = cells_for(&w, &[ColorScheme::MemLlc], PinConfig::T4N4, 1);
        let r = &harness(1).run_cells(&cell)[0];
        assert!(r.pages_moved > 0);
        assert!(r.page_faults > 0);
        // MEM+LLC keeps everything local.
        assert_eq!(r.remote_fraction, 0.0);
    }

    #[test]
    fn jobs_override_and_env_clamp() {
        // A configured count wins over host parallelism; unset falls back
        // to it.
        assert_eq!(harness(3).jobs(), 3);
        assert!(Harness::new(RunConfig::default()).jobs() >= 1);
    }

    #[test]
    fn parse_jobs_rejects_nonsense() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs(" 8 "), Ok(8));
        for bad in ["0", "0x4", "-2", "", "  ", "four", "1.5", "+3"] {
            assert!(parse_jobs(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn scale_type_reexported_sanity() {
        let _ = Scale::default();
    }
}
