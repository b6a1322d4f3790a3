//! Run (workload, scheme, pinning, seed) experiment cells on fresh machines.
//!
//! Three layers sit between a figure and the simulator:
//!
//! * the **cell cache** ([`crate::simcache`]): every cell is deterministic,
//!   so results are memoized by content — figures within one invocation
//!   share cells (fig13/fig14 are a strict subset of the fig11 matrix)
//!   without knowing about each other;
//! * the **cell farm** ([`crate::journal`]): completed cells are also
//!   appended to a crash-safe on-disk store (when armed), replayed into
//!   the cache at startup, so a killed run resumes without re-simulating
//!   its completed prefix. The store is sharded per writer process
//!   (`O_EXCL`-created append shards inside a generation directory), so
//!   any number of concurrent `repro` processes can share one journal
//!   directory lock-free and collectively only ever simulate new cells;
//!   on persistent io failure the journal disarms itself (one warning)
//!   and the run completes journal-less with identical figures;
//! * the **matrix executor** ([`run_cells`]): figures flatten their whole
//!   (benchmark × config × scheme × rep) cell list into one work queue
//!   drained by `--jobs` host threads. Cells vary ~100× in cost
//!   (lbm vs blackscholes), so stealing from a single flattened queue is
//!   what load-balances a sweep; a per-cell ≤ reps-way fan-out cannot.
//!
//! Results are merged back in canonical (input) order, so figure output is
//! byte-identical at any job count and with the cache/journal on or off.
//!
//! ## Worker isolation
//!
//! Each cell attempt runs under `catch_unwind`: a panicking cell (a real
//! bug, or a scheduled [`crate::hostfault`] injection) is retried up to
//! [`cell_retries`] times (default 2) — an immediate, backoff-free
//! requeue on the same worker — and only after every attempt fails is it
//! recorded as a **poisoned** cell: a zeroed sentinel result with
//! [`ExpResult::poisoned`] set, rendered as `ERR` in figure tables and
//! counted by [`poisoned_cells`] so the `repro` binary can exit nonzero
//! without aborting the rest of the matrix. Poisoned results are never
//! cached or journaled; a later run retries them.
//!
//! A watchdog thread (armed by [`set_cell_timeout_ms`]) warns about cells
//! exceeding the soft deadline; in strict-deadline mode
//! ([`set_strict_deadline`], the `repro --strict-deadline` flag) an
//! overdue cell's eventual result is discarded and the cell poisoned, and
//! a cell stuck past 20× the deadline aborts the whole process (exit 124,
//! journal flushed — a resume skips everything that completed) so a
//! livelocked simulation cannot hang CI forever.
//!
//! SIGINT/SIGTERM (when the binary armed [`install_cancel_handlers`]) flip
//! a cooperative cancel flag: workers drain at the next cell boundary, the
//! journal is flushed, and the process exits 130 with a resume notice.

use crate::hostfault;
use crate::journal;
use crate::simcache::{self, CellKey};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tint_spmd::{RunMetrics, SimThread};
use tint_workloads::{PinConfig, Workload};
use tintmalloc::prelude::*;

/// Simulated cycles completed by every actual simulation in this process —
/// the benchmark-side progress counter `repro` snapshots around each
/// figure to report simulated work next to wall-clock time. Cache hits do
/// not add to it: it counts *new* simulation work, which is how
/// `BENCH_repro.json` proves a command was served from the cache.
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Total simulated cycles (sum of per-run `metrics.runtime`) executed so
/// far in this process.
pub fn simulated_cycles() -> u64 {
    SIM_CYCLES.load(Ordering::Relaxed)
}

/// Everything one run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpResult {
    /// SPMD metrics (runtime, per-thread runtime/idle).
    pub metrics: RunMetrics,
    /// Fraction of DRAM accesses served by remote nodes.
    pub remote_fraction: f64,
    /// Cross-core LLC evictions (interference events).
    pub llc_interference: u64,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// Pages moved into color lists (Algorithm 2 volume).
    pub pages_moved: u64,
    /// Page faults taken.
    pub page_faults: u64,
    /// Total kernel cycles charged for faults (incl. color-list population).
    pub fault_cycles: u64,
    /// Machine-wide L3 miss rate (misses / L3 lookups).
    pub l3_miss_rate: f64,
    /// Machine-wide mean end-to-end access latency (cycles).
    pub mean_latency: f64,
    /// create_color_list invocations.
    pub color_list_moves: u64,
    /// True when this is a sentinel for a cell whose every attempt
    /// panicked (or blew its strict deadline): the numbers above are
    /// zeros, figures render the affected rows as `ERR`, and the cell is
    /// never cached or journaled.
    pub poisoned: bool,
}

/// One cell of a figure's sweep: `workload` run under `(scheme, pin)` with
/// repetition seed `seed`.
#[derive(Clone, Copy)]
pub struct CellSpec<'a> {
    /// The workload (immutable configuration; `Sync` by trait bound).
    pub workload: &'a dyn Workload,
    /// Coloring policy.
    pub scheme: ColorScheme,
    /// Thread→core pinning.
    pub pin: PinConfig,
    /// Repetition seed (the paper's 10 repetitions are seeds 1..=10).
    pub seed: u64,
}

impl CellSpec<'_> {
    /// Human-readable cell identity for warnings and poisoned-cell logs.
    fn describe(&self) -> String {
        format!(
            "{} / {} / {} / seed {}",
            self.workload.name(),
            self.scheme.label(),
            self.pin,
            self.seed
        )
    }
}

/// Actually simulate one cell on a fresh machine (no cache involvement).
/// The seed drives boot noise (physical-layout jitter across the paper's
/// repetitions) and the workloads' random streams.
fn simulate_cell(
    workload: &dyn Workload,
    scheme: ColorScheme,
    pin: PinConfig,
    seed: u64,
) -> ExpResult {
    let machine = MachineConfig::opteron_6128();
    let mut sys = System::boot(machine);
    // Jitter the physical layout: consume a pseudo-random number of low
    // frames, as a freshly booted system with prior activity would.
    sys.boot_noise((seed.wrapping_mul(2654435761) % 2048) * 4);

    let cores = pin.cores();
    let mut threads = SimThread::spawn_all(&mut sys, &cores);
    let plan = scheme.plan(sys.machine(), &cores);
    for (t, p) in threads.iter().zip(&plan) {
        sys.apply_colors(t.tid, p).expect("color plan applies");
    }

    let program = workload
        .build(&mut sys, &threads, seed)
        .expect("workload builds");
    let metrics = program.run(&mut sys, &mut threads).expect("program runs");

    let kstats = *sys.kernel().stats();
    let hier = sys.mem().hierarchy().stats();
    let (l3_hits, l3_misses) = hier
        .cores
        .iter()
        .fold((0u64, 0u64), |(h, m), c| (h + c.l3_hits, m + c.l3_misses));
    let mem = sys.mem().stats();
    let (acc, lat) = mem.cores.iter().fold((0u64, 0u64), |(a, l), c| {
        (a + c.accesses, l + c.total_latency)
    });
    SIM_CYCLES.fetch_add(metrics.runtime, Ordering::Relaxed);
    ExpResult {
        metrics,
        remote_fraction: mem.remote_fraction(),
        llc_interference: hier.total_llc_interference(),
        row_hit_rate: sys.mem().dram().stats().hit_rate(),
        pages_moved: kstats.pages_moved,
        page_faults: kstats.page_faults,
        fault_cycles: kstats.fault_cycles,
        l3_miss_rate: if l3_hits + l3_misses == 0 {
            0.0
        } else {
            l3_misses as f64 / (l3_hits + l3_misses) as f64
        },
        mean_latency: if acc == 0 {
            0.0
        } else {
            lat as f64 / acc as f64
        },
        color_list_moves: kstats.create_color_list_calls,
        poisoned: false,
    }
}

// ---------------------------------------------------------------------------
// Worker isolation: retries, poisoned cells, deadlines, cancellation
// ---------------------------------------------------------------------------

/// Cells that exhausted every attempt this process (each is an `ERR` row
/// driver and a reason for `repro` to exit nonzero).
static POISONED: AtomicU64 = AtomicU64::new(0);

/// Panicked attempts that were requeued (retry accounting for tests/JSON).
static RETRIES_USED: AtomicU64 = AtomicU64::new(0);

/// Number of cells poisoned so far this process.
pub fn poisoned_cells() -> u64 {
    POISONED.load(Ordering::Relaxed)
}

/// Number of panicked attempts that were retried so far this process.
pub fn retries_used() -> u64 {
    RETRIES_USED.load(Ordering::Relaxed)
}

/// Zero the poisoned/retry counters (tests).
pub fn reset_fault_counters() {
    POISONED.store(0, Ordering::Relaxed);
    RETRIES_USED.store(0, Ordering::Relaxed);
}

/// Memory-pressure events observed by figures this process: OOM victim
/// kills, watermark admission rejections, and `EAGAIN` allocation retries
/// (fed by the `soak` figure; reported in `BENCH_repro.json`).
static OOM_KILLS: AtomicU64 = AtomicU64::new(0);
static ADMISSION_REJECTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Accumulate one simulated system's pressure counters into the
/// process-wide totals.
pub fn note_pressure_stats(oom_kills: u64, admission_rejects: u64, alloc_retries: u64) {
    OOM_KILLS.fetch_add(oom_kills, Ordering::Relaxed);
    ADMISSION_REJECTS.fetch_add(admission_rejects, Ordering::Relaxed);
    ALLOC_RETRIES.fetch_add(alloc_retries, Ordering::Relaxed);
}

/// `(oom_kills, admission_rejects, alloc_retries)` accumulated so far.
pub fn pressure_stats() -> (u64, u64, u64) {
    (
        OOM_KILLS.load(Ordering::Relaxed),
        ADMISSION_REJECTS.load(Ordering::Relaxed),
        ALLOC_RETRIES.load(Ordering::Relaxed),
    )
}

/// Zero the pressure counters (tests).
pub fn reset_pressure_stats() {
    OOM_KILLS.store(0, Ordering::Relaxed);
    ADMISSION_REJECTS.store(0, Ordering::Relaxed);
    ALLOC_RETRIES.store(0, Ordering::Relaxed);
}

/// Retries per panicking cell when nothing sets them.
const DEFAULT_CELL_RETRIES: u32 = 2;

/// Retries per panicking cell (`repro` sets it from `TINT_CELL_RETRIES`).
static CELL_RETRIES: AtomicU32 = AtomicU32::new(DEFAULT_CELL_RETRIES);

/// Set the retries per panicking cell; `None` restores the default (2).
pub fn set_cell_retries(retries: Option<u32>) {
    CELL_RETRIES.store(retries.unwrap_or(DEFAULT_CELL_RETRIES), Ordering::Relaxed);
}

/// Retries per panicking cell.
pub fn cell_retries() -> u32 {
    CELL_RETRIES.load(Ordering::Relaxed)
}

/// Soft per-cell deadline in milliseconds; `u64::MAX` = unarmed.
static TIMEOUT_MS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Arm the soft per-cell deadline (`repro` sets it from
/// `TINT_CELL_TIMEOUT_S`); `None` disarms it.
pub fn set_cell_timeout_ms(ms: Option<u64>) {
    TIMEOUT_MS.store(ms.unwrap_or(u64::MAX), Ordering::Relaxed);
}

/// The soft per-cell deadline, if armed.
pub fn cell_timeout() -> Option<Duration> {
    let ms = TIMEOUT_MS.load(Ordering::Relaxed);
    (ms != u64::MAX).then(|| Duration::from_millis(ms))
}

/// Strict-deadline mode: overdue cells are poisoned instead of merely
/// warned about (the `repro --strict-deadline` flag).
static STRICT_DEADLINE: AtomicBool = AtomicBool::new(false);

/// Enable/disable strict-deadline mode.
pub fn set_strict_deadline(on: bool) {
    STRICT_DEADLINE.store(on, Ordering::Relaxed);
}

/// Is strict-deadline mode on?
pub fn strict_deadline() -> bool {
    STRICT_DEADLINE.load(Ordering::Relaxed)
}

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

/// The zeroed sentinel recorded for a cell that exhausted every attempt.
fn poisoned_sentinel(c: &CellSpec<'_>) -> ExpResult {
    ExpResult {
        metrics: RunMetrics::new(c.pin.cores().len()),
        remote_fraction: 0.0,
        llc_interference: 0,
        row_hit_rate: 0.0,
        pages_moved: 0,
        page_faults: 0,
        fault_cycles: 0,
        l3_miss_rate: 0.0,
        mean_latency: 0.0,
        color_list_moves: 0,
        poisoned: true,
    }
}

/// True when any repetition in `rs` is a poisoned sentinel — figures use
/// this to render the affected row's value cells as `ERR`.
pub fn any_poisoned(rs: &[ExpResult]) -> bool {
    rs.iter().any(|r| r.poisoned)
}

/// Run one cell attempt-isolated: `catch_unwind` around the simulation
/// (plus the host-fault injection point), immediate requeue up to
/// [`cell_retries`] times, then a poisoned sentinel. Simulation is
/// deterministic, so a successful retry returns exactly what an
/// undisturbed run would have.
fn run_cell_guarded(c: &CellSpec<'_>) -> ExpResult {
    let attempts = 1 + cell_retries() as u64;
    for attempt in 1..=attempts {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            hostfault::maybe_inject();
            simulate_cell(c.workload, c.scheme, c.pin, c.seed)
        }));
        match outcome {
            Ok(r) => return r,
            Err(_) if attempt < attempts => {
                RETRIES_USED.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "worker: cell [{}] panicked (attempt {attempt}/{attempts}); requeueing",
                    c.describe()
                );
            }
            Err(_) => {
                POISONED.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "worker: cell [{}] poisoned after {attempts} attempts — \
                     it will render as ERR and the run will exit nonzero",
                    c.describe()
                );
            }
        }
    }
    poisoned_sentinel(c)
}

/// Shared worker↔watchdog state for one `run_cells` batch.
struct Watch {
    /// Per-worker: `(cell index, start)` while a cell is being simulated.
    active: Mutex<Vec<Option<(usize, Instant)>>>,
    /// Cells flagged overdue by the watchdog (strict mode: reject result).
    flagged: Mutex<std::collections::HashSet<usize>>,
    /// Cells already warned about (warn once each).
    warned: Mutex<std::collections::HashSet<usize>>,
    /// Workers still draining the queue; the watchdog exits at zero.
    workers_alive: AtomicUsize,
}

impl Watch {
    fn new(workers: usize) -> Self {
        Self {
            active: Mutex::new(vec![None; workers]),
            flagged: Mutex::new(std::collections::HashSet::new()),
            warned: Mutex::new(std::collections::HashSet::new()),
            workers_alive: AtomicUsize::new(workers),
        }
    }

    fn begin(&self, worker: usize, cell: usize) {
        self.active.lock().unwrap_or_else(|e| e.into_inner())[worker] =
            Some((cell, Instant::now()));
    }

    /// Clear the worker's slot; returns true when strict-deadline mode
    /// flagged this cell while it ran (its result must be discarded).
    fn end(&self, worker: usize, cell: usize) -> bool {
        self.active.lock().unwrap_or_else(|e| e.into_inner())[worker] = None;
        strict_deadline()
            && self
                .flagged
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(&cell)
    }

    fn worker_done(&self) {
        self.workers_alive.fetch_sub(1, Ordering::Release);
    }
}

/// Watchdog body: wake a few times per deadline, warn about overdue cells
/// (once each), flag them in strict mode, and — strict mode, armed binary
/// only — abort the process if a cell is stuck past 20× the deadline (the
/// journal holds everything completed, so an abort is resumable).
fn watchdog_loop(watch: &Watch, cells: &[CellSpec<'_>], timeout: Duration) {
    let tick = (timeout / 4)
        .min(Duration::from_millis(200))
        .max(Duration::from_millis(10));
    let hard_kill = timeout.saturating_mul(20);
    while watch.workers_alive.load(Ordering::Acquire) > 0 {
        std::thread::sleep(tick);
        let overdue: Vec<(usize, Duration)> = {
            let active = watch.active.lock().unwrap_or_else(|e| e.into_inner());
            active
                .iter()
                .flatten()
                .filter(|(_, start)| start.elapsed() > timeout)
                .map(|&(i, start)| (i, start.elapsed()))
                .collect()
        };
        for (i, elapsed) in overdue {
            let first = watch
                .warned
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(i);
            if first {
                eprintln!(
                    "watchdog: cell [{}] running {:.1}s, past the {:.1}s deadline{}",
                    cells[i].describe(),
                    elapsed.as_secs_f64(),
                    timeout.as_secs_f64(),
                    if strict_deadline() {
                        " — its result will be discarded (strict-deadline)"
                    } else {
                        ""
                    }
                );
            }
            if strict_deadline() {
                watch
                    .flagged
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(i);
                if elapsed > hard_kill && CANCEL_ARMED.load(Ordering::SeqCst) {
                    journal::flush();
                    eprintln!(
                        "watchdog: cell [{}] stuck for {:.1}s (20x the deadline); \
                         aborting — completed cells are journaled, resume with the same command",
                        cells[i].describe(),
                        elapsed.as_secs_f64()
                    );
                    std::process::exit(124);
                }
            }
        }
    }
}

/// Run one experiment cell, through the cell cache and journal, isolated
/// like any executor cell (a panic poisons the result, never the process).
pub fn run_once(
    workload: &dyn Workload,
    scheme: ColorScheme,
    pin: PinConfig,
    seed: u64,
) -> ExpResult {
    let key = CellKey::of(workload, scheme, pin, seed);
    if let Some(r) = simcache::lookup(&key) {
        simcache::note_hits(1);
        journal::note_replayed_hit(&key);
        return r;
    }
    simcache::note_misses(1);
    let spec = CellSpec {
        workload,
        scheme,
        pin,
        seed,
    };
    let r = run_cell_guarded(&spec);
    if !r.poisoned {
        simcache::insert(key, &r);
        journal::append(&key, &r);
    }
    r
}

/// Run `reps` seeded repetitions (the paper repeats everything 10×) as one
/// flattened cell batch.
pub fn run_reps(
    workload: &dyn Workload,
    scheme: ColorScheme,
    pin: PinConfig,
    reps: u32,
) -> Vec<ExpResult> {
    let cells: Vec<CellSpec> = (1..=reps as u64)
        .map(|seed| CellSpec {
            workload,
            scheme,
            pin,
            seed,
        })
        .collect();
    run_cells(&cells, available_jobs())
}

/// Worker-thread count set by the `repro` binary; 0 = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the worker-thread count used by [`run_reps`]/figure sweeps (`repro`
/// sets it from `--jobs` or `TINT_JOBS`). Passing 0 clears it, falling back
/// to host parallelism.
pub fn set_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

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

/// Number of worker threads the matrix executor uses by default: the count
/// set by [`set_jobs`], else the host's available parallelism. Always ≥ 1.
pub fn available_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run a batch of cells across `jobs` host threads with a shared work
/// queue, returning results in input order. See [`run_cells_with_progress`].
pub fn run_cells(cells: &[CellSpec<'_>], jobs: usize) -> Vec<ExpResult> {
    run_cells_with_progress(cells, jobs, &|_, _| {})
}

/// [`run_cells`] with a progress callback, invoked after each *simulated*
/// cell as `progress(done, to_simulate)` (cache hits are served instantly
/// and not reported; the callback may be called from worker threads).
///
/// Execution model: cached cells are filled first; the remaining misses
/// form a single flat queue drained by `min(jobs, misses)` scoped threads
/// via an atomic cursor — a cheap work-stealing scheme that load-balances
/// cells of wildly different cost. Each repetition is an independent
/// deterministic simulation, so the fan-out changes only wall-clock time,
/// never results: the canonical-order merge makes the output independent
/// of `jobs` (asserted by tests below and `tests/cell_cache.rs`).
///
/// Every simulated cell runs panic-isolated (see the module docs); each
/// completed cell is appended to the journal at the moment it finishes, so
/// a crash loses at most in-flight cells. On cooperative cancellation
/// (SIGINT/SIGTERM in the `repro` binary) workers stop picking up new
/// cells, the journal is flushed, and the process exits 130.
///
/// In-batch duplicates (same content key appearing twice) are simulated
/// once and counted as cache hits when the cache is enabled; with the
/// cache disabled every occurrence is simulated, exactly as the pre-cache
/// harness did.
pub fn run_cells_with_progress(
    cells: &[CellSpec<'_>],
    jobs: usize,
    progress: &(dyn Fn(usize, usize) + Sync),
) -> Vec<ExpResult> {
    let jobs = jobs.max(1);
    let caching = simcache::enabled();
    let keys: Vec<CellKey> = cells
        .iter()
        .map(|c| CellKey::of(c.workload, c.scheme, c.pin, c.seed))
        .collect();
    let mut slots: Vec<Option<ExpResult>> = Vec::with_capacity(cells.len());
    let mut to_run: Vec<usize> = Vec::new();
    let mut pending: std::collections::HashMap<CellKey, usize> = std::collections::HashMap::new();
    let mut dups: Vec<(usize, usize)> = Vec::new();
    let mut hits = 0u64;
    for (i, key) in keys.iter().enumerate() {
        if let Some(r) = simcache::lookup(key) {
            slots.push(Some(r));
            hits += 1;
            journal::note_replayed_hit(key);
            continue;
        }
        slots.push(None);
        if caching {
            if let Some(&src) = pending.get(key) {
                dups.push((i, src));
                hits += 1;
                continue;
            }
            pending.insert(*key, i);
        }
        to_run.push(i);
    }
    simcache::note_hits(hits);
    simcache::note_misses(to_run.len() as u64);

    let total = to_run.len();
    if total > 0 {
        let workers = jobs.min(total);
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, ExpResult)>> = Mutex::new(Vec::with_capacity(total));
        let watch = Watch::new(workers);
        let timeout = cell_timeout();
        std::thread::scope(|s| {
            if let Some(t) = timeout {
                let watch = &watch;
                s.spawn(move || watchdog_loop(watch, cells, t));
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
                        let mut r = run_cell_guarded(c);
                        if watch.end(w, i) && !r.poisoned {
                            // Strict deadline: the cell finished, but too
                            // late — treat like a failed cell.
                            POISONED.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "worker: cell [{}] exceeded the strict deadline; \
                                 result discarded (ERR)",
                                c.describe()
                            );
                            r = poisoned_sentinel(c);
                        }
                        if !r.poisoned {
                            journal::append(&keys[i], &r);
                        }
                        results
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((i, r));
                        progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
                    }
                    watch.worker_done();
                });
            }
        });
        for (i, r) in results.into_inner().unwrap_or_else(|e| e.into_inner()) {
            slots[i] = Some(r);
        }
        if caching {
            for &i in &to_run {
                match slots[i].as_ref() {
                    Some(r) if !r.poisoned => simcache::insert(keys[i], r),
                    _ => {}
                }
            }
        }
    }
    // Graceful shutdown: everything completed so far is journaled; tell
    // the user how to pick the run back up and stop here.
    if CANCEL_ARMED.load(Ordering::SeqCst) && cancel_requested() {
        journal::flush();
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

    /// Total idle summary.
    pub fn idle(results: &[ExpResult]) -> Self {
        Self::of(results, |r| r.metrics.total_idle() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_workloads::traits::Scale;
    use tint_workloads::Synthetic;

    fn tiny_synth() -> Synthetic {
        Synthetic {
            bytes_per_thread: 32 * 4096,
        }
    }

    #[test]
    fn run_once_is_deterministic_per_seed() {
        // Bypass the cache on purpose: a==b must hold because the simulator
        // is deterministic, not because a memo served the second call.
        let w = tiny_synth();
        let a = simulate_cell(&w, ColorScheme::Buddy, PinConfig::T4N4, 3);
        let b = simulate_cell(&w, ColorScheme::Buddy, PinConfig::T4N4, 3);
        assert_eq!(a.metrics, b.metrics);
        // Under the node-oblivious legacy baseline, boot noise shifts the
        // global cursor and with it the node mix → runtimes differ. (The
        // NUMA-aware buddy is translation-invariant on this symmetric
        // workload, so it is not a good seed probe.)
        let c = simulate_cell(&w, ColorScheme::LegacyGlobal, PinConfig::T4N4, 3);
        let d = simulate_cell(&w, ColorScheme::LegacyGlobal, PinConfig::T4N4, 4);
        assert_ne!(c.metrics.runtime, d.metrics.runtime, "seed changes layout");
    }

    #[test]
    fn summary_math() {
        let w = tiny_synth();
        let rs = run_reps(&w, ColorScheme::MemLlc, PinConfig::T4N4, 3);
        assert_eq!(rs.len(), 3);
        let s = Summary::runtime(&rs);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn flattened_executor_matches_serial_at_any_job_count() {
        // Mixed-cost cell list (two schemes × reps) through the flat queue.
        let w = tiny_synth();
        let cells: Vec<CellSpec> = [ColorScheme::MemLlc, ColorScheme::Buddy]
            .iter()
            .flat_map(|&scheme| {
                (1..=3u64)
                    .map(move |seed| (scheme, seed))
                    .collect::<Vec<_>>()
            })
            .map(|(scheme, seed)| CellSpec {
                workload: &w,
                scheme,
                pin: PinConfig::T4N4,
                seed,
            })
            .collect();
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 4);
        assert_eq!(serial.len(), cells.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.metrics, b.metrics, "fan-out must not change results");
        }
    }

    #[test]
    fn run_once_and_run_reps_share_cells() {
        // Seed 2 of run_reps is the same content cell as run_once(seed=2);
        // whether it came from cache or a fresh simulation, the values are
        // identical — the invariant byte-identical figures rest on.
        let w = tiny_synth();
        let one = run_once(&w, ColorScheme::MemOnly, PinConfig::T4N4, 2);
        let reps = run_reps(&w, ColorScheme::MemOnly, PinConfig::T4N4, 2);
        assert_eq!(one.metrics, reps[1].metrics);
    }

    #[test]
    fn colored_run_moves_pages() {
        let w = tiny_synth();
        let r = run_once(&w, ColorScheme::MemLlc, PinConfig::T4N4, 1);
        assert!(r.pages_moved > 0);
        assert!(r.page_faults > 0);
        // MEM+LLC keeps everything local.
        assert_eq!(r.remote_fraction, 0.0);
    }

    #[test]
    fn jobs_override_and_env_clamp() {
        // The override wins over host parallelism and 0 clears it.
        set_jobs(3);
        assert_eq!(available_jobs(), 3);
        set_jobs(0);
        assert!(available_jobs() >= 1);
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
