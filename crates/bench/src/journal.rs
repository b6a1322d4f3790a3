//! Persistent, crash-safe, multi-process **cell farm**.
//!
//! The cell cache ([`crate::runner::CellCache`]) makes cells free to reuse
//! *within* a run; this module makes completed cells survive the process
//! and concurrent processes. Every simulated cell is appended to an
//! on-disk journal as a CRC-protected record of its [`CellKey`] (the
//! canonical encoding of its spec) and its full [`ExpResult`], a scenario
//! cell's raw counters included. Opening a [`Journal`] replays the store
//! into the harness's cell cache, so a killed `repro` run resumes by
//! simulating only the cells it never finished, and processes sharing one
//! journal directory collectively only ever simulate new cells. Cells are
//! bit-deterministic per key, so a journaled result is indistinguishable
//! from a re-simulated one — as long as the code that computes a cell is
//! unchanged: a change that alters what a cell computes without changing
//! its key is served stale cells until the journal directory is deleted.
//!
//! ## On-disk layout (version 3)
//!
//! ```text
//! <journal dir>/
//!   cells.v3/                 the store root
//!     gc.lock                 GC lock file (locked only while GC runs)
//!     gen-00000001/           a *generation*: a directory of shards
//!       <pid>-<nonce>.jnl     one append-only shard per writer process
//!     gen-00000002.tmp.<pid>  an uncommitted GC build (ignored by replay)
//!     <shard>.corrupt.<n>     quarantined corrupt shards (kept as evidence)
//! ```
//!
//! Each **shard** is created `O_CREAT|O_EXCL` by exactly one writer
//! process, so the append path needs no locks. It holds the magic
//! `TINTJNL3`, then entries `len: u32 LE | crc: u32 LE (CRC-32 of the
//! payload) | payload` (the record `encode` writes). Stores of earlier formats
//! (`cells.v1.jnl`, `cells.v2/`) are never read or touched.
//!
//! Replay merges every shard of the **current generation** (the
//! highest-numbered `gen-*` directory) and dedupes by key. Failure
//! isolation is per shard:
//!
//! * **torn final write** — the fragment is dropped *in memory only*: a
//!   torn tail may be a live sibling's in-flight append, so foreign shards
//!   are never rewritten. GC compacts dead tails away.
//! * **mid-stream corruption** — a CRC mismatch, an insane length or an
//!   undecodable payload with data after it: the shard is quarantined
//!   (renamed to a unique `<name>.corrupt.<n>` in the store root), its good
//!   prefix is rescued into this process's own shard, and replay goes on.
//!
//! ## Generations and GC
//!
//! [`Journal::gc`] (`repro gc-journal`) merges the current generation like
//! replay, writes the live cells into one shard of a `gen-<N+1>.tmp.<pid>`
//! directory, fsyncs, and commits with a **single atomic rename** to
//! `gen-<N+1>`: a crash at any point leaves the old or the new generation
//! intact. An exclusive OS lock on `gc.lock` ([`crate::lockfile`]) keeps
//! two GCs apart; old generations are removed only after the commit.
//!
//! ## Fault tolerance
//!
//! Every write-path filesystem operation runs under an io shim that fails
//! it on the run's seeded [`crate::hostfault`] schedule
//! (`TINT_HOST_FAULT=io:<permille>:<seed>`). A failed append truncates the
//! own shard back to the last good entry; persistent failure (or an
//! unusable directory) warns **once**, disarms journaling, and the run
//! completes journal-less with the same figures. Poisoned cells are never
//! journaled: a resume retries them.

use crate::cell::{CellKey, ExpResult};
use crate::hostfault::{HostFaultPlan, IoFault, IO_ABORT_MARKER};
use crate::lockfile::Lockfile;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use tint_hw::rng::SplitMix64;
use tint_spmd::RunMetrics;

/// Stores of earlier record formats inside the journal directory: the
/// v1 single file and the v2 shard store. Neither is read or touched;
/// `repro` notes each one it finds.
pub const LEGACY_STORES: [&str; 2] = ["cells.v1.jnl", "cells.v2"];

/// The v3 store root inside the journal directory.
pub const STORE_DIR: &str = "cells.v3";

/// The GC lockfile name inside the store root.
pub const GC_LOCK: &str = "gc.lock";

/// 8-byte v3 shard magic.
const SHARD_MAGIC: &[u8; 8] = b"TINTJNL3";

/// Upper bound on one entry's payload (a cell record is a few hundred
/// bytes, a soak cell's window trace a few kilobytes; a length beyond
/// this is corruption, not a big record).
const MAX_ENTRY: u32 = 1 << 20;

/// Consecutive append failures before the journal disarms itself.
const MAX_IO_FAILURES: u8 = 3;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, in-tree (offline build: no crates)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data` — the per-entry integrity check.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Payload encoding (hand-rolled little-endian; no serde in the tree)
// ---------------------------------------------------------------------------

/// Serialize one `(key, result)` cell record, the payload of an entry:
/// the key (u32 length, UTF-8 bytes), then the result as little-endian u64
/// words — the scalars (floats by bit pattern), then each list as its
/// length and elements.
fn encode(key: &CellKey, r: &ExpResult) -> Vec<u8> {
    let m = &r.metrics;
    let mut words = vec![
        m.threads as u64,
        m.runtime,
        m.serial_cycles,
        m.parallel_sections as u64,
        r.remote_fraction.to_bits(),
        r.llc_interference,
        r.row_hit_rate.to_bits(),
        r.pages_moved,
        r.page_faults,
        r.fault_cycles,
        r.l3_miss_rate.to_bits(),
        r.mean_latency.to_bits(),
        r.color_list_moves,
    ];
    for list in [&m.thread_runtime, &m.thread_idle, &r.counters] {
        words.push(list.len() as u64);
        words.extend(list);
    }
    let mut out = (key.0.len() as u32).to_le_bytes().to_vec();
    out.extend(key.0.as_bytes());
    out.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    out
}

/// Decode one record; `None` means the payload is not a well-formed
/// record (treated as corruption by the replayer).
fn decode(payload: &[u8]) -> Option<(CellKey, ExpResult)> {
    let key_len = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let key = String::from_utf8(payload.get(4..4 + key_len)?.to_vec()).ok()?;
    let body = &payload[4 + key_len..];
    if !body.len().is_multiple_of(8) {
        return None;
    }
    let mut words = body
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()));
    let mut scalar = [0u64; 13];
    for x in &mut scalar {
        *x = words.next()?;
    }
    let mut list = || {
        let n = words.next()? as usize;
        (n <= words.len()).then(|| words.by_ref().take(n).collect::<Vec<u64>>())
    };
    let (thread_runtime, thread_idle, counters) = (list()?, list()?, list()?);
    let [threads, runtime, serial_cycles, sections, remote, llc, row, moved, faults, fault_cycles, l3, lat, moves] =
        scalar;
    let threads = threads as usize;
    if words.next().is_some() || thread_runtime.len() != threads || thread_idle.len() != threads {
        return None; // trailing words or a malformed team: not a record
    }
    let r = ExpResult {
        metrics: RunMetrics {
            threads,
            runtime,
            thread_runtime,
            thread_idle,
            serial_cycles,
            parallel_sections: sections as usize,
        },
        remote_fraction: f64::from_bits(remote),
        llc_interference: llc,
        row_hit_rate: f64::from_bits(row),
        pages_moved: moved,
        page_faults: faults,
        fault_cycles,
        l3_miss_rate: f64::from_bits(l3),
        mean_latency: f64::from_bits(lat),
        color_list_moves: moves,
        counters,
        poisoned: false,
    };
    Some((CellKey(key), r))
}

/// One framed entry: `len | crc | payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Fault-shimmed filesystem primitives (write path only)
// ---------------------------------------------------------------------------
//
// Every state-changing filesystem operation the journal performs goes
// through [`Fio`], which first consults the run's host-fault io schedule.
// Read-side operations are deliberately unshimmed: the degradation
// contract is about never *writing* badly.

/// The io shim: counts write-path operations, honours the kill point, and
/// fails an operation when the run's `io:` plan schedules it. With one
/// appender (`--jobs 1`) the schedule is fully deterministic.
#[derive(Default)]
struct Fio {
    /// The run's host-fault plan; only an `io:` plan fires here.
    plan: Option<HostFaultPlan>,
    /// Operations so far: the schedule's index.
    ops: u64,
    /// Kill point: the operation with this 1-based ordinal panics.
    abort_at: Option<u64>,
    /// Faults injected so far.
    injected: u64,
}

impl Fio {
    /// Count one operation; panic at the kill point; return its fault.
    fn fault(&mut self) -> Option<IoFault> {
        let n = self.ops;
        self.ops += 1;
        if self.abort_at == Some(n + 1) {
            panic!("{IO_ABORT_MARKER} (io op {n})");
        }
        let fault = self.plan?.io_fault(n);
        self.injected += fault.is_some() as u64;
        fault
    }

    fn gate(&mut self) -> std::io::Result<()> {
        self.fault().map_or(Ok(()), |f| Err(f.as_error()))
    }

    fn create_dir_all(&mut self, p: &Path) -> std::io::Result<()> {
        self.gate()?;
        std::fs::create_dir_all(p)
    }

    fn open_excl(&mut self, p: &Path) -> std::io::Result<File> {
        self.gate()?;
        std::fs::OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(p)
    }

    /// Shimmed `write_all`. An injected [`IoFault::ShortWrite`] writes the
    /// first half of `buf` for real and then reports failure — the
    /// torn-entry shape a crash mid-`write` leaves behind.
    fn write_all(&mut self, f: &mut File, buf: &[u8]) -> std::io::Result<()> {
        match self.fault() {
            Some(IoFault::ShortWrite) => {
                let _ = f.write_all(&buf[..buf.len() / 2]);
                Err(IoFault::ShortWrite.as_error())
            }
            Some(fault) => Err(fault.as_error()),
            None => f.write_all(buf),
        }
    }

    fn set_len(&mut self, f: &File, len: u64) -> std::io::Result<()> {
        self.gate()?;
        f.set_len(len)
    }

    fn sync(&mut self, f: &File) -> std::io::Result<()> {
        self.gate()?;
        f.sync_data()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.gate()?;
        std::fs::rename(from, to)
    }
}

// ---------------------------------------------------------------------------
// Store geometry
// ---------------------------------------------------------------------------

/// The store root under a journal directory.
pub fn store_root(dir: &Path) -> PathBuf {
    dir.join(STORE_DIR)
}

/// Directory name of generation `n`.
fn gen_name(n: u64) -> String {
    format!("gen-{n:08}")
}

/// The number of a committed generation directory's `name`: `gen-`
/// followed by pure digits, exactly what the atomic commit rename
/// produces. Uncommitted GC builds (`gen-*.tmp.<pid>`) and stray names
/// are not generations.
fn gen_number(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("gen-")?;
    let all_digits = !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
    all_digits.then(|| digits.parse().ok()).flatten()
}

/// The current (highest-numbered, committed) generation under `dir`'s
/// store root, if any.
pub fn current_generation(dir: &Path) -> Option<(u64, PathBuf)> {
    std::fs::read_dir(store_root(dir))
        .ok()?
        .flatten()
        .filter_map(|e| Some((gen_number(e.file_name().to_str()?)?, e.path())))
        .max_by_key(|(n, _)| *n)
}

/// First free `<file>.corrupt.<n>` (n = 1, 2, …) next to `root` for the
/// quarantine rename — never clobbers an earlier quarantine.
fn unique_corrupt_path(root: &Path, original: &Path) -> PathBuf {
    let base = original
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("shard.jnl")
        .to_string();
    for n in 1u64.. {
        let candidate = root.join(format!("{base}.corrupt.{n}"));
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("u64 quarantine slots exhausted");
}

// ---------------------------------------------------------------------------
// Journal state
// ---------------------------------------------------------------------------

/// What replay found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Distinct cell records replayed.
    pub replayed: u64,
    /// Trailing bytes dropped (in memory) as torn final writes.
    pub torn_dropped: u64,
    /// Corrupt shards quarantined this replay.
    pub quarantined: u64,
    /// Healthy shards merged.
    pub shards: u64,
}

/// What a GC compaction did (the `repro gc-journal` report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Live deduped cells written into the new generation.
    pub live_cells: u64,
    /// Shards merged from the old generation.
    pub shards_merged: u64,
    /// Corrupt shards quarantined during the merge.
    pub quarantined: u64,
    /// Store bytes before compaction (the old generation).
    pub bytes_before: u64,
    /// Store bytes after compaction (the new generation).
    pub bytes_after: u64,
    /// The committed generation number.
    pub generation: u64,
}

struct State {
    /// `None` = disabled, or disarmed because the store root could not be
    /// created; `Some(dir)` = armed.
    dir: Option<PathBuf>,
    /// This process's own append shard, positioned at `shard_len`.
    shard: Option<File>,
    /// Validated length of the own shard (the repair boundary).
    shard_len: u64,
    /// The journal disarmed itself after persistent io failure.
    io_disarmed: bool,
    /// Consecutive failed appends (reset by any success).
    io_fail_streak: u8,
    /// What the replay at [`Journal::open`] found.
    replay: ReplayStats,
    /// New cells appended (rescued cells are not new work).
    appends: u64,
    fio: Fio,
}

/// One run's handle on the cell farm. Opening it replays the store, as a
/// fresh process does; opening a second one on the same directory is
/// exactly a process restart (it appends to a *new* own shard).
pub struct Journal(Mutex<State>);

/// Per-process shard-name nonce counter (mixed with pid + clock).
static NONCE: AtomicU64 = AtomicU64::new(0);

impl Journal {
    /// Arm the journal at `dir` (`None`: disabled) and replay its store.
    /// Returns the journal and the live cells the store holds. `faults` is
    /// the run's host-fault plan; only an `io:` plan fails operations.
    pub fn open(
        dir: Option<&Path>,
        faults: Option<HostFaultPlan>,
    ) -> (Self, BTreeMap<CellKey, ExpResult>) {
        let mut s = State {
            dir: dir.map(Path::to_path_buf),
            shard: None,
            shard_len: 0,
            io_disarmed: false,
            io_fail_streak: 0,
            replay: ReplayStats::default(),
            appends: 0,
            fio: Fio {
                plan: faults,
                ..Fio::default()
            },
        };
        let cells = replay(&mut s);
        (Self(Mutex::new(s)), cells)
    }

    // A kill-point panic mid-operation leaves the on-disk store
    // consistent by design, and the state with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        crate::runner::lock(&self.0)
    }

    /// The armed directory; `None` when disabled or disarmed at open.
    pub fn dir(&self) -> Option<PathBuf> {
        self.lock().dir.clone()
    }

    /// What the replay at open found.
    pub fn replay_stats(&self) -> ReplayStats {
        self.lock().replay
    }

    /// Did the journal disarm itself after persistent io failure? (The run
    /// still completes correctly; its new cells just aren't persisted.)
    pub fn io_disarmed(&self) -> bool {
        self.lock().io_disarmed
    }

    /// New cells appended so far.
    pub(crate) fn appends(&self) -> u64 {
        self.lock().appends
    }

    /// Io faults the run's `io:` plan injected so far.
    pub fn io_faults_injected(&self) -> u64 {
        self.lock().fio.injected
    }

    /// Arm (or with `None` disarm) the kill point: the `n`-th (1-based)
    /// subsequent io operation panics with [`IO_ABORT_MARKER`], simulating
    /// a SIGKILL at that exact filesystem step. Crash-atomicity tests run
    /// the operation under `catch_unwind` and then assert the on-disk
    /// state is still consistent.
    pub fn set_io_abort_at(&self, n: Option<u64>) {
        let mut s = self.lock();
        s.fio.ops = 0;
        s.fio.abort_at = n;
    }

    /// Append one completed cell. Poisoned results must not reach the
    /// journal — the runner filters them; this is a debug-build backstop.
    pub fn append(&self, key: &CellKey, r: &ExpResult) {
        debug_assert!(!r.poisoned, "poisoned cells are never journaled");
        append_locked(&mut self.lock(), key, r, true);
    }

    /// Flush shard appends to the OS (graceful-shutdown path). Appends are
    /// unbuffered single `write_all`s, so this is a best-effort
    /// `sync_data` for the power-loss case; a SIGKILL already cannot tear
    /// more than the final entry.
    pub fn flush(&self) {
        let s = &mut *self.lock();
        if s.io_disarmed {
            return;
        }
        if let Some(f) = s.shard.take() {
            match s.fio.sync(&f) {
                Ok(()) => s.shard = Some(f),
                Err(e) => disarm_io(s, "sync", &e),
            }
        }
    }

    /// Compact the store: merge the current generation exactly like
    /// replay, write the live deduped cells into one fresh shard in a new
    /// generation, and commit it with a single atomic rename. Guarded by
    /// an exclusive OS lock on `gc.lock`; a second live GC fails fast. A
    /// crash at *any* point leaves either the old or the new generation
    /// fully intact (the commit is one rename), and concurrent readers of
    /// the old generation are unaffected. Old generations and stray GC
    /// build directories are removed only after the commit.
    pub fn gc(&self) -> Result<GcStats, String> {
        gc_locked(&mut self.lock())
    }
}

/// The stores of earlier formats present in `dir`. They are no longer
/// imported, so they are never read.
pub fn legacy_stores(dir: &Path) -> Vec<PathBuf> {
    LEGACY_STORES
        .iter()
        .map(|name| dir.join(name))
        .filter(|p| p.exists())
        .collect()
}

/// One scanned shard.
struct Scan {
    cells: Vec<(CellKey, ExpResult)>,
    /// Trailing bytes after the last whole good entry (torn write).
    torn: u64,
    /// Mid-stream corruption: bad magic, bad CRC, insane length, or an
    /// undecodable payload. `cells` still holds the good prefix.
    corrupt: bool,
}

/// Validate `bytes` against the shard format. Never touches the
/// filesystem: callers decide what to do about tears and corruption.
fn scan_bytes(bytes: &[u8]) -> Scan {
    let magic = SHARD_MAGIC;
    let mut scan = Scan {
        cells: Vec::new(),
        torn: 0,
        corrupt: false,
    };
    if bytes.len() < magic.len() {
        // Sub-magic fragment: a torn first write, not corruption.
        scan.torn = bytes.len() as u64;
        return scan;
    }
    if &bytes[..magic.len()] != magic {
        scan.corrupt = true;
        return scan;
    }
    let mut at = magic.len();
    loop {
        let remaining = bytes.len() - at;
        if remaining == 0 {
            break;
        }
        if remaining < 8 {
            scan.torn = remaining as u64; // torn header
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if len > MAX_ENTRY {
            scan.corrupt = true; // insane length: corruption, not a tear
            break;
        }
        if remaining < 8 + len as usize {
            scan.torn = remaining as u64; // torn payload
            break;
        }
        let payload = &bytes[at + 8..at + 8 + len as usize];
        let Some(cell) = (crc32(payload) == crc).then(|| decode(payload)).flatten() else {
            scan.corrupt = true; // a CRC mismatch or a malformed record
            break;
        };
        scan.cells.push(cell);
        at += 8 + len as usize;
    }
    scan
}

/// The merged content of one generation directory.
#[derive(Default)]
struct GenScan {
    /// Deduped live cells across all shards (healthy + salvaged).
    merged: BTreeMap<CellKey, ExpResult>,
    /// Keys durably held by a *healthy* shard (no need to re-persist).
    healthy_keys: BTreeSet<CellKey>,
    shards: u64,
    torn: u64,
    quarantined: u64,
    /// Total bytes of the shards scanned (GC's before-size).
    bytes: u64,
}

/// Scan every `*.jnl` shard in `gen_dir`, merging healthy shards and
/// quarantining corrupt ones to `root` (the store root, so a later GC's
/// old-generation removal keeps the evidence). Corrupt shards' good
/// prefixes land in `merged` but not `healthy_keys` — the caller rescues
/// them into durable storage. Foreign torn tails are dropped in memory
/// only (they may be a live sibling's in-flight append).
fn scan_generation(fio: &mut Fio, root: &Path, gen_dir: &Path) -> GenScan {
    let mut g = GenScan::default();
    let mut shard_paths: Vec<PathBuf> = match std::fs::read_dir(gen_dir) {
        Ok(rd) => rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jnl"))
            .collect(),
        Err(_) => return g,
    };
    shard_paths.sort(); // deterministic merge order
    for path in shard_paths {
        let bytes = std::fs::read(&path).unwrap_or_default();
        g.bytes += bytes.len() as u64;
        let scan = scan_bytes(&bytes);
        g.torn += scan.torn;
        if scan.corrupt {
            g.quarantined += 1;
            let q = unique_corrupt_path(root, &path);
            match fio.rename(&path, &q) {
                Ok(()) => eprintln!(
                    "journal: shard {} is corrupt mid-stream; quarantined to {} \
                     ({} good cells rescued)",
                    path.display(),
                    q.display(),
                    scan.cells.len()
                ),
                Err(e) => eprintln!(
                    "journal: shard {} is corrupt and could not be quarantined ({e}); \
                     {} good cells rescued, shard left in place",
                    path.display(),
                    scan.cells.len()
                ),
            }
        } else {
            g.shards += 1;
            g.healthy_keys
                .extend(scan.cells.iter().map(|(k, _)| k.clone()));
        }
        g.merged.extend(scan.cells);
    }
    g
}

/// Merge the current generation's shards and rescue the good prefix of
/// corrupt shards into this process's own shard (in key order). Returns
/// the merged live cells; a disabled journal has none.
fn replay(s: &mut State) -> BTreeMap<CellKey, ExpResult> {
    let Some(dir) = s.dir.clone() else {
        return BTreeMap::new();
    };
    let root = store_root(&dir);
    if let Err(e) = s.fio.create_dir_all(&root) {
        eprintln!(
            "journal: cannot create {} ({e}); journaling disabled for this run",
            root.display()
        );
        s.dir = None;
        s.io_disarmed = true; // the single warning for this run
        return BTreeMap::new();
    }
    let Some((_, gen_dir)) = current_generation(&dir) else {
        return BTreeMap::new();
    };
    let g = scan_generation(&mut s.fio, &root, &gen_dir);
    s.replay = ReplayStats {
        replayed: g.merged.len() as u64,
        torn_dropped: g.torn,
        quarantined: g.quarantined,
        shards: g.shards,
    };
    // Rescue cells that no healthy shard holds (corrupt-shard salvage)
    // into our own shard so they stay durable. These are not *new* work,
    // so they do not count toward the append counter.
    for (k, v) in g.merged.iter().filter(|(k, _)| !g.healthy_keys.contains(k)) {
        append_locked(s, k, v, false);
    }
    g.merged
}

/// A fresh shard file name: `<pid>-<nonce>.jnl`. The nonce mixes a
/// process-local counter, the pid, and the clock through SplitMix64, so
/// concurrent writers (and successive journals opened in one test
/// binary) get distinct names; `O_EXCL` turns any residual collision into
/// a retry instead of silent sharing.
fn shard_file_name() -> String {
    let count = NONCE.fetch_add(1, Ordering::Relaxed);
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    let pid = std::process::id() as u64;
    let nonce = SplitMix64::new(count ^ clock.rotate_left(17) ^ pid.rotate_left(43)).next_u64();
    format!("{}-{nonce:016x}.jnl", std::process::id())
}

/// Create this process's own append shard in the current generation
/// (creating `gen-00000001` on a virgin store). `false` = the journal
/// disarmed itself.
fn open_own_shard(s: &mut State) -> bool {
    let Some(dir) = s.dir.clone() else {
        return false;
    };
    let gen_dir = match current_generation(&dir) {
        Some((_, p)) => p,
        None => {
            let p = store_root(&dir).join(gen_name(1));
            if let Err(e) = s.fio.create_dir_all(&p) {
                disarm_io(s, "create generation", &e);
                return false;
            }
            p
        }
    };
    for _ in 0..16 {
        let path = gen_dir.join(shard_file_name());
        match s.fio.open_excl(&path) {
            Ok(mut f) => {
                if let Err(e) = s.fio.write_all(&mut f, SHARD_MAGIC) {
                    // A magic-less fragment replays as a torn first write;
                    // harmless, and GC compacts it away.
                    disarm_io(s, "initialize shard", &e);
                    return false;
                }
                s.shard = Some(f);
                s.shard_len = SHARD_MAGIC.len() as u64;
                return true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => {
                disarm_io(s, "create shard", &e);
                return false;
            }
        }
    }
    disarm_io(
        s,
        "create shard",
        &std::io::Error::other("16 O_EXCL name collisions"),
    );
    false
}

/// Disarm journaling for the rest of the run, warning exactly once. The
/// run itself is unaffected — figures come from in-memory results; only
/// persistence of *new* cells stops.
fn disarm_io(s: &mut State, ctx: &str, e: &std::io::Error) {
    if !s.io_disarmed {
        eprintln!(
            "journal: {ctx} failed ({e}); journaling disabled for the rest of this run \
             (figures are unaffected; unjournaled cells will be re-simulated next time)"
        );
        s.io_disarmed = true;
    }
}

/// Append one `(key, result)` record to the own shard. On write failure
/// the entry boundary is repaired (own-shard truncate back to the last
/// good entry — never a foreign shard); persistent failure disarms.
/// `count` is false for rescue re-persists, which are not new work.
fn append_locked(s: &mut State, key: &CellKey, r: &ExpResult, count: bool) {
    if s.dir.is_none() || s.io_disarmed {
        return;
    }
    if s.shard.is_none() && !open_own_shard(s) {
        return;
    }
    let entry = frame(&encode(key, r));
    let pre = s.shard_len;
    let f = s.shard.as_mut().expect("own shard is open");
    match s.fio.write_all(f, &entry) {
        Ok(()) => {
            s.shard_len = pre + entry.len() as u64;
            s.io_fail_streak = 0;
            s.appends += count as u64;
        }
        Err(e) => {
            s.io_fail_streak = s.io_fail_streak.saturating_add(1);
            let repaired = s.fio.set_len(f, pre).is_ok();
            if !repaired || s.io_fail_streak >= MAX_IO_FAILURES {
                // Unrepairable boundary (the shard now ends in a torn
                // fragment — which replay tolerates) or a persistent
                // failure streak: stop writing.
                disarm_io(s, "append", &e);
            }
        }
    }
}

fn gc_locked(s: &mut State) -> Result<GcStats, String> {
    let dir = s
        .dir
        .clone()
        .ok_or_else(|| "journal is disabled (TINT_JOURNAL=0?)".to_string())?;
    if s.io_disarmed {
        return Err("journal is disarmed after io failures; not compacting".to_string());
    }
    let root = store_root(&dir);
    s.fio
        .create_dir_all(&root)
        .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let _lock = Lockfile::acquire(&root.join(GC_LOCK))
        .map_err(|e| format!("gc lock: {e} (is another gc-journal running?)"))?;

    let old = current_generation(&dir);
    let old_n = old.as_ref().map(|(n, _)| *n).unwrap_or(0);
    let g = match &old {
        Some((_, gen_dir)) => scan_generation(&mut s.fio, &root, gen_dir),
        None => GenScan::default(),
    };
    let mut stats = GcStats {
        live_cells: g.merged.len() as u64,
        shards_merged: g.shards,
        quarantined: g.quarantined,
        bytes_before: g.bytes,
        ..GcStats::default()
    };

    let new_n = old_n + 1;
    let tmp = root.join(format!("{}.tmp.{}", gen_name(new_n), std::process::id()));
    let committed = root.join(gen_name(new_n));
    // A previous killed attempt may have left this very tmp dir (same
    // pid is possible across boots); a stale partial shard must not ride
    // into the committed generation.
    let _ = std::fs::remove_dir_all(&tmp);
    // Cells go out in key order: deterministic shard content.
    let mut build = |tmp: &Path| -> std::io::Result<u64> {
        s.fio.create_dir_all(tmp)?;
        let mut f = s.fio.open_excl(&tmp.join(shard_file_name()))?;
        s.fio.write_all(&mut f, SHARD_MAGIC)?;
        let mut bytes = SHARD_MAGIC.len() as u64;
        for (k, v) in &g.merged {
            let entry = frame(&encode(k, v));
            s.fio.write_all(&mut f, &entry)?;
            bytes += entry.len() as u64;
        }
        s.fio.sync(&f)?;
        s.fio.rename(tmp, &committed)?; // the commit point: one atomic rename
        Ok(bytes)
    };
    match build(&tmp) {
        Err(e) => {
            let _ = std::fs::remove_dir_all(&tmp);
            Err(format!("gc failed before commit: {e} (store unchanged)"))
        }
        Ok(bytes_after) => {
            stats.bytes_after = bytes_after;
            stats.generation = new_n;
            // Post-commit, best-effort cleanup: the new generation is
            // durable regardless of anything below.
            if let Ok(rd) = std::fs::read_dir(&root) {
                for entry in rd.flatten() {
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    let is_old_gen = gen_number(name).is_some_and(|n| n <= old_n);
                    let is_stale_tmp = name.starts_with("gen-") && name.contains(".tmp.");
                    if is_old_gen || is_stale_tmp {
                        let _ = std::fs::remove_dir_all(entry.path());
                    }
                }
            }
            // Our own shard (if any) lived in the old generation; future
            // appends must open a fresh shard in the new one.
            s.shard = None;
            s.shard_len = 0;
            Ok(stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellSpec;
    use tint_workloads::traits::Scale;
    use tint_workloads::{PinConfig, Synthetic};
    use tintmalloc::colors::ColorScheme;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32 (IEEE) check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// A zeroed result with `counters`.
    fn result(counters: Vec<u64>) -> ExpResult {
        ExpResult {
            counters,
            ..ExpResult::default()
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let key = CellKey("Tiny - churn[3, 40] seed=7".to_string());
        let r = ExpResult {
            metrics: RunMetrics {
                threads: 3,
                runtime: 123,
                thread_runtime: vec![1, 2, 3],
                thread_idle: vec![4, 5, 6],
                serial_cycles: 9,
                parallel_sections: 2,
            },
            remote_fraction: 0.25,
            llc_interference: 11,
            row_hit_rate: 0.5,
            pages_moved: 13,
            page_faults: 17,
            fault_cycles: 19,
            l3_miss_rate: 0.125,
            mean_latency: 42.5,
            color_list_moves: 23,
            counters: vec![29, 31],
            poisoned: false,
        };
        assert_eq!(decode(&encode(&key, &r)), Some((key, r)));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let key = CellKey("k".to_string());
        let full = encode(&key, &result(vec![1, 2, 3]));
        assert!(decode(&full[..full.len() - 1]).is_none());
        let mut extended = full.clone();
        extended.push(0);
        assert!(decode(&extended).is_none());
        // A key that is not UTF-8 is corruption too.
        let mut bad_key = full;
        bad_key[4] = 0xff;
        assert!(decode(&bad_key).is_none());
    }

    /// Every scheme and pinning gets its own key, and each key survives
    /// the record codec: the spec encoding needs no code table.
    #[test]
    fn scheme_and_pin_codes_roundtrip() {
        let w = Synthetic::new(Scale(0.1));
        let mut keys = BTreeSet::new();
        for scheme in ColorScheme::ALL {
            for pin in PinConfig::ALL {
                let key = CellSpec::team(&w, scheme, pin, 1).key();
                let (back, _) = decode(&encode(&key, &result(Vec::new()))).unwrap();
                assert_eq!(back, key);
                keys.insert(key);
            }
        }
        assert_eq!(keys.len(), ColorScheme::ALL.len() * PinConfig::ALL.len());
    }

    #[test]
    fn unique_corrupt_paths_never_clobber() {
        let root = std::env::temp_dir().join(format!("tint-jnl-ucp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let victim = root.join("a.jnl");
        let q1 = unique_corrupt_path(&root, &victim);
        assert_eq!(q1, root.join("a.jnl.corrupt.1"));
        std::fs::write(&q1, b"x").unwrap();
        let q2 = unique_corrupt_path(&root, &victim);
        assert_eq!(q2, root.join("a.jnl.corrupt.2"));
        assert_ne!(q1, q2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn generation_names_parse_and_tmp_dirs_are_ignored() {
        let dir = std::env::temp_dir().join(format!("tint-jnl-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root = store_root(&dir);
        std::fs::create_dir_all(root.join("gen-00000001")).unwrap();
        std::fs::create_dir_all(root.join("gen-00000003")).unwrap();
        std::fs::create_dir_all(root.join("gen-00000004.tmp.1234")).unwrap();
        std::fs::create_dir_all(root.join("gen-bogus")).unwrap();
        let (n, p) = current_generation(&dir).expect("a committed generation exists");
        assert_eq!(n, 3);
        assert_eq!(p, root.join("gen-00000003"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
