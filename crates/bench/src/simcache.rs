//! Content-addressed simulation cell cache.
//!
//! Every figure in the reproduction is assembled from deterministic
//! *cells*: one `(workload, scheme, pinning, seed)` simulation on a fresh
//! machine. The same cells recur across figures — the fig13/fig14 sweep is
//! a strict subset of the fig11 matrix, `probe` re-runs matrix cells,
//! `repro fig13 fig14` would otherwise run the whole sweep twice — so the
//! runner memoizes [`ExpResult`]s here, keyed by the *content* of the cell:
//!
//! * the workload's parameter fingerprint
//!   ([`tint_workloads::Workload::fingerprint`]), which covers the
//!   benchmark identity and every size/iteration parameter — `--scale` is
//!   folded in through the scaled parameter values themselves;
//! * the [`ColorScheme`] and [`PinConfig`];
//! * the repetition seed (each of the paper's repetitions is a distinct
//!   cell: the seed jitters the boot-time physical layout and the
//!   workloads' random streams, so seeds must never alias).
//!
//! Correctness rests on one invariant, asserted end-to-end by
//! `tests/cell_cache.rs`: cells are bit-deterministic, so serving a cached
//! result is indistinguishable from re-simulating. Figure output is
//! byte-identical with the cache on or off.
//!
//! A [`CellCache`] is a value owned by one [`crate::runner::Harness`]
//! (figures run through the same harness share it; nothing persists
//! across processes except through the journal). A disabled cache
//! (`TINT_SIM_CACHE=0`) is a harness without one. It is thread-safe: the
//! matrix executor fills it after its worker threads finish.

use crate::runner::ExpResult;
use std::sync::{Mutex, MutexGuard};
use tint_hw::fxhash::FxHashMap;
use tint_workloads::{PinConfig, Workload};
use tintmalloc::colors::ColorScheme;

/// Content-address of one simulation cell. The derived order (fingerprint,
/// scheme, pin, seed) is the order a compacted journal shard stores cells
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    /// Workload parameter fingerprint (benchmark identity + all sizes).
    pub fingerprint: u64,
    /// Coloring policy applied to the thread team.
    pub scheme: ColorScheme,
    /// Thread→core pinning configuration.
    pub pin: PinConfig,
    /// Repetition seed (boot noise + workload random streams).
    pub seed: u64,
}

impl CellKey {
    /// The key for running `workload` under `(scheme, pin, seed)`.
    pub fn of(workload: &dyn Workload, scheme: ColorScheme, pin: PinConfig, seed: u64) -> Self {
        Self {
            fingerprint: workload.fingerprint(),
            scheme,
            pin,
            seed,
        }
    }
}

/// Completed cells by content key. The flag marks a cell loaded from the
/// journal: serving it is a *journal hit*, the counter a resumed run uses
/// to prove it did not re-simulate its completed prefix.
#[derive(Default)]
pub struct CellCache(Mutex<FxHashMap<CellKey, (ExpResult, bool)>>);

impl CellCache {
    // The lock absorbs poisoning: the map holds plain completed results,
    // valid regardless of where a panicking holder stopped.
    fn map(&self) -> MutexGuard<'_, FxHashMap<CellKey, (ExpResult, bool)>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached result for `key` and whether it came from the journal.
    pub fn get(&self, key: &CellKey) -> Option<(ExpResult, bool)> {
        self.map().get(key).cloned()
    }

    /// Store a completed cell (`from_journal`: loaded by journal replay).
    pub fn insert(&self, key: CellKey, result: ExpResult, from_journal: bool) {
        self.map().insert(key, (result, from_journal));
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when no cell is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
