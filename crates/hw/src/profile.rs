//! Opt-in wall-clock self-profiling for the simulation pipeline.
//!
//! The per-access pipeline spans four crates (SPMD engine → software TLB →
//! cache hierarchy → DRAM), so a conventional profiler attributes most of
//! the time to whatever happens to be inlined where. This module gives the
//! pipeline a handful of *component* counters — scheduler, TLB/translate,
//! cache hierarchy, DRAM, frame decode — that the `repro --profile` flag
//! turns on, so perf PRs can show where the cycles went.
//!
//! Design constraints:
//!
//! * **Near-zero cost when disabled** (the default): every instrumentation
//!   site is one relaxed atomic bool load and a predictable branch; no
//!   `Instant::now()` is taken.
//! * **Process-global**: counters are atomics so the parallel repetition
//!   driver in `tint-bench` aggregates across host threads for free.
//! * **Self-measured, not exact**: when enabled, the two clock reads per
//!   site add overhead of their own (tens of nanoseconds per access), so
//!   absolute numbers are inflated; the *shares* are what to read. This is
//!   why profiling is opt-in rather than always-on, and why figure output
//!   is only guaranteed byte-identical with profiling off (the tables
//!   themselves never change, but wall-clock records do).
//!
//! Component nesting: `Engine` contains `Access` (everything the engine
//! spends inside `System::access`); `Access` contains `Tlb` (translation,
//! including page faults), `Hierarchy`, `Dram`, and `Decode`. Consumers derive
//! `scheduler = Engine − Access` (thread pick, op fill, compute fusion)
//! and `access other = Access − (Tlb + Hierarchy + Dram + Decode)`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One measured component of the simulation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Whole SPMD engine sections (scheduling + everything below).
    Engine = 0,
    /// `System::access` calls as seen from the engine.
    Access = 1,
    /// Translation: software-TLB lookup plus kernel translate/page fault.
    Tlb = 2,
    /// Cache-hierarchy walk (L1/L2/LLC).
    Hierarchy = 3,
    /// DRAM timing (bank state machine, row-buffer model).
    Dram = 4,
    /// Physical frame → home-node decode.
    Decode = 5,
}

/// Number of components in [`Component`].
pub const COMPONENT_COUNT: usize = 6;

/// Stable lower-case names, indexable by `Component as usize`.
pub const COMPONENT_NAMES: [&str; COMPONENT_COUNT] =
    ["engine", "access", "tlb", "hierarchy", "dram", "decode"];

static ENABLED: AtomicBool = AtomicBool::new(false);
static NANOS: [AtomicU64; COMPONENT_COUNT] = [const { AtomicU64::new(0) }; COMPONENT_COUNT];

/// Is profiling currently on? Hot paths branch on this; it is a relaxed
/// load, so flipping it mid-run reaches other threads eventually (the
/// harness flips it once, before any simulation starts).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn component profiling on or off (process-global).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero all component counters.
pub fn reset() {
    for c in &NANOS {
        c.store(0, Ordering::Relaxed);
    }
}

/// Current accumulated nanoseconds per component.
pub fn snapshot() -> [u64; COMPONENT_COUNT] {
    let mut out = [0u64; COMPONENT_COUNT];
    for (o, c) in out.iter_mut().zip(&NANOS) {
        *o = c.load(Ordering::Relaxed);
    }
    out
}

/// Start timing a section if profiling is enabled. Pair with [`stop`].
#[inline(always)]
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Charge the elapsed time since [`start`] to `component` (no-op when the
/// matching `start` returned `None`).
#[inline(always)]
pub fn stop(component: Component, started: Option<Instant>) {
    if let Some(t0) = started {
        NANOS[component as usize].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_start_is_none_and_stop_is_noop() {
        set_enabled(false);
        reset();
        let t = start();
        assert!(t.is_none());
        stop(Component::Engine, t);
        assert_eq!(snapshot(), [0; COMPONENT_COUNT]);
    }

    #[test]
    fn enabled_accumulates_into_the_right_slot() {
        set_enabled(true);
        reset();
        let t = start();
        assert!(t.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        stop(Component::Dram, t);
        let s = snapshot();
        assert!(s[Component::Dram as usize] >= 1_000_000, "~2ms recorded");
        assert_eq!(s[Component::Engine as usize], 0);
        set_enabled(false);
        reset();
    }

    #[test]
    fn names_cover_all_components() {
        assert_eq!(COMPONENT_NAMES.len(), COMPONENT_COUNT);
        assert_eq!(COMPONENT_NAMES[Component::Decode as usize], "decode");
    }
}
