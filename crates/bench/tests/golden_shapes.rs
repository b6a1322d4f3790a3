//! Golden-shape regression tests: pin the *shape* of the headline figure
//! results so performance refactors of the simulation pipeline cannot
//! silently drift the science. Absolute cycle counts are allowed to move
//! with model changes; orderings and headline ratios are not.
//!
//! Runs use `reps = 3` (not the paper's 10) to keep the suite fast; the
//! asserted bands are wide enough to be stable across rep counts.

use tint_bench::runner::{cells_for, Summary};
use tint_bench::{Harness, RunConfig};
use tint_workloads::lbm::Lbm;
use tint_workloads::traits::Scale;
use tint_workloads::{PinConfig, Synthetic};
use tintmalloc::colors::ColorScheme;

const REPS: u32 = 3;

fn mean_runtime(w: &dyn tint_workloads::Workload, scheme: ColorScheme) -> f64 {
    let h = Harness::new(RunConfig::default());
    let rs = h.run_cells(&cells_for(w, &[scheme], PinConfig::T16N4, REPS));
    Summary::runtime(&rs).mean
}

/// Figure 10's synthetic-benchmark ordering, plus the paper's headline
/// BPM claim (§V / Fig. 11): controller-aware MEM coloring beats buddy,
/// while bank+LLC partitioning *without* controller awareness (BPM) loses
/// even to buddy.
#[test]
fn fig10_ordering_mem_beats_buddy_beats_bpm() {
    let w = Synthetic::new(Scale::default());
    let buddy = mean_runtime(&w, ColorScheme::Buddy);
    let mem = mean_runtime(&w, ColorScheme::MemOnly);
    let mem_llc = mean_runtime(&w, ColorScheme::MemLlc);
    let bpm = mean_runtime(&w, ColorScheme::Bpm);

    assert!(
        mem < buddy,
        "MEM coloring must beat buddy (MEM {mem:.0} vs buddy {buddy:.0})"
    );
    assert!(
        mem_llc < buddy,
        "MEM+LLC must beat buddy (MEM+LLC {mem_llc:.0} vs buddy {buddy:.0})"
    );
    assert!(
        buddy < bpm,
        "controller-oblivious BPM must lose to buddy (buddy {buddy:.0} vs BPM {bpm:.0})"
    );
}

/// The lbm headline cell: at 16 threads / 4 nodes, MEM+LLC runs at
/// ≈ 0.63× the buddy baseline (EXPERIMENTS.md Fig. 11). Band is ±0.09
/// around the measured 0.633 to absorb rep-count and boot-noise jitter.
#[test]
fn lbm_16t4n_memllc_ratio_near_0_63() {
    let w = Lbm::new(Scale::default());
    let buddy = mean_runtime(&w, ColorScheme::Buddy);
    let mem_llc = mean_runtime(&w, ColorScheme::MemLlc);
    let ratio = mem_llc / buddy;
    assert!(
        (0.55..=0.72).contains(&ratio),
        "lbm@16t4n MEM+LLC/buddy ratio {ratio:.3} left the golden band \
         [0.55, 0.72] (MEM+LLC {mem_llc:.0}, buddy {buddy:.0})"
    );
}
