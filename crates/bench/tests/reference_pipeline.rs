//! Figure-level equivalence of the batched and reference pipelines.
//!
//! `TINT_REFERENCE_PIPELINE=1` routes every SPMD section through the
//! original one-op-at-a-time heap loop (see `tint_spmd::engine`). The
//! batched pipeline — op batching, winner-tree scheduling, compute
//! fusion — must be a pure optimization: the rendered
//! tables and the simulated cycle totals have to match byte for byte.
//! The unit tests in `tint-spmd` check single sections; this exercises the
//! whole stack (boot, allocator, TLB, caches, DRAM, stats, rendering) on a
//! small fig10-style matrix.

use tint_bench::figures::{fig10, probe, FigOpts};
use tint_bench::runner::simulated_cycles;
use tint_workloads::PinConfig;

/// Render a reduced fig10 + one probe cell and report the rendered text
/// plus the simulated cycles the runs accumulated.
fn small_matrix() -> (String, u64) {
    let opts = FigOpts {
        reps: 1,
        scale: 1.0,
        csv: false,
    };
    let before = simulated_cycles();
    let mut out = String::new();
    out.push_str(&opts.render(&fig10(&opts)));
    out.push_str(&opts.render(&probe(&opts, "lbm", PinConfig::T16N4)));
    (out, simulated_cycles() - before)
}

// One test only: the env var is process-global, and integration-test files
// run as their own process, so nothing else can observe the flag.
#[test]
fn batched_and_reference_pipelines_agree_bit_for_bit() {
    std::env::remove_var("TINT_REFERENCE_PIPELINE");
    let (batched_tables, batched_cycles) = small_matrix();
    std::env::set_var("TINT_REFERENCE_PIPELINE", "1");
    let (reference_tables, reference_cycles) = small_matrix();
    std::env::remove_var("TINT_REFERENCE_PIPELINE");
    assert_eq!(
        batched_tables, reference_tables,
        "batched pipeline drifted from the reference tables"
    );
    assert_eq!(
        batched_cycles, reference_cycles,
        "batched pipeline simulated a different number of cycles"
    );
}
