//! Differential tests for the content-addressed cell cache and the
//! flattened matrix executor.
//!
//! The load-bearing invariant: **figure output is byte-identical** with the
//! cache on or off and at any `--jobs` count. Cells are bit-deterministic
//! per spec key (machine, team, workload fingerprint, seed), so serving a cached
//! result must be indistinguishable from re-simulating it — these tests
//! render whole figure tables both ways and compare the strings.
//!
//! Every test builds its own [`Harness`], so the tests run in parallel
//! under cargo's test runner; `conflicting_harnesses_run_concurrently`
//! asserts that two harnesses with opposite configurations share nothing.

use tint_bench::figures::{fig10, fig13_14, run_matrix, FigOpts};
use tint_bench::hostfault::HostFaultPlan;
use tint_bench::{CellSpec, Harness, RunConfig};
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, PinConfig, Synthetic, Workload};
use tintmalloc::colors::ColorScheme;

/// Small-but-nontrivial options: 2 seeds so rep merging is exercised, a
/// scale large enough that workloads don't degenerate to empty loops.
fn quick() -> FigOpts {
    FigOpts {
        reps: 2,
        scale: 0.02,
        csv: false,
    }
}

/// A harness with the cache `cache` and `jobs` worker threads.
fn harness(cache: bool, jobs: usize) -> Harness {
    Harness::new(RunConfig {
        jobs: Some(jobs),
        cache,
        ..RunConfig::default()
    })
}

// ---------------------------------------------------------------------------
// Byte-identity: cache on vs cache off
// ---------------------------------------------------------------------------

#[test]
fn figures_byte_identical_cache_on_vs_off() {
    let opts = quick();
    let render = |h: &Harness| {
        let mut s = String::new();
        s.push_str(&opts.render(&fig10(h, &opts)));
        let m = run_matrix(h, &opts, &[PinConfig::T16N4, PinConfig::T4N4]);
        for t in m.fig11().iter().chain(m.fig12().iter()) {
            s.push_str(&opts.render(t));
        }
        let (summary, lbm) = fig13_14(h, &opts);
        s.push_str(&opts.render(&summary));
        s.push_str(&opts.render(&lbm));
        s
    };
    let cached = render(&harness(true, 2));
    let uncached = render(&harness(false, 2));
    assert_eq!(
        cached, uncached,
        "rendered figures must be byte-identical with the cell cache on and off"
    );
}

// ---------------------------------------------------------------------------
// Byte-identity: jobs 1 vs jobs 4
// ---------------------------------------------------------------------------

#[test]
fn figures_byte_identical_jobs_1_vs_4() {
    let opts = quick();
    // Cache off so both runs actually execute every cell through the
    // executor rather than the second run being served from memory.
    let render = |jobs: usize| {
        let h = harness(false, jobs);
        let mut s = String::new();
        s.push_str(&opts.render(&fig10(&h, &opts)));
        let (summary, lbm) = fig13_14(&h, &opts);
        s.push_str(&opts.render(&summary));
        s.push_str(&opts.render(&lbm));
        s
    };
    assert_eq!(
        render(1),
        render(4),
        "rendered figures must be byte-identical at --jobs 1 and --jobs 4"
    );
}

// ---------------------------------------------------------------------------
// Isolation: two conflicting harnesses in one process
// ---------------------------------------------------------------------------

#[test]
fn conflicting_harnesses_run_concurrently() {
    let opts = quick();
    let dir = std::env::temp_dir().join(format!("tint-cache-test-{}-conflict", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let solo = Harness::new(RunConfig::default());
    let expected = opts.render(&fig10(&solo, &opts));
    let cells = solo.stats().cache_misses;

    // A: cache on, a private journal, one worker, injected worker panics.
    let a = Harness::new(RunConfig {
        jobs: Some(1),
        journal: Some(dir.clone()),
        host_fault: Some(HostFaultPlan::parse("panic:50:7").unwrap()),
        ..RunConfig::default()
    });
    // B: cache off, no journal, four workers, no faults.
    let b = harness(false, 4);
    let (out_a, out_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| opts.render(&fig10(&a, &opts)));
        let tb = s.spawn(|| opts.render(&fig10(&b, &opts)));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(out_a, expected, "harness A prints the solo default run");
    assert_eq!(out_b, expected, "harness B prints the solo default run");

    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(a.journal().dir(), Some(dir.clone()));
    assert_eq!(sa.journal_appends, cells, "A journals each of its cells");
    assert!(sa.faults_injected > 0, "A's panic plan fired: {sa:?}");
    assert_eq!(sa.retries, sa.faults_injected, "A retried every fault");
    assert_eq!(sa.poisoned, 0);
    assert_eq!(a.cache().map(|c| c.len()), Some(cells as usize));
    assert_eq!(b.journal().dir(), None);
    assert!(b.cache().is_none());
    assert_eq!(
        (sb.journal_appends, sb.faults_injected, sb.retries),
        (0, 0, 0),
        "B saw none of A's journal or faults: {sb:?}"
    );
    for st in [sa, sb] {
        assert_eq!(
            st.cache_misses, cells,
            "each harness simulated its own cells"
        );
        assert_eq!(st.sim_cycles, solo.stats().sim_cycles);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fingerprints and cell keys
// ---------------------------------------------------------------------------

#[test]
fn same_params_same_fingerprint() {
    let a = Synthetic::new(Scale(0.5));
    let b = Synthetic::new(Scale(0.5));
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn different_params_different_fingerprint() {
    let a = Synthetic::new(Scale(0.5));
    let b = Synthetic::new(Scale(0.25));
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "scale changes the parameter set, so the fingerprint must change"
    );
}

#[test]
fn all_benchmarks_have_distinct_fingerprints() {
    let benches = all_benchmarks(Scale(0.1));
    for (i, a) in benches.iter().enumerate() {
        for b in &benches[i + 1..] {
            assert_ne!(
                a.fingerprint(),
                b.fingerprint(),
                "{} and {} must not collide",
                a.name(),
                b.name()
            );
        }
    }
    // And the same benchmark at a different scale is a different cell.
    let rescaled = all_benchmarks(Scale(0.2));
    for (a, b) in benches.iter().zip(&rescaled) {
        assert_ne!(a.fingerprint(), b.fingerprint(), "{}", a.name());
    }
}

#[test]
fn seed_is_part_of_the_cell_key() {
    let w = Synthetic::new(Scale(0.1));
    let key = |seed| CellSpec::team(&w, ColorScheme::Buddy, PinConfig::T16N4, seed).key();
    assert_ne!(
        key(1),
        key(2),
        "each repetition seed must be a distinct cell"
    );
    assert_eq!(key(1), key(1));
    // Boot noise is part of the spec: the same seed without it is another
    // cell.
    let quiet = CellSpec {
        noise: false,
        ..CellSpec::team(&w, ColorScheme::Buddy, PinConfig::T16N4, 1)
    };
    assert_ne!(quiet.key(), key(1));
}

// ---------------------------------------------------------------------------
// Cross-figure reuse: fig13/fig14 after the fig11 matrix is all hits
// ---------------------------------------------------------------------------

#[test]
fn fig13_14_after_matrix_is_all_cache_hits() {
    let opts = quick();
    let h = harness(true, 2);
    run_matrix(&h, &opts, &[PinConfig::T16N4]);
    let before = h.stats();
    fig13_14(&h, &opts);
    let after = h.stats();
    assert_eq!(
        after.cache_misses - before.cache_misses,
        0,
        "every fig13/fig14 cell is in the fig11 matrix, so the sweep \
         must simulate nothing new"
    );
    assert!(
        after.cache_hits > before.cache_hits,
        "the sweep must have been served from the cache"
    );
}

// ---------------------------------------------------------------------------
// Executor accounting: in-batch duplicates are simulated once
// ---------------------------------------------------------------------------

#[test]
fn duplicate_cells_in_one_batch_simulate_once() {
    let w = Synthetic::new(Scale(0.05));
    let spec = CellSpec::team(&w, ColorScheme::Buddy, PinConfig::T16N4, 1);
    let h = harness(true, 1);
    let results = h.run_cells(&[spec, spec, spec]);
    assert_eq!(results.len(), 3);
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    let st = h.stats();
    assert_eq!(
        st.cache_misses, 1,
        "one unique cell content, one simulation"
    );
    assert_eq!(
        st.cache_hits, 2,
        "the two duplicates are served, not re-run"
    );
}
