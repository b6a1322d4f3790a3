//! Cell-farm differential tests: concurrent-writer shards, legacy stores
//! left alone, io-fault degradation, and generation GC atomicity.
//!
//! The load-bearing invariants:
//!
//! 1. **Merge**: writers append to private shards; replay merges every
//!    shard of the current generation and dedupes by key, so a fleet of
//!    processes collectively only ever simulates new cells.
//! 2. **Legacy**: stores of earlier formats (the v1 file, the v2 shard
//!    store) next to the current store are never read or touched.
//! 3. **Degradation**: under injected io faults the journal disarms
//!    itself; the run completes with byte-identical figures and the
//!    surviving on-disk prefix stays replayable — never quarantined.
//! 4. **GC atomicity**: `gc` commits a compacted generation with one
//!    atomic rename; killed at *any* io operation it leaves a store that
//!    replays the full live set, and the `gc.lock` is never left held.
//!
//! Each test builds its own [`Harness`]es, so the tests run in parallel.
//! "Process death" is a fresh harness on the same journal directory: it
//! replays the store and opens a fresh shard, exactly like a new process.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tint_bench::cell::CellKey;
use tint_bench::figures::{fig10, FigOpts};
use tint_bench::hostfault::{FaultMode, HostFaultPlan, IO_ABORT_MARKER};
use tint_bench::journal;
use tint_bench::lockfile::Lockfile;
use tint_bench::{ExpResult, Harness, RunConfig};
use tint_spmd::RunMetrics;

fn quick(scale: f64) -> FigOpts {
    FigOpts {
        reps: 2,
        scale,
        csv: false,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tint-farm-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One worker, the cache on, journaling to `dir`.
fn config(dir: &Path) -> RunConfig {
    RunConfig {
        jobs: Some(1),
        journal: Some(dir.to_path_buf()),
        ..RunConfig::default()
    }
}

/// A fresh "process" on the journal at `dir`.
fn process(dir: &Path) -> Harness {
    Harness::new(config(dir))
}

/// An `io:<per_mille>:<seed>` plan.
fn io_faults(per_mille: u16, seed: u64) -> Option<HostFaultPlan> {
    Some(HostFaultPlan {
        mode: FaultMode::Io,
        per_mille,
        seed,
    })
}

/// A synthetic, decodable cell for direct-append tests.
fn cell(i: u64) -> (CellKey, ExpResult) {
    let key = CellKey(format!("test cell {i}"));
    let r = ExpResult {
        metrics: RunMetrics {
            threads: 2,
            runtime: 1000 + i,
            thread_runtime: vec![500 + i, 500],
            thread_idle: vec![1, 2],
            serial_cycles: 7,
            parallel_sections: 1,
        },
        remote_fraction: 0.5,
        llc_interference: i,
        row_hit_rate: 0.75,
        pages_moved: 0,
        page_faults: 3,
        fault_cycles: 4,
        l3_miss_rate: 0.1,
        mean_latency: 100.0,
        color_list_moves: 2,
        counters: vec![i],
        poisoned: false,
    };
    (key, r)
}

/// Every shard file in `dir`'s current store generation, sorted.
fn shard_paths(dir: &Path) -> Vec<PathBuf> {
    let Some((_, gen_dir)) = journal::current_generation(dir) else {
        return Vec::new();
    };
    let mut v: Vec<PathBuf> = std::fs::read_dir(gen_dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jnl"))
        .collect();
    v.sort();
    v
}

/// A writer "process" that appends the synthetic cells `ids` directly
/// (modelling a writer that simulated them) and exits.
fn write_cells(dir: &Path, ids: Range<u64>) {
    let h = process(dir);
    for i in ids {
        let (k, r) = cell(i);
        h.journal().append(&k, &r);
    }
    h.journal().flush();
}

// ---------------------------------------------------------------------------
// 1. Concurrent-writer shards merge; the farm only simulates new cells
// ---------------------------------------------------------------------------

#[test]
fn two_writers_merge_and_a_third_run_simulates_nothing() {
    let dir = scratch("merge");
    // Writer A: fig10 at scale 0.02.
    let opts_a = quick(0.02);
    let a = process(&dir);
    let out_a = opts_a.render(&fig10(&a, &opts_a));
    a.journal().flush();
    let appended_a = a.stats().journal_appends;
    assert!(appended_a > 0);

    // Writer B: a different cell population (scale 0.03) lands in its own
    // shard — B never rewrites A's shard.
    let opts_b = quick(0.03);
    let b = process(&dir);
    let out_b = opts_b.render(&fig10(&b, &opts_b));
    b.journal().flush();
    let appended_b = b.stats().journal_appends;
    assert!(appended_b > 0, "scale 0.03 cells are new");
    assert_eq!(shard_paths(&dir).len(), 2, "two writers, two shards");

    // "Third process": the merged farm serves every cell of both writers;
    // nothing is re-simulated.
    let c = process(&dir);
    let stats = c.journal().replay_stats();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.replayed, appended_a + appended_b);
    assert_eq!(stats.quarantined, 0);
    let again_a = opts_a.render(&fig10(&c, &opts_a));
    let again_b = opts_b.render(&fig10(&c, &opts_b));
    assert_eq!(
        c.stats().cache_misses,
        0,
        "the merged farm must serve every cell"
    );
    assert_eq!(again_a, out_a, "byte-identical across the farm");
    assert_eq!(again_b, out_b, "byte-identical across the farm");
    assert_eq!(c.stats().journal_appends, 0, "nothing new to journal");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 2. Stores of earlier formats are ignored
// ---------------------------------------------------------------------------

/// The v1 file: the v1 magic, then arbitrary entry bytes.
fn write_v1(dir: &Path, stride: u32) -> (PathBuf, Vec<u8>) {
    let path = dir.join(journal::LEGACY_STORES[0]);
    let mut bytes = b"TINTJNL1".to_vec();
    bytes.extend((0..200u32).map(|i| (i * stride) as u8));
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(&path, &bytes).unwrap();
    (path, bytes)
}

/// A v1 file alone in the journal directory is reported but never read:
/// replay finds no cells, GC leaves it byte-identical, and no migration
/// marker or quarantine file appears.
#[test]
fn legacy_v1_file_is_left_untouched_and_not_replayed() {
    let dir = scratch("v1-alone");
    let (v1_path, v1_bytes) = write_v1(&dir, 53);

    assert_eq!(journal::legacy_stores(&dir), vec![v1_path.clone()]);
    let h = process(&dir);
    let stats = h.journal().replay_stats();
    assert_eq!(stats.replayed, 0, "a v1 file is not replayed");
    assert_eq!(stats.shards, 0);
    assert_eq!(stats.quarantined, 0);
    let (k, _) = cell(0);
    assert!(
        h.cache().unwrap().get(&k).is_none(),
        "no cell comes from v1"
    );
    h.journal().gc().expect("gc succeeds");
    assert_eq!(
        std::fs::read(&v1_path).unwrap(),
        v1_bytes,
        "the v1 file is left byte-identical"
    );
    for e in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        assert!(
            name == journal::LEGACY_STORES[0] || name == journal::STORE_DIR,
            "no marker or quarantine beside it: {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A v1 file and a v2 shard store beside the current store contribute
/// nothing: only the current store's shard replays, and both legacy
/// stores survive replay and GC byte-identical.
#[test]
fn v1_beside_a_v2_store_contributes_nothing() {
    let dir = scratch("v1");
    // A current-format shard holding keys 0..3 (a prior process).
    write_cells(&dir, 0..3);
    let (v1_path, v1_bytes) = write_v1(&dir, 37);
    // A v2 store: one generation holding one shard.
    let v2_shard = dir
        .join(journal::LEGACY_STORES[1])
        .join("gen-00000001/1-0.jnl");
    std::fs::create_dir_all(v2_shard.parent().unwrap()).unwrap();
    std::fs::write(&v2_shard, b"TINTJNL2garbage").unwrap();

    assert_eq!(
        journal::legacy_stores(&dir),
        vec![v1_path.clone(), dir.join(journal::LEGACY_STORES[1])]
    );
    let h = process(&dir);
    let stats = h.journal().replay_stats();
    assert_eq!(stats.replayed, 3, "only the current store replays");
    assert_eq!(stats.shards, 1);
    assert_eq!(stats.quarantined, 0);
    h.journal().gc().expect("gc succeeds");
    assert_eq!(
        std::fs::read(&v1_path).unwrap(),
        v1_bytes,
        "the v1 file is left byte-identical"
    );
    assert_eq!(
        std::fs::read(&v2_shard).unwrap(),
        b"TINTJNL2garbage",
        "the v2 store is left byte-identical"
    );
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names.len(),
        3,
        "no marker or quarantine beside them: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 3. io-fault degradation: disarm, never corrupt
// ---------------------------------------------------------------------------

#[test]
fn full_io_fault_rate_disarms_and_the_run_completes_identically() {
    let dir = scratch("io1000");
    let opts = quick(0.02);
    // Clean reference with no journal at all.
    let clean = opts.render(&fig10(
        &Harness::new(RunConfig {
            journal: None,
            ..config(&dir)
        }),
        &opts,
    ));

    // io:1000 — every journal filesystem op fails. Arming the journal must
    // not panic anything; it disarms and the figure is identical.
    let h = Harness::new(RunConfig {
        host_fault: io_faults(1000, 42),
        ..config(&dir)
    });
    assert_eq!(h.journal().replay_stats().replayed, 0);
    assert_eq!(h.journal().dir(), None, "the journal disarmed itself");
    assert!(h.journal().io_disarmed());
    let faulted = opts.render(&fig10(&h, &opts));
    assert_eq!(faulted, clean, "figures are unaffected by journal loss");
    assert!(
        h.journal().io_faults_injected() > 0,
        "the io schedule must actually fire"
    );
    // Worker panics are a different mode entirely.
    assert_eq!(h.stats().faults_injected, 0, "io mode never panics workers");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn low_rate_io_faults_never_corrupt_the_good_prefix() {
    let dir = scratch("iolow");
    let opts = quick(0.02);
    let clean = opts.render(&fig10(
        &Harness::new(RunConfig {
            journal: None,
            ..config(&dir)
        }),
        &opts,
    ));

    // A healthy writer creates the store first, so the faults land in the
    // faulted run's append stream.
    write_cells(&dir, 0..1);
    let h = Harness::new(RunConfig {
        host_fault: io_faults(300, 7),
        ..config(&dir)
    });
    let faulted = opts.render(&fig10(&h, &opts));
    h.journal().flush();
    assert_eq!(faulted, clean, "io faults never reach the figures");
    assert!(
        h.journal().io_faults_injected() > 0,
        "the schedule must fire"
    );

    // Whatever survived on disk is a *good prefix*: a healthy process
    // replays it without quarantine and completes the figure exactly.
    let healthy = process(&dir);
    let stats = healthy.journal().replay_stats();
    assert_eq!(
        stats.quarantined, 0,
        "failed appends must never corrupt a shard mid-stream"
    );
    assert!(
        stats.replayed > 1,
        "some faulted-run cells survived: {stats:?}"
    );
    let resumed = opts.render(&fig10(&healthy, &opts));
    assert_eq!(resumed, clean);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 4. Generation GC: compaction, atomicity under kill, locking
// ---------------------------------------------------------------------------

#[test]
fn gc_compacts_duplicates_across_shards_and_preserves_every_cell() {
    let dir = scratch("gc");
    // Writer A: keys 0..10. Writer B: keys 0..15 — 10 duplicates land in a
    // second shard (direct appends model a writer that raced A and
    // re-simulated).
    write_cells(&dir, 0..10);
    write_cells(&dir, 0..15);
    assert_eq!(shard_paths(&dir).len(), 2);

    let stats = process(&dir).journal().gc().expect("gc succeeds");
    assert_eq!(stats.live_cells, 15);
    assert_eq!(stats.shards_merged, 2);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.generation, 2);
    assert!(
        stats.bytes_after < stats.bytes_before,
        "dropping 10 duplicate records must shrink the store \
         ({} -> {})",
        stats.bytes_before,
        stats.bytes_after
    );
    // The old generation is gone; one compacted shard remains.
    let root = journal::store_root(&dir);
    assert!(!root.join("gen-00000001").exists());
    Lockfile::acquire(&root.join(journal::GC_LOCK)).expect("lock released");
    assert_eq!(shard_paths(&dir).len(), 1);

    // The compacted store serves everything.
    let h = process(&dir);
    let replayed = h.journal().replay_stats();
    assert_eq!(replayed.replayed, 15);
    assert_eq!(replayed.shards, 1);
    assert_eq!(replayed.quarantined, 0);
    for i in 0..15 {
        assert!(
            h.cache().unwrap().get(&cell(i).0).is_some(),
            "key {i} survives"
        );
    }

    // Post-GC appends open a shard in the *new* generation.
    let (k, r) = cell(99);
    h.journal().append(&k, &r);
    h.journal().flush();
    assert_eq!(shard_paths(&dir).len(), 2, "fresh shard in generation 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_killed_at_every_io_op_leaves_old_or_new_generation_intact() {
    let dir = scratch("gckill");
    write_cells(&dir, 0..20);
    let root = journal::store_root(&dir);

    // Sweep the kill point over every io operation of the compaction: op k
    // panics (simulated SIGKILL at that filesystem step). After each kill
    // the store must still replay the full live set — the commit is a
    // single atomic rename, so there is no in-between.
    let mut kill_points = 0u64;
    let mut committed_at = None;
    for k in 1..=200u64 {
        let gc_process = process(&dir); // a fresh "process" runs the GC
        gc_process.journal().set_io_abort_at(Some(k));
        match catch_unwind(AssertUnwindSafe(|| gc_process.journal().gc())) {
            Ok(Ok(stats)) => {
                // The kill point lies beyond the compaction's op count: GC
                // ran to completion.
                assert_eq!(stats.live_cells, 20);
                committed_at = Some(k);
                break;
            }
            Ok(Err(e)) => panic!("gc must only die by kill, got: {e}"),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(
                    msg.contains(IO_ABORT_MARKER),
                    "only the injected kill may panic, got: {msg}"
                );
                kill_points += 1;
            }
        }
        if let Err(e) = Lockfile::acquire(&root.join(journal::GC_LOCK)) {
            panic!("kill point {k}: the gc lock must never linger: {e}");
        }
        let stats = process(&dir).journal().replay_stats();
        assert_eq!(
            stats.replayed, 20,
            "kill point {k}: the store must replay the full live set"
        );
        assert_eq!(stats.quarantined, 0, "kill point {k}: no corruption");
    }
    let committed_at = committed_at.expect("gc eventually runs clean");
    assert!(
        kill_points >= 20,
        "the sweep must cover >= 20 kill points (got {kill_points}, \
         committed at {committed_at})"
    );

    // After the clean commit: exactly one generation, fully intact, and no
    // stray tmp build dirs from the killed attempts.
    let names: Vec<String> = std::fs::read_dir(&root)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().all(|n| !n.contains(".tmp.")),
        "stray GC build dirs must be cleaned up: {names:?}"
    );
    let final_stats = process(&dir).journal().replay_stats();
    assert_eq!(final_stats.replayed, 20);
    assert_eq!(final_stats.shards, 1, "compacted into one shard");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_refuses_a_live_lock_and_takes_over_a_stale_one() {
    let dir = scratch("gclock");
    write_cells(&dir, 0..3);
    let h = process(&dir);
    let lock = journal::store_root(&dir).join(journal::GC_LOCK);

    // A live holder makes gc fail fast, store untouched.
    let held = Lockfile::acquire(&lock).unwrap();
    let err = h.journal().gc().expect_err("live lock must refuse");
    assert!(err.contains("is held"), "{err}");
    assert!(journal::store_root(&dir).join("gen-00000001").exists());
    drop(held);

    // A stale holder (dead pid) is taken over.
    let dead_pid = std::process::Command::new("true")
        .spawn()
        .map(|mut c| {
            let pid = c.id();
            let _ = c.wait();
            pid
        })
        .unwrap();
    std::fs::write(&lock, format!("{dead_pid}\n")).unwrap();
    let stats = h.journal().gc().expect("stale lock is taken over");
    assert_eq!(stats.live_cells, 3);
    Lockfile::acquire(&lock).expect("lock released after gc");
    let _ = std::fs::remove_dir_all(&dir);
}
