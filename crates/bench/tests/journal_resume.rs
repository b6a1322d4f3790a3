//! Crash-safety differential tests: the on-disk cell farm and the
//! panic-isolated workers.
//!
//! The load-bearing invariants:
//!
//! 1. A killed run resumes **exactly**: every cell the dead process
//!    completed is replayed from its shard and never re-simulated, and
//!    the resumed figures are byte-identical to an undisturbed run — the
//!    paper matrix's cells as much as the churn and soak scenarios'.
//! 2. A damaged store is never fatal. A torn final write (the only tear
//!    a SIGKILL can produce) is dropped in memory — the shard itself is
//!    *not* rewritten, because a torn tail on a foreign shard may be a
//!    live sibling's in-flight append; mid-stream corruption quarantines
//!    that one shard (unique name, good prefix rescued) and never poisons
//!    its siblings.
//! 3. Injected worker panics are masked by deterministic retries; a cell
//!    that fails every attempt renders as `ERR` instead of aborting the
//!    matrix.
//!
//! Each test builds its own [`Harness`]es, so the tests run in parallel.
//! "Process death" is dropping a harness and building a fresh one on the
//! same journal directory: it replays the store into a new cell cache and
//! — like a real fresh process — opens a *new* shard on its next append.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tint_bench::figures::{churn, fig10, soak, FigOpts};
use tint_bench::hostfault::{FaultMode, HostFaultPlan};
use tint_bench::journal;
use tint_bench::{Harness, RunConfig};

/// Small-but-nontrivial options (mirrors `cell_cache.rs`).
fn quick() -> FigOpts {
    FigOpts {
        reps: 2,
        scale: 0.02,
        csv: false,
    }
}

/// A unique scratch directory for one test's journal.
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tint-journal-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One worker (deterministic queue order and fault schedule), the cache
/// on, journaling to `dir` if given.
fn config(dir: Option<&Path>) -> RunConfig {
    RunConfig {
        jobs: Some(1),
        journal: dir.map(Path::to_path_buf),
        ..RunConfig::default()
    }
}

/// A `panic:<per_mille>:<seed>` plan.
fn panics(per_mille: u16, seed: u64) -> Option<HostFaultPlan> {
    Some(HostFaultPlan {
        mode: FaultMode::Panic,
        per_mille,
        seed,
    })
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

// ---------------------------------------------------------------------------
// Kill-and-resume: completed prefix is never re-simulated
// ---------------------------------------------------------------------------

#[test]
fn resume_replays_completed_cells_and_matches_bytes() {
    let dir = scratch("resume");
    let opts = quick();
    // "First process": run a figure with the journal armed.
    let (first, appended) = {
        let h = Harness::new(config(Some(&dir)));
        let out = opts.render(&fig10(&h, &opts));
        (out, h.stats().journal_appends)
    };
    assert!(appended > 0, "the first run must journal its cells");
    assert_eq!(shard_paths(&dir).len(), 1, "one writer, one shard");

    // "Second process": all in-memory state is gone; only the store
    // survives.
    let h = Harness::new(config(Some(&dir)));
    let stats = h.journal().replay_stats();
    assert_eq!(stats.replayed, appended, "every appended cell replays");
    assert_eq!(stats.torn_dropped, 0);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.shards, 1);

    let resumed = opts.render(&fig10(&h, &opts));
    let st = h.stats();
    assert_eq!(
        st.cache_misses, 0,
        "a resumed run must not re-simulate the completed prefix"
    );
    assert!(
        st.journal_hits >= stats.replayed,
        "every replayed cell is served at least once"
    );
    assert_eq!(
        st.journal_appends, 0,
        "nothing new to journal on a full resume"
    );
    assert_eq!(first, resumed, "resumed figures are byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill a `figure` run part-way and resume it: the first "process"
/// journals `kept` cells, then dies at the io operation that appends the
/// next one (one worker, so cells complete in input order). A fresh
/// harness on the same directory must serve those cells as journal hits,
/// simulate only the rest, and print what an undisturbed run prints.
fn assert_resumes_after_kill(
    tag: &str,
    figure: fn(&Harness, &FigOpts) -> tint_bench::Table,
    cells: u64,
    kept: u64,
) {
    let dir = scratch(tag);
    let opts = FigOpts {
        reps: 1,
        scale: 0.05,
        csv: false,
    };
    let undisturbed = opts.render(&figure(&Harness::new(config(None)), &opts));

    let h = Harness::new(config(Some(&dir)));
    // A fresh store's first append creates the generation, opens the
    // shard and writes its magic before the entry: four io operations,
    // then one per further cell.
    h.journal().set_io_abort_at(Some(4 + kept));
    // The kill panics its worker thread; the executor's thread scope
    // re-raises it, so the whole figure dies mid-run.
    let killed = catch_unwind(AssertUnwindSafe(|| figure(&h, &opts)));
    assert!(killed.is_err(), "the kill point must stop the run");
    drop(h);

    let h = Harness::new(config(Some(&dir)));
    assert_eq!(h.journal().replay_stats().replayed, kept);
    let resumed = opts.render(&figure(&h, &opts));
    let st = h.stats();
    assert_eq!(st.journal_hits, kept, "every journaled cell is served");
    assert_eq!(st.cache_misses, cells - kept, "only the rest is simulated");
    assert_eq!(resumed, undisturbed, "the resumed table is byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_resumes_from_the_journal_after_a_kill() {
    // Eight cells: four policy mixes at two load levels.
    assert_resumes_after_kill("churn-kill", churn, 8, 3);
}

#[test]
fn soak_resumes_from_the_journal_after_a_kill() {
    // Two cells: guarded, then unguarded.
    assert_resumes_after_kill("soak-kill", soak, 2, 1);
}

// ---------------------------------------------------------------------------
// Damaged shards: torn tail vs mid-stream corruption
// ---------------------------------------------------------------------------

/// Journal a figure's cells in one "process"; return the (single) shard
/// path, its bytes and the number of cells appended.
fn journaled_run(dir: &Path) -> (PathBuf, Vec<u8>, u64) {
    let h = Harness::new(config(Some(dir)));
    let opts = quick();
    let _ = opts.render(&fig10(&h, &opts));
    h.journal().flush();
    let shards = shard_paths(dir);
    assert_eq!(shards.len(), 1, "one writer, one shard");
    let path = shards.into_iter().next().unwrap();
    let bytes = std::fs::read(&path).expect("shard file exists");
    (path, bytes, h.stats().journal_appends)
}

/// What a fresh "process" replays from `dir`.
fn replay(dir: &Path) -> journal::ReplayStats {
    Harness::new(config(Some(dir))).journal().replay_stats()
}

/// Byte offset just past the `n`-th entry (a shard starts with an 8-byte
/// magic; entries are `[len u32 LE][crc u32 LE][payload]`).
fn entry_end(bytes: &[u8], n: usize) -> usize {
    let mut at = 8;
    for _ in 0..n {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
    }
    at
}

#[test]
fn torn_final_write_is_dropped_in_memory_without_touching_the_shard() {
    let dir = scratch("torn");
    let (path, bytes, appended) = journaled_run(&dir);
    assert!(appended >= 2, "need at least two entries to tear one");
    // Tear the final entry mid-payload, as a crash during the last write
    // would.
    let keep = entry_end(&bytes, appended as usize - 1) + 5;
    std::fs::write(&path, &bytes[..keep]).unwrap();

    let stats = replay(&dir); // process death
    assert_eq!(
        stats.replayed,
        appended - 1,
        "all but the torn entry replay"
    );
    assert!(stats.torn_dropped > 0);
    assert_eq!(stats.quarantined, 0, "a tear is not corruption");
    // Foreign-shard safety: the torn shard is NOT truncated or rewritten —
    // for all the replayer knows, that tail is a live sibling's append in
    // flight. (GC compacts dead tails away.)
    assert_eq!(
        std::fs::read(&path).unwrap().len(),
        keep,
        "replay must never rewrite a foreign shard"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn midstream_bitflip_quarantines_that_shard_and_rescues_the_prefix() {
    let dir = scratch("bitflip");
    let (path, mut bytes, appended) = journaled_run(&dir);
    assert!(appended >= 2);
    // Flip one bit inside the *second* entry's payload: data follows it,
    // so this is mid-stream corruption, not a tear.
    let flip_at = entry_end(&bytes, 1) + 10;
    bytes[flip_at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let stats = replay(&dir); // process death
    assert_eq!(stats.quarantined, 1, "CRC mismatch mid-stream quarantines");
    assert_eq!(stats.replayed, 1, "the good prefix (first entry) survives");
    // The damaged shard moved to the store root under a unique name.
    let shard_name = path.file_name().unwrap().to_str().unwrap();
    let corrupt = journal::store_root(&dir).join(format!("{shard_name}.corrupt.1"));
    assert!(corrupt.exists(), "damaged shard is kept for inspection");
    assert!(!path.exists(), "the corrupt shard left the generation");

    // The rescue re-persisted the good prefix: a third "process" replays
    // it from a healthy shard without complaint.
    let again = replay(&dir);
    assert_eq!(again.replayed, 1);
    assert_eq!(again.quarantined, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn successive_corruptions_quarantine_to_unique_names() {
    let dir = scratch("requarantine");
    // First corruption: bad magic on the process's own shard.
    let (path, _, _) = journaled_run(&dir);
    let shard_name = path.file_name().unwrap().to_str().unwrap().to_string();
    std::fs::write(&path, b"NOTJRNL!garbage").unwrap();
    assert_eq!(replay(&dir).quarantined, 1);
    let root = journal::store_root(&dir);
    let q1 = root.join(format!("{shard_name}.corrupt.1"));
    assert!(q1.exists());
    let q1_bytes = std::fs::read(&q1).unwrap();

    // Second corruption of a *same-named* shard (recreate it by hand, as a
    // pathological writer might): the quarantine must take the next slot,
    // never overwrite the first body of evidence.
    let (_, gen_dir) = journal::current_generation(&dir).unwrap();
    std::fs::write(gen_dir.join(&shard_name), b"NOTJRNL!other-garbage").unwrap();
    assert_eq!(replay(&dir).quarantined, 1);
    let q2 = root.join(format!("{shard_name}.corrupt.2"));
    assert!(q2.exists(), "second quarantine takes the next slot");
    assert_eq!(
        std::fs::read(&q1).unwrap(),
        q1_bytes,
        "the first quarantine is untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Host faults: retries mask them; total failure poisons and renders ERR
// ---------------------------------------------------------------------------

#[test]
fn injected_faults_are_masked_by_retries() {
    let opts = quick();
    let clean = opts.render(&fig10(&Harness::new(config(None)), &opts));

    // 10% of attempts panic; with 10 retries a cell failing for good needs
    // 11 consecutive bad draws — the fixed seed never does.
    let h = Harness::new(RunConfig {
        cell_retries: 10,
        host_fault: panics(100, 11),
        ..config(None)
    });
    let faulted = opts.render(&fig10(&h, &opts));
    let st = h.stats();
    assert!(st.faults_injected > 0, "the plan must actually fire");
    assert!(st.retries > 0);
    assert_eq!(st.poisoned, 0, "retries must absorb every fault");
    assert_eq!(clean, faulted, "masked faults leave no trace in the output");
}

/// The `--jobs 4` crash-consistency case: workers that panic mid-cell must
/// leave the harness usable. Failed cells are accounted as poisoned,
/// render as `ERR`, are never cached or journaled, and a disarmed run over
/// the same journal (a fresh "process") re-simulates them and heals to a
/// byte-identical clean figure.
#[test]
fn parallel_faulted_run_keeps_cache_usable_and_accounts_err() {
    let dir = scratch("parallel-faulted");
    let opts = quick();
    let reference = opts.render(&fig10(&Harness::new(config(None)), &opts));

    let h = Harness::new(RunConfig {
        jobs: Some(4), // the repro binary's `--jobs 4`
        cell_retries: 1,
        host_fault: panics(1000, 3),
        ..config(Some(&dir))
    });
    let faulted = opts.render(&fig10(&h, &opts));
    let st = h.stats();
    assert!(st.faults_injected > 0, "the plan must actually fire");
    assert!(
        st.poisoned > 0,
        "permille=1000 must poison cells across 4 workers"
    );
    assert!(
        faulted.contains("ERR"),
        "poisoned cells render as ERR:\n{faulted}"
    );
    assert!(
        st.faults_injected >= st.poisoned * 2,
        "every poisoned cell burned its retry too"
    );
    // The panicking workers must not have wedged the cache, and nothing
    // poisoned reached it or the journal.
    assert_eq!(h.cache().map(|c| c.len()), Some(0));
    assert_eq!(st.journal_appends, 0);
    drop(h);

    let healed_h = Harness::new(config(Some(&dir)));
    assert_eq!(healed_h.journal().replay_stats().replayed, 0);
    let healed = opts.render(&fig10(&healed_h, &opts));
    assert_eq!(
        healed_h.stats().cache_misses,
        st.poisoned,
        "healing re-simulates exactly the poisoned cells"
    );
    assert!(healed_h.cache().is_some_and(|c| !c.is_empty()));
    assert_eq!(
        healed, reference,
        "a disarmed re-run heals to the clean figure byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn total_fault_rate_poisons_cells_and_renders_err() {
    let opts = quick();
    let h = Harness::new(RunConfig {
        cache: false,
        cell_retries: 1,
        host_fault: panics(1000, 1),
        ..config(None)
    });
    let table = opts.render(&fig10(&h, &opts));
    let st = h.stats();
    assert!(st.poisoned > 0, "permille=1000 defeats every retry");
    assert!(
        table.contains("ERR"),
        "poisoned cells render as ERR:\n{table}"
    );
    assert!(st.faults_injected >= st.poisoned * 2);
}
