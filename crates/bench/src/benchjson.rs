//! `BENCH_repro.json` — the machine-readable perf log, concurrent-writer
//! safe.
//!
//! After a run, `repro` records per-command wall-clock milliseconds,
//! simulated cycles, and cell-cache hit/miss counts. This module owns the
//! file format and the merge discipline:
//!
//! * **atomic writes** — a temp file in the same directory, then a rename
//!   over the target, so a kill mid-write never leaves a half-written perf
//!   trajectory behind;
//! * **upsert by command name** — an intact existing file is *merged
//!   into*, not clobbered: `repro probe:lbm` after `repro all` keeps the
//!   figure records;
//! * **concurrent-writer safety** — the read-merge-write runs under a
//!   `<path>.lock` [`Lockfile`] (an exclusive OS file lock, see
//!   [`crate::lockfile`]), so two `repro` processes finishing at the same
//!   time serialize their merges instead of silently dropping each other's
//!   blocks. A live holder is waited on briefly; on timeout the write
//!   proceeds unlocked with a warning — losing a perf record beats hanging
//!   the run;
//! * **quarantine, don't trust** — a truncated/corrupt existing file is
//!   renamed to `<path>.corrupt` and treated as absent.
//!
//! The `repro` binary supplies the measurements ([`CmdRecord`]) and the
//! run-wide counters ([`InvocationMeta`]); this module reads no other
//! state, which is what makes interleaved-writer tests possible.

use crate::lockfile::Lockfile;
use crate::runner::Stats;
use crate::table::Table;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How long a writer waits for a live sibling's `<path>.lock`.
const LOCK_WAIT: Duration = Duration::from_secs(5);

/// One executed command's measurements.
pub struct CmdRecord {
    pub name: String,
    pub wall_ms: f64,
    pub sim_cycles: u64,
    pub reps: u32,
    pub scale: f64,
    /// Cells served without simulation while this command ran (cell cache
    /// or in-batch dedup).
    pub cache_hits: u64,
    /// Cells this command actually simulated.
    pub cache_misses: u64,
}

/// Run-wide facts for the `invocation` block, collected by the caller
/// (the `repro` binary snapshots its harness into this).
#[derive(Debug, Clone, Copy, Default)]
pub struct InvocationMeta {
    pub jobs: usize,
    pub cache_enabled: bool,
    pub journal_enabled: bool,
    pub journal_replayed: u64,
    /// The journal disarmed itself after persistent io failure
    /// (`TINT_HOST_FAULT=io:...`) — the run still completed correctly.
    pub journal_io_disarmed: bool,
    /// The harness's run counters at the end of the run.
    pub stats: Stats,
}

/// Minimal JSON string escaping (command names are ASCII, but be correct).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize a table as a JSON array of objects keyed by column name.
fn json_table(t: &Table, indent: &str) -> String {
    let mut s = String::from("[\n");
    for (i, row) in t.rows().iter().enumerate() {
        let cells: Vec<String> = t
            .columns()
            .iter()
            .zip(row)
            .map(|(c, v)| format!("\"{}\": \"{}\"", json_escape(c), json_escape(v)))
            .collect();
        s.push_str(&format!(
            "{indent}  {{{}}}{}\n",
            cells.join(", "),
            if i + 1 < t.rows().len() { "," } else { "" }
        ));
    }
    s.push_str(&format!("{indent}]"));
    s
}

/// Serialize one command record as a single JSON object line (no indent).
fn record_json(r: &CmdRecord) -> String {
    format!(
        "{{\"name\": \"{}\", \"wall_ms\": {:.3}, \"sim_cycles\": {}, \"reps\": {}, \"scale\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}}}",
        json_escape(&r.name),
        r.wall_ms,
        r.sim_cycles,
        r.reps,
        r.scale,
        r.cache_hits,
        r.cache_misses,
    )
}

/// The per-cell tables a `BENCH_repro.json` records, by key, in file
/// order: the commands whose cells downstream tooling reads one by one.
const TABLES: [&str; 3] = ["pressure", "churn", "soak"];

/// What survives from an existing `BENCH_repro.json`: the per-command
/// records and the raw `TABLES` blocks, each as `(name, raw JSON)`
/// pairs. Only files this tool wrote are parsed (one record per line); an
/// unrecognizable file is treated as absent.
#[derive(Default)]
struct ExistingBench {
    records: Vec<(String, String)>,
    tables: Vec<(String, String)>,
}

/// Parse the parts of an existing `BENCH_repro.json` worth preserving.
/// A truncated or otherwise corrupt file (a crash mid-write predating the
/// atomic-rename scheme, a disk error) is renamed to `<path>.corrupt` and
/// treated as absent — a bad perf log must never take the run down.
fn read_existing(path: &str) -> ExistingBench {
    let mut out = ExistingBench::default();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    let intact = text.trim_start().starts_with('{') && text.trim_end().ends_with('}');
    if !intact {
        let quarantine = format!("{path}.corrupt");
        match std::fs::rename(path, &quarantine) {
            Ok(()) => eprintln!(
                "warning: {path} is truncated/corrupt; moved to {quarantine} and starting fresh"
            ),
            Err(e) => eprintln!("warning: {path} is corrupt and could not be quarantined ({e})"),
        }
        return out;
    }
    let mut in_commands = false;
    // `(key, lines)` of the table block currently being collected.
    let mut block: Option<(&str, Vec<String>)> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if let Some((key, lines)) = block.as_mut() {
            if trimmed == "]" || trimmed == "]," {
                out.tables.push((key.to_string(), lines.join("\n")));
                block = None;
            } else {
                lines.push(line.to_string());
            }
            continue;
        }
        if trimmed.starts_with("\"commands\"") {
            in_commands = true;
            continue;
        }
        if in_commands {
            if trimmed == "]" || trimmed == "]," {
                in_commands = false;
                continue;
            }
            let raw = trimmed.trim_end_matches(',');
            // `{"name": "X", ...}` — extract X.
            if let Some(rest) = raw.strip_prefix("{\"name\": \"") {
                if let Some(end) = rest.find('"') {
                    out.records.push((rest[..end].to_string(), raw.to_string()));
                }
            }
            continue;
        }
        if let Some(key) = TABLES
            .into_iter()
            .find(|k| trimmed.starts_with(&format!("\"{k}\"")))
        {
            block = Some((key, Vec::new()));
        }
    }
    out
}

/// Extract a numeric field from a single-line JSON record this tool wrote
/// (`"field": 12.3,` or `"field": 45}` — terminated by `,` or `}`).
fn json_field_num(line: &str, field: &str) -> Option<f64> {
    let pat = format!("\"{field}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Serialize the measurement records as `<path>`, merging with an existing
/// file under the `<path>.lock` lockfile: records are upserted by command
/// name (an earlier `repro all` is not clobbered by a later `repro
/// probe:lbm`, and a concurrently finishing sibling process is not
/// clobbered either), and a previously recorded `TABLES` block survives
/// unless this run regenerated it (`tables`, by key).
///
/// Two summary blocks follow the records. `invocation` covers only the
/// commands *this run* executed — its `sim_cycles` and cache counters are
/// what prove (or disprove) cross-figure cell reuse. `total` is recomputed
/// as the sum over every merged record, so it describes the whole file
/// rather than, misleadingly, whichever subset of commands ran last.
pub fn write_bench_json(
    path: &str,
    records: &[CmdRecord],
    reps: u32,
    scale: f64,
    config_names: &[String],
    tables: &[(&str, &Table)],
    meta: &InvocationMeta,
) -> Result<(), String> {
    // Serialize read-merge-write against sibling processes. Timing out on
    // a live (possibly wedged) holder degrades to the pre-lock behavior
    // rather than hanging the whole run on a perf log.
    let lock_path = format!("{path}.lock");
    let _lock = match Lockfile::acquire_wait(Path::new(&lock_path), LOCK_WAIT) {
        Ok(l) => Some(l),
        Err(e) => {
            eprintln!("warning: proceeding without {lock_path} ({e})");
            None
        }
    };
    let existing = read_existing(path);
    // Upsert: existing records keep their position, new commands append.
    let mut merged: Vec<(String, String)> = existing.records;
    for r in records {
        let line = record_json(r);
        match merged.iter_mut().find(|(n, _)| *n == r.name) {
            Some(slot) => slot.1 = line,
            None => merged.push((r.name.clone(), line)),
        }
    }
    let inv_ms: f64 = records.iter().map(|r| r.wall_ms).sum();
    let inv_cycles: u64 = records.iter().map(|r| r.sim_cycles).sum();
    let inv_hits: u64 = records.iter().map(|r| r.cache_hits).sum();
    let inv_misses: u64 = records.iter().map(|r| r.cache_misses).sum();
    let total_ms: f64 = merged
        .iter()
        .filter_map(|(_, l)| json_field_num(l, "wall_ms"))
        .sum();
    let total_cycles: u64 = merged
        .iter()
        .filter_map(|(_, l)| json_field_num(l, "sim_cycles"))
        .map(|v| v as u64)
        .sum();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"repro\",\n");
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!("  \"scale\": {scale},\n"));
    s.push_str(&format!(
        "  \"configs\": [{}],\n",
        config_names
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("  \"commands\": [\n");
    for (i, (_, line)) in merged.iter().enumerate() {
        s.push_str(&format!(
            "    {line}{}\n",
            if i + 1 < merged.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    for key in TABLES {
        if let Some((_, t)) = tables.iter().find(|(k, _)| *k == key) {
            s.push_str(&format!("  \"{key}\": {},\n", json_table(t, "  ")));
        } else if let Some((_, raw)) = existing.tables.iter().find(|(k, _)| k == key) {
            s.push_str(&format!("  \"{key}\": [\n{raw}\n  ],\n"));
        }
    }
    s.push_str(&format!(
        "  \"invocation\": {{\"commands\": [{}], \"jobs\": {}, \"cache_enabled\": {}, \
         \"wall_ms\": {inv_ms:.3}, \"sim_cycles\": {inv_cycles}, \
         \"cache_hits\": {inv_hits}, \"cache_misses\": {inv_misses}, \
         \"journal\": {{\"enabled\": {}, \"replayed\": {}, \
         \"hits\": {}, \"appended\": {}, \"io_disarmed\": {}}}, \
         \"poisoned_cells\": {}, \"host_faults_injected\": {}, \"retries_used\": {}, \
         \"oom_kills\": {}, \"admission_rejects\": {}, \
         \"alloc_retries\": {}}},\n",
        records
            .iter()
            .map(|r| format!("\"{}\"", json_escape(&r.name)))
            .collect::<Vec<_>>()
            .join(", "),
        meta.jobs,
        meta.cache_enabled,
        meta.journal_enabled,
        meta.journal_replayed,
        meta.stats.journal_hits,
        meta.stats.journal_appends,
        meta.journal_io_disarmed,
        meta.stats.poisoned,
        meta.stats.faults_injected,
        meta.stats.retries,
        meta.stats.oom_kills,
        meta.stats.admission_rejects,
        meta.stats.alloc_retries,
    ));
    s.push_str(&format!(
        "  \"total\": {{\"wall_ms\": {total_ms:.3}, \"sim_cycles\": {total_cycles}}}\n"
    ));
    s.push_str("}\n");
    // Crash-safe: write a temp file in the same directory, then atomically
    // rename over the target — a kill mid-write can no longer leave a
    // half-written perf trajectory behind.
    // Unique per writer, not just per process: a writer that proceeds
    // unlocked after a timeout must not share its sibling's temp file.
    static WRITE: AtomicU64 = AtomicU64::new(0);
    let tmp = format!(
        "{path}.tmp.{}.{}",
        std::process::id(),
        WRITE.fetch_add(1, Ordering::Relaxed)
    );
    std::fs::write(&tmp, &s).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot rename {tmp} over {path}: {e}")
    })?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn rec(name: &str, wall_ms: f64) -> CmdRecord {
        CmdRecord {
            name: name.to_string(),
            wall_ms,
            sim_cycles: 100,
            reps: 1,
            scale: 1.0,
            cache_hits: 0,
            cache_misses: 1,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tint-benchjson-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_one(path: &str, name: &str, wall_ms: f64) {
        write_bench_json(
            path,
            &[rec(name, wall_ms)],
            1,
            1.0,
            &["16_threads_4_nodes".to_string()],
            &[],
            &InvocationMeta::default(),
        )
        .expect("write succeeds");
    }

    #[test]
    fn upsert_merges_and_replaces_by_name() {
        let dir = scratch("upsert");
        let path = dir.join("BENCH_repro.json");
        let path = path.to_str().unwrap();
        write_one(path, "fig11", 10.0);
        write_one(path, "fig12", 20.0);
        write_one(path, "fig11", 30.0); // replaces, does not duplicate
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.matches("\"name\": \"fig11\"").count(), 1);
        assert_eq!(text.matches("\"name\": \"fig12\"").count(), 1);
        assert!(text.contains("\"wall_ms\": 30.000"), "fig11 was upserted");
        assert!(text.contains("\"io_disarmed\": false"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_writers_drop_no_records() {
        // Two "processes" (threads exercising the same lockfile-guarded
        // read-merge-write) each upsert their own command repeatedly; at
        // the end both commands' records must have survived with their
        // final values.
        let dir = scratch("interleave");
        let path = dir.join("BENCH_repro.json");
        let path_str = path.to_str().unwrap().to_string();
        let mk = |name: &'static str| {
            let path = path_str.clone();
            std::thread::spawn(move || {
                for i in 1..=20u32 {
                    write_one(&path, name, i as f64);
                }
            })
        };
        let a = mk("proc-a");
        let b = mk("proc-b");
        a.join().unwrap();
        b.join().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for name in ["proc-a", "proc-b"] {
            let pat = format!("\"name\": \"{name}\"");
            assert_eq!(
                text.matches(&pat).count(),
                1,
                "{name}'s record must survive the interleaved writes"
            );
            // Each writer's last write (wall_ms = 20) is what remains.
            let line = text.lines().find(|l| l.contains(&pat)).unwrap();
            assert_eq!(json_field_num(line, "wall_ms"), Some(20.0), "{name}");
        }
        // The lock is released at the end.
        Lockfile::acquire(&dir.join("BENCH_repro.json.lock")).expect("lock released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_existing_file_is_quarantined_not_trusted() {
        let dir = scratch("corrupt");
        let path = dir.join("BENCH_repro.json");
        std::fs::write(&path, "{ \"bench\": \"repro\", \"commands\": [\n  {\"trunc").unwrap();
        let path_str = path.to_str().unwrap();
        write_one(path_str, "fig11", 1.0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\": \"fig11\""));
        assert!(!text.contains("trunc"));
        assert!(dir.join("BENCH_repro.json.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
