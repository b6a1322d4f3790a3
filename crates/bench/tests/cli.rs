//! `repro` usage errors: each bad flag, environment value or command exits
//! 2 with a one-line message before any simulation runs (so no
//! `BENCH_repro.json` is written). The cases run one after another in a private directory.
//! A valid multi-config probe prints and records every configuration, and
//! every simulating command records the cycles it simulates.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every variable `repro` reads, cleared so the host's own settings cannot
/// leak into a case.
const VARS: [&str; 6] = [
    "TINT_JOBS",
    "TINT_CELL_RETRIES",
    "TINT_CELL_TIMEOUT_S",
    "TINT_HOST_FAULT",
    "TINT_JOURNAL",
    "TINT_SIM_CACHE",
];

/// A fresh private directory for the test named `name`.
fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tint-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Run `repro` with `args` and one optional environment variable; assert
/// a one-line usage error, exit code 2, and nothing run.
fn assert_usage_error(dir: &Path, args: &[&str], var: Option<(&str, &str)>) {
    // A small figure run follows the bad input, so a case that slipped
    // past startup would simulate and write BENCH_repro.json.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.current_dir(dir)
        .args(args)
        .args(["--reps", "1", "--scale", "0.1", "fig10"]);
    for v in VARS {
        cmd.env_remove(v);
    }
    cmd.env("TINT_JOURNAL", "0").env("TINT_SIM_CACHE", "0");
    if let Some((k, v)) = var {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run repro");
    let case = format!("{args:?} {var:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{case}: stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "{case}: {stderr:?}");
    assert!(stderr.starts_with("repro: "), "{case}: {stderr:?}");
    assert!(out.stdout.is_empty(), "{case}: printed figure output");
    assert!(
        !dir.join("BENCH_repro.json").exists(),
        "{case}: wrote BENCH_repro.json"
    );
}

#[test]
fn usage_errors_exit_2_before_any_simulation() {
    let dir = scratch("usage");
    assert_usage_error(&dir, &["--profile"], None);
    assert_usage_error(&dir, &["--engine", "x"], None);
    assert_usage_error(&dir, &["--jobs", "0"], None);
    assert_usage_error(&dir, &[], Some(("TINT_JOBS", "0")));
    assert_usage_error(&dir, &[], Some(("TINT_CELL_RETRIES", "x")));
    assert_usage_error(&dir, &[], Some(("TINT_CELL_TIMEOUT_S", "-1")));
    assert_usage_error(&dir, &[], Some(("TINT_SIM_CACHE", "off")));
    assert_usage_error(&dir, &["fig99"], None);
    assert_usage_error(&dir, &["probe:nosuch"], None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `probe:<bench>` runs at every `--configs` entry: one table and one
/// `probe:<bench>@<config>` record per configuration.
#[test]
fn probe_runs_every_config() {
    let dir = scratch("probe");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.current_dir(&dir)
        .args(["--reps", "1", "--scale", "0.1", "--configs", "16t4n,4t4n"])
        .arg("probe:lbm");
    for v in VARS {
        cmd.env_remove(v);
    }
    cmd.env("TINT_JOURNAL", "0").env("TINT_SIM_CACHE", "0");
    let out = cmd.output().expect("run repro");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("=== Probe: lbm at "))
        .collect();
    assert_eq!(
        headers,
        [
            "=== Probe: lbm at 16_threads_4_nodes ===",
            "=== Probe: lbm at 4_threads_4_nodes ===",
        ]
    );
    assert_eq!(stdout.matches("\nMEM+LLC ").count(), 2, "{stdout}");
    let bench = std::fs::read_to_string(dir.join("BENCH_repro.json")).unwrap();
    for name in [
        "probe:lbm@16_threads_4_nodes",
        "probe:lbm@4_threads_4_nodes",
    ] {
        assert!(bench.contains(&format!("\"name\": \"{name}\"")), "{bench}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every command that simulates, with the cycles a cold
/// `--scale 0.05 --reps 1` run of it simulates. Each is a list of cells, so
/// each record sums its cells' simulated cycles; the figures are
/// deterministic, so any drift is a change in what a command simulates.
/// (`fig12` and `fig14` reprint `fig11`'s and `fig13`'s cells.)
const PINNED_SIM_CYCLES: [(&str, u64); 14] = [
    ("fig10", 693_587),
    ("fig11", 43_671_271),
    ("fig13", 4_221_455),
    ("latency", 47_126_251),
    ("bandwidth", 677_178),
    ("ablate-part", 5_137_233),
    ("ablate-firsttouch", 942_223),
    ("ablate-migrate", 461_210),
    ("ablate-dynamic", 6_860_228),
    ("ablate-pagepolicy", 778_330),
    ("ablate-colorlist", 6_177_518),
    ("ablate-pressure", 58_033_625),
    ("churn", 12_298_266),
    ("soak", 11_710_313),
];

/// A cold run of every simulating command records its pinned `sim_cycles`
/// in `BENCH_repro.json`. With the cell cache off, each command simulates
/// every one of its cells even after an earlier command simulated them.
#[test]
fn every_simulating_command_records_its_pinned_sim_cycles() {
    let dir = scratch("simcycles");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.current_dir(&dir)
        .args(["--scale", "0.05", "--reps", "1"])
        .args(PINNED_SIM_CYCLES.map(|(name, _)| name));
    for v in VARS {
        cmd.env_remove(v);
    }
    cmd.env("TINT_JOURNAL", "0").env("TINT_SIM_CACHE", "0");
    let out = cmd.output().expect("run repro");
    assert!(out.status.success(), "{out:?}");
    let bench = std::fs::read_to_string(dir.join("BENCH_repro.json")).unwrap();
    for (name, pinned) in PINNED_SIM_CYCLES {
        let record = bench
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .unwrap_or_else(|| panic!("no {name} record in {bench}"));
        let cycles: u64 = record
            .split("\"sim_cycles\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no sim_cycles in {record}"));
        assert_eq!(cycles, pinned, "{name} simulated other cycles: {record}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
