//! `repro` — regenerate every results figure of the TintMalloc paper.
//!
//! ```text
//! repro [--reps N] [--scale F] [--csv] [--jobs N]
//!       [--strict-deadline]
//!       [--configs 16t4n,8t4n,...] <command>...
//!
//! commands:
//!   fig10              synthetic benchmark by coloring policy
//!   fig11              normalized benchmark runtimes (6 benchmarks × configs)
//!   fig12              normalized total idle times
//!   fig13              per-thread runtimes at 16_threads_4_nodes
//!   fig14              per-thread idle times at 16_threads_4_nodes
//!   latency            local/remote + bank + LLC latency microbenchmarks
//!   bandwidth          bank/controller parallelism microbenchmark
//!   ablate-part        full vs partial coloring
//!   ablate-firsttouch  legacy buddy vs NUMA buddy vs MEM coloring
//!   ablate-migrate     dynamic recoloring via page migration (extension)
//!   ablate-dynamic     static vs dynamic scheduling (extension)
//!   ablate-pagepolicy  open- vs closed-page DRAM controllers (extension)
//!   ablate-colorlist   colored-free-list population overhead
//!   ablate-pressure    exhaustion-policy degradation under color pressure (extension)
//!   churn              multi-tenant task churn: throughput, off-color fraction,
//!                      pool-population skew vs task count and uptime (extension)
//!   soak               sustained over-committed pressure: watermarks, backoff,
//!                      OOM kills, incremental auditing, per-window trace (extension)
//!   probe:<bench>      per-scheme diagnostics for one benchmark cell, at
//!                      every --configs entry (recorded as probe:<bench>@<config>)
//!   gc-journal         compact the cell-farm journal into a fresh generation
//!   all                everything above (except probe and gc-journal)
//! ```
//!
//! Every cell runs the exact simulation: each access walks TLB, caches,
//! interconnect and DRAM (see `tint_spmd::engine`).
//!
//! Multiple commands run in sequence within one process, through one
//! `tint_bench::Harness`. Two layers keep the sequence from repeating
//! work: the `BenchMatrix` behind fig11/fig12 and the fig13/fig14 sweep
//! are each computed at most once per invocation, and underneath, every
//! simulation cell flows through the harness's content-addressed cell
//! cache (`tint_bench::simcache`), so any command whose cells were already
//! simulated — `fig13 fig14` after the fig11 matrix, `probe:<b>` after
//! `all` — serves them from memory. `TINT_SIM_CACHE=0` disables the cache
//! (`1`, the default, keeps it); figure output is byte-identical either
//! way.
//!
//! `--jobs N` sets the simulation worker-thread count for the flattened
//! cell executor. Precedence: the `--jobs` flag wins over the `TINT_JOBS`
//! env var, which wins over the host's available parallelism; both the
//! flag and the env var must be a positive decimal integer — values like
//! `0`, `0x4`, `-2`, or an empty string are rejected with an error, never
//! silently clamped. Output is byte-identical at any job count — cells are
//! merged in canonical order.
//!
//! ## Crash safety, resume, and the cell farm
//!
//! Every completed simulation cell is appended to a crash-safe on-disk
//! journal (`.tint-journal/` by default; `TINT_JOURNAL=<dir>` relocates
//! it, `TINT_JOURNAL=0` disables it) and replayed into the cell cache at
//! startup, so re-running the same command after a crash, OOM kill, or
//! Ctrl-C simulates only the missing cells. Figure output is byte-identical
//! with the journal on, off, or after a kill-and-resume.
//!
//! The journal is a multi-process *cell farm* (see `tint_bench::journal`):
//! each `repro` process appends to its own `O_EXCL`-created shard inside
//! the current store generation, so any number of concurrent processes can
//! share one journal directory with no locks on the append path; replay
//! merges every shard. `repro gc-journal` compacts the store — live
//! deduped cells are rewritten into a fresh generation and committed with
//! one atomic rename (guarded by an exclusive OS file lock), so a crash
//! mid-GC leaves the old or new generation fully intact. On persistent I/O
//! failure (disk full, I/O errors — or the seeded
//! `TINT_HOST_FAULT=io:<permille>:<seed>` harness) the journal
//! warns once, disarms itself, and the run completes journal-less with
//! byte-identical figures. A legacy v1 journal (`cells.v1.jnl`) is not
//! read: `repro` prints a one-line notice and leaves the file untouched.
//!
//! Workers are panic-isolated: a panicking cell is retried up to
//! `TINT_CELL_RETRIES` times (default 2), then recorded as a poisoned cell
//! that renders as `ERR` and makes the run exit 1 instead of aborting the
//! matrix. `TINT_CELL_TIMEOUT_S=<secs>` arms a watchdog that warns about
//! overdue cells; with `--strict-deadline` an overdue cell is poisoned and
//! a cell stuck past 20× the deadline aborts the (resumable) run with
//! exit code 124. SIGINT/SIGTERM drain workers at the next cell boundary,
//! flush the journal, and exit 130 with a resume notice.
//! `TINT_HOST_FAULT=panic:<permille>:<seed>` arms the deterministic
//! host-fault harness (worker panics on schedule) that exercises all of
//! the above in tests.
//!
//! After the run, a machine-readable `BENCH_repro.json` is written to the
//! working directory with per-command wall-clock milliseconds, simulated
//! cycles, and cell-cache hit/miss counts. The write is atomic (temp
//! file plus rename), and a truncated/corrupt existing file is quarantined to
//! `BENCH_repro.json.corrupt` and treated as empty rather than trusted.
//! An intact existing file is *merged into*, not clobbered: command
//! records are upserted by name, so `repro probe:lbm` after `repro all`
//! keeps the figure records (a probe records one `probe:<bench>@<config>`
//! per configuration). The `invocation` block describes only the
//! commands this run executed; the `total` block sums over every merged
//! record.
//!
//! The flags and all six `TINT_*` variables (`TINT_JOBS`,
//! `TINT_CELL_RETRIES`, `TINT_CELL_TIMEOUT_S`, `TINT_HOST_FAULT`,
//! `TINT_JOURNAL`, `TINT_SIM_CACHE`) are read once, at startup, into one
//! `tint_bench::RunConfig`; the library reads no environment. Before any
//! simulation, a value that does not parse (a zero `TINT_JOBS`, a
//! non-positive `TINT_CELL_TIMEOUT_S`, a `TINT_SIM_CACHE` other than `0`
//! or `1`), an unknown command, or a `probe:` of an unknown benchmark is a
//! usage error — one line on stderr and exit code 2 — never a warning that
//! is then ignored.
//!
//! Host-time performance is measured by the cold benchmark in
//! `coldbench/`, not by this binary: `wall_ms` in the JSON is a
//! bookkeeping figure that includes cell-cache and journal hits.

use std::path::PathBuf;
use std::time::Duration;
use tint_bench::benchjson::{write_bench_json, CmdRecord, InvocationMeta};
use tint_bench::figures::{
    ablate_colorlist, ablate_dynamic, ablate_firsttouch, ablate_migrate, ablate_pagepolicy,
    ablate_part, ablate_pressure, bandwidth, churn, fig10, fig13_14, latency, probe, run_matrix,
    soak, BenchMatrix, FigOpts,
};
use tint_bench::hostfault::HostFaultPlan;
use tint_bench::journal;
use tint_bench::runner::{install_cancel_handlers, parse_jobs};
use tint_bench::table::Table;
use tint_bench::{Harness, RunConfig};
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, PinConfig};

/// Every command besides `probe:<bench>`, space-separated.
const COMMANDS: &str = "fig10 fig11 fig12 fig13 fig14 latency bandwidth ablate-part \
    ablate-firsttouch ablate-migrate ablate-dynamic ablate-pagepolicy ablate-colorlist \
    ablate-pressure churn soak gc-journal all";

/// Exit with a one-line usage/config error (exit code 2: bad invocation).
fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn parse_config(s: &str) -> Option<PinConfig> {
    match s {
        "16t4n" => Some(PinConfig::T16N4),
        "8t4n" => Some(PinConfig::T8N4),
        "8t2n" => Some(PinConfig::T8N2),
        "4t4n" => Some(PinConfig::T4N4),
        "4t1n" => Some(PinConfig::T4N1),
        _ => None,
    }
}

/// Per-invocation state shared across commands: the fig11/fig12 matrix is
/// expensive (6 benchmarks × configs × schemes × reps), so one invocation
/// computes it at most once. Each repetition boots a fresh machine, so the
/// cached result is identical to what a standalone `repro fig12` prints.
struct Ctx {
    h: Harness,
    opts: FigOpts,
    configs: Vec<PinConfig>,
    matrix: Option<BenchMatrix>,
    /// The fig13/fig14 `(summary, lbm detail)` tables — one sweep serves
    /// both commands, so `repro fig13 fig14` computes it once.
    fig13_14: Option<(Table, Table)>,
    /// The pressure-ablation table, kept for `BENCH_repro.json` (the sweep
    /// is the one result downstream tooling consumes cell-by-cell).
    pressure: Option<Table>,
    /// The churn-figure table, likewise recorded in `BENCH_repro.json`.
    churn: Option<Table>,
    /// The soak-figure table (per-window pressure trace), likewise recorded.
    soak: Option<Table>,
    /// Set when `gc-journal` failed (lock held, io fault before commit);
    /// the store is unchanged and the run exits 1.
    gc_failed: bool,
}

impl Ctx {
    fn matrix(&mut self) -> &BenchMatrix {
        if self.matrix.is_none() {
            self.matrix = Some(run_matrix(&self.h, &self.opts, &self.configs));
        }
        self.matrix.as_ref().unwrap()
    }

    fn fig13_14(&mut self) -> &(Table, Table) {
        if self.fig13_14.is_none() {
            self.fig13_14 = Some(fig13_14(&self.h, &self.opts));
        }
        self.fig13_14.as_ref().unwrap()
    }
}

fn header(s: &str) {
    println!("\n=== {s} ===");
}

/// Probe `bench` at one pinning configuration.
fn run_probe(ctx: &Ctx, bench: &str, pin: PinConfig) {
    header(&format!("Probe: {bench} at {pin}"));
    let t = probe(&ctx.h, &ctx.opts, bench, pin);
    print!("{}", ctx.opts.render(&t.expect("validated at startup")));
}

/// Run one command by name, printing exactly what a single-command
/// invocation prints. (`probe:<bench>` runs once per configuration, see
/// `main`.)
fn run_cmd(ctx: &mut Ctx, cmd: &str) {
    let all = cmd == "all";
    if cmd == "gc-journal" {
        header("Journal GC: compact the cell farm into a fresh generation");
        match ctx.h.journal().gc() {
            Ok(g) => {
                let mut t = Table::new(vec!["metric", "value"]);
                let mut row = |name: &str, v: String| t.row(vec![name.to_string(), v]);
                row("live cells", g.live_cells.to_string());
                row("shards merged", g.shards_merged.to_string());
                row("shards quarantined", g.quarantined.to_string());
                row("bytes before", g.bytes_before.to_string());
                row("bytes after", g.bytes_after.to_string());
                row(
                    "compaction ratio",
                    if g.bytes_after > 0 {
                        format!("{:.2}x", g.bytes_before as f64 / g.bytes_after as f64)
                    } else {
                        "-".to_string()
                    },
                );
                row("committed generation", g.generation.to_string());
                print!("{}", ctx.opts.render(&t));
            }
            Err(e) => {
                eprintln!("repro: gc-journal: {e}");
                ctx.gc_failed = true;
            }
        }
        return;
    }
    if all || cmd == "fig10" {
        header("Figure 10: synthetic benchmark by coloring policy (16 threads, 4 nodes)");
        print!("{}", ctx.opts.render(&fig10(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "fig11" || cmd == "fig12" {
        let opts = ctx.opts;
        let m = ctx.matrix();
        if all || cmd == "fig11" {
            header("Figure 11: normalized benchmark runtime (lower is better)");
            for (t, pin) in m.fig11().iter().zip(&m.configs) {
                println!("-- {pin} --");
                print!("{}", opts.render(t));
            }
        }
        if all || cmd == "fig12" {
            header("Figure 12: normalized total idle time (lower is better)");
            for (t, pin) in m.fig12().iter().zip(&m.configs) {
                println!("-- {pin} --");
                print!("{}", opts.render(t));
            }
        }
    }
    if all || cmd == "fig13" || cmd == "fig14" {
        header("Figures 13/14: per-thread runtime and idle, 16_threads_4_nodes");
        let opts = ctx.opts;
        let (summary, lbm) = ctx.fig13_14();
        print!("{}", opts.render(summary));
        println!("-- lbm per-thread detail --");
        print!("{}", opts.render(lbm));
    }
    if all || cmd == "latency" {
        header("§V latency claims: controller locality, bank sharing, LLC interference");
        print!("{}", ctx.opts.render(&latency(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "bandwidth" {
        header("§II.B: bank/controller parallelism (achieved bandwidth)");
        print!("{}", ctx.opts.render(&bandwidth(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "ablate-part" {
        header("Ablation: full vs partial coloring (normalized runtime vs buddy)");
        print!("{}", ctx.opts.render(&ablate_part(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "ablate-firsttouch" {
        header("Ablation: legacy global buddy vs NUMA buddy vs MEM coloring (synthetic)");
        print!("{}", ctx.opts.render(&ablate_firsttouch(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "ablate-migrate" {
        header("Ablation (extension): dynamic recoloring via page migration");
        print!("{}", ctx.opts.render(&ablate_migrate(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "ablate-dynamic" {
        header("Ablation (extension): static vs dynamic scheduling, buddy vs MEM+LLC");
        print!("{}", ctx.opts.render(&ablate_dynamic(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "ablate-pagepolicy" {
        header("Ablation (extension): DRAM page policy (open vs closed) x coloring");
        print!("{}", ctx.opts.render(&ablate_pagepolicy(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "ablate-colorlist" {
        header("Ablation: colored free-list population overhead (§III.C)");
        print!("{}", ctx.opts.render(&ablate_colorlist(&ctx.h, &ctx.opts)));
    }
    if all || cmd == "ablate-pressure" {
        header("Ablation (extension): exhaustion policies under color pressure");
        let t = ablate_pressure(&ctx.h, &ctx.opts);
        print!("{}", ctx.opts.render(&t));
        ctx.pressure = Some(t);
    }
    if all || cmd == "churn" {
        header("Extension: multi-tenant churn (round-robin scheduling, full task reclamation)");
        let t = churn(&ctx.h, &ctx.opts);
        print!("{}", ctx.opts.render(&t));
        ctx.churn = Some(t);
    }
    if all || cmd == "soak" {
        header("Extension: sustained-pressure soak (watermarks, backoff, OOM kill, auditing)");
        let t = soak(&ctx.h, &ctx.opts);
        print!("{}", ctx.opts.render(&t));
        ctx.soak = Some(t);
    }
}

/// Resolve the run's configuration from the `--jobs`/`--strict-deadline`
/// flags and the `TINT_*` variables; any bad value is a usage error.
// The one place the binary reads the environment (clippy.toml bars it
// elsewhere).
#[allow(clippy::disallowed_methods)]
fn run_config(jobs_flag: Option<usize>, strict_deadline: bool) -> RunConfig {
    let env = |name: &str| std::env::var(name).ok();
    // The `--jobs` flag wins over TINT_JOBS, but a bad TINT_JOBS is an
    // error either way.
    let env_jobs = env("TINT_JOBS")
        .map(|v| parse_jobs(&v).unwrap_or_else(|e| fail(&format!("invalid TINT_JOBS: {e}"))));
    let cell_retries = env("TINT_CELL_RETRIES").map_or(RunConfig::default().cell_retries, |v| {
        v.trim()
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid TINT_CELL_RETRIES={v:?}: want a u32")))
    });
    let cell_timeout = env("TINT_CELL_TIMEOUT_S").map(|v| match v.trim().parse::<f64>() {
        Ok(s) if s > 0.0 && s.is_finite() => Duration::from_millis((s * 1e3).ceil() as u64),
        _ => fail(&format!(
            "invalid TINT_CELL_TIMEOUT_S={v:?}: want seconds > 0"
        )),
    });
    let host_fault = env("TINT_HOST_FAULT").map(|v| {
        HostFaultPlan::parse(&v).unwrap_or_else(|e| fail(&format!("invalid TINT_HOST_FAULT: {e}")))
    });
    let cache = match env("TINT_SIM_CACHE").as_deref() {
        None | Some("1") => true,
        Some("0") => false,
        Some(v) => fail(&format!("invalid TINT_SIM_CACHE={v:?}: want 0 or 1")),
    };
    // TINT_JOURNAL=0 (or empty) disables the journal, TINT_JOURNAL=<dir>
    // relocates it, unset means .tint-journal/ in the working directory.
    let journal = match std::env::var_os("TINT_JOURNAL") {
        Some(v) if v.is_empty() || v == "0" => None,
        Some(v) => Some(PathBuf::from(v)),
        None => Some(PathBuf::from(".tint-journal")),
    };
    RunConfig {
        jobs: jobs_flag.or(env_jobs),
        cell_retries,
        cell_timeout,
        strict_deadline,
        cache,
        journal,
        host_fault,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = FigOpts::default();
    let mut configs: Vec<PinConfig> = PinConfig::ALL.to_vec();
    let mut cmds: Vec<String> = Vec::new();
    let mut jobs_flag = None;
    let mut strict_deadline = false;
    let mut it = args.iter();
    // A missing or malformed flag argument is a usage error with a one-line
    // message and exit code 2 — never a panic.
    fn arg<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> &'a String {
        it.next()
            .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                opts.reps = arg(&mut it, "--reps")
                    .parse()
                    .unwrap_or_else(|_| fail("--reps wants a positive integer"));
            }
            "--scale" => {
                opts.scale = arg(&mut it, "--scale")
                    .parse()
                    .unwrap_or_else(|_| fail("--scale wants a number"));
            }
            "--csv" => opts.csv = true,
            "--strict-deadline" => strict_deadline = true,
            "--jobs" => match parse_jobs(arg(&mut it, "--jobs")) {
                Ok(n) => jobs_flag = Some(n),
                Err(e) => fail(&format!("invalid --jobs: {e}")),
            },
            "--configs" => {
                configs = arg(&mut it, "--configs")
                    .split(',')
                    .map(|s| {
                        parse_config(s).unwrap_or_else(|| fail(&format!("unknown config {s:?}")))
                    })
                    .collect();
            }
            c if !c.starts_with('-') => cmds.push(c.to_string()),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }
    if opts.reps < 1 {
        fail("--reps must be at least 1");
    }
    if opts.scale.is_nan() || opts.scale < 0.0 {
        fail("--scale must be non-negative");
    }
    let benches = all_benchmarks(Scale::default());
    for cmd in &cmds {
        match cmd.strip_prefix("probe:") {
            Some(b) if !benches.iter().any(|w| w.name() == b) => {
                fail(&format!("unknown benchmark {b:?} in {cmd:?}"))
            }
            None if !COMMANDS.split_whitespace().any(|c| c == cmd) => {
                fail(&format!("unknown command {cmd:?}"))
            }
            _ => {}
        }
    }
    // The environment is read here, once: a typo'd variable must stop the
    // run before 20 minutes of simulation.
    let config = run_config(jobs_flag, strict_deadline);

    // Durability and graceful shutdown: building the harness arms the
    // journal and replays prior completed cells into the cell cache;
    // SIGINT/SIGTERM become a cooperative drain + journal flush + resume
    // notice.
    install_cancel_handlers();
    if let Some(legacy) = config.journal.as_deref().and_then(journal::legacy_file) {
        eprintln!(
            "journal: legacy file {} ignored (v1 journals are no longer read)",
            legacy.display()
        );
    }
    let h = Harness::new(config);
    let replay = h.journal().replay_stats();
    if replay.replayed > 0 || replay.quarantined > 0 || replay.retired_skipped > 0 {
        eprintln!(
            "journal: replayed {} completed cells from {} shard(s){}{}{}",
            replay.replayed,
            replay.shards,
            if replay.torn_dropped > 0 {
                " (dropped a torn final write)"
            } else {
                ""
            },
            if replay.quarantined > 0 {
                format!(" ({} corrupt journal(s) quarantined)", replay.quarantined)
            } else {
                String::new()
            },
            if replay.retired_skipped > 0 {
                format!(
                    " ({} cell(s) of a retired engine mode skipped)",
                    replay.retired_skipped
                )
            } else {
                String::new()
            },
        );
    }

    let mut ctx = Ctx {
        h,
        opts,
        configs,
        matrix: None,
        fig13_14: None,
        pressure: None,
        churn: None,
        soak: None,
        gc_failed: false,
    };
    let mut records = Vec::with_capacity(cmds.len());
    for cmd in &cmds {
        // A probe runs once per configuration, recorded as
        // `probe:<bench>@<config>`; every other command runs once.
        let probe = cmd.strip_prefix("probe:");
        let runs: Vec<(String, Option<PinConfig>)> = match probe {
            Some(_) => ctx
                .configs
                .iter()
                .map(|&pin| (format!("{cmd}@{pin}"), Some(pin)))
                .collect(),
            None => vec![(cmd.clone(), None)],
        };
        for (name, pin) in runs {
            let before = ctx.h.stats();
            let start = std::time::Instant::now();
            match (probe, pin) {
                (Some(bench), Some(pin)) => run_probe(&ctx, bench, pin),
                _ => run_cmd(&mut ctx, cmd),
            }
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let after = ctx.h.stats();
            records.push(CmdRecord {
                name,
                wall_ms,
                sim_cycles: after.sim_cycles - before.sim_cycles,
                reps: ctx.opts.reps,
                scale: ctx.opts.scale,
                cache_hits: after.cache_hits - before.cache_hits,
                cache_misses: after.cache_misses - before.cache_misses,
            });
        }
    }
    let journal = ctx.h.journal();
    journal.flush();
    let stats = ctx.h.stats();
    let meta = InvocationMeta {
        jobs: ctx.h.jobs(),
        cache_enabled: ctx.h.cache().is_some(),
        journal_enabled: journal.dir().is_some(),
        journal_replayed: replay.replayed,
        journal_io_disarmed: journal.io_disarmed(),
        stats,
    };
    let config_names: Vec<String> = ctx.configs.iter().map(|c| c.to_string()).collect();
    if let Err(e) = write_bench_json(
        "BENCH_repro.json",
        &records,
        ctx.opts.reps,
        ctx.opts.scale,
        &config_names,
        ctx.pressure.as_ref(),
        ctx.churn.as_ref(),
        ctx.soak.as_ref(),
        &meta,
    ) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if ctx.gc_failed {
        std::process::exit(1);
    }
    if stats.poisoned > 0 {
        eprintln!(
            "error: {} cell(s) failed after {} retr{} and render as ERR above \
             ({} host fault(s) injected); rerun to retry them",
            stats.poisoned,
            stats.retries,
            if stats.retries == 1 { "y" } else { "ies" },
            stats.faults_injected,
        );
        std::process::exit(1);
    }
}
