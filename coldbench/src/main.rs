//! Cold, library-level benchmark of the TintMalloc simulator.
//!
//! ```text
//! tint-coldbench --workload <paper-matrix|tenant-churn|conflict-dynamic>
//!                --seed <n> --seconds <s> --trace <0|1> [--emit-goldens]
//! ```
//!
//! With `--trace 0` the workload's units run in whole passes that fit in
//! `--seconds` (at least one), and the end-to-end metrics are per-unit
//! medians over the passes of host times scaled to a reference host
//! speed (see `calib`). With `--trace 1` one untraced and one traced pass
//! run, followed by isolated drives of each layer, and the per-layer
//! metrics are printed. Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod calib;
mod gate;
mod layers;
mod trace;
mod units;

use calib::Calibration;
use gate::{check_digest, Goldens, PROBE_LBM_CYCLES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;
use units::{median, Counts, Unit, UnitRun, WorkloadId, BENCHES};

/// Checked command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_goldens: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut emit_goldens = false;
    while let Some(flag) = it.next() {
        if flag == "--emit-goldens" {
            emit_goldens = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadId::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {val} out of range"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        emit_goldens,
    })
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs passes over one workload's units and keeps the gate's books.
struct Runner {
    workload: WorkloadId,
    seed: u64,
    units: Vec<Unit>,
    benches: Vec<Box<dyn tint_workloads::Workload>>,
    goldens: Goldens,
    /// Reference-loop samples, one before every unit.
    calib: Calibration,
    /// Each pass's scale factor ([`Calibration::take_factor`]).
    factors: Vec<f64>,
    /// Each unit's digest in the first pass that produced one.
    first: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Runner {
    fn new(workload: WorkloadId, seed: u64, goldens: Goldens) -> Self {
        let units = workload.units();
        Self {
            workload,
            seed,
            first: vec![None; units.len()],
            units,
            benches: units::paper_benchmarks(),
            goldens,
            calib: Calibration::default(),
            factors: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Run every unit once, host times scaled by the pass's calibration
    /// factor. A unit that errs, panics or fails the gate counts as a
    /// failed operation and yields `None`.
    fn pass(&mut self, trace: &mut Trace) -> Vec<Option<UnitRun>> {
        let mut runs = Vec::with_capacity(self.units.len());
        for (i, unit) in self.units.iter().enumerate() {
            self.calib.sample();
            self.attempted += 1;
            let r = catch_unwind(AssertUnwindSafe(|| {
                unit.run(self.seed, self.workload.setup_reps(), &self.benches, trace)
            }));
            let judged = match r {
                Ok(Ok(run)) => {
                    let verdict = check_digest(
                        &self.goldens,
                        self.workload.name(),
                        self.seed,
                        &unit.name,
                        run.digest,
                        self.first[i],
                    );
                    self.first[i].get_or_insert(run.digest);
                    verdict.map(|()| run)
                }
                Ok(Err(e)) => Err(e),
                Err(_) => Err("panicked".to_string()),
            };
            match judged {
                Ok(run) => runs.push(Some(run)),
                Err(e) => {
                    eprintln!(
                        "FAILED {} seed {}: {}: {e}",
                        self.workload.name(),
                        self.seed,
                        unit.name
                    );
                    self.failed += 1;
                    runs.push(None);
                }
            }
        }
        let factor = self.calib.take_factor();
        self.factors.push(factor);
        for r in runs.iter_mut().flatten() {
            r.scale(factor);
        }
        if self.workload == WorkloadId::PaperMatrix && self.seed == 1 {
            self.check_probe(&mut runs);
        }
        runs
    }

    /// At seed 1 the lbm cells must reproduce `probe:lbm` exactly.
    fn check_probe(&mut self, runs: &mut [Option<UnitRun>]) {
        let lbm: Vec<usize> = (0..self.units.len())
            .filter(|&i| self.units[i].tag == "lbm")
            .collect();
        let cycles: Option<u64> = lbm
            .iter()
            .map(|&i| runs[i].as_ref().map(|r| r.counts.sim_cycles))
            .sum();
        if let Some(c) = cycles {
            if c != PROBE_LBM_CYCLES {
                eprintln!("FAILED paper-matrix seed 1: lbm cells sum to {c} cycles, not {PROBE_LBM_CYCLES}");
                self.failed += lbm.len() as u64;
                for &i in &lbm {
                    runs[i] = None;
                }
            }
        }
    }
}

/// Sum over units of the per-unit median of `f` across passes.
fn per_unit_median(passes: &[Vec<Option<UnitRun>>], f: impl Fn(&UnitRun) -> f64) -> f64 {
    let units = passes.first().map_or(0, Vec::len);
    (0..units)
        .filter_map(|i| {
            let mut v: Vec<f64> = passes
                .iter()
                .filter_map(|p| p[i].as_ref())
                .map(&f)
                .collect();
            (!v.is_empty()).then(|| median(&mut v))
        })
        .sum()
}

/// Exact counts summed over units, each unit taken from the first pass
/// where it passed the gate (counts repeat exactly across passes).
fn unit_counts(passes: &[Vec<Option<UnitRun>>]) -> Counts {
    let units = passes.first().map_or(0, Vec::len);
    let mut c = Counts::default();
    for i in 0..units {
        if let Some(r) = passes.iter().find_map(|p| p[i].as_ref()) {
            c.add(&r.counts);
        }
    }
    c
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(passes: &[Vec<Option<UnitRun>>]) -> Vec<Metric> {
    let simulate_s = per_unit_median(passes, |r| r.simulate_s);
    let counts = unit_counts(passes);
    vec![
        metric("wall_s", per_unit_median(passes, |r| r.wall_s), "s"),
        metric("setup_s", per_unit_median(passes, |r| r.setup_s), "s"),
        metric(
            "sim_accesses_per_s",
            counts.accesses as f64 / simulate_s,
            "1/s",
        ),
        metric("tenants_per_s", counts.tenants as f64 / simulate_s, "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Span totals of the traced pass.
fn span_metrics(t: &Trace) -> Vec<Metric> {
    let any = |_: &str| true;
    let mut m = vec![
        metric("core.boot_s", t.total("core.boot", any), "s"),
        metric("core.color_setup_s", t.total("core.color_setup", any), "s"),
        metric("workloads.build_s", t.total("workloads.build", any), "s"),
        metric("spmd.program_run_s", t.total("spmd.program_run", any), "s"),
    ];
    for b in BENCHES {
        m.push(metric(
            format!("workloads.{b}.run_s"),
            t.total("spmd.program_run", |tag| tag == b),
            "s",
        ));
    }
    m.push(metric(
        "spmd.round_robin_run_s",
        t.total("spmd.round_robin_run", any),
        "s",
    ));
    m.push(metric(
        "spmd.round_robin_churn_run_s",
        t.total("spmd.round_robin_run", |tag| tag == "churn"),
        "s",
    ));
    m.push(metric(
        "spmd.round_robin_soak_run_s",
        t.total("spmd.round_robin_run", |tag| tag == "soak"),
        "s",
    ));
    m
}

fn count_metrics(c: &Counts) -> Vec<Metric> {
    let row_total = c.row_hits + c.row_misses + c.row_conflicts;
    vec![
        metric("spmd.sim_cycles", c.sim_cycles as f64, "cycles"),
        metric("mem.accesses", c.accesses as f64, "count"),
        metric("mem.dram_remote", c.dram_remote as f64, "count"),
        metric("cache.l1_hits", c.l1_hits as f64, "count"),
        metric("cache.l2_hits", c.l2_hits as f64, "count"),
        metric("cache.l3_hits", c.l3_hits as f64, "count"),
        metric("cache.l3_misses", c.l3_misses as f64, "count"),
        metric(
            "cache.l3_evicted_by_others",
            c.l3_evicted_by_others as f64,
            "count",
        ),
        metric("dram.row_hits", c.row_hits as f64, "count"),
        metric("dram.row_conflicts", c.row_conflicts as f64, "count"),
        metric(
            "dram.row_hit_rate",
            if row_total == 0 {
                0.0
            } else {
                c.row_hits as f64 / row_total as f64
            },
            "frac",
        ),
        metric("kernel.page_faults", c.page_faults as f64, "count"),
        metric(
            "kernel.create_color_list_calls",
            c.create_color_list_calls as f64,
            "count",
        ),
        metric("kernel.pages_moved", c.pages_moved as f64, "count"),
        metric(
            "kernel.off_color_allocs",
            c.off_color_allocs as f64,
            "count",
        ),
        metric(
            "kernel.exhaustion_fallbacks",
            c.exhaustion_fallbacks as f64,
            "count",
        ),
        metric(
            "spmd.tenants_completed",
            c.tenants_completed as f64,
            "count",
        ),
        metric("spmd.tenants_failed", c.tenants_failed as f64, "count"),
    ]
}

/// Σ(layer drive ns × matching exact count) as a share of the
/// simulate-phase host seconds. Compute ops and TLB misses have no public
/// count, so their cost stays in the gap.
fn explained_frac(c: &Counts, l: &layers::Layers, simulate_s: f64) -> f64 {
    let f = |n: u64| n as f64;
    let buddy_faults = c.page_faults.saturating_sub(c.colored_allocs);
    let colored_faults = c.colored_allocs.saturating_sub(c.create_color_list_calls);
    let ns = f(c.accesses) * (l.access_tlb_hit_ns - l.l1_hit_ns).max(0.0)
        + f(c.l1_hits) * l.l1_hit_ns
        + f(c.l2_hits) * l.l2_hit_ns
        + f(c.l3_hits) * l.l3_hit_ns
        + f(c.dram_local) * l.local_miss_ns
        + f(c.dram_remote) * l.remote_miss_ns
        + f(buddy_faults) * l.fault_buddy_ns
        + f(colored_faults) * l.fault_colored_ns
        + f(c.create_color_list_calls) * l.refill_ns
        + f(c.tenants_completed + c.tenants_failed) * (l.task_create_destroy_ns + l.mmap_munmap_ns);
    ns * 1e-9 / simulate_s
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tint-coldbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runner = Runner::new(args.workload, args.seed, Goldens::recorded());

    if args.emit_goldens {
        let pass = runner.pass(&mut Trace::new(false));
        for (u, r) in runner.units.iter().zip(&pass) {
            match r {
                Some(r) => println!(
                    "{}",
                    Goldens::line(args.workload.name(), args.seed, &u.name, r.digest)
                ),
                None => return ExitCode::FAILURE,
            }
        }
        return ExitCode::SUCCESS;
    }

    let metrics = if args.trace {
        let untraced = runner.pass(&mut Trace::new(false));
        let mut t = Trace::new(true);
        let traced = runner.pass(&mut t);
        let sum =
            |p: &[Option<UnitRun>], f: fn(&UnitRun) -> f64| p.iter().flatten().map(f).sum::<f64>();
        let overhead = sum(&traced, |r| r.wall_s) / sum(&untraced, |r| r.wall_s) - 1.0;
        let counts = unit_counts(std::slice::from_ref(&traced));
        // The layer drives count as one more operation; a panic in one
        // fails it without ending the run.
        runner.attempted += 1;
        let drives = catch_unwind(layers::Layers::measure).unwrap_or_else(|_| {
            eprintln!(
                "FAILED {} seed {}: layer drives panicked",
                args.workload.name(),
                args.seed
            );
            runner.failed += 1;
            layers::Layers::default()
        });
        let mut m = span_metrics(&t);
        m.extend(
            drives
                .metrics()
                .into_iter()
                .map(|(n, v, u)| metric(n, v, u)),
        );
        m.extend(count_metrics(&counts));
        m.push(metric(
            "reconcile.explained_frac",
            // Raw host seconds, like the drives: the spans are unscaled.
            explained_frac(
                &counts,
                &drives,
                t.total("spmd.program_run", |_| true) + t.total("spmd.round_robin_run", |_| true),
            ),
            "frac",
        ));
        m.push(metric("trace.overhead_frac", overhead, "frac"));
        m
    } else {
        // Whole passes until the next one (as long as the last) would end
        // past the deadline; always at least one.
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            let t = Instant::now();
            passes.push(runner.pass(&mut Trace::new(false)));
            let last = t.elapsed().as_secs_f64();
            if start.elapsed().as_secs_f64() + last > args.seconds {
                break;
            }
        }
        eprintln!(
            "{} seed {}: {} passes, median scale factor {:.4}",
            args.workload.name(),
            args.seed,
            passes.len(),
            median(&mut runner.factors)
        );
        end_to_end(&passes)
    };
    println!(
        "{}",
        render(
            runner.failed == 0,
            runner.attempted,
            runner.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload tenant-churn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, WorkloadId::TenantChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload paper-matrix --trace 2").is_err());
        assert!(args("--workload paper-matrix --seconds 0").is_err());
        assert!(args("--workload paper-matrix --seed").is_err());
    }

    /// Metric names listed under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let end = json[start..].find(']').expect("list closes") + start;
        json[start..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    fn fake_run() -> UnitRun {
        UnitRun {
            setup_s: 0.5,
            simulate_s: 2.0,
            wall_s: 2.5,
            counts: Counts {
                accesses: 10,
                tenants: 1,
                ..Counts::default()
            },
            digest: 0,
        }
    }

    #[test]
    fn every_metric_prints_with_its_name_and_unit() {
        let e2e = end_to_end(&[vec![Some(fake_run())]]);
        let mut layer = span_metrics(&Trace::new(true));
        layer.extend(
            layers::Layers::default()
                .metrics()
                .into_iter()
                .map(|(n, v, u)| metric(n, v, u)),
        );
        layer.extend(count_metrics(&Counts::default()));
        layer.push(metric("reconcile.explained_frac", 0.5, "frac"));
        layer.push(metric("trace.overhead_frac", 0.01, "frac"));
        for (key, printed) in [("end_to_end", &e2e), ("per_layer", &layer)] {
            let line = render(true, 1, 0, printed);
            let names = declared(key);
            assert_eq!(
                names.len(),
                printed.len(),
                "{key}: declared and printed sets differ"
            );
            for n in names {
                let m = printed
                    .iter()
                    .find(|m| m.name == n)
                    .unwrap_or_else(|| panic!("{n} not printed"));
                assert!(line.contains(&format!("\"{n}\": {{\"value\": ")), "{n}");
                assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)), "{n}");
            }
        }
        let rates = render(true, 1, 0, &e2e);
        assert!(rates.contains("\"sim_accesses_per_s\": {\"value\": 5, \"unit\": \"1/s\"}"));
        assert!(rates
            .starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    }

    #[test]
    fn library_path_reproduces_the_probe() {
        let mut r = Runner::new(WorkloadId::PaperMatrix, 1, Goldens::default());
        r.units.retain(|u| u.tag == "lbm");
        let mut trace = Trace::new(false);
        let pass = r.pass(&mut trace);
        let cycles: u64 = pass
            .iter()
            .map(|u| u.as_ref().expect("lbm cell passes").counts.sim_cycles)
            .sum();
        assert_eq!(cycles, PROBE_LBM_CYCLES);
        assert_eq!((r.attempted, r.failed), (7, 0));
    }

    #[test]
    fn a_corrupted_golden_is_a_failed_op_not_a_crash() {
        let mut r = Runner::new(WorkloadId::ConflictDynamic, 1, Goldens::recorded());
        let victim = r.units[0].name.clone();
        let honest = r
            .goldens
            .get("conflict-dynamic", 1, &victim)
            .expect("seed 1 has goldens");
        let text = Goldens::line("conflict-dynamic", 1, &victim, honest ^ 1);
        r.goldens = Goldens::parse(&text).expect("well formed");
        let pass = r.pass(&mut Trace::new(false));
        assert_eq!((r.attempted, r.failed), (8, 1));
        assert!(pass[0].is_none() && pass[1..].iter().all(Option::is_some));
    }

    #[test]
    fn the_seed_changes_the_inputs_deterministically() {
        for w in [WorkloadId::ConflictDynamic, WorkloadId::TenantChurn] {
            let unit = &w.units()[0];
            let benches = units::paper_benchmarks();
            let digest = |seed| {
                unit.run(seed, 1, &benches, &mut Trace::new(false))
                    .expect("unit runs")
                    .digest
            };
            assert_eq!(digest(3), digest(3), "{}", unit.name);
            assert_ne!(digest(3), digest(4), "{}", unit.name);
        }
    }
}
