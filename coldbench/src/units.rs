//! The three workloads as lists of units, and how one unit runs.
//!
//! A unit is one cell (a fresh machine running one SPMD program) or one
//! tenant batch (a fresh machine running one round-robin job stream).
//! Every unit boots its own machine, so every cache, TLB, row buffer and
//! color list starts empty: nothing is reused between units, passes or
//! runs. The sequence is the one `tint_bench::runner::simulate_cell`
//! follows — boot + boot noise, team + color plan, build, run, public
//! stats — called directly through the library API.

use crate::trace::Trace;
use std::time::Instant;
use tint_hw::machine::MachineConfig;
use tint_spmd::{ChurnOutcome, Job, Op, Program, RoundRobin, SectionBody, SimThread};
use tint_workloads::patterns::Seq;
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, ChurnConfig, PinConfig, SoakConfig, Synthetic, Workload};
use tintmalloc::prelude::*;

/// The six paper benchmarks, in figure order (`all_benchmarks` order).
pub const BENCHES: [&str; 6] = [
    "bodytrack",
    "freqmine",
    "blackscholes",
    "lbm",
    "art",
    "equake",
];

/// The seven schemes of the Fig. 11/12 matrix.
const MATRIX_SCHEMES: [ColorScheme; 7] = [
    ColorScheme::Buddy,
    ColorScheme::Bpm,
    ColorScheme::MemLlc,
    ColorScheme::LlcOnly,
    ColorScheme::MemOnly,
    ColorScheme::MemLlcPart,
    ColorScheme::LlcMemPart,
];

/// The four Fig. 10 schemes.
const FIG10_SCHEMES: [ColorScheme; 4] = [
    ColorScheme::Buddy,
    ColorScheme::LlcOnly,
    ColorScheme::MemOnly,
    ColorScheme::MemLlc,
];

/// The `churn` figure's exhaustion-policy mixes.
const CHURN_MIXES: [(&str, &[ExhaustionPolicy]); 4] = [
    ("strict", &[ExhaustionPolicy::Strict]),
    ("nearest-color", &[ExhaustionPolicy::NearestColor]),
    ("local-uncolored", &[ExhaustionPolicy::LocalUncolored]),
    (
        "mixed",
        &[
            ExhaustionPolicy::Strict,
            ExhaustionPolicy::NearestColor,
            ExhaustionPolicy::LocalUncolored,
        ],
    ),
];

/// Arrivals per churn cell at 1× load (the figure at scale 1).
const CHURN_ARRIVALS: u64 = 1_000;
/// Arrivals of the guarded soak cell (the figure at scale 1).
const SOAK_ARRIVALS: u64 = 5_000;
/// Seed stride between benchmark seeds for the fixed-seed tenant streams.
const TENANT_SEED_STRIDE: u64 = 0x1_0000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    PaperMatrix,
    TenantChurn,
    ConflictDynamic,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::PaperMatrix,
        WorkloadId::TenantChurn,
        WorkloadId::ConflictDynamic,
    ];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PaperMatrix => "paper-matrix",
            WorkloadId::TenantChurn => "tenant-churn",
            WorkloadId::ConflictDynamic => "conflict-dynamic",
        }
    }

    /// Set-ups per unit per pass. A tiny-machine boot plus its job list
    /// takes well under a millisecond, so tenant-churn repeats it enough
    /// times for the per-unit median to be a steady figure.
    pub fn setup_reps(self) -> usize {
        match self {
            WorkloadId::TenantChurn => 48,
            _ => 1,
        }
    }

    /// Every unit of this workload, in run order.
    pub fn units(self) -> Vec<Unit> {
        let mut v = Vec::new();
        match self {
            WorkloadId::PaperMatrix => {
                for (bench, name) in BENCHES.iter().enumerate() {
                    for scheme in MATRIX_SCHEMES {
                        v.push(Unit {
                            name: format!("{name}/{}", scheme.label()),
                            tag: name,
                            kind: UnitKind::Cell { bench, scheme },
                        });
                    }
                }
            }
            WorkloadId::TenantChurn => {
                for (mix, (label, _)) in CHURN_MIXES.iter().enumerate() {
                    for level in [1u64, 2] {
                        v.push(Unit {
                            name: format!("churn/{label}/{level}x"),
                            tag: "churn",
                            kind: UnitKind::Churn { mix, level },
                        });
                    }
                }
                v.push(Unit {
                    name: "soak/guarded".to_string(),
                    tag: "soak",
                    kind: UnitKind::Soak,
                });
            }
            WorkloadId::ConflictDynamic => {
                for scheme in FIG10_SCHEMES {
                    v.push(Unit {
                        name: format!("synthetic/{}", scheme.label()),
                        tag: "synthetic",
                        kind: UnitKind::Synthetic { scheme },
                    });
                }
                for scheme in [ColorScheme::Buddy, ColorScheme::MemLlc] {
                    for dynamic in [false, true] {
                        let sched = if dynamic { "dynamic" } else { "static" };
                        v.push(Unit {
                            name: format!("chunk-queue/{sched}/{}", scheme.label()),
                            tag: "chunk-queue",
                            kind: UnitKind::ChunkQueue { scheme, dynamic },
                        });
                    }
                }
            }
        }
        v
    }
}

/// One unit of a workload.
#[derive(Debug, Clone)]
pub struct Unit {
    pub name: String,
    /// The benchmark or stream the unit belongs to (span tag).
    pub tag: &'static str,
    kind: UnitKind,
}

#[derive(Debug, Clone, Copy)]
enum UnitKind {
    Cell { bench: usize, scheme: ColorScheme },
    Synthetic { scheme: ColorScheme },
    ChunkQueue { scheme: ColorScheme, dynamic: bool },
    Churn { mix: usize, level: u64 },
    Soak,
}

/// Exact counts read from the public stats structs after a unit ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub sim_cycles: u64,
    pub accesses: u64,
    pub dram_local: u64,
    pub dram_remote: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l3_hits: u64,
    pub l3_misses: u64,
    pub l3_evicted_by_others: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    pub page_faults: u64,
    pub colored_allocs: u64,
    pub create_color_list_calls: u64,
    pub pages_moved: u64,
    pub off_color_allocs: u64,
    pub exhaustion_fallbacks: u64,
    pub tenants_completed: u64,
    pub tenants_failed: u64,
    /// Programs run to exit: tenants on the churn streams, one SPMD
    /// team per cell elsewhere.
    pub tenants: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.sim_cycles += o.sim_cycles;
        self.accesses += o.accesses;
        self.dram_local += o.dram_local;
        self.dram_remote += o.dram_remote;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.l3_hits += o.l3_hits;
        self.l3_misses += o.l3_misses;
        self.l3_evicted_by_others += o.l3_evicted_by_others;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.row_conflicts += o.row_conflicts;
        self.page_faults += o.page_faults;
        self.colored_allocs += o.colored_allocs;
        self.create_color_list_calls += o.create_color_list_calls;
        self.pages_moved += o.pages_moved;
        self.off_color_allocs += o.off_color_allocs;
        self.exhaustion_fallbacks += o.exhaustion_fallbacks;
        self.tenants_completed += o.tenants_completed;
        self.tenants_failed += o.tenants_failed;
        self.tenants += o.tenants;
    }
}

/// What one unit produced. The pass that ran it scales the host times
/// to the reference host speed ([`UnitRun::scale`]).
#[derive(Debug, Clone)]
pub struct UnitRun {
    /// Median host seconds of the unit's set-up (boot, colors, build).
    pub setup_s: f64,
    /// Host seconds inside `Program::run` / `RoundRobin::run`.
    pub simulate_s: f64,
    /// Set-up (the last repetition) + simulate + reading the stats.
    pub wall_s: f64,
    pub counts: Counts,
    /// FNV-1a digest of every simulated statistic the unit produced.
    pub digest: u64,
}

impl UnitRun {
    /// Scale every host time by `factor`.
    pub fn scale(&mut self, factor: f64) {
        self.setup_s *= factor;
        self.simulate_s *= factor;
        self.wall_s *= factor;
    }
}

/// A set-up machine, ready to run.
enum Ready {
    Team(System, Vec<SimThread>, Program<'static>),
    Tenants(System, Vec<Job<'static>>, TenantCheck),
}

/// What a tenant batch must satisfy after it ran.
struct TenantCheck {
    arrivals: u64,
    pool_baseline: (u64, u64),
    soak: bool,
}

/// The soak machine: the tiny preset shrunk to 2,048 frames, as the
/// `soak` figure runs it.
pub fn soak_machine() -> MachineConfig {
    let mut m = MachineConfig::tiny();
    m.name = "tiny-soak".to_string();
    m.mapping.row_bits = 7;
    m.validate();
    m
}

/// Round-robin settings of the churn figure.
fn churn_scheduler() -> RoundRobin {
    RoundRobin {
        quantum: 5_000,
        check_every: 4_096,
        ..RoundRobin::default()
    }
}

/// Round-robin settings of the guarded soak cell.
fn soak_scheduler() -> RoundRobin {
    RoundRobin {
        quantum: 5_000,
        audit_frames: 256,
        admission_control: true,
        oom: Some(tint_kernel::VictimPolicy::LargestFootprint),
        ..RoundRobin::default()
    }
}

/// Boot a fresh Opteron with the harness's seed-driven boot noise, spawn
/// the team and apply `scheme`'s color plan.
fn boot_team(
    scheme: ColorScheme,
    pin: PinConfig,
    seed: u64,
    tag: &'static str,
    trace: &mut Trace,
) -> Result<(System, Vec<SimThread>), String> {
    let mut sys = trace.span("core.boot", tag, || {
        let mut sys = System::boot(MachineConfig::opteron_6128());
        sys.boot_noise((seed.wrapping_mul(2654435761) % 2048) * 4);
        sys
    });
    let threads = trace.span("core.color_setup", tag, || {
        let cores = pin.cores();
        let threads = SimThread::spawn_all(&mut sys, &cores);
        let plan = scheme.plan(sys.machine(), &cores);
        for (t, p) in threads.iter().zip(&plan) {
            sys.apply_colors(t.tid, p)
                .map_err(|e| format!("color plan: {e:?}"))?;
        }
        Ok::<_, String>(threads)
    })?;
    Ok((sys, threads))
}

fn build_err(e: Errno) -> String {
    format!("build: {e:?}")
}

/// Run several bodies back to back as one section body.
struct Chain(Vec<Box<dyn SectionBody>>, usize);

impl SectionBody for Chain {
    fn next_op(&mut self) -> Option<Op> {
        while self.1 < self.0.len() {
            if let Some(op) = self.0[self.1].next_op() {
                return Some(op);
            }
            self.1 += 1;
        }
        None
    }

    fn fill(&mut self, buf: &mut [Op]) -> usize {
        let mut n = 0;
        while n < buf.len() && self.1 < self.0.len() {
            n += self.0[self.1].fill(&mut buf[n..]);
            if n < buf.len() {
                self.1 += 1;
            }
        }
        n
    }
}

/// The `ablate-dynamic` imbalanced chunk queue: 256 fine-grained chunks,
/// every fourth group of 16 holding double-size chunks, swept once with
/// stores on every other access.
fn chunk_queue(
    sys: &mut System,
    threads: &[SimThread],
    dynamic: bool,
) -> Result<Program<'static>, Errno> {
    let chunk_base = Scale(1.0).bytes(64 << 10);
    let line = sys.machine().mapping.line_size();
    let mut chunks = Vec::with_capacity(256);
    for i in 0..256u64 {
        let len = if (i / 16) % 4 == 0 {
            2 * chunk_base
        } else {
            chunk_base
        };
        let owner = threads[(i as usize) % threads.len()].tid;
        chunks.push((sys.malloc(owner, len)?, len));
    }
    let mk = |&(base, len): &(VirtAddr, u64)| {
        Box::new(Seq::new(base, len, line, 1, 4, 2)) as Box<dyn SectionBody>
    };
    Ok(if dynamic {
        Program::new().parallel_dynamic(chunks.iter().map(mk).collect())
    } else {
        let per = chunks.len() / threads.len();
        let bodies = (0..threads.len())
            .map(|i| {
                Box::new(Chain(
                    chunks[i * per..(i + 1) * per].iter().map(mk).collect(),
                    0,
                )) as Box<dyn SectionBody>
            })
            .collect();
        Program::new().parallel(bodies)
    })
}

impl Unit {
    /// Boot, color and build this unit's machine.
    fn setup(
        &self,
        seed: u64,
        benches: &[Box<dyn Workload>],
        trace: &mut Trace,
    ) -> Result<Ready, String> {
        let tag = self.tag;
        match self.kind {
            UnitKind::Cell { bench, scheme } => {
                let (mut sys, threads) = boot_team(scheme, PinConfig::T16N4, seed, tag, trace)?;
                let w = &benches[bench];
                let program = trace
                    .span("workloads.build", tag, || w.build(&mut sys, &threads, seed))
                    .map_err(build_err)?;
                Ok(Ready::Team(sys, threads, program))
            }
            UnitKind::Synthetic { scheme } => {
                let (mut sys, threads) = boot_team(scheme, PinConfig::T16N4, seed, tag, trace)?;
                let w = Synthetic::new(Scale(1.0));
                let program = trace
                    .span("workloads.build", tag, || w.build(&mut sys, &threads, seed))
                    .map_err(build_err)?;
                Ok(Ready::Team(sys, threads, program))
            }
            UnitKind::ChunkQueue { scheme, dynamic } => {
                let (mut sys, threads) = boot_team(scheme, PinConfig::T16N4, seed, tag, trace)?;
                let program = trace
                    .span("workloads.build", tag, || {
                        chunk_queue(&mut sys, &threads, dynamic)
                    })
                    .map_err(build_err)?;
                Ok(Ready::Team(sys, threads, program))
            }
            UnitKind::Churn { mix, level } => {
                let machine = MachineConfig::tiny();
                let sys = trace.span("core.boot", tag, || System::boot(machine.clone()));
                let pool_baseline = sys.kernel().pool_snapshot();
                let arrivals = CHURN_ARRIVALS * level;
                let jobs = trace.span("workloads.build", tag, || {
                    let stream = seed.wrapping_sub(1).wrapping_mul(TENANT_SEED_STRIDE);
                    let mut cfg =
                        ChurnConfig::new(0x9E37 + stream + mix as u64 * 16 + (level - 1), arrivals);
                    cfg.policies = CHURN_MIXES[mix].1.to_vec();
                    cfg.build_jobs(&machine)
                });
                Ok(Ready::Tenants(
                    sys,
                    jobs,
                    TenantCheck {
                        arrivals,
                        pool_baseline,
                        soak: false,
                    },
                ))
            }
            UnitKind::Soak => {
                let machine = soak_machine();
                let cfg = SoakConfig::new(
                    0x50AC + 1 + seed.wrapping_sub(1).wrapping_mul(TENANT_SEED_STRIDE),
                    SOAK_ARRIVALS,
                );
                let sys = trace.span("core.boot", tag, || {
                    let mut sys = System::boot(machine.clone());
                    sys.set_fault_plan(Some(cfg.fault_plan()));
                    sys
                });
                let pool_baseline = sys.kernel().pool_snapshot();
                let jobs = trace.span("workloads.build", tag, || cfg.build_jobs(&machine));
                Ok(Ready::Tenants(
                    sys,
                    jobs,
                    TenantCheck {
                        arrivals: SOAK_ARRIVALS,
                        pool_baseline,
                        soak: true,
                    },
                ))
            }
        }
    }

    /// Set the unit up `setup_reps` times (keeping the last machine), run
    /// it, read its stats, then check it outside the timed phases.
    pub fn run(
        &self,
        seed: u64,
        setup_reps: usize,
        benches: &[Box<dyn Workload>],
        trace: &mut Trace,
    ) -> Result<UnitRun, String> {
        let mut setup_times = Vec::with_capacity(setup_reps);
        let mut ready = None;
        let mut last_setup = 0.0;
        for _ in 0..setup_reps.max(1) {
            drop(ready.take());
            let t = Instant::now();
            ready = Some(self.setup(seed, benches, trace)?);
            last_setup = t.elapsed().as_secs_f64();
            setup_times.push(last_setup);
        }
        let ready = ready.expect("at least one set-up ran");

        let t = Instant::now();
        let (sys, run_stats, check) = match ready {
            Ready::Team(mut sys, mut threads, program) => {
                let m = trace
                    .span("spmd.program_run", self.tag, || {
                        program.run(&mut sys, &mut threads)
                    })
                    .map_err(|e| format!("run: {e:?}"))?;
                (sys, RunStats::Team(m), None)
            }
            Ready::Tenants(mut sys, jobs, check) => {
                let rr = if check.soak {
                    soak_scheduler()
                } else {
                    churn_scheduler()
                };
                let out = trace.span("spmd.round_robin_run", self.tag, || rr.run(&mut sys, jobs));
                (sys, RunStats::Tenants(out), Some(check))
            }
        };
        let simulate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (counts, digest) = read_stats(&sys, &run_stats);
        let wall_s = last_setup + simulate_s + t.elapsed().as_secs_f64();

        // The correctness gate's in-unit checks, outside every timed phase.
        sys.check_invariants();
        if let (Some(c), RunStats::Tenants(out)) = (check, &run_stats) {
            check_tenants(&sys, &c, out)?;
        }
        Ok(UnitRun {
            setup_s: median(&mut setup_times),
            simulate_s,
            wall_s,
            counts,
            digest,
        })
    }
}

enum RunStats {
    Team(tint_spmd::RunMetrics),
    Tenants(ChurnOutcome),
}

/// The churn and soak figures' survival contract.
fn check_tenants(sys: &System, c: &TenantCheck, out: &ChurnOutcome) -> Result<(), String> {
    let (buddy, colors) = sys.kernel().pool_snapshot();
    let leaked = (c.pool_baseline.0 + c.pool_baseline.1) as i64 - (buddy + colors) as i64;
    if leaked != 0 {
        return Err(format!("{leaked} frames leaked"));
    }
    if colors != c.pool_baseline.1 {
        return Err("color-list population skew".to_string());
    }
    if out.completed + out.failed() != c.arrivals {
        return Err(format!(
            "{} of {} arrivals exited",
            out.completed + out.failed(),
            c.arrivals
        ));
    }
    if c.soak {
        if out.budget_exceeded {
            return Err("soak hit the ops backstop".to_string());
        }
        if out.exit_errors != 0 {
            return Err("a tenant exited twice".to_string());
        }
        if sys.kernel().stats().oom_kills != out.killed_oom {
            return Err("OOM kill books disagree".to_string());
        }
    }
    Ok(())
}

/// Exact counts and the digest of every simulated statistic.
fn read_stats(sys: &System, run: &RunStats) -> (Counts, u64) {
    let k = sys.kernel().stats();
    let mem = sys.mem().stats();
    let hier = sys.mem().hierarchy().stats();
    let dram = sys.mem().dram().stats();
    let mut c = Counts {
        page_faults: k.page_faults,
        colored_allocs: k.colored_allocs,
        create_color_list_calls: k.create_color_list_calls,
        pages_moved: k.pages_moved,
        off_color_allocs: k.off_color_allocs,
        exhaustion_fallbacks: k.exhaustion_fallbacks,
        ..Counts::default()
    };
    for m in &mem.cores {
        c.accesses += m.accesses;
        c.dram_local += m.dram_local;
        c.dram_remote += m.dram_same_socket + m.dram_cross_socket;
    }
    for h in &hier.cores {
        c.l1_hits += h.l1_hits;
        c.l2_hits += h.l2_hits;
        c.l3_hits += h.l3_hits;
        c.l3_misses += h.l3_misses;
        c.l3_evicted_by_others += h.l3_evicted_by_others;
    }
    for b in &dram.banks {
        c.row_hits += b.row_hits;
        c.row_misses += b.row_misses;
        c.row_conflicts += b.row_conflicts;
    }
    let run_dbg = match run {
        RunStats::Team(m) => {
            c.sim_cycles = m.runtime;
            c.tenants = 1;
            format!("{m:?}")
        }
        RunStats::Tenants(out) => {
            c.sim_cycles = out.makespan;
            c.tenants_completed = out.completed;
            c.tenants_failed = out.failed();
            c.tenants = out.completed + out.failed();
            format!("{out:?}")
        }
    };
    let digest = crate::gate::fnv1a(&[
        run_dbg.as_bytes(),
        format!("{k:?}").as_bytes(),
        format!("{mem:?}").as_bytes(),
        format!("{hier:?}").as_bytes(),
        format!("{dram:?}").as_bytes(),
    ]);
    (c, digest)
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Every paper benchmark at scale 1, in [`BENCHES`] order.
pub fn paper_benchmarks() -> Vec<Box<dyn Workload>> {
    let benches = all_benchmarks(Scale(1.0));
    debug_assert!(benches.iter().map(|w| w.name()).eq(BENCHES));
    benches
}
