//! One simulation cell: what it names, and the one function that runs it.
//!
//! Every figure `repro` prints is a list of cells, and every cell is a
//! deterministic simulation on a freshly booted machine. A [`CellSpec`]
//! names everything that decides its result: the machine preset, the
//! thread team and its colors, the workload or scripted scenario, the seed
//! and whether the seed jitters the boot layout. [`CellSpec::key`] encodes
//! exactly that as the cell cache's and the journal's key, so the key
//! cannot drift from the spec.
//!
//! [`simulate`] runs a cell in phases: boot (plus the seed's boot noise),
//! colors (spawn the team and apply its scheme's plan), build (the
//! workload's program), run (the program, or the scenario), report. It is
//! the only place `tint-bench` boots a machine.

use crate::runner::Stats;
use tint_hw::machine::PagePolicy;
use tint_kernel::KernelStats;
use tint_mem::MemorySystem;
use tint_spmd::{RunMetrics, SimThread};
use tint_workloads::{PinConfig, Workload};
use tintmalloc::prelude::*;

/// Everything one cell produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpResult {
    /// SPMD metrics (runtime, per-thread runtime/idle); zeros for a
    /// scenario cell.
    pub metrics: RunMetrics,
    /// Fraction of DRAM accesses served by remote nodes.
    pub remote_fraction: f64,
    /// Cross-core LLC evictions (interference events).
    pub llc_interference: u64,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// Pages moved into color lists (Algorithm 2 volume).
    pub pages_moved: u64,
    /// Page faults taken.
    pub page_faults: u64,
    /// Total kernel cycles charged for faults (incl. color-list population).
    pub fault_cycles: u64,
    /// Machine-wide L3 miss rate (misses / L3 lookups).
    pub l3_miss_rate: f64,
    /// Machine-wide mean end-to-end access latency (cycles).
    pub mean_latency: f64,
    /// create_color_list invocations.
    pub color_list_moves: u64,
    /// A scenario cell's raw counters, laid out by its scenario function;
    /// empty for a workload cell.
    pub counters: Vec<u64>,
    /// True when this is a sentinel for a cell whose every attempt
    /// panicked (or blew its strict deadline): the numbers above are
    /// zeros, figures render the affected rows as `ERR`, and the cell is
    /// never cached or journaled.
    pub poisoned: bool,
}

/// Content address of one cell: the canonical encoding of its spec
/// ([`CellSpec::key`]). Its order is the order a compacted journal shard
/// stores cells in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub String);

/// A machine preset a cell boots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// The paper's 4-node Opteron 6128 (open-page DRAM).
    Opteron,
    /// The Opteron with closed-page DRAM controllers.
    OpteronClosed,
    /// The small two-node test machine.
    Tiny,
    /// [`soak_machine`].
    Soak,
}

impl Machine {
    /// The preset's configuration.
    pub fn config(self) -> MachineConfig {
        match self {
            Machine::Opteron => MachineConfig::opteron_6128(),
            Machine::OpteronClosed => {
                let mut m = MachineConfig::opteron_6128();
                m.dram.page_policy = PagePolicy::Closed;
                m
            }
            Machine::Tiny => MachineConfig::tiny(),
            Machine::Soak => soak_machine(),
        }
    }
}

/// The soak machine: the tiny preset shrunk to 2,048 frames (`row_bits`
/// 7), so a few hundred mid-size tenants genuinely over-commit it. The
/// L3 set-index coverage of the LLC color bits is unchanged (row bits are
/// the top bits); `validate()` holds.
pub fn soak_machine() -> MachineConfig {
    let mut m = MachineConfig::tiny();
    m.name = "tiny-soak".to_string();
    m.mapping.row_bits = 7;
    m.validate();
    m
}

/// What a cell runs on its machine.
#[derive(Clone, Copy)]
pub enum Work<'a> {
    /// Build the workload's program for the team and run it.
    Workload(&'a dyn Workload),
    /// A scripted scenario; its counters are the cell's result. `name` and
    /// `params` identify it in the key, so they must cover everything the
    /// driver reads besides the cell seed.
    Scenario {
        /// Scenario name, unique per driver.
        name: &'static str,
        /// The driver's parameters.
        params: [u64; 2],
        /// The driver.
        drive: Drive,
    },
}

/// What a scenario driver returns: its raw counters and the simulated
/// cycles it spent.
pub type Counters = (Vec<u64>, u64);

/// How a scenario drives its machine.
#[derive(Clone, Copy)]
pub enum Drive {
    /// A bare memory system addressed physically: no kernel, no team.
    Mem(fn(&mut MemorySystem, [u64; 2]) -> Counters),
    /// A booted system, the cell's team (empty without one), the params
    /// and the cell seed.
    Sys(fn(&mut System, &mut [SimThread], [u64; 2], u64) -> Counters),
}

/// One cell: a machine, an optional thread team, the work and the seed.
#[derive(Clone, Copy)]
pub struct CellSpec<'a> {
    /// The machine preset booted fresh for this cell.
    pub machine: Machine,
    /// Thread→core pinning and the coloring scheme the team applies.
    pub team: Option<(PinConfig, ColorScheme)>,
    /// The workload or scenario.
    pub work: Work<'a>,
    /// The seed: the workload's random streams, the scenario's stream.
    pub seed: u64,
    /// Jitter the physical layout by the seed before the team spawns (the
    /// paper's repetitions differ in boot layout).
    pub noise: bool,
}

impl<'a> CellSpec<'a> {
    /// A figure-matrix cell: `workload` on the Opteron under
    /// `(scheme, pin)` at repetition seed `seed`, with boot noise.
    pub fn team(
        workload: &'a dyn Workload,
        scheme: ColorScheme,
        pin: PinConfig,
        seed: u64,
    ) -> Self {
        Self {
            machine: Machine::Opteron,
            team: Some((pin, scheme)),
            work: Work::Workload(workload),
            seed,
            noise: true,
        }
    }

    /// A scenario cell, without boot noise.
    pub fn scenario(
        machine: Machine,
        team: Option<(PinConfig, ColorScheme)>,
        name: &'static str,
        params: [u64; 2],
        drive: Drive,
        seed: u64,
    ) -> Self {
        Self {
            machine,
            team,
            work: Work::Scenario {
                name,
                params,
                drive,
            },
            seed,
            noise: false,
        }
    }

    /// The canonical encoding of the spec: the cache and journal key, and
    /// the cell's name in warnings. A workload is named by its parameter
    /// fingerprint, a scenario by its name and params.
    pub fn key(&self) -> CellKey {
        let team = self
            .team
            .map_or("-".to_string(), |(pin, scheme)| format!("{pin}/{scheme}"));
        let work = match self.work {
            Work::Workload(w) => format!("{}#{:016x}", w.name(), w.fingerprint()),
            Work::Scenario { name, params, .. } => format!("{name}{params:?}"),
        };
        let noise = if self.noise { " noise" } else { "" };
        CellKey(format!(
            "{:?} {team} {work} seed={}{noise}",
            self.machine, self.seed
        ))
    }
}

/// `schemes × seeds 1..=reps` of one workload at one pinning, scheme-major:
/// the cell list of a figure row group.
pub fn cells_for<'a>(
    workload: &'a dyn Workload,
    schemes: &[ColorScheme],
    pin: PinConfig,
    reps: u32,
) -> Vec<CellSpec<'a>> {
    schemes
        .iter()
        .flat_map(|&scheme| {
            (1..=reps as u64).map(move |seed| CellSpec::team(workload, scheme, pin, seed))
        })
        .collect()
}

/// Run one cell on a fresh machine, with no cache involved. Returns the
/// result and the run counters the simulation adds: its simulated cycles
/// and its kernel's memory-pressure counters.
pub fn simulate(c: &CellSpec<'_>) -> (ExpResult, Stats) {
    let machine = c.machine.config();
    if let Work::Scenario {
        drive: Drive::Mem(drive),
        params,
        ..
    } = c.work
    {
        let mut mem = MemorySystem::new(machine);
        let (counters, cycles) = drive(&mut mem, params);
        let no_kernel = KernelStats::default();
        return report(&mem, &no_kernel, RunMetrics::default(), counters, cycles);
    }
    // Boot.
    let mut sys = System::boot(machine);
    if c.noise {
        // Consume a pseudo-random number of low frames, as a freshly
        // booted system with prior activity would.
        sys.boot_noise((c.seed.wrapping_mul(2654435761) % 2048) * 4);
    }
    // Colors.
    let mut threads = Vec::new();
    if let Some((pin, scheme)) = c.team {
        let cores = pin.cores();
        threads = SimThread::spawn_all(&mut sys, &cores);
        for (t, p) in threads.iter().zip(&scheme.plan(sys.machine(), &cores)) {
            sys.apply_colors(t.tid, p).expect("color plan applies");
        }
    }
    // Build and run.
    let (cycles, metrics, counters) = match c.work {
        Work::Workload(w) => {
            let program = w
                .build(&mut sys, &threads, c.seed)
                .expect("workload builds");
            let m = program.run(&mut sys, &mut threads).expect("program runs");
            (m.runtime, m, Vec::new())
        }
        Work::Scenario { params, drive, .. } => {
            let Drive::Sys(drive) = drive else {
                unreachable!("memory-system scenarios returned above")
            };
            let (counters, cycles) = drive(&mut sys, &mut threads, params, c.seed);
            (cycles, RunMetrics::new(threads.len()), counters)
        }
    };
    report(sys.mem(), sys.kernel().stats(), metrics, counters, cycles)
}

/// Report: the cell's result from its machine's statistics, and the run
/// counters it adds.
fn report(
    mem: &MemorySystem,
    k: &KernelStats,
    metrics: RunMetrics,
    counters: Vec<u64>,
    sim_cycles: u64,
) -> (ExpResult, Stats) {
    let hier = mem.hierarchy().stats();
    let (l3_hits, l3_misses) = hier
        .cores
        .iter()
        .fold((0u64, 0u64), |(h, m), c| (h + c.l3_hits, m + c.l3_misses));
    let (acc, lat) = mem.stats().cores.iter().fold((0u64, 0u64), |(a, l), c| {
        (a + c.accesses, l + c.total_latency)
    });
    let result = ExpResult {
        metrics,
        remote_fraction: mem.stats().remote_fraction(),
        llc_interference: hier.total_llc_interference(),
        row_hit_rate: mem.dram().stats().hit_rate(),
        pages_moved: k.pages_moved,
        page_faults: k.page_faults,
        fault_cycles: k.fault_cycles,
        l3_miss_rate: ratio(l3_misses, l3_hits + l3_misses),
        mean_latency: ratio(lat, acc),
        color_list_moves: k.create_color_list_calls,
        counters,
        poisoned: false,
    };
    let spent = Stats {
        sim_cycles,
        oom_kills: k.oom_kills,
        admission_rejects: k.admission_rejects,
        alloc_retries: k.alloc_retries,
        ..Stats::default()
    };
    (result, spent)
}

/// `n / d`, or 0 for an empty denominator.
pub(crate) fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The zeroed sentinel recorded for a cell that exhausted every attempt.
pub(crate) fn poisoned_sentinel(c: &CellSpec<'_>) -> ExpResult {
    let threads = c.team.map_or(0, |(pin, _)| pin.cores().len());
    ExpResult {
        metrics: RunMetrics::new(threads),
        poisoned: true,
        ..ExpResult::default()
    }
}
