//! Figure regeneration: one function per results figure of the paper.
//!
//! Every figure is a list of cells ([`crate::cell`]) run through the run's
//! [`Harness`], then a table rendered from their results. Figures beyond
//! the paper's benchmark matrix script scenarios; each scenario's driver
//! sits beside the figure that renders its counters.

use crate::cell::{ratio, CellSpec, Counters, Drive, Machine};
use crate::runner::{any_poisoned, cells_for, ExpResult, Harness, Summary};
use crate::table::{norm, norm_err, Table};
use std::collections::BTreeMap;
use tint_hw::types::FrameNumber;
use tint_kernel::{KernelStats, VictimPolicy};
use tint_mem::MemorySystem;
use tint_spmd::{Program, RoundRobin, RunMetrics, SectionBody, SimThread};
use tint_workloads::patterns::Seq;
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, ChunkQueue, ChurnConfig, PinConfig, SoakConfig, Synthetic};
use tintmalloc::prelude::*;
use ColorScheme::{Bpm, Buddy, LegacyGlobal, LlcMemPart, LlcOnly, MemLlc, MemLlcPart, MemOnly};

/// Common experiment options.
#[derive(Debug, Clone, Copy)]
pub struct FigOpts {
    /// Seeded repetitions per cell (paper: 10).
    pub reps: u32,
    /// Workload scale factor (1.0 = DESIGN.md defaults).
    pub scale: f64,
    /// Emit CSV instead of aligned tables.
    pub csv: bool,
}

impl Default for FigOpts {
    fn default() -> Self {
        Self {
            reps: 3,
            scale: 1.0,
            csv: false,
        }
    }
}

impl FigOpts {
    fn scale_(&self) -> Scale {
        Scale(self.scale)
    }

    /// Render a table per the CSV flag.
    pub fn render(&self, t: &Table) -> String {
        if self.csv {
            t.to_csv()
        } else {
            t.render()
        }
    }
}

/// The coloring solutions Fig. 10 compares on the synthetic benchmark.
const FIG10_SCHEMES: [ColorScheme; 4] = [Buddy, LlcOnly, MemOnly, MemLlc];

/// The "other" coloring solutions Fig. 11 picks the best of.
const OTHER_SCHEMES: [ColorScheme; 4] = [LlcOnly, MemOnly, MemLlcPart, LlcMemPart];

/// **Figure 10** — synthetic benchmark execution time per coloring policy.
pub fn fig10(h: &Harness, opts: &FigOpts) -> Table {
    let w = Synthetic::new(opts.scale_());
    let pin = PinConfig::T16N4;
    let mut t = Table::new("policy runtime_cycles normalized remote_frac row_hit_rate");
    // One flattened batch over all four schemes' repetitions.
    let results = h.run_cells(&cells_for(&w, &FIG10_SCHEMES, pin, opts.reps));
    let per_scheme: Vec<&[ExpResult]> = results.chunks(opts.reps as usize).collect();
    let base_bad = any_poisoned(per_scheme[0]);
    let base = Summary::runtime(per_scheme[0]).mean;
    for (i, scheme) in FIG10_SCHEMES.into_iter().enumerate() {
        let rs = per_scheme[i];
        let bad = any_poisoned(rs);
        let s = Summary::runtime(rs);
        let remote = Summary::of(rs, |r| r.remote_fraction).mean;
        let hit = Summary::of(rs, |r| r.row_hit_rate).mean;
        let normalized = norm_err(s.mean / base, s.min / base, s.max / base);
        t.row(vec![
            scheme.label().to_string(),
            or_err(bad, format!("{:.0}", s.mean)),
            or_err(bad || base_bad, normalized),
            or_err(bad, format!("{remote:.3}")),
            or_err(bad, format!("{hit:.3}")),
        ]);
    }
    t
}

/// Key for one cell of the benchmark matrix.
type Cell = (&'static str, PinConfig, ColorScheme);

/// The full benchmark sweep shared by Figures 11 and 12.
pub struct BenchMatrix {
    /// Repetition results per (benchmark, config, scheme).
    pub cells: BTreeMap<Cell, Vec<ExpResult>>,
    /// Benchmark names in figure order.
    pub benchmarks: Vec<&'static str>,
    /// Configs included.
    pub configs: Vec<PinConfig>,
}

/// All schemes the benchmark figures need.
fn matrix_schemes() -> Vec<ColorScheme> {
    let mut v = vec![Buddy, Bpm, MemLlc];
    v.extend(OTHER_SCHEMES);
    v
}

/// Run the full (benchmark × config × scheme × reps) sweep as **one**
/// flattened work queue over every cell, drained by `--jobs`/`TINT_JOBS`
/// host threads. Cells differ ~100× in cost (lbm vs blackscholes), so the
/// queue — not a per-cell reps-way fan-out — is what load-balances the
/// sweep; the canonical-order merge keeps the assembled matrix independent
/// of job count.
pub fn run_matrix(h: &Harness, opts: &FigOpts, configs: &[PinConfig]) -> BenchMatrix {
    let benches = all_benchmarks(opts.scale_());
    let schemes = matrix_schemes();
    let mut specs: Vec<CellSpec> = Vec::new();
    for w in &benches {
        for &pin in configs {
            specs.extend(cells_for(w.as_ref(), &schemes, pin, opts.reps));
        }
    }
    let listed = specs.len();
    let results = h.run_cells_with_progress(&specs, &move |done, total| {
        eprint!("\r[matrix] simulated {done}/{total} cells ({listed} listed)          ");
    });
    eprintln!();
    let mut cells = BTreeMap::new();
    let mut it = results.into_iter();
    for w in &benches {
        for &pin in configs {
            for &scheme in &schemes {
                let rs: Vec<ExpResult> = it.by_ref().take(opts.reps as usize).collect();
                cells.insert((w.name(), pin, scheme), rs);
            }
        }
    }
    BenchMatrix {
        cells,
        benchmarks: benches.iter().map(|w| w.name()).collect(),
        configs: configs.to_vec(),
    }
}

impl BenchMatrix {
    fn get(&self, b: &'static str, p: PinConfig, s: ColorScheme) -> &[ExpResult] {
        &self.cells[&(b, p, s)]
    }

    /// Best "other" scheme by mean of `metric` for a (benchmark, config).
    fn best_other(
        &self,
        b: &'static str,
        p: PinConfig,
        metric: impl Fn(&ExpResult) -> f64 + Copy,
    ) -> (ColorScheme, Summary) {
        OTHER_SCHEMES
            .iter()
            .map(|&s| (s, Summary::of(self.get(b, p, s), metric)))
            .min_by(|a, b| a.1.mean.total_cmp(&b.1.mean))
            .unwrap()
    }

    /// One figure table (normalized to buddy) for a metric: Fig. 11 uses
    /// runtime, Fig. 12 uses total idle.
    pub fn figure(&self, metric: impl Fn(&ExpResult) -> f64 + Copy, what: &str) -> Vec<Table> {
        let mut tables = Vec::new();
        for &pin in &self.configs {
            let header = format!("benchmark buddy_{what} BPM MEM+LLC best_other best_other_scheme");
            let mut t = Table::new(&header);
            for &b in &self.benchmarks {
                let base_rs = self.get(b, pin, Buddy);
                let base_bad = any_poisoned(base_rs);
                let base = Summary::of(base_rs, metric);
                let nz = |v: f64| if base.mean > 0.0 { v / base.mean } else { 0.0 };
                let (bs, bsum) = self.best_other(b, pin, metric);
                // A poisoned repetition set renders as ERR; normalized
                // columns also depend on the buddy base being clean.
                let bad = |s| any_poisoned(self.get(b, pin, s));
                let other_bad = OTHER_SCHEMES.iter().any(|&s| bad(s));
                let scheme = |s| {
                    let m = Summary::of(self.get(b, pin, s), metric);
                    or_err(
                        base_bad || bad(s),
                        norm_err(nz(m.mean), nz(m.min), nz(m.max)),
                    )
                };
                t.row(vec![
                    b.to_string(),
                    or_err(base_bad, norm_err(1.0, nz(base.min), nz(base.max))),
                    scheme(Bpm),
                    scheme(MemLlc),
                    or_err(base_bad || other_bad, norm(nz(bsum.mean))),
                    or_err(other_bad, bs.label().to_string()),
                ]);
            }
            tables.push(t);
        }
        tables
    }

    /// **Figure 11** — normalized benchmark runtime per config.
    pub fn fig11(&self) -> Vec<Table> {
        self.figure(|r| r.metrics.runtime as f64, "runtime")
    }

    /// **Figure 12** — normalized total idle time per config.
    pub fn fig12(&self) -> Vec<Table> {
        self.figure(|r| r.metrics.total_idle() as f64, "idle")
    }
}

/// The schemes Figures 13/14 compare.
const FIG13_SCHEMES: [ColorScheme; 3] = [Buddy, Bpm, MemLlc];

/// **Figures 13 & 14** — per-thread runtime and idle at 16_threads_4_nodes.
/// Returns (per-benchmark summary table, lbm per-thread detail table).
///
/// The whole `benchmark × scheme × rep` sweep is one flattened cell batch;
/// every cell is a strict subset of the fig11 matrix, so in an invocation
/// that already ran the matrix this function performs zero new simulations
/// (asserted by scripts/ci.sh against the cache counters).
pub fn fig13_14(h: &Harness, opts: &FigOpts) -> (Table, Table) {
    let pin = PinConfig::T16N4;
    let benches = all_benchmarks(opts.scale_());
    let mut summary =
        Table::new("benchmark scheme max_thr_runtime min_thr_runtime spread max_thr_idle");
    let mut lbm_detail = Table::new("thread buddy_runtime memllc_runtime buddy_idle memllc_idle");
    let mut specs: Vec<CellSpec> = Vec::new();
    for w in &benches {
        specs.extend(cells_for(w.as_ref(), &FIG13_SCHEMES, pin, opts.reps));
    }
    let results = h.run_cells(&specs);
    // One chunk of repetitions per (benchmark, scheme), in FIG13_SCHEMES
    // order.
    let per_bench = results.chunks(FIG13_SCHEMES.len() * opts.reps as usize);
    for (w, chunk) in benches.iter().zip(per_bench) {
        let chunks: Vec<&[ExpResult]> = chunk.chunks(opts.reps as usize).collect();
        for (scheme, rs) in FIG13_SCHEMES.iter().zip(&chunks) {
            let bad = any_poisoned(rs);
            let mean = |f: fn(&RunMetrics) -> u64| {
                let v = Summary::of(rs, |r| f(&r.metrics) as f64).mean;
                or_err(bad, format!("{v:.0}"))
            };
            summary.row(vec![
                w.name().to_string(),
                scheme.label().to_string(),
                mean(RunMetrics::max_thread_runtime),
                mean(RunMetrics::min_thread_runtime),
                mean(RunMetrics::runtime_spread),
                mean(RunMetrics::max_thread_idle),
            ]);
        }
        if w.name() == "lbm" {
            // The first repetition (seed 1) of buddy and MEM+LLC, thread
            // by thread.
            let (buddy, ml) = (&chunks[0][0], &chunks[2][0]);
            let bad = buddy.poisoned || ml.poisoned;
            let (m, ml) = (&buddy.metrics, &ml.metrics);
            for i in 0..m.threads {
                let (rt, idle) = (&m.thread_runtime, &m.thread_idle);
                let vals = [rt[i], ml.thread_runtime[i], idle[i], ml.thread_idle[i]];
                let mut row = vec![i.to_string()];
                row.extend(vals.map(|v| or_err(bad, v.to_string())));
                lbm_detail.row(row);
            }
        }
    }
    (summary, lbm_detail)
}

/// The frame at `(bank color, LLC color, row)`.
fn frame(m: &MachineConfig, bank: u64, llc: u64, row: u64) -> FrameNumber {
    m.mapping
        .compose_frame(BankColor(bank as u16), LlcColor(llc as u16), row)
}

/// A cell driving a bare Opteron memory system.
fn mem_cell(
    name: &'static str,
    p: [u64; 2],
    f: fn(&mut MemorySystem, [u64; 2]) -> Counters,
) -> CellSpec<'static> {
    CellSpec::scenario(Machine::Opteron, None, name, p, Drive::Mem(f), 0)
}

/// Append one row: the `lead` columns, then the value columns `vals`
/// computes from `r`'s counters, or `ERR` in each when `r` is poisoned.
fn counter_row(
    t: &mut Table,
    lead: &[&str],
    r: &ExpResult,
    vals: impl FnOnce(&[u64]) -> Vec<String>,
) {
    let mut row: Vec<String> = lead.iter().map(|s| s.to_string()).collect();
    if r.poisoned {
        row.resize(t.columns().len(), "ERR".to_string());
    } else {
        row.extend(vals(&r.counters));
    }
    t.row(row);
}

/// Lines each stream of the bank-sharing and bandwidth scenarios writes.
const STREAM_LINES: u64 = 512;

/// Unloaded DRAM read latency from core 0 at 0, 1 and 2 hops (fresh rows,
/// so row misses). Counters: the three latencies.
fn latency_hops(mem: &mut MemorySystem, _: [u64; 2]) -> Counters {
    let m = mem.config().clone();
    let lat: Vec<u64> = [0u64, 32, 96]
        .iter()
        .enumerate()
        .map(|(i, &bank)| {
            let a = frame(&m, bank, 0, i as u64 + 1).base();
            let now = i as u64 * 100_000;
            mem.access(CoreId(0), a, Rw::Read, now).latency
        })
        .collect();
    let cycles = lat.iter().sum();
    (lat, cycles)
}

/// Bank sharing (Fig. 8's scenario): cores 0 and 1 each stream their own
/// rows, of bank 0 and of bank `p[0]`, interleaved. A shared bank
/// ping-pongs its row buffer between the two open rows; disjoint banks
/// each keep their row open. Counters: each core's final clock.
fn latency_banks(mem: &mut MemorySystem, p: [u64; 2]) -> Counters {
    let m = mem.config().clone();
    let mut now = [0u64; 2];
    for i in 0..STREAM_LINES {
        // Fresh lines (no cache reuse), rows walked sequentially.
        let off = (i * 128) % 4096;
        let row = 1 + i / 32;
        let r0 = mem.access(
            CoreId(0),
            frame(&m, 0, 0, 2 * row).at(off),
            Rw::Write,
            now[0],
        );
        now[0] += r0.latency;
        let r1 = mem.access(
            CoreId(1),
            frame(&m, p[0], 0, 2 * row + 1).at(off),
            Rw::Write,
            now[1],
        );
        now[1] += r1.latency;
    }
    (now.to_vec(), now[0].max(now[1]))
}

/// LLC interference (Fig. 9's scenario): the victim on core 0 rescans a
/// working set larger than its private L2 but inside a 4-color LLC slice,
/// while an intruder on core 8 streams pages of LLC colors `p[0]..p[0]+4`
/// (colors 0–3 are the victim's). Counters: the victim's L3 misses over
/// four rounds.
fn latency_llc(mem: &mut MemorySystem, p: [u64; 2]) -> Counters {
    let m = mem.config().clone();
    // Victim: 160 pages (640 KiB) over LLC colors 0–3 — bigger than the
    // private L2 (so rescans reach L3), inside the slice (1.5 MiB).
    let vic: Vec<FrameNumber> = (0..160u64)
        .map(|i| frame(&m, i % 4, i % 4, 4 + i / 4))
        .collect();
    // Read every line of page `f` from `core`, back to back.
    let read_page = |mem: &mut MemorySystem, core: usize, f: FrameNumber, clock: &mut u64| {
        for off in (0..4096).step_by(128) {
            *clock += mem
                .access(CoreId(core), f.at(off), Rw::Read, *clock)
                .latency;
        }
    };
    let rescan = |mem: &mut MemorySystem, clock: &mut u64| {
        vic.iter().for_each(|&f| read_page(mem, 0, f, clock))
    };
    let mut clock = 0u64;
    rescan(mem, &mut clock); // warm
    let misses0 = mem.hierarchy().stats().core(CoreId(0)).l3_misses;
    for round in 0..4u64 {
        // Intruder: 800 fresh pages (3.1 MiB) of its colors — enough to
        // overflow the 6-way sets it shares with the victim.
        for pg in 0..800u64 {
            let f = frame(&m, 8 + pg % 4, p[0] + pg % 4, (round * 800 + pg) % 1024);
            read_page(mem, 8, f, &mut clock);
        }
        rescan(mem, &mut clock);
    }
    let misses = mem.hierarchy().stats().core(CoreId(0)).l3_misses - misses0;
    (vec![misses], clock)
}

/// **§V claims (1)–(2)** — pointed latency microbenchmarks on the memory
/// system: local vs remote controller, bank sharing, LLC interference.
pub fn latency(h: &Harness, _opts: &FigOpts) -> Table {
    let rs = h.run_cells(&[
        mem_cell("latency-hops", [0, 0], latency_hops),
        mem_cell("latency-banks", [0, 0], latency_banks),
        mem_cell("latency-banks", [1, 0], latency_banks),
        mem_cell("latency-llc", [0, 0], latency_llc),
        mem_cell("latency-llc", [4, 0], latency_llc),
    ]);
    let mut t = Table::new("experiment cycles_or_rate note");
    let hops = [
        "local (0 hops)",
        "same socket (1 hop)",
        "cross socket (2 hops)",
    ];
    for (i, label) in hops.iter().enumerate() {
        counter_row(&mut t, &[&format!("DRAM read, {label}")], &rs[0], |c| {
            vec![c[i].to_string(), "unloaded, row miss".to_string()]
        });
    }
    for (r, label) in rs[1..3].iter().zip(["same bank", "disjoint banks"]) {
        counter_row(&mut t, &[&format!("2-thread stream, {label}")], r, |c| {
            let mean = (c[0] + c[1]) as f64 / (2 * STREAM_LINES) as f64;
            vec![
                format!("{mean:.1}"),
                "mean DRAM-bound access latency".to_string(),
            ]
        });
    }
    for (r, label) in rs[3..]
        .iter()
        .zip(["shared LLC colors", "disjoint LLC colors"])
    {
        counter_row(&mut t, &[&format!("victim L3 misses, {label}")], r, |c| {
            vec![
                c[0].to_string(),
                "4 rescans of 640 KiB under intrusion".to_string(),
            ]
        });
    }
    t
}

/// Diagnostic: one benchmark at one config, every scheme, with the latency /
/// locality / fault breakdown. Not a paper figure — a calibration tool.
/// `None` when no benchmark is called `bench_name`.
pub fn probe(h: &Harness, opts: &FigOpts, bench_name: &str, pin: PinConfig) -> Option<Table> {
    let benches = all_benchmarks(opts.scale_());
    let w = benches.iter().find(|w| w.name() == bench_name)?;
    let mut t =
        Table::new("scheme runtime idle mean_lat remote rowhit l3miss faults fault_cyc moves");
    let schemes = matrix_schemes();
    let results = h.run_cells(&cells_for(w.as_ref(), &schemes, pin, 1));
    for (scheme, r) in schemes.iter().zip(&results) {
        let vals = [
            r.metrics.runtime.to_string(),
            r.metrics.total_idle().to_string(),
            format!("{:.1}", r.mean_latency),
            format!("{:.3}", r.remote_fraction),
            format!("{:.3}", r.row_hit_rate),
            format!("{:.3}", r.l3_miss_rate),
            r.page_faults.to_string(),
            r.fault_cycles.to_string(),
            r.color_list_moves.to_string(),
        ];
        let mut row = vec![scheme.label().to_string()];
        row.extend(vals.map(|v| or_err(r.poisoned, v)));
        t.row(row);
    }
    Some(t)
}

/// Ablation: full vs partial coloring as LLC pressure grows (the freqmine
/// exception, §V.B).
pub fn ablate_part(h: &Harness, opts: &FigOpts) -> Table {
    let pin = PinConfig::T16N4;
    let benches = all_benchmarks(opts.scale_());
    let mut t = Table::new("benchmark MEM+LLC MEM+LLC(part) LLC+MEM(part)");
    // Buddy first per benchmark (the normalization base), then the three
    // partial-coloring variants — all benchmarks in one flattened batch.
    let schemes = [Buddy, MemLlc, MemLlcPart, LlcMemPart];
    let mut specs: Vec<CellSpec> = Vec::new();
    for w in &benches {
        specs.extend(cells_for(w.as_ref(), &schemes, pin, opts.reps));
    }
    let results = h.run_cells(&specs);
    let mut chunks = results.chunks(opts.reps as usize);
    for w in &benches {
        let base_rs = chunks.next().expect("buddy chunk");
        let base_bad = any_poisoned(base_rs);
        let base = Summary::runtime(base_rs).mean;
        let mut row = vec![w.name().to_string()];
        row.extend(chunks.by_ref().take(3).map(|rs| {
            or_err(
                base_bad || any_poisoned(rs),
                norm(Summary::runtime(rs).mean / base),
            )
        }));
        t.row(row);
    }
    t
}

/// Ablation: legacy global buddy vs NUMA first-touch vs MEM coloring,
/// normalized to buddy.
pub fn ablate_firsttouch(h: &Harness, opts: &FigOpts) -> Table {
    let w = Synthetic::new(opts.scale_());
    let mut t = Table::new("policy runtime_norm remote_frac");
    let schemes = [LegacyGlobal, Buddy, MemOnly, MemLlc];
    let results = h.run_cells(&cells_for(&w, &schemes, PinConfig::T16N4, opts.reps));
    let per_scheme: Vec<&[ExpResult]> = results.chunks(opts.reps as usize).collect();
    let base_bad = any_poisoned(per_scheme[1]);
    let base = Summary::runtime(per_scheme[1]).mean;
    for (scheme, rs) in schemes.iter().zip(per_scheme) {
        let bad = any_poisoned(rs);
        let s = Summary::runtime(rs);
        let remote = Summary::of(rs, |r| r.remote_fraction).mean;
        t.row(vec![
            scheme.label().to_string(),
            or_err(bad || base_bad, norm(s.mean / base)),
            or_err(bad, format!("{remote:.3}")),
        ]);
    }
    t
}

/// `p[1]` write streams, each from a core local to its bank so hop latency
/// never pollutes the measurement. `p[0]` picks the banks: 0 one shared
/// bank, 1 banks of one controller, 2 banks of different controllers.
/// Counters: the cycles until the last stream finishes.
fn bandwidth_streams(mem: &mut MemorySystem, p: [u64; 2]) -> Counters {
    let m = mem.config().clone();
    let mut clocks = vec![0u64; p[1] as usize];
    for l in 0..STREAM_LINES {
        for (s, clock) in clocks.iter_mut().enumerate() {
            let s = s as u64;
            let bank = [0, s, s * 32][p[0] as usize];
            let core = CoreId((bank / 32) as usize * 4 + s as usize % 4);
            let f = frame(&m, bank, 0, (l / 32) * 8 + s);
            *clock += mem
                .access(core, f.at((l % 32) * 128), Rw::Write, *clock)
                .latency;
        }
    }
    let elapsed = clocks.iter().max().copied().unwrap_or(1).max(1);
    (vec![elapsed], elapsed)
}

/// §II.B bandwidth claim: "accesses to different banks and channels may
/// proceed in parallel ... improving memory bandwidth". 1/2/4 write streams
/// run over a shared bank, banks of one controller, and banks of different
/// controllers, reporting achieved lines/kilocycle. (Stream sizes are fixed;
/// `--scale` does not apply here.)
pub fn bandwidth(h: &Harness, _opts: &FigOpts) -> Table {
    let layouts = [
        "same bank",
        "banks of one controller",
        "banks of different controllers",
    ];
    let streams = [1u64, 2, 4];
    let cells: Vec<CellSpec> = (0..layouts.len() as u64)
        .flat_map(|l| streams.map(|s| mem_cell("bandwidth", [l, s], bandwidth_streams)))
        .collect();
    let mut rs = h.run_cells(&cells).into_iter();
    let mut t = Table::new("streams banks lines_per_kcycle note");
    for label in layouts {
        for s in streams {
            let r = rs.next().expect("a cell per layout and stream count");
            counter_row(&mut t, &[&s.to_string(), label], &r, |c| {
                let rate = (s * STREAM_LINES) as f64 * 1000.0 / c[0] as f64;
                vec![format!("{rate:.1}"), "back-to-back writes".to_string()]
            });
        }
    }
    t
}

/// Each thread allocates and streams its own `p[0]`-byte region twice.
/// With `p[1] = 1` the team adopts MEM+LLC colors between the passes and
/// migrates its pages. Counters: the two passes' cycles, then the
/// migration's cycles and pages moved.
fn migrate_passes(
    sys: &mut System,
    threads: &mut [SimThread],
    p: [u64; 2],
    _seed: u64,
) -> Counters {
    let bytes = p[0];
    let regions: Vec<VirtAddr> = threads
        .iter()
        .map(|th| {
            sys.malloc(th.tid, bytes)
                .expect("the Opteron holds every region")
        })
        .collect();
    let pass = |sys: &mut System, threads: &mut [SimThread]| {
        let line = sys.machine().mapping.line_size();
        let bodies = regions
            .iter()
            .map(|&r| Box::new(Seq::new(r, bytes, line, 1, 4, 2)) as Box<dyn SectionBody>)
            .collect();
        let m = Program::new().parallel(bodies).run(sys, threads);
        m.expect("pass runs").runtime
    };
    let pass1 = pass(sys, threads);
    let (mut cycles, mut moved) = (0, 0);
    if p[1] == 1 {
        let cores: Vec<CoreId> = threads.iter().map(|th| th.core).collect();
        let plan = MemLlc.plan(sys.machine(), &cores);
        for ((th, colors), &region) in threads.iter().zip(&plan).zip(&regions) {
            sys.apply_colors(th.tid, colors)
                .expect("MEM+LLC plan applies");
            // Range-scoped: each thread migrates only its own region (the
            // address space is shared across the team).
            let recolor = sys.recolor_range(th.tid, region, bytes);
            let (pages, cyc) = recolor.expect("the Opteron holds every colored page");
            moved += pages;
            cycles += cyc;
        }
    }
    let pass2 = pass(sys, threads);
    (vec![pass1, pass2, cycles, moved], pass1 + pass2)
}

/// Ablation (extension): dynamic recoloring. A team first-touches its data
/// uncolored (buddy), then adopts MEM+LLC colors and migrates — the second
/// pass should approach natively-colored speed, at a visible one-time cost.
pub fn ablate_migrate(h: &Harness, opts: &FigOpts) -> Table {
    let bytes = opts.scale_().bytes(1 << 20);
    let cell = |scheme, recolor| {
        let team = Some((PinConfig::T16N4, scheme));
        let drive = Drive::Sys(migrate_passes);
        CellSpec::scenario(
            Machine::Opteron,
            team,
            "migrate",
            [bytes, recolor],
            drive,
            0,
        )
    };
    // Buddy throughout (control), buddy then recolored, natively colored.
    let rs = h.run_cells(&[cell(Buddy, 0), cell(Buddy, 1), cell(MemLlc, 0)]);
    let mut t = Table::new("measurement cycles note");
    let rows = [
        ("pass 1, buddy (cold)", 0, 0, "first touch included"),
        ("pass 2, buddy (control)", 0, 1, "no migration"),
        ("migration cost", 1, 2, ""),
        ("pass 2, after recolor", 1, 1, "pages now MEM+LLC"),
        ("pass 2, natively colored", 2, 1, "lower bound"),
    ];
    for (label, cell, counter, note) in rows {
        counter_row(&mut t, &[label], &rs[cell], |c| {
            let note = match note {
                "" => format!("{} pages moved", c[3]),
                n => n.to_string(),
            };
            vec![c[counter].to_string(), note]
        });
    }
    t
}

/// `cell` without boot noise: the ablations that compare single runs.
fn quiet(cell: CellSpec) -> CellSpec {
    CellSpec {
        noise: false,
        ..cell
    }
}

/// `v`, or `ERR` when it rests on a poisoned cell.
fn or_err(bad: bool, v: String) -> String {
    if bad {
        "ERR".to_string()
    } else {
        v
    }
}

/// Ablation (extension): DRAM page policy. Under a closed-page controller
/// every access pays `tRCD + tCAS` regardless of sharing, so bank coloring
/// loses most of its row-buffer rationale — open-page is the regime the
/// paper's analysis assumes.
pub fn ablate_pagepolicy(h: &Harness, opts: &FigOpts) -> Table {
    let w = Synthetic::new(opts.scale_());
    let machines = [
        (Machine::Opteron, "Open"),
        (Machine::OpteronClosed, "Closed"),
    ];
    let schemes = [Buddy, MemOnly];
    let cells: Vec<CellSpec> = machines
        .iter()
        .flat_map(|&(machine, _)| {
            schemes.map(|s| CellSpec {
                machine,
                ..quiet(CellSpec::team(&w, s, PinConfig::T16N4, 1))
            })
        })
        .collect();
    let rs = h.run_cells(&cells);
    let mut t = Table::new("page_policy scheme runtime MEM_gain_vs_buddy");
    for ((_, policy), pair) in machines.iter().zip(rs.chunks(2)) {
        let (buddy, mem) = (&pair[0], &pair[1]);
        let gain = 1.0 - mem.metrics.runtime as f64 / buddy.metrics.runtime as f64;
        for (scheme, r) in schemes.iter().zip(pair) {
            t.row(vec![
                policy.to_string(),
                scheme.label().to_string(),
                or_err(r.poisoned, r.metrics.runtime.to_string()),
                match scheme {
                    Buddy => "-".to_string(),
                    _ => or_err(
                        buddy.poisoned || mem.poisoned,
                        format!("{:.1}%", 100.0 * gain),
                    ),
                },
            ]);
        }
    }
    t
}

/// Ablation (extension): static vs dynamic scheduling under an imbalanced
/// chunk distribution ([`ChunkQueue`]) — coloring attacks *memory-induced*
/// divergence while dynamic scheduling attacks *work-induced* divergence;
/// they compose.
pub fn ablate_dynamic(h: &Harness, opts: &FigOpts) -> Table {
    let queues = [false, true].map(|dynamic| ChunkQueue::new(opts.scale_(), dynamic));
    let schemes = [Buddy, MemLlc];
    let cells: Vec<CellSpec> = schemes
        .iter()
        .flat_map(|&s| {
            queues
                .each_ref()
                .map(|q| quiet(CellSpec::team(q, s, PinConfig::T16N4, 1)))
        })
        .collect();
    let rs = h.run_cells(&cells);
    let mut t = Table::new("scheduling scheme runtime total_idle");
    for (i, r) in rs.iter().enumerate() {
        t.row(vec![
            if queues[i % 2].dynamic {
                "dynamic"
            } else {
                "static"
            }
            .to_string(),
            schemes[i / 2].label().to_string(),
            or_err(r.poisoned, r.metrics.runtime.to_string()),
            or_err(r.poisoned, r.metrics.total_idle().to_string()),
        ]);
    }
    t
}

/// Each thread allocates and prefaults 512 pages, then frees them, twice:
/// the first round populates the color lists from the buddy allocator,
/// the second is the balanced steady state (freed pages land in the
/// colored free lists). Counters per round: fault cycles, faults, pages
/// moved.
fn colorlist_rounds(
    sys: &mut System,
    threads: &mut [SimThread],
    _: [u64; 2],
    _seed: u64,
) -> Counters {
    let bytes = 512 * 4096;
    let mut counters = Vec::new();
    for _ in 0..2 {
        let st0 = *sys.kernel().stats();
        let regions: Vec<(Tid, VirtAddr)> = threads
            .iter()
            .map(|th| {
                let a = sys.malloc(th.tid, bytes).expect("512 pages fit a color");
                sys.prefault(th.tid, a, bytes)
                    .expect("512 pages fit a color");
                (th.tid, a)
            })
            .collect();
        let st = sys.kernel().stats();
        counters.extend([
            st.fault_cycles - st0.fault_cycles,
            st.page_faults - st0.page_faults,
            st.pages_moved - st0.pages_moved,
        ]);
        for (tid, a) in regions {
            sys.free(tid, a).expect("the region is live");
        }
    }
    // The scenario simulates page faults only: their kernel cycles.
    let cycles = counters[0] + counters[3];
    (counters, cycles)
}

/// Ablation: the colored-free-list population overhead (§III.C): cost of the
/// first colored allocations vs steady state.
pub fn ablate_colorlist(h: &Harness, _opts: &FigOpts) -> Table {
    let team = Some((PinConfig::T4N4, MemLlc));
    let drive = Drive::Sys(colorlist_rounds);
    let r = &h.run_cells(&[CellSpec::scenario(
        Machine::Opteron,
        team,
        "colorlist",
        [0, 0],
        drive,
        0,
    )])[0];
    let mut t = Table::new("phase mean_fault_cycles pages_moved");
    for (i, phase) in ["cold (populating)", "warm (balanced alloc/free)"]
        .iter()
        .enumerate()
    {
        counter_row(&mut t, &[phase], r, |c| {
            let c = &c[3 * i..];
            vec![
                format!("{:.0}", c[0] as f64 / c[1] as f64),
                c[2].to_string(),
            ]
        });
    }
    t
}

/// The exhaustion policies of the pressure ablation and the churn mixes.
const POLICIES: [(ExhaustionPolicy, &str); 3] = [
    (ExhaustionPolicy::Strict, "strict"),
    (ExhaustionPolicy::NearestColor, "nearest-color"),
    (ExhaustionPolicy::LocalUncolored, "local-uncolored"),
];

/// Off-color (incl. exhaustion-fallback) and all colored-path allocations
/// between two kernel stat snapshots.
fn off_color(st0: &KernelStats, st: &KernelStats) -> [u64; 2] {
    let off = (st.off_color_allocs - st0.off_color_allocs)
        + (st.exhaustion_fallbacks - st0.exhaustion_fallbacks);
    [off, off + (st.colored_allocs - st0.colored_allocs)]
}

/// An [`ablate_pressure`] cell: the hog holds `p[0]`‰ of the pair, the
/// victim runs policy `POLICIES[p[1]]`. Counters: the outcome (0 ok, else
/// 1 + the error's index in [`Errno::ALL`]), pages placed, off-color and
/// colored-path allocations, fault cycles.
fn pressure_victim(sys: &mut System, _: &mut [SimThread], p: [u64; 2], _seed: u64) -> Counters {
    let pair = sys.machine().mapping.frames_per_color_pair();
    let hog = sys.spawn(CoreId(0));
    sys.set_mem_color(hog, BankColor(0))
        .expect("color 0 exists");
    sys.set_llc_color(hog, LlcColor(0)).expect("color 0 exists");
    let hog_pages = (pair as f64 * (p[0] as f64 / 1000.0)) as u64;
    if hog_pages > 0 {
        let a = sys
            .malloc(hog, hog_pages * 4096)
            .expect("the hog fits its pair");
        sys.prefault(hog, a, hog_pages * 4096)
            .expect("the hog fits its pair");
    }
    let victim = sys.spawn(CoreId(1));
    sys.set_mem_color(victim, BankColor(0))
        .expect("color 0 exists");
    sys.set_llc_color(victim, LlcColor(0))
        .expect("color 0 exists");
    sys.set_exhaustion_policy(victim, POLICIES[p[1] as usize].0)
        .expect("the victim exists");
    let want = pair / 4;
    let st0 = *sys.kernel().stats();
    let code = |e: Errno| 1 + Errno::ALL.iter().position(|&x| x == e).expect("listed") as u64;
    let (mut outcome, mut placed, mut cycles) = (0, 0, 0);
    match sys.malloc(victim, want * 4096) {
        Err(e) => outcome = code(e),
        Ok(base) => {
            for pg in 0..want {
                match sys.access(victim, base.offset(pg * 4096), Rw::Write, 0) {
                    Ok(a) => {
                        cycles += a.latency;
                        placed += 1;
                    }
                    Err(e) => {
                        outcome = code(e);
                        break;
                    }
                }
            }
        }
    }
    let st = sys.kernel().stats();
    let ([off, total], faulted) = (off_color(&st0, st), st.fault_cycles - st0.fault_cycles);
    sys.check_invariants();
    (vec![outcome, placed, off, total, faulted], cycles)
}

/// Ablation (extension): graceful degradation under color-list pressure.
///
/// A hog thread pins down a growing fraction of the (bank 0, LLC 0)
/// color-pair supply; a victim colored the same way then tries to place a
/// fixed working set (a quarter of the pair) under each
/// [`ExhaustionPolicy`]. `Strict` reproduces the paper's contract — error
/// once the color runs dry; `NearestColor` borrows neighbouring colors;
/// `LocalUncolored` degrades to node-local uncolored pages, the behaviour
/// §III.C describes for tasks that outgrow their colors. The off-color
/// fraction is the price of survival: pages that no longer enjoy the
/// victim's bank/LLC isolation.
pub fn ablate_pressure(h: &Harness, _opts: &FigOpts) -> Table {
    let occupancies = [0u64, 500, 800, 900, 950, 990]; // per mille
    let cells: Vec<CellSpec> = occupancies
        .iter()
        .flat_map(|&occ| {
            (0..POLICIES.len() as u64).map(move |pi| {
                let drive = Drive::Sys(pressure_victim);
                CellSpec::scenario(Machine::Tiny, None, "pressure", [occ, pi], drive, 0)
            })
        })
        .collect();
    let rs = h.run_cells(&cells);
    let mut t = Table::new("occupancy policy outcome pages_placed off_color_frac fault_cycles");
    for (i, r) in rs.iter().enumerate() {
        let occ = format!("{:.2}", occupancies[i / 3] as f64 / 1000.0);
        counter_row(&mut t, &[&occ, POLICIES[i % 3].1], r, |c| {
            vec![
                match c[0] {
                    0 => "ok".to_string(),
                    e => Errno::ALL[e as usize - 1].name().to_string(),
                },
                c[1].to_string(),
                norm(ratio(c[2], c[3])),
                c[4].to_string(),
            ]
        });
    }
    t
}

/// The churn figure's policy mixes: each single policy, then all three
/// cycled across one tenancy.
const MIXES: [&[usize]; 4] = [&[0], &[1], &[2], &[0, 1, 2]];

/// A [`churn`] cell: `p[1]` tenants with the policies of `MIXES[p[0]]`.
/// Asserts the reclamation contract. Counters: completed, failed,
/// makespan, off-color and colored-path allocations, leaked frames, pool
/// skew.
fn churn_tenants(sys: &mut System, _: &mut [SimThread], p: [u64; 2], seed: u64) -> Counters {
    let (mix, arrivals) = (MIXES[p[0] as usize], p[1]);
    let machine = sys.machine().clone();
    let baseline = sys.kernel().pool_snapshot();
    let st0 = *sys.kernel().stats();
    let mut cfg = ChurnConfig::new(seed, arrivals);
    cfg.policies = mix.iter().map(|&i| POLICIES[i].0).collect();
    let rr = RoundRobin {
        quantum: 5_000,
        check_every: 4_096,
        ..RoundRobin::default()
    };
    let out = rr.run(sys, cfg.build_jobs(&machine));
    let (buddy, colors) = sys.kernel().pool_snapshot();
    let leaked = (baseline.0 + baseline.1) as i64 - (buddy + colors) as i64;
    let skew = colors as i64 - baseline.1 as i64;
    assert_eq!(leaked, 0, "{mix:?}/{arrivals}: frames leaked across churn");
    assert_eq!(skew, 0, "{mix:?}/{arrivals}: color-list population skew");
    assert_eq!(
        out.completed + out.failed(),
        arrivals,
        "{mix:?}/{arrivals}: every arrival must exit"
    );
    sys.check_invariants();
    let [off, total] = off_color(&st0, sys.kernel().stats());
    let (done, failed, span) = (out.completed, out.failed(), out.makespan);
    (
        vec![done, failed, span, off, total, leaked as u64, skew as u64],
        span,
    )
}

/// Figure (extension): multi-tenant churn — throughput, off-color fraction,
/// and pool-population skew vs. task count and simulated uptime.
///
/// Tasks arrive as a seeded Poisson process ([`ChurnConfig`]), color
/// themselves, live a mixed read/write lifetime over a private region, and
/// exit through the kernel's full reclamation path, time-sliced by the
/// round-robin scheduler. Each cell asserts the reclamation contract —
/// after the last exit the buddy and color-list free populations equal the
/// post-boot baseline — with `check_invariants` running throughout; a
/// violation poisons the cell, which renders as `ERR`. At `--scale 1.0`
/// every exhaustion policy sees ≥ 1,000 arrivals per load level; the
/// `mixed` rows cycle all three policies across one tenancy.
pub fn churn(h: &Harness, opts: &FigOpts) -> Table {
    let base = ((1_000.0 * opts.scale).ceil() as u64).max(4);
    let cells: Vec<CellSpec> = (0..MIXES.len() as u64)
        .flat_map(|mix| {
            (0..2u64).map(move |level| {
                let drive = Drive::Sys(churn_tenants);
                let seed = 0x9E37 + mix * 16 + level;
                let params = [mix, base * (level + 1)];
                CellSpec::scenario(Machine::Tiny, None, "churn", params, drive, seed)
            })
        })
        .collect();
    let rs = h.run_cells(&cells);
    let mut t = Table::new(
        "policy tasks completed failed uptime_mcycles tasks_per_mcycle off_color_frac leaked_frames \
         pool_skew",
    );
    let labels = ["strict", "nearest-color", "local-uncolored", "mixed"];
    for (i, r) in rs.iter().enumerate() {
        let tasks = (base * (i as u64 % 2 + 1)).to_string();
        counter_row(&mut t, &[labels[i / 2], &tasks], r, |c| {
            let uptime = c[2] as f64 / 1e6;
            let rate = if uptime > 0.0 {
                (c[0] + c[1]) as f64 / uptime
            } else {
                0.0
            };
            vec![
                c[0].to_string(),
                c[1].to_string(),
                format!("{uptime:.2}"),
                format!("{rate:.1}"),
                norm(ratio(c[3], c[4])),
                (c[5] as i64).to_string(),
                (c[6] as i64).to_string(),
            ]
        });
    }
    t
}

/// Counters per soak window, in [`tint_spmd::PressureWindow`] field order.
const SOAK_WINDOW: usize = 12;

/// A [`soak`] cell: `p[1]` arrivals, guarded when `p[0] = 1`. Asserts the
/// survival contract. Counters: [`SOAK_WINDOW`] per window.
fn soak_tenants(sys: &mut System, _: &mut [SimThread], p: [u64; 2], seed: u64) -> Counters {
    let (guarded, arrivals) = (p[0] == 1, p[1]);
    let label = if guarded { "guarded" } else { "unguarded" };
    let machine = sys.machine().clone();
    let baseline = sys.kernel().pool_snapshot();
    let cfg = SoakConfig::new(seed, arrivals);
    sys.set_fault_plan(Some(cfg.fault_plan()));
    let rr = if guarded {
        RoundRobin {
            quantum: 5_000,
            audit_frames: 256,
            admission_control: true,
            oom: Some(VictimPolicy::LargestFootprint),
            ..RoundRobin::default()
        }
    } else {
        // No gate, no killer, no retries, and only stop-the-world
        // invariant checks.
        RoundRobin {
            quantum: 5_000,
            max_retries: 0,
            check_every: 16_384,
            ..RoundRobin::default()
        }
    };
    let window = (arrivals * cfg.mean_gap / 8).max(1);
    let (out, windows) = rr.run_with_windows(sys, cfg.build_jobs(&machine), window);
    assert!(!out.budget_exceeded, "{label}: soak hit the backstop");
    assert_eq!(
        out.completed + out.failed(),
        arrivals,
        "{label}: every arrival must reach a terminal fate: {out:?}"
    );
    assert_eq!(out.exit_errors, 0, "{label}: no task exited twice");
    let (buddy, colors) = sys.kernel().pool_snapshot();
    assert_eq!(
        baseline.0 + baseline.1,
        buddy + colors,
        "{label}: frames leaked across the soak"
    );
    assert_eq!(colors, baseline.1, "{label}: color-list population skew");
    sys.check_invariants();
    let kills = sys.kernel().stats().oom_kills;
    assert_eq!(kills, out.killed_oom, "{label}: kill books disagree");
    // At figure scale the offered load is ~20× the service rate: the
    // guarded run must actually have exercised the machinery it exists to
    // prove out.
    if guarded && arrivals >= 1_000 {
        let exercised = [out.killed_oom, out.rejected_admission, out.alloc_retries];
        assert!(
            exercised.iter().all(|&n| n >= 1),
            "guarded soak never OOM-killed, rejected an admission or retried: {out:?}"
        );
    }
    let counters = windows
        .iter()
        .flat_map(|w| {
            [
                w.end,
                w.completed,
                w.killed_oom,
                w.rejected_admission,
                w.alloc_retries,
                w.live_tasks,
                w.buddy_free,
                w.color_pages,
                w.largest_free_order as u64,
                w.off_color_allocs,
                w.colored_allocs,
                w.audited_frames,
            ]
        })
        .collect();
    (counters, out.makespan)
}

/// Figure (extension): the sustained-pressure soak — survival and its
/// price over simulated hours of over-committed churn.
///
/// Two cells run the same heavy-tailed, fault-injected [`SoakConfig`]
/// stream on the 2,048-frame [`soak_machine`](crate::cell::soak_machine):
/// **guarded** (watermark admission control, `EAGAIN` backoff, the
/// largest-footprint OOM killer, and the incremental auditor) and
/// **unguarded** (the pre-pressure scheduler: every transient failure is
/// terminal). Each row is one uptime window: cumulative
/// completions/kills/rejections/retries, live tenants, the two pool
/// populations, the largest free buddy order (the fragmentation signal),
/// the off-color fraction, and the frames the incremental auditor has
/// swept. Each cell asserts its survival contract — every arrival reaches
/// a terminal fate and the pools end at their baseline; a violation
/// poisons it, and its row renders as `ERR`.
pub fn soak(h: &Harness, opts: &FigOpts) -> Table {
    let arrivals = ((5_000.0 * opts.scale).ceil() as u64).max(40);
    let specs = [("guarded", 1u64), ("unguarded", 0)];
    let cells = specs.map(|(_, guarded)| {
        let drive = Drive::Sys(soak_tenants);
        let params = [guarded, arrivals];
        CellSpec::scenario(Machine::Soak, None, "soak", params, drive, 0x50AC + guarded)
    });
    let mut t = Table::new(
        "cell window end_kcycles completed killed_oom rejected retries live buddy_free color_pages \
         largest_order off_color_frac audited_frames",
    );
    for ((label, _), r) in specs.iter().zip(h.run_cells(&cells)) {
        if r.poisoned {
            counter_row(&mut t, &[label], &r, |_| Vec::new());
        }
        for (wi, w) in r.counters.chunks(SOAK_WINDOW).enumerate() {
            let mut row = vec![
                label.to_string(),
                wi.to_string(),
                (w[0] / 1_000).to_string(),
            ];
            row.extend(w[1..9].iter().map(u64::to_string));
            row.push(norm(ratio(w[9], w[9] + w[10])));
            row.push(w[11].to_string());
            t.row(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostfault::{FaultMode, HostFaultPlan};
    use crate::RunConfig;

    fn quick() -> FigOpts {
        FigOpts {
            reps: 1,
            scale: 0.05,
            csv: false,
        }
    }

    fn harness(jobs: usize) -> Harness {
        Harness::new(RunConfig {
            jobs: Some(jobs),
            ..RunConfig::default()
        })
    }

    #[test]
    fn fig10_has_four_policies() {
        let t = fig10(&harness(2), &quick());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn firsttouch_renders_err_when_the_buddy_base_is_poisoned() {
        // A `panic:` schedule that poisons the buddy base — the second cell
        // at one worker with no retries — but not the legacy row before it.
        let plan = (0..)
            .map(|seed| HostFaultPlan {
                mode: FaultMode::Panic,
                per_mille: 400,
                seed,
            })
            .find(|p| !p.panics(0) && p.panics(1))
            .unwrap();
        let h = Harness::new(RunConfig {
            jobs: Some(1),
            cell_retries: 0,
            host_fault: Some(plan),
            ..RunConfig::default()
        });
        let t = ablate_firsttouch(&h, &quick());
        let legacy = &t.rows()[0];
        assert_ne!(legacy[2], "ERR", "the legacy row itself ran");
        for row in t.rows() {
            assert_eq!(row[1], "ERR", "a poisoned base normalizes to ERR, not inf");
        }
    }

    #[test]
    fn latency_table_has_all_experiments() {
        let t = latency(&harness(1), &quick());
        assert_eq!(t.len(), 3 + 2 + 2);
    }

    #[test]
    fn colorlist_ablation_cold_vs_warm() {
        let t = ablate_colorlist(&harness(1), &quick());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn churn_figure_reclaims_every_frame_in_every_cell() {
        let t = churn(&harness(1), &quick());
        assert_eq!(t.len(), 4 * 2, "policy mixes × load levels");
        for row in t.rows() {
            // The figure itself asserts reclamation per cell; the rendered
            // columns must agree: zero leaked frames, zero pool skew, and
            // every arrival accounted for as completed or failed.
            assert_eq!(row[7], "0", "leaked_frames column");
            assert_eq!(row[8], "0", "pool_skew column");
            let tasks: u64 = row[1].parse().unwrap();
            let done: u64 = row[2].parse().unwrap();
            let failed: u64 = row[3].parse().unwrap();
            assert_eq!(done + failed, tasks);
        }
    }

    #[test]
    fn soak_figure_is_identical_at_any_job_count() {
        // The quick-scale soak emits window rows for both cells, and the
        // table — backoff and OOM schedules included — is byte-identical
        // whether the cells share one host thread or fan out across four.
        let serial = soak(&harness(1), &quick());
        let parallel = soak(&harness(4), &quick());
        assert_eq!(serial.rows(), parallel.rows());
        let cells: std::collections::BTreeSet<_> =
            serial.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(cells.len(), 2, "guarded and unguarded cells present");
        for row in serial.rows() {
            let done: u64 = row[3].parse().unwrap();
            let killed: u64 = row[4].parse().unwrap();
            let rejected: u64 = row[5].parse().unwrap();
            assert!(done + killed + rejected <= 250, "cumulative counters");
        }
    }

    #[test]
    fn pressure_ablation_covers_grid_and_degrades_gracefully() {
        let t = ablate_pressure(&harness(1), &quick());
        assert_eq!(t.len(), 6 * 3, "occupancies × policies");
        let cell = |occ: &str, policy: &str, col: usize| {
            t.rows()
                .iter()
                .find(|r| r[0] == occ && r[1] == policy)
                .map(|r| r[col].clone())
                .unwrap()
        };
        // Under heavy pressure the paper's strict contract fails...
        assert_eq!(cell("0.99", "strict", 2), "ENOMEM");
        // ...while both graceful policies keep serving pages, paying with
        // an off-color fraction.
        for policy in ["nearest-color", "local-uncolored"] {
            assert_eq!(cell("0.99", policy, 2), "ok");
            assert!(cell("0.99", policy, 4).parse::<f64>().unwrap() > 0.5);
            // And with no pressure they are indistinguishable from strict.
            assert_eq!(cell("0.00", policy, 4), "0.000");
        }
    }
}
