//! Differential tests: the engine against the one-op-at-a-time oracle.
//!
//! The three `*_reference` loops below are the engine's semantic baseline:
//! a `BinaryHeap` of `(clock, thread index)` popped one operation at a
//! time. The engine's batched winner-tree loop must match them bit for bit
//! — end times, every thread clock, the memory system's timing state, the
//! operation budget and the error a failing access returns — on every
//! team size it accepts (1–16 threads, cores repeated on the 4-core `tiny`
//! machine), with zero-cycle computes (clock ties), empty bodies and empty
//! dynamic chunks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tint_hw::machine::MachineConfig;
use tint_hw::rng::SplitMix64;
use tint_hw::types::{CoreId, Rw, VirtAddr};
use tint_kernel::Errno;
use tint_spmd::engine::{run_section, run_section_dynamic, run_serial, BATCH_OPS};
use tint_spmd::{Op, SectionBody, SimThread};
use tintmalloc::System;

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// The reference parallel-section pipeline: one op at a time through a
/// min-heap. Semantically authoritative; the engine must match it bit for
/// bit.
fn run_section_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    bodies: &mut [Box<dyn SectionBody + '_>],
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    assert_eq!(threads.len(), bodies.len(), "one body per thread");
    let n = threads.len();
    let mut end = vec![0u64; n];
    // Min-heap of (clock, thread index).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((threads[i].clock, i))).collect();
    let mut ops = 0u64;
    while let Some(Reverse((clock, i))) = heap.pop() {
        debug_assert_eq!(clock, threads[i].clock);
        match bodies[i].next_op() {
            Some(Op::Compute(c)) => {
                threads[i].clock += c;
                heap.push(Reverse((threads[i].clock, i)));
            }
            Some(Op::Access { addr, rw }) => {
                let acc = sys.access(threads[i].tid, addr, rw, threads[i].clock)?;
                threads[i].clock += acc.latency;
                heap.push(Reverse((threads[i].clock, i)));
            }
            None => {
                end[i] = threads[i].clock;
            }
        }
        ops += 1;
        assert!(
            ops <= ops_budget,
            "section exceeded its operation budget ({ops_budget}); runaway body?"
        );
    }
    // The implicit barrier: every thread resumes at the latest end time.
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// The reference dynamic-section pipeline (one op at a time, min-heap).
fn run_section_dynamic_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    mut chunks: VecDeque<Box<dyn SectionBody + '_>>,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let n = threads.len();
    let mut end = vec![0u64; n];
    let mut current: Vec<Option<Box<dyn SectionBody + '_>>> = (0..n).map(|_| None).collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((threads[i].clock, i))).collect();
    let mut ops = 0u64;
    while let Some(Reverse((_, i))) = heap.pop() {
        // Ensure the thread has a chunk; pull the next one if needed.
        if current[i].is_none() {
            current[i] = chunks.pop_front();
        }
        let Some(body) = current[i].as_mut() else {
            end[i] = threads[i].clock; // queue drained: this thread is done
            continue;
        };
        match body.next_op() {
            Some(Op::Compute(c)) => threads[i].clock += c,
            Some(Op::Access { addr, rw }) => {
                let acc = sys.access(threads[i].tid, addr, rw, threads[i].clock)?;
                threads[i].clock += acc.latency;
            }
            None => {
                current[i] = None; // chunk finished; try the queue next turn
            }
        }
        heap.push(Reverse((threads[i].clock, i)));
        ops += 1;
        assert!(
            ops <= ops_budget,
            "dynamic section exceeded its operation budget ({ops_budget})"
        );
    }
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// The reference serial-section pipeline (one op at a time).
fn run_serial_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    body: &mut (dyn SectionBody + '_),
    ops_budget: u64,
) -> Result<u64, Errno> {
    let master = &mut threads[0];
    let mut ops = 0u64;
    while let Some(op) = body.next_op() {
        match op {
            Op::Compute(c) => master.clock += c,
            Op::Access { addr, rw } => {
                let acc = sys.access(master.tid, addr, rw, master.clock)?;
                master.clock += acc.latency;
            }
        }
        ops += 1;
        assert!(ops <= ops_budget, "serial section exceeded its budget");
    }
    let end = threads[0].clock;
    for t in threads.iter_mut() {
        t.clock = end;
    }
    Ok(end)
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Pages each thread's private array spans.
const PAGES: u64 = 16;

/// A never-mapped address: touching it fails with `EFAULT`.
const UNMAPPED: VirtAddr = VirtAddr(0x5000_0000);

/// A booted `tiny` machine with an `n`-thread team on cores `i % 4`, and
/// one private array per thread.
fn setup(n: usize) -> (System, Vec<SimThread>, Vec<VirtAddr>) {
    let mut sys = System::boot(MachineConfig::tiny());
    let cores: Vec<_> = (0..n).map(|i| CoreId(i % 4)).collect();
    let threads = SimThread::spawn_all(&mut sys, &cores);
    let arrays = threads
        .iter()
        .map(|t| sys.malloc(t.tid, PAGES * 4096).unwrap())
        .collect();
    (sys, threads, arrays)
}

/// `len` random ops over `base`'s array: irregular compute runs (to
/// exercise fusion), zero-cycle computes (clock ties) and accesses.
fn mixed_ops(rng: &mut SplitMix64, base: VirtAddr, len: u64) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.gen_range(6) {
            0 => Op::Compute(rng.gen_range(200)),
            1 | 2 => Op::Compute(0),
            3 => Op::Compute(rng.gen_range(7)),
            _ => Op::Access {
                addr: base.offset(rng.gen_range(PAGES * 4096 / 64) * 64),
                rw: if rng.gen_range(3) == 0 {
                    Rw::Write
                } else {
                    Rw::Read
                },
            },
        })
        .collect()
}

/// A body length: empty one time in four, otherwise up to 300 ops (so
/// bodies span several `BATCH_OPS` fills).
fn body_len(rng: &mut SplitMix64) -> u64 {
    if rng.gen_range(4) == 0 {
        0
    } else {
        rng.gen_range(300) + 1
    }
}

fn boxed(ops: Vec<Op>) -> Box<dyn SectionBody + 'static> {
    Box::new(ops.into_iter())
}

/// One op list per thread.
fn static_ops(arrays: &[VirtAddr], seed: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix64::new(seed);
    arrays
        .iter()
        .map(|&a| {
            let len = body_len(&mut rng);
            mixed_ops(&mut rng, a, len)
        })
        .collect()
}

/// A chunk queue over every thread's array, with empty chunks mixed in.
fn dynamic_ops(arrays: &[VirtAddr], seed: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix64::new(seed);
    let chunks = rng.gen_range(3 * arrays.len() as u64 + 2);
    (0..chunks)
        .map(|_| {
            let a = arrays[rng.gen_range(arrays.len() as u64) as usize];
            let len = body_len(&mut rng) / 2;
            mixed_ops(&mut rng, a, len)
        })
        .collect()
}

/// Everything a section can leave behind: its result, every thread, and
/// the memory system's per-core and DRAM timing state.
#[derive(Debug, PartialEq)]
struct Outcome<T> {
    result: Result<T, Errno>,
    threads: Vec<SimThread>,
    per_core: Vec<(u64, u64)>,
    dram: (u64, u64),
}

fn outcome<T>(sys: &System, threads: Vec<SimThread>, result: Result<T, Errno>) -> Outcome<T> {
    let cores = sys.machine().topology.core_count();
    let stats = sys.mem().stats();
    let dram = sys.mem().dram().stats();
    Outcome {
        result,
        threads,
        per_core: (0..cores)
            .map(|c| {
                let s = stats.core(CoreId(c));
                (s.accesses, s.total_latency)
            })
            .collect(),
        dram: (dram.requests, dram.total_latency),
    }
}

/// Which section kind to drive.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Static,
    Dynamic,
    Serial,
}

/// Run one section of `kind` over `ops` (per-thread bodies, chunks, or the
/// serial body) on a fresh `n`-thread machine, through the engine or the
/// oracle. `ops` may name [`UNMAPPED`]; `mk_ops` receives the arrays.
fn drive(
    kind: Kind,
    n: usize,
    oracle: bool,
    budget: u64,
    mk_ops: &dyn Fn(&[VirtAddr]) -> Vec<Vec<Op>>,
) -> Outcome<Vec<u64>> {
    let (mut sys, mut threads, arrays) = setup(n);
    let ops = mk_ops(&arrays);
    let result = match kind {
        Kind::Static => {
            let mut bodies: Vec<_> = ops.into_iter().map(boxed).collect();
            if oracle {
                run_section_reference(&mut sys, &mut threads, &mut bodies, budget)
            } else {
                run_section(&mut sys, &mut threads, &mut bodies, budget)
            }
        }
        Kind::Dynamic => {
            let chunks: VecDeque<_> = ops.into_iter().map(boxed).collect();
            if oracle {
                run_section_dynamic_reference(&mut sys, &mut threads, chunks, budget)
            } else {
                run_section_dynamic(&mut sys, &mut threads, chunks, budget)
            }
        }
        Kind::Serial => {
            let mut body = ops.into_iter().next().unwrap_or_default().into_iter();
            if oracle {
                run_serial_reference(&mut sys, &mut threads, &mut body, budget)
            } else {
                run_serial(&mut sys, &mut threads, &mut body, budget)
            }
            .map(|end| vec![end])
        }
    };
    outcome(&sys, threads, result)
}

/// Assert the engine matches the oracle for `kind` on `n` threads.
fn assert_matches(kind: Kind, n: usize, mk_ops: &dyn Fn(&[VirtAddr]) -> Vec<Vec<Op>>) {
    let engine = drive(kind, n, false, u64::MAX, mk_ops);
    let oracle = drive(kind, n, true, u64::MAX, mk_ops);
    assert_eq!(engine, oracle, "{kind:?} section, {n} threads");
}

// ---------------------------------------------------------------------------
// Differential tests
// ---------------------------------------------------------------------------

#[test]
fn section_matches_reference_for_every_team_size() {
    for n in 1..=16 {
        for seed in 0..4u64 {
            assert_matches(Kind::Static, n, &|a| {
                static_ops(a, seed ^ ((n as u64) << 8))
            });
        }
    }
}

#[test]
fn dynamic_matches_reference_for_every_team_size() {
    for n in 1..=16 {
        for seed in 0..4u64 {
            assert_matches(Kind::Dynamic, n, &|a| {
                dynamic_ops(a, seed ^ ((n as u64) << 8))
            });
        }
    }
}

#[test]
fn serial_matches_reference_for_every_team_size() {
    for n in 1..=16 {
        for seed in 0..4u64 {
            assert_matches(Kind::Serial, n, &|a| {
                static_ops(&a[..1], seed ^ ((n as u64) << 8))
            });
        }
    }
}

/// All-zero computes: every thread keeps clock 0, so every pick is a tie
/// that only the thread index breaks.
#[test]
fn zero_cycle_ties_match_reference() {
    let zeros = |a: &[VirtAddr]| -> Vec<Vec<Op>> {
        (0..a.len()).map(|i| vec![Op::Compute(0); 70 + i]).collect()
    };
    for n in [1, 2, 5, 16] {
        assert_matches(Kind::Static, n, &zeros);
        assert_matches(Kind::Dynamic, n, &zeros);
        assert_matches(Kind::Serial, n, &zeros);
    }
}

/// Empty bodies, and queues holding only empty chunks (or nothing).
#[test]
fn empty_bodies_and_chunks_match_reference() {
    for n in [1, 3, 16] {
        let empty = |count: usize| move |_: &[VirtAddr]| vec![Vec::<Op>::new(); count];
        assert_matches(Kind::Static, n, &empty(n));
        assert_matches(Kind::Serial, n, &empty(1));
        assert_matches(Kind::Serial, n, &empty(0));
        for chunks in [0, 1, n, 2 * n + 1] {
            assert_matches(Kind::Dynamic, n, &empty(chunks));
        }
    }
}

/// An access that fails with `EFAULT` mid-section: the same error, and
/// every thread clock where the oracle left it.
#[test]
fn efault_mid_section_matches_reference() {
    for n in [1, 2, 7, 16] {
        for seed in 0..3u64 {
            let poisoned = |ops: fn(&[VirtAddr], u64) -> Vec<Vec<Op>>| {
                move |a: &[VirtAddr]| {
                    let mut v = ops(a, seed);
                    let mut rng = SplitMix64::new(seed ^ 0xEFA);
                    if v.is_empty() {
                        v.push(Vec::new());
                    }
                    let k = rng.gen_range(v.len() as u64) as usize;
                    let at = rng.gen_range(v[k].len() as u64 + 1) as usize;
                    v[k].insert(
                        at,
                        Op::Access {
                            addr: UNMAPPED,
                            rw: Rw::Read,
                        },
                    );
                    v
                }
            };
            for kind in [Kind::Static, Kind::Dynamic] {
                let mk = poisoned(if matches!(kind, Kind::Static) {
                    static_ops
                } else {
                    dynamic_ops
                });
                let engine = drive(kind, n, false, u64::MAX, &mk);
                assert_eq!(engine.result, Err(Errno::Efault), "{kind:?} {n} threads");
                assert_eq!(engine, drive(kind, n, true, u64::MAX, &mk), "{kind:?} {n}");
            }
            let serial = poisoned(|a, seed| static_ops(&a[..1], seed));
            let engine = drive(Kind::Serial, n, false, u64::MAX, &serial);
            assert_eq!(engine.result, Err(Errno::Efault), "serial {n} threads");
            assert_eq!(engine, drive(Kind::Serial, n, true, u64::MAX, &serial));
        }
    }
}

/// A thread whose first stint ends in a fused compute run, then refills
/// and finishes, before another thread's access fails: its end clock
/// stands, as in the oracle.
#[test]
fn efault_after_a_thread_finished_matches_reference() {
    let mk = |a: &[VirtAddr]| -> Vec<Vec<Op>> {
        let mut first = vec![Op::Compute(10); BATCH_OPS];
        first.push(Op::Access {
            addr: a[0],
            rw: Rw::Write,
        });
        let second = vec![
            Op::Compute(10_000),
            Op::Access {
                addr: UNMAPPED,
                rw: Rw::Read,
            },
        ];
        vec![first, second]
    };
    for kind in [Kind::Static, Kind::Dynamic] {
        let engine = drive(kind, 2, false, u64::MAX, &mk);
        assert_eq!(engine.result, Err(Errno::Efault), "{kind:?}");
        assert_eq!(engine, drive(kind, 2, true, u64::MAX, &mk), "{kind:?}");
    }
}

/// The operation budget counts the same operations as the oracle's: a
/// parallel section charges each body's final `None`, a dynamic section
/// each finished chunk, a serial section only real operations. Each
/// section runs at exactly its count (passes) and one below (panics).
#[test]
fn budgets_count_the_same_operations() {
    let n = 3;
    let mk = |a: &[VirtAddr]| -> Vec<Vec<Op>> {
        let mut rng = SplitMix64::new(0xB0D6);
        a.iter()
            .map(|&base| {
                let len = 40 + rng.gen_range(200);
                mixed_ops(&mut rng, base, len)
            })
            .collect()
    };
    let (_, _, arrays) = setup(n);
    let ops = mk(&arrays);
    let real: u64 = ops.iter().map(|o| o.len() as u64).sum();
    let cases = [
        (Kind::Static, real + n as u64),
        (Kind::Dynamic, real + ops.len() as u64),
        (Kind::Serial, ops[0].len() as u64),
    ];
    for (kind, count) in cases {
        for oracle in [false, true] {
            assert!(
                drive(kind, n, oracle, count, &mk).result.is_ok(),
                "{kind:?} (oracle {oracle}) fits a budget of {count}"
            );
            let over = catch_unwind(AssertUnwindSafe(|| drive(kind, n, oracle, count - 1, &mk)));
            assert!(
                over.is_err(),
                "{kind:?} (oracle {oracle}) exceeds {}",
                count - 1
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Absorbed compute runs
// ---------------------------------------------------------------------------

/// One access into `base`'s array.
fn access(rng: &mut SplitMix64, base: VirtAddr) -> Op {
    Op::Access {
        addr: base.offset(rng.gen_range(PAGES * 4096 / 64) * 64),
        rw: if rng.gen_range(3) == 0 {
            Rw::Write
        } else {
            Rw::Read
        },
    }
}

/// A run of 0–70 computes, a third of them zero-cycle (clock ties).
fn compute_run(rng: &mut SplitMix64) -> Vec<Op> {
    let len = rng.gen_range(71);
    (0..len)
        .map(|_| Op::Compute(rng.gen_range(3) * rng.gen_range(90)))
        .collect()
}

/// At least `len` ops that alternate an access with a run of 0–70
/// computes: the runs a thread absorbs after its access often straddle
/// the `BATCH_OPS` boundary and carry its clock past the runner-up's.
fn alternating_ops(rng: &mut SplitMix64, base: VirtAddr, len: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    while (ops.len() as u64) < len {
        ops.push(access(rng, base));
        ops.extend(compute_run(rng));
    }
    ops
}

/// Static bodies, dynamic chunks and serial bodies built from alternating
/// access/compute-run ops; every dynamic chunk ends in a compute run.
#[test]
fn absorbed_compute_runs_match_reference() {
    for n in [1, 2, 3, 5, 8, 16] {
        for seed in 0..4u64 {
            let seed = seed ^ ((n as u64) << 8) ^ 0xAB50;
            let bodies = move |a: &[VirtAddr]| -> Vec<Vec<Op>> {
                let mut rng = SplitMix64::new(seed);
                a.iter()
                    .map(|&base| {
                        let len = rng.gen_range(400);
                        alternating_ops(&mut rng, base, len)
                    })
                    .collect()
            };
            let chunks = move |a: &[VirtAddr]| -> Vec<Vec<Op>> {
                let mut rng = SplitMix64::new(seed);
                (0..2 * a.len() + 3)
                    .map(|k| {
                        let base = a[k % a.len()];
                        let len = rng.gen_range(150);
                        let mut ops = alternating_ops(&mut rng, base, len);
                        ops.push(Op::Compute(1 + rng.gen_range(50)));
                        ops
                    })
                    .collect()
            };
            assert_matches(Kind::Static, n, &bodies);
            assert_matches(Kind::Dynamic, n, &chunks);
            assert_matches(Kind::Serial, n, &|a| bodies(&a[..1]));
        }
    }
}

/// Dynamic chunks that end in compute runs of every length around the
/// batch boundary, including chunks that are exactly one or two batches
/// long: a thread that absorbs the run to its chunk's end must still pull
/// its next chunk only once it is the minimum again.
#[test]
fn dynamic_chunks_ending_in_computes_match_reference() {
    for n in [2, 3, 4, 16] {
        let chunks = |a: &[VirtAddr]| -> Vec<Vec<Op>> {
            let mut rng = SplitMix64::new(0xC4C ^ a.len() as u64);
            (0..3 * a.len() + 1)
                .map(|k| {
                    let tail = [0, 1, 62, 63, 64, 65, 127, 128][k % 8];
                    let head = rng.gen_range(3) as usize;
                    let mut ops: Vec<Op> = (0..head)
                        .flat_map(|_| [access(&mut rng, a[k % a.len()]), Op::Compute(7)])
                        .collect();
                    ops.push(access(&mut rng, a[k % a.len()]));
                    ops.extend((0..tail).map(|j| Op::Compute(j as u64 % 5)));
                    ops
                })
                .collect()
        };
        assert_matches(Kind::Dynamic, n, &chunks);
    }
}

/// Thread 0 accesses, then absorbs a run of 70 computes that crosses the
/// batch boundary; thread 1's access fails at a time inside that run. The
/// engine must leave thread 0's clock where the oracle's one-op-at-a-time
/// loop stopped it, whichever compute the failure lands on.
#[test]
fn efault_after_an_absorbed_run_matches_reference() {
    for fail_at in (0..9_000).step_by(373) {
        let mk = move |a: &[VirtAddr]| -> Vec<Vec<Op>> {
            let mut first = vec![Op::Access {
                addr: a[0],
                rw: Rw::Write,
            }];
            first.extend((0..70).map(|j| Op::Compute(60 + j % 90)));
            first.push(Op::Access {
                addr: a[0],
                rw: Rw::Read,
            });
            let second = vec![
                Op::Compute(fail_at),
                Op::Access {
                    addr: UNMAPPED,
                    rw: Rw::Read,
                },
            ];
            vec![first, second]
        };
        for kind in [Kind::Static, Kind::Dynamic] {
            let engine = drive(kind, 2, false, u64::MAX, &mk);
            assert_eq!(engine.result, Err(Errno::Efault), "{kind:?} at {fail_at}");
            let oracle = drive(kind, 2, true, u64::MAX, &mk);
            assert_eq!(engine, oracle, "{kind:?} at {fail_at}");
        }
    }
}
