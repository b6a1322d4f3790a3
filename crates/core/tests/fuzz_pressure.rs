//! Randomized op-sequence fuzzer for memory-pressure robustness.
//!
//! Drives a mixed population of tasks — strict, nearest-color, and
//! local-uncolored exhaustion policies, plus an uncolored task and a
//! raw-syscall task — through ≥10k operations per seed while the kernel
//! injects deterministic faults at every site. The population itself
//! churns: ops spawn fresh colored tenants and exit live ones mid-life, so
//! the full task-reclamation path (address-space teardown, provenance-
//! routed frame return, color-list drain on last-colored-exit) runs with
//! buffers still mapped and the injector armed. The contract under test:
//!
//! * allocation failures surface as **typed errnos** (`ENOMEM`, `EAGAIN`,
//!   `EFAULT`, `EINVAL`), never as panics or aborts;
//! * [`Kernel::check_invariants`] stays clean throughout: every frame owned
//!   by exactly one structure, page tables and VMAs in agreement, color
//!   bitsets in sync;
//! * a failing seed replays exactly (`SplitMix64` drives both the op
//!   stream and the injector).
//!
//! Seed count is tunable: `TINT_FUZZ_SEEDS=20 cargo test -p tintmalloc
//! --test fuzz_pressure` (CI runs a bounded pass; see scripts/ci.sh).

use tint_hw::machine::MachineConfig;
use tint_hw::rng::SplitMix64;
use tint_hw::types::{CoreId, FrameNumber, Rw, VirtAddr, PAGE_SIZE};
use tintmalloc::prelude::*;

const OPS_PER_SEED: u64 = 10_000;
const CHECK_EVERY: u64 = 512;

/// Errors the kernel is *allowed* to return under pressure and injection.
fn tolerated(e: Errno) -> bool {
    matches!(
        e,
        Errno::Enomem | Errno::Eagain | Errno::Efault | Errno::Einval
    )
}

fn expect_ok_or_tolerated<T>(r: Result<T, Errno>, what: &str) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(e) if tolerated(e) => None,
        Err(e) => panic!("{what}: unexpected errno {e}"),
    }
}

struct HeapTask {
    tid: Tid,
    /// Live page-granular buffers (base, len).
    live: Vec<(VirtAddr, u64)>,
}

fn fuzz_one_seed(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut sys = System::boot(MachineConfig::tiny());
    sys.kernel_mut().consume_boot_noise(rng.gen_range(64));

    // Population: one task per exhaustion policy plus an uncolored task.
    let mut tasks = Vec::new();
    for (i, (policy, bank, llc)) in [
        (ExhaustionPolicy::Strict, Some(0u16), Some(0u16)),
        (ExhaustionPolicy::NearestColor, Some(1), Some(1)),
        (ExhaustionPolicy::LocalUncolored, None, Some(2)),
        (ExhaustionPolicy::Strict, None, None),
    ]
    .into_iter()
    .enumerate()
    {
        let tid = sys.spawn(CoreId(i % 4));
        if let Some(b) = bank {
            sys.set_mem_color(tid, BankColor(b)).unwrap();
        }
        if let Some(l) = llc {
            sys.set_llc_color(tid, LlcColor(l)).unwrap();
        }
        if bank.is_none() && llc.is_none() {
            sys.set_policy(tid, HeapPolicy::FirstTouch).unwrap();
        }
        sys.set_exhaustion_policy(tid, policy).unwrap();
        tasks.push(HeapTask {
            tid,
            live: Vec::new(),
        });
    }
    // A raw-syscall task exercising the kernel directly (its regions are
    // invisible to the heap layer, so only kernel calls touch them).
    let raw_tid = sys.spawn(CoreId(3));
    let mut raw_regions: Vec<(VirtAddr, u64)> = Vec::new();
    let mut raw_blocks: Vec<(FrameNumber, u32)> = Vec::new();

    // Injection at every site, after a short warm-up so the population can
    // establish itself.
    sys.set_fault_plan(Some(
        FaultPlan::new(seed ^ 0xfa17).with_all_rates(25).after(64),
    ));

    let mut spawns = 0u64;
    let mut exits = 0u64;
    for op in 0..OPS_PER_SEED {
        let t = (rng.next_u64() % tasks.len() as u64) as usize;
        match rng.next_u64() % 18 {
            // malloc 1–8 pages (page-granular so free() really munmaps).
            0..=4 => {
                let pages = 1 + rng.next_u64() % 8;
                let tid = tasks[t].tid;
                if let Some(buf) =
                    expect_ok_or_tolerated(sys.malloc(tid, pages * PAGE_SIZE), "malloc")
                {
                    tasks[t].live.push((buf, pages * PAGE_SIZE));
                }
            }
            // free a live buffer.
            5..=7 => {
                if tasks[t].live.is_empty() {
                    continue;
                }
                let i = (rng.next_u64() % tasks[t].live.len() as u64) as usize;
                let (buf, _) = tasks[t].live.swap_remove(i);
                let tid = tasks[t].tid;
                expect_ok_or_tolerated(sys.free(tid, buf), "free");
            }
            // touch a random page of a live buffer.
            8..=11 => {
                if tasks[t].live.is_empty() {
                    continue;
                }
                let i = (rng.next_u64() % tasks[t].live.len() as u64) as usize;
                let (buf, len) = tasks[t].live[i];
                let off = (rng.next_u64() % (len / PAGE_SIZE)) * PAGE_SIZE;
                let tid = tasks[t].tid;
                expect_ok_or_tolerated(sys.access(tid, buf.offset(off), Rw::Read, 0), "access");
            }
            // recolor the whole task or a live range.
            12 => {
                let tid = tasks[t].tid;
                if rng.gen_ratio(1, 2) || tasks[t].live.is_empty() {
                    expect_ok_or_tolerated(sys.recolor(tid), "recolor");
                } else {
                    let i = (rng.next_u64() % tasks[t].live.len() as u64) as usize;
                    let (buf, len) = tasks[t].live[i];
                    expect_ok_or_tolerated(sys.recolor_range(tid, buf, len), "recolor_range");
                }
            }
            // flip the task's exhaustion policy.
            13 => {
                let policy = match rng.next_u64() % 3 {
                    0 => ExhaustionPolicy::Strict,
                    1 => ExhaustionPolicy::NearestColor,
                    _ => ExhaustionPolicy::LocalUncolored,
                };
                let tid = tasks[t].tid;
                sys.set_exhaustion_policy(tid, policy).unwrap();
            }
            // raw kernel syscalls: mmap + fault, munmap, raw block alloc/free.
            14 => {
                let k = sys.kernel_mut();
                match rng.next_u64() % 4 {
                    0 => {
                        let pages = 1 + rng.next_u64() % 4;
                        if let Some(base) = expect_ok_or_tolerated(
                            k.sys_mmap(raw_tid, 0, pages * PAGE_SIZE, 0),
                            "raw mmap",
                        ) {
                            raw_regions.push((base, pages * PAGE_SIZE));
                        }
                    }
                    1 if !raw_regions.is_empty() => {
                        let i = (rng.next_u64() % raw_regions.len() as u64) as usize;
                        let (base, len) = raw_regions.swap_remove(i);
                        expect_ok_or_tolerated(k.sys_munmap(raw_tid, base, len), "raw munmap");
                    }
                    2 if !raw_regions.is_empty() => {
                        let i = (rng.next_u64() % raw_regions.len() as u64) as usize;
                        let (base, len) = raw_regions[i];
                        let off = (rng.next_u64() % (len / PAGE_SIZE)) * PAGE_SIZE;
                        expect_ok_or_tolerated(
                            k.translate(raw_tid, base.offset(off)),
                            "raw translate",
                        );
                    }
                    _ => {
                        if raw_blocks.len() < 8 {
                            let order = (rng.next_u64() % 4) as u32;
                            if let Some(out) = expect_ok_or_tolerated(
                                k.alloc_pages_raw(raw_tid, order),
                                "alloc_pages_raw",
                            ) {
                                raw_blocks.push((out.frame, order));
                            }
                        } else {
                            let (f, order) = raw_blocks.swap_remove(0);
                            k.free_pages_raw(f, order);
                        }
                    }
                }
            }
            // spawn a fresh colored tenant (bounded population) — churn's
            // arrival half, under injected faults.
            15 => {
                if tasks.len() >= 12 {
                    continue;
                }
                let tid = sys.spawn(CoreId((rng.next_u64() % 4) as usize));
                let banks = sys.machine().mapping.bank_color_count() as u64;
                let llcs = sys.machine().mapping.llc_color_count() as u64;
                if rng.gen_ratio(3, 4) {
                    let bank = BankColor(rng.gen_range(banks) as u16);
                    let llc = LlcColor(rng.gen_range(llcs) as u16);
                    expect_ok_or_tolerated(sys.set_mem_color(tid, bank), "set_mem_color");
                    expect_ok_or_tolerated(sys.set_llc_color(tid, llc), "set_llc_color");
                }
                let policy = match rng.next_u64() % 3 {
                    0 => ExhaustionPolicy::Strict,
                    1 => ExhaustionPolicy::NearestColor,
                    _ => ExhaustionPolicy::LocalUncolored,
                };
                sys.set_exhaustion_policy(tid, policy).unwrap();
                spawns += 1;
                tasks.push(HeapTask {
                    tid,
                    live: Vec::new(),
                });
            }
            // exit a tenant mid-life — full reclamation with live buffers
            // still mapped and the injector armed. Exit of a live task is
            // infallible by contract.
            16 => {
                if tasks.len() <= 2 {
                    continue;
                }
                let i = (rng.next_u64() % tasks.len() as u64) as usize;
                let gone = tasks.swap_remove(i);
                sys.exit(gone.tid).expect("live task exits cleanly");
                exits += 1;
            }
            // occasionally re-seed the fault plan (exercises arm/disarm).
            _ => {
                if rng.gen_ratio(1, 4) {
                    sys.set_fault_plan(None);
                } else {
                    let rate = 5 + (rng.next_u64() % 50) as u16;
                    sys.set_fault_plan(Some(FaultPlan::new(rng.next_u64()).with_all_rates(rate)));
                }
            }
        }
        if (op + 1) % CHECK_EVERY == 0 {
            sys.check_invariants();
        }
    }
    // Drain the raw blocks so the final accounting closes over boot noise
    // and mapped pages only, then check everything once more.
    for (f, order) in raw_blocks.drain(..) {
        sys.kernel_mut().free_pages_raw(f, order);
    }
    sys.check_invariants();
    let stats = *sys.kernel().stats();
    assert!(
        stats.page_faults > 0 && stats.colored_allocs > 0,
        "seed {seed}: the op mix must actually exercise the allocator"
    );
    assert!(
        spawns > 0 && exits > 0,
        "seed {seed}: the op mix must churn the task population \
         ({spawns} spawns, {exits} exits)"
    );
}

#[test]
// Nightly-depth runs raise TINT_FUZZ_SEEDS; clippy.toml bars environment
// reads elsewhere.
#[allow(clippy::disallowed_methods)]
fn fuzz_mixed_ops_under_injected_faults() {
    let seeds: u64 = std::env::var("TINT_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    for seed in 0..seeds {
        fuzz_one_seed(0xf00d_0000 + seed);
    }
}
