//! # tint-spmd — deterministic SPMD execution engine
//!
//! The paper evaluates TintMalloc on OpenMP fork-join programs: parallel
//! sections closed by implicit barriers, with serial sections on the master
//! thread in between. Early arrivers at a barrier idle until the slowest
//! thread arrives; **Algorithm 3** measures that idle time per thread:
//!
//! ```text
//! idle[tid] = max(end[0..nthreads]) − end[tid]
//! ```
//!
//! This crate provides:
//!
//! * [`engine`] — a conservative discrete-event scheduler: among runnable
//!   threads, always advance the one with the smallest local clock (ties by
//!   thread index). Every run is bit-deterministic; contention emerges from
//!   the timing model, not from host-thread scheduling.
//! * [`program`] — fork-join program structure: alternating
//!   [`program::Section::Serial`] and [`program::Section::Parallel`]
//!   sections over a fixed set of [`engine::SimThread`]s.
//! * [`metrics`] — per-run results: benchmark runtime, per-thread parallel
//!   runtime, per-thread and total idle time — the paper's four metrics
//!   (§V.B).
//! * [`scheduler`] — a time-sliced round-robin scheduler for short-lived
//!   tasks arriving over simulated time: the multi-tenant churn harness
//!   that exercises the kernel's task-exit reclamation path.

//! ```
//! use tint_hw::machine::MachineConfig;
//! use tint_hw::types::CoreId;
//! use tint_spmd::{Op, Program, SectionBody, SimThread};
//! use tintmalloc::System;
//!
//! let mut sys = System::boot(MachineConfig::tiny());
//! let mut team = SimThread::spawn_all(&mut sys, &[CoreId(0), CoreId(1)]);
//! let bodies: Vec<Box<dyn SectionBody>> = vec![
//!     Box::new((0..3).map(|_| Op::Compute(100))),
//!     Box::new((0..1).map(|_| Op::Compute(100))),
//! ];
//! let m = Program::new().parallel(bodies).run(&mut sys, &mut team).unwrap();
//! assert_eq!(m.runtime, 300);
//! assert_eq!(m.thread_idle, vec![0, 200]); // Algorithm 3
//! ```

pub mod engine;
pub mod metrics;
pub mod program;
pub mod scheduler;

pub use engine::{run_section_dynamic, Op, SectionBody, SimThread};
pub use metrics::{RunMetrics, SectionOutcome};
pub use program::{Program, Section};
pub use scheduler::{ChurnOutcome, Job, PressureWindow, RoundRobin};
