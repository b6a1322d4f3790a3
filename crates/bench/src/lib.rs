//! # tint-bench — the experiment harness
//!
//! Regenerates every results figure of the TintMalloc paper (Figures 10–14
//! plus the latency claims of §V and the ablations listed in DESIGN.md).
//! The `repro` binary prints each figure's rows. Host-time performance is
//! measured by the cold benchmark in `coldbench/`, which drives the
//! simulator crates directly.
//!
//! EXPERIMENTS.md records the paper-vs-measured comparison produced by
//! `cargo run --release -p tint-bench --bin repro -- all`.
//!
//! Every figure is a list of cells ([`cell`]), and all simulation flows
//! through one [`Harness`], a value built from a [`RunConfig`] that owns
//! three layers: the content-addressed cell cache ([`runner::CellCache`],
//! dedup across figures within one run), the multi-process cell farm ([`journal`], sharded crash-safe on-disk store: exact resume
//! of a killed run, lock-free concurrent writers, generation GC), and the
//! flattened matrix executor ([`Harness::run_cells`], `--jobs`-way work
//! queue with panic-isolated workers). Figure output is byte-identical
//! with the cache/journal on or off and at any job count.

pub mod benchjson;
pub mod cell;
pub mod figures;
pub mod hostfault;
pub mod journal;
pub mod lockfile;
pub mod runner;
pub mod table;

pub use cell::{CellSpec, ExpResult};
pub use runner::{Harness, RunConfig, Summary};
pub use table::Table;
