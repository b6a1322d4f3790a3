//! # tint-workloads — the paper's benchmarks as access-pattern emulators
//!
//! The evaluation (§V) uses a synthetic microbenchmark plus the six OpenMP
//! benchmarks available in SPEC 2006 and Parsec: **lbm**, **art**,
//! **equake**, **bodytrack**, **freqmine**, **blackscholes**. Running the
//! originals requires their inputs and an OpenMP runtime on real hardware;
//! this reproduction instead emulates each benchmark's *memory character* —
//! working-set size, access regularity, data reuse, sharing, serial
//! fraction, and allocation dynamics — which is what the paper's own
//! analysis (§V.B) attributes the results to. DESIGN.md records the
//! per-benchmark parameter rationale.
//!
//! * [`config`] — the paper's five thread/node pinning configurations
//!   (`16_threads_4_nodes` … `4_threads_1_nodes`).
//! * [`patterns`] — reusable access-stream iterators (sequential sweeps,
//!   uniform random taps, the Fig. 10 alternating-stride pattern,
//!   interleavings).
//! * [`synthetic`] — the Fig. 10 microbenchmark.
//! * [`lbm`], [`art`], [`equake`], [`bodytrack`], [`freqmine`],
//!   [`blackscholes`] — the six benchmark emulators.
//! * [`chunk_queue`] — the imbalanced chunk queue of the scheduling
//!   ablation, statically or dynamically scheduled.
//! * [`churn`] — the multi-tenant arrival/exit stream for the round-robin
//!   scheduler (not a paper benchmark; the reclamation observability
//!   harness of ROADMAP item 1).
//! * [`soak`] — `churn`'s over-committed sibling: sustained pressure,
//!   heavy-tailed lifetimes, armed fault injection — the survival harness
//!   for watermarks, backoff, and the OOM killer.
//! * [`traits`] — the [`traits::Workload`] interface and the benchmark
//!   registry.
//! * [`fingerprint`] — the in-tree FNV/SplitMix hasher behind
//!   [`traits::Workload::fingerprint`] (content-addressed cell caching).

pub mod art;
pub mod blackscholes;
pub mod bodytrack;
pub mod chunk_queue;
pub mod churn;
pub mod config;
pub mod equake;
pub mod fingerprint;
pub mod freqmine;
pub mod lbm;
pub mod patterns;
pub mod soak;
pub mod synthetic;
pub mod traits;

pub use chunk_queue::ChunkQueue;
pub use churn::ChurnConfig;
pub use config::PinConfig;
pub use soak::SoakConfig;
pub use synthetic::Synthetic;
pub use traits::{all_benchmarks, Workload};
