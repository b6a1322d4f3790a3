//! The imbalanced chunk queue of the scheduling ablation (not a paper
//! benchmark), run statically or dynamically scheduled.

use crate::patterns::Seq;
use crate::traits::{Scale, Workload};
use tint_spmd::{Program, SectionBody, SimThread};
use tintmalloc::System;

/// 256 fine-grained chunks, each a sequential read/write sweep of its own
/// allocation, owned round-robin by the team. Every fourth group of 16
/// chunks holds double-size chunks: work imbalance a static `omp for`
/// cannot fix, while the dynamic queue's tail stays one small chunk.
#[derive(Debug, Clone)]
pub struct ChunkQueue {
    /// Size of a small chunk, in bytes.
    pub chunk_bytes: u64,
    /// Hand chunks out one at a time from a shared queue (`true`) or as
    /// one contiguous block per thread (`false`).
    pub dynamic: bool,
}

impl ChunkQueue {
    /// Default chunk size (64 KiB) at the given scale.
    pub fn new(scale: Scale, dynamic: bool) -> Self {
        Self {
            chunk_bytes: scale.bytes(64 << 10),
            dynamic,
        }
    }
}

impl Workload for ChunkQueue {
    fn name(&self) -> &'static str {
        "chunk-queue"
    }

    fn fingerprint(&self) -> u64 {
        crate::fingerprint::Fingerprint::new(self.name())
            .u64(self.chunk_bytes)
            .u32(self.dynamic as u32)
            .finish()
    }

    fn build(
        &self,
        sys: &mut System,
        threads: &[SimThread],
        _seed: u64,
    ) -> Result<Program<'static>, tint_kernel::Errno> {
        let line = sys.machine().mapping.line_size();
        let mut chunks = Vec::with_capacity(256);
        for i in 0..256u64 {
            let len = if (i / 16) % 4 == 0 {
                2 * self.chunk_bytes
            } else {
                self.chunk_bytes
            };
            let owner = threads[i as usize % threads.len()].tid;
            chunks.push(Seq::new(sys.malloc(owner, len)?, len, line, 1, 4, 2));
        }
        Ok(if self.dynamic {
            let bodies = chunks
                .into_iter()
                .map(|c| Box::new(c) as Box<dyn SectionBody>);
            Program::new().parallel_dynamic(bodies.collect())
        } else {
            // Static: contiguous blocks of chunks, one block per thread,
            // each thread sweeping its block back to back.
            let block = chunks.len() / threads.len();
            let mut chunks = chunks.into_iter();
            let bodies = (0..threads.len()).map(|_| {
                let mine: Vec<Seq> = chunks.by_ref().take(block).collect();
                Box::new(mine.into_iter().flatten()) as Box<dyn SectionBody>
            });
            Program::new().parallel(bodies.collect())
        })
    }
}
