//! The [`Workload`] interface and the benchmark registry.

use tint_spmd::{Program, SimThread};
use tintmalloc::System;

/// A benchmark emulator: given the booted system and the thread team,
/// allocate its data and produce the fork-join program to run.
///
/// `Sync` so the harness can fan independent repetitions out across host
/// threads (each repetition builds its own `System`; the workload itself is
/// immutable configuration).
pub trait Workload: Sync {
    /// Benchmark name as the paper prints it (e.g. `"lbm"`).
    fn name(&self) -> &'static str;

    /// Stable content fingerprint of the full parameter set (see
    /// [`crate::fingerprint::Fingerprint`]). Contract: two workloads with
    /// equal fingerprints must build identical programs for every
    /// `(sys, threads, seed)` — the workload enters a `tint-bench` cell's
    /// key (machine, team, fingerprint, seed) only through it, so a
    /// parameter that influences the access stream but is missing from the
    /// fingerprint would silently alias distinct cells, in memory and in
    /// the on-disk journal. Implementations hash the type name plus every
    /// public field.
    fn fingerprint(&self) -> u64;

    /// Build the program. `seed` varies across the paper's 10 repetitions
    /// (it perturbs random access streams; physical-layout jitter comes from
    /// boot noise applied by the harness before building).
    ///
    /// Implementations allocate per-thread data with each thread's own
    /// `malloc` (first-touch by owner happens inside the measured sections)
    /// and shared data with the master thread's `malloc`.
    fn build(
        &self,
        sys: &mut System,
        threads: &[SimThread],
        seed: u64,
    ) -> Result<Program<'static>, tint_kernel::Errno>;
}

/// Scale factor applied to all workload sizes (1.0 = defaults documented in
/// DESIGN.md; the harness exposes `--scale`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Scale a byte count, keeping page alignment and a sane floor.
    pub fn bytes(self, base: u64) -> u64 {
        let v = (base as f64 * self.0) as u64;
        v.max(8 * 4096).next_multiple_of(4096)
    }

    /// Scale an iteration count with a floor of 1.
    pub fn count(self, base: u64) -> u64 {
        ((base as f64 * self.0) as u64).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

/// All six paper benchmarks at a given scale, in the paper's figure order.
pub fn all_benchmarks(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::bodytrack::Bodytrack::new(scale)),
        Box::new(crate::freqmine::Freqmine::new(scale)),
        Box::new(crate::blackscholes::Blackscholes::new(scale)),
        Box::new(crate::lbm::Lbm::new(scale)),
        Box::new(crate::art::Art::new(scale)),
        Box::new(crate::equake::Equake::new(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_six() {
        let names: Vec<_> = all_benchmarks(Scale::default())
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "bodytrack",
                "freqmine",
                "blackscholes",
                "lbm",
                "art",
                "equake"
            ]
        );
    }

    #[test]
    fn every_benchmark_runs_and_is_deterministic_at_min_scale() {
        use tint_hw::machine::MachineConfig;
        use tint_hw::types::CoreId;
        use tint_spmd::SimThread;
        use tintmalloc::System;

        for w in all_benchmarks(Scale(0.001)) {
            let run = |seed: u64| {
                let mut sys = System::boot(MachineConfig::tiny());
                let mut threads = SimThread::spawn_all(&mut sys, &[CoreId(0), CoreId(2)]);
                let p = w.build(&mut sys, &threads, seed).unwrap();
                p.run(&mut sys, &mut threads).unwrap()
            };
            let a = run(7);
            let b = run(7);
            assert_eq!(a, b, "{} must be deterministic", w.name());
            assert!(a.runtime > 0, "{} must do work", w.name());
            assert_eq!(a.threads, 2);
        }
    }

    #[test]
    fn scale_floors_and_aligns() {
        let s = Scale(0.001);
        assert_eq!(s.bytes(1 << 20) % 4096, 0);
        assert!(s.bytes(1 << 20) >= 8 * 4096);
        assert_eq!(s.count(100), 1);
        let s2 = Scale(2.0);
        assert_eq!(s2.count(100), 200);
        assert_eq!(s2.bytes(1 << 20), 2 << 20);
    }
}
