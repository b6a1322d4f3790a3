//! Deterministic *host*-fault schedules.
//!
//! The simulated kernel has a seeded `FaultPlan`; this is the same idea one
//! layer up: make the *harness's own* failure paths fire on a
//! deterministic schedule so every recovery path is exercised by ordinary
//! tests instead of waiting for a real crash. A [`HostFaultPlan`] is a pure
//! value — index `n` faults iff `SplitMix64(seed ⊕ mix(n))` lands below
//! `permille`/1000 — and whoever owns an index counter consults it. Two
//! modes exist:
//!
//! * **`panic:<permille>:<seed>`** — the [`crate::runner::Harness`] counts
//!   cell attempts and panics at the top of attempt `n` when
//!   [`HostFaultPlan::panics`] says so, exercising catch_unwind isolation,
//!   requeue and poisoned-cell accounting. Retries are new attempts with
//!   fresh draws, so at moderate rates a retried cell almost always
//!   succeeds, while `permille=1000` defeats every retry.
//!
//! * **`io:<permille>:<seed>`** — the [`crate::journal`]'s io shim counts
//!   its filesystem operations (create, append, truncate, sync, rename)
//!   and fails operation `n` with the [`HostFaultPlan::io_fault`] it draws:
//!   ENOSPC/EIO-shaped errors and *short writes* (the entry prefix lands
//!   on disk, then the write "fails"), exercising the journal's
//!   degradation contract. Worker threads never panic in this mode. With
//!   `--jobs 1` (one appender) the schedule is fully deterministic.
//!
//! A plan is part of a run's configuration (`TINT_HOST_FAULT`), so each
//! harness carries its own schedule. The journal's kill point
//! (`Journal::set_io_abort_at`) panics its `n`-th io operation with
//! [`IO_ABORT_MARKER`], simulating a SIGKILL at that filesystem step.

use tint_hw::rng::SplitMix64;

/// Marker embedded in injected panic payloads, to tell injected faults
/// from real bugs.
pub const PANIC_MARKER: &str = "injected host fault";

/// Marker embedded in the panic simulating a kill at an io operation.
pub const IO_ABORT_MARKER: &str = "injected io kill point";

/// Which harness layer a fault plan targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Worker threads panic at the top of cell attempts.
    Panic,
    /// Journal filesystem operations fail (errors + short writes).
    Io,
}

/// One armed fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFaultPlan {
    /// The targeted layer.
    pub mode: FaultMode,
    /// Per-mille fault probability per attempt/operation (0..=1000).
    pub per_mille: u16,
    /// Seed of the attempt-indexed SplitMix64 schedule.
    pub seed: u64,
}

impl HostFaultPlan {
    /// Parse `panic:<permille>:<seed>` or `io:<permille>:<seed>` (the
    /// `TINT_HOST_FAULT` syntax; permille is at most 1000).
    pub fn parse(s: &str) -> Result<Self, String> {
        let bad = || {
            format!(
                "{s:?} is not panic:<permille>:<seed> or io:<permille>:<seed> (permille <= 1000)"
            )
        };
        let [mode, per_mille, seed] = s.split(':').collect::<Vec<_>>()[..] else {
            return Err(bad());
        };
        let mode = match mode {
            "panic" => FaultMode::Panic,
            "io" => FaultMode::Io,
            _ => return Err(bad()),
        };
        Ok(Self {
            mode,
            per_mille: per_mille
                .parse()
                .ok()
                .filter(|&p| p <= 1000)
                .ok_or_else(bad)?,
            seed: seed.parse().map_err(|_| bad())?,
        })
    }

    /// The draw for attempt/operation `n`: the generator, positioned after
    /// the firing draw, when `n` faults. Consecutive indices are
    /// decorrelated by mixing `n` into the seed with the SplitMix64
    /// increment.
    fn draw(&self, n: u64) -> Option<SplitMix64> {
        let mut rng = SplitMix64::new(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (rng.gen_range(1000) < self.per_mille as u64).then_some(rng)
    }

    /// Does cell attempt `n` panic? Never under an `io:` plan.
    pub fn panics(&self, n: u64) -> bool {
        self.mode == FaultMode::Panic && self.draw(n).is_some()
    }

    /// The fault scheduled for journal io operation `n`, if any. Never
    /// under a `panic:` plan.
    pub fn io_fault(&self, n: u64) -> Option<IoFault> {
        if self.mode != FaultMode::Io {
            return None;
        }
        Some(match self.draw(n)?.gen_range(3) {
            0 => IoFault::ShortWrite,
            1 => IoFault::NoSpace,
            _ => IoFault::Io,
        })
    }
}

/// What an injected io fault looks like to the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Write a prefix of the buffer, then report failure (torn entry).
    ShortWrite,
    /// `ENOSPC` — the disk is full.
    NoSpace,
    /// `EIO` — a host I/O error.
    Io,
}

impl IoFault {
    /// The `std::io::Error` this fault presents as (`ShortWrite` callers
    /// report the error *after* writing the prefix).
    pub fn as_error(self) -> std::io::Error {
        match self {
            // Raw errnos (Linux): 28 = ENOSPC, 5 = EIO. ShortWrite is
            // surfaced as ENOSPC — the classic torn-append cause.
            IoFault::ShortWrite | IoFault::NoSpace => std::io::Error::from_raw_os_error(28),
            IoFault::Io => std::io::Error::from_raw_os_error(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_syntax() {
        assert_eq!(
            HostFaultPlan::parse("panic:250:42"),
            Ok(HostFaultPlan {
                mode: FaultMode::Panic,
                per_mille: 250,
                seed: 42
            })
        );
        assert_eq!(
            HostFaultPlan::parse("io:1000:7"),
            Ok(HostFaultPlan {
                mode: FaultMode::Io,
                per_mille: 1000,
                seed: 7
            })
        );
        assert_eq!(
            HostFaultPlan::parse("io:0:0"),
            Ok(HostFaultPlan {
                mode: FaultMode::Io,
                per_mille: 0,
                seed: 0
            })
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            // Unknown modes (and the empty string, whose mode is "").
            "oom:1:2",
            "",
            ":1:2",
            "IO:1:2",
            "panic ",
            // Missing fields.
            "panic",
            "panic:1",
            "io",
            "io:500",
            // Malformed permille.
            "panic:x:1",
            "io::1",
            "panic:-1:1",
            "io:1.5:1",
            // Out-of-range permille.
            "panic:1001:1",
            "io:99999:1",
            // Malformed seed and trailing fields.
            "panic:1:x",
            "io:1:",
            "panic:1:2:3",
            "io:1:2:extra",
        ] {
            assert!(
                HostFaultPlan::parse(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn io_schedule_is_deterministic_and_mode_scoped() {
        // Two identical passes over the op indices draw identical faults.
        let plan = HostFaultPlan {
            mode: FaultMode::Io,
            per_mille: 500,
            seed: 99,
        };
        let a: Vec<Option<IoFault>> = (0..64).map(|n| plan.io_fault(n)).collect();
        let b: Vec<Option<IoFault>> = (0..64).map(|n| plan.io_fault(n)).collect();
        assert_eq!(a, b, "the io schedule must be seed-deterministic");
        assert!(a.iter().any(|f| f.is_some()), "permille=500 must fire");
        assert!(a.iter().any(|f| f.is_none()), "permille=500 must also pass");

        // An io plan never panics workers, and a panic plan never faults io.
        assert!((0..64).all(|n| !plan.panics(n)));
        let panic_plan = HostFaultPlan {
            mode: FaultMode::Panic,
            per_mille: 1000,
            seed: 1,
        };
        assert!((0..64).all(|n| panic_plan.panics(n)));
        assert!((0..64).all(|n| panic_plan.io_fault(n).is_none()));
    }
}
