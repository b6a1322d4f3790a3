//! Advisory exclusive lockfiles on the operating system's file lock.
//!
//! Two harness paths need cross-*process* mutual exclusion on a shared
//! file-system resource: journal generation GC ([`crate::journal::gc`])
//! must never run twice concurrently over the same store, and concurrent
//! `repro` processes finishing at the same time must not interleave their
//! read-merge-write of `BENCH_repro.json`. Both use the same primitive: an
//! exclusive, non-blocking [`File::try_lock`] on a lock file next to the
//! resource (`flock` on Linux, `LockFileEx` on Windows).
//!
//! The lock belongs to the open file, not to the path, so the kernel
//! drops it when the holder closes the file or dies, SIGKILL included: a
//! crashed holder leaves no lock behind, and no pid is recorded or probed.
//! The lock file itself is never unlinked (unlinking it would let a second
//! acquirer lock a fresh inode while the first still holds the old one),
//! and its contents are ignored, so a file left by any earlier scheme is
//! simply locked in place. Two handles opened separately conflict even
//! within one process. A live holder makes [`Lockfile::acquire`] fail
//! fast — callers choose whether to error out (GC) or wait briefly
//! ([`Lockfile::acquire_wait`], the BENCH_repro.json merge).

use std::fs::{File, TryLockError};
use std::path::Path;
use std::time::{Duration, Instant};

/// A held lock; dropping it closes the file, which releases the lock.
#[derive(Debug)]
pub struct Lockfile {
    _file: File,
}

impl Lockfile {
    /// Try to acquire `path` once. Returns `Err` with a human-readable
    /// reason when another handle holds the lock or the filesystem refuses
    /// the open.
    pub fn acquire(path: &Path) -> Result<Self, String> {
        let file = File::options()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        match file.try_lock() {
            Ok(()) => Ok(Self { _file: file }),
            Err(TryLockError::WouldBlock) => Err(format!("{} is held", path.display())),
            Err(TryLockError::Error(e)) => Err(format!("cannot lock {}: {e}", path.display())),
        }
    }

    /// [`Self::acquire`], retrying for up to `wait` while a live holder
    /// has the lock (10 ms poll). Returns the last error on timeout.
    pub fn acquire_wait(path: &Path, wait: Duration) -> Result<Self, String> {
        let deadline = Instant::now() + wait;
        loop {
            match Self::acquire(path) {
                Ok(l) => return Ok(l),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tint-lock-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn exclusive_while_held_released_on_drop() {
        let dir = scratch("excl");
        let path = dir.join("x.lock");
        let held = Lockfile::acquire(&path).expect("first acquire succeeds");
        // A live holder makes a second acquire fail fast.
        let err = Lockfile::acquire(&path).expect_err("held lock must refuse");
        assert!(err.contains("is held"), "{err}");
        drop(held);
        assert!(path.exists(), "the lock file is never unlinked");
        let _again = Lockfile::acquire(&path).expect("reacquire after drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_locks_are_taken_over() {
        let dir = scratch("stale");
        let path = dir.join("x.lock");
        // A dead pid: spawn a process and wait for it to exit.
        let dead_pid = std::process::Command::new("true")
            .spawn()
            .map(|mut c| {
                let pid = c.id();
                let _ = c.wait();
                pid
            })
            .expect("spawn true");
        std::fs::write(&path, format!("{dead_pid}\n")).unwrap();
        let _l = Lockfile::acquire(&path).expect("dead-pid lock is stale");
        drop(_l);
        // A garbled lock (unparsable pid) is also stale.
        std::fs::write(&path, "not-a-pid\n").unwrap();
        let _l = Lockfile::acquire(&path).expect("garbled lock is stale");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_acquirers_never_share_the_lock() {
        // Each thread opens its own handle, so the threads contend exactly
        // like separate processes. Each holder checks that nobody else is
        // inside.
        let dir = scratch("race");
        let path = dir.join("x.lock");
        let inside = std::sync::Arc::new(AtomicU32::new(0));
        let acquired = std::sync::Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (path, inside, acquired) = (path.clone(), inside.clone(), acquired.clone());
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let Ok(lock) = Lockfile::acquire(&path) else {
                            std::thread::yield_now();
                            continue;
                        };
                        let holders = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        assert_eq!(holders, 1, "two holders of {}", path.display());
                        acquired.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                        drop(lock);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("no worker saw a second holder");
        }
        assert!(
            acquired.load(Ordering::Relaxed) > 0,
            "somebody got the lock"
        );
        // The lock file stays (an unlinked one would let two acquirers lock
        // different inodes), and nothing else is left behind.
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 1, "nothing but the lock file itself");
        let _fresh = Lockfile::acquire(&path).expect("the last holder released the lock");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
