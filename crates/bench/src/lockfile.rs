//! Advisory exclusive-create lockfiles with stale-lock takeover.
//!
//! Two harness paths need cross-*process* mutual exclusion on a shared
//! file-system resource: journal generation GC ([`crate::journal::gc`])
//! must never run twice concurrently over the same store, and concurrent
//! `repro` processes finishing at the same time must not interleave their
//! read-merge-write of `BENCH_repro.json`. Both use the same primitive: a
//! lockfile whose contents are the holder's pid, published atomically. The
//! pid is written to a private temp file first, which is then hard-linked
//! to the lock path: `link` fails when the path exists (exactly one linker
//! wins), and the lock never exists without its pid, so a racing acquirer
//! cannot mistake a half-created lock for an unparsable, stale one.
//!
//! A crashed holder leaves the lockfile behind, so acquisition performs
//! *stale-lock takeover*: if the recorded pid no longer names a live
//! process (checked via `/proc/<pid>`; an unreadable or unparsable pid is
//! treated as stale too), the lock is deleted and acquisition retried.
//! A lock that disappears between the failed link and the pid read was
//! released, not abandoned: acquisition retries without deleting anything,
//! since a racing acquirer may already have linked a fresh lock there.
//! One window remains: two acquirers that both read a *dead* holder's pid
//! can each delete and relink, and the second deletes the first's fresh
//! lock. It needs a crashed holder and two simultaneous takers.
//! A live holder makes [`Lockfile::acquire`] fail fast — callers choose
//! whether to error out (GC) or wait briefly ([`Lockfile::acquire_wait`],
//! the BENCH_repro.json merge).
//!
//! The lock is released on [`Drop`], so an early return cannot leak it;
//! only a SIGKILL can, and that is exactly the case takeover handles.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A held lockfile; dropping it releases the lock.
#[derive(Debug)]
pub struct Lockfile {
    path: PathBuf,
}

/// Is `pid` a live process? Linux: `/proc/<pid>` exists. On non-Linux
/// hosts the check degrades to "assume live" so a lock is never stolen
/// from a process we cannot observe.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

impl Lockfile {
    /// Try to acquire `path` once (plus at most one stale-lock takeover).
    /// Returns `Err` with a human-readable reason when a live process
    /// holds the lock or the filesystem refuses the create.
    pub fn acquire(path: &Path) -> Result<Self, String> {
        for _ in 0..2 {
            match Self::publish(path) {
                Ok(()) => {
                    return Ok(Self {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = match std::fs::read_to_string(path) {
                        // Released since the link failed: retry, and never
                        // remove what a racing acquirer may have just linked.
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                        read => read.ok().and_then(|s| s.trim().parse::<u32>().ok()),
                    };
                    match holder {
                        Some(pid) if pid_alive(pid) => {
                            return Err(format!(
                                "{} is held by live process {pid}",
                                path.display()
                            ));
                        }
                        // Dead holder or unreadable/garbled lock: stale.
                        // Remove and retry the exclusive link once (a
                        // racing taker may beat us to recreation, which
                        // the second loop iteration reports honestly).
                        _ => {
                            let _ = std::fs::remove_file(path);
                        }
                    }
                }
                Err(e) => return Err(format!("cannot create {}: {e}", path.display())),
            }
        }
        Err(format!(
            "{} changed hands while acquiring it",
            path.display()
        ))
    }

    /// Create `path` holding this process's pid, failing with
    /// `AlreadyExists` when it is taken: stamp a temp file unique to this
    /// attempt, then hard-link it into place.
    fn publish(path: &Path) -> std::io::Result<()> {
        static ATTEMPT: AtomicU64 = AtomicU64::new(0);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            ATTEMPT.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = PathBuf::from(tmp);
        let linked = std::fs::write(&tmp, format!("{}\n", std::process::id()))
            .and_then(|()| std::fs::hard_link(&tmp, path));
        let _ = std::fs::remove_file(&tmp);
        linked
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

    /// The lockfile's path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Lockfile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Our own pid is alive, so a second acquire must fail fast.
        let err = Lockfile::acquire(&path).expect_err("held lock must refuse");
        assert!(err.contains("held by live process"), "{err}");
        drop(held);
        assert!(!path.exists(), "drop releases the lock");
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
        // Threads of one process share a pid, so a live holder always
        // reads as live: any second holder means the lock was taken over
        // while it was held (the pid-less window of a create-then-write
        // lock). Each holder checks that nobody else is inside.
        let dir = scratch("race");
        let path = dir.join("x.lock");
        let inside = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
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
        assert!(!path.exists(), "the last holder released the lock");
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 0, "no temp stamp files left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
