//! Kernel error codes, in the spirit of the paper's "mmap() will return an
//! error code indicating that no more pages of this color are available".

use std::fmt;

/// Error codes returned by the simulated system calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Errno {
    /// Out of memory — for colored allocations, *of that color* (§III.B).
    Enomem,
    /// Malformed argument (bad color id, bad mode bits, zero-length map
    /// without the color flag, ...).
    Einval,
    /// Unknown task.
    Esrch,
    /// Access to an unmapped virtual address (simulated SIGSEGV).
    Efault,
    /// Transient failure (e.g. an injected buddy-replenish fault): the
    /// operation mutated nothing and may be retried.
    Eagain,
}

impl Errno {
    /// Every error number, in declaration order.
    pub const ALL: [Errno; 5] = [
        Errno::Enomem,
        Errno::Einval,
        Errno::Esrch,
        Errno::Efault,
        Errno::Eagain,
    ];

    /// The conventional uppercase name (`"ENOMEM"`, ...), for table cells
    /// and machine-readable output.
    pub fn name(&self) -> &'static str {
        match self {
            Errno::Enomem => "ENOMEM",
            Errno::Einval => "EINVAL",
            Errno::Esrch => "ESRCH",
            Errno::Efault => "EFAULT",
            Errno::Eagain => "EAGAIN",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Errno::Enomem => "ENOMEM: no page of the requested color available",
            Errno::Einval => "EINVAL: malformed argument",
            Errno::Esrch => "ESRCH: no such task",
            Errno::Efault => "EFAULT: access to unmapped address",
            Errno::Eagain => "EAGAIN: transient failure, retry",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Errno::Enomem.to_string().contains("color"));
        assert!(Errno::Efault.to_string().contains("unmapped"));
        assert!(Errno::Eagain.to_string().contains("retry"));
    }

    #[test]
    fn name_is_the_display_prefix() {
        for e in [
            Errno::Enomem,
            Errno::Einval,
            Errno::Esrch,
            Errno::Efault,
            Errno::Eagain,
        ] {
            assert!(e.to_string().starts_with(e.name()));
        }
    }
}
