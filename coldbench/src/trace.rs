//! In-memory spans around the benchmark's own calls into the simulator.
//!
//! A span is a name, a tag (which benchmark or tenant stream it belongs
//! to), and a start and end offset from the trace epoch. Spans are only
//! recorded when tracing is on; the timed (untraced) runs never touch this
//! module's storage. A call that panics leaves no span.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; a disabled recorder ignores every call.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, tagged `tag`.
    pub fn span<R>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        self.spans.push(Span {
            name,
            tag,
            start_ns,
            end_ns: self.epoch.elapsed().as_nanos() as u64,
        });
        r
    }

    /// Summed duration of every span called `name` whose tag passes `tag`.
    pub fn total(&self, name: &str, tag: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag(s.tag))
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_sum_by_name_and_tag() {
        let mut t = Trace::new(true);
        t.span("core.boot", "lbm", || ());
        t.span("core.boot", "art", || ());
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.total("core.boot", |tag| tag == "lbm"), t.spans[0].secs());
        assert_eq!(t.total("core.boot", |tag| tag == "equake"), 0.0);
        assert_eq!(
            t.total("core.boot", |_| true),
            t.spans[0].secs() + t.spans[1].secs()
        );
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        assert_eq!(t.span("a", "x", || 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn a_panicking_call_leaves_no_span() {
        let mut t = Trace::new(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("a", "x", || panic!("boom"))
        }));
        assert!(r.is_err());
        assert!(t.spans.is_empty());
    }
}
