//! Run metrics: the paper's four measurements (§V.B).
//!
//! *"We measured the benchmark's runtime, total idle time, runtime per
//! thread, and idle time per thread."*

/// Outcome of one parallel section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionOutcome {
    /// Cycle at which the section started (all threads aligned).
    pub start: u64,
    /// Per-thread end times.
    pub end: Vec<u64>,
    /// Barrier time = max(end).
    pub barrier: u64,
}

impl SectionOutcome {
    /// Build from a section's start time and per-thread end times.
    pub fn new(start: u64, end: Vec<u64>) -> Self {
        let barrier = end.iter().copied().max().unwrap_or(start);
        Self {
            start,
            end,
            barrier,
        }
    }

    /// Per-thread idle time at this section's barrier (Algorithm 3).
    pub fn idle(&self) -> Vec<u64> {
        self.end.iter().map(|&e| self.barrier - e).collect()
    }

    /// Per-thread busy time in this section.
    pub fn busy(&self) -> Vec<u64> {
        self.end.iter().map(|&e| e - self.start).collect()
    }
}

/// Aggregated metrics of one benchmark run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Number of worker threads.
    pub threads: usize,
    /// Benchmark runtime: cycles from program start to last barrier/serial end.
    pub runtime: u64,
    /// Per-thread busy time accumulated over all parallel sections.
    pub thread_runtime: Vec<u64>,
    /// Per-thread idle time accumulated over all parallel-section barriers.
    pub thread_idle: Vec<u64>,
    /// Cycles spent in serial sections (master only).
    pub serial_cycles: u64,
    /// Number of parallel sections executed.
    pub parallel_sections: usize,
}

impl RunMetrics {
    /// Empty metrics for `threads` threads.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            runtime: 0,
            thread_runtime: vec![0; threads],
            thread_idle: vec![0; threads],
            serial_cycles: 0,
            parallel_sections: 0,
        }
    }

    /// Fold one parallel section into the totals.
    pub fn add_section(&mut self, s: &SectionOutcome) {
        assert_eq!(s.end.len(), self.threads);
        for (acc, b) in self.thread_runtime.iter_mut().zip(s.busy()) {
            *acc += b;
        }
        for (acc, i) in self.thread_idle.iter_mut().zip(s.idle()) {
            *acc += i;
        }
        self.parallel_sections += 1;
    }

    /// Total idle time over all threads.
    pub fn total_idle(&self) -> u64 {
        self.thread_idle.iter().sum()
    }

    /// Slowest thread's accumulated parallel runtime.
    pub fn max_thread_runtime(&self) -> u64 {
        self.thread_runtime.iter().copied().max().unwrap_or(0)
    }

    /// Fastest thread's accumulated parallel runtime.
    pub fn min_thread_runtime(&self) -> u64 {
        self.thread_runtime.iter().copied().min().unwrap_or(0)
    }

    /// Largest accumulated per-thread idle.
    pub fn max_thread_idle(&self) -> u64 {
        self.thread_idle.iter().copied().max().unwrap_or(0)
    }

    /// The max−min spread of thread runtimes: the paper's imbalance measure
    /// ("difference in maximum thread running time and minimum thread
    /// running time").
    pub fn runtime_spread(&self) -> u64 {
        self.max_thread_runtime() - self.min_thread_runtime()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_outcome_idle_and_busy() {
        let s = SectionOutcome::new(100, vec![300, 500, 400]);
        assert_eq!(s.barrier, 500);
        assert_eq!(s.idle(), vec![200, 0, 100]);
        assert_eq!(s.busy(), vec![200, 400, 300]);
    }

    #[test]
    fn metrics_accumulate_over_sections() {
        let mut m = RunMetrics::new(2);
        m.add_section(&SectionOutcome::new(0, vec![100, 300]));
        m.add_section(&SectionOutcome::new(300, vec![500, 400]));
        assert_eq!(m.thread_runtime, vec![300, 400]);
        assert_eq!(m.thread_idle, vec![200, 100]);
        assert_eq!(m.total_idle(), 300);
        assert_eq!(m.parallel_sections, 2);
        assert_eq!(m.max_thread_runtime(), 400);
        assert_eq!(m.min_thread_runtime(), 300);
        assert_eq!(m.runtime_spread(), 100);
        assert_eq!(m.max_thread_idle(), 200);
    }

    #[test]
    fn empty_section_barrier_is_start() {
        let s = SectionOutcome::new(42, vec![]);
        assert_eq!(s.barrier, 42);
    }
}
