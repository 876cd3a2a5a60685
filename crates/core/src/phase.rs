//! Per-request phase instrumentation: where a serving request's time goes.
//!
//! The serve-latency work splits a request's wall time into four disjoint
//! phases so the warm-inventory and optimized-cache wins are *measured*,
//! not asserted:
//!
//! - **generation** — sentinel topology sampling, orientation, operator
//!   population, anonymization and shuffling inside
//!   [`crate::ObfuscationSession::next_frame`], *excluding* the semantic
//!   scoring below;
//! - **semantic-check** — the bigram log-likelihood scoring pass inside
//!   [`crate::operators::populate`] (Algorithm 2's filter step), tracked
//!   separately because it dominates population on large assignment sets;
//! - **optimization** — worker-pool time spent in the optimizer on this
//!   request's members ([`crate::serve::RequestHandle`]);
//! - **wire** — encoding/decoding multiplexed frames on the handle's
//!   byte-stream entry points.
//!
//! Semantic time is accumulated in a thread-local counter because the
//! scoring happens several layers below the session (inside `populate`),
//! and threading a timer through every call signature would put a
//! measurement concern in the protocol API. The session reads the counter
//! before and after generating a bucket; the delta is that bucket's
//! semantic share, and generation time is reported net of it, keeping the
//! phases disjoint.

use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static SEMANTIC_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds of semantic-check (bigram scoring) time accumulated on the
/// *current thread* since it started. Monotonic; callers measure deltas.
pub fn semantic_ns() -> u64 {
    SEMANTIC_NS.with(|c| c.get())
}

/// Runs `f`, adding its wall time to the current thread's semantic-check
/// counter.
pub(crate) fn time_semantic<T>(f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    SEMANTIC_NS.with(|c| c.set(c.get().saturating_add(elapsed)));
    out
}

/// A per-request phase breakdown in nanoseconds. Phases are disjoint:
/// `generation_ns` excludes the semantic share measured inside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Sentinel generation (sampling, population, sealing), net of the
    /// semantic-check share.
    pub generation_ns: u64,
    /// Bigram semantic scoring inside operator population.
    pub semantic_ns: u64,
    /// Optimizer time spent on this request's members in the worker pool.
    pub optimization_ns: u64,
    /// Wire encode/decode time on the request's byte-stream entry points.
    pub wire_ns: u64,
}

impl PhaseBreakdown {
    /// Sums two breakdowns phase by phase (e.g. the owner-side session's
    /// phases plus the optimizer-side handle's phases of one request).
    pub fn merged(self, other: PhaseBreakdown) -> PhaseBreakdown {
        PhaseBreakdown {
            generation_ns: self.generation_ns.saturating_add(other.generation_ns),
            semantic_ns: self.semantic_ns.saturating_add(other.semantic_ns),
            optimization_ns: self.optimization_ns.saturating_add(other.optimization_ns),
            wire_ns: self.wire_ns.saturating_add(other.wire_ns),
        }
    }

    /// Total instrumented time across all phases.
    pub fn total_ns(&self) -> u64 {
        self.generation_ns
            .saturating_add(self.semantic_ns)
            .saturating_add(self.optimization_ns)
            .saturating_add(self.wire_ns)
    }

    /// A phase value in milliseconds (for reporting).
    pub fn ms(ns: u64) -> f64 {
        ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantic_counter_accumulates_on_this_thread() {
        let before = semantic_ns();
        let out = time_semantic(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        let delta = semantic_ns() - before;
        assert!(delta >= 1_000_000, "measured only {delta}ns");
        // other threads' counters are independent
        let other = std::thread::spawn(semantic_ns).join().unwrap();
        assert_eq!(other, 0);
    }

    #[test]
    fn breakdown_merges_and_totals() {
        let a = PhaseBreakdown {
            generation_ns: 10,
            semantic_ns: 20,
            optimization_ns: 0,
            wire_ns: 1,
        };
        let b = PhaseBreakdown {
            optimization_ns: 5,
            wire_ns: 4,
            ..Default::default()
        };
        let m = a.merged(b);
        assert_eq!(m.generation_ns, 10);
        assert_eq!(m.optimization_ns, 5);
        assert_eq!(m.wire_ns, 5);
        assert_eq!(m.total_ns(), 40);
        assert!((PhaseBreakdown::ms(2_000_000) - 2.0).abs() < 1e-9);
    }
}
