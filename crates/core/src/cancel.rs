//! Cooperative cancellation for long-running link work.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between a run (the
//! simulator slot loop, the controller's maintenance rounds, a training
//! scan) and its supervisor (a watchdog thread enforcing a wall-clock
//! deadline, or a test harness enforcing a deterministic tick budget). The
//! supervisor flips the flag; the run notices at its next *checkpoint* and
//! unwinds with the dedicated [`CancelUnwind`] payload, which the
//! supervisor's `catch_unwind` recognises and classifies as a timeout
//! rather than a crash.
//!
//! Two cancellation sources compose in one token:
//!
//! - **Asynchronous** — [`CancelToken::cancel`], typically called from a
//!   watchdog thread when a run exceeds its wall-clock deadline. Inherently
//!   non-deterministic (it depends on host scheduling), which is fine for
//!   supervision but useless for replay.
//! - **Tick budget** — [`CancelToken::with_tick_budget`] caps the number of
//!   maintenance ticks the run may consume. Fully deterministic: replaying
//!   the same seed under the same budget cancels at exactly the same
//!   simulated instant, which is how recorded timeouts are reproduced
//!   single-threaded for debugging.
//!
//! Checkpoints are cooperative: code that can run long polls
//! [`CancelToken::is_cancelled`] (or the front-end hook
//! [`crate::frontend::LinkFrontEnd::cancel_requested`]) at natural
//! boundaries — once per data slot, once per maintenance round, once per
//! training probe — and calls [`bail`] when set. A token default-constructed
//! with [`CancelToken::new`] is inert: never cancelled, no budget, and its
//! checks are two relaxed atomic loads, cheap enough for the per-slot hot
//! path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel tick budget meaning "unlimited".
const NO_BUDGET: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    tick_budget: AtomicU64,
    ticks: AtomicU64,
}

/// A shared cancellation handle (see the module docs).
///
/// Cloning is cheap and every clone observes the same state; the token a
/// supervisor keeps and the token threaded into the simulator are the same
/// logical object.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// An inert token: never cancelled unless [`CancelToken::cancel`] is
    /// called, with no tick budget.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                tick_budget: AtomicU64::new(NO_BUDGET),
                ticks: AtomicU64::new(0),
            }),
        }
    }

    /// A token that cancels deterministically once `budget` maintenance
    /// ticks have been consumed (see [`CancelToken::note_tick`]).
    pub fn with_tick_budget(budget: u64) -> Self {
        let t = Self::new();
        t.inner.tick_budget.store(budget, Ordering::Relaxed);
        t
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once cancellation has been requested (asynchronously or by an
    /// exhausted tick budget).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self.inner.ticks.load(Ordering::Relaxed)
                >= self.inner.tick_budget.load(Ordering::Relaxed)
    }

    /// Records one consumed maintenance tick. Called by the run loop at
    /// every tick; once the count reaches the budget, the token reads as
    /// cancelled.
    pub fn note_tick(&self) {
        self.inner.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Maintenance ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// The cooperative checkpoint: unwinds with [`CancelUnwind`] when the
    /// token is cancelled, otherwise returns immediately.
    pub fn checkpoint(&self) {
        if self.is_cancelled() {
            bail();
        }
    }
}

/// The panic payload a cooperative cancellation unwinds with. Supervisors
/// downcast the payload of a caught unwind to this type to distinguish "the
/// run was cancelled at a checkpoint" (a timeout, retryable) from "the run
/// crashed" (a genuine panic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelUnwind;

impl std::fmt::Display for CancelUnwind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("run cancelled at a cooperative checkpoint")
    }
}

/// Unwinds the current run with the [`CancelUnwind`] payload.
pub fn bail() -> ! {
    std::panic::panic_any(CancelUnwind);
}

/// True when a caught unwind payload is a cooperative cancellation (and not
/// a genuine panic).
pub fn is_cancel_unwind(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<CancelUnwind>().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_inert() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.checkpoint(); // must not unwind
        for _ in 0..1000 {
            t.note_tick();
        }
        assert!(!t.is_cancelled(), "no budget: ticks never cancel");
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn tick_budget_cancels_deterministically() {
        let t = CancelToken::with_tick_budget(3);
        for _ in 0..2 {
            t.note_tick();
            assert!(!t.is_cancelled());
        }
        t.note_tick();
        assert!(t.is_cancelled());
        assert_eq!(t.ticks(), 3);
    }

    #[test]
    fn checkpoint_unwinds_with_the_cancel_payload() {
        let t = CancelToken::new();
        t.cancel();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.checkpoint()))
            .expect_err("must unwind");
        assert!(is_cancel_unwind(err.as_ref()));
        // A plain panic is not a cancellation.
        let err = std::panic::catch_unwind(|| panic!("boom")).expect_err("must unwind");
        assert!(!is_cancel_unwind(err.as_ref()));
    }
}
