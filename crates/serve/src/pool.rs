//! Permit pools: the server's two admission controls.
//!
//! - [`ConnectionLimiter`] caps concurrently served connections. The
//!   acceptor answers `503 + Retry-After` beyond it.
//! - [`AdmissionGate`] caps concurrently running propagations. A
//!   propagation runs on its own connection thread while it holds one
//!   of `workers` run permits. Up to `queue_capacity` more requests
//!   wait for one; past both, [`AdmissionGate::admit`] refuses at once
//!   and the caller answers `503 + Retry-After` instead of letting
//!   latency grow without bound. A waiter whose deadline passes is
//!   refused too, and the caller answers `408`.
//!
//! Permits are RAII: dropping one, on a normal exit or while a panic
//! unwinds, frees its slot, so no path can leak capacity.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Accept-side backpressure: a hard cap on concurrently served
/// connections.
///
/// The acceptor asks for a [`ConnectionPermit`] before spawning a
/// connection thread; at the cap it gets `None` and answers `503 +
/// Retry-After` inline instead of growing the thread count without
/// bound. The permit is RAII — dropping it (normal exit or panic of
/// the connection thread) releases the slot, so the count can never
/// leak.
#[derive(Debug)]
pub struct ConnectionLimiter {
    active: Arc<AtomicUsize>,
    max: usize,
}

impl ConnectionLimiter {
    /// A limiter admitting at most `max` concurrent connections
    /// (clamped to at least 1).
    pub fn new(max: usize) -> Self {
        Self { active: Arc::new(AtomicUsize::new(0)), max: max.max(1) }
    }

    /// Claims a connection slot, or `None` at the cap.
    pub fn try_acquire(&self) -> Option<ConnectionPermit> {
        let mut current = self.active.load(Ordering::Relaxed);
        loop {
            if current >= self.max {
                return None;
            }
            match self.active.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(ConnectionPermit { active: Arc::clone(&self.active) }),
                Err(now) => current = now,
            }
        }
    }

    /// Connections currently holding a permit.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// The configured cap.
    pub fn max(&self) -> usize {
        self.max
    }
}

/// An RAII claim on one connection slot; dropping it frees the slot.
#[derive(Debug)]
pub struct ConnectionPermit {
    active: Arc<AtomicUsize>,
}

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Why [`AdmissionGate::admit`] turned a request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Every run permit and every wait permit is taken: answer `503`.
    Full,
    /// The request waited for a run permit until its deadline passed:
    /// answer `408`.
    Deadline,
}

/// Permits held right now, guarded by one lock so that "both kinds
/// are taken" is an exact test.
#[derive(Debug, Default)]
struct Held {
    running: usize,
    waiting: usize,
}

/// Run-side backpressure: `workers` run permits plus `queue_capacity`
/// wait permits for the propagations that run on connection threads.
#[derive(Debug)]
pub struct AdmissionGate {
    held: Mutex<Held>,
    /// Signalled whenever a run permit is returned.
    freed: Condvar,
    run_slots: usize,
    wait_slots: usize,
}

/// Runs `f` on the gate's counts under their lock until `f` breaks
/// with an answer. When `f` continues with a duration, the lock is
/// released until `freed` is signalled or that duration has passed,
/// and `f` runs again under it: the condition-variable wait a queued
/// request needs lives here, so no guard ever reaches a caller.
///
/// A poisoned lock is recovered: the counts are consistent between
/// statements, and a panicking holder must not stop admission for
/// everyone else.
fn with<R>(
    m: &Mutex<Held>,
    freed: &Condvar,
    mut f: impl FnMut(&mut Held) -> ControlFlow<R, Duration>,
) -> R {
    let mut held = m.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        match f(&mut held) {
            ControlFlow::Break(answer) => return answer,
            ControlFlow::Continue(left) => {
                held = match freed.wait_timeout(held, left) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        }
    }
}

impl AdmissionGate {
    /// A gate with `workers` run permits and `queue_capacity` wait
    /// permits, both clamped to at least 1.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        Self {
            held: Mutex::new(Held::default()),
            freed: Condvar::new(),
            run_slots: workers.max(1),
            wait_slots: queue_capacity.max(1),
        }
    }

    /// Claims a run permit, waiting for one until `deadline` when all
    /// are taken.
    ///
    /// The wait permit lives only inside this call, which runs no
    /// caller code and returns it on every path.
    ///
    /// # Errors
    ///
    /// [`Refusal::Full`] at once when every run and wait permit is
    /// taken; [`Refusal::Deadline`] when `deadline` passes before a
    /// run permit frees up.
    pub fn admit(&self, deadline: Instant) -> Result<RunPermit<'_>, Refusal> {
        let mut queued = false;
        with(&self.held, &self.freed, |held| {
            if held.running < self.run_slots {
                held.running += 1;
                held.waiting -= usize::from(queued);
                return ControlFlow::Break(Ok(RunPermit { gate: self }));
            }
            if !queued {
                if held.waiting >= self.wait_slots {
                    return ControlFlow::Break(Err(Refusal::Full));
                }
                held.waiting += 1;
                queued = true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                held.waiting -= 1;
                return ControlFlow::Break(Err(Refusal::Deadline));
            }
            ControlFlow::Continue(left)
        })
    }

    /// Requests waiting for a run permit.
    pub fn waiting(&self) -> usize {
        with(&self.held, &self.freed, |held| ControlFlow::Break(held.waiting))
    }

    /// Run permits currently held.
    pub fn running(&self) -> usize {
        with(&self.held, &self.freed, |held| ControlFlow::Break(held.running))
    }
}

/// An RAII claim on one run permit; dropping it frees the permit and
/// wakes one waiter.
#[derive(Debug)]
pub struct RunPermit<'g> {
    gate: &'g AdmissionGate,
}

impl Drop for RunPermit<'_> {
    fn drop(&mut self) {
        with(&self.gate.held, &self.gate.freed, |held| {
            held.running -= 1;
            ControlFlow::Break(())
        });
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn connection_limiter_caps_and_releases_on_drop() {
        let limiter = ConnectionLimiter::new(2);
        let p1 = limiter.try_acquire().expect("first slot");
        let _p2 = limiter.try_acquire().expect("second slot");
        assert_eq!(limiter.active(), 2);
        assert!(limiter.try_acquire().is_none(), "cap reached");
        drop(p1);
        assert_eq!(limiter.active(), 1);
        assert!(limiter.try_acquire().is_some(), "slot reusable after drop");
        assert_eq!(limiter.max(), 2);
    }

    #[test]
    fn connection_limiter_is_race_free_under_contention() {
        let limiter = Arc::new(ConnectionLimiter::new(3));
        let admitted = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let limiter = Arc::clone(&limiter);
                let admitted = Arc::clone(&admitted);
                let peak = Arc::clone(&peak);
                scope.spawn(move || {
                    for _ in 0..200 {
                        if let Some(permit) = limiter.try_acquire() {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            peak.fetch_max(limiter.active(), Ordering::Relaxed);
                            drop(permit);
                        }
                    }
                });
            }
        });
        assert!(admitted.load(Ordering::Relaxed) > 0);
        assert!(peak.load(Ordering::Relaxed) <= 3, "cap never exceeded");
        assert_eq!(limiter.active(), 0, "every permit released");
    }

    fn in_secs(secs: u64) -> Instant {
        Instant::now() + Duration::from_secs(secs)
    }

    #[test]
    fn the_gate_refuses_past_both_permit_kinds_and_admits_the_waiter() {
        let gate = AdmissionGate::new(1, 1);
        let running = gate.admit(in_secs(60)).expect("run permit");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.admit(in_secs(60)).map(drop));
            while gate.waiting() < 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(gate.admit(in_secs(60)).map(drop), Err(Refusal::Full));
            drop(running);
            assert_eq!(waiter.join().expect("waiter joins"), Ok(()), "freed permit admits");
        });
        assert_eq!((gate.running(), gate.waiting()), (0, 0));
    }

    #[test]
    fn a_waiter_is_refused_at_its_deadline() {
        let gate = AdmissionGate::new(1, 4);
        let _running = gate.admit(in_secs(60)).expect("run permit");
        let sent = Instant::now();
        let refused = gate.admit(sent + Duration::from_millis(50)).map(drop);
        let waited = sent.elapsed();
        assert_eq!(refused, Err(Refusal::Deadline));
        assert!(waited >= Duration::from_millis(50), "refused early: {waited:?}");
        assert!(waited < Duration::from_secs(1), "refused late: {waited:?}");
        assert_eq!(gate.waiting(), 0, "the wait permit is returned");
    }

    #[test]
    fn a_panic_releases_the_run_permit() {
        let gate = AdmissionGate::new(1, 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.admit(in_secs(60)).expect("run permit");
            panic!("propagation exploded");
        }));
        assert!(outcome.is_err());
        assert_eq!(gate.running(), 0, "unwinding dropped the permit");
        let again = gate.admit(Instant::now()).expect("the permit is free again");
        assert_eq!(gate.running(), 1);
        drop(again);
    }
}
