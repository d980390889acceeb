//! The scheduler contract, re-checked on a worn queue.
//!
//! The unit tests in [`crate::events`] check each law of DESIGN.md's
//! "Scheduler contract" on a fresh [`EventQueue`], where every id sits in
//! the retirement ring's first word. The system's queue is rarely in that
//! state: after a few thousand misses it has issued and retired many ids,
//! and under a `crash=` plan one far-future `ControllerCrash` stays pending
//! for the whole run and pins the ring's front. The tests here check the
//! same laws on such a queue: one far-future event pending, thousands of
//! ids issued and cancelled behind it, and the clock still at
//! [`Time::ZERO`].
//!
//! The tests keep the names they had when the contract was pinned on
//! the timing wheel that [`EventQueue`] replaced; the contract's
//! cancel-then-pop example lives on [`EventQueue::cancel`].

#[cfg(test)]
use crate::events::{EventId, EventQueue};
#[cfg(test)]
use crate::time::{Duration, Time};

/// Schedule/cancel pairs run behind the pinning event by [`worn`].
#[cfg(test)]
const WARM: u64 = 5_000;

#[cfg(test)]
fn at(ns: u64) -> Time {
    Time::ZERO + Duration::from_nanos(ns)
}

/// Past every time the tests schedule, as a crash past the run's end is.
#[cfg(test)]
fn far() -> Time {
    at(u64::MAX / 2_000)
}

/// A queue holding one pending event at [`far`], carrying `pin`, behind
/// which [`WARM`] pairs of events were scheduled and cancelled in both
/// orders. Returns the queue, the pending event's id and a retired id.
#[cfg(test)]
fn worn<E: Copy>(pin: E) -> (EventQueue<E>, EventId, EventId) {
    let mut w = EventQueue::new();
    let pinned = w.schedule(far(), pin);
    let mut retired = pinned;
    for i in 0..WARM {
        let a = w.schedule(at(i % 97), pin);
        let b = w.schedule(at(i % 89), pin);
        let (first, second) = if i % 2 == 0 { (a, b) } else { (b, a) };
        assert!(w.cancel(first));
        assert!(w.cancel(second));
        retired = second;
    }
    assert_eq!(w.len(), 1);
    assert_eq!(w.now(), Time::ZERO);
    assert_eq!(w.peek_time(), Some(far()));
    (w, pinned, retired)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let (mut w, _, _) = worn(0);
        w.schedule(at(30), 3);
        w.schedule(at(10), 1);
        w.schedule(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 0], "the pinned event fires last");
        assert_eq!(w.now(), far());
    }

    #[test]
    fn same_time_fires_in_scheduling_order() {
        let (mut w, _, _) = worn(-1);
        for i in 0..100 {
            w.schedule(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        let expected: Vec<i32> = (0..100).chain([-1]).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn now_advances_monotonically() {
        let (mut w, pinned, _) = worn(());
        w.schedule(at(50), ());
        assert_eq!(w.pop(), Some((at(50), ())));
        assert_eq!(w.now(), at(50));
        // Scheduling in the past fires but does not rewind the clock.
        w.schedule(at(10), ());
        let (t, _) = w.pop().unwrap();
        assert_eq!(t, at(50));
        assert_eq!(w.now(), at(50));
        assert!(w.cancel(pinned));
        assert!(w.is_empty());
        assert_eq!(w.now(), at(50), "cancelling never moves the clock");
    }

    #[test]
    fn cancel_removes_event() {
        let (mut w, pinned, _) = worn('!');
        let a = w.schedule(at(10), 'a');
        w.schedule(at(20), 'b');
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double-cancel reports false");
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop().map(|(_, e)| e), Some('b'));
        assert!(w.cancel(pinned), "the pinning event is still cancellable");
        assert!(!w.cancel(pinned));
        assert_eq!(w.len(), 0);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_of_popped_id_is_false() {
        let (mut w, _, retired) = worn('!');
        assert!(!w.cancel(retired), "an id cancelled while warming up");
        let a = w.schedule(at(10), 'a');
        assert_eq!(w.pop().map(|(_, e)| e), Some('a'));
        assert!(!w.cancel(a), "a fired event is no longer cancellable");
        assert_eq!(w.len(), 1, "phantom tombstones must not distort len()");
        assert_eq!(w.pop().map(|(_, e)| e), Some('!'));
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn peek_skips_cancelled() {
        let (mut w, pinned, _) = worn('!');
        let a = w.schedule(at(10), 'a');
        let b = w.schedule(at(20), 'b');
        w.cancel(a);
        assert_eq!(w.peek_time(), Some(at(20)));
        w.cancel(b);
        assert_eq!(w.peek_time(), Some(far()));
        w.cancel(pinned);
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn empty_wheel_behaviour() {
        let (mut w, pinned, _) = worn(());
        assert!(w.cancel(pinned));
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
        assert_eq!(w.peek_time(), None);
        assert_eq!(w.now(), Time::ZERO);
        // The emptied queue still issues fresh, working ids.
        let a = w.schedule(at(1), ());
        assert_eq!(w.len(), 1);
        assert!(w.cancel(a));
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_heavy_plan_does_not_grow_the_wheel_unboundedly() {
        // The fault-injection plan of the queue's own test, run with the
        // ring's front pinned: every watchdog but one per round is
        // cancelled before it fires.
        let (mut w, _, _) = worn((u64::MAX, 0));
        let mut kept = 1usize;
        for round in 0u64..200 {
            for i in 0..10 {
                let id = w.schedule(at(round * 100 + i), (round, i));
                if i == 0 {
                    kept += 1;
                } else {
                    assert!(w.cancel(id));
                }
            }
        }
        assert_eq!(w.len(), kept);
        assert!(
            w.stored() <= w.len() + w.len() / 2 + 1,
            "tombstone debt unbounded: {} entries stored for {} live events",
            w.stored(),
            w.len()
        );
        let mut last = Time::ZERO;
        let mut popped = 0;
        while let Some((t, (round, i))) = w.pop() {
            assert!(t >= last);
            assert_eq!(i, 0, "a cancelled watchdog fired");
            if round != u64::MAX {
                assert_eq!(t, at(round * 100));
            }
            last = t;
            popped += 1;
        }
        assert_eq!(popped, kept);
        assert_eq!(last, far());
    }
}
