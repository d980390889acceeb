//! The simulator's deterministic event queue.
//!
//! Events fire in ascending `(time, EventId)` order. Ids are assigned from
//! one monotonic counter at scheduling time, so two events scheduled for
//! the same instant fire in the order they were scheduled. This makes
//! whole-system runs bit-for-bit reproducible, which the calibration tests
//! rely on; DESIGN.md's "Scheduler contract" states the full law, and
//! `tests/scheduler_diff.rs` checks this queue against an independent
//! linear-scan model.
//!
//! The queue is one vector of pending entries sorted latest first, so the
//! next event is the last element. `pop` and `peek_time` are O(1);
//! `schedule` and `cancel` shift the entries past their index, O(depth),
//! which on the simulator's queues (2–7 events on average) is a few moves.

use crate::time::Time;

/// A handle to a scheduled event, usable for cancellation.
///
/// Ids are assigned from a single monotonic counter per queue, so the id
/// doubles as the same-time tiebreaker: the ordering law is `(time, id)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

struct Entry<E> {
    at: Time,
    id: u64,
    payload: E,
}

/// A time-ordered queue of events with stable same-time ordering and
/// eager cancellation: a cancelled event leaves the queue at once.
///
/// ```
/// use hwdp_sim::events::EventQueue;
/// use hwdp_sim::time::{Duration, Time};
///
/// let mut q = EventQueue::new();
/// let a = q.schedule(Time::ZERO + Duration::from_nanos(10), 'a');
/// q.schedule(Time::ZERO + Duration::from_nanos(10), 'b');
/// q.cancel(a);
/// assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Every pending event, in descending `(time, id)` order: the last
    /// entry fires next.
    pending: Vec<Entry<E>>,
    next_id: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            pending: Vec::new(),
            next_id: 0,
            now: Time::ZERO,
        }
    }

    /// The time of the most recently popped event ([`Time::ZERO`] before the
    /// first pop). Popping never moves time backwards.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `payload` to fire at `at`, returning a cancellation handle.
    ///
    /// Scheduling in the past is permitted (the event fires "immediately",
    /// i.e. before any later event) but never rewinds [`Self::now`].
    pub fn schedule(&mut self, at: Time, payload: E) -> EventId {
        let id = self.next_id;
        self.next_id += 1;
        // The new id is the largest issued, so the entry goes below every
        // entry that is strictly later and above the rest: at an equal
        // time it fires after the events already there.
        let pos = self
            .pending
            .iter()
            .rposition(|e| e.at > at)
            .map_or(0, |i| i + 1);
        self.pending.insert(pos, Entry { at, id, payload });
        EventId(id)
    }

    /// Cancels a previously scheduled event, removing it from the queue.
    /// Returns `true` if the event was still pending — ids that already
    /// fired (or were already cancelled, or were never issued) report
    /// `false`.
    ///
    /// A far-future pending event, such as a controller crash scheduled
    /// past the run's end, changes nothing:
    ///
    /// ```
    /// use hwdp_sim::events::EventQueue;
    /// use hwdp_sim::time::{Duration, Time};
    ///
    /// let mut q = EventQueue::new();
    /// let crash = q.schedule(Time::ZERO + Duration::from_secs(3_600), '!');
    /// let a = q.schedule(Time::ZERO + Duration::from_nanos(10), 'a');
    /// q.schedule(Time::ZERO + Duration::from_nanos(10), 'b');
    /// q.cancel(a);
    /// assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
    /// assert!(q.cancel(crash));
    /// assert!(q.pop().is_none());
    /// ```
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.pending.iter().position(|e| e.id == id.0) {
            Some(pos) => {
                self.pending.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Pops the earliest pending event, advancing [`Self::now`] to its
    /// timestamp (clamped so time never goes backwards).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.pending.pop()?;
        self.now = self.now.max(entry.at);
        Some((self.now, entry.payload))
    }

    /// The raw scheduled time of the next pending event, if any (it may lie
    /// before [`Self::now`]; [`Self::pop`] clamps it).
    pub fn peek_time(&self) -> Option<Time> {
        self.pending.last().map(|e| e.at)
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn at(ns: u64) -> Time {
        Time::ZERO + Duration::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(30), 3);
        q.schedule(at(10), 1);
        q.schedule(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_fires_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(at(50), ());
        q.pop();
        assert_eq!(q.now(), at(50));
        // Scheduling in the past fires but does not rewind the clock.
        q.schedule(at(10), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, at(50));
        assert_eq!(q.now(), at(50));
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(at(10), 'a');
        q.schedule(at(20), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
        q.schedule(at(1), ());
        assert!(!q.cancel(EventId(1)), "the next id to be issued");
    }

    #[test]
    fn cancel_of_popped_id_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(at(10), 'a');
        assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
        assert!(!q.cancel(a), "a fired event is no longer cancellable");
        assert_eq!(q.len(), 0, "a fired event no longer counts in len()");
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(at(10), 'a');
        q.schedule(at(20), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(at(20)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_then_past_schedule_keeps_global_order() {
        // A schedule behind the peeked head (but after `now`) must still
        // fire first.
        let mut q = EventQueue::new();
        q.schedule(at(1_000_000), 'z');
        assert_eq!(q.peek_time(), Some(at(1_000_000)));
        q.schedule(at(100), 'a');
        q.schedule(at(200), 'b');
        assert_eq!(q.peek_time(), Some(at(100)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'z']);
    }

    #[test]
    fn far_future_times_span_the_whole_domain() {
        // Timestamps from 1 ps to 2^60 ps, scheduled largest first.
        let mut q = EventQueue::new();
        let mut times: Vec<u64> = (0..16).map(|k| 1u64 << (k * 4)).rev().collect();
        for &t in &times {
            q.schedule(Time::ZERO + Duration::from_ps(t), t);
        }
        times.sort_unstable();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, times);
    }

    #[test]
    fn cancel_heavy_plan_does_not_grow_the_queue_unboundedly() {
        // A fault-injection-style plan: every scheduled watchdog but one
        // per round is cancelled before it fires. Cancel removes the event
        // at once, so the count is exact after every cancel.
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for round in 0u64..200 {
            for i in 0..10 {
                let id = q.schedule(at(round * 100 + i), (round, i));
                if i == 0 {
                    keep.push(id);
                } else {
                    assert!(q.cancel(id));
                    assert_eq!(q.len(), keep.len(), "round {round}, watchdog {i}");
                }
            }
        }
        // The survivors still pop in exact (time, id) order.
        let mut last = Time::ZERO;
        let mut popped = 0;
        while let Some((t, (round, i))) = q.pop() {
            assert!(t >= last);
            assert_eq!((t, i), (at(round * 100), 0), "a cancelled watchdog fired");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, keep.len());
    }

    #[test]
    fn cancelling_the_next_event_exposes_the_one_after() {
        // Every early event goes ahead of a late one and is cancelled
        // there: the late event is next again, and the count is exact.
        let mut q = EventQueue::new();
        q.schedule(at(1_000_000), 'z');
        for i in 0..100 {
            let a = q.schedule(at(i), 'a');
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(at(i)));
            assert!(q.cancel(a));
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(at(1_000_000)));
        }
        assert_eq!(q.pop(), Some((at(1_000_000), 'z')));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_event_keeps_the_queue_shallow() {
        // A controller crash scheduled past the run's end stays pending for
        // the whole run. Behind it, each step schedules an event that fires
        // and a watchdog that is cancelled: the queue holds one or two
        // events throughout and stays exact.
        let mut q = EventQueue::new();
        let crash = q.schedule(at(u64::MAX / 2_000), u64::MAX);
        let mut t = 0;
        for i in 0..20_000u64 {
            t += 1 + i % 7;
            q.schedule(at(t), i);
            let watchdog = q.schedule(at(t + 1_000), i);
            assert_eq!(q.len(), 3);
            assert!(q.cancel(watchdog));
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(at(t)));
            assert_eq!(q.pop(), Some((at(t), i)));
            assert_eq!(q.len(), 1);
        }
        assert!(q.cancel(crash));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
