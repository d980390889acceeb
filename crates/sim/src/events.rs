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
//! The queue is a binary heap keyed by `(time, id)` behind a one-entry
//! front slot. The slot holds an entry that precedes everything in the
//! heap, so the common case of a step rescheduled before every other
//! pending event, then popped next, never sifts the heap. Whether an id is
//! still pending lives in a retirement ring of one bit per id, so cancel
//! is O(1): it clears the bit and leaves the entry, in the slot or the
//! heap, behind as a tombstone that `pop`/`peek_time` skip. The
//! simulator's queues are a handful of events deep (a mean of 2–7 pending
//! on the benchmark workloads), so the heap's `O(log n)` is a few
//! comparisons.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// Ids per retirement-ring word.
const WORD: u64 = 64;

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

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        (other.at, other.id).cmp(&(self.at, self.id))
    }
}

/// Whether `id`'s bit is set in a ring whose first word starts at `base`.
/// Ids below the ring were trimmed (retired), and ids past the issued
/// range have clear bits, so both read as not pending.
fn is_pending(ring: &VecDeque<u64>, base: u64, id: u64) -> bool {
    let Some(off) = id.checked_sub(base) else {
        return false;
    };
    ring.get((off / WORD) as usize)
        .is_some_and(|w| w >> (off % WORD) & 1 == 1)
}

/// A time-ordered queue of events with stable same-time ordering and O(1)
/// cancellation (lazy deletion with bounded tombstone debt: the queue
/// compacts whenever cancelled entries outnumber half the live ones, so
/// cancel-heavy plans cannot grow it without bound).
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
    /// An entry earlier in `(time, id)` than every heap entry, pending or
    /// a tombstone. Taken by `pop` without touching the heap.
    front: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    /// One bit per id in `[base, next_id)`, set while the event is pending
    /// (neither fired nor cancelled). Stored entries whose bit is clear are
    /// tombstones. Fully retired words are trimmed from the front, so the
    /// ring spans the ids from the oldest pending event on, not the whole
    /// history.
    ring: VecDeque<u64>,
    /// The id of bit 0 of `ring[0]` (a multiple of [`WORD`]).
    base: u64,
    next_id: u64,
    /// Pending events: the number of set bits in `ring`.
    live: usize,
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
            front: None,
            heap: BinaryHeap::new(),
            ring: VecDeque::new(),
            base: 0,
            next_id: 0,
            live: 0,
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
        let off = id - self.base;
        if off == self.ring.len() as u64 * WORD {
            self.ring.push_back(0);
        }
        // The newest id always lives in the last word.
        if let Some(w) = self.ring.back_mut() {
            *w |= 1 << (off % WORD);
        }
        self.live += 1;
        // The new id is the largest issued, so the entry precedes another
        // only when its time is strictly earlier.
        let first = match &self.front {
            Some(front) => at < front.at,
            None => self.heap.peek().map_or(true, |top| at < top.at),
        };
        let entry = Entry { at, id, payload };
        if !first {
            self.heap.push(entry);
        } else if let Some(displaced) = self.front.replace(entry) {
            self.heap.push(displaced);
        }
        EventId(id)
    }

    /// Clears `id`'s pending bit, returning whether it was set, and trims
    /// fully retired words from the front of the ring. A word is trimmed
    /// only once all of its ids have been issued.
    fn retire(&mut self, id: u64) -> bool {
        let Some(off) = id.checked_sub(self.base) else {
            return false;
        };
        let bit = 1 << (off % WORD);
        match self.ring.get_mut((off / WORD) as usize) {
            Some(w) if *w & bit != 0 => *w &= !bit,
            _ => return false,
        }
        self.live -= 1;
        while self.ring.front() == Some(&0) && self.base + WORD <= self.next_id {
            self.ring.pop_front();
            self.base += WORD;
        }
        true
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending — ids that already fired (or were already
    /// cancelled, or were never issued) report `false`.
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
        if !self.retire(id.0) {
            return false;
        }
        self.maybe_compact();
        true
    }

    /// Drops tombstoned entries, slot and heap, once cancelled entries
    /// outnumber half the live ones, bounding the queue's footprint under
    /// cancel-heavy plans (fault-injection watchdogs cancel almost every
    /// event).
    fn maybe_compact(&mut self) {
        let cancelled = self.stored() - self.live;
        if cancelled > self.live / 2 {
            let (ring, base) = (&self.ring, self.base);
            self.heap.retain(|e| is_pending(ring, base, e.id));
            if self
                .front
                .as_ref()
                .is_some_and(|e| !is_pending(ring, base, e.id))
            {
                self.front = None;
            }
        }
    }

    /// Pops the earliest pending event, advancing [`Self::now`] to its
    /// timestamp (clamped so time never goes backwards).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        while let Some(entry) = self.front.take().or_else(|| self.heap.pop()) {
            if self.retire(entry.id) {
                self.now = self.now.max(entry.at);
                return Some((self.now, entry.payload));
            }
        }
        None
    }

    /// The raw scheduled time of the next pending event, if any (it may lie
    /// before [`Self::now`]; [`Self::pop`] clamps it).
    pub fn peek_time(&mut self) -> Option<Time> {
        // Purge cancelled heads so peek agrees with the next pop.
        if let Some(entry) = &self.front {
            if is_pending(&self.ring, self.base, entry.id) {
                return Some(entry.at);
            }
            self.front = None;
        }
        while let Some(entry) = self.heap.peek() {
            if is_pending(&self.ring, self.base, entry.id) {
                return Some(entry.at);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Stored entries, slot and heap, pending and tombstoned.
    pub(crate) fn stored(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
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
        assert!(!q.cancel(EventId(1)), "an unissued id in the live word");
    }

    #[test]
    fn cancel_of_popped_id_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(at(10), 'a');
        assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
        assert!(!q.cancel(a), "a fired event is no longer cancellable");
        assert_eq!(q.len(), 0, "phantom tombstones must not distort len()");
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
        // A fault-injection-style plan: every scheduled watchdog is
        // cancelled before it fires. Without compaction the heap retains
        // one tombstone per cancel forever; with the cancelled > live/2
        // threshold the physical heap stays within a small factor of the
        // live count.
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for round in 0u64..200 {
            for i in 0..10 {
                let id = q.schedule(at(round * 100 + i), (round, i));
                if i == 0 {
                    keep.push(id);
                } else {
                    assert!(q.cancel(id));
                }
            }
        }
        assert_eq!(q.len(), keep.len());
        assert!(
            q.stored() <= q.len() + q.len() / 2 + 1,
            "tombstone debt unbounded: queue holds {} entries for {} live events",
            q.stored(),
            q.len()
        );
        // The survivors still pop in exact (time, id) order.
        let mut last = Time::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, keep.len());
    }

    #[test]
    fn cancelled_front_slot_entries_are_compacted() {
        // Every early event takes the front slot and is cancelled there.
        // A tombstone in the slot counts toward the compaction threshold
        // and is dropped by it, so after each cancel the stored entries
        // stay within `live + live/2`, with no slack.
        let mut q = EventQueue::new();
        q.schedule(at(1_000_000), 'z');
        for i in 0..100 {
            let a = q.schedule(at(i), 'a');
            assert_eq!(q.stored(), 2);
            assert_eq!(q.peek_time(), Some(at(i)));
            assert!(q.cancel(a));
            assert!(
                q.stored() <= q.len() + q.len() / 2,
                "{} stored for {} live",
                q.stored(),
                q.len()
            );
        }
        assert_eq!(q.pop(), Some((at(1_000_000), 'z')));
        assert_eq!(q.stored(), 0);
    }

    #[test]
    fn far_future_event_pins_the_ring_but_not_the_heap() {
        // A controller crash scheduled past the run's end stays pending for
        // the whole run, so the ring cannot trim past its id. The ring then
        // grows by one bit per schedule; the heap must still stay within
        // the tombstone bound and the queue must stay exact.
        let mut q = EventQueue::new();
        let crash = q.schedule(at(u64::MAX / 2_000), u64::MAX);
        let mut t = 0;
        for i in 0..20_000u64 {
            t += 1 + i % 7;
            // A step that fires...
            q.schedule(at(t), i);
            // ...and a watchdog that is cancelled before it would fire.
            let watchdog = q.schedule(at(t + 1_000), i);
            assert!(q.cancel(watchdog));
            assert_eq!(q.len(), 2);
            assert!(
                q.stored() <= q.len() + q.len() / 2 + 1,
                "tombstone debt unbounded at step {i}: queue holds {} entries for {} live",
                q.stored(),
                q.len()
            );
            assert_eq!(q.peek_time(), Some(at(t)));
            assert_eq!(q.pop(), Some((at(t), i)));
            assert_eq!(q.len(), 1);
        }
        // One bit per id issued since the crash, rounded up to whole words.
        assert_eq!(q.base, 0);
        assert_eq!(q.ring.len() as u64, q.next_id.div_ceil(WORD));
        assert!(q.cancel(crash));
        assert!(q.is_empty());
        assert!(
            q.ring.len() <= 1,
            "retiring the pinning id trims every issued word"
        );
        assert_eq!(q.pop(), None);
    }
}
