//! Differential equivalence suite for [`EventQueue`] against an
//! independent reference: [`Model`], a flat list scanned linearly for the
//! minimum `(time, id)`.
//!
//! Both are driven with *identical* operation streams — schedule
//! (including same-timestamp bursts, far-future times and times behind the
//! clock), pop, peek, drain, cancel (including cancel-of-popped and
//! double-cancel), and cancel+reschedule — and every observable result
//! must agree exactly: the order of returned [`EventId`]s, cancel
//! booleans, pop order and clamped times, peeked times, and live counts.
//! A second mix aims at the head of the queue: schedules just before or
//! exactly at the earliest pending time, and cancels of the earliest
//! pending event followed by a peek and a pop. A third runs on a deep
//! queue, over 2,000 events pending, where schedules land at the front,
//! the back and in between, and cancels take the earliest, the latest and
//! a middle event.
//!
//! Four fixed streams of 4,000–6,500 ops pin exact traces; the property
//! tests draw 256 streams each from a fixed-seed [`Prng`], and a failing
//! case is named with its index and drawn input.

use hwdp_sim::events::{EventId, EventQueue};
use hwdp_sim::time::{Duration, Time};
use hwdp_sim::Prng;

/// The reference queue: every pending event in one unsorted list. Pop and
/// peek scan for the minimum `(time, id)`; cancel removes by id. Ids are
/// the queue's ordinals, so the n-th schedule returns `n`.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, usize)>,
    next_id: u64,
    now: u64,
}

impl Model {
    fn schedule(&mut self, t: u64, payload: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push((t, id, payload));
        id
    }

    fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|&(_, i, _)| i == id) {
            Some(pos) => {
                self.pending.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&k| (self.pending[k].0, self.pending[k].1))
    }

    fn latest(&self) -> Option<usize> {
        (0..self.pending.len()).max_by_key(|&k| (self.pending[k].0, self.pending[k].1))
    }

    fn peek_time(&self) -> Option<u64> {
        self.earliest().map(|k| self.pending[k].0)
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let (t, _, payload) = self.pending.swap_remove(self.earliest()?);
        self.now = self.now.max(t);
        Some((self.now, payload))
    }
}

fn ps(t: u64) -> Time {
    Time::ZERO + Duration::from_ps(t)
}

/// One step of the interpreted operation stream, decoded from a raw
/// `(kind, a, b)` triple.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule at a derived time; the payload is the op index.
    Schedule(u64),
    /// Pop one event from both queues.
    Pop,
    /// Peek the next pending time on both.
    Peek,
    /// Pop both dry, so the stream goes on from an empty queue.
    Drain,
    /// Cancel the `a % issued`-th id ever handed out (which may already
    /// have fired or been cancelled — the result must still agree).
    Cancel(u64),
    /// Cancel an id then immediately schedule a replacement (the
    /// reschedule idiom the fault watchdogs use).
    Reschedule(u64, u64),
    /// Schedule this many picoseconds before the earliest pending event
    /// (at the clock if nothing is pending): the new next event.
    Lead(u64),
    /// Schedule at exactly the earliest pending time: it must fire after
    /// the event already there.
    Tie,
    /// Cancel the earliest pending event, then peek and pop.
    CancelHead,
    /// Schedule this many picoseconds after the latest pending event (at
    /// the clock if nothing is pending): the new last event.
    Trail(u64),
    /// Schedule at a time between the earliest and the latest pending
    /// event, this many parts in 2^16 of the way.
    Between(u64),
    /// Cancel the latest pending event.
    CancelTail,
    /// Cancel the `a % pending`-th pending event, in the model's storage
    /// order, which is no time order.
    CancelPending(u64),
}

/// Derives a timestamp mixing the interesting regimes: dense small times
/// (same-timestamp bursts, and times behind the clock once it has
/// advanced), microsecond-scale spreads (the fig12 shape), and far-future
/// times across the full 64-bit domain.
fn derive_time(a: u64, b: u64) -> u64 {
    match b % 7 {
        0 => a % 64,                                // one tight cluster
        1 | 2 => a % 5_000,                         // dense bursts
        3 | 4 => a % 100_000_000,                   // ~100 us spread
        5 => (a % 1_000) * 1_000_000_000,           // ms-scale
        _ => a.wrapping_mul(0x9E37_79B9_7F4A_7C15), // full u64 domain
    }
}

fn decode(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(k, a, b)| match k % 8 {
            // Weight toward schedule/pop so streams stay busy.
            0..=2 => Op::Schedule(derive_time(a, b)),
            3 | 4 => Op::Pop,
            5 if a % 16 == 0 => Op::Drain,
            5 => Op::Peek,
            6 => Op::Cancel(a),
            _ => Op::Reschedule(a, derive_time(a, b)),
        })
        .collect()
}

/// Decodes a stream weighted toward the head of the queue: most schedules
/// land before or at the earliest pending event, and the earliest pending
/// event is often cancelled. Every drain follows a lead, so it starts
/// right after a new next event.
fn decode_front(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .flat_map(|&(k, a, b)| match k % 12 {
            0 | 1 => vec![Op::Lead(a % 1_000)],
            2 | 3 => vec![Op::Tie],
            4 => vec![Op::CancelHead],
            5 => vec![Op::Schedule(derive_time(a, b))],
            6..=8 => vec![Op::Pop],
            9 if a % 8 == 0 => vec![Op::Lead(b % 1_000), Op::Drain],
            9 => vec![Op::Peek],
            10 => vec![Op::Cancel(a)],
            _ => vec![Op::Reschedule(a, derive_time(a, b))],
        })
        .collect()
}

/// Decodes the mixed part of a deep stream: schedules at the front, the
/// back and in between, cancels at both ends and in between, and a few
/// pops and peeks. Adds and removals are equally likely, so a queue filled
/// deep first stays deep.
fn decode_deep(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(k, a, b)| match k % 12 {
            0 | 1 => Op::Lead(a % 1_000),
            2 | 3 => Op::Trail(a % 1_000_000),
            4 | 5 => Op::Between(b % (1 << 16)),
            6 => Op::CancelHead,
            7 => Op::CancelTail,
            8 | 9 => Op::CancelPending(a),
            10 => Op::Pop,
            _ => Op::Peek,
        })
        .collect()
}

/// The queue and the model fed the same stream, plus the ids each handed
/// out (index-aligned: entry n is the n-th schedule on both).
#[derive(Default)]
struct Pair {
    queue: EventQueue<usize>,
    model: Model,
    issued: Vec<(EventId, u64)>,
}

impl Pair {
    fn schedule(&mut self, t: u64, payload: usize) {
        let q = self.queue.schedule(ps(t), payload);
        let m = self.model.schedule(t, payload);
        if let Some(&(prev, _)) = self.issued.last() {
            assert!(prev < q, "EventIds must increase with every schedule");
        }
        self.issued.push((q, m));
    }

    /// Cancels the `sel % issued`-th id on both (a no-op before the first
    /// schedule).
    fn cancel(&mut self, sel: u64) {
        if self.issued.is_empty() {
            return;
        }
        let (q, m) = self.issued[(sel % self.issued.len() as u64) as usize];
        assert_eq!(
            self.queue.cancel(q),
            self.model.cancel(m),
            "cancel({q:?}) diverged"
        );
    }

    fn pop(&mut self) -> bool {
        let q = self.queue.pop();
        let m = self.model.pop().map(|(t, p)| (ps(t), p));
        assert_eq!(q, m, "pop diverged");
        assert_eq!(self.queue.now(), ps(self.model.now), "clock diverged");
        q.is_some()
    }

    /// The earliest pending event's time and its index in `issued`, taken
    /// from the model (model ids are schedule ordinals).
    fn head(&self) -> Option<(u64, usize)> {
        self.model.earliest().map(|k| self.pending_at(k))
    }

    /// The latest pending event's time and its index in `issued`.
    fn tail(&self) -> Option<(u64, usize)> {
        self.model.latest().map(|k| self.pending_at(k))
    }

    fn pending_at(&self, k: usize) -> (u64, usize) {
        let (t, id, _) = self.model.pending[k];
        (t, id as usize)
    }

    fn peek(&mut self) {
        assert_eq!(
            self.queue.peek_time(),
            self.model.peek_time().map(ps),
            "peek diverged"
        );
    }

    fn check_len(&self) {
        assert_eq!(self.queue.len(), self.model.pending.len(), "len diverged");
        assert_eq!(self.queue.is_empty(), self.model.pending.is_empty());
    }

    /// Pops both dry (the tail order must agree too), returning the count.
    fn drain(&mut self) -> usize {
        let mut n = 0;
        while self.pop() {
            n += 1;
        }
        self.check_len();
        n
    }
}

/// Applies op `i` of a stream to both queues, asserting observable
/// equivalence. Returns the number of pops that produced an event.
fn apply(pair: &mut Pair, i: usize, op: Op) -> usize {
    let mut fired = 0;
    match op {
        Op::Schedule(t) => pair.schedule(t, i),
        Op::Pop => fired += usize::from(pair.pop()),
        Op::Peek => pair.peek(),
        Op::Drain => fired += pair.drain(),
        Op::Cancel(sel) => pair.cancel(sel),
        Op::Reschedule(sel, t) => {
            pair.cancel(sel);
            pair.schedule(t, i);
        }
        Op::Lead(gap) => {
            let t = pair
                .head()
                .map_or(pair.model.now, |(t, _)| t.saturating_sub(gap + 1));
            pair.schedule(t, i);
        }
        Op::Tie => {
            let t = pair.head().map_or(pair.model.now, |(t, _)| t);
            pair.schedule(t, i);
        }
        Op::CancelHead => {
            if let Some((_, n)) = pair.head() {
                pair.cancel(n as u64);
            }
            pair.peek();
            fired += usize::from(pair.pop());
        }
        Op::Trail(gap) => {
            let t = pair
                .tail()
                .map_or(pair.model.now, |(t, _)| t.saturating_add(gap + 1));
            pair.schedule(t, i);
        }
        Op::Between(frac) => {
            let t = match (pair.head(), pair.tail()) {
                (Some((lo, _)), Some((hi, _))) => {
                    lo + (((hi - lo) as u128 * frac as u128) >> 16) as u64
                }
                _ => pair.model.now,
            };
            pair.schedule(t, i);
        }
        Op::CancelTail => {
            if let Some((_, n)) = pair.tail() {
                pair.cancel(n as u64);
            }
        }
        Op::CancelPending(sel) => {
            if !pair.model.pending.is_empty() {
                let k = (sel % pair.model.pending.len() as u64) as usize;
                pair.cancel(pair.pending_at(k).1 as u64);
            }
        }
    }
    pair.check_len();
    fired
}

/// Runs one stream against the queue and the model, asserting
/// observable equivalence at every step. Returns the total number of pops
/// that produced an event (so callers can sanity-check coverage).
fn run_diff(ops: &[Op]) -> usize {
    let mut pair = Pair::default();
    let fired: usize = ops
        .iter()
        .enumerate()
        .map(|(i, &op)| apply(&mut pair, i, op))
        .sum();
    fired + pair.drain()
}

/// SplitMix64: a fixed, self-contained op-stream generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream over the full op mix and every time regime: a few
/// thousand ops, the same trace on every run.
#[test]
fn seeded_op_stream_matches_the_model() {
    let mut state = 0xC0FF_EE00_5EEDu64;
    let raw: Vec<(u8, u64, u64)> = (0..5_000)
        .map(|_| {
            let x = splitmix64(&mut state);
            (x as u8, splitmix64(&mut state), x >> 8)
        })
        .collect();
    let fired = run_diff(&decode(&raw));
    assert!(
        fired > 1_000,
        "the seeded stream actually fired events ({fired})"
    );
}

/// A seeded stream aimed at the head of the queue: events scheduled ahead
/// of every pending event and tied with the earliest, the earliest
/// cancelled and then peeked past and popped past, and drains that start
/// right after a new next event.
#[test]
fn front_slot_stream_matches_the_model() {
    let mut state = 0x51_07F0_0D5Eu64;
    let raw: Vec<(u8, u64, u64)> = (0..6_000)
        .map(|_| {
            let x = splitmix64(&mut state);
            (x as u8, splitmix64(&mut state), x >> 8)
        })
        .collect();
    let ops = decode_front(&raw);
    let fired = run_diff(&ops);
    assert!(
        fired > 1_500,
        "the front-slot stream fired events ({fired})"
    );
    let drains = ops.iter().filter(|op| matches!(op, Op::Drain)).count();
    assert!(
        drains > 20,
        "the stream drains the queue repeatedly ({drains})"
    );
}

/// A seeded stream on a deep queue: 2,500 events spread over a
/// millisecond, then 4,000 ops that schedule and cancel at the front, the
/// back and in between while over 2,000 events stay pending.
#[test]
fn deep_queue_stream_matches_the_model() {
    let mut state = 0xDEE9_0E0E_u64;
    let mut pair = Pair::default();
    for i in 0..2_500 {
        pair.schedule(splitmix64(&mut state) % 1_000_000_000, i);
    }
    let raw: Vec<(u8, u64, u64)> = (0..4_000)
        .map(|_| {
            let x = splitmix64(&mut state);
            (x as u8, splitmix64(&mut state), x >> 8)
        })
        .collect();
    let ops = decode_deep(&raw);
    let mut shallowest = usize::MAX;
    for (i, &op) in ops.iter().enumerate() {
        apply(&mut pair, 2_500 + i, op);
        shallowest = shallowest.min(pair.queue.len());
    }
    assert!(
        shallowest >= 2_000,
        "the queue stayed deep ({shallowest} pending at its shallowest)"
    );
    let kinds = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
    assert!(
        kinds(|op| matches!(op, Op::Lead(_))) > 500,
        "front schedules"
    );
    assert!(
        kinds(|op| matches!(op, Op::Trail(_))) > 500,
        "back schedules"
    );
    assert!(
        kinds(|op| matches!(op, Op::Between(_))) > 500,
        "middle schedules"
    );
    assert!(pair.drain() >= 2_000, "the tail drains in order");
}

/// A fixed fig12-shaped stream: interleaved schedule/pop with
/// microsecond deltas, ~10 % cancels, and periodic peeks — the inner-loop
/// shape the campaigns exercise.
#[test]
fn fig12_shaped_stream_is_equivalent() {
    let mut raw = Vec::new();
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in 0..4_000u64 {
        // xorshift64 for a deterministic pseudo-random stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let kind = match x % 10 {
            0..=3 => 0u8, // schedule
            4..=6 => 3,   // pop
            7 => 5,       // peek
            8 => 6,       // cancel
            _ => 7,       // reschedule
        };
        raw.push((kind, x, i));
    }
    let fired = run_diff(&decode(&raw));
    assert!(
        fired > 500,
        "the smoke stream actually fired events ({fired})"
    );
}

/// Cases per property.
const CASES: usize = 256;

/// Runs one property case, naming the case and its input when it fails
/// (the assertions inside name only the diverging op).
fn check_case<T: std::fmt::Debug>(case: usize, input: &T, check: impl FnOnce()) {
    if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)) {
        eprintln!("failing case {case}: {input:?}");
        std::panic::resume_unwind(panic);
    }
}

/// A raw stream of 1 to 399 arbitrary `(kind, a, b)` triples.
fn draw_raw(g: &mut Prng) -> Vec<(u8, u64, u64)> {
    let n = g.range(1, 399);
    (0..n).map(|_| (g.next_u64() as u8, g.next_u64(), g.next_u64())).collect()
}

/// The headline differential property: arbitrary op streams observe no
/// difference between the queue and the model.
#[test]
fn queue_and_model_are_observationally_identical() {
    let mut g = Prng::seed_from(0x5D_0001);
    for case in 0..CASES {
        let raw = draw_raw(&mut g);
        check_case(case, &raw, || {
            run_diff(&decode(&raw));
        });
    }
}

/// The same property over the head-of-queue mix.
#[test]
fn front_slot_streams_are_equivalent() {
    let mut g = Prng::seed_from(0x5D_0002);
    for case in 0..CASES {
        let raw = draw_raw(&mut g);
        check_case(case, &raw, || {
            run_diff(&decode_front(&raw));
        });
    }
}

/// Same-timestamp burst storms: every event lands on one instant, so
/// ordering rests entirely on EventId FIFO stability.
#[test]
fn same_instant_bursts_stay_fifo() {
    let mut g = Prng::seed_from(0x5D_0003);
    for case in 0..CASES {
        let (t, n) = (g.next_u64(), g.range(1, 299) as usize);
        let m = g.below(64);
        let cancels: Vec<u64> = (0..m).map(|_| g.next_u64()).collect();
        check_case(case, &(t, n, &cancels), || {
            let mut pair = Pair::default();
            for i in 0..n {
                pair.schedule(t, i);
            }
            for &sel in &cancels {
                pair.cancel(sel);
            }
            pair.drain();
        });
    }
}

/// Cancel-of-popped ids: fire some events, then cancel a mix of fired
/// and pending ids — both must report the same booleans and keep
/// identical residual state.
#[test]
fn cancel_of_popped_ids_agrees() {
    let mut g = Prng::seed_from(0x5D_0004);
    for case in 0..CASES {
        let n = g.range(2, 99);
        let times: Vec<u64> = (0..n).map(|_| g.next_u64()).collect();
        let pops = g.range(1, 49) as usize;
        let m = g.range(1, 99);
        let cancels: Vec<u64> = (0..m).map(|_| g.next_u64()).collect();
        check_case(case, &(&times, pops, &cancels), || {
            let mut pair = Pair::default();
            for (i, &t) in times.iter().enumerate() {
                pair.schedule(derive_time(t, i as u64), i);
            }
            for _ in 0..pops.min(times.len()) {
                pair.pop();
            }
            for &sel in &cancels {
                pair.cancel(sel);
                pair.check_len();
            }
            pair.drain();
        });
    }
}
