//! Deterministic discrete-event queue.
//!
//! The heart of a transaction-level, event-driven simulator (the paper's
//! Section VI-B evaluation vehicle): events carry an arbitrary payload and
//! fire in `(time, insertion order)` order, so simulations are exactly
//! reproducible regardless of payload content.
//!
//! Two implementations share one contract:
//!
//! * [`EventQueue`] — the production queue. It holds events in two
//!   sources:
//!   - a **hierarchical time wheel** (`LEVELS` levels of `SLOTS`
//!     buckets, `LEVEL_BITS` bits of the picosecond tick per level,
//!     covering the full `u64` tick space) for events scheduled one at a
//!     time. Scheduling is `O(1)`; popping is `O(LEVELS)` amortized —
//!     each event cascades toward level 0 at most once per level. At
//!     datacenter scale (thousands of instances, millions of events) this
//!     removes the `O(log n)` heap churn that dominated large fleets.
//!   - **sorted streams** for a batch of same-payload events known up
//!     front ([`EventQueue::schedule_many`], e.g. a replayed arrival
//!     trace). A stream is sorted once and read through a cursor, so its
//!     events never enter or cascade through the wheel. Timing wheels pay
//!     off for timers scheduled at run time, not for a schedule that is
//!     known and sorted before the run starts.
//!
//!   Every event carries a `(time, seq)` key, `seq` being its insertion
//!   number, and [`pop`](EventQueue::pop) merges the two sources on that
//!   key, so the sources are invisible in the firing order.
//! * [`reference::EventQueue`] — the original binary-heap implementation,
//!   kept as the executable specification and **parity oracle**: the
//!   production queue must reproduce its pop order bit-for-bit, including
//!   same-instant insertion-order tie-breaks (property-tested below over
//!   random schedules, duplicates, interleaved push/pop, far-future
//!   horizons and streams). Its `schedule_many` is the `schedule_at` loop
//!   a stream replaces.
//!
//! The canonical tie-break — same-instant events fire in insertion order —
//! falls out of the wheel structurally: a level-0 bucket spans exactly one
//! tick and is a FIFO, cascades preserve relative order, and a bucket is
//! only ever appended to after every earlier-sequenced event that could
//! share it has already been placed there. A stream takes one consecutive
//! `seq` range, and its equal times are interchangeable (they share one
//! payload). No other event's `seq` falls inside the range, so every
//! event of a stream compares against any other event like the stream's
//! first `seq` does.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Bits of the picosecond tick consumed per wheel level.
const LEVEL_BITS: u32 = 6;
/// Buckets per wheel level (`2^LEVEL_BITS`).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels — `ceil(64 / LEVEL_BITS)` spans the full `u64` tick space,
/// so any schedulable [`SimTime`] maps to exactly one bucket.
const LEVELS: usize = 64usize.div_ceil(LEVEL_BITS as usize);

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// One wheel level: 64 FIFO buckets plus an occupancy bitmap (bit `j` set
/// ⇔ `slots[j]` is non-empty) so the next occupied bucket is a
/// `trailing_zeros`, not a scan.
struct Level<E> {
    occupied: u64,
    slots: Vec<VecDeque<Scheduled<E>>>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Self {
            occupied: 0,
            slots: (0..SLOTS).map(|_| VecDeque::new()).collect(),
        }
    }
}

/// A sorted run of same-payload events outside the wheel
/// ([`EventQueue::schedule_many`]). Never empty: a stream is dropped
/// when its last event pops.
struct Stream<E> {
    /// Pending firing times, latest first, so the next is the last.
    times: Vec<SimTime>,
    /// First of the stream's consecutive sequence numbers.
    seq: u64,
    payload: E,
}

/// An event queue with a simulation clock.
///
/// A hierarchical time wheel merged with sorted streams; see the module
/// docs for the structure and [`reference::EventQueue`] for the
/// heap-based oracle it is property-tested against.
pub struct EventQueue<E> {
    levels: Vec<Level<E>>,
    /// Sorted streams, in no particular order (pops pick by key).
    streams: Vec<Stream<E>>,
    /// The buffer a cascade drains into, kept so that cascades do not
    /// free and reallocate bucket buffers.
    spare: VecDeque<Scheduled<E>>,
    /// Tick cursor the bucket mapping is anchored to. Equal to
    /// `now.as_ps()` between calls; advances ahead of `now` only
    /// transiently inside [`pop`](Self::pop) while cascading.
    elapsed: u64,
    now: SimTime,
    seq: u64,
    processed: u64,
    len: usize,
}

impl<E: Clone> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            streams: Vec::new(),
            spare: VecDeque::new(),
            elapsed: 0,
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            len: 0,
        }
    }

    /// Current simulation time (the firing time of the last popped
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Schedules `payload` at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — causality violations are
    /// bugs in the caller's model, not recoverable conditions.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {} < {}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.insert(Scheduled { at, seq, payload });
    }

    /// Schedules one copy of `payload` at each of `times`, in any order:
    /// the same events, in the same firing order, as calling
    /// [`schedule_at`](Self::schedule_at) for each time in turn. The
    /// times are sorted once and kept as a stream beside the wheel, so
    /// they never cascade through it.
    ///
    /// # Panics
    /// Panics if any time is in the simulated past, as `schedule_at`.
    pub fn schedule_many(&mut self, mut times: Vec<SimTime>, payload: E) {
        times.sort();
        times.reverse();
        let Some(&first) = times.last() else {
            return;
        };
        assert!(
            first >= self.now,
            "cannot schedule into the past: {} < {}",
            first,
            self.now
        );
        let seq = self.seq;
        self.seq += times.len() as u64;
        self.len += times.len();
        self.streams.push(Stream {
            times,
            seq,
            payload,
        });
    }

    /// The bucket an event at `tick` belongs to, given the current
    /// `elapsed` anchor: the level is the highest [`LEVEL_BITS`]-wide
    /// digit in which `tick` differs from `elapsed` (level 0 when equal),
    /// the slot is `tick`'s digit at that level.
    fn level_and_slot(&self, tick: u64) -> (usize, usize) {
        let diff = tick ^ self.elapsed;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        };
        let slot = ((tick >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Files an already-sequenced event into its bucket (used both by
    /// [`schedule_at`](Self::schedule_at) and by cascades, which must not
    /// re-number events).
    fn insert(&mut self, event: Scheduled<E>) {
        let (level, slot) = self.level_and_slot(event.at.as_ps());
        self.levels[level].occupied |= 1 << slot;
        let bucket = &mut self.levels[level].slots[slot];
        debug_assert!(
            bucket.back().is_none_or(|last| last.seq < event.seq),
            "invariant: buckets must stay insertion-ordered"
        );
        bucket.push_back(event);
    }

    /// The lowest occupied `(level, slot)`, or `None` when empty. Because
    /// no event lies in the simulated past, every occupied bucket is at or
    /// after the cursor, so the first set bit per level is the earliest.
    fn lowest_occupied(&self) -> Option<(usize, usize)> {
        self.levels
            .iter()
            .enumerate()
            .find(|(_, level)| level.occupied != 0)
            .map(|(k, level)| (k, level.occupied.trailing_zeros() as usize))
    }

    /// The stream whose next event comes first, with that event's
    /// `(time, seq)` key.
    fn first_stream(&self) -> Option<(usize, (SimTime, u64))> {
        self.streams
            .iter()
            .map(|s| (s.times[s.times.len() - 1], s.seq))
            .enumerate()
            .min_by_key(|&(_, key)| key)
    }

    /// Firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = self.lowest_occupied().and_then(|(level, slot)| {
            let bucket = &self.levels[level].slots[slot];
            if level == 0 {
                // A level-0 bucket spans exactly one tick.
                bucket.front().map(|s| s.at)
            } else {
                // Higher-level buckets hold a time range in insertion
                // order; the earliest is found by scan (peek never
                // re-buckets).
                bucket.iter().map(|s| s.at).min()
            }
        });
        let stream = self.first_stream().map(|(_, (at, _))| at);
        wheel.into_iter().chain(stream).min()
    }

    /// First tick of bucket `slot` of `level` at the current cursor.
    fn bucket_start(&self, level: usize, slot: usize) -> u64 {
        let shift = LEVEL_BITS * level as u32;
        let upper = shift + LEVEL_BITS;
        let high = if upper >= 64 {
            0
        } else {
            (self.elapsed >> upper) << upper
        };
        high | ((slot as u64) << shift)
    }

    /// Redistributes bucket `slot` of `level` one or more levels down
    /// after advancing the cursor to the bucket's start tick. Preserves
    /// relative (insertion) order, which keeps every FIFO bucket
    /// seq-sorted. The bucket keeps the spare buffer and the drained
    /// buffer becomes the spare, so no buffer is freed.
    fn cascade(&mut self, level: usize, slot: usize) {
        let start = self.bucket_start(level, slot);
        debug_assert!(start > self.elapsed, "cascade must advance the cursor");
        self.elapsed = start;
        self.levels[level].occupied &= !(1 << slot);
        let mut drained = std::mem::take(&mut self.spare);
        std::mem::swap(&mut drained, &mut self.levels[level].slots[slot]);
        for event in drained.drain(..) {
            self.insert(event);
        }
        self.spare = drained;
    }

    /// Pops the next event, advancing the clock to its firing time.
    ///
    /// The first stream head pops before the wheel cascades any bucket
    /// that starts after it. Moving the cursor to that head's time is
    /// then sound: it lies at or before every tick in the wheel, so every
    /// wheel event stays in the bucket its tick maps to.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let stream = self.first_stream();
        loop {
            let Some((level, slot)) = self.lowest_occupied() else {
                return stream.map(|(i, _)| self.pop_stream(i));
            };
            if level > 0 {
                match stream {
                    Some((i, (at, _))) if at.as_ps() < self.bucket_start(level, slot) => {
                        return Some(self.pop_stream(i));
                    }
                    _ => {
                        self.cascade(level, slot);
                        continue;
                    }
                }
            }
            let bucket = &mut self.levels[0].slots[slot];
            let front = bucket
                .front()
                .expect("invariant: occupancy bit set on an empty bucket");
            if let Some((i, key)) = stream {
                if key < (front.at, front.seq) {
                    return Some(self.pop_stream(i));
                }
            }
            let event = bucket
                .pop_front()
                .expect("invariant: the front was read above");
            if bucket.is_empty() {
                self.levels[0].occupied &= !(1 << slot);
            }
            self.len -= 1;
            self.elapsed = event.at.as_ps();
            self.now = event.at;
            self.processed += 1;
            return Some((event.at, event.payload));
        }
    }

    /// Pops the next event of stream `i`, dropping the stream with its
    /// last event.
    fn pop_stream(&mut self, i: usize) -> (SimTime, E) {
        let stream = &mut self.streams[i];
        let at = stream
            .times
            .pop()
            .expect("invariant: streams are never empty");
        let payload = if stream.times.is_empty() {
            self.streams.swap_remove(i).payload
        } else {
            stream.payload.clone()
        };
        self.len -= 1;
        self.elapsed = at.as_ps();
        self.now = at;
        self.processed += 1;
        (at, payload)
    }

    /// Runs the queue to exhaustion, handing each event to `handler`
    /// together with a mutable reference to the queue for scheduling
    /// follow-ups. Returns the final simulation time.
    pub fn run(mut self, mut handler: impl FnMut(&mut Self, SimTime, E)) -> SimTime {
        while let Some((at, payload)) = self.pop() {
            handler(&mut self, at, payload);
        }
        self.now
    }
}

pub mod reference {
    //! The original binary-heap event queue, kept as the executable
    //! specification of the `(time, insertion order)` firing contract and
    //! the parity oracle the time-wheel [`EventQueue`](super::EventQueue)
    //! is property-tested against. `O(log n)` per operation — correct at
    //! any scale, but slower than the wheel on large fleets.

    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Scheduled<E> {
        at: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest-first.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    /// The heap-based event queue: same API and firing order as the
    /// production [`EventQueue`](super::EventQueue).
    pub struct EventQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        now: SimTime,
        seq: u64,
        processed: u64,
    }

    impl<E> Default for EventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> EventQueue<E> {
        /// Creates an empty queue at time zero.
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
                processed: 0,
            }
        }

        /// Current simulation time (the firing time of the last popped
        /// event).
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// Number of events popped so far.
        pub fn processed(&self) -> u64 {
            self.processed
        }

        /// Number of pending events.
        pub fn pending(&self) -> usize {
            self.heap.len()
        }

        /// True when no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedules `payload` to fire `delay` after the current time.
        pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
            self.schedule_at(self.now + delay, payload);
        }

        /// Schedules `payload` at an absolute time.
        ///
        /// # Panics
        /// Panics if `at` is in the simulated past — causality violations
        /// are bugs in the caller's model, not recoverable conditions.
        pub fn schedule_at(&mut self, at: SimTime, payload: E) {
            assert!(
                at >= self.now,
                "cannot schedule into the past: {} < {}",
                at,
                self.now
            );
            self.heap.push(Scheduled {
                at,
                seq: self.seq,
                payload,
            });
            self.seq += 1;
        }

        /// Schedules one copy of `payload` at each of `times`, in the
        /// given order: the specification of the production queue's
        /// stream.
        ///
        /// # Panics
        /// Panics if any time is in the simulated past.
        pub fn schedule_many(&mut self, times: Vec<SimTime>, payload: E)
        where
            E: Clone,
        {
            for at in times {
                self.schedule_at(at, payload.clone());
            }
        }

        /// Firing time of the next event without popping it.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.at)
        }

        /// Pops the next event, advancing the clock to its firing time.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let s = self.heap.pop()?;
            self.now = s.at;
            self.processed += 1;
            Some((s.at, s.payload))
        }

        /// Runs the queue to exhaustion, handing each event to `handler`
        /// together with a mutable reference to the queue for scheduling
        /// follow-ups. Returns the final simulation time.
        pub fn run(mut self, mut handler: impl FnMut(&mut Self, SimTime, E)) -> SimTime {
            while let Some(s) = self.heap.pop() {
                self.now = s.at;
                self.processed += 1;
                handler(&mut self, s.at, s.payload);
            }
            self.now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(30), "c");
        q.schedule_at(SimTime::from_ps(10), "a");
        q.schedule_at(SimTime::from_ps(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_ps(30));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(SimTime::from_ps(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime::from_ps(10), 1);
        q.pop();
        q.schedule_in(SimTime::from_ps(5), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ps(15));
    }

    #[test]
    fn run_allows_cascading_events() {
        // Each event spawns a follow-up until a counter empties — the
        // canonical self-scheduling component pattern.
        let q = {
            let mut q = EventQueue::new();
            q.schedule_at(SimTime::from_ps(1), 5u32);
            q
        };
        let mut fired = Vec::new();
        let end = q.run(|q, t, remaining| {
            fired.push((t.as_ps(), remaining));
            if remaining > 0 {
                q.schedule_in(SimTime::from_ps(2), remaining - 1);
            }
        });
        assert_eq!(fired.len(), 6);
        assert_eq!(end, SimTime::from_ps(11));
        assert_eq!(fired.last(), Some(&(11, 0)));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(7)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), ());
        q.pop();
        q.schedule_at(SimTime::from_ps(5), ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn reference_scheduling_into_past_panics() {
        let mut q = reference::EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), ());
        q.pop();
        q.schedule_at(SimTime::from_ps(5), ());
    }

    #[test]
    fn reference_fires_in_time_then_insertion_order() {
        let mut q = reference::EventQueue::new();
        q.schedule_at(SimTime::from_ps(30), 0);
        q.schedule_at(SimTime::from_ps(10), 1);
        q.schedule_at(SimTime::from_ps(10), 2);
        q.schedule_at(SimTime::from_ps(20), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert_eq!(q.processed(), 4);
    }

    #[test]
    fn far_future_horizons_cross_every_wheel_level() {
        // One event per wheel level, up to the top of the u64 tick space;
        // the wheel must cascade each down without disturbing order.
        let mut q = EventQueue::new();
        let mut r = reference::EventQueue::new();
        let mut times: Vec<u64> = (0..LEVELS as u32)
            .map(|k| 1u64.checked_shl(LEVEL_BITS * k).unwrap_or(u64::MAX))
            .collect();
        times.push(u64::MAX);
        times.push(u64::MAX); // duplicate at the horizon: tie-break check
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ps(t), i);
            r.schedule_at(SimTime::from_ps(t), i);
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b, "wheel diverged from reference");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q.now(), SimTime::from_ps(u64::MAX));
    }

    #[test]
    fn pending_and_peek_agree_with_reference_under_interleaving() {
        // Deterministic xorshift-style mix: push bursts at scattered
        // times, then drain a few, repeatedly — both queues must agree on
        // every observable at every step.
        let mut q = EventQueue::new();
        let mut r = reference::EventQueue::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut label = 0u32;
        for round in 0..50 {
            let mut pushed = Vec::new();
            for _push in 0..7 {
                let horizon = 1u64 << (next() % 40);
                let at = q.now() + SimTime::from_ps(next() % horizon);
                q.schedule_at(at, label);
                r.schedule_at(at, label);
                pushed.push(at);
                label += 1;
            }
            // A stream per round: unsorted, with duplicates, `now` and
            // the instants just pushed, so stream events tie with wheel
            // events scheduled before it (and, next round, after it).
            // Every fifth stream is empty.
            let len = if round % 5 == 0 { 0 } else { next() % 9 };
            let times: Vec<SimTime> = (0..len)
                .map(|_| match next() % 3 {
                    0 => q.now(),
                    1 => pushed[(next() % 7) as usize],
                    _ => q.now() + SimTime::from_ps(next() % (1u64 << (next() % 40))),
                })
                .collect();
            q.schedule_many(times.clone(), label);
            r.schedule_many(times, label);
            label += 1;
            assert_eq!(q.pending(), r.pending());
            for _pop in 0..5 {
                assert_eq!(q.peek_time(), r.peek_time());
                assert_eq!(q.pop(), r.pop());
                assert_eq!(q.now(), r.now());
                assert_eq!(q.pending(), r.pending());
                assert_eq!(q.processed(), r.processed());
            }
        }
        while !q.is_empty() {
            assert_eq!(q.peek_time(), r.peek_time());
            assert_eq!(q.pop(), r.pop());
        }
        assert_eq!(r.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.processed(), r.processed());
    }

    #[test]
    fn stream_ties_fire_in_schedule_order() {
        // Wheel events at the stream's instants, scheduled before and
        // after it; a stream that starts at `now`; an empty stream; and
        // a second stream tied with the first.
        let t = SimTime::from_ps;
        let mut q = EventQueue::new();
        let mut r = reference::EventQueue::new();
        q.schedule_at(t(5), "before");
        r.schedule_at(t(5), "before");
        q.pop();
        r.pop();
        for (times, label) in [
            (vec![t(90), t(5), t(70), t(5), t(90)], "s1"),
            (vec![], "empty"),
            (vec![t(70), t(5)], "s2"),
        ] {
            q.schedule_at(t(70), "wheel");
            r.schedule_at(t(70), "wheel");
            q.schedule_many(times.clone(), label);
            r.schedule_many(times, label);
        }
        q.schedule_at(t(5), "after");
        r.schedule_at(t(5), "after");
        assert_eq!(q.pending(), r.pending());
        while let Some(ev) = r.pop() {
            assert_eq!(q.peek_time(), Some(ev.0));
            assert_eq!(q.pop(), Some(ev));
            assert_eq!((q.now(), q.pending()), (r.now(), r.pending()));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 12);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn stream_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), ());
        q.pop();
        q.schedule_many(vec![SimTime::from_ps(20), SimTime::from_ps(5)], ());
    }

    /// A horizon from now to deep wheel levels, from one random draw.
    fn spread_delay(raw: u64) -> u64 {
        raw.wrapping_mul(raw).wrapping_mul(1 + raw % 977) % (1 << (raw % 48))
    }

    proptest! {
        /// The tentpole contract: over random schedules — duplicate
        /// times, interleaved push/pop, far-future horizons, and streams
        /// tied with wheel events scheduled before and after them — the
        /// production queue pops the exact event sequence of the heap
        /// reference, including same-instant insertion-order tie-breaks.
        #[test]
        fn wheel_matches_heap_reference(
            ops in proptest::collection::vec((0u32..8, 0u64..64, 0u32..16), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut r = reference::EventQueue::new();
            let mut label = 0u64;
            // Instants scheduled so far, for later events to tie with.
            let mut instants = vec![SimTime::ZERO];
            for (kind, raw, dup) in ops {
                let now = q.now();
                let recent = |k: u64| instants[(k % instants.len() as u64) as usize].max(now);
                match kind {
                    0 => {
                        // Drain one event (no-op on empty).
                        prop_assert_eq!(q.pop(), r.pop());
                    }
                    1 => {
                        // A stream of `dup` unsorted times (none when
                        // `dup` is 0): `now`, recent instants, fresh
                        // horizons, with repeats.
                        let times: Vec<SimTime> = (0..u64::from(dup))
                            .map(|j| {
                                let x = raw.wrapping_mul(31).wrapping_add(j * 17);
                                match x % 4 {
                                    0 => now,
                                    1 => recent(x / 4),
                                    _ => now + SimTime::from_ps(spread_delay(x % 64)),
                                }
                            })
                            .collect();
                        instants.extend(&times);
                        q.schedule_many(times.clone(), label);
                        r.schedule_many(times, label);
                        label += 1;
                    }
                    _ => {
                        // Schedule a burst of `dup + 1` events at one
                        // instant: a recent one (kind 7) or a fresh
                        // horizon from now to deep wheel levels.
                        let at = if kind == 7 {
                            recent(raw)
                        } else {
                            now + SimTime::from_ps(spread_delay(raw))
                        };
                        instants.push(at);
                        for _ in 0..=dup {
                            q.schedule_at(at, label);
                            r.schedule_at(at, label);
                            label += 1;
                        }
                    }
                }
                prop_assert_eq!(q.peek_time(), r.peek_time());
                prop_assert_eq!(q.pending(), r.pending());
                prop_assert_eq!(q.now(), r.now());
                prop_assert_eq!(q.processed(), r.processed());
            }
            loop {
                prop_assert_eq!(q.peek_time(), r.peek_time());
                let (a, b) = (q.pop(), r.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(q.processed(), r.processed());
        }
    }
}
