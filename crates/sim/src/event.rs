//! Deterministic discrete-event queue.
//!
//! The heart of a transaction-level, event-driven simulator (the paper's
//! Section VI-B evaluation vehicle): events carry an arbitrary payload and
//! fire in `(time, insertion order)` order, so simulations are exactly
//! reproducible regardless of payload content.
//!
//! Every event carries a `(time, seq)` key, `seq` being its insertion
//! number. [`EventQueue`] holds events in two sources:
//!
//! * a **binary heap** on that key, for events scheduled one at a time
//!   while the simulation runs (batch completions, flushes, faults,
//!   restarts, scale ticks);
//! * **sorted streams** for a batch of same-payload events known up front
//!   ([`EventQueue::schedule_many`], e.g. a replayed arrival trace). A
//!   stream is sorted once and read through a cursor, so its events never
//!   enter the heap.
//!
//! [`pop`](EventQueue::pop) takes the smaller key of the heap's top and
//! the streams' heads, so the sources are invisible in the firing order.
//! A stream takes one consecutive `seq` range, and its equal times are
//! interchangeable (they share one payload). No other event's `seq` falls
//! inside the range, so every event of a stream compares against any
//! other event like the stream's first `seq` does. The tests check the
//! queue against a deliberately naive specification: one `Vec` kept
//! sorted by key, whose `schedule_many` is the `schedule_at` loop.

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
        (self.at, self.seq) == (other.at, other.seq)
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

/// A sorted run of same-payload events outside the heap
/// ([`EventQueue::schedule_many`]). Never empty: a stream is dropped
/// when its last event pops.
struct Stream<E> {
    /// Pending firing times, latest first, so the next is the last.
    times: Vec<SimTime>,
    /// First of the stream's consecutive sequence numbers.
    seq: u64,
    payload: E,
}

/// An event queue with a simulation clock: a binary heap merged with
/// sorted streams (see the module docs).
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Sorted streams, in no particular order (pops pick by key).
    streams: Vec<Stream<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
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
            heap: BinaryHeap::new(),
            streams: Vec::new(),
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
        self.heap.len() + self.streams.iter().map(|s| s.times.len()).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.streams.is_empty()
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
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedules one copy of `payload` at each of `times`, in any order:
    /// the same events, in the same firing order, as calling
    /// [`schedule_at`](Self::schedule_at) for each time in turn. The
    /// times are sorted once and kept as a stream beside the heap.
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
        self.streams.push(Stream {
            times,
            seq,
            payload,
        });
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
        let heap = self.heap.peek().map(|s| s.at);
        let stream = self.first_stream().map(|(_, (at, _))| at);
        heap.into_iter().chain(stream).min()
    }

    /// Pops the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, payload) = match (self.first_stream(), self.heap.peek()) {
            (Some((i, key)), top) if top.is_none_or(|top| key < (top.at, top.seq)) => {
                self.pop_stream(i)
            }
            _ => {
                let top = self.heap.pop()?;
                (top.at, top.payload)
            }
        };
        self.now = at;
        self.processed += 1;
        Some((at, payload))
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
        (at, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The executable specification of the firing contract, deliberately
    /// naive: every pending event in one `Vec` sorted by `(at, seq)`.
    /// Its `schedule_many` is the `schedule_at` loop a stream replaces.
    struct Reference<E> {
        /// Pending events, latest `(at, seq)` first, so the next is the
        /// last.
        events: Vec<Scheduled<E>>,
        now: SimTime,
        seq: u64,
        processed: u64,
    }

    impl<E: Clone> Reference<E> {
        fn new() -> Self {
            Self {
                events: Vec::new(),
                now: SimTime::ZERO,
                seq: 0,
                processed: 0,
            }
        }

        fn now(&self) -> SimTime {
            self.now
        }

        fn processed(&self) -> u64 {
            self.processed
        }

        fn pending(&self) -> usize {
            self.events.len()
        }

        fn schedule_at(&mut self, at: SimTime, payload: E) {
            assert!(
                at >= self.now,
                "cannot schedule into the past: {} < {}",
                at,
                self.now
            );
            let key = (at, self.seq);
            let place = self.events.partition_point(|e| (e.at, e.seq) > key);
            self.events.insert(
                place,
                Scheduled {
                    at,
                    seq: self.seq,
                    payload,
                },
            );
            self.seq += 1;
        }

        fn schedule_many(&mut self, times: Vec<SimTime>, payload: E) {
            for at in times {
                self.schedule_at(at, payload.clone());
            }
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.events.last().map(|e| e.at)
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let event = self.events.pop()?;
            self.now = event.at;
            self.processed += 1;
            Some((event.at, event.payload))
        }
    }

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
    fn popped_events_schedule_follow_ups() {
        // Each event spawns a follow-up until a counter empties — the
        // canonical self-scheduling component pattern.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(1), 5u32);
        let mut fired = Vec::new();
        while let Some((t, remaining)) = q.pop() {
            fired.push((t.as_ps(), remaining));
            if remaining > 0 {
                q.schedule_in(SimTime::from_ps(2), remaining - 1);
            }
        }
        assert_eq!(fired.len(), 6);
        assert_eq!(q.now(), SimTime::from_ps(11));
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
        let mut q = Reference::new();
        q.schedule_at(SimTime::from_ps(10), ());
        q.pop();
        q.schedule_at(SimTime::from_ps(5), ());
    }

    #[test]
    fn reference_fires_in_time_then_insertion_order() {
        let mut q = Reference::new();
        q.schedule_at(SimTime::from_ps(30), 0);
        q.schedule_at(SimTime::from_ps(10), 1);
        q.schedule_at(SimTime::from_ps(10), 2);
        q.schedule_at(SimTime::from_ps(20), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert_eq!(q.processed(), 4);
    }

    #[test]
    fn far_future_horizons_fire_in_order() {
        // Ticks spread over the whole u64 space, up to its top, scheduled
        // latest last; a duplicate at the horizon checks the tie-break.
        let mut q = EventQueue::new();
        let mut r = Reference::new();
        let times = [
            0,
            1,
            1 << 6,
            1 << 12,
            1 << 18,
            1 << 24,
            1 << 30,
            1 << 36,
            1 << 42,
            1 << 48,
            1 << 54,
            1 << 60,
            u64::MAX,
            u64::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ps(t), i);
            r.schedule_at(SimTime::from_ps(t), i);
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b, "queue diverged from reference");
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
        let mut r = Reference::new();
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
            // the instants just pushed, so stream events tie with heap
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
        // Heap events at the stream's instants, scheduled before and
        // after it; a stream that starts at `now`; an empty stream; and
        // a second stream tied with the first.
        let t = SimTime::from_ps;
        let mut q = EventQueue::new();
        let mut r = Reference::new();
        q.schedule_at(t(5), "before");
        r.schedule_at(t(5), "before");
        q.pop();
        r.pop();
        for (times, label) in [
            (vec![t(90), t(5), t(70), t(5), t(90)], "s1"),
            (vec![], "empty"),
            (vec![t(70), t(5)], "s2"),
        ] {
            q.schedule_at(t(70), "heap");
            r.schedule_at(t(70), "heap");
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

    /// A horizon from now up to 2^47 ps, from one random draw.
    fn spread_delay(raw: u64) -> u64 {
        raw.wrapping_mul(raw).wrapping_mul(1 + raw % 977) % (1 << (raw % 48))
    }

    proptest! {
        /// The firing contract: over random schedules — duplicate times,
        /// interleaved push/pop, far-future horizons, and streams tied
        /// with singly-scheduled events before and after them — the queue
        /// pops the exact event sequence of the naive reference,
        /// including same-instant insertion-order tie-breaks.
        #[test]
        fn queue_matches_naive_reference(
            ops in proptest::collection::vec((0u32..8, 0u64..64, 0u32..16), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut r = Reference::new();
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
                        // horizon from now.
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
