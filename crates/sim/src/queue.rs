//! Deterministic event queue.
//!
//! The architecture simulator is event-driven: processor contexts, write
//! buffers and barrier releases all schedule future work as timestamped
//! events. For reproducibility the queue must be *deterministic*: two events
//! scheduled for the same cycle are delivered in the order they were
//! scheduled (FIFO within a timestamp), independent of container internals.
//!
//! # Implementation
//!
//! The queue is a bucketed calendar (timing wheel) of [`WHEEL_SLOTS`]
//! one-cycle buckets covering the window `[now, now + WHEEL_SLOTS)`, with a
//! binary-heap fallback for far-future events. Nearly every event in the
//! simulator fires within a few hundred cycles of being scheduled (Table 1
//! latencies plus queueing), so the hot path is an O(1) bucket push and a
//! bitmap scan instead of `BinaryHeap` sift churn.
//!
//! Determinism is preserved by construction:
//!
//! * within a bucket, events are pushed in scheduling order and popped from
//!   the front, so same-cycle FIFO holds;
//! * every wheel event satisfies `at < now + WHEEL_SLOTS` (the window only
//!   grows as `now` advances), so a bucket never mixes two timestamps;
//! * for a given timestamp `t`, any overflow-heap event at `t` was scheduled
//!   strictly earlier (while `t` was still beyond the window) than any wheel
//!   event at `t`, so ties between the heap and the wheel resolve to the
//!   heap — which is exactly insertion order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// Number of one-cycle buckets in the calendar wheel (power of two).
///
/// Sized to cover the simulator's event horizon — Table 1 latencies plus
/// worst-case queueing are a few hundred cycles — while keeping the bucket
/// array small enough to stay cache-resident: with 256 one-cycle buckets the
/// wheel's working set is a few tens of KB, and `schedule` (the hottest
/// call in the simulator) touches warm lines instead of missing on a
/// 1024-bucket spread. Rarer far-future events (barrier backoffs, watchdog
/// timers) take the overflow heap, which preserves FIFO determinism.
const WHEEL_SLOTS: usize = 256;
/// Words in the occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// An entry in the overflow heap: `(time, sequence, payload)` with inverted
/// ordering so the `BinaryHeap` (a max-heap) pops the earliest time / lowest
/// sequence.
#[derive(Clone)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // Reversed: earliest (at, seq) is the "largest" for the max-heap.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Capacity hints for pre-sizing an [`EventQueue`] from workload knowledge.
///
/// The simulator knows an upper bound on same-cycle event fan-in (roughly
/// the process count plus the buffers that can retire in one cycle), so the
/// wheel's buckets and the overflow heap can be sized once up front instead
/// of growing — and reallocating — mid-sweep. Combined with batch draining
/// (which recycles bucket storage in place) this makes steady-state
/// dispatch allocation-free; `crates/sim/tests/alloc_free.rs` asserts it
/// with a counting allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueHints {
    /// Expected worst-case events sharing one cycle (per-bucket capacity).
    pub bucket_capacity: usize,
    /// Expected peak far-future events (overflow-heap capacity).
    pub overflow_capacity: usize,
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same cycle pop in scheduling order, which makes
/// whole-simulation runs bit-for-bit reproducible.
///
/// # Example
///
/// ```
/// use dashlat_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(3), 'b');
/// q.schedule(Cycle(1), 'a');
/// let (t, e) = q.pop().expect("queue is non-empty");
/// assert_eq!((t, e), (Cycle(1), 'a'));
/// ```
pub struct EventQueue<E> {
    /// `WHEEL_SLOTS` buckets; bucket `at % WHEEL_SLOTS` holds the events for
    /// timestamp `at` while `at` lies inside the window. Buckets are plain
    /// `Vec`s of payloads: every event in a one-cycle bucket shares the
    /// same timestamp, and that timestamp is recoverable from the slot
    /// index and `now`, so storing a `Cycle` per entry would only bloat
    /// the queue's memory traffic. Events are appended in scheduling order
    /// and leave either wholesale (the batch drain) or — on the rare
    /// single-event `pop` path — from the front.
    wheel: Box<[Vec<E>]>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Far-future events (`at >= now + WHEEL_SLOTS` at scheduling time).
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Cycle::ZERO`].
    pub fn new() -> Self {
        Self::with_hints(QueueHints::default())
    }

    /// Creates an empty queue with every wheel bucket and the overflow heap
    /// pre-sized from `hints`, so a correctly hinted simulation never grows
    /// them mid-run.
    pub fn with_hints(hints: QueueHints) -> Self {
        EventQueue {
            wheel: (0..WHEEL_SLOTS)
                .map(|_| Vec::<E>::with_capacity(hints.bucket_capacity))
                .collect(),
            occupied: [0; WHEEL_WORDS],
            wheel_len: 0,
            overflow: BinaryHeap::with_capacity(hints.overflow_capacity),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the last popped event:
    /// scheduling into the past would make simulated causality inconsistent.
    #[inline]
    pub fn schedule(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "event scheduled at {at} before current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if at.0 - self.now.0 < WHEEL_SLOTS as u64 {
            let slot = (at.0 as usize) % WHEEL_SLOTS;
            self.wheel[slot].push(event);
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Entry { at, seq, event });
        }
    }

    /// Earliest occupied wheel bucket (circular scan starting at the bucket
    /// for `now`) and the timestamp its events fire at. Every wheel event
    /// lies in the window `[now, now + WHEEL_SLOTS)`, so a slot's circular
    /// distance from `now`'s slot uniquely determines its timestamp.
    fn first_wheel(&self) -> Option<(usize, Cycle)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.now.0 as usize) % WHEEL_SLOTS;
        let w0 = start / 64;
        let bit = start % 64;
        // Bits at or after `start` within its word…
        let masked = self.occupied[w0] & (!0u64 << bit);
        let slot = if masked != 0 {
            w0 * 64 + masked.trailing_zeros() as usize
        } else {
            // …then the remaining words circularly; the final iteration
            // revisits `w0`, whose low bits are the wrapped-around slots.
            let mut found = None;
            for i in 1..=WHEEL_WORDS {
                let w = (w0 + i) % WHEEL_WORDS;
                if self.occupied[w] != 0 {
                    found = Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
                    break;
                }
            }
            found?
        };
        debug_assert!(!self.wheel[slot].is_empty(), "occupancy bit without events");
        let at = Cycle(self.now.0 + ((slot + WHEEL_SLOTS - start) % WHEEL_SLOTS) as u64);
        Some((slot, at))
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let wheel_next = self.first_wheel();
        let heap_at = self.overflow.peek().map(|e| e.at);
        // On a timestamp tie the heap entry was scheduled first (it was
        // beyond the window then; the window only grows), so FIFO says the
        // heap wins.
        let take_heap = match (wheel_next, heap_at) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((_, wt)), Some(ht)) => ht <= wt,
        };
        if take_heap {
            let entry = self.overflow.pop()?;
            debug_assert!(entry.at >= self.now);
            self.now = entry.at;
            return Some((entry.at, entry.event));
        }
        let (slot, at) = wheel_next?;
        // Front removal shifts the bucket (buckets are push-only `Vec`s);
        // only tests and benchmarks pop single events — the machine takes
        // whole buckets via [`EventQueue::drain_next_into`], with or
        // without a scheduler.
        let event = self.wheel[slot].remove(0);
        debug_assert!(at >= self.now);
        if self.wheel[slot].is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.wheel_len -= 1;
        self.now = at;
        Some((at, event))
    }

    /// Drains *every* event at the earliest pending timestamp into `batch`,
    /// advances the clock to that timestamp, and returns it. Returns `None`
    /// (touching nothing) when the queue is empty.
    ///
    /// The order appended to `batch` is exactly the order repeated
    /// [`EventQueue::pop`] calls would deliver those events: overflow-heap
    /// entries first (on a timestamp tie they were scheduled strictly
    /// earlier — see the module docs), then the wheel bucket front-to-back.
    /// Draining a whole bucket does one bitmap scan and one bulk move
    /// instead of a scan-and-pop per event, and it leaves the bucket's
    /// allocation in place for the events the dispatched batch schedules
    /// back into the same cycle — the scratch ring (`batch`) and the bucket
    /// recycle each other's storage, so steady-state dispatch is
    /// allocation-free.
    ///
    /// `batch` is appended to, not cleared; events the caller pushes into
    /// the queue *while consuming the batch* land at this same timestamp or
    /// later and are picked up by the next drain, which preserves the
    /// per-event pop order observationally (proved by the
    /// `batch_drain_matches_per_event_pops` property test below).
    pub fn drain_next_into(&mut self, batch: &mut Vec<E>) -> Option<Cycle> {
        let wheel_next = self.first_wheel();
        let heap_at = self.overflow.peek().map(|e| e.at);
        let t = match (wheel_next, heap_at) {
            (None, None) => return None,
            (Some((_, wt)), Some(ht)) => ht.min(wt),
            (Some((_, wt)), None) => wt,
            (None, Some(ht)) => ht,
        };
        debug_assert!(t >= self.now);
        self.now = t;
        while self.overflow.peek().is_some_and(|e| e.at == t) {
            let entry = self.overflow.pop().expect("peeked entry present");
            batch.push(entry.event);
        }
        if let Some((slot, wt)) = wheel_next {
            if wt == t {
                // One-cycle buckets never mix timestamps, so the whole
                // bucket belongs to `t`.
                let bucket = &mut self.wheel[slot];
                self.wheel_len -= bucket.len();
                if batch.is_empty() {
                    // Nothing precedes the bucket in the batch: hand the
                    // caller the bucket's storage wholesale instead of
                    // copying events one by one. The bucket inherits the
                    // caller's (empty, previously swapped-in) buffer, so
                    // the two rings keep trading the same allocations.
                    std::mem::swap(bucket, batch);
                } else {
                    batch.append(bucket);
                }
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            }
        }
        Some(t)
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        let wheel_at = self.first_wheel().map(|(_, at)| at);
        let heap_at = self.overflow.peek().map(|e| e.at);
        match (wheel_at, heap_at) {
            (Some(w), Some(h)) => Some(w.min(h)),
            (a, b) => a.or(b),
        }
    }

    /// The time of the most recently popped event (the simulation "now").
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total events scheduled over the queue's lifetime (the simulator's
    /// unit of work — the throughput metric of the bench harness).
    #[inline]
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        let EventQueue {
            wheel,
            occupied,
            wheel_len,
            overflow,
            next_seq,
            now,
        } = self;
        EventQueue {
            wheel: wheel.clone(),
            occupied: *occupied,
            wheel_len: *wheel_len,
            overflow: overflow.clone(),
            next_seq: *next_seq,
            now: *now,
        }
    }

    /// Copies `source` into `self` keeping `self`'s bucket and heap
    /// storage: a machine that reruns a copy of one built queue allocates
    /// nothing once its buckets have grown. Only buckets occupied in
    /// either queue are touched; the rest are empty in both.
    fn clone_from(&mut self, source: &Self) {
        let EventQueue {
            wheel,
            occupied,
            wheel_len,
            overflow,
            next_seq,
            now,
        } = self;
        for (w, (mine, theirs)) in occupied.iter().zip(&source.occupied).enumerate() {
            let mut bits = mine | theirs;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wheel[slot].clone_from(&source.wheel[slot]);
            }
        }
        *occupied = source.occupied;
        *wheel_len = source.wheel_len;
        overflow.clone_from(&source.overflow);
        *next_seq = source.next_seq;
        *now = source.now;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("far_future", &self.overflow.len())
            .finish()
    }
}

/// The pre-calendar `BinaryHeap` implementation, kept as the test oracle for
/// the observational-equivalence property tests below.
#[cfg(test)]
mod oracle {
    use super::{BinaryHeap, Cycle, Entry};

    /// Reference queue: a max-heap over inverted `(at, seq)`.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: Cycle,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: Cycle::ZERO,
            }
        }

        pub fn schedule(&mut self, at: Cycle, event: E) {
            assert!(at >= self.now, "event scheduled in the past");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
        }

        pub fn pop(&mut self) -> Option<(Cycle, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            Some((entry.at, entry.event))
        }

        pub fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|e| e.at)
        }

        pub fn now(&self) -> Cycle {
            self.now
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(30), 3);
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.schedule(Cycle(5), ());
        q.pop();
        assert_eq!(q.now(), Cycle(5));
        // Scheduling at the current time is allowed.
        q.schedule(Cycle(5), ());
        assert_eq!(q.pop(), Some((Cycle(5), ())));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), ());
        q.pop();
        q.schedule(Cycle(9), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycle(1), 0);
        q.schedule(Cycle(2), 0);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(4), "x");
        assert_eq!(q.peek_time(), Some(Cycle(4)));
        assert_eq!(q.now(), Cycle::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_events_fall_back_to_the_heap() {
        let mut q = EventQueue::new();
        // Far beyond the wheel window.
        q.schedule(Cycle(1_000_000), "far");
        q.schedule(Cycle(3), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.pop(), Some((Cycle(3), "near")));
        assert_eq!(q.peek_time(), Some(Cycle(1_000_000)));
        assert_eq!(q.pop(), Some((Cycle(1_000_000), "far")));
        assert_eq!(q.now(), Cycle(1_000_000));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn heap_wins_timestamp_ties_against_the_wheel() {
        let mut q = EventQueue::new();
        // Scheduled while 2000 is beyond the window → overflow heap.
        q.schedule(Cycle(2000), "first");
        q.schedule(Cycle(1500), "step");
        assert_eq!(q.pop(), Some((Cycle(1500), "step")));
        // 2000 is now inside the window → wheel; it was scheduled later so
        // it must pop second.
        q.schedule(Cycle(2000), "second");
        assert_eq!(q.pop(), Some((Cycle(2000), "first")));
        assert_eq!(q.pop(), Some((Cycle(2000), "second")));
    }

    #[test]
    fn drain_takes_the_whole_earliest_cycle_in_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(2000), "heap-first"); // beyond the window → heap
        q.schedule(Cycle(1500), "step");
        assert_eq!(q.pop(), Some((Cycle(1500), "step")));
        q.schedule(Cycle(2000), "wheel-second");
        q.schedule(Cycle(2000), "wheel-third");
        q.schedule(Cycle(2001), "later");
        let mut batch = Vec::new();
        assert_eq!(q.drain_next_into(&mut batch), Some(Cycle(2000)));
        assert_eq!(
            batch.as_slice(),
            &["heap-first", "wheel-second", "wheel-third"]
        );
        assert_eq!(q.now(), Cycle(2000));
        assert_eq!(q.len(), 1);
        // Same-cycle events scheduled while the batch is being consumed
        // join the *next* drain, after everything already drained.
        q.schedule(Cycle(2000), "rescheduled");
        batch.clear();
        assert_eq!(q.drain_next_into(&mut batch), Some(Cycle(2000)));
        assert_eq!(batch.as_slice(), &["rescheduled"]);
        batch.clear();
        assert_eq!(q.drain_next_into(&mut batch), Some(Cycle(2001)));
        assert_eq!(q.drain_next_into(&mut batch), None);
    }

    #[test]
    fn drain_on_empty_queue_is_none_and_clock_holds() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut batch = Vec::new();
        assert_eq!(q.drain_next_into(&mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(q.now(), Cycle::ZERO);
    }

    #[test]
    fn hints_pre_size_buckets() {
        let q: EventQueue<u8> = EventQueue::with_hints(QueueHints {
            bucket_capacity: 8,
            overflow_capacity: 32,
        });
        assert!(q.is_empty());
        assert!(q.wheel.iter().all(|b| b.capacity() >= 8));
        assert!(q.overflow.capacity() >= 32);
    }

    #[test]
    fn clone_preserves_pending_events_and_clock() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), 1u32);
        q.schedule(Cycle(5), 2);
        q.schedule(Cycle(9000), 3); // overflow heap
        q.pop();
        let mut copy = q.clone();
        let mut rest = Vec::new();
        while let Some(e) = copy.pop() {
            rest.push(e);
        }
        assert_eq!(rest, vec![(Cycle(5), 2), (Cycle(9000), 3)]);
        assert_eq!(copy.scheduled(), q.scheduled());
        // The original is untouched by draining the clone.
        assert_eq!(q.len(), 2);

        // `clone_from` into a queue with other events in other buckets
        // and in the heap leaves exactly the source's.
        let mut other = EventQueue::new();
        for t in [1, 7, 200, 700] {
            other.schedule(Cycle(t), 10);
        }
        other.pop();
        other.clone_from(&q);
        assert_eq!((other.now(), other.len()), (q.now(), q.len()));
        let mut rest = Vec::new();
        while let Some(e) = other.pop() {
            rest.push(e);
        }
        assert_eq!(rest, vec![(Cycle(5), 2), (Cycle(9000), 3)]);
        assert_eq!(other.scheduled(), q.scheduled());
    }

    #[test]
    fn wheel_wraps_across_many_windows() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..500u64 {
            t += 7 * (i % 13) + 1;
            q.schedule(Cycle(t), i);
            expect.push((Cycle(t), i));
            // Drain every third scheduling so the window keeps sliding.
            if i % 3 == 0 {
                let got = q.pop().unwrap();
                assert_eq!(got, expect.remove(0));
            }
        }
        while let Some(got) = q.pop() {
            assert_eq!(got, expect.remove(0));
        }
        assert!(expect.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::oracle::HeapQueue;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping the whole queue yields times in nondecreasing order, and
        /// equal times preserve insertion order.
        #[test]
        fn pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Cycle(t), i);
            }
            let mut popped = Vec::new();
            while let Some(item) = q.pop() {
                popped.push(item);
            }
            prop_assert_eq!(popped.len(), times.len());
            for w in popped.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "FIFO broken within a timestamp");
                }
            }
        }

        /// Bucket-drain dispatch is observationally identical to per-event
        /// pops: a dispatch loop that drains whole cycles into a scratch
        /// ring processes the exact same event sequence as one popping
        /// events singly — including events the handler schedules *while a
        /// batch is in flight* (same-cycle follow-ups, short delays, and
        /// far-future overflow entries).
        #[test]
        fn batch_drain_matches_per_event_pops(
            seeds in proptest::collection::vec((0u64..2200, 0u8..3), 1..60)
        ) {
            // Deterministic handler: event `id` may schedule follow-ups,
            // derived purely from `id` so both engines see identical work.
            fn follow_ups(id: u64, now: Cycle) -> Vec<(Cycle, u64)> {
                let mut out = Vec::new();
                if id.is_multiple_of(3) && id < 1_000_000 {
                    out.push((now, id + 1_000_003)); // same-cycle follow-up
                }
                if id % 4 == 1 {
                    out.push((Cycle(now.0 + (id % 7)), id + 2_000_003));
                }
                if id % 11 == 5 {
                    out.push((Cycle(now.0 + 1500 + id % 97), id + 3_000_017));
                }
                out
            }

            // Engine A: per-event pops.
            let mut a = EventQueue::new();
            for (i, &(t, rep)) in seeds.iter().enumerate() {
                for r in 0..=rep {
                    a.schedule(Cycle(t), (i as u64) * 8 + u64::from(r));
                }
            }
            let mut order_a = Vec::new();
            while let Some((t, id)) = a.pop() {
                order_a.push((t, id));
                for (at, nid) in follow_ups(id, t) {
                    a.schedule(at, nid);
                }
            }

            // Engine B: bucket drains into a reusable scratch ring.
            let mut b = EventQueue::new();
            for (i, &(t, rep)) in seeds.iter().enumerate() {
                for r in 0..=rep {
                    b.schedule(Cycle(t), (i as u64) * 8 + u64::from(r));
                }
            }
            let mut order_b = Vec::new();
            let mut batch = Vec::new();
            while let Some(t) = b.drain_next_into(&mut batch) {
                for id in batch.drain(..) {
                    order_b.push((t, id));
                    for (at, nid) in follow_ups(id, t) {
                        b.schedule(at, nid);
                    }
                }
            }

            prop_assert_eq!(order_a, order_b);
        }

        /// The calendar wheel is observationally equivalent to the old
        /// `BinaryHeap` queue on arbitrary schedule/pop interleavings. Deltas
        /// span both the wheel window and the far-future overflow heap, and
        /// delta 0 exercises same-cycle FIFO.
        #[test]
        fn wheel_matches_heap_oracle(
            ops in proptest::collection::vec(
                (any::<bool>(), 0u64..4000, 0u64..3), 1..300)
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut id = 0u64;
            for (is_pop, delta, repeat) in ops {
                if is_pop {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                } else {
                    // `repeat` schedules several events at the same cycle to
                    // stress FIFO-within-timestamp.
                    for _ in 0..=repeat {
                        let at = Cycle(wheel.now().0 + delta);
                        wheel.schedule(at, id);
                        heap.schedule(at, id);
                        id += 1;
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                prop_assert_eq!(wheel.now(), heap.now());
            }
            // Drain: every remaining event pops identically.
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }
    }
}
