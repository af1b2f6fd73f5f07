//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`. The sequence number is assigned
//! at scheduling time, so two events scheduled for the same instant fire in
//! scheduling order — a total order that makes every run byte-for-byte
//! reproducible regardless of the queue's internals.
//!
//! ## Delay lanes
//!
//! A packet-level run schedules nearly every event with one of a few fixed
//! delays (wire latency, MTU serialization, the routing service base). The
//! queue therefore keeps a small, fixed number of FIFO *lanes*, each holding
//! the pending events scheduled with one delay `at.since(now)`. Events whose
//! delay has no lane go to an overflow binary heap keyed by `(time, seq)`.
//! A pop takes the minimum over the lane heads and the heap top.
//!
//! The order is exact, not approximate. `schedule_at` rejects `at < now`,
//! `now` never decreases and `seq` only grows, so the events appended to a
//! lane with one fixed delay arrive in non-decreasing `time` and increasing
//! `seq`. Every lane is therefore sorted on `(time, seq)`, provided a lane is
//! re-keyed to a new delay only while it is empty, and the global pop order,
//! ties included, is the one a single heap over `(time, seq)` would give.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Number of delay lanes. Packet traffic needs three (wire, serialization,
/// service); the rest absorb short-packet serialization and rank timers.
const LANES: usize = 8;

/// `(time, seq)` packed into one integer with the same order, so a key
/// comparison is a single branch-free compare.
type Key = u128;

/// Head key of an empty lane. It sorts after every real key: a real `seq`
/// never reaches `u64::MAX`.
const EMPTY: Key = Key::MAX;

/// The time half of a key.
fn time_of(key: Key) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> Key {
        (Key::from(self.time.as_nanos()) << 64) | Key::from(self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key().cmp(&self.key())
    }
}

/// A time-ordered event queue with a monotonically advancing clock.
///
/// `EventQueue` is the single source of truth for "now" in a simulation:
/// [`EventQueue::pop`] advances the clock to the popped event's timestamp.
/// Scheduling into the past is a logic error and panics.
pub struct EventQueue<E> {
    /// Lane `i` holds, in `(time, seq)` order, pending events scheduled
    /// with delay `delays[i]`.
    lanes: [VecDeque<Entry<E>>; LANES],
    delays: [SimDuration; LANES],
    /// Key of each lane's front entry, [`EMPTY`] when the lane is empty.
    heads: [Key; LANES],
    /// The lane with the smallest head key.
    first: usize,
    /// Events whose delay found no lane.
    overflow: BinaryHeap<Entry<E>>,
    len: usize,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            delays: [SimDuration::ZERO; LANES],
            heads: [EMPTY; LANES],
            first: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far (simulation-size telemetry).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let entry = Entry {
            time: at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.len += 1;
        let delay = at.since(self.now);
        // The lane already keyed to this delay, else an empty lane re-keyed
        // to it, else the overflow heap.
        let lane = match self.delays.iter().position(|&d| d == delay) {
            Some(lane) => lane,
            None => match self.heads.iter().position(|&h| h == EMPTY) {
                Some(lane) => {
                    self.delays[lane] = delay;
                    lane
                }
                None => {
                    self.overflow.push(entry);
                    return;
                }
            },
        };
        if self.heads[lane] == EMPTY {
            let key = entry.key();
            self.heads[lane] = key;
            if key < self.heads[self.first] {
                self.first = lane;
            }
        }
        self.lanes[lane].push_back(entry);
    }

    /// Schedules `event` to fire `after` the current clock.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        self.schedule_at(self.now + after, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::from_nanos(u64::MAX))
    }

    /// Pops the earliest event if it fires no later than `horizon`,
    /// advancing the clock to its timestamp. Returns `None`, leaving the
    /// queue untouched, when the queue is empty or its next event lies
    /// beyond `horizon`.
    pub fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let head = self.heads[self.first];
        let entry = match self.overflow.peek() {
            Some(top) if top.key() < head => {
                if top.time > horizon {
                    return None;
                }
                self.overflow.pop()?
            }
            _ => {
                if head == EMPTY || time_of(head) > horizon {
                    return None;
                }
                self.pop_first_lane()?
            }
        };
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.len -= 1;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Pops the front of the lane with the smallest head and re-finds that
    /// lane.
    fn pop_first_lane(&mut self) -> Option<Entry<E>> {
        let lane = &mut self.lanes[self.first];
        let entry = lane.pop_front()?;
        self.heads[self.first] = lane.front().map_or(EMPTY, Entry::key);
        // Carry the smallest key, not just its index, so each step is a
        // compare and a conditional move rather than a dependent load.
        let (mut first, mut min) = (0, self.heads[0]);
        for (i, &head) in self.heads.iter().enumerate().skip(1) {
            if head < min {
                (first, min) = (i, head);
            }
        }
        self.first = first;
        Some(entry)
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let head = self.heads[self.first];
        match self.overflow.peek() {
            Some(top) if top.key() < head => Some(top.time),
            _ if head != EMPTY => Some(time_of(head)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(7));
        assert_eq!(q.now(), t);
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(50), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(10), ());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1u32);
        q.schedule_at(SimTime::from_nanos(30), 3u32);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Schedule between the popped event and the remaining one.
        q.schedule_at(SimTime::from_nanos(20), 2u32);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    proptest! {
        /// Popping must yield a non-decreasing time sequence, and events
        /// sharing a timestamp must come out in insertion order.
        #[test]
        fn prop_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_nanos(*t), i);
            }
            let mut last_time = SimTime::ZERO;
            let mut last_idx_at_time: Option<usize> = None;
            while let Some((t, idx)) = q.pop() {
                prop_assert!(t >= last_time);
                if t == last_time {
                    if let Some(prev) = last_idx_at_time {
                        prop_assert!(idx > prev, "stability violated");
                    }
                }
                last_time = t;
                last_idx_at_time = Some(idx);
            }
        }

        /// The queue drains exactly the number of scheduled events.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..100, 0..64)) {
            let mut q = EventQueue::new();
            for t in &times {
                q.schedule_at(SimTime::from_nanos(*t), ());
            }
            prop_assert_eq!(q.len(), times.len());
            let mut n = 0usize;
            while q.pop().is_some() { n += 1; }
            prop_assert_eq!(n, times.len());
            prop_assert!(q.is_empty());
        }
    }

    /// Reference model for the differential test: one heap over
    /// `(time, seq)`, the order the lanes must reproduce.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64, u32)>>,
        now: SimTime,
        seq: u64,
        popped: u64,
    }

    impl Model {
        fn schedule_at(&mut self, at: SimTime, id: u32) {
            self.heap.push(std::cmp::Reverse((at, self.seq, id)));
            self.seq += 1;
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|r| r.0 .0)
        }

        fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, u32)> {
            if self.peek_time()? > horizon {
                return None;
            }
            let std::cmp::Reverse((t, _, id)) = self.heap.pop()?;
            self.now = t;
            self.popped += 1;
            Some((t, id))
        }
    }

    /// The delays packet traffic uses most (wire, service base, MTU
    /// serialization on Cab), plus zero for same-instant scheduling.
    const HOT_DELAYS: [u64; 4] = [0, 250, 300, 820];

    #[test]
    fn more_delays_than_lanes_spill_to_the_overflow_in_order() {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        for id in 0..3 * LANES as u32 {
            let at = SimTime::from_nanos(1_000 - u64::from(id % 11) * 37);
            q.schedule_at(at, id);
            m.schedule_at(at, id);
        }
        assert!(!q.overflow.is_empty(), "distinct delays must overflow");
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), m.pop_due(SimTime::from_nanos(u64::MAX)));
        }
        assert!(m.heap.is_empty());
    }

    #[test]
    fn pop_due_leaves_later_events_in_place() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 'a');
        q.schedule_at(SimTime::from_nanos(20), 'b');
        assert_eq!(
            q.pop_due(SimTime::from_nanos(15)),
            Some((SimTime::from_nanos(10), 'a'))
        );
        assert_eq!(q.pop_due(SimTime::from_nanos(15)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::from_nanos(10));
        assert_eq!(q.events_processed(), 1);
        assert_eq!(
            q.pop_due(SimTime::from_nanos(20)),
            Some((SimTime::from_nanos(20), 'b'))
        );
        assert_eq!(q.pop_due(SimTime::from_nanos(u64::MAX)), None);
    }

    proptest! {
        /// Random interleavings of every queue operation pop exactly what
        /// a single `(time, seq)` heap pops, with the same clock, length
        /// and counters. Delays mix the hot set with a random tail, so more
        /// than `LANES` distinct delays are live at once (overflow and lane
        /// re-keying), and the hot set produces same-instant ties.
        #[test]
        fn prop_matches_a_single_heap(
            ops in proptest::collection::vec((0u8..6, 0u64..8, 0u64..3_000), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut m = Model::default();
            for (id, &(op, pick, tail)) in ops.iter().enumerate() {
                let id = id as u32;
                let delay = if pick < 4 { HOT_DELAYS[pick as usize] } else { tail };
                match op {
                    0..=2 => {
                        q.schedule_after(SimDuration::from_nanos(delay), id);
                        m.schedule_at(m.now + SimDuration::from_nanos(delay), id);
                    }
                    3 => {
                        let at = m.now + SimDuration::from_nanos(delay);
                        q.schedule_at(at, id);
                        m.schedule_at(at, id);
                    }
                    4 => {
                        let all = SimTime::from_nanos(u64::MAX);
                        prop_assert_eq!(q.pop(), m.pop_due(all));
                    }
                    _ => {
                        let horizon = m.now + SimDuration::from_nanos(delay);
                        prop_assert_eq!(q.pop_due(horizon), m.pop_due(horizon));
                    }
                }
                prop_assert_eq!(q.len(), m.heap.len());
                prop_assert_eq!(q.is_empty(), m.heap.is_empty());
                prop_assert_eq!(q.peek_time(), m.peek_time());
                prop_assert_eq!(q.now(), m.now);
                prop_assert_eq!(q.events_processed(), m.popped);
            }
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), m.pop_due(SimTime::from_nanos(u64::MAX)));
            }
            prop_assert!(m.heap.is_empty());
            prop_assert_eq!(q.events_processed(), m.popped);
        }
    }
}
