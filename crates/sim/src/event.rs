//! Events and their deterministic ordering.

use core::cmp::Reverse;
use core::fmt;
use std::collections::BinaryHeap;

use aqua_core::aqua;
use aqua_core::time::Instant;

use crate::node::NodeId;

/// Handle for a pending timer, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub(crate) u64);

impl TimerToken {
    /// The raw token value (unique within one simulation).
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// An event delivered to a [`crate::node::Node`].
#[derive(Debug, Clone)]
pub enum Event<M> {
    /// Delivered once to every node when the simulation starts (and to
    /// nodes added later, at their insertion time).
    Started,
    /// A message arriving over the simulated network.
    Message {
        /// The sending node.
        from: NodeId,
        /// The payload.
        payload: M,
    },
    /// A timer set by this node has fired.
    Timer {
        /// The token returned when the timer was set.
        token: TimerToken,
    },
}

/// The pending-event queue both engines share.
///
/// Events are ordered by `(at, tie)`: the sequential engine breaks ties
/// with its global scheduling sequence (`T = u64`), the sharded engine with
/// `(origin, origin_seq)`. Both tie-breaks end in a sequence number, so
/// keys are unique and the pop order is exactly that of a binary heap over
/// the keys — the slot index never decides anything.
///
/// The layout exploits that simulated time never runs backwards: a radix
/// heap over the timestamp. `base` is the time of the last popped event;
/// every pending event at exactly `base` waits in `current`, a small heap
/// ordered by the tie-break, and every later one in `buckets[b]`, where `b`
/// is the highest bit in which its time differs from `base`. A push is one
/// XOR and a leading-zero count; a pop that empties `current` moves only
/// the lowest occupied bucket, each entry to a strictly lower bucket. The
/// heap and buckets hold compact `(at, tie, slot)` entries; the
/// `(target, Event<M>)` payloads sit in a slab, written once on push and
/// moved out once on pop, and popped slots are reused.
///
/// A push earlier than `base` (a harness scheduling into the past) is
/// still ordered correctly: the queue re-buckets everything around the new
/// base, once.
pub(crate) struct EventQueue<T, M> {
    base: u64,
    current: BinaryHeap<Reverse<(T, u32)>>,
    buckets: Vec<Vec<Pending<T>>>,
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    slab: Vec<Slot<M>>,
    free: Vec<u32>,
}

/// The payload half of a pending event. A popped slot keeps a
/// placeholder [`Event::Started`] until it is reused.
struct Slot<M> {
    event: Event<M>,
    target: NodeId,
}

/// An event taken off the queue. The payload comes first so a pop moves
/// it straight out of its slab slot into place.
#[repr(C)]
pub(crate) struct Popped<T, M> {
    pub event: Event<M>,
    pub at: Instant,
    pub tie: T,
    pub target: NodeId,
}

/// Capacity an emptied bucket keeps for reuse.
const RETAINED_BUCKET_CAPACITY: usize = 64;

/// A bucketed entry: its timestamp (nanoseconds), tie-break and slab slot.
#[derive(Debug, Clone, Copy)]
struct Pending<T> {
    at: u64,
    tie: T,
    slot: u32,
}

impl<T: Ord + Copy, M> EventQueue<T, M> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            base: 0,
            current: BinaryHeap::new(),
            buckets: (0..64).map(|_| Vec::new()).collect(),
            occupied: 0,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Enqueues `event` for `target` at `at`, ordered among equal times by
    /// `tie`.
    #[aqua::hot_path]
    pub fn push(&mut self, at: Instant, tie: T, target: NodeId, event: Event<M>) {
        let entry = Slot { event, target };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(entry);
                slot
            }
        };
        let at = at.as_nanos();
        if at < self.base {
            self.rebase(at);
        }
        self.place(Pending { at, tie, slot });
    }

    /// Files an entry at or after `base` into `current` or its bucket.
    #[aqua::hot_path]
    fn place(&mut self, entry: Pending<T>) {
        if entry.at == self.base {
            self.current.push(Reverse((entry.tie, entry.slot)));
        } else {
            let b = 63 - (entry.at ^ self.base).leading_zeros() as usize;
            self.buckets[b].push(entry);
            self.occupied |= 1 << b;
        }
    }

    /// Lowers `base` to `at` and re-files every pending entry around it.
    #[cold]
    fn rebase(&mut self, at: u64) {
        let base = self.base;
        let mut all: Vec<Pending<T>> = self
            .current
            .drain()
            .map(|Reverse((tie, slot))| Pending {
                at: base,
                tie,
                slot,
            })
            .collect();
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        self.occupied = 0;
        self.base = at;
        for entry in all {
            self.place(entry);
        }
    }

    /// The earliest pending time.
    pub fn next_at(&self) -> Option<Instant> {
        if !self.current.is_empty() {
            return Some(Instant::from_nanos(self.base));
        }
        let lowest = self.buckets.get(self.occupied.trailing_zeros() as usize)?;
        lowest.iter().map(|e| e.at).min().map(Instant::from_nanos)
    }

    /// Removes and returns the earliest event — its time, tie-break, target
    /// and payload — if it is due at or before `limit`; nothing moves when
    /// it is not.
    #[aqua::hot_path]
    pub fn pop_until(&mut self, limit: Instant) -> Option<Popped<T, M>> {
        let limit = limit.as_nanos();
        if self.current.is_empty() {
            let b = self.occupied.trailing_zeros() as usize;
            let next = self.buckets.get(b)?.iter().map(|e| e.at).min()?;
            if next > limit {
                return None;
            }
            // Advance to the earliest time and re-file its bucket: the
            // entries at `next` land in `current`, the rest in lower buckets.
            self.base = next;
            self.occupied &= !(1 << b);
            let mut bucket = core::mem::take(&mut self.buckets[b]);
            for entry in bucket.drain(..) {
                self.place(entry);
            }
            // Its entries now live in lower buckets: keep a small buffer
            // for reuse, but release a large one, or every bucket would
            // hold the peak it ever reached.
            bucket.shrink_to(RETAINED_BUCKET_CAPACITY);
            self.buckets[b] = bucket;
        } else if self.base > limit {
            return None;
        }
        let Reverse((tie, slot)) = self.current.pop()?;
        let entry = self.slab.get_mut(slot as usize)?;
        let popped = Popped {
            event: core::mem::replace(&mut entry.event, Event::Started),
            at: Instant::from_nanos(self.base),
            tie,
            target: entry.target,
        };
        self.free.push(slot);
        Some(popped)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One scripted step: push an event at `at_ms` with tie-break tag
    /// `tag`, or pop the earliest event if it is due by `limit_ms`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u64, u32),
        Pop(u64),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        // Few distinct timestamps, so equal-time ties are the common case;
        // pops interleaved with pushes, so slots are freed and reused, and
        // some pushes land before the last popped time.
        prop::collection::vec(
            prop_oneof![
                3 => (0u64..6, 0u32..4).prop_map(|(at, tag)| Op::Push(at, tag)),
                2 => (0u64..7).prop_map(Op::Pop),
            ],
            0..200,
        )
    }

    type Popped<T> = (Instant, T, u32, u32);

    /// Replays `ops` on an [`EventQueue`] and on a `BinaryHeap` of the bare
    /// `(at, tie)` keys. Returns both pop sequences (each popped key with
    /// the target and payload that must travel with it), the slab size and
    /// the most events ever pending at once. `tie` builds the
    /// engine-specific tie-break from `(tag, seq)`.
    fn replay<T: Ord + Copy + fmt::Debug>(
        ops: &[Op],
        tie: impl Fn(u32, u64) -> T,
    ) -> (Vec<Popped<T>>, Vec<Popped<T>>, usize, usize) {
        let mut queue: EventQueue<T, u32> = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<Popped<T>>> = BinaryHeap::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut peak = 0;
        let mut pop = |queue: &mut EventQueue<T, u32>,
                       reference: &mut BinaryHeap<Reverse<Popped<T>>>,
                       limit: Instant| {
            assert_eq!(
                queue.next_at(),
                reference.peek().map(|Reverse(e)| e.0),
                "next_at agrees with the reference minimum"
            );
            got.extend(queue.pop_until(limit).map(|p| match p.event {
                Event::Message { payload, .. } => (p.at, p.tie, p.target.index(), payload),
                other => panic!("only messages were pushed: {other:?}"),
            }));
            if reference.peek().is_some_and(|Reverse(e)| e.0 <= limit) {
                want.extend(reference.pop().map(|Reverse(e)| e));
            }
        };
        for (seq, op) in ops.iter().enumerate() {
            match *op {
                Op::Push(at_ms, tag) => {
                    let at = Instant::from_millis(at_ms);
                    let t = tie(tag, seq as u64);
                    let target = seq as u32 % 7;
                    let payload = tag * 1_000 + seq as u32;
                    let event = Event::Message {
                        from: NodeId::new(0),
                        payload,
                    };
                    queue.push(at, t, NodeId::new(target), event);
                    reference.push(Reverse((at, t, target, payload)));
                }
                Op::Pop(limit_ms) => {
                    pop(&mut queue, &mut reference, Instant::from_millis(limit_ms))
                }
            }
            peak = peak.max(queue.len());
        }
        let slab = queue.slab.len();
        while queue.len() > 0 || !reference.is_empty() {
            pop(&mut queue, &mut reference, Instant::from_nanos(u64::MAX));
        }
        (got, want, slab, peak)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The sequential engine's `(at, seq)` keys pop in reference order.
        #[test]
        fn sequential_keys_pop_like_a_plain_heap(ops in ops()) {
            let (got, want, ..) = replay(&ops, |_, seq| seq);
            prop_assert_eq!(got, want);
        }

        /// The sharded engine's `(at, origin, seq)` keys pop in reference
        /// order; the origin (here the tag) outranks the sequence number.
        #[test]
        fn sharded_keys_pop_like_a_plain_heap(ops in ops()) {
            let (got, want, ..) = replay(&ops, |tag, seq| (NodeId::new(tag), seq));
            prop_assert_eq!(got, want);
        }

        /// Popped slots are reused: the slab never outgrows the largest
        /// number of events pending at once.
        #[test]
        fn slab_reuses_popped_slots(ops in ops()) {
            let (_, _, slab, peak) = replay(&ops, |_, seq| seq);
            prop_assert_eq!(slab, peak);
        }
    }

    #[test]
    fn pop_until_declines_without_moving_anything() {
        let mut queue: EventQueue<u64, ()> = EventQueue::new();
        queue.push(Instant::from_millis(5), 0, NodeId::new(1), Event::Started);
        assert!(queue.pop_until(Instant::from_millis(4)).is_none());
        assert_eq!(queue.next_at(), Some(Instant::from_millis(5)));
        let popped = queue
            .pop_until(Instant::from_millis(5))
            .expect("one event due");
        assert_eq!(
            (popped.at, popped.tie, popped.target),
            (Instant::from_millis(5), 0, NodeId::new(1))
        );
        assert!(queue.pop_until(Instant::from_nanos(u64::MAX)).is_none());
        assert_eq!(queue.len(), 0);
    }
}
