//! The capped ring behind `Db::compaction_log()` and the flight
//! recorder.

use std::collections::VecDeque;

use parking_lot::Mutex;

use super::span::TraceSpan;

/// A fixed-capacity ring of the most recent `T`s.
///
/// When full, pushing evicts the *oldest* item; evictions are counted
/// so snapshots can report how much history was lost.
pub struct Ring<T> {
    inner: Mutex<Inner<T>>,
}

struct Inner<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

/// The ring of completed maintenance spans: one per flush, internal or
/// major compaction that installed. Group commits are counted in the
/// metrics registry, not here (they would evict the much rarer
/// compaction spans within seconds on a write-heavy workload).
pub type EventRing = Ring<TraceSpan>;

impl<T: Clone> Ring<T> {
    /// `capacity` must be at least 1 (`Db::open` rejects an
    /// `event_log_capacity` of 0); 0 gets 1.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                dropped: 0,
            }),
        }
    }

    pub fn push(&self, item: T) {
        let mut inner = self.inner.lock();
        if inner.buf.len() >= inner.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(item);
    }

    /// Oldest-to-newest copy of the retained items.
    pub fn snapshot(&self) -> Vec<T> {
        self.snapshot_and_dropped().0
    }

    /// [`Ring::snapshot`] and [`Ring::dropped`] under one lock.
    pub(super) fn snapshot_and_dropped(&self) -> (Vec<T>, u64) {
        let inner = self.inner.lock();
        (inner.buf.iter().cloned().collect(), inner.dropped)
    }

    /// Items evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Ring")
            .field("len", &inner.buf.len())
            .field("capacity", &inner.capacity)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::span::SpanKind;

    fn span(id: u64) -> TraceSpan {
        TraceSpan {
            id,
            trace_id: 0,
            kind: SpanKind::Flush,
            partition: 0,
            start_nanos: id,
            end_nanos: id + 1,
            input_records: 0,
            output_records: 0,
            input_bytes: 0,
            output_bytes: 0,
            level: None,
            cost: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = EventRing::new(3);
        for id in 0..5 {
            ring.push(span(id));
        }
        let ids: Vec<u64> = ring.snapshot().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = EventRing::new(0);
        ring.push(span(1));
        ring.push(span(2));
        assert_eq!(ring.snapshot().len(), 1);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.snapshot()[0].id, 2);
    }
}
