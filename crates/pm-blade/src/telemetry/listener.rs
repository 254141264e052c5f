//! The pluggable event-listener hook API (RocksDB-style).

use std::sync::Arc;

use super::span::{CostDecision, SpanKind, TraceSpan};

/// Observer of engine background events.
///
/// Every hook has a no-op default so implementations override only
/// what they need. Invariants the engine guarantees:
///
/// - every `*_begin` is followed by exactly one matching `*_complete`
///   for the same partition, on the same thread, with no other begin
///   of the same kind for that partition in between. This holds on
///   every exit: work that turns out to be empty, and work that fails
///   (the caller gets the error), still completes. The completing span
///   is then a zero-work one — `end_nanos == start_nanos`, no records,
///   no bytes, the triggering `cost` if there was one — and is not
///   kept in the span ring;
/// - `on_compaction_begin`/`on_compaction_complete` cover
///   [`SpanKind::Internal`] and [`SpanKind::Major`]; flushes use the
///   dedicated flush hooks; group commits use `on_group_commit` only
///   (they are too frequent for begin/complete pairs);
/// - `on_cost_decision` fires for every evaluated rule, triggered or
///   not, before any compaction it triggers begins.
///
/// # Reentrancy and locking
///
/// Hooks may be invoked while the engine holds internal locks (the
/// per-partition commit mutex, and for compaction hooks a partition
/// write lock may have just been released but the commit mutex may
/// still be held). Implementations must be fast, must not block, and
/// must never call back into the `Db` — doing so can deadlock.
#[allow(unused_variables)]
pub trait EventListener: Send + Sync {
    fn on_flush_begin(&self, partition: usize) {}
    fn on_flush_complete(&self, span: &TraceSpan) {}
    fn on_compaction_begin(&self, kind: SpanKind, partition: usize) {}
    fn on_compaction_complete(&self, span: &TraceSpan) {}
    fn on_group_commit(&self, span: &TraceSpan) {}
    fn on_cost_decision(&self, decision: &CostDecision) {}
}

/// The set of listeners registered on an engine. Cloning shares the
/// listeners (they are `Arc`s), matching `Options`' clone semantics.
#[derive(Clone, Default)]
pub struct ListenerSet {
    listeners: Vec<Arc<dyn EventListener>>,
}

impl ListenerSet {
    pub fn new() -> Self {
        ListenerSet::default()
    }

    pub fn add(&mut self, listener: Arc<dyn EventListener>) {
        self.listeners.push(listener);
    }

    pub fn is_empty(&self) -> bool {
        self.listeners.is_empty()
    }

    /// Call `hook` on every listener, in registration order.
    pub(crate) fn each(&self, hook: impl Fn(&dyn EventListener)) {
        self.listeners.iter().for_each(|l| hook(l.as_ref()));
    }
}

impl std::fmt::Debug for ListenerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ListenerSet({} listeners)", self.listeners.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct CountingListener {
        flushes: AtomicUsize,
        decisions: AtomicUsize,
    }

    impl EventListener for CountingListener {
        fn on_flush_begin(&self, _partition: usize) {
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
        fn on_cost_decision(&self, _decision: &CostDecision) {
            self.decisions.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn set_fans_out_to_every_listener() {
        let a = Arc::new(CountingListener::default());
        let b = Arc::new(CountingListener::default());
        let mut set = ListenerSet::new();
        assert!(set.is_empty());
        set.add(a.clone());
        set.add(b.clone());
        assert!(!set.is_empty());
        set.each(|l| l.on_flush_begin(0));
        set.each(|l| l.on_flush_begin(1));
        let decision = CostDecision::HardCap {
            partition: 0,
            unsorted: 3,
            cap: 2,
            triggered: true,
        };
        set.each(|l| l.on_cost_decision(&decision));
        for l in [&a, &b] {
            assert_eq!(l.flushes.load(Ordering::Relaxed), 2);
            assert_eq!(l.decisions.load(Ordering::Relaxed), 1);
        }
        // Cloning shares the same listener instances.
        let cloned = set.clone();
        cloned.each(|l| l.on_flush_begin(2));
        assert_eq!(a.flushes.load(Ordering::Relaxed), 3);
    }
}
