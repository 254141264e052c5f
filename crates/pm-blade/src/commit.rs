//! Group commit: batched writes and the per-partition commit queue.
//!
//! Concurrent writers to the same partition coalesce into *commit
//! groups*: each writer enqueues a `Ticket` and then races for the
//! partition's commit mutex. The winner (the **leader**) drains the
//! queue, appends every queued operation to the WAL in one pass,
//! applies them to the memtable under a single partition write lock,
//! and marks every ticket done *before* releasing the commit mutex —
//! so a follower that subsequently wins the mutex observes its ticket
//! completed and returns without doing any work. No condition variable
//! is needed: a follower either finds its ticket done, or becomes the
//! next leader itself.
//!
//! A **lone writer** skips the queue. One that wins the commit mutex
//! with `try_lock` and then finds the queue empty is a group of one: it
//! commits a `Ticket` on its own stack that borrows the caller's key
//! and value (`Ops::One`), so nothing is allocated or copied before
//! the memtable copies the bytes into its node. The proof above is
//! unchanged: tickets still leave the queue only under the commit
//! mutex, and a writer that queues after the emptiness check waits on
//! the mutex and then finds its ticket not done, so it leads the next
//! group. Every other writer copies its ops into an owned ticket
//! (`Ops::into_owned`) and queues.
//!
//! Lock hierarchy (documented in DESIGN.md): commit mutex (per
//! partition) → WAL mutex → partition `RwLock`. The leader never holds
//! two of these except in that order, and never holds two partition
//! locks at once.

use std::sync::Arc;

use encoding::key::KeyKind;
use parking_lot::Mutex;
use sim::{Counter, SimDuration};

use crate::engine::DbError;
use crate::telemetry::{MetricKey, MetricsRegistry, TraceContext};

/// One write operation inside a [`WriteBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOp {
    Put { key: Vec<u8>, value: Vec<u8> },
    Delete { key: Vec<u8> },
}

impl BatchOp {
    pub fn key(&self) -> &[u8] {
        self.parts().0
    }

    /// What the op writes: its key, its value (empty for a tombstone)
    /// and the kind of entry.
    pub(crate) fn parts(&self) -> (&[u8], &[u8], KeyKind) {
        match self {
            BatchOp::Put { key, value } => (key, value, KeyKind::Value),
            BatchOp::Delete { key } => (key, &[], KeyKind::Delete),
        }
    }
}

/// An ordered set of writes applied atomically *per partition*: all
/// operations routed to one partition become visible to readers in a
/// single step (one memtable apply under the partition's write lock, so
/// a scan of the partition sees all of them or none). A batch spanning
/// several partitions is applied partition-by-partition in ascending id
/// order; cross-partition atomicity is not guaranteed. It converts to
/// and from its ops, the form `Request::WriteBatch` carries.
#[derive(Clone, Debug, Default)]
pub struct WriteBatch {
    pub(crate) ops: Vec<BatchOp>,
}

impl WriteBatch {
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queue an insert/update.
    pub fn put(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push(BatchOp::Put {
            key: key.into(),
            value: value.into(),
        });
        self
    }

    /// Queue a tombstone.
    pub fn delete(&mut self, key: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push(BatchOp::Delete { key: key.into() });
        self
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl From<Vec<BatchOp>> for WriteBatch {
    fn from(ops: Vec<BatchOp>) -> Self {
        WriteBatch { ops }
    }
}

impl From<WriteBatch> for Vec<BatchOp> {
    fn from(batch: WriteBatch) -> Self {
        batch.ops
    }
}

/// The writes one ticket carries: a lone `put` / `delete` borrowing
/// the caller's slices, or a batch's owned ops for one partition.
pub(crate) enum Ops<'a> {
    One(&'a [u8], &'a [u8], KeyKind),
    Batch(Vec<BatchOp>),
}

impl Ops<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Ops::One(..) => 1,
            Ops::Batch(ops) => ops.len(),
        }
    }

    /// Each op's key, value (empty for a tombstone) and kind, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8], KeyKind)> {
        let (one, batch) = match self {
            Ops::One(key, value, kind) => (Some((*key, *value, *kind)), &[][..]),
            Ops::Batch(ops) => (None, &ops[..]),
        };
        one.into_iter().chain(batch.iter().map(BatchOp::parts))
    }

    /// The same ops, owning their bytes, for a ticket that must queue.
    pub(crate) fn into_owned(self) -> Ops<'static> {
        let op = match self {
            Ops::One(key, value, KeyKind::Value) => BatchOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
            Ops::One(key, _, KeyKind::Delete) => BatchOp::Delete { key: key.to_vec() },
            Ops::Batch(ops) => return Ops::Batch(ops),
        };
        Ops::Batch(vec![op])
    }
}

/// What the leader measured of one sampled ticket's share of its group,
/// in virtual nanoseconds — the WAL append, the memtable apply, and the
/// rest of the share (the group's other work and any flush it tripped)
/// — plus the group's op count. The submitter lays it out as its
/// write stages.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GroupShare {
    pub(crate) wal_nanos: u64,
    pub(crate) apply_nanos: u64,
    pub(crate) wait_nanos: u64,
    pub(crate) group_ops: u64,
}

/// One writer's stake in a commit group. The leader fills `result` and
/// then raises `done` (with release ordering) before it releases the
/// commit mutex; the owning writer spins on the mutex/`done` pair, so
/// there is no lost-wakeup window.
pub(crate) struct Ticket<'a> {
    pub(crate) ops: Ops<'a>,
    /// Trace context of the submitting writer (sampled requests only).
    /// The leader reads it to measure this ticket's share of the
    /// group's WAL/apply work and to tag triggered maintenance.
    pub(crate) trace: Option<TraceContext>,
    /// A sampled ticket's share of the group, by stage (filled by the
    /// leader before `complete`, read by the submitter after
    /// `take_result`: `done` was published with release ordering).
    pub(crate) share: Mutex<GroupShare>,
    done: std::sync::atomic::AtomicBool,
    result: Mutex<Option<Result<SimDuration, DbError>>>,
}

impl<'a> Ticket<'a> {
    pub(crate) fn new(ops: Ops<'a>, trace: Option<TraceContext>) -> Self {
        Ticket {
            ops,
            trace,
            share: Mutex::new(GroupShare::default()),
            done: std::sync::atomic::AtomicBool::new(false),
            result: Mutex::new(None),
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Store the outcome and publish completion.
    pub(crate) fn complete(&self, result: Result<SimDuration, DbError>) {
        *self.result.lock() = Some(result);
        self.done.store(true, std::sync::atomic::Ordering::Release);
    }

    pub(crate) fn take_result(&self) -> Result<SimDuration, DbError> {
        self.result
            .lock()
            .take()
            .unwrap_or_else(|| Err(DbError::Commit("ticket completed without a result".into())))
    }
}

/// Per-partition group-commit metric handles, pre-registered at
/// `Db::open` so leaders record without touching the registry locks
/// (and so the counters appear in snapshots even while still zero).
pub(crate) struct CommitMetrics {
    /// Commit groups this partition's leaders flushed.
    pub(crate) group_commits: Arc<Counter>,
    /// Write operations that rode in those groups.
    pub(crate) grouped_writes: Arc<Counter>,
}

impl CommitMetrics {
    pub(crate) fn register(registry: &MetricsRegistry, partition: usize) -> Self {
        let counter = |name| registry.counter(MetricKey::partition(name, partition));
        CommitMetrics {
            group_commits: counter("partition_group_commits"),
            grouped_writes: counter("partition_grouped_writes"),
        }
    }
}

/// Per-partition group-commit state.
pub(crate) struct Committer {
    /// Tickets waiting to be committed.
    pub(crate) queue: Mutex<Vec<Arc<Ticket<'static>>>>,
    /// Held by the current leader for the duration of one group commit
    /// (including any memtable flush it triggers).
    pub(crate) commit: Mutex<()>,
    /// This partition's group-commit counters.
    pub(crate) metrics: CommitMetrics,
}

impl Committer {
    pub(crate) fn new(metrics: CommitMetrics) -> Self {
        Committer {
            queue: Mutex::new(Vec::new()),
            commit: Mutex::new(()),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_orders_ops() {
        let mut b = WriteBatch::new();
        b.put(&b"a"[..], &b"1"[..])
            .delete(&b"b"[..])
            .put(&b"a"[..], &b"2"[..]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.ops[0].key(), b"a");
        assert_eq!(b.ops[1], BatchOp::Delete { key: b"b".to_vec() });
        assert_eq!(
            b.ops[2],
            BatchOp::Put {
                key: b"a".to_vec(),
                value: b"2".to_vec()
            }
        );
    }

    #[test]
    fn a_lone_op_owns_the_same_parts_it_borrowed() {
        for kind in [KeyKind::Value, KeyKind::Delete] {
            let value: &[u8] = if kind == KeyKind::Value { b"v" } else { b"" };
            let parts = [(&b"k"[..], value, kind)];
            let one = Ops::One(b"k", value, kind);
            assert_eq!(one.iter().collect::<Vec<_>>(), parts);
            let owned = one.into_owned();
            assert_eq!(owned.len(), 1);
            assert_eq!(owned.iter().collect::<Vec<_>>(), parts);
        }
    }

    #[test]
    fn commit_metrics_register_per_partition() {
        let registry = MetricsRegistry::new();
        let m = CommitMetrics::register(&registry, 3);
        m.group_commits.incr();
        m.grouped_writes.add(5);
        assert_eq!(
            registry
                .counter(MetricKey::partition("partition_group_commits", 3))
                .get(),
            1
        );
        assert_eq!(
            registry
                .counter(MetricKey::partition("partition_grouped_writes", 3))
                .get(),
            5
        );
    }

    #[test]
    fn ticket_completion_is_visible() {
        let t = Ticket::new(Ops::Batch(vec![]), None);
        assert!(!t.is_done());
        t.complete(Ok(SimDuration::from_nanos(7)));
        assert!(t.is_done());
        assert_eq!(t.take_result().unwrap(), SimDuration::from_nanos(7));
    }
}
