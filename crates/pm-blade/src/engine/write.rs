//! The write path: `put` / `delete` / `write_batch` through the
//! backpressure gate and the per-partition group commit. Takes the
//! commit mutex, then the WAL mutex, then the partition write lock.

use std::ops::Deref;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use encoding::bloom::BloomFilter;
use encoding::key::KeyKind;
use memtable::WalRecord;
use sim::{SimDuration, Timeline};

use super::{CompactionRequest, DbCore, DbError};
use crate::commit::{BatchOp, GroupShare, Ops, Ticket, WriteBatch};
use crate::maintenance::Job;
use crate::manifest::VersionEdit;
use crate::telemetry::{RequestTrace, SpanKind, StageTimes, TraceContext, TraceOp};

/// Virtual-time penalty charged to each write admitted under slowdown
/// (the RocksDB `delayed_write_rate` analogue).
const SLOWDOWN_DELAY: SimDuration = SimDuration::from_micros(100);

impl DbCore {
    /// Force the WAL to stable storage (no-op without a WAL).
    pub fn sync_wal(&self) -> Result<SimDuration, DbError> {
        let mut tl = Timeline::new();
        if let Some(wal) = &self.wal {
            wal.lock().active.sync(&mut tl)?;
            self.metrics.wal_syncs.incr();
            self.metrics.wal_sync_latency.record(tl.elapsed());
        }
        let d = tl.elapsed();
        self.advance(d);
        Ok(d)
    }

    // ---------------------------------------------------------------
    // Foreground operations
    // ---------------------------------------------------------------

    /// Insert or update a key.
    pub fn put(&self, user_key: &[u8], value: &[u8]) -> Result<SimDuration, DbError> {
        self.put_with(user_key, value, None)
    }

    /// [`DbCore::put`] with the trace context stated: `None` lets the
    /// engine sample ([`Tracer::sample`](crate::telemetry::Tracer::sample)),
    /// `Some` is a wire-carried context — the entry point for
    /// `Request::Traced` — always recorded
    /// ([`Tracer::adopt`](crate::telemetry::Tracer::adopt)).
    pub fn put_with(
        &self,
        user_key: &[u8],
        value: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<SimDuration, DbError> {
        let pid = self.opts.partitioner.locate(user_key);
        self.submit(
            pid,
            Ops::One(user_key, value, KeyKind::Value),
            self.trace_for(trace),
        )
    }

    /// Delete a key (writes a tombstone).
    pub fn delete(&self, user_key: &[u8]) -> Result<SimDuration, DbError> {
        self.delete_with(user_key, None)
    }

    /// [`DbCore::delete`] with the trace context stated (as
    /// [`DbCore::put_with`]).
    pub fn delete_with(
        &self,
        user_key: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<SimDuration, DbError> {
        let pid = self.opts.partitioner.locate(user_key);
        self.submit(
            pid,
            Ops::One(user_key, &[], KeyKind::Delete),
            self.trace_for(trace),
        )
    }

    /// Apply a [`WriteBatch`]. Operations routed to one partition become
    /// visible atomically; a batch spanning partitions is applied in
    /// ascending partition order, each partition's slice atomically.
    pub fn write_batch(&self, batch: WriteBatch) -> Result<SimDuration, DbError> {
        self.write_batch_with(batch, None)
    }

    /// [`DbCore::write_batch`] with the trace context stated (as
    /// [`DbCore::put_with`]). A batch spanning partitions records one
    /// stage set per partition commit, all under the same trace id.
    pub fn write_batch_with(
        &self,
        batch: WriteBatch,
        trace: Option<TraceContext>,
    ) -> Result<SimDuration, DbError> {
        let trace = self.trace_for(trace);
        if batch.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        self.metrics.batch_writes.incr();
        // Split by partition, preserving op order within each.
        let mut per_pid: Vec<Vec<BatchOp>> =
            (0..self.partitions.len()).map(|_| Vec::new()).collect();
        for op in batch.ops {
            per_pid[self.opts.partitioner.locate(op.key())].push(op);
        }
        let mut total = SimDuration::ZERO;
        for (pid, ops) in per_pid.into_iter().enumerate() {
            if !ops.is_empty() {
                total += self.submit(pid, Ops::Batch(ops), trace)?;
            }
        }
        Ok(total)
    }

    /// Commit `ops` to partition `pid` in a commit group. See
    /// [`crate::commit`] for the leader/follower scheme and the lone
    /// writer, which commits `ops` as borrowed. In Background mode the
    /// write first passes the backpressure gate ([`DbCore::throttle`]);
    /// any slowdown penalty is part of the write's reported latency.
    fn submit(
        &self,
        pid: usize,
        ops: Ops<'_>,
        trace: Option<TraceContext>,
    ) -> Result<SimDuration, DbError> {
        let start_nanos = self.clock.load(Ordering::Relaxed);
        let origin = trace.map_or(0, |c| c.trace_id);
        let penalty = self.throttle(pid, origin);
        let committer = &self.committers[pid];
        if let Some(leader) = committer.commit.try_lock() {
            if committer.queue.lock().is_empty() {
                // A lone writer: a group of one, committed from the stack.
                let ticket = Ticket::new(ops, trace);
                let committed = self.commit_group(pid, &[&ticket]);
                drop(leader);
                committed?;
                return self.finish_write(pid, &ticket, penalty, start_nanos);
            }
        }
        let ticket = Arc::new(Ticket::new(ops.into_owned(), trace));
        committer.queue.lock().push(Arc::clone(&ticket));
        if !ticket.is_done() {
            let _leader = committer.commit.lock();
            if !ticket.is_done() {
                // We are the leader: our ticket is still queued (tickets
                // only leave the queue inside this critical section). A
                // done ticket here would mean a previous leader committed
                // it, completing it before releasing the mutex we hold.
                let group = std::mem::take(&mut *committer.queue.lock());
                debug_assert!(group.iter().any(|t| Arc::ptr_eq(t, &ticket)));
                self.commit_group(pid, &group)?;
            }
        }
        self.finish_write(pid, &ticket, penalty, start_nanos)
    }

    /// The submitter's side of a completed ticket: its latency (the
    /// group's share plus any throttle `penalty`), recorded, and its
    /// trace finished.
    fn finish_write(
        &self,
        pid: usize,
        ticket: &Ticket<'_>,
        penalty: SimDuration,
        start_nanos: u64,
    ) -> Result<SimDuration, DbError> {
        let total = ticket.take_result()? + penalty;
        self.metrics.lat_writes.record(total);
        if let Some(ctx) = ticket.trace {
            let share = *ticket.share.lock();
            let ops = ticket.ops.len() as u64;
            let mut stages = StageTimes::default();
            if penalty > SimDuration::ZERO {
                stages.add(SpanKind::ThrottleWait, penalty.as_nanos(), 0, 0);
            }
            if share.wal_nanos > 0 {
                stages.add(SpanKind::WalAppend, share.wal_nanos, ops, ops);
            }
            stages.add(SpanKind::MemtableApply, share.apply_nanos, ops, ops);
            if share.wait_nanos > 0 {
                let group = share.group_ops;
                stages.add(SpanKind::LeaderWait, share.wait_nanos, group, group);
            }
            let total = total.as_nanos();
            let trace = RequestTrace::new(ctx, TraceOp::Write, pid, start_nanos, &stages, total);
            self.tracer.finish(trace);
        }
        Ok(total)
    }

    /// RocksDB-style write backpressure, evaluated before a write joins
    /// the commit queue (Background mode only; Inline writes pay for
    /// maintenance directly and need no gate). Two pressure signals per
    /// partition — unsorted level-0 tables and memtable debt (size as a
    /// multiple of the flush target) — each with a *stall* threshold
    /// (park the real thread until the workers catch up) and, at half
    /// of it, a *slowdown* threshold (charge [`SLOWDOWN_DELAY`] of
    /// virtual latency). Returns the virtual penalty to add to the
    /// write's latency; the engine clock is advanced by it here.
    /// `origin` is the trace id of the throttled write (0 = untraced),
    /// stamped onto the relief jobs it queues.
    fn throttle(&self, pid: usize, origin: u64) -> SimDuration {
        let Some(m) = &self.maintenance else {
            return SimDuration::ZERO;
        };
        let internal = Job::new(CompactionRequest::Internal { partition: pid }, origin);
        let flush = Job::new(CompactionRequest::Flush { partition: pid }, origin);
        let l0_slowdown = self.opts.l0_stall_trigger / 2;
        let mem_slowdown = self.opts.memtable_stall_debt / 2;
        let mut stall_start: Option<std::time::Instant> = None;
        loop {
            let (mem_bytes, unsorted) = {
                let p = self.partitions[pid].read();
                (p.mem.approximate_size(), p.level0.unsorted_count())
            };
            let debt = mem_bytes / self.opts.memtable_bytes;
            let l0_stalled = unsorted >= self.opts.l0_stall_trigger;
            let mem_stalled = debt >= self.opts.memtable_stall_debt;
            if (l0_stalled || mem_stalled) && m.accepting() {
                if stall_start.is_none() {
                    stall_start = Some(std::time::Instant::now());
                    self.metrics.write_stalls.incr();
                }
                // Make sure relief is queued before parking (dedup makes
                // the re-enqueue per loop iteration free).
                if l0_stalled {
                    self.offload(&internal);
                }
                if mem_stalled {
                    self.offload(&flush);
                }
                m.wait_for_progress(std::time::Duration::from_millis(1));
                continue;
            }
            if let Some(start) = stall_start {
                self.metrics
                    .stall_wall
                    .record_nanos(start.elapsed().as_nanos() as u64);
            }
            // Early relief: once L0 is halfway to the slowdown
            // watermark, queue an internal compaction so the workers
            // usually clear the signal before any penalty engages.
            // (Dedup makes the repeated enqueue free.)
            if unsorted * 2 >= l0_slowdown && m.accepting() {
                self.offload(&internal);
            }
            let l0_slowed = unsorted >= l0_slowdown;
            let mem_slowed = debt >= mem_slowdown;
            if l0_slowed || mem_slowed {
                // A slowdown must queue its own relief: the condition
                // can sit below the engine's §IV triggers indefinitely,
                // and without help every subsequent write would keep
                // paying the penalty.
                if mem_slowed {
                    self.offload(&flush);
                }
                self.metrics.write_slowdowns.incr();
                // Pace the writer in wall-clock time as well (RocksDB's
                // delayed-write behaviour): a penalised writer that
                // keeps running at full speed would re-trip the trigger
                // before the workers can touch the backlog.
                m.wait_for_progress(std::time::Duration::from_micros(100));
                self.advance(SLOWDOWN_DELAY);
                return SLOWDOWN_DELAY;
            }
            return SimDuration::ZERO;
        }
    }

    /// Commit one group: allocate sequences, append every record to the
    /// WAL once, apply everything to the memtable under one partition
    /// write lock (so a scan of the partition sees all of a batch or
    /// none of it), then complete every ticket. Runs with the
    /// partition's commit mutex held.
    fn commit_group<'a, T: Deref<Target = Ticket<'a>>>(
        &self,
        pid: usize,
        group: &[T],
    ) -> Result<(), DbError> {
        let mut tl = Timeline::new();
        let total_ops: usize = group.iter().map(|t| t.ops.len()).sum();
        let base = self.seq.fetch_add(total_ops as u64, Ordering::Relaxed);
        // First sampled writer in the group becomes the origin for any
        // maintenance this commit triggers.
        let origin = group
            .iter()
            .find_map(|t| t.trace.map(|c| c.trace_id))
            .unwrap_or(0);
        // One WAL pass for the whole group: append every record, then
        // one group sync — an acked commit is durable (the crash-proof
        // tests depend on exactly this), at one fsync per group rather
        // than per record. Any failure fails the whole group before the
        // memtable sees it.
        let mut rotated = None;
        if let Some(ring) = &self.wal {
            let fail_group = |e: String| {
                for t in group {
                    t.complete(Err(DbError::Commit(e.clone())));
                }
            };
            let mut ring = ring.lock();
            let mut seq = base;
            for ticket in group {
                for (key, value, kind) in ticket.ops.iter() {
                    seq += 1;
                    let rec = WalRecord {
                        seq,
                        kind,
                        user_key: key.to_vec(),
                        value: value.to_vec(),
                    };
                    if let Err(e) = ring.active.append(&rec, &mut tl) {
                        // The group never reached the memtable; fail every
                        // ticket with the same diagnostic.
                        fail_group(format!("wal append: {e}"));
                        return Ok(());
                    }
                    ring.note_append(pid, seq);
                    self.metrics.wal_appends.incr();
                }
            }
            let sync_from = tl.elapsed();
            if let Err(e) = ring.active.sync(&mut tl) {
                fail_group(format!("wal sync: {e}"));
                return Ok(());
            }
            self.metrics.wal_syncs.incr();
            self.metrics
                .wal_sync_latency
                .record(tl.elapsed() - sync_from);
            if ring.active.bytes_written() >= self.opts.wal_segment_bytes as u64 {
                match ring.rotate() {
                    Ok(segment) => rotated = Some(segment),
                    Err(e) => {
                        // The records are durable, but with no segment to
                        // append to the engine cannot proceed; report the
                        // group failed (recovery may still surface it —
                        // the usual ambiguity of a commit that died
                        // between durability and the ack).
                        fail_group(format!("wal rotate: {e}"));
                        return Ok(());
                    }
                }
            }
        }
        let wal_nanos = tl.elapsed().as_nanos();
        // One memtable apply for the whole group.
        let mem_full = {
            let mut p = self.partitions[pid].write();
            let mut seq = base;
            for ticket in group {
                for (key, value, kind) in ticket.ops.iter() {
                    seq += 1;
                    let hashes = BloomFilter::hashes(key);
                    p.note_write(hashes.0);
                    p.mem.insert_hashed(key, hashes, seq, kind, value, &mut tl);
                    self.metrics
                        .user_bytes_written
                        .add((key.len() + value.len()) as u64);
                    if kind == KeyKind::Value {
                        self.metrics.puts.incr();
                    } else {
                        self.metrics.deletes.incr();
                    }
                }
            }
            p.mem.approximate_size() >= self.opts.memtable_bytes
        };
        let apply_nanos = tl.elapsed().as_nanos().saturating_sub(wal_nanos);
        self.metrics.group_commits.incr();
        self.metrics.grouped_writes.add(total_ops as u64);
        let committer = &self.committers[pid];
        committer.metrics.group_commits.incr();
        committer.metrics.grouped_writes.add(total_ops as u64);
        let elapsed = tl.elapsed();
        self.advance(elapsed);
        self.metrics.commit_latency.record(elapsed);
        // Maintenance the group triggered. A flush that runs here (Inline
        // mode) runs *before* the tickets complete and bills its virtual
        // time to the group — the triggering writers observe the latency
        // spike they caused, which is exactly the cost Background mode
        // moves off the write path (there the trigger is one enqueue).
        // Still holding the commit mutex: no new group can race the
        // flush into a half-frozen memtable.
        let before = self.clock.load(Ordering::Relaxed);
        let flush = CompactionRequest::Flush { partition: pid };
        let flushed = if mem_full {
            self.trigger(Job::new(flush, origin))
        } else {
            Ok(false)
        };
        // Bill only a flush that ran on this thread; an error means it did.
        let maintenance = match flushed {
            Ok(false) => SimDuration::ZERO,
            _ => SimDuration::from_nanos(self.clock.load(Ordering::Relaxed).saturating_sub(before)),
        };
        // Charge each ticket its share of the group's virtual time
        // (including any inline maintenance). Tickets always complete,
        // even on a flush error — the group itself durably committed.
        let billed = elapsed + maintenance;
        for ticket in group {
            let ops = ticket.ops.len() as u64;
            let share_of = |nanos: u64| nanos * ops / total_ops.max(1) as u64;
            let share = SimDuration::from_nanos(share_of(billed.as_nanos()));
            // A sampled writer's share of the group's work, by stage.
            // Shares use the same integer scaling as the billed latency,
            // so their sum can never exceed the ticket's reported latency.
            if ticket.trace.is_some() {
                let (wal_nanos, apply_nanos) = (share_of(wal_nanos), share_of(apply_nanos));
                *ticket.share.lock() = GroupShare {
                    wal_nanos,
                    apply_nanos,
                    wait_nanos: share.as_nanos().saturating_sub(wal_nanos + apply_nanos),
                    group_ops: total_ops as u64,
                };
            }
            ticket.complete(Ok(share));
        }
        // Record the rotation once the tickets are done (recovery lists
        // segment files directly, so the edit is advisory ordering-wise,
        // but it keeps the manifest's segment watermark moving).
        if let Some(segment) = rotated {
            self.append_manifest_edits(&[VersionEdit::WalRotate { segment }])?;
        }
        flushed.map(|_| ())
    }
}
