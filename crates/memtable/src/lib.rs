//! The DRAM tier: a skiplist memtable and its write-ahead log.
//!
//! Writes land in the [`MemTable`] (and, for durability, the [`wal`]);
//! when the memtable reaches its budget the engine freezes it and performs
//! a *minor compaction*: encoding it as a PM table and publishing it to the
//! level-0 pool. A get reads one line of the memtable's key filter (an
//! [`encoding::bloom::BloomFilter`] sized from the memtable budget) and
//! descends the skiplist only when the filter may hold its key, charging
//! DRAM costs per probed node, so memtable lookups are fast but not free
//! on the virtual clock.

pub mod skiplist;
pub mod wal;

pub use skiplist::{MemCursor, MemTable};
pub use wal::{Wal, WalError, WalRecord};
