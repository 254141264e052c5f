//! Block-based SSTable format for the SSD levels of PM-Blade.
//!
//! This is the on-SSD table format used by level-1 and below (and by the
//! RocksDB-like baseline's level-0). The layout follows the classic
//! LevelDB/RocksDB design:
//!
//! ```text
//! [data block]*  [bloom filter block]  [index block]  [footer]
//! ```
//!
//! - [`block`]: restart-point prefix-compressed key-value blocks;
//! - [`bloom`]: per-table blocked bloom filter over user keys, one
//!   64-byte line per probe (the workspace's one key filter, shared with
//!   the PM table format and the memtable, so the implementation lives in
//!   [`encoding::bloom`] and is re-exported here);
//! - [`cache`]: the workspace's one LRU (DRAM), here as the shared block
//!   cache — a cached block read costs DRAM latency, an uncached one
//!   costs an SSD random read;
//! - [`table`]: the table builder and reader.

pub mod block;
pub use encoding::bloom;
pub mod cache;
pub mod table;

pub use bloom::BloomFilter;
pub use cache::BlockCache;
pub use table::{SsCursor, SsTable, SsTableBuilder, SsTableOptions};
