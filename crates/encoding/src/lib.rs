//! Byte-level formats shared by every storage layer in PM-Blade.
//!
//! - [`key`]: internal key layout (`user_key ∥ sequence ∥ kind`) with the
//!   LSM ordering (user keys ascending, sequence numbers descending so the
//!   newest version of a key sorts first).
//! - [`varint`]: LEB128-style unsigned varints used by every table format.
//! - [`bloom`]: the one key filter, a blocked bloom filter: the SSD
//!   SSTable's filter block, the PM table's appended filter section and
//!   the memtable's filter.
//! - [`crc`]: CRC32C (Castagnoli) block checksums.
//! - [`frame`]: the CRC frame (`len | masked crc | payload`) of the WAL,
//!   the manifest and the wire protocol, and the reader that finds
//!   where a log's intact frames end.
//! - [`hash`]: the fixed hasher of the engine's in-memory maps.
//! - [`prefix`]: the shared-prefix group codec backing the PM table's
//!   prefix layer (§IV-A of the paper).
//! - [`delta`] / [`bitpack`]: zigzag + delta transforms and fixed-width
//!   bit packing behind the PM table's numeric codecs (encoding v2), plus
//!   the [`delta::CodecStats`] shape fold that picks a table's codec.

pub mod bitpack;
pub mod bloom;
pub mod crc;
pub mod delta;
pub mod frame;
pub mod hash;
pub mod key;
pub mod prefix;
pub mod varint;

pub use key::{InternalKey, KeyKind, SequenceNumber, MAX_SEQUENCE};
