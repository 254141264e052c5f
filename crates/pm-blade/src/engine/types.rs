//! Public request, response and error types of the engine.

use pm_device::PmError;
use sim::SimDuration;
use ssd_device::SsdError;

use crate::manifest::ManifestError;
use crate::stats::ReadSource;

/// Engine errors.
///
/// Marked `#[non_exhaustive]`: new failure classes may be added without
/// a breaking change, so downstream matches need a wildcard arm.
///
/// Every variant carries a stable numeric code ([`DbError::code`]) so
/// the wire protocol can ship errors across a connection without
/// stringly matching; see DESIGN.md ("Error codes") for the table.
#[derive(Debug)]
#[non_exhaustive]
pub enum DbError {
    Pm(PmError),
    Ssd(SsdError),
    Table(sstable::table::TableError),
    Wal(memtable::WalError),
    Corrupt(String),
    /// Invalid configuration, rejected by [`Db::open`](crate::Db::open).
    Config(String),
    /// A group commit failed; the string carries the leader's error for
    /// every follower in the group.
    Commit(String),
    /// A plain filesystem/device I/O failure (directory creation, thread
    /// spawn, manifest write, ...). Distinct from [`DbError::Corrupt`],
    /// which means durable data failed validation — an I/O error is
    /// usually transient and retryable, corruption never is.
    Io(String),
}

impl DbError {
    /// Stable numeric code for this error class. Codes are append-only:
    /// a code, once assigned, never changes meaning, so clients may
    /// match on the number across releases.
    ///
    /// | code | variant       |
    /// |------|---------------|
    /// | 1    | `Pm`          |
    /// | 2    | `Ssd`         |
    /// | 3    | `Table`       |
    /// | 4    | `Wal`         |
    /// | 5    | `Corrupt`     |
    /// | 6    | `Config`      |
    /// | 7    | `Commit`      |
    /// | 8    | retired (was `Unsupported`, never raised) |
    /// | 9    | `Io`          |
    ///
    /// Code 0 is reserved for "unknown" (an error shipped by a newer
    /// engine that this build cannot classify).
    pub fn code(&self) -> u16 {
        match self {
            DbError::Pm(_) => 1,
            DbError::Ssd(_) => 2,
            DbError::Table(_) => 3,
            DbError::Wal(_) => 4,
            DbError::Corrupt(_) => 5,
            DbError::Config(_) => 6,
            DbError::Commit(_) => 7,
            DbError::Io(_) => 9,
        }
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Pm(e) => write!(f, "pm: {e}"),
            DbError::Ssd(e) => write!(f, "ssd: {e}"),
            DbError::Table(e) => write!(f, "table: {e}"),
            DbError::Wal(e) => write!(f, "wal: {e}"),
            DbError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
            DbError::Config(msg) => write!(f, "config: {msg}"),
            DbError::Commit(msg) => write!(f, "commit: {msg}"),
            DbError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<PmError> for DbError {
    fn from(e: PmError) -> Self {
        DbError::Pm(e)
    }
}

impl From<SsdError> for DbError {
    fn from(e: SsdError) -> Self {
        DbError::Ssd(e)
    }
}

impl From<sstable::table::TableError> for DbError {
    fn from(e: sstable::table::TableError) -> Self {
        DbError::Table(e)
    }
}

impl From<memtable::WalError> for DbError {
    fn from(e: memtable::WalError) -> Self {
        DbError::Wal(e)
    }
}

impl From<ManifestError> for DbError {
    fn from(e: ManifestError) -> Self {
        match e {
            ManifestError::Io(msg) => DbError::Io(format!("manifest: {msg}")),
            ManifestError::Corrupt(msg) => DbError::Corrupt(format!("manifest: {msg}")),
        }
    }
}

/// Rows plus virtual latency from a range scan.
pub type ScanResult = (Vec<(Vec<u8>, Vec<u8>)>, SimDuration);

/// A range-scan description, consumed by [`DbCore::scan`](super::DbCore::scan) and shipped
/// verbatim by the wire protocol's `Request::Scan`.
///
/// Built fluently; the default is "everything, forward":
///
/// ```
/// use pm_blade::ScanRequest;
/// let req = ScanRequest::new()
///     .start("order:000100")
///     .end("order:000200")
///     .limit(50);
/// assert_eq!(req.limit, 50);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanRequest {
    /// Inclusive lower bound (empty = from the start of the keyspace).
    pub start: Vec<u8>,
    /// Exclusive upper bound; `None` scans to the end of the keyspace.
    pub end: Option<Vec<u8>>,
    /// Maximum live rows returned.
    pub limit: usize,
    /// Return rows in descending key order. The bounds keep their
    /// meaning (`[start, end)`); only the result order and the
    /// truncation side change — a reverse scan keeps the *largest*
    /// `limit` keys of the range.
    pub reverse: bool,
}

impl Default for ScanRequest {
    fn default() -> Self {
        ScanRequest {
            start: Vec::new(),
            end: None,
            limit: usize::MAX,
            reverse: false,
        }
    }
}

impl ScanRequest {
    pub fn new() -> Self {
        ScanRequest::default()
    }

    /// Inclusive lower bound.
    pub fn start(mut self, start: impl Into<Vec<u8>>) -> Self {
        self.start = start.into();
        self
    }

    /// Exclusive upper bound.
    pub fn end(mut self, end: impl Into<Vec<u8>>) -> Self {
        self.end = Some(end.into());
        self
    }

    /// Exclusive upper bound as an `Option` (for callers threading an
    /// optional bound through without branching).
    pub fn end_bound(mut self, end: Option<Vec<u8>>) -> Self {
        self.end = end;
        self
    }

    /// Maximum live rows returned.
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Descending key order.
    pub fn reverse(mut self, reverse: bool) -> Self {
        self.reverse = reverse;
        self
    }
}

/// Result of a point read.
///
/// `value` is `None` both for keys that were never written and for keys
/// whose newest visible version is a tombstone; `source` distinguishes
/// the tiers (`Miss` means the key was found nowhere, while a tombstone
/// reports the tier that held it). `latency` is the virtual time the
/// read cost, already added to the engine clock.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The value, if the key is live.
    pub value: Option<Vec<u8>>,
    /// Which tier answered.
    pub source: ReadSource,
    /// Virtual latency of the read.
    pub latency: SimDuration,
}

/// Cumulative write-amplification counters.
///
/// `user_bytes` is the denominator (payload accepted by `put`/`delete`);
/// `pm_bytes` and `ssd_bytes` are the device-level bytes actually
/// written, including flush and compaction rewrites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct WriteAmp {
    /// Bytes written to the PM pool.
    pub pm_bytes: u64,
    /// Bytes written to the SSD.
    pub ssd_bytes: u64,
    /// User payload bytes accepted.
    pub user_bytes: u64,
}

impl WriteAmp {
    /// Total device bytes per user byte (the paper's WA factor).
    pub fn factor(&self) -> f64 {
        if self.user_bytes == 0 {
            0.0
        } else {
            (self.pm_bytes + self.ssd_bytes) as f64 / self.user_bytes as f64
        }
    }
}

/// A compaction the caller wants run now, handled by [`DbCore::compact`](super::DbCore::compact).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionRequest {
    /// Freeze + flush one partition's memtable, then apply the mode's
    /// compaction strategy (Algorithm 1).
    Flush { partition: usize },
    /// Flush every partition (shutdown / bench boundary).
    FlushAll,
    /// Merge one partition's PM tables into a fresh sorted run (§IV-B).
    Internal { partition: usize },
    /// Move one partition's entire level-0 into level-1.
    Major { partition: usize },
    /// Eq 3: major-compact the cold partitions, retaining the hottest
    /// in PM under the τ_t budget.
    MajorWithRetention,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_pinned() {
        let io = || std::io::Error::other("x");
        let cases = [
            (DbError::Pm(PmError::Io(io())), 1),
            (DbError::Ssd(SsdError::Io("x".into())), 2),
            (DbError::Table(sstable::table::TableError::Corrupt("x")), 3),
            (DbError::Wal(memtable::WalError::Io(io())), 4),
            (DbError::Corrupt("x".into()), 5),
            (DbError::Config("x".into()), 6),
            (DbError::Commit("x".into()), 7),
            (DbError::Io("x".into()), 9),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code, "{err}");
        }
    }
}
