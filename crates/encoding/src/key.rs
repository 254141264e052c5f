//! Internal key format.
//!
//! An internal key is `user_key ∥ fixed64(sequence << 8 | kind)`. Ordering:
//! user keys ascending (bytewise), then sequence numbers **descending**, so
//! for one user key the newest version is encountered first by a forward
//! scan — the invariant every merge iterator in the engine relies on.

use std::cmp::Ordering;
use std::fmt;

/// Monotonically increasing version stamp assigned by the engine.
pub type SequenceNumber = u64;

/// Largest representable sequence (56 bits, as in LevelDB).
pub const MAX_SEQUENCE: SequenceNumber = (1 << 56) - 1;

/// What an entry means.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(u8)]
pub enum KeyKind {
    /// A tombstone: the key was deleted at this sequence.
    Delete = 0,
    /// A live value.
    Value = 1,
}

impl KeyKind {
    pub fn from_u8(v: u8) -> Option<KeyKind> {
        match v {
            0 => Some(KeyKind::Delete),
            1 => Some(KeyKind::Value),
            _ => None,
        }
    }
}

/// The 8-byte trailer appended to a user key.
#[inline]
pub fn pack_trailer(seq: SequenceNumber, kind: KeyKind) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE);
    (seq << 8) | kind as u64
}

/// Split a trailer back into sequence and kind.
#[inline]
pub fn unpack_trailer(trailer: u64) -> (SequenceNumber, Option<KeyKind>) {
    (trailer >> 8, KeyKind::from_u8((trailer & 0xff) as u8))
}

/// An owned internal key.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    bytes: Vec<u8>,
}

impl InternalKey {
    /// Build from parts.
    pub fn new(user_key: &[u8], seq: SequenceNumber, kind: KeyKind) -> Self {
        let mut bytes = Vec::with_capacity(user_key.len() + 8);
        bytes.extend_from_slice(user_key);
        bytes.extend_from_slice(&pack_trailer(seq, kind).to_le_bytes());
        InternalKey { bytes }
    }

    /// The key that sorts before every version of `user_key`: maximum
    /// sequence, used as a seek target.
    pub fn seek_to(user_key: &[u8], snapshot: SequenceNumber) -> Self {
        InternalKey::new(user_key, snapshot.min(MAX_SEQUENCE), KeyKind::Value)
    }

    pub fn encoded(&self) -> &[u8] {
        &self.bytes
    }

    pub fn into_encoded(self) -> Vec<u8> {
        self.bytes
    }

    pub fn user_key(&self) -> &[u8] {
        user_key(&self.bytes)
    }

    pub fn sequence(&self) -> SequenceNumber {
        sequence(&self.bytes)
    }

    pub fn kind(&self) -> KeyKind {
        kind(&self.bytes).expect("validated at construction")
    }
}

impl fmt::Debug for InternalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InternalKey({:?} @{} {:?})",
            String::from_utf8_lossy(self.user_key()),
            self.sequence(),
            kind(&self.bytes)
        )
    }
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        compare(&self.bytes, &other.bytes)
    }
}

/// User-key portion of an encoded internal key.
#[inline]
pub fn user_key(encoded: &[u8]) -> &[u8] {
    debug_assert!(encoded.len() >= 8);
    &encoded[..encoded.len() - 8]
}

/// Trailer of an encoded internal key.
#[inline]
pub fn trailer(encoded: &[u8]) -> u64 {
    let tail: [u8; 8] = encoded[encoded.len() - 8..].try_into().unwrap();
    u64::from_le_bytes(tail)
}

/// Sequence number of an encoded internal key.
#[inline]
pub fn sequence(encoded: &[u8]) -> SequenceNumber {
    trailer(encoded) >> 8
}

/// Kind of an encoded internal key.
#[inline]
pub fn kind(encoded: &[u8]) -> Option<KeyKind> {
    KeyKind::from_u8((trailer(encoded) & 0xff) as u8)
}

/// The internal-key ordering: user key ascending, then sequence descending,
/// then kind descending (Value sorts before Delete at equal sequence —
/// unreachable in practice since sequences are unique).
#[inline]
pub fn compare(a: &[u8], b: &[u8]) -> Ordering {
    compare_to_parts(a, user_key(b), trailer(b))
}

/// [`compare`] of an encoded internal key against a key held in parts,
/// so a lookup can seek to `(user_key, seek_trailer(snapshot))` without
/// materialising [`InternalKey::seek_to`].
#[inline]
pub fn compare_to_parts(encoded: &[u8], user_key: &[u8], trailer: u64) -> Ordering {
    match self::user_key(encoded).cmp(user_key) {
        Ordering::Equal => trailer.cmp(&self::trailer(encoded)),
        ord => ord,
    }
}

/// The trailer of [`InternalKey::seek_to`]`(_, snapshot)`.
#[inline]
pub fn seek_trailer(snapshot: SequenceNumber) -> u64 {
    pack_trailer(snapshot.min(MAX_SEQUENCE), KeyKind::Value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_parts() {
        let k = InternalKey::new(b"order:42", 777, KeyKind::Value);
        assert_eq!(k.user_key(), b"order:42");
        assert_eq!(k.sequence(), 777);
        assert_eq!(k.kind(), KeyKind::Value);
    }

    #[test]
    fn trailer_pack_unpack() {
        let t = pack_trailer(MAX_SEQUENCE, KeyKind::Delete);
        let (seq, kind) = unpack_trailer(t);
        assert_eq!(seq, MAX_SEQUENCE);
        assert_eq!(kind, Some(KeyKind::Delete));
    }

    #[test]
    fn user_keys_sort_ascending() {
        let a = InternalKey::new(b"a", 1, KeyKind::Value);
        let b = InternalKey::new(b"b", 1, KeyKind::Value);
        assert!(a < b);
    }

    #[test]
    fn newer_versions_sort_first() {
        let old = InternalKey::new(b"k", 5, KeyKind::Value);
        let new = InternalKey::new(b"k", 9, KeyKind::Value);
        assert!(new < old, "higher sequence must sort before lower");
    }

    #[test]
    fn prefix_key_sorts_before_extension() {
        let short = InternalKey::new(b"ab", 1, KeyKind::Value);
        let long = InternalKey::new(b"abc", 100, KeyKind::Value);
        assert!(short < long);
    }

    #[test]
    fn seek_target_precedes_all_versions_at_snapshot() {
        let target = InternalKey::seek_to(b"k", 100);
        for seq in [100u64, 50, 1] {
            let v = InternalKey::new(b"k", seq, KeyKind::Value);
            assert!(target <= v, "target must not skip seq {seq}");
        }
        let newer = InternalKey::new(b"k", 101, KeyKind::Value);
        assert!(newer < target, "versions above snapshot come earlier");
    }

    #[test]
    fn parts_compare_like_the_materialised_seek_target() {
        let keys = [
            InternalKey::new(b"j", 7, KeyKind::Value),
            InternalKey::new(b"k", 101, KeyKind::Value),
            InternalKey::new(b"k", 100, KeyKind::Delete),
            InternalKey::new(b"k", 3, KeyKind::Value),
            InternalKey::new(b"kk", 1, KeyKind::Value),
        ];
        for snapshot in [0, 3, 100, MAX_SEQUENCE, u64::MAX] {
            let target = InternalKey::seek_to(b"k", snapshot);
            assert_eq!(trailer(target.encoded()), seek_trailer(snapshot));
            for k in &keys {
                assert_eq!(
                    compare_to_parts(k.encoded(), b"k", seek_trailer(snapshot)),
                    compare(k.encoded(), target.encoded()),
                    "{k:?} vs k@{snapshot}"
                );
            }
        }
    }

    #[test]
    fn kind_from_u8_rejects_garbage() {
        assert_eq!(KeyKind::from_u8(0), Some(KeyKind::Delete));
        assert_eq!(KeyKind::from_u8(1), Some(KeyKind::Value));
        assert_eq!(KeyKind::from_u8(7), None);
    }

    proptest::proptest! {
        #[test]
        fn prop_order_matches_tuple_order(
            ka: Vec<u8>, kb: Vec<u8>,
            sa in 0u64..MAX_SEQUENCE, sb in 0u64..MAX_SEQUENCE,
        ) {
            let a = InternalKey::new(&ka, sa, KeyKind::Value);
            let b = InternalKey::new(&kb, sb, KeyKind::Value);
            // Expected: (user asc, seq desc)
            let expect = ka.cmp(&kb).then(sb.cmp(&sa));
            proptest::prop_assert_eq!(a.cmp(&b), expect);
        }
    }
}
