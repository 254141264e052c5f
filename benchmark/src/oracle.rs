//! The benchmark's own oracle: key id → newest version stamp, and the
//! checks every get, scan and response is held against.

use crate::gen::{key_id, value_stamp};

/// Rows a `scan_short` scan asks for.
pub const SCAN_LIMIT: usize = 50;

/// Newest accepted version of every key. Every key is preloaded and
/// nothing is deleted, so a dense vector indexed by key id is the map.
pub struct Oracle {
    stamps: Vec<u64>,
    next_stamp: u64,
}

impl Oracle {
    pub fn new(keys: u32) -> Oracle {
        Oracle {
            stamps: vec![0; keys as usize],
            next_stamp: 1,
        }
    }

    pub fn keys(&self) -> u32 {
        self.stamps.len() as u32
    }

    /// Stamp for the next write; unique and increasing.
    #[inline]
    pub fn next_stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    #[inline]
    pub fn accept(&mut self, id: u32, stamp: u64) {
        self.stamps[id as usize] = stamp;
    }

    #[inline]
    pub fn newest(&self, id: u32) -> u64 {
        self.stamps[id as usize]
    }

    /// A get is right when the value carries this key's id and its
    /// newest accepted stamp.
    #[inline]
    pub fn get_ok(&self, id: u32, value: Option<&[u8]>) -> bool {
        self.value_ok(id, self.newest(id), value)
    }

    /// Same check against the stamp that was newest when a pipelined
    /// request was sent.
    #[inline]
    pub fn value_ok(&self, id: u32, expect: u64, value: Option<&[u8]>) -> bool {
        value.and_then(value_stamp) == Some((id as u64, expect))
    }

    /// A forward scan from `start` is right when it returns exactly the
    /// next `SCAN_LIMIT` keys (fewer only at the keyspace end), sorted,
    /// none before `start`, each with its newest stamp.
    pub fn scan_ok(&self, start: u32, rows: &[(Vec<u8>, Vec<u8>)]) -> Result<(), ScanFault> {
        let expect = SCAN_LIMIT.min((self.keys() - start) as usize);
        if rows.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(ScanFault::Unsorted);
        }
        if rows.len() != expect {
            return Err(ScanFault::WrongLength);
        }
        for (i, (key, value)) in rows.iter().enumerate() {
            let id = key_id(key).ok_or(ScanFault::ForeignKey)?;
            if id < start {
                return Err(ScanFault::BeforeStart);
            }
            if id != start + i as u32 {
                return Err(ScanFault::ForeignKey);
            }
            if !self.get_ok(id, Some(value)) {
                return Err(ScanFault::Stale);
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanFault {
    Unsorted,
    WrongLength,
    BeforeStart,
    ForeignKey,
    Stale,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{key_of, write_value, VALUE_LEN, VALUE_NOISE};

    fn value(id: u32, stamp: u64) -> Vec<u8> {
        let mut v = [0u8; VALUE_LEN];
        write_value(&mut v, id, stamp, &[1u8; VALUE_NOISE]);
        v.to_vec()
    }

    fn loaded(keys: u32) -> Oracle {
        let mut o = Oracle::new(keys);
        for id in 0..keys {
            let s = o.next_stamp();
            o.accept(id, s);
        }
        o
    }

    fn rows(o: &Oracle, ids: impl Iterator<Item = u32>) -> Vec<(Vec<u8>, Vec<u8>)> {
        ids.map(|id| (key_of(id).to_vec(), value(id, o.newest(id))))
            .collect()
    }

    #[test]
    fn flags_stale_missing_and_foreign_values() {
        let mut o = loaded(100);
        assert!(o.get_ok(5, Some(&value(5, 6))));
        let s = o.next_stamp();
        o.accept(5, s);
        assert!(!o.get_ok(5, Some(&value(5, 6))), "stale stamp");
        assert!(o.get_ok(5, Some(&value(5, s))));
        assert!(!o.get_ok(5, None), "missing key");
        assert!(!o.get_ok(5, Some(&value(6, s))), "another key's value");
        assert!(!o.get_ok(5, Some(b"short")));
    }

    #[test]
    fn flags_bad_scans() {
        let o = loaded(1000);
        assert_eq!(o.scan_ok(10, &rows(&o, 10..60)), Ok(()));
        assert_eq!(o.scan_ok(980, &rows(&o, 980..1000)), Ok(()), "keyspace end");
        let mut unsorted = rows(&o, 10..60);
        unsorted.swap(3, 4);
        assert_eq!(o.scan_ok(10, &unsorted), Err(ScanFault::Unsorted));
        assert_eq!(
            o.scan_ok(10, &rows(&o, 10..59)),
            Err(ScanFault::WrongLength)
        );
        assert_eq!(o.scan_ok(10, &rows(&o, 9..59)), Err(ScanFault::BeforeStart));
        let mut stale = rows(&o, 10..60);
        stale[7].1 = value(17, 1);
        assert_eq!(o.scan_ok(10, &stale), Err(ScanFault::Stale));
        let mut gap = rows(&o, 10..61);
        gap.remove(20);
        assert_eq!(o.scan_ok(10, &gap), Err(ScanFault::ForeignKey));
    }
}
