//! The record/index-table layer.
//!
//! The paper evaluates PM-Blade under database workloads: *record tables*
//! hold rows keyed by primary key, and *index tables* map indexed-column
//! values back to row ids ("To execute an index query, the system needs
//! to obtain the row id through a scan operation, and then perform a
//! point read to retrieve the target row", §VI-D); the Meituan workload
//! (the `fig10` / `fig11` harnesses) and `examples/retail_orders.rs`
//! drive it.
//!
//! Key encodings (kept prefix-friendly so PM tables compress well):
//!
//! ```text
//! row:    r{table:04}:{pk}
//! index:  x{table:04}:{col:02}:{value}:{pk}   → value payload = pk
//! ```

use pm_blade::{Db, DbError, ScanRequest, WriteBatch};
use sim::SimDuration;

/// Schema of one logical table.
#[derive(Clone, Debug)]
pub struct TableDef {
    pub id: u16,
    /// Number of columns (column 0 is the primary key).
    pub columns: usize,
    /// Indexed column ordinals.
    pub indexes: Vec<usize>,
}

impl TableDef {
    pub fn new(id: u16, columns: usize, indexes: Vec<usize>) -> Self {
        assert!(columns >= 1);
        assert!(indexes.iter().all(|&c| c > 0 && c < columns));
        TableDef {
            id,
            columns,
            indexes,
        }
    }
}

/// A row: column values (column 0 = primary key).
pub type Row = Vec<Vec<u8>>;

fn row_key(table: u16, pk: &[u8]) -> Vec<u8> {
    let mut k = format!("r{:04}:", table).into_bytes();
    k.extend_from_slice(pk);
    k
}

/// Escape a byte string so a 0x00 0x01 terminator can never collide with
/// payload bytes (FoundationDB-tuple style: 0x00 → 0x00 0xFF).
fn escape_into(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        out.push(b);
        if b == 0x00 {
            out.push(0xFF);
        }
    }
    out.push(0x00);
    out.push(0x01);
}

fn index_key(table: u16, col: usize, value: &[u8], pk: &[u8]) -> Vec<u8> {
    let mut k = format!("x{:04}:{:02}:", table, col).into_bytes();
    escape_into(&mut k, value);
    k.extend_from_slice(pk);
    k
}

fn index_prefix(table: u16, col: usize, value: &[u8]) -> Vec<u8> {
    let mut k = format!("x{:04}:{:02}:", table, col).into_bytes();
    escape_into(&mut k, value);
    k
}

fn encode_row(cols: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    encoding::varint::put_u32(&mut out, cols.len() as u32);
    for c in cols {
        encoding::varint::put_slice(&mut out, c);
    }
    out
}

fn decode_row(raw: &[u8]) -> Option<Row> {
    let mut r = encoding::varint::Reader::new(raw);
    let n = r.read_u32()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        cols.push(r.read_slice()?.to_vec());
    }
    Some(cols)
}

/// Relational facade over a [`Db`].
pub struct Relational {
    db: Db,
    tables: Vec<TableDef>,
}

impl Relational {
    pub fn new(db: Db, tables: Vec<TableDef>) -> Self {
        Relational { db, tables }
    }

    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The schema of table `id`; an unknown id is a [`DbError::Config`].
    fn table(&self, id: u16) -> Result<&TableDef, DbError> {
        self.tables
            .iter()
            .find(|t| t.id == id)
            .ok_or_else(|| DbError::Config(format!("unknown table id {id}")))
    }

    /// Insert a full row, maintaining every index. The row and its index
    /// entries travel in one [`WriteBatch`], so a concurrent reader never
    /// observes a row without its index entries (within one partition).
    /// Returns the virtual latency. A row whose arity is not the table's
    /// is a [`DbError::Config`].
    pub fn insert_row(&self, table: u16, row: &Row) -> Result<SimDuration, DbError> {
        let def = self.table(table)?;
        if row.len() != def.columns {
            return Err(DbError::Config(format!(
                "table {table} has {} columns, the row {}",
                def.columns,
                row.len()
            )));
        }
        let pk = &row[0];
        let mut batch = WriteBatch::new();
        batch.put(row_key(table, pk), encode_row(row));
        for &col in &def.indexes {
            batch.put(index_key(table, col, &row[col], pk), pk.clone());
        }
        self.db.write_batch(batch)
    }

    /// Update one column of an existing row (index-maintaining). Column
    /// 0 (the primary key, which places the row) and a column past the
    /// table's are [`DbError::Config`] errors.
    pub fn update_column(
        &self,
        table: u16,
        pk: &[u8],
        col: usize,
        value: &[u8],
    ) -> Result<SimDuration, DbError> {
        let def = self.table(table)?;
        if col == 0 || col >= def.columns {
            return Err(DbError::Config(format!(
                "table {table}: column {col} is not an updatable column (1..{})",
                def.columns
            )));
        }
        let rk = row_key(table, pk);
        let read = self.db.get(&rk)?;
        let mut total = read.latency;
        let Some(raw) = read.value else {
            return Ok(total); // row vanished; nothing to update
        };
        let mut row = decode_row(&raw)
            .filter(|row| row.len() == def.columns)
            .ok_or_else(|| DbError::Corrupt("row payload".into()))?;
        let old = std::mem::replace(&mut row[col], value.to_vec());
        let mut batch = WriteBatch::new();
        if def.indexes.contains(&col) && old != value {
            batch.delete(index_key(table, col, &old, pk));
            batch.put(index_key(table, col, value, pk), pk.to_vec());
        }
        batch.put(rk, encode_row(&row));
        total += self.db.write_batch(batch)?;
        Ok(total)
    }

    /// Primary-key point read.
    pub fn get_row(&self, table: u16, pk: &[u8]) -> Result<(Option<Row>, SimDuration), DbError> {
        let out = self.db.get(&row_key(table, pk))?;
        let row = out.value.as_deref().and_then(decode_row);
        Ok((row, out.latency))
    }

    /// Index query: scan the index prefix for row ids, then point-read
    /// each row — the two-step lookup §VI-D describes.
    pub fn index_query(
        &self,
        table: u16,
        col: usize,
        value: &[u8],
        limit: usize,
    ) -> Result<(Vec<Row>, SimDuration), DbError> {
        let prefix = index_prefix(table, col, value);
        // The prefix ends with the 0x00 0x01 terminator; bumping the
        // final byte gives the exclusive upper bound of this value's
        // index entries.
        let mut end = prefix.clone();
        *end.last_mut().expect("prefix nonempty") = 0x02;
        let (hits, mut total) = self
            .db
            .scan(ScanRequest::new().start(prefix).end(end).limit(limit))?;
        let mut rows = Vec::with_capacity(hits.len());
        for (_ikey, pk) in hits {
            let (row, latency) = self.get_row(table, &pk)?;
            total += latency;
            if let Some(row) = row {
                rows.push(row);
            }
        }
        Ok((rows, total))
    }

    /// Range scan of rows by primary key.
    pub fn scan_rows(
        &self,
        table: u16,
        start_pk: &[u8],
        limit: usize,
    ) -> Result<(Vec<Row>, SimDuration), DbError> {
        let start = row_key(table, start_pk);
        let end = format!("r{:04};", table).into_bytes(); // ':'+1
        let (hits, latency) = self
            .db
            .scan(ScanRequest::new().start(start).end(end).limit(limit))?;
        let rows = hits.iter().filter_map(|(_, v)| decode_row(v)).collect();
        Ok((rows, latency))
    }
}

impl std::fmt::Debug for Relational {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relational")
            .field("tables", &self.tables.len())
            .field("db", &self.db)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_blade::{CompactionRequest, Options};

    fn setup() -> Relational {
        let opts = Options {
            memtable_bytes: 16 << 10,
            ..Options::pm_blade(4 << 20)
        };
        let db = Db::open(opts).unwrap();
        Relational::new(
            db,
            vec![
                TableDef::new(1, 4, vec![1, 2]),
                TableDef::new(2, 2, vec![1]),
            ],
        )
    }

    fn row(pk: &str, c1: &str, c2: &str, c3: &str) -> Row {
        vec![
            pk.as_bytes().to_vec(),
            c1.as_bytes().to_vec(),
            c2.as_bytes().to_vec(),
            c3.as_bytes().to_vec(),
        ]
    }

    #[test]
    fn insert_and_point_read() {
        let rel = setup();
        rel.insert_row(1, &row("order1", "pending", "user9", "50.0"))
            .unwrap();
        let (got, latency) = rel.get_row(1, b"order1").unwrap();
        let got = got.unwrap();
        assert_eq!(got[1], b"pending");
        assert!(latency > SimDuration::ZERO);
        assert!(rel.get_row(1, b"absent").unwrap().0.is_none());
    }

    #[test]
    fn index_query_finds_rows_via_two_step_lookup() {
        let rel = setup();
        for i in 0..20 {
            let status = if i % 2 == 0 { "paid" } else { "pending" };
            rel.insert_row(1, &row(&format!("order{:03}", i), status, "user1", "9.9"))
                .unwrap();
        }
        let (rows, _) = rel.index_query(1, 1, b"paid", 100).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r[1] == b"paid"));
        let (rows, _) = rel.index_query(1, 1, b"shipped", 100).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn update_column_moves_index_entries() {
        let rel = setup();
        rel.insert_row(1, &row("o1", "pending", "u1", "1")).unwrap();
        rel.update_column(1, b"o1", 1, b"paid").unwrap();
        let (paid, _) = rel.index_query(1, 1, b"paid", 10).unwrap();
        assert_eq!(paid.len(), 1);
        let (pending, _) = rel.index_query(1, 1, b"pending", 10).unwrap();
        assert!(pending.is_empty(), "old index entry must be gone");
        let (got, _) = rel.get_row(1, b"o1").unwrap();
        assert_eq!(got.unwrap()[1], b"paid");
    }

    #[test]
    fn argument_errors_are_config_errors_and_leave_the_row_alone() {
        let rel = setup();
        rel.insert_row(1, &row("o1", "pending", "u1", "1")).unwrap();
        let config = |r: Result<SimDuration, DbError>| matches!(r, Err(DbError::Config(_)));
        // Column 0 is the key: rewriting it in place would leave the
        // row under its old key.
        assert!(config(rel.update_column(1, b"o1", 0, b"o2")));
        // A column past the table's.
        assert!(config(rel.update_column(1, b"o1", 4, b"x")));
        // An unknown table.
        assert!(config(rel.update_column(9, b"o1", 1, b"paid")));
        assert!(config(rel.insert_row(9, &row("o3", "paid", "u3", "3"))));
        // A row of the wrong arity.
        assert!(config(rel.insert_row(1, &vec![b"o4".to_vec()])));
        assert!(config(rel.insert_row(2, &row("o5", "paid", "u5", "5"))));

        assert_eq!(
            rel.get_row(1, b"o1").unwrap().0.unwrap(),
            row("o1", "pending", "u1", "1")
        );
        assert!(rel.get_row(1, b"o4").unwrap().0.is_none());
        assert!(rel.get_row(2, b"o5").unwrap().0.is_none());
        let (pending, _) = rel.index_query(1, 1, b"pending", 10).unwrap();
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn update_unindexed_column_leaves_indexes_alone() {
        let rel = setup();
        rel.insert_row(1, &row("o2", "paid", "u2", "5")).unwrap();
        rel.update_column(1, b"o2", 3, b"7.5").unwrap();
        let (rows, _) = rel.index_query(1, 1, b"paid", 10).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][3], b"7.5");
    }

    #[test]
    fn scan_rows_orders_by_pk() {
        let rel = setup();
        for i in [3, 1, 2] {
            rel.insert_row(
                2,
                vec![format!("pk{i}").into_bytes(), format!("v{i}").into_bytes()].as_ref(),
            )
            .unwrap();
        }
        let (rows, _) = rel.scan_rows(2, b"", 10).unwrap();
        let pks: Vec<&[u8]> = rows.iter().map(|r| r[0].as_slice()).collect();
        assert_eq!(pks, vec![&b"pk1"[..], b"pk2", b"pk3"]);
        let (rows, _) = rel.scan_rows(2, b"pk2", 10).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn tables_are_isolated() {
        let rel = setup();
        rel.insert_row(2, &vec![b"dup".to_vec(), b"t2".to_vec()])
            .unwrap();
        rel.insert_row(1, &row("dup", "s", "u", "1")).unwrap();
        let (r1, _) = rel.get_row(1, b"dup").unwrap();
        let (r2, _) = rel.get_row(2, b"dup").unwrap();
        assert_eq!(r1.unwrap().len(), 4);
        assert_eq!(r2.unwrap().len(), 2);
    }

    #[test]
    fn index_values_containing_separator_bytes_stay_isolated() {
        let rel = setup();
        // value "a" pk "b:c" vs value "a\0b" — must not collide.
        rel.insert_row(2, &vec![b"b:c".to_vec(), b"a".to_vec()])
            .unwrap();
        rel.insert_row(2, &vec![b"x".to_vec(), b"a\x00b".to_vec()])
            .unwrap();
        let (rows, _) = rel.index_query(2, 1, b"a", 10).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], b"b:c");
    }

    #[test]
    fn survives_flushes_and_compactions() {
        let rel = setup();
        for i in 0..300 {
            rel.insert_row(
                1,
                &row(
                    &format!("o{:05}", i),
                    &format!("st{}", i % 5),
                    &format!("u{:03}", i % 50),
                    &"p".repeat(100),
                ),
            )
            .unwrap();
        }
        rel.db().compact(CompactionRequest::FlushAll).unwrap();
        let (rows, _) = rel.index_query(1, 1, b"st3", 500).unwrap();
        assert_eq!(rows.len(), 60);
        let (row, _) = rel.get_row(1, b"o00123").unwrap();
        assert!(row.is_some());
    }
}
