//! Checkpoints: full-state snapshots that bound WAL replay.
//!
//! A snapshot serializes the complete catalog — every table's schema,
//! indexes, and row slab (tombstones included, so physical [`RowId`]s and
//! scan order survive byte-for-byte) — into one file of [`crate::codec`]
//! checksummed records: a header, then one per table. It is written to a
//! temp file, fsynced, and atomically installed with a rename, then the WAL
//! rotates to a fresh segment. Recovery becomes snapshot-load + tail-segment
//! replay: O(delta since last checkpoint) instead of O(history).
//!
//! Snapshot generation `g` means "the state at the start of WAL segment
//! `g`": recovery loads the snapshot and replays segments `g, g+1, …` in
//! order. Crash-safety of the install protocol is exercised point-by-point
//! by `crates/rel/tests/crash_recovery.rs`.
//!
//! [`RowId`]: crate::index::RowId

use crate::codec::{put_record, put_str, put_u32, put_u64, put_values, Cursor};
use crate::error::{Error, Result};
use crate::index::{IndexKind, KeyPart};
use crate::io::Vfs;
use crate::schema::{Column, ColumnType, TableSchema};
use crate::storage::Table;
use std::path::{Path, PathBuf};

const MAGIC: &str = "SQLGSNAP";
// Version 2 added the MVCC commit clock to the header; version 3 is the
// little-endian `crate::codec` encoding, with no footer record.
const VERSION: u32 = 3;

/// Snapshot file path for the log rooted at `base`.
pub fn snapshot_path(base: &Path) -> PathBuf {
    PathBuf::from(format!("{}.ckpt", base.display()))
}

/// Temp path the snapshot is staged at before the atomic rename.
pub fn snapshot_tmp_path(base: &Path) -> PathBuf {
    PathBuf::from(format!("{}.ckpt.tmp", base.display()))
}

/// What [`crate::Database::checkpoint`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Generation of the snapshot just installed (== the fresh WAL segment).
    pub gen: u64,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// Tables serialized.
    pub tables: usize,
    /// Old WAL segments deleted after the rotation.
    pub retired_segments: usize,
}

/// What [`crate::Database::open`] found and did during recovery. Exposed
/// via [`crate::Database::recovery_report`] so callers (and tests) can
/// verify that recovery was bounded and observe truncation of corrupt or
/// commit-less WAL tails.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot loaded, if one existed.
    pub snapshot_gen: Option<u64>,
    /// Tables restored from the snapshot.
    pub snapshot_tables: usize,
    /// WAL segment files scanned (snapshot generation onward).
    pub segments_scanned: usize,
    /// Committed transactions replayed from those segments.
    pub commits_replayed: usize,
    /// Operation records inside those transactions.
    pub records_replayed: usize,
    /// Bytes discarded past the last valid commit across all segments
    /// (torn tails, corrupt records, commit-less batches).
    pub bytes_truncated: u64,
    /// Intact records discarded because no commit marker followed them.
    pub dangling_records: usize,
}

/// A deserialized snapshot: the generation it anchors plus fully rebuilt
/// tables (slabs installed, indexes recreated and backfilled).
#[derive(Debug)]
pub struct Snapshot {
    /// Replay WAL segments with generation >= this.
    pub gen: u64,
    /// MVCC commit clock at the moment the snapshot was cut; recovery
    /// restores the [`crate::txn::TxnManager`] clock to at least this.
    pub clock: u64,
    /// Rebuilt tables, in serialized order.
    pub tables: Vec<Table>,
}

fn column_type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Integer => 0,
        ColumnType::Double => 1,
        ColumnType::Text => 2,
        ColumnType::Json => 3,
        ColumnType::Boolean => 4,
        ColumnType::Any => 5,
    }
}

fn column_type_from(tag: u8) -> Result<ColumnType> {
    Ok(match tag {
        0 => ColumnType::Integer,
        1 => ColumnType::Double,
        2 => ColumnType::Text,
        3 => ColumnType::Json,
        4 => ColumnType::Boolean,
        5 => ColumnType::Any,
        other => return Err(Error::Wal(format!("bad column type {other}"))),
    })
}

fn encode_table(table: &Table, p: &mut Vec<u8>) {
    put_str(p, &table.schema.name);
    put_u32(p, table.schema.columns.len() as u32);
    for col in &table.schema.columns {
        put_str(p, &col.name);
        p.push(column_type_tag(col.ty));
    }
    let slab_len = table.slab_len();
    put_u32(p, slab_len as u32);
    // Serialize each chain's committed-live version, at the table's arity;
    // a chain holding only provisional (uncommitted) versions snapshots as
    // a tombstone — its transaction either commits into the fresh WAL
    // segment or vanishes.
    let latest = crate::txn::Snapshot::latest();
    let mut buf = Vec::new();
    for slot in table.scan(0..slab_len, latest) {
        match slot {
            None => p.push(0),
            Some(row) => {
                p.push(1);
                put_values(p, row.as_full(&mut buf));
            }
        }
    }
    let indexes = table.indexes();
    put_u32(p, indexes.len() as u32);
    for idx in indexes {
        put_str(p, &idx.name);
        p.push(idx.unique as u8);
        p.push(match idx.kind() {
            IndexKind::Hash => 0,
            IndexKind::BTree => 1,
        });
        put_u32(p, idx.parts.len() as u32);
        for part in &idx.parts {
            match part {
                KeyPart::Column(c) => {
                    p.push(0);
                    put_u32(p, *c as u32);
                }
                KeyPart::JsonKey(c, key) => {
                    p.push(1);
                    put_u32(p, *c as u32);
                    put_str(p, key);
                }
            }
        }
    }
}

fn decode_table(payload: &[u8]) -> Result<Table> {
    let mut c = Cursor::new(payload);
    let name = c.str()?.to_string();
    let columns = (0..c.count()?)
        .map(|_| {
            let name = c.str()?.to_string();
            let ty = column_type_from(c.u8()?)?;
            Ok(Column { name, ty })
        })
        .collect::<Result<_>>()?;
    let nslots = c.count()?;
    let mut slots = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        slots.push(match c.u8()? {
            0 => None,
            1 => Some(c.values()?),
            other => return Err(Error::Wal(format!("bad slot tag {other}"))),
        });
    }
    let mut table = Table::from_slots(TableSchema::new(name, columns)?, slots)?;
    for _ in 0..c.count()? {
        let name = c.str()?.to_string();
        let unique = c.u8()? != 0;
        let kind = match c.u8()? {
            0 => IndexKind::Hash,
            1 => IndexKind::BTree,
            other => return Err(Error::Wal(format!("bad index kind {other}"))),
        };
        let parts = (0..c.count()?)
            .map(|_| {
                let tag = c.u8()?;
                let col = c.u32()? as usize;
                match tag {
                    0 => Ok(KeyPart::Column(col)),
                    1 => Ok(KeyPart::JsonKey(col, c.str()?.to_string())),
                    other => Err(Error::Wal(format!("bad key part {other}"))),
                }
            })
            .collect::<Result<_>>()?;
        table.create_index_with_parts(name, parts, unique, kind)?;
    }
    c.finish()?;
    Ok(table)
}

/// Serialize `tables` into snapshot bytes anchored at generation `gen`,
/// with the MVCC commit clock standing at `clock`: a header record, then
/// one record per table.
pub(crate) fn encode_snapshot(gen: u64, clock: u64, tables: &[&Table]) -> Vec<u8> {
    let mut out = Vec::new();
    put_record(&mut out, |h| {
        put_str(h, MAGIC);
        put_u32(h, VERSION);
        put_u64(h, gen);
        put_u64(h, clock);
        put_u32(h, tables.len() as u32);
    });
    for table in tables {
        put_record(&mut out, |p| encode_table(table, p));
    }
    out
}

/// Stage snapshot bytes at the temp path, fsync, and atomically install
/// them at the snapshot path. Returns the byte size written.
pub(crate) fn install_snapshot(vfs: &dyn Vfs, base: &Path, bytes: &[u8]) -> Result<u64> {
    let tmp = snapshot_tmp_path(base);
    let dst = snapshot_path(base);
    let mut file = vfs
        .create(&tmp)
        .map_err(|e| Error::Wal(format!("checkpoint: create {}: {e}", tmp.display())))?;
    file.write_all(bytes)
        .map_err(|e| Error::Wal(format!("checkpoint: write: {e}")))?;
    file.sync()
        .map_err(|e| Error::Wal(format!("checkpoint: fsync: {e}")))?;
    drop(file);
    vfs.rename(&tmp, &dst)
        .map_err(|e| Error::Wal(format!("checkpoint: install rename: {e}")))?;
    Ok(bytes.len() as u64)
}

/// Load the snapshot for the log rooted at `base`, if one is installed.
///
/// A missing snapshot returns `Ok(None)` (cold start / pre-checkpoint
/// database). A present-but-corrupt snapshot is an error: the WAL segments
/// it anchors are not a full history, so silently ignoring it would
/// resurrect an old state.
pub(crate) fn load_snapshot(vfs: &dyn Vfs, base: &Path) -> Result<Option<Snapshot>> {
    let path = snapshot_path(base);
    let snapshot = match vfs.read(&path) {
        Ok(Some(data)) => decode_snapshot(&data),
        Ok(None) => return Ok(None),
        Err(e) => Err(Error::Wal(format!("read: {e}"))),
    };
    snapshot.map(Some).map_err(|e| match e {
        Error::Wal(m) => Error::Wal(format!("snapshot {}: {m}", path.display())),
        e => e,
    })
}

fn decode_snapshot(data: &[u8]) -> Result<Snapshot> {
    let mut c = Cursor::new(data);
    let mut header = Cursor::new(c.record()?);
    if header.str()? != MAGIC {
        return Err(Error::Wal("bad magic".into()));
    }
    let version = header.u32()?;
    if version != VERSION {
        return Err(Error::Wal(format!("unsupported version {version}")));
    }
    let gen = header.u64()?;
    let clock = header.u64()?;
    let ntables = header.u32()?;
    header.finish()?;
    let tables = (0..ntables)
        .map(|_| decode_table(c.record()?))
        .collect::<Result<Vec<_>>>()?;
    c.finish()?;
    Ok(Snapshot { gen, clock, tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimFs;
    use crate::txn::Snapshot;
    use crate::value::Value;

    fn sample_table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                Column {
                    name: "id".into(),
                    ty: ColumnType::Integer,
                },
                Column {
                    name: "doc".into(),
                    ty: ColumnType::Json,
                },
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index("t_pk", vec![0], true, IndexKind::Hash)
            .unwrap();
        t.create_index_with_parts(
            "t_name",
            vec![KeyPart::JsonKey(1, "name".into())],
            false,
            IndexKind::BTree,
        )
        .unwrap();
        for i in 0..5 {
            t.insert(vec![
                Value::Int(i),
                Value::json(sqlgraph_json::parse(&format!(r#"{{"name":"n{i}"}}"#)).unwrap()),
            ])
            .unwrap();
        }
        // Leave a tombstone in the slab.
        t.mvcc_delete(2, 1, Snapshot { ts: 0, token: 1 }).unwrap();
        t.stamp_commit(2, 1, 1);
        t.vacuum(1);
        t
    }

    #[test]
    fn snapshot_roundtrip_preserves_slab_and_indexes() {
        let t = sample_table();
        let fs = SimFs::new();
        let base = Path::new("/db.wal");
        let bytes = encode_snapshot(7, 42, &[&t]);
        install_snapshot(&fs, base, &bytes).unwrap();
        let snap = load_snapshot(&fs, base).unwrap().unwrap();
        assert_eq!(snap.gen, 7);
        assert_eq!(snap.clock, 42, "commit clock survives the round trip");
        assert_eq!(snap.tables.len(), 1);
        let r = &snap.tables[0];
        assert_eq!(r.schema, t.schema);
        assert_eq!(r.len(), t.len());
        assert_eq!(r.slab_len(), t.slab_len());
        assert!(r.get(2).is_none(), "tombstone preserved");
        let ids: Vec<_> = r.iter().map(|(id, _)| id).collect();
        let orig: Vec<_> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, orig, "physical row ids preserved");
        assert_eq!(r.indexes().len(), 2);
        let hits = r.index_lookup("t_name", &[Value::str("n3")]).unwrap();
        assert_eq!(hits, [3], "functional index rebuilt and backfilled");
    }

    /// Every bit flip (low and high bit of every byte) and every truncation
    /// of a snapshot is an error, never a panic or a silently wrong state.
    #[test]
    fn missing_snapshot_is_none_corrupt_is_error() {
        let fs = SimFs::new();
        let base = Path::new("/db.wal");
        assert!(load_snapshot(&fs, base).unwrap().is_none());
        let t = sample_table();
        let bytes = encode_snapshot(1, 0, &[&t]);
        install_snapshot(&fs, base, &bytes).unwrap();
        assert!(load_snapshot(&fs, base).unwrap().is_some());
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= mask;
                fs.install(&snapshot_path(base), corrupt);
                assert!(
                    load_snapshot(&fs, base).is_err(),
                    "flip at byte {i} (mask {mask:#x}) must not load"
                );
            }
        }
        for len in 0..bytes.len() {
            fs.install(&snapshot_path(base), bytes[..len].to_vec());
            assert!(
                load_snapshot(&fs, base).is_err(),
                "truncation to {len} bytes must not load"
            );
        }
    }

    /// A row stored without its NULL tail is still written at the table's
    /// arity: the record is byte for byte the one full-width rows make.
    #[test]
    fn null_tailed_rows_encode_at_the_tables_arity() {
        let col = |name: &str| Column {
            name: name.into(),
            ty: ColumnType::Any,
        };
        let schema = TableSchema::new("w", vec![col("a"), col("b"), col("c")]).unwrap();
        let rows = [
            vec![Value::Int(1), Value::Null, Value::Null],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Int(3), Value::Null, Value::Int(4)],
        ];
        let mut t = Table::new(schema);
        for row in &rows {
            t.insert(row.clone()).unwrap();
        }
        let mut got = Vec::new();
        encode_table(&t, &mut got);
        let mut want = Vec::new();
        put_str(&mut want, "w");
        put_u32(&mut want, 3);
        for name in ["a", "b", "c"] {
            put_str(&mut want, name);
            want.push(column_type_tag(ColumnType::Any));
        }
        put_u32(&mut want, 3);
        for row in &rows {
            want.push(1);
            put_values(&mut want, row);
        }
        put_u32(&mut want, 0);
        assert_eq!(got, want);
        let back = decode_table(&got).unwrap();
        let full = |t: &Table| t.iter().map(|(_, r)| r.to_vec()).collect::<Vec<_>>();
        assert_eq!(full(&back), rows);
    }

    /// A reopen from the checkpoint returns the rows `SELECT *` returned.
    #[test]
    fn a_reopened_null_tailed_table_reads_the_same() {
        let fs = SimFs::new();
        let base = Path::new("/db.wal");
        let select = |db: &crate::Database| db.execute("SELECT * FROM w").unwrap().rows;
        let before = {
            let db = crate::Database::open_with_vfs(base, std::sync::Arc::new(fs.clone())).unwrap();
            db.execute("CREATE TABLE w (id INTEGER, l0 TEXT, e0 INTEGER, l1 TEXT, e1 INTEGER)")
                .unwrap();
            db.execute("CREATE INDEX w_e1 ON w (e1)").unwrap();
            db.execute(
                "INSERT INTO w VALUES (1, 'a', 10, NULL, NULL), (2, NULL, NULL, NULL, NULL), \
                 (3, 'a', 30, 'b', 31), (4, NULL, NULL, 'b', 41)",
            )
            .unwrap();
            db.execute("UPDATE w SET l1 = NULL, e1 = NULL WHERE id = 3")
                .unwrap();
            db.checkpoint().unwrap();
            select(&db)
        };
        assert_eq!(before.len(), 4);
        assert_eq!(before[2][4], Value::Null);
        let db = crate::Database::open_with_vfs(base, std::sync::Arc::new(fs)).unwrap();
        assert_eq!(select(&db), before);
        let rel = db.execute("SELECT id FROM w WHERE e1 = 41").unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Int(4)]]);
    }
}
