//! Write-ahead log: durability for committed row-level changes.
//!
//! The log is a sequence of *segment* files of length-prefixed, checksummed
//! records, written through the pluggable [`crate::io::Vfs`] layer. Each
//! committed transaction is one contiguous run of operation records closed
//! by a [`WalRecord::Commit`] marker, appended with a single write so a
//! torn tail can only ever lose the *whole* transaction, never half of it.
//! Replay applies commit-closed runs only; a tail without its marker is
//! discarded and truncated away before the log accepts new appends.
//!
//! Row operations carry the physical [`RowId`] they touched so replay can
//! target the exact slot even when duplicate row images exist, and log only
//! what replay reads: an insert its row, an update its new row, a delete
//! only its table and row id. A transaction's records are also its undo
//! journal until it commits (see [`crate::db`]).
//!
//! Segments rotate at checkpoint time (see [`crate::checkpoint`]): segment
//! `gen` holds everything committed since snapshot `gen` was taken, so
//! recovery is snapshot-load + tail-segment replay instead of a full
//! history scan.
//!
//! Each record is one [`crate::codec`] record frame
//! (`len:u32 | fletcher32:u32 | payload`, little-endian) whose payload is
//! an op byte followed by the op's fields in the codec's encoding.

use crate::codec::{put_record, put_str, put_u64, put_values, CodecError, Cursor};
use crate::error::{Error, Result};
use crate::index::RowId;
use crate::io::{Vfs, VfsFile};
use crate::value::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A committed row-level operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Row inserted into `table` at physical slot `row_id`.
    Insert {
        /// Table name.
        table: String,
        /// Slab slot the row landed in.
        row_id: RowId,
        /// Full row image.
        row: Vec<Value>,
    },
    /// Row deleted from `table`.
    Delete {
        /// Table name.
        table: String,
        /// Slab slot the row occupied.
        row_id: RowId,
    },
    /// Row updated in `table`.
    Update {
        /// Table name.
        table: String,
        /// Slab slot the row occupies.
        row_id: RowId,
        /// New row image.
        new: Vec<Value>,
    },
    /// A committed DDL statement, replayed verbatim so recovery can rebuild
    /// schemas and indexes before row records arrive.
    Ddl {
        /// The original SQL text.
        sql: String,
    },
    /// Transaction boundary: everything since the previous marker commits
    /// atomically at timestamp `ts` on the MVCC commit clock. Written
    /// automatically by [`Wal::append_commit`]; replay restores the clock
    /// from the largest `ts` seen.
    Commit {
        /// Commit timestamp assigned by [`crate::txn::TxnManager`].
        ts: u64,
    },
}

/// Segment file path for generation `gen` under base path `base`: the base
/// path itself for generation 0 (backward compatible with single-file
/// logs), `<base>.g<gen>` afterwards.
pub fn segment_path(base: &Path, gen: u64) -> PathBuf {
    if gen == 0 {
        base.to_path_buf()
    } else {
        PathBuf::from(format!("{}.g{gen}", base.display()))
    }
}

/// Everything a scan learned about one segment file.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// Commit-closed transactions, in log order, each with its commit
    /// timestamp.
    pub commits: Vec<(u64, Vec<WalRecord>)>,
    /// Byte offset just past the last commit marker — the only safe append
    /// point. Everything beyond is torn, corrupt, or commit-less.
    pub valid_len: u64,
    /// Total file length scanned.
    pub file_len: u64,
    /// Records seen after the last commit marker (intact but uncommitted —
    /// discarded by recovery).
    pub dangling_records: usize,
}

/// An append-only WAL segment.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    base: PathBuf,
    gen: u64,
    file: Box<dyn VfsFile>,
    /// fsync after every commit batch when true (durability vs throughput).
    pub sync_on_commit: bool,
    /// Set after an append error: the on-disk tail is in an unknown state
    /// (the failed transaction's bytes may or may not be durable), so
    /// further appends could interleave new commits with a half-written
    /// one. The log refuses writes until the database is reopened, which
    /// truncates the tail back to the last commit marker. A transaction
    /// whose commit *errored* is therefore indeterminate: it is rolled back
    /// in memory, but if its bytes did reach disk intact, reopening will
    /// replay it.
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("base", &self.base)
            .field("gen", &self.gen)
            .field("sync_on_commit", &self.sync_on_commit)
            .finish()
    }
}

impl Wal {
    /// Open (creating if needed) the generation-0 segment at `path` for
    /// appending, on the real file system. Convenience for tests and
    /// single-segment use; recovery paths use [`Wal::open_segment`].
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        Wal::open_segment(Arc::new(crate::io::StdFs), path.as_ref(), 0)
    }

    /// Open segment `gen` of the log at `base` for appending.
    pub fn open_segment(vfs: Arc<dyn Vfs>, base: &Path, gen: u64) -> Result<Wal> {
        let path = segment_path(base, gen);
        let file = vfs
            .append(&path)
            .map_err(|e| Error::Wal(format!("open {}: {e}", path.display())))?;
        Ok(Wal {
            vfs,
            base: base.to_path_buf(),
            gen,
            file,
            sync_on_commit: false,
            poisoned: false,
        })
    }

    /// Base path of the log (segment files derive from it).
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// Path of the active segment file.
    pub fn path(&self) -> PathBuf {
        segment_path(&self.base, self.gen)
    }

    /// Generation of the active segment.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// The file-system layer this log writes through.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        self.vfs.clone()
    }

    /// Switch to a pre-opened segment handle (checkpoint rotation):
    /// subsequent commits append to it. Infallible by design — the caller
    /// opens the handle *before* installing the snapshot so the snapshot
    /// and active segment can never disagree. The old segment file is left
    /// on disk for the caller to retire.
    pub fn install_segment(&mut self, gen: u64, file: Box<dyn VfsFile>) {
        self.file = file;
        self.gen = gen;
    }

    /// Append one transaction: `records` followed by a commit marker, as a
    /// single write (so a torn tail drops the transaction atomically),
    /// flushed — and fsynced when `sync_on_commit` — before returning.
    pub fn append_commit<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r WalRecord>,
        ts: u64,
    ) -> Result<()> {
        if self.poisoned {
            return Err(Error::Wal(
                "log poisoned by an earlier append failure; reopen the database to recover".into(),
            ));
        }
        let mut buf = Vec::new();
        for r in records {
            encode_record(r, &mut buf);
        }
        encode_record(&WalRecord::Commit { ts }, &mut buf);
        if let Err(e) = self.file.write_all(&buf) {
            self.poisoned = true;
            return Err(Error::Wal(format!("write: {e}")));
        }
        if self.sync_on_commit {
            if let Err(e) = self.file.sync() {
                self.poisoned = true;
                return Err(Error::Wal(format!("fsync: {e}")));
            }
        }
        Ok(())
    }

    /// Whether an append error has made this log read-only (see the
    /// `poisoned` field docs).
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Scan a segment file: parse every intact record, group them into
    /// commit-closed transactions, and report the last safe append offset.
    /// A corrupt or torn record stops the scan without error (standard
    /// recovery semantics); so does an intact tail with no commit marker.
    pub fn scan_segment(vfs: &dyn Vfs, path: &Path) -> Result<SegmentScan> {
        let data = match vfs.read(path) {
            Ok(Some(d)) => d,
            Ok(None) => return Ok(SegmentScan::default()),
            Err(e) => return Err(Error::Wal(format!("open for replay: {e}"))),
        };
        let mut scan = SegmentScan {
            file_len: data.len() as u64,
            ..SegmentScan::default()
        };
        let mut c = Cursor::new(&data);
        let mut pending: Vec<WalRecord> = Vec::new();
        while let Ok(record) = c.record().and_then(decode_record) {
            if let WalRecord::Commit { ts } = record {
                scan.commits.push((ts, std::mem::take(&mut pending)));
                scan.valid_len = c.pos() as u64;
            } else {
                pending.push(record);
            }
        }
        scan.dangling_records = pending.len();
        Ok(scan)
    }

    /// Every record of every *committed* transaction in the generation-0
    /// segment at `path`, flattened in log order. Convenience for tests.
    pub fn read_all(path: impl AsRef<Path>) -> Result<Vec<WalRecord>> {
        let scan = Wal::scan_segment(&crate::io::StdFs, path.as_ref())?;
        Ok(scan.commits.into_iter().flat_map(|(_, r)| r).collect())
    }
}

fn encode_record(r: &WalRecord, out: &mut Vec<u8>) {
    put_record(out, |p| match r {
        WalRecord::Insert { table, row_id, row } => {
            p.push(0);
            put_str(p, table);
            put_u64(p, *row_id as u64);
            put_values(p, row);
        }
        WalRecord::Delete { table, row_id } => {
            p.push(5);
            put_str(p, table);
            put_u64(p, *row_id as u64);
        }
        WalRecord::Update { table, row_id, new } => {
            p.push(6);
            put_str(p, table);
            put_u64(p, *row_id as u64);
            put_values(p, new);
        }
        WalRecord::Ddl { sql } => {
            p.push(3);
            put_str(p, sql);
        }
        WalRecord::Commit { ts } => {
            p.push(4);
            put_u64(p, *ts);
        }
    });
}

fn decode_record(payload: &[u8]) -> std::result::Result<WalRecord, CodecError> {
    let mut c = Cursor::new(payload);
    let record = match c.u8()? {
        0 => WalRecord::Insert {
            table: c.str()?.to_string(),
            row_id: c.u64()? as RowId,
            row: c.values()?,
        },
        // Ops 1 and 2 were a delete and an update that also logged the
        // old row; a log holding one reads as a corrupt tail from there.
        5 => WalRecord::Delete {
            table: c.str()?.to_string(),
            row_id: c.u64()? as RowId,
        },
        6 => WalRecord::Update {
            table: c.str()?.to_string(),
            row_id: c.u64()? as RowId,
            new: c.values()?,
        },
        3 => WalRecord::Ddl {
            sql: c.str()?.to_string(),
        },
        4 => WalRecord::Commit { ts: c.u64()? },
        op => return Err(c.err(&format!("unknown WAL op {op}"))),
    };
    c.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sqlgraph-wal-test-{}-{name}", std::process::id()));
        p
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                table: "va".into(),
                row_id: 0,
                row: vec![
                    Value::Int(1),
                    Value::json(sqlgraph_json::parse(r#"{"name":"marko"}"#).unwrap()),
                ],
            },
            WalRecord::Delete {
                table: "ea".into(),
                row_id: 7,
            },
            WalRecord::Update {
                table: "opa".into(),
                row_id: 3,
                new: vec![Value::Bool(true), Value::array(vec![Value::Int(1)])],
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(&sample_records(), 1).unwrap();
            wal.append_commit(&sample_records()[..1], 2).unwrap();
        }
        let records = Wal::read_all(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], sample_records()[0]);
        assert_eq!(records[3], sample_records()[0]);
        let scan = Wal::scan_segment(&crate::io::StdFs, &path).unwrap();
        assert_eq!(scan.commits.len(), 2);
        assert_eq!(scan.commits[0].0, 1, "commit timestamps round-trip");
        assert_eq!(scan.commits[1].0, 2);
        assert_eq!(scan.valid_len, scan.file_len);
        assert_eq!(scan.dangling_records, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(&sample_records(), 1).unwrap();
        }
        let good_len = std::fs::metadata(&path).unwrap().len();
        // Append garbage simulating a torn write.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[9, 9, 9, 9, 1]).unwrap();
        }
        let records = Wal::read_all(&path).unwrap();
        assert_eq!(records.len(), 3);
        let scan = Wal::scan_segment(&crate::io::StdFs, &path).unwrap();
        assert_eq!(scan.valid_len, good_len, "torn bytes are past valid_len");
        assert!(scan.file_len > scan.valid_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(&sample_records(), 1).unwrap();
        }
        // Flip a byte in the middle of the file (second record's payload).
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        // The commit marker is past the corruption, so nothing commits.
        let records = Wal::read_all(&path).unwrap();
        assert!(records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commitless_tail_is_not_replayed() {
        let path = tmp("commitless");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(&sample_records(), 1).unwrap();
        }
        // Append an intact record with no commit marker (simulating a crash
        // that persisted only part of the next transaction's batch).
        {
            let mut buf = Vec::new();
            encode_record(&sample_records()[0], &mut buf);
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&buf).unwrap();
        }
        let scan = Wal::scan_segment(&crate::io::StdFs, &path).unwrap();
        assert_eq!(scan.commits.len(), 1);
        assert_eq!(scan.commits[0].1.len(), 3);
        assert_eq!(scan.dangling_records, 1);
        assert!(scan.valid_len < scan.file_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_retired_op_tag_is_refused() {
        // Ops 1 and 2 were a delete and an update that also logged the old
        // row: a log holding one is corrupt from there, never misread.
        for op in [1u8, 2] {
            let mut payload = vec![op];
            put_str(&mut payload, "t");
            put_u64(&mut payload, 0);
            put_values(&mut payload, &[Value::Int(1)]);
            put_values(&mut payload, &[Value::Int(2)]);
            let err = decode_record(&payload).unwrap_err();
            assert!(err.to_string().contains("unknown WAL op"), "{err}");
        }
    }

    #[test]
    fn missing_file_is_empty() {
        assert!(Wal::read_all(tmp("never-created")).unwrap().is_empty());
    }

    #[test]
    fn segment_paths() {
        let base = Path::new("/x/db.wal");
        assert_eq!(segment_path(base, 0), PathBuf::from("/x/db.wal"));
        assert_eq!(segment_path(base, 3), PathBuf::from("/x/db.wal.g3"));
    }
}
