//! A [`Vfs`] wrapper that counts what the durability layer asks of the
//! file system: write calls, bytes, time inside `write_all`, and syncs.
//! With one client the counts are exact and repeat run to run.

use sqlgraph_rel::io::VfsFile;
use sqlgraph_rel::Vfs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Running totals, shared between the wrapper and every file it opened.
/// `Relaxed` throughout: these are statistics that publish no other data.
#[derive(Debug, Default)]
pub struct IoCounts {
    write_calls: AtomicU64,
    bytes: AtomicU64,
    write_ns: AtomicU64,
    sync_calls: AtomicU64,
}

/// A point-in-time copy of [`IoCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub write_calls: u64,
    pub bytes: u64,
    pub write_ns: u64,
    pub sync_calls: u64,
}

impl IoCounts {
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            write_calls: self.write_calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            sync_calls: self.sync_calls.load(Ordering::Relaxed),
        }
    }
}

impl IoSnapshot {
    /// Activity since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            write_calls: self.write_calls - earlier.write_calls,
            bytes: self.bytes - earlier.bytes,
            write_ns: self.write_ns - earlier.write_ns,
            sync_calls: self.sync_calls - earlier.sync_calls,
        }
    }
}

/// `inner` with every file it hands out counted into `counts`.
#[derive(Debug)]
pub struct CountingFs<V> {
    inner: V,
    counts: Arc<IoCounts>,
}

impl<V: Vfs> CountingFs<V> {
    pub fn new(inner: V) -> CountingFs<V> {
        CountingFs {
            inner,
            counts: Arc::default(),
        }
    }

    pub fn counts(&self) -> Arc<IoCounts> {
        Arc::clone(&self.counts)
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            file,
            counts: Arc::clone(&self.counts),
        })
    }
}

struct CountingFile {
    file: Box<dyn VfsFile>,
    counts: Arc<IoCounts>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.file.write_all(buf);
        let ns = start.elapsed().as_nanos() as u64;
        self.counts.write_ns.fetch_add(ns, Ordering::Relaxed);
        self.counts.write_calls.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        out
    }

    fn sync(&mut self) -> io::Result<()> {
        self.counts.sync_calls.fetch_add(1, Ordering::Relaxed);
        self.file.sync()
    }
}

impl<V: Vfs> Vfs for CountingFs<V> {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create(path).map(|f| self.wrap(f))
    }
    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.append(path).map(|f| self.wrap(f))
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgraph_rel::{Database, SimFs};

    #[test]
    fn counts_writes_and_syncs_and_passes_data_through() {
        let sim = SimFs::new();
        let fs = CountingFs::new(sim.clone());
        let counts = fs.counts();
        let path = Path::new("/d/file");
        let mut f = fs.create(path).expect("create");
        f.write_all(b"hello").expect("write");
        f.write_all(b", world").expect("write");
        f.sync().expect("sync");
        drop(f);
        let mut f = fs.append(path).expect("append");
        f.write_all(b"!").expect("write");
        drop(f);

        let snap = counts.snapshot();
        assert_eq!((snap.write_calls, snap.bytes, snap.sync_calls), (3, 13, 1));
        assert_eq!(
            fs.read(path).expect("read").as_deref(),
            Some(&b"hello, world!"[..])
        );
        assert!(fs.exists(path) && sim.exists(path));
        fs.rename(path, Path::new("/d/other")).expect("rename");
        assert!(!fs.exists(path));
        fs.truncate(Path::new("/d/other"), 5).expect("truncate");
        fs.remove(Path::new("/d/other")).expect("remove");
        // Only writes and syncs are counted.
        assert_eq!(counts.snapshot().since(&snap), IoSnapshot::default());
    }

    #[test]
    fn a_commit_through_the_database_is_counted() {
        let fs = Arc::new(CountingFs::new(SimFs::new()));
        let counts = fs.counts();
        let db = Database::open_with_vfs("/db/wal", fs).expect("open");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .expect("ddl");
        let before = counts.snapshot();
        db.execute("INSERT INTO t VALUES (1, 10)").expect("insert");
        let one = counts.snapshot().since(&before);
        assert!(one.write_calls >= 1 && one.bytes > 0);
        assert_eq!(one.sync_calls, 0, "sync_on_commit is off by default");

        db.set_sync_on_commit(true);
        let before = counts.snapshot();
        db.execute("INSERT INTO t VALUES (2, 20)").expect("insert");
        let synced = counts.snapshot().since(&before);
        assert_eq!(synced.write_calls, one.write_calls);
        assert!(synced.sync_calls >= 1);
    }
}
