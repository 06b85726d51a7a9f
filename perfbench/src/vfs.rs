//! Durability measured from outside the engine: a `Vfs` over `DiskVfs`
//! that counts and times appends, syncs, reads and renames, split by the
//! kind of file (WAL segment or checkpoint).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ojv_durability::{DiskVfs, DurabilityError, Vfs};

type Result<T> = std::result::Result<T, DurabilityError>;

use crate::trace;

/// One operation kind's totals.
#[derive(Debug, Default)]
pub struct OpCounter {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
    pub bytes: AtomicU64,
}

impl OpCounter {
    fn add(&self, start: Instant, bytes: u64) {
        // Statistics only: no other data is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct OpTotals {
    pub calls: u64,
    pub ns: u64,
    pub bytes: u64,
}

impl OpTotals {
    pub fn since(self, earlier: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
            bytes: self.bytes - earlier.bytes,
        }
    }

    pub fn ms(self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// Counters shared by every `CountingVfs` of one engine.
#[derive(Debug, Default)]
pub struct IoStats {
    pub wal_append: OpCounter,
    pub wal_sync: OpCounter,
    pub ckpt_append: OpCounter,
    pub ckpt_sync: OpCounter,
    pub read: OpCounter,
    pub rename: OpCounter,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct IoTotals {
    pub wal_append: OpTotals,
    pub wal_sync: OpTotals,
    pub ckpt_append: OpTotals,
    pub ckpt_sync: OpTotals,
    pub read: OpTotals,
    pub rename: OpTotals,
}

impl IoStats {
    pub fn snapshot(&self) -> IoTotals {
        IoTotals {
            wal_append: self.wal_append.snapshot(),
            wal_sync: self.wal_sync.snapshot(),
            ckpt_append: self.ckpt_append.snapshot(),
            ckpt_sync: self.ckpt_sync.snapshot(),
            read: self.read.snapshot(),
            rename: self.rename.snapshot(),
        }
    }
}

impl IoTotals {
    pub fn since(self, e: IoTotals) -> IoTotals {
        IoTotals {
            wal_append: self.wal_append.since(e.wal_append),
            wal_sync: self.wal_sync.since(e.wal_sync),
            ckpt_append: self.ckpt_append.since(e.ckpt_append),
            ckpt_sync: self.ckpt_sync.since(e.ckpt_sync),
            read: self.read.since(e.read),
            rename: self.rename.since(e.rename),
        }
    }

    /// Wall time spent inside the file system, all kinds together.
    pub fn total_ms(&self) -> f64 {
        [
            self.wal_append,
            self.wal_sync,
            self.ckpt_append,
            self.ckpt_sync,
            self.read,
            self.rename,
        ]
        .iter()
        .map(|t| t.ms())
        .sum()
    }
}

/// `DiskVfs` plus counters and `durability.*` spans.
pub struct CountingVfs {
    inner: DiskVfs,
    stats: Arc<IoStats>,
}

impl CountingVfs {
    pub fn open(dir: &std::path::Path, stats: Arc<IoStats>) -> Result<Self> {
        Ok(CountingVfs {
            inner: DiskVfs::open(dir)?,
            stats,
        })
    }

    fn is_wal(name: &str) -> bool {
        name.starts_with("wal-")
    }
}

impl Vfs for CountingVfs {
    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.inner.len(name)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        let span = trace::span("durability.read");
        let start = Instant::now();
        let data = self.inner.read(name)?;
        self.stats.read.add(start, data.len() as u64);
        span.bytes(data.len() as u64);
        Ok(data)
    }

    fn create(&mut self, name: &str) -> Result<()> {
        let _span = trace::span("durability.create");
        self.inner.create(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        let (span, counter) = if Self::is_wal(name) {
            (trace::span("durability.wal_append"), &self.stats.wal_append)
        } else {
            (
                trace::span("durability.ckpt_append"),
                &self.stats.ckpt_append,
            )
        };
        let start = Instant::now();
        self.inner.append(name, data)?;
        counter.add(start, data.len() as u64);
        span.bytes(data.len() as u64);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        let (_span, counter) = if Self::is_wal(name) {
            (trace::span("durability.wal_sync"), &self.stats.wal_sync)
        } else {
            (trace::span("durability.ckpt_sync"), &self.stats.ckpt_sync)
        };
        let start = Instant::now();
        self.inner.sync(name)?;
        counter.add(start, 0);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<()> {
        self.inner.truncate(name, len)
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        let _span = trace::span("durability.delete");
        self.inner.delete(name)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        let _span = trace::span("durability.rename");
        let start = Instant::now();
        self.inner.rename(from, to)?;
        self.stats.rename.add(start, 0);
        Ok(())
    }
}
