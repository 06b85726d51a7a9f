//! Pieces every workload shares: options, failure tally, per-commit
//! records, order-independent state digests and scratch directories.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ojv_core::maintain::MaintenanceReport;
use ojv_exec::ExecStatsSnapshot;
use ojv_rel::Datum;

use crate::vfs::IoTotals;

/// Command-line options.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one expected value on purpose, to show the run then fails.
    pub inject_failure: bool,
}

/// Attempted and failed operations. A failure is an `Err` from the engine
/// or a failed correctness check; each one is also described in `notes`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one engine call; `Err` counts as failed.
    pub fn op<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Count one correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    /// Add another thread's tally to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// Log a phase boundary on stderr with the time since the process began.
pub fn phase(name: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("perfbench: {t:7.2} s  {name}");
}

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

pub fn set(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

/// The kind of a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kind {
    #[default]
    Insert,
    Delete,
    Update,
}

/// What one timed commit did, as measured around its public calls.
#[derive(Debug, Clone, Default)]
pub struct CommitRec {
    pub kind: Kind,
    /// Whether tracing was on for this commit.
    pub traced: bool,
    /// Facade wall time (all public calls of the commit).
    pub wall_ns: u64,
    /// Base rows the commit changed.
    pub rows: u64,
    /// Separately timed base-table apply (`Database::apply_*`), if any.
    pub apply_ns: u64,
    pub primary_compute_ns: u64,
    pub primary_apply_ns: u64,
    pub secondary_ns: u64,
    pub primary_rows: u64,
    pub secondary_rows: u64,
    pub exec: ExecStatsSnapshot,
    /// Maintenance report time and base rows, per shard.
    pub shard_busy_ns: Vec<u64>,
    pub shard_rows: Vec<u64>,
    pub io: IoTotals,
    pub fanout_ns: u64,
    pub drain_ns: u64,
    pub delivered_rows: u64,
    /// Commit call until every subscriber drained it.
    pub lag_ns: u64,
}

impl CommitRec {
    pub fn new(kind: Kind, traced: bool, rows: usize) -> Self {
        CommitRec {
            kind,
            traced,
            rows: rows as u64,
            ..Default::default()
        }
    }

    /// Fold the engine's maintenance reports into the record. Reports come
    /// in shard order when the engine is sharded; `shard_of` maps a report
    /// index to its shard.
    pub fn add_reports(
        &mut self,
        reports: &[MaintenanceReport],
        shard_of: impl Fn(usize) -> usize,
    ) {
        for (i, r) in reports.iter().enumerate() {
            self.primary_compute_ns += r.primary_compute.as_nanos() as u64;
            self.primary_apply_ns += r.primary_apply.as_nanos() as u64;
            self.secondary_ns += r.secondary_time.as_nanos() as u64;
            self.primary_rows += r.primary_rows as u64;
            self.secondary_rows += r.secondary_rows as u64;
            add_exec(&mut self.exec, &r.exec);
            let s = shard_of(i);
            if self.shard_busy_ns.len() <= s {
                self.shard_busy_ns.resize(s + 1, 0);
                self.shard_rows.resize(s + 1, 0);
            }
            self.shard_busy_ns[s] += r.total_time().as_nanos() as u64;
            self.shard_rows[s] += r.update_rows as u64;
        }
    }

    pub fn report_ns(&self) -> u64 {
        self.primary_compute_ns + self.primary_apply_ns + self.secondary_ns
    }
}

fn add_exec(acc: &mut ExecStatsSnapshot, r: &ExecStatsSnapshot) {
    for (a, b) in [
        (&mut acc.filter, &r.filter),
        (&mut acc.join_build, &r.join_build),
        (&mut acc.join_probe, &r.join_probe),
        (&mut acc.index_join, &r.index_join),
        (&mut acc.dedup, &r.dedup),
        (&mut acc.subsume, &r.subsume),
    ] {
        a.rows_in += b.rows_in;
        a.rows_out += b.rows_out;
        a.morsels += b.morsels;
        a.time_ns += b.time_ns;
        a.allocs += b.allocs;
        a.alloc_bytes += b.alloc_bytes;
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Order-independent digest of a multiset of rows: row count plus two
/// wrapping sums of independent row hashes. Two collections holding the
/// same rows in any order digest equal; any changed, missing or extra row
/// changes it (up to a 2^-128 collision chance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub h1: u64,
    pub h2: u64,
}

impl Digest {
    pub fn add_row(&mut self, row: &[Datum]) {
        let mut a = DefaultHasher::new();
        row.hash(&mut a);
        let mut b = DefaultHasher::new();
        0x5eed_u64.hash(&mut b);
        row.hash(&mut b);
        self.rows += 1;
        self.h1 = self.h1.wrapping_add(a.finish());
        self.h2 = self.h2.wrapping_add(b.finish());
    }

    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a ojv_rel::Row>) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add_row(r);
        }
        d
    }

    pub fn merge(&mut self, other: Digest) {
        self.rows += other.rows;
        self.h1 = self.h1.wrapping_add(other.h1);
        self.h2 = self.h2.wrapping_add(other.h2);
    }
}

/// A named set of digests (one per table or view) compared as a whole.
pub type StateDigest = BTreeMap<String, Digest>;

/// Flip one expected value, for `--inject-failure`.
pub fn corrupt(expected: &mut StateDigest) {
    if let Some(d) = expected.values_mut().next() {
        d.h1 ^= 1;
    }
}

/// Directory for the benchmark's own files, inside the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A scratch directory removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The timed loop: whole cycles until both the time and the commit floor
/// are met. Created after the warm-up cycle, so it also marks where plan
/// compiles and the memory high-water mark start counting.
pub struct Loop {
    start: Instant,
    seconds: f64,
    min_commits: usize,
    compiles0: usize,
}

impl Loop {
    pub fn new(seconds: f64, min_commits: usize) -> Self {
        crate::alloc::reset_peak();
        Loop {
            start: Instant::now(),
            seconds,
            min_commits,
            compiles0: ojv_core::compile::compile_count(),
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn done(&self, commits: usize) -> bool {
        self.elapsed() >= self.seconds && commits >= self.min_commits
    }

    /// In a traced run the first half runs untraced (the overhead
    /// baseline) and the second half traced.
    pub fn tracing_due(&self, trace: bool) -> bool {
        trace && self.elapsed() >= self.seconds / 2.0
    }

    /// Maintenance plans compiled on this thread since the loop began.
    pub fn plan_compiles(&self) -> usize {
        ojv_core::compile::compile_count() - self.compiles0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_ignores_order_and_sees_changes() {
        let rows: Vec<Vec<Datum>> = (0..8).map(|i| vec![Datum::Int(i)]).collect();
        let mut rev = rows.clone();
        rev.reverse();
        assert_eq!(Digest::of_rows(&rows), Digest::of_rows(&rev));
        rev[3][0] = Datum::Int(99);
        assert_ne!(Digest::of_rows(&rows), Digest::of_rows(&rev));
    }
}
