//! Spans recorded by the benchmark around every public call it makes into
//! the engine (and inside its own `Vfs` wrapper).
//!
//! Each thread keeps its spans in a thread-local buffer; nothing is written
//! until the run ends. With tracing off a span costs one thread-local flag
//! read and no clock read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval: `name` is `layer.call`, `parent` indexes the
/// enclosing span of the same thread, `commit` is the commit id the span
/// belongs to (0 outside commits).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub commit: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Local {
    on: bool,
    commit: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    now_ns(); // start the clock's epoch before the first span
    LOCAL.with(|l| l.borrow_mut().on = on);
}

/// Tag the calling thread's following spans with a commit id.
pub fn set_commit(id: u64) {
    LOCAL.with(|l| l.borrow_mut().commit = id);
}

/// An open span; recording ends when it drops.
pub struct Guard {
    idx: Option<u32>,
}

/// Open a span named `layer.call` on the calling thread.
pub fn span(name: &'static str) -> Guard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return Guard { idx: None };
        }
        let idx = l.spans.len() as u32;
        let parent = l.stack.last().copied().unwrap_or(NO_PARENT);
        let commit = l.commit;
        l.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            commit,
            bytes: 0,
        });
        l.stack.push(idx);
        Guard { idx: Some(idx) }
    })
}

impl Guard {
    /// Attribute `n` bytes of I/O to this span.
    pub fn bytes(&self, n: u64) {
        if let Some(i) = self.idx {
            LOCAL.with(|l| l.borrow_mut().spans[i as usize].bytes += n);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(i) = self.idx {
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.spans[i as usize].end_ns = now_ns();
                l.stack.pop();
            });
        }
    }
}

/// Take the calling thread's recorded spans.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.clear();
        std::mem::take(&mut l.spans)
    })
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part covered by its direct children (same thread buffer).
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Write every thread's spans as tab-separated lines:
/// `thread idx name start_ns end_ns parent commit bytes`.
pub fn write_tsv(path: &std::path::Path, threads: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "thread\tidx\tname\tstart_ns\tend_ns\tparent\tcommit\tbytes"
    )?;
    for (thread, spans) in threads {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{thread}\t{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.commit, s.bytes
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            commit: 1,
            bytes: 0,
        };
        let spans = [
            span("engine.insert", 0, 100, NO_PARENT),
            span("durability.wal_append", 10, 30, 0),
            span("durability.wal_sync", 40, 90, 0),
        ];
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["engine"], 30);
        assert_eq!(by_layer["durability"], 70);
    }
}
