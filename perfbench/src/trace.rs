//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer of
//! the stack: name (`<layer>.<call>`), start, end, parent span and, for
//! service traffic, the request's wire id. They stay in per-thread buffers
//! while the run lasts and are merged and written out once at the end.
//! With tracing off a span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Wire id of the service request this span belongs to; 0 if none.
    pub req: u64,
    pub thread: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

struct Local {
    thread: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        open: Vec::new(),
        spans: Vec::new(),
    });
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes (and records) on drop.
pub struct Guard {
    open: Option<(u32, u32, &'static str, Instant, u64)>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start, req)) = self.open.take() {
            let end = Instant::now();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                if l.open.last() == Some(&id) {
                    l.open.pop();
                }
                let thread = l.thread;
                l.spans.push(Span {
                    id,
                    parent,
                    name,
                    start_ns: ns_since_epoch(start),
                    end_ns: ns_since_epoch(end),
                    req,
                    thread,
                });
            });
        }
    }
}

/// Open a span nested under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    span_req(name, 0)
}

/// [`span`] tagged with a service request id.
pub fn span_req(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let p = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        p
    });
    Guard {
        open: Some((id, parent, name, Instant::now(), req)),
    }
}

/// Record an already-finished span with an explicit parent (for request
/// spans whose lifetime does not nest on one stack). Returns its id, or 0
/// with tracing off.
pub fn record(name: &'static str, start: Instant, end: Instant, parent: u32, req: u64) -> u32 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let thread = l.thread;
        l.spans.push(Span {
            id,
            parent,
            name,
            start_ns: ns_since_epoch(start),
            end_ns: ns_since_epoch(end),
            req,
            thread,
        });
    });
    id
}

/// Move this thread's finished spans to the shared list. Every thread that
/// recorded spans calls this before it ends.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        DONE.lock().unwrap_or_else(|e| e.into_inner()).extend(spans);
    }
}

/// Every span recorded so far (flushes the calling thread first).
pub fn take_all() -> Vec<Span> {
    flush_thread();
    let mut all = std::mem::take(&mut *DONE.lock().unwrap_or_else(|e| e.into_inner()));
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer in nanoseconds: each span's duration minus the part
/// of it that its child spans cover (children are clipped to the parent's
/// interval and merged, so overlapping children are not counted twice).
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(layer(s.name).to_string()).or_default() += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Write spans as Chrome/Perfetto trace JSON (complete `X` events; the
/// parent id and request id ride in `args`).
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            req: 0,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            sp(1, 0, "bench.round", 0, 100),
            sp(2, 1, "sketchcore.alg3", 10, 40),
            sp(3, 1, "sketchcore.alg4", 30, 60),
            sp(4, 3, "rngkit.fill", 35, 45),
        ];
        let st = self_ns_by_layer(&spans);
        assert_eq!(st["bench"], 50); // 100 − union(10..60)
        assert_eq!(st["sketchcore"], 30 + 20);
        assert_eq!(st["rngkit"], 10);
    }
}
