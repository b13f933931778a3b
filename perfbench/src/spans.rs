//! In-memory spans recorded from the benchmark's own files.
//!
//! A span is one timed call into a layer: its name, its start and end,
//! the span that was open on the same thread when it began (its parent),
//! and the transaction it served. Spans are kept in memory while the run
//! goes and written out when it ends. With recording switched off a span
//! costs one relaxed atomic load.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use tabs_kernel::Tid;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span open on this thread when this one began; `None` for a
    /// top-level span or a detached device span.
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `begin`, `servers.call`, `wal.force`.
    pub name: &'static str,
    /// The transaction served, when known.
    pub tid: Option<Tid>,
    /// Start, nanoseconds since the run's epoch.
    pub start: u64,
    /// End, nanoseconds since the run's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<Option<(u64, Option<Tid>)>> = const { Cell::new(None) };
}

/// Nanoseconds since the process-wide epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switches recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned by a panicking recorder"))
}

/// Runs `f` inside a span named `name` for transaction `tid`. Without a
/// `tid` the span inherits the transaction of the span open on this
/// thread, if any.
pub fn timed<R>(name: &'static str, tid: Option<Tid>, f: impl FnOnce() -> R) -> R {
    timed_then(name, tid, f, |_| None)
}

/// [`timed`] for a call that produces its own transaction: `tid_of`
/// reads the transaction from the result (e.g. `begin`).
pub fn timed_then<R>(
    name: &'static str,
    tid: Option<Tid>,
    f: impl FnOnce() -> R,
    tid_of: impl FnOnce(&R) -> Option<Tid>,
) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.with(|c| c.get());
    let tid = tid.or(outer.and_then(|(_, t)| t));
    CURRENT.with(|c| c.set(Some((id, tid))));
    let start = now_ns();
    let r = f();
    let end = now_ns();
    CURRENT.with(|c| c.set(outer));
    let tid = tid.or_else(|| tid_of(&r));
    let span = Span { id, parent: outer.map(|(p, _)| p), name, tid, start, end };
    SPANS.lock().expect("span store poisoned by a panicking recorder").push(span);
    r
}

/// Length of the union of `intervals` clipped to `[from, to)`.
pub fn covered(from: u64, to: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(from), e.min(to))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its
/// children cover.
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let kids: Vec<(u64, u64)> = children.iter().map(|c| (c.start, c.end)).collect();
    span.dur() - covered(span.start, span.end, &kids)
}
