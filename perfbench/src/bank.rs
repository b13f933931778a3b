//! Bank transactions and the closed- and open-loop generators that
//! issue them.
//!
//! Every attempt is classified (committed, deadlock victim, shed,
//! deadline expired, lock time-out, other error) and counted against
//! attempts. Each transaction runs inside a `txn.*` span whose children
//! are the calls into the program: `begin`, every stub call, `commit.*`
//! or `abort`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tabs_app_lib::{AppError, AppHandle, CommitOutcome};
use tabs_core::Tid;
use tabs_proto::ServerError;

use crate::rng::Rng;
use crate::spans::{now_ns, timed, timed_then};
use crate::stats::{arrival_ns, lag_ms, scheduled_latency_ms, Latencies, Pct};
use crate::world::Store;

/// How one attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Committed.
    Committed,
    /// Aborted by the system to break a deadlock.
    Victim,
    /// Refused by a server's admission gate.
    Shed,
    /// Refused or aborted because its end-to-end deadline passed.
    Deadline,
    /// A lock wait timed out.
    LockTimeout,
    /// Any other error.
    Other,
}

/// Every fate with its run-record name, in [`Fate`] order.
pub const FATES: [(Fate, &str); 6] = [
    (Fate::Committed, "committed"),
    (Fate::Victim, "deadlock_victim"),
    (Fate::Shed, "shed"),
    (Fate::Deadline, "deadline_expired"),
    (Fate::LockTimeout, "lock_timeout"),
    (Fate::Other, "other_error"),
];

/// Whether a transaction writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A transfer between two accounts.
    Update,
    /// A read-only audit of two accounts.
    ReadOnly,
}

/// One attempt's result.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Transfer or audit.
    pub kind: Kind,
    /// How it ended.
    pub fate: Fate,
    /// Its transaction, once begun.
    pub tid: Option<Tid>,
    /// For a committed transfer: `(from, to, amount)`.
    pub moved: Option<(u64, u64, i64)>,
}

fn expired(app: &AppHandle, tid: Tid) -> bool {
    app.tx_deadline(tid).is_some_and(|d| d.is_expired())
}

/// Classifies a failed call or commit of `tid`.
pub fn classify(app: &AppHandle, tid: Option<Tid>, e: &AppError) -> Fate {
    match e {
        AppError::Server(ServerError::Overloaded { .. }) => Fate::Shed,
        AppError::Server(ServerError::DeadlineExceeded) => Fate::Deadline,
        _ if tid.is_some_and(|t| expired(app, t)) => Fate::Deadline,
        AppError::TransactionIsAborted(_) => Fate::Victim,
        AppError::Rpc(m) if m.contains("deadlock") || m.contains("transaction aborted") => {
            Fate::Victim
        }
        AppError::Rpc(m) if m.contains("lock wait timed out") => Fate::LockTimeout,
        _ => Fate::Other,
    }
}

fn begin(app: &AppHandle) -> Result<Tid, AppError> {
    timed_then("begin", None, || app.begin_transaction(Tid::NULL), |r| r.as_ref().ok().copied())
}

/// Commits `tid` after a successful body, or aborts it after a failed one.
fn finish(app: &AppHandle, tid: Tid, body: Result<(), AppError>, kind: Kind) -> Fate {
    let commit_span = match kind {
        Kind::Update => "commit.update",
        Kind::ReadOnly => "commit.readonly",
    };
    match body {
        Ok(()) => match timed(commit_span, Some(tid), || app.end_transaction(tid)) {
            Ok(CommitOutcome::Committed) => Fate::Committed,
            // The system aborted it: past its deadline, or chosen as a
            // deadlock victim while it ran.
            Ok(CommitOutcome::Aborted) if expired(app, tid) => Fate::Deadline,
            Ok(CommitOutcome::Aborted) => Fate::Victim,
            Err(e) => classify(app, Some(tid), &e),
        },
        Err(e) => {
            let fate = classify(app, Some(tid), &e);
            let _ = timed("abort", Some(tid), || app.abort_transaction(tid));
            fate
        }
    }
}

/// Moves `amount` from `from` to `to`, locking `from` first (no global
/// lock order, so two transfers can deadlock).
pub fn transfer(app: &AppHandle, store: &dyn Store, from: u64, to: u64, amount: i64) -> Op {
    let run = || {
        let tid = match begin(app) {
            Ok(t) => t,
            Err(e) => {
                return Op {
                    kind: Kind::Update,
                    fate: classify(app, None, &e),
                    tid: None,
                    moved: None,
                }
            }
        };
        let call = |key, delta| timed(store.span(), Some(tid), || store.add(tid, key, delta));
        let body = call(from, -amount).and_then(|_| call(to, amount)).map(|_| ());
        let fate = finish(app, tid, body, Kind::Update);
        let moved = (fate == Fate::Committed).then_some((from, to, amount));
        Op { kind: Kind::Update, fate, tid: Some(tid), moved }
    };
    timed_then("txn.update", None, run, |op| op.tid)
}

/// Reads two accounts under shared locks and commits read-only. Returns
/// the attempt and, when it committed, the two values read.
pub fn audit(app: &AppHandle, store: &dyn Store, a: u64, b: u64) -> (Op, Option<(i64, i64)>) {
    let run = || {
        let tid = match begin(app) {
            Ok(t) => t,
            Err(e) => {
                let op = Op {
                    kind: Kind::ReadOnly,
                    fate: classify(app, None, &e),
                    tid: None,
                    moved: None,
                };
                return (op, None);
            }
        };
        let call = |key| timed(store.span(), Some(tid), || store.get(tid, key));
        let read = call(a).and_then(|va| call(b).map(|vb| (va, vb)));
        let values = read.as_ref().ok().copied();
        let fate = finish(app, tid, read.map(|_| ()), Kind::ReadOnly);
        let op = Op { kind: Kind::ReadOnly, fate, tid: Some(tid), moved: None };
        (op, values.filter(|_| fate == Fate::Committed))
    };
    timed_then("txn.readonly", None, run, |(op, _)| op.tid)
}

/// The transaction mix of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Accounts keys are drawn from (uniformly).
    pub accounts: u64,
    /// Percentage of read-only audits.
    pub audit_pct: u64,
}

impl Mix {
    /// Draws and runs one transaction.
    pub fn run(&self, app: &AppHandle, store: &dyn Store, rng: &mut Rng) -> Op {
        let (a, b) = rng.pair(self.accounts);
        if rng.percent(self.audit_pct) {
            audit(app, store, a, b).0
        } else {
            let amount = 1 + rng.below(9) as i64;
            transfer(app, store, a, b, amount)
        }
    }
}

/// One attempt as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The slice of the window it completed in (see [`Tally::slice_s`]).
    pub slice: usize,
    /// Transfer or audit.
    pub kind: Kind,
    /// How it ended.
    pub fate: Fate,
    /// Latency in ms (from sending, or from the scheduled arrival).
    pub ms: f64,
}

/// Outcomes of a measured stretch of work, cut into slices: one-second
/// slices of a traffic window, or one slice per crash cycle. Per-slice
/// figures and their median across slices keep a transient stall of the
/// host from moving a whole run's result.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Every attempt.
    pub samples: Vec<Sample>,
    /// Length in seconds of each complete slice; samples in later slices
    /// (work that finished after the window closed) count as attempts
    /// but enter no per-slice figure.
    pub slice_s: Vec<f64>,
    /// Open loop: service start minus schedule, per arrival (ms).
    pub lags: Vec<f64>,
    /// Every committed transfer, `(from, to, amount)`.
    pub moved: Vec<(u64, u64, i64)>,
    /// Seconds from the start of the window to its last outcome.
    pub span_s: f64,
}

impl Tally {
    /// Records one attempt of latency `ms` completed in `slice`.
    pub fn add(&mut self, op: &Op, ms: f64, slice: usize) {
        self.samples.push(Sample { slice, kind: op.kind, fate: op.fate, ms });
        if let Some(m) = op.moved {
            self.moved.push(m);
        }
    }

    /// Appends another tally's samples, placing them in `slice`.
    pub fn absorb(&mut self, o: &Tally, slice: usize) {
        self.samples.extend(o.samples.iter().map(|s| Sample { slice, ..*s }));
        self.lags.extend_from_slice(&o.lags);
        self.moved.extend_from_slice(&o.moved);
    }

    /// Merges a tally measured over the same slices.
    pub fn merge(&mut self, o: &Tally) {
        self.samples.extend_from_slice(&o.samples);
        self.lags.extend_from_slice(&o.lags);
        self.moved.extend_from_slice(&o.moved);
    }

    /// Attempts per fate, in [`FATES`] order.
    pub fn fates(&self) -> [u64; 6] {
        let mut out = [0; 6];
        for s in &self.samples {
            out[FATES.iter().position(|(f, _)| *f == s.fate).expect("every fate is listed")] += 1;
        }
        out
    }

    /// All attempts.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Committed attempts.
    pub fn committed(&self) -> u64 {
        self.samples.iter().filter(|s| s.fate == Fate::Committed).count() as u64
    }

    /// Committed transfers.
    pub fn committed_updates(&self) -> u64 {
        self.samples.iter().filter(|s| s.fate == Fate::Committed && s.kind == Kind::Update).count()
            as u64
    }

    /// Failed attempts.
    pub fn failed(&self) -> u64 {
        self.attempted() - self.committed()
    }

    /// Latencies of `kind` (failed attempts as misses), over every slice
    /// or over one.
    pub fn latencies(&self, kind: Kind, slice: Option<usize>) -> Latencies {
        let mut l = Latencies::default();
        for s in
            self.samples.iter().filter(|s| s.kind == kind && slice.is_none_or(|i| s.slice == i))
        {
            if s.fate == Fate::Committed {
                l.record(s.ms);
            } else {
                l.miss();
            }
        }
        l
    }

    /// Committed transactions (of `kind`, or of any kind) per second, in
    /// each complete slice.
    pub fn slice_tps(&self, kind: Option<Kind>) -> Vec<f64> {
        let mut committed = vec![0u64; self.slice_s.len()];
        for s in &self.samples {
            if s.fate == Fate::Committed && kind.is_none_or(|k| s.kind == k) {
                if let Some(c) = committed.get_mut(s.slice) {
                    *c += 1;
                }
            }
        }
        committed.iter().zip(&self.slice_s).map(|(&c, &secs)| c as f64 / secs).collect()
    }

    /// The `p`-th percentile of `kind` in each complete slice that has
    /// samples of that kind.
    pub fn slice_percentiles(&self, kind: Kind, p: f64) -> Vec<Pct> {
        (0..self.slice_s.len())
            .map(|i| self.latencies(kind, Some(i)).percentile(p))
            .filter(|pct| pct.samples > 0)
            .collect()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Width of one slice of a traffic window.
const SLICE_NS: u64 = 1_000_000_000;

fn slice_of(origin_ns: u64) -> usize {
    (now_ns().saturating_sub(origin_ns) / SLICE_NS) as usize
}

/// One-second slices covering a window of `duration`.
fn whole_slices(duration: Duration) -> Vec<f64> {
    vec![1.0; (duration.as_nanos() as u64 / SLICE_NS).max(1) as usize]
}

fn join(total: Mutex<Tally>) -> Tally {
    total.into_inner().expect("tally poisoned by a panicking client")
}

/// A closed loop: `clients` threads, each issuing its next transaction
/// when the previous one ends, until `duration` has passed. Client `c`
/// draws its inputs from stream `c` of `seed`.
pub fn closed_loop(
    clients: u64,
    duration: Duration,
    seed: u64,
    op: &(dyn Fn(&mut Rng) -> Op + Sync),
) -> Tally {
    let origin = now_ns();
    let end = Instant::now() + duration;
    let total = Mutex::new(Tally::default());
    std::thread::scope(|s| {
        for c in 0..clients {
            let total = &total;
            s.spawn(move || {
                let mut rng = Rng::new(seed, c);
                let mut mine = Tally::default();
                while Instant::now() < end {
                    let t0 = Instant::now();
                    let r = op(&mut rng);
                    mine.add(&r, ms_since(t0), slice_of(origin));
                }
                total.lock().expect("tally poisoned by a panicking client").merge(&mine);
            });
        }
    });
    let mut t = join(total);
    t.slice_s = whole_slices(duration);
    t.span_s = (now_ns() - origin) as f64 / 1e9;
    t
}

/// `clients` threads issuing exactly `each` transactions apiece (a fixed
/// amount of work, independent of throughput), as one slice.
pub fn fixed_count(
    clients: u64,
    each: u64,
    seed: u64,
    op: &(dyn Fn(&mut Rng) -> Op + Sync),
) -> Tally {
    let start = Instant::now();
    let total = Mutex::new(Tally::default());
    std::thread::scope(|s| {
        for c in 0..clients {
            let total = &total;
            s.spawn(move || {
                let mut rng = Rng::new(seed, c);
                let mut mine = Tally::default();
                for _ in 0..each {
                    let t0 = Instant::now();
                    let r = op(&mut rng);
                    mine.add(&r, ms_since(t0), 0);
                }
                total.lock().expect("tally poisoned by a panicking client").merge(&mine);
            });
        }
    });
    let mut t = join(total);
    t.span_s = start.elapsed().as_secs_f64();
    t.slice_s = vec![t.span_s];
    t
}

/// An open loop: arrivals every `1/rate` seconds for `duration`, served
/// by `workers` threads. Arrival `i` draws its inputs from stream `i` of
/// `seed`, whichever worker serves it. Latency runs from the scheduled
/// arrival to the outcome.
pub fn open_loop(
    rate: u64,
    workers: u64,
    duration: Duration,
    seed: u64,
    op: &(dyn Fn(&mut Rng) -> Op + Sync),
) -> Tally {
    let window_ns = duration.as_nanos() as u64;
    let next = AtomicU64::new(0);
    let total = Mutex::new(Tally::default());
    let origin = now_ns();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (total, next) = (&total, &next);
            s.spawn(move || {
                let mut mine = Tally::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let due = arrival_ns(i, rate);
                    if due >= window_ns {
                        break;
                    }
                    let scheduled = origin + due;
                    let now = now_ns();
                    if scheduled > now {
                        std::thread::sleep(Duration::from_nanos(scheduled - now));
                    }
                    let started = now_ns();
                    let mut rng = Rng::new(seed, i);
                    let r = op(&mut rng);
                    // Slices follow the schedule: arrival i belongs to the
                    // second it was due in, however late it was served.
                    mine.add(
                        &r,
                        scheduled_latency_ms(scheduled, now_ns()),
                        (due / SLICE_NS) as usize,
                    );
                    mine.lags.push(lag_ms(scheduled, started));
                }
                total.lock().expect("tally poisoned by a panicking worker").merge(&mine);
            });
        }
    });
    let mut t = join(total);
    t.slice_s = whole_slices(duration);
    t.span_s = (now_ns() - origin) as f64 / 1e9;
    t
}
