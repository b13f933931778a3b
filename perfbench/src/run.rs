//! The four workloads, their correctness checks, and the metrics they
//! report.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics. A
//! traced run (`--trace 1`) installs the timing device wrappers, measures
//! half its time untraced and half with spans on, and reports the
//! per-layer metrics; the two halves give the tracing overhead.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use tabs_kernel::PrimitiveOp;

use crate::bank::{
    audit, closed_loop, fixed_count, open_loop, transfer, Fate, Kind, Mix, Op, Tally, FATES,
};
use crate::json::Json;
use crate::profile;
use crate::rng::Rng;
use crate::spans::{self, self_time, Span};
use crate::stats::{median, percentile, Pct};
use crate::world::{
    ArrayWorld, Counters, LogKind, Reboot, SetupTimes, ShardWorld, Spec, World, SHARD_NODES,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One node, closed loop, 4096 accounts, 80/20 transfers/audits.
    LocalBank,
    /// Three nodes, three replicated hash shards, router on node 1.
    ReplicatedShards,
    /// One node, open loop at a fixed rate over 8 hot accounts.
    HotOpen,
    /// Crash–recover cycles over an array larger than the buffer pool.
    Restart,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "local-bank" => Workload::LocalBank,
            "replicated-shards" => Workload::ReplicatedShards,
            "hot-open" => Workload::HotOpen,
            "restart" => Workload::Restart,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalBank => "local-bank",
            Workload::ReplicatedShards => "replicated-shards",
            Workload::HotOpen => "hot-open",
            Workload::Restart => "restart",
        }
    }

    fn spec(self, traced: bool) -> Spec {
        let (accounts, initial, log) = match self {
            Workload::LocalBank => (4096, INITIAL, LogKind::Mem),
            Workload::ReplicatedShards => (1536, INITIAL, LogKind::Mem),
            Workload::HotOpen => (8, INITIAL, LogKind::Mem),
            // Twice the buffer pool, left at the zeroed disk's balance 0.
            Workload::Restart => (RESTART_ACCOUNTS, 0, LogKind::Fault),
        };
        Spec { accounts, initial, log, traced }
    }

    fn audit_pct(self) -> u64 {
        match self {
            Workload::HotOpen => 30,
            Workload::Restart => 0,
            _ => 20,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Self-test of the restart check: perturb one shadow balance, so the
    /// check must fail.
    pub corrupt_shadow: bool,
}

/// Starting balance of seeded accounts.
const INITIAL: i64 = 1_000;
/// Restart array: twice the default pool's frames of 64 one-word cells.
pub const RESTART_ACCOUNTS: u64 = 2 * 1536 * 64;
/// Generator threads of every closed loop (the host's `nproc` is 2).
pub const CLIENTS: u64 = 2;
/// `hot-open` arrival rate (below the knee) and its workers.
pub const OPEN_RATE: u64 = 400;
/// Workers serving the open loop.
pub const OPEN_WORKERS: u64 = 2;
/// Transfers per client in one `restart` crash cycle.
pub const RESTART_EACH: u64 = 100;
/// Crash cycles each traffic workload ends with, and their transfers per
/// client.
pub const TAIL_CYCLES: usize = 15;
/// Transfers per client in one tail cycle.
pub const TAIL_EACH: u64 = 25;
/// Unmeasured traffic before the window, so worker pools and caches are
/// warm when timing starts.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Slice index of attempts that count but enter no per-slice figure.
const NO_SLICE: usize = usize::MAX;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Failed correctness checks (none when the run is correct).
    pub problems: Vec<String>,
    /// Attempts counted by the measured window.
    pub attempted: u64,
    /// Failed attempts of the measured window.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The run record.
    pub record: Json,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

/// One crash cycle's measurements.
#[derive(Debug, Clone)]
struct Cycle {
    reboot: Reboot,
    /// Reboot start to the first transaction committed afterwards.
    recovery_ms: f64,
}

/// Expected balances: starting balance plus every acknowledged transfer.
#[derive(Debug, Default)]
struct Shadow {
    delta: BTreeMap<u64, i64>,
}

impl Shadow {
    fn apply(&mut self, moved: &[(u64, u64, i64)]) {
        for &(from, to, amount) in moved {
            *self.delta.entry(from).or_default() -= amount;
            *self.delta.entry(to).or_default() += amount;
        }
    }

    /// Expected balance of `key` on `restart`, whose accounts start at 0.
    fn expected(&self, key: u64) -> i64 {
        self.delta.get(&key).copied().unwrap_or(0)
    }
}

fn build(workload: Workload, spec: Spec) -> Result<(Box<dyn World>, SetupTimes), String> {
    Ok(match workload {
        Workload::ReplicatedShards => {
            let (w, t) = ShardWorld::setup(spec)?;
            (Box::new(w), t)
        }
        _ => {
            let (w, t) = ArrayWorld::setup(spec)?;
            (Box::new(w), t)
        }
    })
}

/// Commits one transfer on a freshly rebooted world, retrying while
/// recovery settles (in-doubt locks, peers still booting).
///
/// The first transaction is always the same transfer, from account 0 to
/// account 1 (on `replicated-shards` they live in different shards), so
/// every cycle pays the same first-contact costs. Its attempts count, but
/// enter no slice.
fn first_commit(world: &dyn World, tally: &mut Tally) -> Result<Op, String> {
    for _ in 0..500 {
        let t0 = Instant::now();
        let op = transfer(world.app(), world.store(), 0, 1, 1);
        tally.add(&op, t0.elapsed().as_secs_f64() * 1e3, NO_SLICE);
        if op.fate == Fate::Committed {
            return Ok(op);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err("no transaction committed within 500 attempts after the reboot".into())
}

/// Reads `keys` in read-only audits of two and compares each value with
/// the shadow. Audit latencies go into `slice` of `tally`. Returns the
/// mismatches and the sum of the values read.
fn check_shadow(
    world: &dyn World,
    shadow: &Shadow,
    keys: &[u64],
    tally: &mut Tally,
    slice: usize,
) -> Result<(Vec<String>, i64), String> {
    let mut problems = Vec::new();
    let mut sum = 0;
    for pair in keys.chunks(2) {
        let (a, b) = (pair[0], *pair.last().expect("chunks are non-empty"));
        let mut tries = 0;
        let (va, vb) = loop {
            let t0 = Instant::now();
            let (op, values) = audit(world.app(), world.store(), a, b);
            tally.add(&op, t0.elapsed().as_secs_f64() * 1e3, slice);
            if let Some(v) = values {
                break v;
            }
            tries += 1;
            if tries == 50 {
                return Err(format!("audit of accounts {a},{b} failed 50 times after recovery"));
            }
        };
        sum += if a == b { va } else { va + vb };
        for (k, v) in [(a, va), (b, vb)] {
            let want = shadow.expected(k);
            if v != want {
                problems.push(format!("account {k} reads {v} after recovery, shadow says {want}"));
            }
        }
    }
    Ok((problems, sum))
}

/// One crash cycle, measured as the next slice of `tally`: checkpoint,
/// `each` transfers from every client, power cut, reboot, first commit;
/// then (with a shadow) every account the cycle touched is read back and
/// compared.
fn cycle(
    world: &mut Box<dyn World>,
    each: u64,
    seed: u64,
    shadow: Option<&mut Shadow>,
    corrupt: bool,
    tally: &mut Tally,
) -> Result<(Cycle, Vec<String>), String> {
    world.checkpoint()?;
    let n = world.accounts();
    let work = {
        let (app, store) = (world.app(), world.store());
        fixed_count(CLIENTS, each, seed, &|rng: &mut Rng| {
            let (a, b) = rng.pair(n);
            transfer(app, store, a, b, 1 + rng.below(9) as i64)
        })
    };
    let slice = tally.slice_s.len();
    tally.absorb(&work, slice);
    tally.slice_s.extend_from_slice(&work.slice_s);
    let reboot = world.crash_reboot()?;
    let t0 = Instant::now();
    let first = first_commit(world.as_ref(), tally)?;
    let recovery_ms = reboot.reboot_ms + t0.elapsed().as_secs_f64() * 1e3;
    let mut problems = Vec::new();
    if let Some(shadow) = shadow {
        shadow.apply(&work.moved);
        shadow.apply(first.moved.as_slice());
        if let Some(&(from, ..)) = work.moved.first().filter(|_| corrupt) {
            *shadow.delta.entry(from).or_default() += 1;
        }
        let touched: BTreeSet<u64> = work.moved.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        let keys: Vec<u64> = touched.into_iter().collect();
        problems = check_shadow(world.as_ref(), shadow, &keys, tally, slice)?.0;
    }
    Ok((Cycle { reboot, recovery_ms }, problems))
}

/// The measured window: traffic for `dur`, or for `restart` crash
/// cycles until `dur` has passed (at least three).
fn window(
    workload: Workload,
    world: &mut Box<dyn World>,
    dur: Duration,
    seed: u64,
    shadow: &mut Shadow,
    corrupt: bool,
) -> Result<(Tally, Vec<Cycle>, Vec<String>), String> {
    let mix = Mix { accounts: world.accounts(), audit_pct: workload.audit_pct() };
    let (app, store) = (world.app(), world.store());
    let op = |rng: &mut Rng| mix.run(app, store, rng);
    Ok(match workload {
        Workload::LocalBank | Workload::ReplicatedShards => {
            (closed_loop(CLIENTS, dur, seed, &op), Vec::new(), Vec::new())
        }
        Workload::HotOpen => {
            (open_loop(OPEN_RATE, OPEN_WORKERS, dur, seed, &op), Vec::new(), Vec::new())
        }
        Workload::Restart => {
            let start = Instant::now();
            let mut tally = Tally::default();
            let mut cycles = Vec::new();
            let mut problems = Vec::new();
            let mut i = 0u64;
            while cycles.len() < 3 || start.elapsed() < dur {
                let s = seed.wrapping_add(i.wrapping_mul(0x1000_0001));
                let (c, p) =
                    cycle(world, RESTART_EACH, s, Some(shadow), corrupt && i == 0, &mut tally)?;
                cycles.push(c);
                problems.extend(p);
                i += 1;
            }
            (tally, cycles, problems)
        }
    })
}

/// The crash cycles a traffic workload ends with (not part of its
/// window's tallies).
fn tail_cycles(world: &mut Box<dyn World>, seed: u64) -> Result<Vec<Cycle>, String> {
    // Drop the window's log first, so the first cycle recovers one
    // cycle's records like every other.
    world.checkpoint()?;
    let mut scratch = Tally::default();
    (0..TAIL_CYCLES)
        .map(|i| {
            let s = seed ^ (0xC0FF_EE00 + i as u64);
            cycle(world, TAIL_EACH, s, None, false, &mut scratch).map(|(c, _)| c)
        })
        .collect()
}

/// After-run checks shared by every workload: conservation, and replica
/// equality where replicas exist. `restart` re-reads every account it
/// ever touched against the shadow, plus a sample of untouched ones; its
/// conservation is that the touched accounts still sum to 0.
fn final_checks(
    workload: Workload,
    world: &dyn World,
    shadow: &Shadow,
    seed: u64,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    if workload == Workload::Restart {
        let mut keys: Vec<u64> = shadow.delta.keys().copied().collect();
        let mut rng = Rng::new(seed, 0x5A5A);
        let touched: BTreeSet<u64> = keys.iter().copied().collect();
        let untouched: BTreeSet<u64> = (0..512)
            .map(|_| rng.below(RESTART_ACCOUNTS))
            .filter(|k| !touched.contains(k))
            .collect();
        keys.extend(untouched);
        let (mismatches, total) =
            check_shadow(world, shadow, &keys, &mut Tally::default(), NO_SLICE)?;
        problems.extend(mismatches);
        if total != 0 {
            problems.push(format!("conservation: accounts sum to {total}, expected 0"));
        }
    } else {
        let balances = world.balances()?;
        let total: i64 = balances.iter().sum();
        let want = INITIAL * world.accounts() as i64;
        if total != want {
            problems.push(format!("conservation: balances sum to {total}, expected {want}"));
        }
    }
    if let Err(e) = world.check_replicas() {
        problems.push(e);
    }
    Ok(problems)
}

fn pct_json(p: Pct) -> Json {
    Json::obj([
        ("value_ms", p.value.map_or(Json::Null, Json::Num)),
        ("samples", Json::Int(p.samples as i64)),
    ])
}

/// A latency percentile in ms; a rank among the misses reads as the
/// deadline every miss exceeds.
fn pct_ms(p: Pct) -> f64 {
    p.value.unwrap_or_else(profile::deadline_ms)
}

/// Each complete slice's `p`-th percentile of `kind`, in ms.
fn slice_values(t: &Tally, kind: Kind, p: f64) -> Vec<f64> {
    t.slice_percentiles(kind, p).into_iter().map(pct_ms).collect()
}

/// The median over complete slices of each slice's `p`-th percentile of
/// `kind`.
fn slice_median(t: &Tally, kind: Kind, p: f64) -> f64 {
    med(slice_values(t, kind, p))
}

fn nums(values: Vec<f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

/// What `commit_tps` counts: committed transfers on `restart` (its
/// post-recovery audits are checks), every committed transaction
/// elsewhere.
fn tps_kind(workload: Workload) -> Option<Kind> {
    (workload == Workload::Restart).then_some(Kind::Update)
}

fn cycle_json(c: &Cycle) -> Json {
    let r = &c.reboot;
    Json::obj([
        ("recovery_ms", Json::Num(c.recovery_ms)),
        ("reboot_ms", Json::Num(r.reboot_ms)),
        ("recover_ms", Json::Num(r.recover_ms)),
        ("records_scanned", Json::Int(r.records_scanned as i64)),
        ("values_applied", Json::Int(r.values_applied as i64)),
        ("ops_redone", Json::Int(r.ops_redone as i64)),
    ])
}

/// The traced half's counter deltas, as read from the public surfaces.
fn counters_json(c: &Counters) -> Json {
    let l = c.local;
    Json::obj([
        (
            "perf_all",
            Json::obj(c.perf.iter().map(|(op, n)| (format!("{op:?}"), Json::Int(n as i64)))),
        ),
        ("metrics", Json::obj(c.named.iter().map(|(k, &v)| (k.clone(), Json::Int(v as i64))))),
        (
            "local",
            Json::obj([
                ("pool_faults", Json::Int(l.faults as i64)),
                ("pool_hits", Json::Int(l.hits as i64)),
                ("pool_writebacks", Json::Int(l.writebacks as i64)),
                ("lock_waits", Json::Int(l.waits.waits as i64)),
                ("lock_wakeups", Json::Int(l.waits.wakeups as i64)),
                ("lock_spurious", Json::Int(l.waits.spurious as i64)),
                ("detector_victims", Json::Int(l.victims as i64)),
            ]),
        ),
        ("log_device_forces", Json::Int(c.log_forces as i64)),
        ("log_device_append_bytes", Json::Int(c.log_bytes as i64)),
    ])
}

fn fates_json(t: &Tally) -> Json {
    Json::obj(FATES.iter().zip(t.fates()).map(|((_, name), n)| (*name, Json::Int(n as i64))))
}

/// Runs one workload end to end.
pub fn run(args: Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let spec = workload.spec(args.trace);
    let mut setups = Vec::new();
    let mut world = None;
    for i in 0..SETUPS {
        let (w, t) = build(workload, spec)?;
        setups.push(t);
        if i + 1 == SETUPS {
            world = Some(w);
        } else {
            w.shut_down();
        }
    }
    let mut world = world.expect("at least one set-up");
    let setup_s = med(setups.iter().map(|t| t.total_s));
    let mut shadow = Shadow::default();
    let secs = Duration::from_secs(args.seconds.max(1));
    window(workload, &mut world, WARMUP, args.seed ^ 0x3A53, &mut shadow, false)?;

    let (main, untraced_tps, counters, spans_window, cycles, mut problems) = if args.trace {
        let half = secs / 2;
        let (plain, _, p0) =
            window(workload, &mut world, half, args.seed, &mut shadow, args.corrupt_shadow)?;
        let before = world.counters();
        spans::drain();
        spans::set_enabled(true);
        let traced = window(workload, &mut world, half, args.seed ^ 0x7ACE, &mut shadow, false);
        spans::set_enabled(false);
        let (t, c, p1) = traced?;
        let delta = world.counters().since(&before);
        let mut problems = p0;
        problems.extend(p1);
        (t, throughput(workload, &plain), Some(delta), spans::drain(), c, problems)
    } else {
        let (t, c, p) =
            window(workload, &mut world, secs, args.seed, &mut shadow, args.corrupt_shadow)?;
        (t, 0.0, None, Vec::new(), c, p)
    };

    // Recovery: the window's own cycles on `restart`, a tail of crash
    // cycles elsewhere.
    let (cycles, tail_spans) = if workload == Workload::Restart {
        (cycles, Vec::new())
    } else {
        spans::set_enabled(args.trace);
        let tail = tail_cycles(&mut world, args.seed ^ 0x7A11);
        spans::set_enabled(false);
        (tail?, spans::drain())
    };
    problems.extend(final_checks(workload, world.as_ref(), &shadow, args.seed)?);
    let tps = throughput(workload, &main);
    world.shut_down();

    let recovery: Vec<f64> = cycles.iter().map(|c| c.recovery_ms).collect();
    let recovery_ms = med(recovery.iter().copied());
    let update_p50 = slice_median(&main, Kind::Update, 50.0);
    let update_p90 = slice_median(&main, Kind::Update, 90.0);
    let readonly_p50 = slice_median(&main, Kind::ReadOnly, 50.0);

    let metrics = match &counters {
        None => vec![
            ("commit_tps", tps, "txn/s"),
            ("update_p50_ms", update_p50, "ms"),
            ("update_p90_ms", update_p90, "ms"),
            ("readonly_p50_ms", readonly_p50, "ms"),
            ("recovery_ms", recovery_ms, "ms"),
            ("setup_s", setup_s, "s"),
        ],
        Some(delta) => {
            let all_spans: Vec<&Span> = spans_window.iter().chain(&tail_spans).collect();
            layers(&LayerInput {
                tally: &main,
                delta,
                spans: &spans_window,
                recovery_spans: &all_spans,
                cycles: &cycles,
                setups: &setups,
                untraced_tps,
                traced_tps: tps,
            })
        }
    };

    let host = Json::obj([
        ("nproc", Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ]);
    let load = match workload {
        Workload::HotOpen => Json::obj([
            ("loop", Json::str("open")),
            ("rate_per_s", Json::Int(OPEN_RATE as i64)),
            ("workers", Json::Int(OPEN_WORKERS as i64)),
        ]),
        Workload::Restart => Json::obj([
            ("loop", Json::str("fixed count per crash cycle")),
            ("clients", Json::Int(CLIENTS as i64)),
            ("transfers_per_cycle", Json::Int((CLIENTS * RESTART_EACH) as i64)),
        ]),
        _ => Json::obj([("loop", Json::str("closed")), ("clients", Json::Int(CLIENTS as i64))]),
    };
    let pages = match workload {
        Workload::ReplicatedShards => ArrayWorld::pages(spec.accounts / u64::from(SHARD_NODES)),
        _ => ArrayWorld::pages(spec.accounts),
    };
    let record = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("trace", Json::Bool(args.trace)),
        ("host", host),
        ("profile", Json::obj(profile::facts().into_iter().map(|(k, v)| (k, Json::Str(v))))),
        ("log_device", Json::str(spec.log.label())),
        ("load", load),
        ("accounts", Json::Int(spec.accounts as i64)),
        ("pages_per_array", Json::Int(i64::from(pages))),
        ("pool_frames", Json::Int(profile::config().pool_pages as i64)),
        ("setup_s", Json::Arr(setups.iter().map(|t| Json::Num(t.total_s)).collect())),
        ("setup_s_median", Json::Num(setup_s)),
        ("attempts", fates_json(&main)),
        ("slices", Json::Int(main.slice_s.len() as i64)),
        ("update_p50_ms_pooled", pct_json(main.latencies(Kind::Update, None).percentile(50.0))),
        ("update_p90_ms_pooled", pct_json(main.latencies(Kind::Update, None).percentile(90.0))),
        ("readonly_p50_ms_pooled", pct_json(main.latencies(Kind::ReadOnly, None).percentile(50.0))),
        ("slice_tps", nums(main.slice_tps(tps_kind(workload)))),
        ("slice_update_p90_ms", nums(slice_values(&main, Kind::Update, 90.0))),
        ("slice_readonly_p50_ms", nums(slice_values(&main, Kind::ReadOnly, 50.0))),
        ("update_p50_ms", Json::Num(update_p50)),
        ("update_p90_ms", Json::Num(update_p90)),
        ("readonly_p50_ms", Json::Num(readonly_p50)),
        ("commit_tps", Json::Num(tps)),
        ("failed_ratio", Json::Num(main.failed() as f64 / main.attempted().max(1) as f64)),
        ("recovery_ms", nums(recovery)),
        ("crash_cycles", Json::Arr(cycles.iter().map(cycle_json).collect())),
        (
            "trace_overhead_pct",
            if args.trace { Json::Num(overhead_pct(untraced_tps, tps)) } else { Json::Null },
        ),
        ("counter_deltas", counters.as_ref().map_or(Json::Null, counters_json)),
        ("problems", Json::Arr(problems.iter().map(|p| Json::str(p.clone())).collect())),
    ]);
    let mut spans_out = spans_window;
    spans_out.extend(tail_spans);
    Ok(Outcome {
        problems,
        attempted: main.attempted(),
        failed: main.failed(),
        metrics,
        record,
        spans: spans_out,
    })
}

/// Committed transactions per second. Closed loops and crash cycles: the
/// median over complete slices. Open loop: goodput over the whole
/// schedule, from its start to the last outcome (per-slice counts of a
/// fixed-rate schedule are whole arrivals, not a measurement).
fn throughput(workload: Workload, t: &Tally) -> f64 {
    match workload {
        Workload::HotOpen => t.committed() as f64 / t.span_s.max(f64::MIN_POSITIVE),
        _ => med(t.slice_tps(tps_kind(workload))),
    }
}

fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (untraced - traced) / untraced * 100.0
    } else {
        0.0
    }
}

struct LayerInput<'a> {
    tally: &'a Tally,
    delta: &'a Counters,
    spans: &'a [Span],
    recovery_spans: &'a [&'a Span],
    cycles: &'a [Cycle],
    setups: &'a [SetupTimes],
    untraced_tps: f64,
    traced_tps: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Durations (µs) of the spans named `name`.
fn durations_us<'a>(spans: impl IntoIterator<Item = &'a Span>, name: &str) -> Vec<f64> {
    spans.into_iter().filter(|s| s.name == name).map(|s| s.dur() as f64 / 1e3).collect()
}

fn p(values: &[f64], q: f64) -> f64 {
    percentile(values, q).unwrap_or(0.0)
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Every per-layer metric, from the traced window.
fn layers(i: &LayerInput<'_>) -> Vec<(&'static str, f64, &'static str)> {
    let t = i.tally;
    let d = i.delta;
    let attempts = t.attempted();
    let commits = t.committed();
    let updates = t.committed_updates();
    let per_txn = |op: PrimitiveOp| ratio(d.perf.get(op), attempts);
    let per_1k = |n: u64| ratio(n, attempts) * 1e3;

    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in i.spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    let no_kids = Vec::new();
    let kids = |s: &Span| children.get(&s.id).unwrap_or(&no_kids);
    let commit_self: Vec<f64> = i
        .spans
        .iter()
        .filter(|s| s.name == "commit.update")
        .map(|s| {
            let device: Vec<&Span> =
                kids(s).iter().copied().filter(|c| c.name.starts_with("wal.")).collect();
            self_time(s, &device) as f64 / 1e3
        })
        .collect();
    let (mut txn_ns, mut unattributed_ns) = (0u64, 0u64);
    for s in i.spans.iter().filter(|s| s.name == "txn.update") {
        txn_ns += s.dur();
        unattributed_ns += self_time(s, kids(s));
    }

    let begin = durations_us(i.spans, "begin");
    let commit_update = durations_us(i.spans, "commit.update");
    let commit_readonly = durations_us(i.spans, "commit.readonly");
    let abort = durations_us(i.spans, "abort");
    let servers_call = durations_us(i.spans, "servers.call");
    let shard_call = durations_us(i.spans, "shard.call");
    let force = durations_us(i.spans, "wal.force");
    let disk_read_us = durations_us(i.spans, "vm.disk_read").iter().fold(0.0, |a, b| a + b);
    let scan_ms: Vec<f64> = durations_us(i.recovery_spans.iter().copied(), "wal.scan")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let local = d.local;
    let zero_copy = d.named("cm.session.rx.zero_copy");
    let fallback = d.named("cm.session.rx.fallback");

    vec![
        ("applib.begin_us_p50", p(&begin, 50.0), "us"),
        ("applib.commit_update_us_p50", p(&commit_update, 50.0), "us"),
        ("applib.commit_update_us_p90", p(&commit_update, 90.0), "us"),
        ("applib.commit_readonly_us_p50", p(&commit_readonly, 50.0), "us"),
        ("applib.commit_self_us_p50", p(&commit_self, 50.0), "us"),
        ("applib.abort_us_p50", p(&abort, 50.0), "us"),
        ("applib.retry_exhausted", d.named("retry.budget_exhausted") as f64, "count"),
        ("servers.call_us_p50", p(&servers_call, 50.0), "us"),
        ("servers.call_us_p90", p(&servers_call, 90.0), "us"),
        ("kernel.dsc_per_txn", per_txn(PrimitiveOp::DataServerCall), "count/txn"),
        ("kernel.small_msgs_per_txn", per_txn(PrimitiveOp::SmallContiguousMessage), "count/txn"),
        ("kernel.large_msgs_per_txn", per_txn(PrimitiveOp::LargeContiguousMessage), "count/txn"),
        ("kernel.pointer_msgs_per_txn", per_txn(PrimitiveOp::PointerMessage), "count/txn"),
        ("vm.pool_hit_ratio", ratio(local.hits, local.hits + local.faults), "ratio"),
        ("vm.faults_per_txn", ratio(local.faults, attempts), "count/txn"),
        ("vm.writebacks", local.writebacks as f64, "count"),
        ("vm.disk_read_us_total", disk_read_us, "us"),
        ("wal.forces_per_commit", ratio(d.log_forces, updates), "count/commit"),
        ("wal.device_force_us_p50", p(&force, 50.0), "us"),
        ("wal.append_bytes_per_commit", ratio(d.log_bytes, updates), "bytes/commit"),
        (
            "wal.group_batch_size",
            ratio(d.named("wal.group.batched_commits"), d.named("wal.group.batches")),
            "commits/batch",
        ),
        ("wal.scan_ms", med(scan_ms), "ms"),
        ("rm.recover_ms", med(i.cycles.iter().map(|c| c.reboot.recover_ms)), "ms"),
        (
            "rm.records_scanned",
            med(i.cycles.iter().map(|c| c.reboot.records_scanned as f64)),
            "count",
        ),
        (
            "rm.values_applied",
            med(i.cycles.iter().map(|c| c.reboot.values_applied as f64)),
            "count",
        ),
        ("rm.ops_redone", med(i.cycles.iter().map(|c| c.reboot.ops_redone as f64)), "count"),
        ("tm.one_pc_share", ratio(d.named("tm.commit.1pc"), updates), "ratio"),
        ("tm.readonly_votes_per_txn", ratio(d.named("tm.prepare.readonly"), attempts), "count/txn"),
        (
            "tm.datagrams_per_commit",
            ratio(d.perf.get(PrimitiveOp::Datagram), commits),
            "count/commit",
        ),
        ("tm.quorum_commits", d.named("tm.rep.quorum_commits") as f64, "count"),
        ("tm.acks_abandoned", d.named("tm.rep.acks_abandoned") as f64, "count"),
        ("shard.call_us_p50", p(&shard_call, 50.0), "us"),
        ("shard.call_us_p90", p(&shard_call, 90.0), "us"),
        ("net.remote_calls_per_txn", per_txn(PrimitiveOp::InterNodeDataServerCall), "count/txn"),
        ("net.datagrams_per_txn", per_txn(PrimitiveOp::Datagram), "count/txn"),
        ("net.dropped", d.named("net.datagram.dropped") as f64, "count"),
        ("cm.rx_zero_copy_share", ratio(zero_copy, zero_copy + fallback), "ratio"),
        ("lock.waits_per_txn", ratio(local.waits.waits, attempts), "count/txn"),
        ("lock.spurious_per_wakeup", ratio(local.waits.spurious, local.waits.wakeups), "ratio"),
        ("detect.victims_per_1k", per_1k(local.victims), "count/1k"),
        ("serverlib.shed_per_1k", per_1k(d.named("admission.shed")), "count/1k"),
        ("proto.deadline_expired_per_1k", per_1k(d.named("deadline.expired")), "count/1k"),
        ("core.boot_ms", med(i.setups.iter().map(|s| s.boot_ms)), "ms"),
        ("core.seed_ms", med(i.setups.iter().map(|s| s.seed_ms)), "ms"),
        ("core.reboot_ms", med(i.cycles.iter().map(|c| c.reboot.reboot_ms)), "ms"),
        ("driver.lag_p90_ms", p(&t.lags, 90.0), "ms"),
        ("driver.unattributed_pct", ratio(unattributed_ns, txn_ns) * 100.0, "%"),
        ("driver.trace_overhead_pct", overhead_pct(i.untraced_tps, i.traced_tps), "%"),
        ("driver.failed_ratio", ratio(t.failed(), attempts), "ratio"),
    ]
}
