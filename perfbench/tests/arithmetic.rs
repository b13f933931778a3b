//! Span self time, percentiles with misses, and open-loop latency
//! arithmetic.

use perfbench::spans::{self, covered, self_time, Span};
use perfbench::stats::{
    arrival_ns, lag_ms, median, nearest_rank, percentile, scheduled_latency_ms, Latencies,
};
use tabs_kernel::{NodeId, Tid};

fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
    Span { id, parent, name: "x", tid: None, start, end }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let parent = span(1, None, 0, 100);
    // Overlapping children count once; a child running past its parent
    // counts only inside it.
    let kids = [span(2, Some(1), 10, 30), span(3, Some(1), 20, 40), span(4, Some(1), 90, 120)];
    let refs: Vec<&Span> = kids.iter().collect();
    assert_eq!(self_time(&parent, &refs), 100 - 30 - 10);
    assert_eq!(self_time(&parent, &[]), 100);
    assert_eq!(covered(0, 100, &[(0, 50), (50, 100)]), 100);
    assert_eq!(covered(0, 100, &[(200, 300)]), 0);
}

#[test]
fn percentiles_rank_misses_above_every_success() {
    let mut l = Latencies::default();
    for ms in [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0] {
        l.record(ms);
    }
    l.miss();
    l.miss();
    assert_eq!(l.samples(), 10);
    let p50 = l.percentile(50.0);
    assert_eq!((p50.value, p50.samples), (Some(5.0), 10));
    assert_eq!(l.percentile(80.0).value, Some(8.0));
    // The 9th of 10 ranked samples is a miss: no finite value.
    assert_eq!(l.percentile(90.0).value, None);
    assert_eq!(Latencies::default().percentile(50.0).samples, 0);
}

#[test]
fn nearest_rank_and_median() {
    assert_eq!(nearest_rank(50.0, 10), 4);
    assert_eq!(nearest_rank(90.0, 10), 8);
    assert_eq!(nearest_rank(100.0, 10), 9);
    assert_eq!(nearest_rank(1.0, 10), 0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
}

#[test]
fn open_loop_latency_runs_from_the_scheduled_arrival() {
    // 400 arrivals per second: one every 2.5 ms.
    assert_eq!(arrival_ns(0, 400), 0);
    assert_eq!(arrival_ns(3, 400), 7_500_000);
    let scheduled = arrival_ns(3, 400);
    // Served 1.5 ms late, done 2 ms after service began: the latency
    // counts the lateness too.
    let started = scheduled + 1_500_000;
    let done = started + 2_000_000;
    assert_eq!(lag_ms(scheduled, started), 1.5);
    assert_eq!(scheduled_latency_ms(scheduled, done), 3.5);
    // Served early (never happens, but must not underflow).
    assert_eq!(lag_ms(scheduled, scheduled - 1), 0.0);
}

#[test]
fn spans_nest_and_inherit_the_transaction() {
    let tid = Tid { node: NodeId(1), incarnation: 1, seq: 7 };
    spans::set_enabled(true);
    let got = spans::timed_then(
        "txn",
        None,
        || spans::timed("call", Some(tid), || spans::timed("device", None, || 5)),
        |_| Some(tid),
    );
    spans::set_enabled(false);
    spans::timed("off", None, || ());
    assert_eq!(got, 5);
    let mut recorded = spans::drain();
    recorded.sort_by_key(|s| s.id);
    let names: Vec<&str> = recorded.iter().map(|s| s.name).collect();
    assert_eq!(names, ["txn", "call", "device"]);
    let (txn, call, device) = (&recorded[0], &recorded[1], &recorded[2]);
    assert_eq!((txn.parent, call.parent, device.parent), (None, Some(txn.id), Some(call.id)));
    assert_eq!((txn.tid, call.tid, device.tid), (Some(tid), Some(tid), Some(tid)));
    assert!(txn.start <= call.start && call.end <= txn.end);
}
