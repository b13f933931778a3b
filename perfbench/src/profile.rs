//! The one cluster profile every workload runs on: every feature on,
//! library defaults everywhere else.

use tabs_core::{
    ClusterConfig, CommitPathPolicy, DeadlinePolicy, GroupCommitConfig, HeartbeatConfig,
    ReplicationPolicy,
};

/// Admission limit per data server: well above the generator's
/// concurrency (at most 2 threads), so it only sheds under a real backlog.
pub const ADMISSION_LIMIT: usize = 64;

/// The all-features cluster configuration.
pub fn config() -> ClusterConfig {
    ClusterConfig::default()
        .deadlock_detection(true)
        .group_commit(GroupCommitConfig::default())
        .heartbeat(HeartbeatConfig::default())
        .commit_paths(CommitPathPolicy::Fast)
        .replication(ReplicationPolicy::enabled())
        .deadlines(DeadlinePolicy::default())
        .admission_limit(ADMISSION_LIMIT)
}

/// The profile as `(key, value)` facts for the run record.
pub fn facts() -> Vec<(&'static str, String)> {
    let c = config();
    let gc = c.group_commit.expect("profile enables group commit");
    let hb = c.heartbeat.expect("profile enables heartbeats");
    let dl = c.deadlines.expect("profile enables deadlines");
    vec![
        ("deadlock_detection", c.detect.to_string()),
        ("group_commit_window_ms", format!("{}", gc.max_delay.as_secs_f64() * 1e3)),
        ("group_commit_max_batch", gc.max_batch.to_string()),
        ("heartbeat_interval_ms", format!("{}", hb.interval.as_secs_f64() * 1e3)),
        ("commit_paths", format!("{:?}", c.commit_paths)),
        ("replication", format!("{:?}", c.replication.expect("profile enables replication"))),
        ("deadline_budget_ms", format!("{}", dl.default_budget.as_secs_f64() * 1e3)),
        ("admission_limit", ADMISSION_LIMIT.to_string()),
        ("lock_stripes", c.lock_stripes.to_string()),
        ("lock_timeout_ms", format!("{}", c.lock_timeout.as_secs_f64() * 1e3)),
        ("pool_frames", c.pool_pages.to_string()),
        (
            "flush_policy",
            "commit and prepare records forced through the group-commit window; \
             checkpoints forced alone; data pages written back on eviction or reclamation"
                .to_string(),
        ),
    ]
}

/// The end-to-end latency limit a failed attempt is counted as missing.
pub fn deadline_ms() -> f64 {
    config().deadlines.expect("profile enables deadlines").default_budget.as_secs_f64() * 1e3
}
