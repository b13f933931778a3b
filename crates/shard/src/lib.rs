//! Sharded data servers with live shard migration.
//!
//! TABS (§3.1) binds a data server to one node and one recoverable
//! segment. This crate scales a *service* past one node by splitting
//! its key space into fixed shards, each an ordinary library-built data
//! server, and making ownership a versioned, durable, gossiped fact:
//!
//! - [`ShardMap`] — the versioned assignment of shards to nodes. The
//!   geometry (partitioning function, shard count) never changes; a new
//!   version only reassigns owners, so every version agrees where a key
//!   lives and disagreements reduce to "who owns shard *s*".
//! - [`ShardControl`] / [`ShardServer`] — every hosting node runs a
//!   server for every shard, but a per-node gate admits only requests
//!   for shards the node owns; everything else is refused *before any
//!   object is touched* with [`tabs_proto::ServerError::WrongShard`]
//!   carrying the refuser's map version.
//! - [`ShardClient`] — the router: caches the map, resolves owners
//!   through the Name Server, and chases `WrongShard` redirects (newer
//!   version ⇒ refresh and re-route; equal version ⇒ migration fence,
//!   back off and retry).
//! - [`Migrator`] — live migration by drain-and-copy: write-fence the
//!   shard at the source, drain in-flight transactions, copy the shard
//!   in one distributed transaction (source snapshot = read-only 2PC
//!   participant, destination load = value-logged writes), then flip
//!   ownership durably in [`tabs_core::Cluster::commit_shard_map`] and
//!   publish the new map via Name Server gossip. Crash-points
//!   ([`CRASH_POINTS`]) cover every boundary so the chaos harness can
//!   kill either node anywhere and check nothing is lost or doubly
//!   applied.
//! - **Replication** — a shard may declare follower replicas in the
//!   map: the router fans writes out to every member (each a 2PC
//!   participant, majority required), the Transaction Manager waives
//!   votes from dead members once a majority of their set is durable
//!   (see `tabs_core::ReplicationPolicy`), reads fail over from a dead
//!   leader to a follower, and [`Replicator`] resynchronizes a
//!   rejoined member from a survivor ([`REP_CRASH_POINTS`]).

pub mod client;
pub mod map;
pub mod migrate;
pub mod replicate;
pub mod server;

pub use client::{resolve_owner_port, ShardClient};
pub use map::{shard_name, shard_segment_name, Partitioning, ShardMap};
pub use migrate::{MigrateError, MigrateOptions, Migrator, CRASH_POINTS};
pub use replicate::{ReplicateError, Replicator, ResyncOptions, REP_CRASH_POINTS};
pub use server::{ShardControl, ShardServer, OP_ADD, OP_GET, OP_LOAD, OP_SET, OP_SNAP};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use tabs_codec::Decode;
    use tabs_core::{Cluster, Node, NodeId};
    use tabs_kernel::Tid;

    const SLOTS: u64 = 16;

    fn bank_map(owners: Vec<NodeId>) -> ShardMap {
        let replicas = vec![Vec::new(); owners.len()];
        ShardMap {
            service: "bank".into(),
            version: 1,
            partitioning: Partitioning::Hash,
            owners,
            replicas,
        }
    }

    /// Boots a node hosting every shard of `map` and publishes the map.
    fn boot_sharded(cluster: &Arc<Cluster>, id: u16, map: &ShardMap) -> (Node, Arc<ShardControl>) {
        let node = cluster.boot_node(NodeId(id));
        let (control, _servers) = ShardServer::spawn_all(&node, map, SLOTS).unwrap();
        node.recover().unwrap();
        node.ns.publish_map(&map.service, map.version, map.to_blob());
        (node, control)
    }

    #[test]
    fn single_node_get_set_add() {
        let cluster = Cluster::new();
        let map = bank_map(vec![NodeId(1), NodeId(1)]);
        let (node, _control) = boot_sharded(&cluster, 1, &map);
        let client = ShardClient::new(&node, "bank").unwrap();
        let app = node.app();
        app.run(|t| {
            client.set(t, 0, 100)?;
            client.set(t, 1, 50)?;
            client.add(t, 0, -30)?;
            client.add(t, 1, 30)?;
            Ok(())
        })
        .unwrap();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(client.get(t, 0).unwrap(), 70);
        assert_eq!(client.get(t, 1).unwrap(), 80);
        app.end_transaction(t).unwrap();
        node.shutdown();
    }

    #[test]
    fn router_reaches_remote_owners() {
        let cluster = Cluster::new();
        let map = bank_map(vec![NodeId(1), NodeId(2)]);
        let (n1, _c1) = boot_sharded(&cluster, 1, &map);
        let (n2, _c2) = boot_sharded(&cluster, 2, &map);
        let client = ShardClient::new(&n1, "bank").unwrap();
        assert_eq!(client.owner_of(0), NodeId(1));
        assert_eq!(client.owner_of(1), NodeId(2));
        let app = n1.app();
        // A cross-shard (hence cross-node) transfer in one transaction.
        app.run(|t| {
            client.set(t, 0, 100)?;
            client.set(t, 1, 100)?;
            Ok(())
        })
        .unwrap();
        app.run(|t| {
            client.add(t, 0, -25)?;
            client.add(t, 1, 25)?;
            Ok(())
        })
        .unwrap();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(client.get(t, 0).unwrap(), 75);
        assert_eq!(client.get(t, 1).unwrap(), 125);
        app.end_transaction(t).unwrap();
        n1.shutdown();
        n2.shutdown();
    }

    #[test]
    fn migration_moves_data_and_redirects_clients() {
        let cluster = Cluster::new();
        let map = bank_map(vec![NodeId(1), NodeId(1)]);
        let (n1, c1) = boot_sharded(&cluster, 1, &map);
        let (n2, c2) = boot_sharded(&cluster, 2, &map);
        let client = ShardClient::new(&n2, "bank").unwrap();
        let app = n2.app();
        for key in 0..4u64 {
            app.run(|t| client.set(t, key, 10 * key as i64 + 1)).unwrap();
        }

        let migrator = Migrator::new();
        let new_map = migrator.migrate(&n1, &c1, &n2, &c2, 1, &MigrateOptions::default()).unwrap();
        assert_eq!(new_map.version, 2);
        assert_eq!(new_map.owner(1), NodeId(2));
        assert_eq!(c1.version(), 2, "source gate adopted the new map");
        // Durable anchor recorded the flip.
        let (v, blob) = cluster.shard_map("bank").unwrap();
        assert_eq!(v, 2);
        assert_eq!(ShardMap::from_blob(&blob).unwrap(), new_map);

        // The router (stale at v1) is redirected and reads the moved
        // data from the new owner; writes land there too.
        app.run(|t| {
            assert_eq!(client.get(t, 1).unwrap(), 11);
            assert_eq!(client.get(t, 3).unwrap(), 31);
            client.add(t, 1, 1)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(client.map_version(), 2);
        assert_eq!(client.owner_of(1), NodeId(2));
        // Shard 0 stayed on node 1.
        app.run(|t| {
            assert_eq!(client.get(t, 0).unwrap(), 1);
            assert_eq!(client.get(t, 2).unwrap(), 21);
            Ok(())
        })
        .unwrap();
        n1.shutdown();
        n2.shutdown();
    }

    #[test]
    fn rebooted_source_self_fences_after_migration() {
        let cluster = Cluster::new();
        let map = bank_map(vec![NodeId(1)]);
        let (n1, c1) = boot_sharded(&cluster, 1, &map);
        let (n2, c2) = boot_sharded(&cluster, 2, &map);
        let app2 = n2.app();
        let client2 = ShardClient::new(&n2, "bank").unwrap();
        app2.run(|t| client2.set(t, 3, 42)).unwrap();
        let migrator = Migrator::new();
        migrator.migrate(&n1, &c1, &n2, &c2, 0, &MigrateOptions::default()).unwrap();

        // Crash the old owner and reboot it: its Name Server is seeded
        // from the durable map store, so its fresh control starts at v2
        // and refuses the shard rather than serving stale data.
        n1.crash();
        let n1 = cluster.boot_node(NodeId(1));
        let (version, blob) = n1.ns.map_blob("bank").expect("seeded from the cluster store");
        assert_eq!(version, 2);
        let seeded = ShardMap::from_blob(&blob).unwrap();
        assert_eq!(seeded.owner(0), NodeId(2));
        let (control, _servers) = ShardServer::spawn_all(&n1, &seeded, SLOTS).unwrap();
        n1.recover().unwrap();
        assert!(control.admit(0, 0, true).is_err(), "rebooted source refuses the moved shard");

        // And the moved value survived on the new owner.
        app2.run(|t| {
            assert_eq!(client2.get(t, 3).unwrap(), 42);
            Ok(())
        })
        .unwrap();
        n1.shutdown();
        n2.shutdown();
    }

    /// Reads one member's full shard snapshot through its server port.
    fn snapshot(node: &Node, map: &ShardMap, member: NodeId) -> Vec<i64> {
        let name = shard_name(&map.service, 0);
        let port = resolve_owner_port(&node.ns, &node.cm, &name, member, Duration::from_secs(2))
            .expect("member port resolves");
        let app = node.app();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        let out = app.call(&port, t, OP_SNAP, Vec::new()).unwrap();
        app.end_transaction(t).unwrap();
        Vec::<i64>::decode_all(&out).unwrap()
    }

    #[test]
    fn replicated_shard_survives_minority_death_and_resyncs() {
        let hb = tabs_core::HeartbeatConfig {
            interval: Duration::from_millis(10),
            suspect_after: 3,
            probe_cap: Duration::from_millis(200),
        };
        let cluster = Cluster::with_config(
            tabs_core::ClusterConfig::default()
                .heartbeat(hb)
                .replication(tabs_core::ReplicationPolicy::enabled()),
        );
        let map = ShardMap {
            service: "bank".into(),
            version: 1,
            partitioning: Partitioning::Hash,
            owners: vec![NodeId(1)],
            replicas: vec![vec![NodeId(2), NodeId(3)]],
        };
        let (n1, _c1) = boot_sharded(&cluster, 1, &map);
        let (n2, _c2) = boot_sharded(&cluster, 2, &map);
        let (n3, _c3) = boot_sharded(&cluster, 3, &map);
        let client = ShardClient::new(&n2, "bank").unwrap();
        client.set_call_deadline(Duration::from_millis(1500));
        let app = n2.app();
        app.run(|t| client.set(t, 0, 100)).unwrap();
        // The write fanned out: every member holds the value.
        for member in [NodeId(1), NodeId(2), NodeId(3)] {
            assert_eq!(snapshot(&n2, &map, member)[0], 100);
        }

        // Kill one follower; once suspicion sets in, writes keep
        // committing on the surviving majority.
        n3.crash();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !n2.cm.is_suspected(NodeId(3)) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        app.run(|t| client.add(t, 0, 5).map(|_| ())).unwrap();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(client.get(t, 0).unwrap(), 105);
        app.end_transaction(t).unwrap();

        // Revive and resync: the rejoined member converges to the same
        // state as a survivor.
        let n3 = cluster.boot_node(NodeId(3));
        let _s3 = ShardServer::spawn_all(&n3, &map, SLOTS).unwrap();
        n3.recover().unwrap();
        let rep = Replicator::new();
        rep.resync(&n2, &map, 0, NodeId(1), NodeId(3), &ResyncOptions::default()).unwrap();
        let snap1 = snapshot(&n2, &map, NodeId(1));
        let snap3 = snapshot(&n2, &map, NodeId(3));
        assert_eq!(snap1, snap3, "resynced replica diverges from the survivor");
        assert_eq!(snap1[0], 105);

        // Kill the leader: reads fail over to a surviving follower and
        // writes still reach a majority (2 of 3).
        n1.crash();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !n2.cm.is_suspected(NodeId(1)) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let t = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(client.get(t, 0).unwrap(), 105);
        app.end_transaction(t).unwrap();
        app.run(|t| client.add(t, 0, 1).map(|_| ())).unwrap();
        assert_eq!(snapshot(&n2, &map, NodeId(2))[0], 106);
        n2.shutdown();
        n3.shutdown();
    }

    #[test]
    fn fully_suspected_replica_set_fails_reads_within_the_budget() {
        // Every member of the replica set dies. The read rotation finds
        // no unsuspected target, so it must pace itself and honor the
        // per-call deadline with the retryable budget error — not spin
        // forever burning CPU.
        let hb = tabs_core::HeartbeatConfig {
            interval: Duration::from_millis(10),
            suspect_after: 3,
            probe_cap: Duration::from_millis(200),
        };
        let cluster = Cluster::with_config(
            tabs_core::ClusterConfig::default()
                .heartbeat(hb)
                .replication(tabs_core::ReplicationPolicy::enabled()),
        );
        let map = ShardMap {
            service: "bank".into(),
            version: 1,
            partitioning: Partitioning::Hash,
            owners: vec![NodeId(1)],
            replicas: vec![vec![NodeId(2), NodeId(3)]],
        };
        let (n1, _c1) = boot_sharded(&cluster, 1, &map);
        let (n2, _c2) = boot_sharded(&cluster, 2, &map);
        let (n3, _c3) = boot_sharded(&cluster, 3, &map);
        // The router lives on node 4, outside the set, so every member
        // can be suspected from its vantage point.
        let (n4, _c4) = boot_sharded(&cluster, 4, &map);
        let client = ShardClient::new(&n4, "bank").unwrap();
        n1.crash();
        n2.crash();
        n3.crash();
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while std::time::Instant::now() < deadline
            && !(n4.cm.is_suspected(NodeId(1))
                && n4.cm.is_suspected(NodeId(2))
                && n4.cm.is_suspected(NodeId(3)))
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let budget = Duration::from_millis(300);
        client.set_call_deadline(budget);
        let app = n4.app();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        let start = std::time::Instant::now();
        let err = client.get(t, 0).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "all-suspected read did not return promptly: {:?}",
            start.elapsed()
        );
        match err {
            tabs_core::AppError::Rpc(msg) => {
                assert!(msg.contains("exhausted its budget"), "unexpected error: {msg}")
            }
            other => panic!("expected a retryable Rpc error, got {other:?}"),
        }
        let _ = app.abort_transaction(t);
        n4.shutdown();
    }

    #[test]
    fn write_failure_on_a_live_member_aborts_instead_of_diverging() {
        // All three members are alive, but one follower refuses the
        // write (a permanent fence stands in for any live failure). A
        // majority still took it — yet committing would leave the
        // refusing member divergent while it keeps answering failover
        // reads, so the write must error out.
        let cluster = Cluster::new();
        let map = ShardMap {
            service: "bank".into(),
            version: 1,
            partitioning: Partitioning::Hash,
            owners: vec![NodeId(1)],
            replicas: vec![vec![NodeId(2), NodeId(3)]],
        };
        let (n1, _c1) = boot_sharded(&cluster, 1, &map);
        let (n2, _c2) = boot_sharded(&cluster, 2, &map);
        let (n3, c3) = boot_sharded(&cluster, 3, &map);
        let client = ShardClient::new(&n2, "bank").unwrap();
        let app = n2.app();
        app.run(|t| client.set(t, 0, 10)).unwrap();

        c3.fence(0);
        client.set_call_deadline(Duration::from_millis(300));
        let t = app.begin_transaction(Tid::NULL).unwrap();
        let err = client.set(t, 0, 99).unwrap_err();
        match err {
            tabs_core::AppError::Rpc(msg) => {
                assert!(msg.contains("live member"), "unexpected error: {msg}")
            }
            other => panic!("expected a live-member write failure, got {other:?}"),
        }
        let _ = app.abort_transaction(t);

        // Nothing diverged: once the fence lifts, every member still
        // agrees on the committed value.
        c3.unfence(0);
        client.set_call_deadline(Duration::from_secs(5));
        for member in [NodeId(1), NodeId(2), NodeId(3)] {
            assert_eq!(snapshot(&n2, &map, member)[0], 10);
        }
        n1.shutdown();
        n2.shutdown();
        n3.shutdown();
    }

    #[test]
    fn quorum_group_registration_is_additive_and_refreshed_on_install() {
        let cluster = Cluster::new();
        let map = ShardMap {
            service: "bank".into(),
            version: 1,
            partitioning: Partitioning::Hash,
            owners: vec![NodeId(1)],
            replicas: vec![vec![NodeId(2), NodeId(3)]],
        };
        let node = cluster.boot_node(NodeId(1));
        // A group some other service already declared (a replicated
        // directory, another sharded service) must survive spawn_all.
        node.tm.add_quorum_group(vec![NodeId(7), NodeId(8), NodeId(9)]);
        let (control, _servers) = ShardServer::spawn_all(&node, &map, SLOTS).unwrap();
        node.recover().unwrap();
        let groups = node.tm.quorum_group_list();
        assert!(groups.contains(&vec![NodeId(7), NodeId(8), NodeId(9)]), "stomped: {groups:?}");
        assert!(groups.contains(&vec![NodeId(1), NodeId(2), NodeId(3)]), "missing: {groups:?}");

        // Re-registering the same members in another order (leader
        // handoff reorders the set) must not duplicate the group.
        node.tm.add_quorum_group(vec![NodeId(3), NodeId(1), NodeId(2)]);
        assert_eq!(node.tm.quorum_group_list().len(), groups.len());

        // A newer map with reshuffled membership reaches the
        // Transaction Manager when the gate adopts it.
        let mut map2 = map.clone();
        map2.version = 2;
        map2.replicas[0] = vec![NodeId(4), NodeId(5)];
        assert!(control.install_map(map2));
        let groups = node.tm.quorum_group_list();
        assert!(
            groups.contains(&vec![NodeId(1), NodeId(4), NodeId(5)]),
            "newly installed map's replica set not registered: {groups:?}"
        );
        node.shutdown();
    }

    #[test]
    fn fenced_writes_are_refused_retryably_and_unfence_recovers() {
        let cluster = Cluster::new();
        let map = bank_map(vec![NodeId(1)]);
        let (n1, c1) = boot_sharded(&cluster, 1, &map);
        c1.fence(0);
        assert!(matches!(
            c1.admit(0, 0, true),
            Err(tabs_proto::ServerError::WrongShard { newer_map_version: 1 })
        ));
        assert!(c1.admit(0, 0, false).is_ok(), "reads flow through the fence");
        c1.unfence(0);
        assert!(c1.admit(0, 0, true).is_ok());
        // A fenced write through the full stack comes back retryable
        // and succeeds once the fence lifts (the router retries it).
        c1.fence(0);
        let client = ShardClient::new(&n1, "bank").unwrap();
        let app = n1.app();
        let c1b = Arc::clone(&c1);
        let lifter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            c1b.unfence(0);
        });
        app.run(|t| client.set(t, 0, 7)).unwrap();
        lifter.join().unwrap();
        n1.shutdown();
    }

    #[test]
    fn redirect_chase_exhausts_its_budget_with_a_retryable_error() {
        let cluster = Cluster::new();
        let map = bank_map(vec![NodeId(1)]);
        let (n1, c1) = boot_sharded(&cluster, 1, &map);
        let client = ShardClient::new(&n1, "bank").unwrap();
        let budget = Duration::from_millis(60);
        client.set_call_deadline(budget);
        // A fence that never lifts: every attempt is refused at the
        // router's own map version, so it backs off and retries until
        // the per-call budget runs out.
        c1.fence(0);
        let app = n1.app();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        let start = std::time::Instant::now();
        let err = client.set(t, 0, 1).unwrap_err();
        assert!(
            start.elapsed() >= budget,
            "router gave up after {:?}, before its {budget:?} budget",
            start.elapsed()
        );
        match err {
            tabs_core::AppError::Rpc(msg) => {
                assert!(msg.contains("exhausted its budget"), "unexpected error: {msg}")
            }
            other => panic!("expected a retryable Rpc error, got {other:?}"),
        }
        let _ = app.abort_transaction(t);
        n1.shutdown();
    }

    #[test]
    fn fence_backoff_paces_retries_instead_of_hot_spinning() {
        let cluster = Cluster::new();
        let map = bank_map(vec![NodeId(1)]);
        let (n1, c1) = boot_sharded(&cluster, 1, &map);
        let (n2, _c2) = boot_sharded(&cluster, 2, &map);
        let client = ShardClient::new(&n2, "bank").unwrap();
        let app = n2.app();
        // Warm the port cache so the measured window is all refusals.
        app.run(|t| client.set(t, 0, 1)).unwrap();
        c1.fence(0);
        let c1b = Arc::clone(&c1);
        let lifter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            c1b.unfence(0);
        });
        let before = cluster.perf_all();
        app.run(|t| client.set(t, 0, 2)).unwrap();
        lifter.join().unwrap();
        let datagrams = cluster.perf_all().since(&before).get(tabs_kernel::PrimitiveOp::Datagram);
        // ~100ms of refusals paced by the 5ms fence backoff is ~20
        // attempts; a hot spin would push thousands of datagrams
        // through the same window.
        assert!(datagrams < 1000, "fence retries are not paced: {datagrams} datagrams in ~100ms");
        n1.shutdown();
        n2.shutdown();
    }

    #[test]
    fn stale_client_converges_after_one_gossip_await() {
        let cluster = Cluster::new();
        let map = bank_map(vec![NodeId(1)]);
        let (n1, c1) = boot_sharded(&cluster, 1, &map);
        let (n2, c2) = boot_sharded(&cluster, 2, &map);
        let client = ShardClient::new(&n2, "bank").unwrap();
        client.set_call_deadline(Duration::from_secs(2));
        assert_eq!(client.map_version(), 1);

        // Ownership flips behind the router's back: both gates adopt v2
        // and the Name Server has it, but the router still holds v1.
        let map2 = map.with_owner(0, NodeId(2));
        assert!(c1.install_map(map2.clone()));
        assert!(c2.install_map(map2.clone()));
        n1.ns.publish_map("bank", map2.version, map2.to_blob());
        n2.ns.publish_map("bank", map2.version, map2.to_blob());

        // First routed call: the old owner refuses with the newer
        // version, one gossip await adopts the already-published v2,
        // and the re-route lands on the new owner — no redirect loop.
        let start = std::time::Instant::now();
        let app = n2.app();
        app.run(|t| client.set(t, 3, 42)).unwrap();
        assert_eq!(client.map_version(), 2, "router did not adopt the newer map");
        assert_eq!(client.owner_of(3), NodeId(2));
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "one await over an already-published map should converge fast, took {:?}",
            start.elapsed()
        );
        app.run(|t| {
            assert_eq!(client.get(t, 3).unwrap(), 42);
            Ok(())
        })
        .unwrap();
        n1.shutdown();
        n2.shutdown();
    }
}
