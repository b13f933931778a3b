//! The clusters the workloads run on, built from the public API only.
//!
//! Every world uses [`profile::config`]: one cluster profile with every
//! feature on. A world owns its booted nodes, data servers and client
//! stub, and can power-cut every node and bring them back (reboot,
//! respawn, recover) the way an operator would after a crash.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tabs_app_lib::{AppError, AppHandle};
use tabs_codec::Decode;
use tabs_core::{Cluster, Node, NodeId, Tid};
use tabs_kernel::storage::{Disk, MemDisk};
use tabs_kernel::{PerfSnapshot, PAGE_SIZE};
use tabs_lock::WaitStats;
use tabs_servers::harness::client_for;
use tabs_servers::{IntArrayClient, IntArrayServer};
use tabs_shard::{
    resolve_owner_port, shard_segment_name, Partitioning, ShardClient, ShardMap, ShardServer,
    OP_SNAP,
};
use tabs_wal::{FaultLogDevice, LogDevice, LogFaults, MemLogDevice};

use crate::devices::{TimingDisk, TimingLogDevice};
use crate::profile;
use crate::spans::timed;

/// The typed stub a workload drives: an integer-array client on one node
/// or the shard router in front of the replicated shards.
pub trait Store: Send + Sync {
    /// Reads one account.
    fn get(&self, tid: Tid, key: u64) -> Result<i64, AppError>;
    /// Adds `delta` to one account under an exclusive lock.
    fn add(&self, tid: Tid, key: u64, delta: i64) -> Result<i64, AppError>;
    /// The span name of one stub call.
    fn span(&self) -> &'static str;
}

impl Store for IntArrayClient {
    fn get(&self, tid: Tid, key: u64) -> Result<i64, AppError> {
        IntArrayClient::get(self, tid, key)
    }
    fn add(&self, tid: Tid, key: u64, delta: i64) -> Result<i64, AppError> {
        IntArrayClient::add(self, tid, key, delta)
    }
    fn span(&self) -> &'static str {
        "servers.call"
    }
}

impl Store for ShardClient {
    fn get(&self, tid: Tid, key: u64) -> Result<i64, AppError> {
        ShardClient::get(self, tid, key)
    }
    fn add(&self, tid: Tid, key: u64, delta: i64) -> Result<i64, AppError> {
        ShardClient::add(self, tid, key, delta)
    }
    fn span(&self) -> &'static str {
        "shard.call"
    }
}

/// Which log device sits under each node's write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// The cluster's default in-memory device (force is nearly free).
    Mem,
    /// The WAL's fault-injecting device with no fault armed: appended
    /// bytes survive a crash only once forced.
    Fault,
}

impl LogKind {
    /// Name for the run record.
    pub fn label(self) -> &'static str {
        match self {
            LogKind::Mem => "MemLogDevice (in-memory; force copies nothing)",
            LogKind::Fault => {
                "FaultLogDevice (in-memory, no faults armed; only forced bytes survive a crash)"
            }
        }
    }
}

/// Per-node counters that restart with the node (buffer pool, lock
/// tables, deadlock detector). A world keeps the totals of retired
/// incarnations so deltas stay monotonic across crashes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Local {
    /// Buffer-pool page faults (disk reads).
    pub faults: u64,
    /// Buffer-pool hits.
    pub hits: u64,
    /// Dirty-page write-backs.
    pub writebacks: u64,
    /// Lock-table wait statistics, summed over every data server.
    pub waits: WaitStats,
    /// Deadlock victims chosen by the node's detector.
    pub victims: u64,
}

impl Local {
    fn plus(self, o: Local) -> Local {
        Local {
            faults: self.faults + o.faults,
            hits: self.hits + o.hits,
            writebacks: self.writebacks + o.writebacks,
            waits: WaitStats {
                waits: self.waits.waits + o.waits.waits,
                wakeups: self.waits.wakeups + o.waits.wakeups,
                spurious: self.waits.spurious + o.waits.spurious,
            },
            victims: self.victims + o.victims,
        }
    }

    /// Counter-wise `self - earlier`.
    pub fn since(self, e: Local) -> Local {
        Local {
            faults: self.faults - e.faults,
            hits: self.hits - e.hits,
            writebacks: self.writebacks - e.writebacks,
            waits: self.waits - e.waits,
            victims: self.victims - e.victims,
        }
    }
}

/// Everything a world's counters show at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Table 5-1 primitive counts over every node.
    pub perf: PerfSnapshot,
    /// Named metric counters summed over every node.
    pub named: BTreeMap<String, u64>,
    /// Restarting per-node counters.
    pub local: Local,
    /// Log-device forces (timing wrapper; 0 when not installed).
    pub log_forces: u64,
    /// Log-device payload bytes appended (timing wrapper).
    pub log_bytes: u64,
}

impl Counters {
    /// Counter-wise `self - earlier`.
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            perf: self.perf.since(&e.perf),
            named: self
                .named
                .iter()
                .map(|(k, v)| (k.clone(), v - e.named.get(k).copied().unwrap_or(0)))
                .collect(),
            local: self.local.since(e.local),
            log_forces: self.log_forces - e.log_forces,
            log_bytes: self.log_bytes - e.log_bytes,
        }
    }

    /// One named counter (0 when never registered).
    pub fn named(&self, name: &str) -> u64 {
        self.named.get(name).copied().unwrap_or(0)
    }
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Cluster creation, boot, server spawn and recover, in ms.
    pub boot_ms: f64,
    /// Seeding the accounts, in ms.
    pub seed_ms: f64,
    /// The whole set-up, in seconds.
    pub total_s: f64,
}

/// One power cut of every node and the way back.
#[derive(Debug, Clone, Default)]
pub struct Reboot {
    /// Boot, respawn and recover of every node, in ms.
    pub reboot_ms: f64,
    /// Time inside `Node::recover` summed over nodes, in ms.
    pub recover_ms: f64,
    /// Durable log records scanned, summed over nodes.
    pub records_scanned: u64,
    /// Value records applied, summed over nodes.
    pub values_applied: u64,
    /// Operation records redone, summed over nodes.
    pub ops_redone: u64,
}

/// A cluster the benchmark drives.
pub trait World {
    /// The application handle transactions begin on.
    fn app(&self) -> &AppHandle;
    /// The stub the workload calls.
    fn store(&self) -> &dyn Store;
    /// Number of accounts.
    fn accounts(&self) -> u64;
    /// The cluster.
    fn cluster(&self) -> &Arc<Cluster>;
    /// Nodes `1..=n` the world boots.
    fn nodes(&self) -> u16;
    /// Restarting per-node counters, including retired incarnations.
    fn local(&self) -> Local;
    /// Timing log devices, when installed.
    fn log_devices(&self) -> &[Arc<TimingLogDevice>];
    /// Reclaims every node's log (dirty pages flushed, log prefix
    /// dropped) and writes a checkpoint record.
    fn checkpoint(&self) -> Result<(), String>;
    /// Power-cuts every node, then reboots, respawns and recovers them.
    fn crash_reboot(&mut self) -> Result<Reboot, String>;
    /// Every account's committed value, read through the leaders.
    fn balances(&self) -> Result<Vec<i64>, String>;
    /// World-specific invariants checked after the run.
    fn check_replicas(&self) -> Result<(), String> {
        Ok(())
    }
    /// Crashes every node (end of the run).
    fn shut_down(self: Box<Self>);

    /// A snapshot of every counter surface.
    fn counters(&self) -> Counters {
        let cluster = self.cluster();
        let mut named = BTreeMap::new();
        for id in 1..=self.nodes() {
            for (name, v) in cluster.metrics(NodeId(id)).snapshot().counters {
                *named.entry(name).or_insert(0) += v;
            }
        }
        let logs = self.log_devices();
        Counters {
            perf: cluster.perf_all(),
            named,
            local: self.local(),
            log_forces: logs.iter().map(|d| d.counts().forces.load(Ordering::Relaxed)).sum(),
            log_bytes: logs.iter().map(|d| d.counts().append_bytes.load(Ordering::Relaxed)).sum(),
        }
    }
}

/// How a world is built.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Accounts.
    pub accounts: u64,
    /// Starting balance of every account (0 leaves the zeroed disk as
    /// it is and seeds nothing).
    pub initial: i64,
    /// Log device under the WAL.
    pub log: LogKind,
    /// Install the timing device wrappers.
    pub traced: bool,
}

const LOG_CAPACITY: u64 = 64 << 20;
const SERVICE: &str = "bank";
/// Accounts written per seeding transaction.
const SEED_BATCH: u64 = 64;

fn log_device(spec: &Spec) -> Arc<dyn LogDevice> {
    match spec.log {
        LogKind::Mem => MemLogDevice::new(LOG_CAPACITY),
        LogKind::Fault => FaultLogDevice::new(LOG_CAPACITY, LogFaults::new()),
    }
}

/// Installs the log device (wrapped when traced) and, when traced, a
/// timing disk under each named segment of node `id`.
fn install_devices(
    cluster: &Arc<Cluster>,
    spec: &Spec,
    id: u16,
    segments: &[(String, u32)],
    logs: &mut Vec<Arc<TimingLogDevice>>,
) {
    let dev = log_device(spec);
    if spec.traced {
        let timing = TimingLogDevice::new(dev);
        logs.push(Arc::clone(&timing));
        cluster.set_log_device(NodeId(id), timing);
        for (segment, pages) in segments {
            let disk: Arc<dyn Disk> = TimingDisk::new(MemDisk::new(u64::from(*pages)));
            cluster.disks().insert(&format!("{}.{segment}", NodeId(id)), disk);
        }
    } else if spec.log != LogKind::Mem {
        cluster.set_log_device(NodeId(id), dev);
    }
}

/// Seeds every account with `initial`, [`SEED_BATCH`] per transaction.
fn seed(
    app: &AppHandle,
    accounts: u64,
    initial: i64,
    add: impl Fn(Tid, u64) -> Result<(), AppError>,
) -> Result<(), String> {
    if initial == 0 {
        return Ok(());
    }
    let mut key = 0;
    while key < accounts {
        let end = (key + SEED_BATCH).min(accounts);
        app.run(|t| (key..end).try_for_each(|k| add(t, k)))
            .map_err(|e| format!("seeding accounts {key}..{end}: {e}"))?;
        key = end;
    }
    Ok(())
}

/// Recovers `node` inside a `recover` span, adding its report to `r`.
fn recover(node: &Node, r: &mut Reboot) -> Result<(), String> {
    let t0 = Instant::now();
    let report = timed("recover", None, || node.recover())
        .map_err(|e| format!("recover {}: {e}", node.id))?;
    r.recover_ms += ms(t0);
    r.records_scanned += report.records_scanned as u64;
    r.values_applied += report.value_applied as u64;
    r.ops_redone += report.ops_redone as u64;
    Ok(())
}

/// Boots node `id` inside a `reboot` span (the log scan happens here).
fn boot_node(cluster: &Arc<Cluster>, id: u16) -> Node {
    timed("reboot", None, || cluster.boot_node(NodeId(id)))
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// One node, one integer array.

/// One node serving one `IntArrayServer`.
pub struct ArrayWorld {
    cluster: Arc<Cluster>,
    spec: Spec,
    up: Option<ArrayUp>,
    retired: Local,
    logs: Vec<Arc<TimingLogDevice>>,
}

/// The volatile half of an [`ArrayWorld`]: gone at a crash.
struct ArrayUp {
    node: Node,
    server: IntArrayServer,
    client: IntArrayClient,
    app: AppHandle,
}

const ARRAY: &str = "bank";

impl ArrayWorld {
    /// Pages the array's segment occupies.
    pub fn pages(accounts: u64) -> u32 {
        (accounts * 8).div_ceil(PAGE_SIZE as u64).max(1) as u32
    }

    /// Builds, boots and seeds the world.
    pub fn setup(spec: Spec) -> Result<(Self, SetupTimes), String> {
        let t0 = Instant::now();
        let cluster = Cluster::with_config(profile::config());
        let mut logs = Vec::new();
        let segment = (format!("{ARRAY}-segment"), Self::pages(spec.accounts));
        install_devices(&cluster, &spec, 1, &[segment], &mut logs);
        let mut world = Self { cluster, spec, up: None, retired: Local::default(), logs };
        world.boot()?;
        let boot_ms = ms(t0);
        let t1 = Instant::now();
        let up = world.up();
        seed(&up.app, spec.accounts, spec.initial, |t, k| up.client.set(t, k, spec.initial))?;
        let times = SetupTimes { boot_ms, seed_ms: ms(t1), total_s: t0.elapsed().as_secs_f64() };
        Ok((world, times))
    }

    /// Boots node 1, spawns the array server and recovers.
    fn boot(&mut self) -> Result<Reboot, String> {
        let t0 = Instant::now();
        let node = boot_node(&self.cluster, 1);
        let server = IntArrayServer::spawn(&node, ARRAY, self.spec.accounts)
            .map_err(|e| format!("spawn array server: {e}"))?;
        let mut r = Reboot::default();
        recover(&node, &mut r)?;
        let client = client_for(&node, ARRAY);
        let app = node.app();
        self.up = Some(ArrayUp { node, server, client, app });
        r.reboot_ms = ms(t0);
        Ok(r)
    }

    fn up(&self) -> &ArrayUp {
        self.up.as_ref().expect("the node is up between reboots")
    }

    fn crash(&mut self) {
        self.retired = self.local();
        if let Some(up) = self.up.take() {
            drop((up.client, up.server));
            up.node.crash();
        }
    }
}

impl World for ArrayWorld {
    fn app(&self) -> &AppHandle {
        &self.up().app
    }

    fn store(&self) -> &dyn Store {
        &self.up().client
    }

    fn accounts(&self) -> u64 {
        self.spec.accounts
    }

    fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    fn nodes(&self) -> u16 {
        1
    }

    fn local(&self) -> Local {
        let Some(up) = &self.up else {
            return self.retired;
        };
        let pool = up.node.pool.stats();
        self.retired.plus(Local {
            faults: pool.faults,
            hits: pool.hits,
            writebacks: pool.writebacks,
            waits: up.server.locks().wait_stats(),
            victims: up.node.detector().map_or(0, |d| d.victims()),
        })
    }

    fn log_devices(&self) -> &[Arc<TimingLogDevice>] {
        &self.logs
    }

    fn checkpoint(&self) -> Result<(), String> {
        let node = &self.up().node;
        node.rm.reclaim(None).map_err(|e| format!("reclaim: {e}"))?;
        node.checkpoint().map_err(|e| format!("checkpoint: {e}"))
    }

    fn crash_reboot(&mut self) -> Result<Reboot, String> {
        self.crash();
        self.boot()
    }

    fn balances(&self) -> Result<Vec<i64>, String> {
        let up = self.up();
        let mut out = Vec::with_capacity(self.spec.accounts as usize);
        let mut key = 0;
        while key < self.spec.accounts {
            let end = (key + 256).min(self.spec.accounts);
            let chunk = up
                .app
                .run(|t| (key..end).map(|k| up.client.get(t, k)).collect::<Result<Vec<_>, _>>())
                .map_err(|e| format!("reading accounts {key}..{end}: {e}"))?;
            out.extend(chunk);
            key = end;
        }
        Ok(out)
    }

    fn shut_down(mut self: Box<Self>) {
        self.crash();
    }
}

// ---------------------------------------------------------------------
// Three nodes, three hash shards, each replicated on all three.

/// Three nodes, three hash shards replicated on every node with leaders
/// spread one per node; the shard router sits on node 1.
pub struct ShardWorld {
    cluster: Arc<Cluster>,
    spec: Spec,
    up: Option<ShardUp>,
    retired: Local,
    logs: Vec<Arc<TimingLogDevice>>,
}

/// The volatile half of a [`ShardWorld`]: gone at a power cut.
struct ShardUp {
    /// Nodes 1..=3 and the shard servers each hosts.
    members: Vec<(Node, Vec<ShardServer>)>,
    client: ShardClient,
    app: AppHandle,
}

/// Nodes (and shards) of the replicated world.
pub const SHARD_NODES: u16 = 3;

impl ShardWorld {
    /// The map: shard `s` led by node `s + 1`, followed by the other two.
    pub fn map() -> ShardMap {
        let ids: Vec<NodeId> = (1..=SHARD_NODES).map(NodeId).collect();
        ShardMap {
            service: SERVICE.into(),
            version: 1,
            partitioning: Partitioning::Hash,
            owners: ids.clone(),
            replicas: (0..ids.len())
                .map(|s| ids.iter().copied().filter(|&n| n != ids[s]).collect())
                .collect(),
        }
    }

    /// Builds, boots and seeds the world.
    pub fn setup(spec: Spec) -> Result<(Self, SetupTimes), String> {
        let t0 = Instant::now();
        let cluster = Cluster::with_config(profile::config());
        let map = Self::map();
        if !cluster.commit_shard_map(SERVICE, map.version, map.to_blob()) {
            return Err("the durable shard-map store refused the first map".into());
        }
        let pages = ArrayWorld::pages(spec.accounts / u64::from(SHARD_NODES));
        let segments: Vec<(String, u32)> =
            (0..map.shards()).map(|s| (shard_segment_name(SERVICE, s), pages)).collect();
        let mut logs = Vec::new();
        for id in 1..=SHARD_NODES {
            install_devices(&cluster, &spec, id, &segments, &mut logs);
        }
        let mut world = Self { cluster, spec, up: None, retired: Local::default(), logs };
        world.boot()?;
        let boot_ms = ms(t0);
        let t1 = Instant::now();
        let up = world.up();
        seed(&up.app, spec.accounts, spec.initial, |t, k| up.client.set(t, k, spec.initial))?;
        let times = SetupTimes { boot_ms, seed_ms: ms(t1), total_s: t0.elapsed().as_secs_f64() };
        Ok((world, times))
    }

    /// Boots every node, spawns every shard's server on each, recovers
    /// them, and opens the router on node 1.
    fn boot(&mut self) -> Result<Reboot, String> {
        let t0 = Instant::now();
        let map = Self::map();
        let slots = self.spec.accounts / u64::from(SHARD_NODES);
        let mut r = Reboot::default();
        let mut members = Vec::new();
        for id in 1..=SHARD_NODES {
            let node = boot_node(&self.cluster, id);
            let (_control, servers) = ShardServer::spawn_all(&node, &map, slots)
                .map_err(|e| format!("spawn shards on n{id}: {e}"))?;
            recover(&node, &mut r)?;
            members.push((node, servers));
        }
        let n1 = &members[0].0;
        let client = ShardClient::new(n1, SERVICE).map_err(|e| format!("router: {e}"))?;
        let app = n1.app();
        self.up = Some(ShardUp { members, client, app });
        r.reboot_ms = ms(t0);
        Ok(r)
    }

    fn up(&self) -> &ShardUp {
        self.up.as_ref().expect("the nodes are up between power cuts")
    }

    fn crash(&mut self) {
        self.retired = self.local();
        if let Some(up) = self.up.take() {
            drop(up.client);
            for (node, servers) in up.members {
                drop(servers);
                node.crash();
            }
        }
    }

    /// One member's snapshot of one shard, read in a throwaway
    /// read-only transaction on node 1.
    fn snapshot(&self, shard: u32, member: NodeId) -> Result<Vec<i64>, String> {
        let up = self.up();
        let n1 = &up.members[0].0;
        let name = Self::map().shard_name(shard);
        let mut last = String::new();
        for _ in 0..5 {
            let port = resolve_owner_port(&n1.ns, &n1.cm, &name, member, Duration::from_secs(3))
                .ok_or_else(|| format!("no port for {name} on {member}"))?;
            match up.app.run(|t| up.app.call(&port, t, OP_SNAP, Vec::new())) {
                Ok(blob) => {
                    return Vec::<i64>::decode_all(&blob)
                        .map_err(|e| format!("snapshot of {name} on {member}: {e}"))
                }
                Err(e) => {
                    last = e.to_string();
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Err(format!("snapshot of {name} on {member} failed: {last}"))
    }
}

impl World for ShardWorld {
    fn app(&self) -> &AppHandle {
        &self.up().app
    }

    fn store(&self) -> &dyn Store {
        &self.up().client
    }

    fn accounts(&self) -> u64 {
        self.spec.accounts
    }

    fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    fn nodes(&self) -> u16 {
        SHARD_NODES
    }

    fn local(&self) -> Local {
        let Some(up) = &self.up else {
            return self.retired;
        };
        let mut total = self.retired;
        for (node, servers) in &up.members {
            let pool = node.pool.stats();
            let waits = servers.iter().map(|s| s.server().locks().wait_stats()).fold(
                WaitStats::default(),
                |a, w| WaitStats {
                    waits: a.waits + w.waits,
                    wakeups: a.wakeups + w.wakeups,
                    spurious: a.spurious + w.spurious,
                },
            );
            total = total.plus(Local {
                faults: pool.faults,
                hits: pool.hits,
                writebacks: pool.writebacks,
                waits,
                victims: node.detector().map_or(0, |d| d.victims()),
            });
        }
        total
    }

    fn log_devices(&self) -> &[Arc<TimingLogDevice>] {
        &self.logs
    }

    fn checkpoint(&self) -> Result<(), String> {
        for (node, _) in &self.up().members {
            node.rm.reclaim(None).map_err(|e| format!("reclaim {}: {e}", node.id))?;
            node.checkpoint().map_err(|e| format!("checkpoint {}: {e}", node.id))?;
        }
        Ok(())
    }

    fn crash_reboot(&mut self) -> Result<Reboot, String> {
        // Let phase-2 messages of the last commits land, so the power cut
        // finds the replicas quiescent.
        std::thread::sleep(Duration::from_millis(20));
        self.crash();
        self.boot()
    }

    fn balances(&self) -> Result<Vec<i64>, String> {
        let map = Self::map();
        let mut out = vec![0; self.spec.accounts as usize];
        for shard in 0..map.shards() {
            let values = self.snapshot(shard, map.owner(shard))?;
            for (slot, v) in values.into_iter().enumerate() {
                out[map.global_key(shard, slot as u64) as usize] = v;
            }
        }
        Ok(out)
    }

    fn check_replicas(&self) -> Result<(), String> {
        let map = Self::map();
        for shard in 0..map.shards() {
            let leader = self.snapshot(shard, map.owner(shard))?;
            for &member in map.replicas_of(shard) {
                let values = self.snapshot(shard, member)?;
                if values != leader {
                    let first = values.iter().zip(&leader).position(|(a, b)| a != b);
                    return Err(format!(
                        "shard {shard}: member {member} differs from leader {} (first slot {first:?})",
                        map.owner(shard)
                    ));
                }
            }
        }
        Ok(())
    }

    fn shut_down(mut self: Box<Self>) {
        self.crash();
    }
}
