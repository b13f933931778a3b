//! The Recovery Manager (§3.2.2).
//!
//! "The Recovery Manager coordinates access to the log. … The Recovery
//! Manager writes log records in response to messages sent by data servers,
//! the Transaction Manager, and the Accent kernel. … Upon transaction
//! abort, the recovery manager follows the backward chain of log records
//! that were written by the transaction and sends messages to the servers
//! instructing them to undo their effects. After a node crash, the Recovery
//! Manager scans the log one or more times."
//!
//! Both recovery algorithms of §2.1.3 co-exist here, sharing the common
//! log:
//!
//! - **Value logging**: undo/redo are old/new images of at most one page of
//!   an object. Crash recovery is a *single backward pass* that resets
//!   objects to their most recently committed values.
//! - **Operation logging**: records carry operation names and arguments;
//!   recovery takes *three passes* (analysis, seqno-gated redo, backward
//!   undo), using the sequence numbers the kernel stamps into sector
//!   headers to decide whether an operation's effect reached non-volatile
//!   storage.
//!
//! The kernel-side write-ahead protocol is implemented by [`RmGate`]
//! (see `tabs_kernel::vm::WalGate`), and intra-node message traffic between
//! kernel/servers and the Recovery Manager is accounted against the node's
//! primitive-operation counters exactly as the paper's §5 analysis counts
//! it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tabs_kernel::crash::CrashHookSlot;
use tabs_kernel::{
    crash_point, BufferPool, CrashHooks, NodeId, ObjectId, PageId, PerfCounters, PrimitiveOp,
    SegmentId, Tid, WalGate,
};
use tabs_obs::{TraceCollector, TraceEvent};
use tabs_wal::{LogEntry, LogManager, LogRecord, Lsn, TxState, WalError};

/// Errors from recovery-manager operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmError {
    /// Log-layer failure.
    Wal(String),
    /// Virtual-memory failure applying undo/redo.
    Vm(String),
    /// An operation record references a segment with no registered handler.
    NoHandler(SegmentId),
    /// A registered handler failed to apply an operation.
    Handler(String),
}

impl std::fmt::Display for RmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmError::Wal(e) => write!(f, "log failure: {e}"),
            RmError::Vm(e) => write!(f, "vm failure: {e}"),
            RmError::NoHandler(s) => write!(f, "no operation handler for segment {s}"),
            RmError::Handler(e) => write!(f, "operation handler failed: {e}"),
        }
    }
}

impl std::error::Error for RmError {}

impl From<WalError> for RmError {
    fn from(e: WalError) -> Self {
        RmError::Wal(e.to_string())
    }
}

/// Server-side redo/undo dispatch for **operation-logged** objects.
///
/// §3.1.1: the server library's `RecoverServer` "accepts the log records
/// that the Recovery Manager reads from the log … and calls the server
/// library's undo/redo code." Value-logged records are self-describing and
/// applied by the Recovery Manager directly; operation records are
/// dispatched to the owning server through this trait.
///
/// Undo implementations must be safe to invoke when the operation's effect
/// is only partially on disk (the sequence-number gate is per record, not
/// per page), e.g. by testing state before mutating, as the weak queue's
/// `InUse` bits do.
pub trait OperationHandler: Send + Sync {
    /// Re-applies a logged operation.
    fn redo(&self, object: ObjectId, name: &str, redo: &[u8]) -> Result<(), String>;

    /// Reverses a logged operation.
    fn undo(&self, object: ObjectId, name: &str, undo: &[u8]) -> Result<(), String>;

    /// Re-acquires locks for an in-doubt (prepared) transaction's object
    /// after a crash, so other transactions cannot observe in-doubt data.
    fn relock(&self, _tid: Tid, _object: ObjectId) {}
}

/// What crash recovery found and did.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Transactions whose effects were redone.
    pub committed: Vec<Tid>,
    /// Transactions whose effects were undone (aborted or in-flight).
    pub aborted: Vec<Tid>,
    /// Prepared transactions awaiting the coordinator's decision, with the
    /// coordinator node recorded at prepare time.
    pub in_doubt: Vec<(Tid, NodeId)>,
    /// Objects updated by each in-doubt transaction (must stay locked).
    pub in_doubt_objects: Vec<(Tid, Vec<ObjectId>)>,
    /// Durable log records scanned.
    pub records_scanned: usize,
    /// Value records applied (redo or undo).
    pub value_applied: usize,
    /// Operation records redone.
    pub ops_redone: usize,
    /// Operation records undone.
    pub ops_undone: usize,
}

struct RmState {
    /// Earliest LSN whose effect may not be on disk, per dirty page
    /// (recovery LSN; from the kernel's first-dirty message).
    recovery_lsn: HashMap<PageId, Lsn>,
    /// Highest LSN applying to each page (force target + sector seqno).
    high_lsn: HashMap<PageId, Lsn>,
}

/// The Recovery Manager of one node.
pub struct RecoveryManager {
    node: NodeId,
    log: LogManager,
    pool: Arc<BufferPool>,
    perf: Arc<PerfCounters>,
    state: Mutex<RmState>,
    handlers: RwLock<HashMap<SegmentId, Arc<dyn OperationHandler>>>,
    /// Fraction of log capacity that triggers reclamation.
    reclaim_threshold: f64,
    trace: Mutex<Option<Arc<TraceCollector>>>,
    crash: CrashHookSlot,
}

/// Crash-points the Recovery Manager fires (see `tabs_kernel::crash`):
/// either side of the prepare, commit and abort record writes.
pub const CRASH_POINTS: &[&str] = &[
    "rm.prepare.before",
    "rm.prepare.after",
    "rm.commit.before",
    "rm.commit.after",
    "rm.abort.before",
    "rm.abort.after",
];

impl std::fmt::Debug for RecoveryManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryManager").field("node", &self.node).field("log", &self.log).finish()
    }
}

impl RecoveryManager {
    /// Creates the Recovery Manager over an opened log and the node's
    /// buffer pool. Call [`RecoveryManager::recover`] before serving.
    pub fn new(
        node: NodeId,
        log: LogManager,
        pool: Arc<BufferPool>,
        perf: Arc<PerfCounters>,
    ) -> Arc<Self> {
        Arc::new(Self {
            node,
            log,
            pool,
            perf,
            state: Mutex::new(RmState { recovery_lsn: HashMap::new(), high_lsn: HashMap::new() }),
            handlers: RwLock::new(HashMap::new()),
            reclaim_threshold: 0.8,
            trace: Mutex::new(None),
            crash: CrashHookSlot::new(None),
        })
    }

    /// The write-ahead-log gate to install on the buffer pool.
    pub fn gate(self: &Arc<Self>) -> Arc<dyn WalGate> {
        Arc::new(RmGate { rm: Arc::clone(self) })
    }

    /// Registers the operation-logging handler for `segment`.
    pub fn register_handler(&self, segment: SegmentId, handler: Arc<dyn OperationHandler>) {
        self.handlers.write().insert(segment, handler);
    }

    /// Attaches a trace collector. Commit/abort outcomes recorded through
    /// this Recovery Manager are traced, and the collector is forwarded to
    /// the underlying [`LogManager`] so appends and forces are traced too.
    pub fn set_trace(&self, trace: Arc<TraceCollector>) {
        self.log.set_trace(Arc::clone(&trace));
        *self.trace.lock() = Some(trace);
    }

    fn emit(&self, tid: Tid, event: TraceEvent) {
        if let Some(t) = self.trace.lock().as_ref() {
            t.record(tid, event);
        }
    }

    /// Installs crash-point hooks fired at the [`CRASH_POINTS`] boundaries.
    pub fn set_crash_hooks(&self, hooks: Arc<dyn CrashHooks>) {
        *self.crash.lock() = Some(hooks);
    }

    /// The shared log (read access for the Transaction Manager and tests).
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// The node's buffer pool (the kernel side of the VM/recovery
    /// integration).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// This node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn count_msg(&self, bytes: usize) {
        // Model the data-server/kernel → RM message this call stands for.
        self.perf.record(if bytes < tabs_kernel::SMALL_MESSAGE_LIMIT {
            PrimitiveOp::SmallContiguousMessage
        } else {
            PrimitiveOp::LargeContiguousMessage
        });
    }

    fn note_pages(&self, lsn: Lsn, pages: impl IntoIterator<Item = PageId>) {
        let mut st = self.state.lock();
        for p in pages {
            st.high_lsn.insert(p, lsn);
            st.recovery_lsn.entry(p).or_insert(lsn);
        }
    }

    /// Spools a transaction-begin record.
    pub fn log_begin(&self, tid: Tid, parent: Tid) -> Lsn {
        self.count_msg(16);
        self.log.append(LogRecord::Begin { tid, parent })
    }

    /// Spools a value-logging update (old/new images; the bulk transfer the
    /// server library's `LogAndUnPin` performs).
    pub fn log_value_update(&self, tid: Tid, object: ObjectId, old: Vec<u8>, new: Vec<u8>) -> Lsn {
        self.count_msg(old.len() + new.len() + 32);
        let rec = LogRecord::ValueUpdate { tid, object, old, new };
        let pages = rec.pages();
        let lsn = self.log.append(rec);
        self.note_pages(lsn, pages);
        lsn
    }

    /// Spools an operation-logging record (name + undo/redo arguments; may
    /// cover a multi-page object in one record, §2.1.3).
    pub fn log_operation(
        &self,
        tid: Tid,
        object: ObjectId,
        name: &str,
        undo: Vec<u8>,
        redo: Vec<u8>,
    ) -> Lsn {
        self.count_msg(undo.len() + redo.len() + name.len() + 32);
        let pages: Vec<PageId> = object.pages().collect();
        let lsn = self.log.append(LogRecord::Operation {
            tid,
            object,
            name: name.to_string(),
            undo,
            redo,
            pages: pages.clone(),
        });
        self.note_pages(lsn, pages);
        lsn
    }

    /// Writes and forces a prepare record (the participant's vote must be
    /// durable before "yes" is sent). This is a commit-path force: with
    /// group commit enabled it shares the device force with concurrent
    /// committers; the vote still waits for the covering force to return.
    ///
    /// Read-only participants never reach this call: a subtree that
    /// logged nothing votes read-only and drops out of phase 2, so its
    /// prepare writes nothing to the WAL at all (the read-only voter
    /// drop-out; the `full` commit-path baseline forces one anyway to
    /// measure the saving).
    pub fn log_prepare(&self, tid: Tid, coordinator: NodeId) -> Result<Lsn, RmError> {
        self.count_msg(24);
        crash_point!(&self.crash, "rm.prepare.before");
        let lsn = self.log.append_commit(LogRecord::Prepare { tid, coordinator })?;
        crash_point!(&self.crash, "rm.prepare.after");
        Ok(lsn)
    }

    /// Writes and forces the commit record (the WAL commit rule). This is
    /// a commit-path force: with group commit enabled the caller blocks
    /// on its group-commit ticket, which resolves only after a device
    /// force covering the commit record has returned.
    pub fn log_commit(&self, tid: Tid) -> Result<Lsn, RmError> {
        self.count_msg(16);
        crash_point!(&self.crash, "rm.commit.before");
        let lsn = self.log.append_commit(LogRecord::Commit { tid })?;
        crash_point!(&self.crash, "rm.commit.after");
        self.emit(tid, TraceEvent::TxnCommit);
        Ok(lsn)
    }

    /// Forces the log through `lsn` (or everything).
    pub fn force(&self, upto: Option<Lsn>) -> Result<Lsn, RmError> {
        Ok(self.log.force(upto)?)
    }

    fn apply_value(&self, object: ObjectId, image: &[u8]) -> Result<(), RmError> {
        let mut done = 0usize;
        let page_size = tabs_kernel::PAGE_SIZE as u64;
        while done < image.len() {
            let pos = object.offset + done as u64;
            let page = (pos / page_size) as u32;
            let in_page = (pos % page_size) as usize;
            let n = (tabs_kernel::PAGE_SIZE - in_page).min(image.len() - done);
            let pid = PageId { segment: object.segment, page };
            self.pool
                .with_page_mut(pid, |frame| {
                    frame[in_page..in_page + n].copy_from_slice(&image[done..done + n]);
                })
                .map_err(|e| RmError::Vm(e.to_string()))?;
            done += n;
        }
        Ok(())
    }

    fn handler_for(&self, segment: SegmentId) -> Result<Arc<dyn OperationHandler>, RmError> {
        self.handlers.read().get(&segment).cloned().ok_or(RmError::NoHandler(segment))
    }

    /// Undoes one update record, instructing the owning server (one message
    /// counted per instruction, as the paper's abort path sends).
    fn apply_undo(&self, entry: &LogEntry) -> Result<(), RmError> {
        match &entry.record {
            LogRecord::ValueUpdate { object, old, .. } => {
                self.count_msg(old.len() + 16);
                self.apply_value(*object, old)
            }
            LogRecord::Operation { object, name, undo, .. } => {
                self.count_msg(undo.len() + 16);
                let h = self.handler_for(object.segment)?;
                h.undo(*object, name, undo).map_err(RmError::Handler)
            }
            _ => Ok(()),
        }
    }

    fn apply_redo(&self, entry: &LogEntry) -> Result<(), RmError> {
        match &entry.record {
            LogRecord::ValueUpdate { object, new, .. } => {
                self.count_msg(new.len() + 16);
                self.apply_value(*object, new)
            }
            LogRecord::Operation { object, name, redo, .. } => {
                self.count_msg(redo.len() + 16);
                let h = self.handler_for(object.segment)?;
                h.redo(*object, name, redo).map_err(RmError::Handler)
            }
            _ => Ok(()),
        }
    }

    /// Forward abort (§3.2.2): follows the transaction's backward chain and
    /// undoes its effects, then records the abort. The caller (Transaction
    /// Manager) still holds the transaction's locks.
    pub fn abort(&self, tid: Tid) -> Result<(), RmError> {
        crash_point!(&self.crash, "rm.abort.before");
        self.log.append(LogRecord::Abort { tid });
        for entry in self.log.backward_chain(tid) {
            if entry.record.is_update() && entry.record.tid() == Some(tid) {
                self.apply_undo(&entry)?;
            }
        }
        self.log.append(LogRecord::AbortComplete { tid });
        crash_point!(&self.crash, "rm.abort.after");
        self.emit(tid, TraceEvent::TxnAbort);
        Ok(())
    }

    /// Takes a checkpoint (§3.2.2): the dirty-page table and the supplied
    /// transaction states go to the log, bounding crash-recovery work.
    pub fn checkpoint(&self, active: Vec<(Tid, TxState)>) -> Result<Lsn, RmError> {
        let dirty: Vec<(PageId, Lsn)> = {
            let st = self.state.lock();
            self.pool
                .dirty_pages()
                .into_iter()
                .map(|p| (p, st.recovery_lsn.get(&p).copied().unwrap_or(Lsn::ZERO)))
                .collect()
        };
        Ok(self.log.append_forced(LogRecord::Checkpoint { active, dirty })?)
    }

    /// Reclaims log space if usage exceeds the threshold: forces dirty
    /// pages with old recovery LSNs to disk, then truncates the log prefix
    /// not needed by any active transaction or dirty page (§3.2.2: "Log
    /// reclamation may force pages back to disk before they would otherwise
    /// be written").
    pub fn maybe_reclaim(&self, active_floor: Option<Lsn>) -> Result<usize, RmError> {
        let (used, cap) = self.log.usage();
        if (used as f64) < self.reclaim_threshold * cap as f64 {
            return Ok(0);
        }
        self.reclaim(active_floor)
    }

    /// Unconditional reclamation (exposed for tests and benchmarks).
    pub fn reclaim(&self, active_floor: Option<Lsn>) -> Result<usize, RmError> {
        // Force every dirty page so no recovery LSN pins the log tail.
        for page in self.pool.dirty_pages() {
            self.pool.flush_page(page).map_err(|e| RmError::Vm(e.to_string()))?;
        }
        let mut floor = self.log.durable_lsn();
        {
            let st = self.state.lock();
            for (page, lsn) in &st.recovery_lsn {
                // Pages that remained dirty (pinned) still pin the log.
                if self.pool.dirty_pages().contains(page) {
                    floor = floor.min(*lsn);
                }
            }
        }
        if let Some(f) = active_floor {
            floor = floor.min(f);
        }
        Ok(self.log.truncate_before(floor)?)
    }

    /// Crash recovery (§3.2.2): scans the durable log and restores
    /// recoverable segments so they "reflect only the operations of
    /// committed and prepared transactions."
    ///
    /// Register all operation handlers before calling. Value records are a
    /// single backward pass; operation records add the analysis and
    /// forward-redo passes (three in total, §2.1.3).
    pub fn recover(&self) -> Result<RecoveryReport, RmError> {
        let entries = self.log.durable_entries();
        let mut report =
            RecoveryReport { records_scanned: entries.len(), ..RecoveryReport::default() };

        // ---- Pass 1: analysis. Build transaction status + parents.
        let mut status: HashMap<Tid, TxState> = HashMap::new();
        let mut parent: HashMap<Tid, Tid> = HashMap::new();
        let mut prepared_coord: HashMap<Tid, NodeId> = HashMap::new();
        for e in &entries {
            match &e.record {
                LogRecord::Begin { tid, parent: p } => {
                    status.insert(*tid, TxState::Active);
                    if !p.is_null() {
                        parent.insert(*tid, *p);
                    }
                }
                LogRecord::Prepare { tid, coordinator } => {
                    status.insert(*tid, TxState::Prepared);
                    prepared_coord.insert(*tid, *coordinator);
                }
                LogRecord::Commit { tid } => {
                    status.insert(*tid, TxState::Committed);
                }
                LogRecord::Abort { tid } | LogRecord::AbortComplete { tid } => {
                    status.insert(*tid, TxState::Aborted);
                }
                LogRecord::Checkpoint { active, .. } => {
                    for (tid, st) in active {
                        status.entry(*tid).or_insert(*st);
                    }
                }
                _ => {}
            }
        }

        // Resolve subtransactions: a transaction wins (is redone) only if
        // it and every ancestor up to the top level committed — a
        // subtransaction "is not committed until its top-level parent
        // transaction commits" (§2.1.3). Prepared counts as winning
        // tentatively (in doubt).
        let effective = |tid: Tid| -> TxState {
            let mut cur = tid;
            loop {
                match status.get(&cur) {
                    Some(TxState::Aborted) => return TxState::Aborted,
                    Some(TxState::Prepared) | Some(TxState::Committed) => {}
                    Some(TxState::Active) | None => {
                        // An active ancestor at crash time means the whole
                        // lineage loses.
                        if !parent.contains_key(&cur) {
                            // cur is top-level and not committed.
                            if let Some(TxState::Prepared) = status.get(&cur) {
                                return TxState::Prepared;
                            }
                            return TxState::Aborted;
                        }
                    }
                }
                match parent.get(&cur) {
                    Some(p) => cur = *p,
                    None => {
                        // Reached the top level.
                        return match status.get(&cur) {
                            Some(TxState::Committed) => TxState::Committed,
                            Some(TxState::Prepared) => TxState::Prepared,
                            _ => TxState::Aborted,
                        };
                    }
                }
            }
        };

        let winners: HashSet<Tid> =
            status.keys().copied().filter(|t| effective(*t) == TxState::Committed).collect();
        let in_doubt: HashSet<Tid> =
            status.keys().copied().filter(|t| effective(*t) == TxState::Prepared).collect();

        // ---- Value logging: one backward pass with per-object
        // finalization. Winners' and in-doubt transactions' newest images
        // win; losers' old images are restored walking further back.
        let mut finalized: HashSet<ObjectId> = HashSet::new();
        let mut value_winners_seen: HashSet<Tid> = HashSet::new();
        let mut value_losers_seen: HashSet<Tid> = HashSet::new();
        for e in entries.iter().rev() {
            if let LogRecord::ValueUpdate { tid, object, old, new } = &e.record {
                if finalized.contains(object) {
                    continue;
                }
                if winners.contains(tid) || in_doubt.contains(tid) {
                    self.apply_value(*object, new)?;
                    finalized.insert(*object);
                    report.value_applied += 1;
                    value_winners_seen.insert(*tid);
                } else {
                    self.apply_value(*object, old)?;
                    report.value_applied += 1;
                    value_losers_seen.insert(*tid);
                }
            }
        }

        // ---- Operation logging, pass 2: forward redo, gated on sector
        // sequence numbers (§3.2.1): an operation whose LSN is newer than
        // the page's on-disk sequence number has not reached non-volatile
        // storage and must be redone.
        let mut op_winners_seen: HashSet<Tid> = HashSet::new();
        let mut op_losers: Vec<&LogEntry> = Vec::new();
        for e in &entries {
            if let LogRecord::Operation { tid, pages, .. } = &e.record {
                if winners.contains(tid) || in_doubt.contains(tid) {
                    let needs_redo = self.op_effect_missing(e.lsn, pages)?;
                    if needs_redo {
                        self.apply_redo(e)?;
                        report.ops_redone += 1;
                    }
                    op_winners_seen.insert(*tid);
                } else {
                    op_losers.push(e);
                    value_losers_seen.insert(*tid);
                }
            }
        }

        // ---- Operation logging, pass 3: backward undo of losers whose
        // effects reached (or were redone into) volatile/non-volatile
        // state. Redo-before-undo is unnecessary for losers here because
        // the sequence-number gate tells us whether the effect is present.
        for e in op_losers.iter().rev() {
            if let LogRecord::Operation { pages, .. } = &e.record {
                let effect_present = !self.op_effect_missing(e.lsn, pages)?;
                if effect_present {
                    self.apply_undo(e)?;
                    report.ops_undone += 1;
                }
            }
        }

        // Record applied LSNs so future page flushes stamp correct seqnos.
        let end = self.log.durable_lsn();
        {
            let mut st = self.state.lock();
            for p in self.pool.dirty_pages() {
                st.high_lsn.insert(p, end);
                st.recovery_lsn.entry(p).or_insert(end);
            }
        }

        // In-doubt transactions: report with coordinators and updated
        // objects; ask handlers to re-lock so no one observes their data.
        for tid in &in_doubt {
            let coord = prepared_coord.get(tid).copied().unwrap_or(NodeId(0));
            report.in_doubt.push((*tid, coord));
            let mut objects = Vec::new();
            for e in &entries {
                match &e.record {
                    LogRecord::ValueUpdate { tid: t, object, .. }
                    | LogRecord::Operation { tid: t, object, .. }
                        if t == tid =>
                    {
                        objects.push(*object);
                        if let Some(h) = self.handlers.read().get(&object.segment) {
                            h.relock(*tid, *object);
                        }
                    }
                    _ => {}
                }
            }
            report.in_doubt_objects.push((*tid, objects));
        }

        report.committed = winners.into_iter().collect();
        report.committed.sort();
        report.aborted =
            status.keys().copied().filter(|t| effective(*t) == TxState::Aborted).collect();
        report.aborted.sort();
        Ok(report)
    }

    /// Whether an operation at `lsn` is missing from non-volatile storage,
    /// judged by the sector sequence numbers of the pages it touches.
    fn op_effect_missing(&self, lsn: Lsn, pages: &[PageId]) -> Result<bool, RmError> {
        for p in pages {
            let seq = self.pool.read_disk_seqno(*p).map_err(|e| RmError::Vm(e.to_string()))?;
            if seq < lsn.0 {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// The kernel→RM write-ahead-log gate (the three messages of §3.2.1).
pub struct RmGate {
    rm: Arc<RecoveryManager>,
}

impl WalGate for RmGate {
    fn page_dirtied(&self, page: PageId) {
        // Message 1: first modification since the page was faulted.
        self.rm.perf.record(PrimitiveOp::SmallContiguousMessage);
        let next = self.rm.log.next_lsn();
        let mut st = self.rm.state.lock();
        st.recovery_lsn.entry(page).or_insert(next);
    }

    fn before_page_write(&self, page: PageId) -> Result<u64, String> {
        // Message 2 + reply: force covering log records; return the
        // sequence number the kernel must stamp on the sector.
        self.rm.perf.record(PrimitiveOp::SmallContiguousMessage);
        let high = self.rm.state.lock().high_lsn.get(&page).copied();
        if let Some(lsn) = high {
            self.rm.log.force(Some(lsn)).map_err(|e| e.to_string())?;
        }
        self.rm.perf.record(PrimitiveOp::SmallContiguousMessage);
        Ok(high.unwrap_or(self.rm.log.durable_lsn()).0)
    }

    fn after_page_write(&self, page: PageId, ok: bool) {
        // Message 3: outcome report.
        self.rm.perf.record(PrimitiveOp::SmallContiguousMessage);
        if ok {
            let mut st = self.rm.state.lock();
            st.recovery_lsn.remove(&page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabs_kernel::{MemDisk, SegmentSpec, PAGE_SIZE};
    use tabs_wal::MemLogDevice;

    fn tid(s: u64) -> Tid {
        Tid { node: NodeId(1), incarnation: 1, seq: s }
    }

    fn seg() -> SegmentId {
        SegmentId { node: NodeId(1), index: 0 }
    }

    fn obj(i: u64) -> ObjectId {
        ObjectId::new(seg(), i * 8, 8)
    }

    struct Rig {
        rm: Arc<RecoveryManager>,
        pool: Arc<BufferPool>,
        disk: Arc<MemDisk>,
        logdev: Arc<MemLogDevice>,
        perf: Arc<PerfCounters>,
    }

    fn rig() -> Rig {
        let perf = PerfCounters::new();
        let disk = MemDisk::new(64);
        let logdev = MemLogDevice::new(1 << 20);
        Rig::build(disk, logdev, perf)
    }

    impl Rig {
        fn build(disk: Arc<MemDisk>, logdev: Arc<MemLogDevice>, perf: Arc<PerfCounters>) -> Rig {
            let pool = BufferPool::new(16, Arc::clone(&perf));
            pool.register_segment(SegmentSpec {
                id: seg(),
                name: "t".into(),
                disk: Arc::clone(&disk) as Arc<dyn tabs_kernel::Disk>,
                base_sector: 0,
                pages: 64,
            })
            .unwrap();
            let log = LogManager::open(
                Arc::clone(&logdev) as Arc<dyn tabs_wal::LogDevice>,
                Arc::clone(&perf),
            )
            .unwrap();
            let rm = RecoveryManager::new(NodeId(1), log, Arc::clone(&pool), Arc::clone(&perf));
            pool.set_gate(rm.gate());
            Rig { rm, pool, disk, logdev, perf }
        }

        /// Simulates a node crash and reboot: volatile state (pool frames,
        /// log buffer, RM tables) is lost; disks survive.
        fn crash_and_reboot(self) -> Rig {
            self.pool.invalidate_volatile();
            let Rig { disk, logdev, perf, .. } = self;
            Rig::build(disk, logdev, perf)
        }

        /// Writes `val` into `o` under `t` with proper WAL discipline.
        fn update(&self, t: Tid, o: ObjectId, val: u64) {
            let old = self.read(o);
            self.write_raw(o, val);
            self.rm.log_value_update(t, o, old.to_le_bytes().to_vec(), val.to_le_bytes().to_vec());
        }

        fn write_raw(&self, o: ObjectId, val: u64) {
            let page = o.first_page();
            let off = (o.offset % PAGE_SIZE as u64) as usize;
            self.pool
                .with_page_mut(page, |d| d[off..off + 8].copy_from_slice(&val.to_le_bytes()))
                .unwrap();
        }

        fn read(&self, o: ObjectId) -> u64 {
            let page = o.first_page();
            let off = (o.offset % PAGE_SIZE as u64) as usize;
            self.pool
                .with_page(page, |d| u64::from_le_bytes(d[off..off + 8].try_into().unwrap()))
                .unwrap()
        }
    }

    #[test]
    fn committed_update_survives_crash() {
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 42);
        r.rm.log_commit(t).unwrap();
        let r = r.crash_and_reboot();
        let report = r.rm.recover().unwrap();
        assert_eq!(report.committed, vec![t]);
        assert_eq!(r.read(obj(0)), 42);
    }

    #[test]
    fn uncommitted_update_rolled_back_after_crash() {
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 7);
        // Force the update record so it is durable, then flush the page so
        // the dirty value reaches disk — and crash without committing.
        r.rm.force(None).unwrap();
        r.pool.flush_page(obj(0).first_page()).unwrap();
        let r = r.crash_and_reboot();
        assert_eq!(r.read(obj(0)), 7, "dirty value reached disk pre-crash");
        let report = r.rm.recover().unwrap();
        assert!(report.aborted.contains(&tid(1)));
        assert_eq!(r.read(obj(0)), 0, "recovery undid the loser");
    }

    #[test]
    fn unforced_records_mean_no_disk_effect_consistent() {
        // If neither the record nor the page reached non-volatile storage,
        // the object stays at its old value: nothing to do, nothing torn.
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 9);
        let r = r.crash_and_reboot();
        r.rm.recover().unwrap();
        assert_eq!(r.read(obj(0)), 0);
    }

    #[test]
    fn wal_invariant_page_out_forces_log_first() {
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 13);
        // The record is only in the volatile buffer.
        assert_eq!(r.rm.log().durable_entries().len(), 0);
        // Flushing the page must force the covering records first.
        r.pool.flush_page(obj(0).first_page()).unwrap();
        let durable = r.rm.log().durable_entries();
        assert!(
            durable.iter().any(|e| matches!(e.record, LogRecord::ValueUpdate { .. })),
            "update record was forced by the WAL gate"
        );
        // And the stamped sector seqno equals the record's LSN.
        let seq = r.pool.read_disk_seqno(obj(0).first_page()).unwrap();
        let upd_lsn =
            durable.iter().find(|e| matches!(e.record, LogRecord::ValueUpdate { .. })).unwrap().lsn;
        assert_eq!(seq, upd_lsn.0);
    }

    #[test]
    fn forward_abort_restores_old_values_via_backward_chain() {
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 1);
        r.update(t, obj(0), 2);
        r.update(t, obj(1), 5);
        r.rm.abort(t).unwrap();
        assert_eq!(r.read(obj(0)), 0);
        assert_eq!(r.read(obj(1)), 0);
        // Abort + AbortComplete were logged.
        let kinds: Vec<_> =
            r.rm.log().all_entries().iter().map(|e| std::mem::discriminant(&e.record)).collect();
        assert!(kinds.contains(&std::mem::discriminant(&LogRecord::Abort { tid: t })));
    }

    #[test]
    fn two_transactions_one_commits_one_loses() {
        let r = rig();
        let t1 = tid(1);
        let t2 = tid(2);
        r.rm.log_begin(t1, Tid::NULL);
        r.rm.log_begin(t2, Tid::NULL);
        r.update(t1, obj(0), 11);
        r.update(t2, obj(1), 22);
        r.rm.log_commit(t1).unwrap();
        // t2 never commits; crash.
        let r = r.crash_and_reboot();
        let report = r.rm.recover().unwrap();
        assert!(report.committed.contains(&t1));
        assert!(report.aborted.contains(&t2));
        assert_eq!(r.read(obj(0)), 11);
        assert_eq!(r.read(obj(1)), 0);
    }

    #[test]
    fn loser_with_multiple_updates_unwinds_to_first_old_value() {
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 1);
        r.update(t, obj(0), 2);
        r.update(t, obj(0), 3);
        r.rm.force(None).unwrap();
        let r = r.crash_and_reboot();
        r.rm.recover().unwrap();
        assert_eq!(r.read(obj(0)), 0, "walked back to the original value");
    }

    #[test]
    fn sequential_committed_writers_newest_wins() {
        let r = rig();
        for (i, val) in [(1u64, 10u64), (2, 20), (3, 30)] {
            let t = tid(i);
            r.rm.log_begin(t, Tid::NULL);
            r.update(t, obj(0), val);
            r.rm.log_commit(t).unwrap();
        }
        let r = r.crash_and_reboot();
        r.rm.recover().unwrap();
        assert_eq!(r.read(obj(0)), 30);
    }

    #[test]
    fn aborted_then_committed_writer_recovers_committed_value() {
        let r = rig();
        let t1 = tid(1);
        r.rm.log_begin(t1, Tid::NULL);
        r.update(t1, obj(0), 99);
        r.rm.abort(t1).unwrap();
        let t2 = tid(2);
        r.rm.log_begin(t2, Tid::NULL);
        r.update(t2, obj(0), 55);
        r.rm.log_commit(t2).unwrap();
        let r = r.crash_and_reboot();
        r.rm.recover().unwrap();
        assert_eq!(r.read(obj(0)), 55);
    }

    #[test]
    fn subtransaction_commits_only_with_parent() {
        let r = rig();
        let parent = tid(1);
        let child = tid(2);
        r.rm.log_begin(parent, Tid::NULL);
        r.rm.log_begin(child, parent);
        r.update(child, obj(0), 5);
        // Child "commits" locally but the parent never does; crash.
        r.rm.force(None).unwrap();
        let r = r.crash_and_reboot();
        let report = r.rm.recover().unwrap();
        assert!(report.aborted.contains(&child));
        assert_eq!(r.read(obj(0)), 0);
    }

    #[test]
    fn aborted_subtransaction_of_committed_parent_stays_undone() {
        let r = rig();
        let parent = tid(1);
        let child = tid(2);
        r.rm.log_begin(parent, Tid::NULL);
        r.update(parent, obj(0), 1);
        r.rm.log_begin(child, parent);
        r.update(child, obj(1), 2);
        r.rm.abort(child).unwrap(); // child aborts independently
        r.rm.log_commit(parent).unwrap();
        let r = r.crash_and_reboot();
        let report = r.rm.recover().unwrap();
        assert!(report.committed.contains(&parent));
        assert!(report.aborted.contains(&child));
        assert_eq!(r.read(obj(0)), 1);
        assert_eq!(r.read(obj(1)), 0);
    }

    #[test]
    fn prepared_transaction_is_in_doubt_and_redone() {
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 77);
        r.rm.log_prepare(t, NodeId(9)).unwrap();
        let r = r.crash_and_reboot();
        let report = r.rm.recover().unwrap();
        assert_eq!(report.in_doubt, vec![(t, NodeId(9))]);
        // In-doubt effects are present (prepared = tentatively committed).
        assert_eq!(r.read(obj(0)), 77);
        let objs = &report.in_doubt_objects[0];
        assert_eq!(objs.0, t);
        assert_eq!(objs.1, vec![obj(0)]);
    }

    #[test]
    fn checkpoint_and_reclaim_shrink_log() {
        let r = rig();
        for i in 0..20u64 {
            let t = tid(i + 1);
            r.rm.log_begin(t, Tid::NULL);
            r.update(t, obj(i % 4), i);
            r.rm.log_commit(t).unwrap();
        }
        let before = r.rm.log().usage().0;
        r.rm.checkpoint(vec![]).unwrap();
        let dropped = r.rm.reclaim(None).unwrap();
        assert!(dropped > 0, "reclamation dropped {dropped} records");
        assert!(r.rm.log().usage().0 < before);
        // Data still correct after a crash following reclamation.
        let r = r.crash_and_reboot();
        r.rm.recover().unwrap();
        assert_eq!(r.read(obj(3)), 19);
    }

    #[test]
    fn recovery_after_recovery_is_idempotent() {
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 42);
        r.rm.log_commit(t).unwrap();
        let r = r.crash_and_reboot();
        r.rm.recover().unwrap();
        assert_eq!(r.read(obj(0)), 42);
        // Crash again immediately (nothing new); recover again.
        let r = r.crash_and_reboot();
        r.rm.recover().unwrap();
        assert_eq!(r.read(obj(0)), 42);
    }

    // ---- Operation logging ----

    /// A counter object whose increment/decrement ops are operation-logged.
    struct CounterHandler {
        pool: Arc<BufferPool>,
    }

    impl CounterHandler {
        fn rw(&self, o: ObjectId, f: impl FnOnce(u64) -> u64) -> Result<(), String> {
            let page = o.first_page();
            let off = (o.offset % PAGE_SIZE as u64) as usize;
            self.pool
                .with_page_mut(page, |d| {
                    let cur = u64::from_le_bytes(d[off..off + 8].try_into().unwrap());
                    d[off..off + 8].copy_from_slice(&f(cur).to_le_bytes());
                })
                .map_err(|e| e.to_string())
        }
    }

    impl OperationHandler for CounterHandler {
        fn redo(&self, o: ObjectId, name: &str, redo: &[u8]) -> Result<(), String> {
            let amount = u64::from_le_bytes(redo.try_into().map_err(|_| "args")?);
            match name {
                "add" => self.rw(o, |c| c.wrapping_add(amount)),
                other => Err(format!("unknown op {other}")),
            }
        }
        fn undo(&self, o: ObjectId, name: &str, undo: &[u8]) -> Result<(), String> {
            let amount = u64::from_le_bytes(undo.try_into().map_err(|_| "args")?);
            match name {
                "add" => self.rw(o, |c| c.wrapping_sub(amount)),
                other => Err(format!("unknown op {other}")),
            }
        }
    }

    fn register_counter(r: &Rig) {
        r.rm.register_handler(seg(), Arc::new(CounterHandler { pool: Arc::clone(&r.pool) }));
    }

    fn op_add(r: &Rig, t: Tid, o: ObjectId, amount: u64) {
        // Apply in volatile memory, then log the operation.
        let page = o.first_page();
        let off = (o.offset % PAGE_SIZE as u64) as usize;
        r.pool
            .with_page_mut(page, |d| {
                let cur = u64::from_le_bytes(d[off..off + 8].try_into().unwrap());
                d[off..off + 8].copy_from_slice(&cur.wrapping_add(amount).to_le_bytes());
            })
            .unwrap();
        r.rm.log_operation(
            t,
            o,
            "add",
            amount.to_le_bytes().to_vec(),
            amount.to_le_bytes().to_vec(),
        );
    }

    #[test]
    fn operation_redo_applies_missing_committed_ops() {
        let r = rig();
        register_counter(&r);
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        op_add(&r, t, obj(0), 5);
        op_add(&r, t, obj(0), 6);
        r.rm.log_commit(t).unwrap();
        // Nothing flushed: disk value is 0; redo must reconstruct 11.
        let r2 = r.crash_and_reboot();
        register_counter(&r2);
        let report = r2.rm.recover().unwrap();
        assert_eq!(report.ops_redone, 2);
        assert_eq!(r2.read(obj(0)), 11);
    }

    #[test]
    fn operation_redo_skips_ops_already_on_disk() {
        let r = rig();
        register_counter(&r);
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        op_add(&r, t, obj(0), 5);
        // Flush: sector seqno now covers the op's LSN.
        r.pool.flush_page(obj(0).first_page()).unwrap();
        r.rm.log_commit(t).unwrap();
        let r2 = r.crash_and_reboot();
        register_counter(&r2);
        let report = r2.rm.recover().unwrap();
        assert_eq!(report.ops_redone, 0, "seqno gate skipped the redo");
        assert_eq!(r2.read(obj(0)), 5);
    }

    #[test]
    fn operation_undo_reverses_loser_effects_on_disk() {
        let r = rig();
        register_counter(&r);
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        op_add(&r, t, obj(0), 9);
        r.rm.force(None).unwrap();
        r.pool.flush_page(obj(0).first_page()).unwrap(); // effect on disk
        let r2 = r.crash_and_reboot();
        register_counter(&r2);
        let report = r2.rm.recover().unwrap();
        assert_eq!(report.ops_undone, 1);
        assert_eq!(r2.read(obj(0)), 0);
    }

    #[test]
    fn operation_loser_never_flushed_needs_no_undo() {
        let r = rig();
        register_counter(&r);
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        op_add(&r, t, obj(0), 9);
        r.rm.force(None).unwrap(); // record durable, page not flushed
        let r2 = r.crash_and_reboot();
        register_counter(&r2);
        let report = r2.rm.recover().unwrap();
        assert_eq!(report.ops_undone, 0, "effect never reached disk");
        assert_eq!(r2.read(obj(0)), 0);
    }

    #[test]
    fn missing_handler_is_reported() {
        let r = rig();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        op_add(&r, t, obj(0), 1); // logs an op without registering a handler
        r.rm.log_commit(t).unwrap();
        let r2 = r.crash_and_reboot();
        let err = r2.rm.recover().unwrap_err();
        assert!(matches!(err, RmError::NoHandler(_)));
    }

    #[test]
    fn mixed_value_and_operation_recovery() {
        let r = rig();
        register_counter(&r);
        let t1 = tid(1); // value-logged, commits
        let t2 = tid(2); // op-logged, loses
        r.rm.log_begin(t1, Tid::NULL);
        r.rm.log_begin(t2, Tid::NULL);
        r.update(t1, obj(1), 100);
        op_add(&r, t2, obj(2), 50);
        r.rm.log_commit(t1).unwrap();
        r.pool.flush_page(obj(2).first_page()).unwrap();
        let r2 = r.crash_and_reboot();
        register_counter(&r2);
        let report = r2.rm.recover().unwrap();
        assert_eq!(r2.read(obj(1)), 100);
        assert_eq!(r2.read(obj(2)), 0);
        assert!(report.value_applied >= 1);
        assert_eq!(report.ops_undone, 1);
    }

    #[test]
    fn rm_messages_are_accounted() {
        let r = rig();
        let before = r.perf.snapshot();
        let t = tid(1);
        r.rm.log_begin(t, Tid::NULL);
        r.update(t, obj(0), 1);
        r.rm.log_commit(t).unwrap();
        let d = r.perf.snapshot().since(&before);
        // begin + update-spool + commit messages, plus the kernel's
        // first-dirty message, plus one stable-storage write at commit.
        assert!(d.get(PrimitiveOp::SmallContiguousMessage) >= 3);
        assert_eq!(d.get(PrimitiveOp::StableStorageWrite), 1);
    }
}
