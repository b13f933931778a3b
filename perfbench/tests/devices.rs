//! The timing device wrappers forward every call unchanged, and keep the
//! crash semantics of the device they wrap.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use perfbench::devices::{TimingDisk, TimingLogDevice};
use tabs_kernel::storage::{Disk, MemDisk, Sector};
use tabs_kernel::{NodeId, PerfCounters, Tid};
use tabs_wal::{FaultLogDevice, LogDevice, LogFaults, LogManager, LogRecord};

/// A log device that records every call it receives.
#[derive(Default)]
struct Recording {
    calls: Mutex<Vec<String>>,
    frames: Mutex<Vec<Vec<u8>>>,
}

impl LogDevice for Recording {
    fn append(&self, payload: &[u8]) -> io::Result<()> {
        self.calls.lock().unwrap().push(format!("append {}", payload.len()));
        self.frames.lock().unwrap().push(payload.to_vec());
        Ok(())
    }
    fn force(&self) -> io::Result<()> {
        self.calls.lock().unwrap().push("force".into());
        Ok(())
    }
    fn scan(&self) -> io::Result<Vec<Vec<u8>>> {
        self.calls.lock().unwrap().push("scan".into());
        Ok(self.frames.lock().unwrap().clone())
    }
    fn truncate_front(&self, n: usize) -> io::Result<()> {
        self.calls.lock().unwrap().push(format!("truncate {n}"));
        self.frames.lock().unwrap().drain(..n);
        Ok(())
    }
    fn len_bytes(&self) -> u64 {
        self.calls.lock().unwrap().push("len".into());
        7
    }
    fn capacity_bytes(&self) -> u64 {
        self.calls.lock().unwrap().push("capacity".into());
        1 << 20
    }
}

#[test]
fn log_wrapper_forwards_every_call() {
    let inner = Arc::new(Recording::default());
    let dev = TimingLogDevice::new(Arc::clone(&inner) as Arc<dyn LogDevice>);
    dev.append(b"abc").unwrap();
    dev.append(b"de").unwrap();
    dev.force().unwrap();
    assert_eq!(dev.scan().unwrap(), vec![b"abc".to_vec(), b"de".to_vec()]);
    dev.truncate_front(1).unwrap();
    assert_eq!(dev.len_bytes(), 7);
    assert_eq!(dev.capacity_bytes(), 1 << 20);
    assert_eq!(
        *inner.calls.lock().unwrap(),
        ["append 3", "append 2", "force", "scan", "truncate 1", "len", "capacity"]
    );
    let c = dev.counts();
    assert_eq!(c.append_bytes.load(Ordering::Relaxed), 5);
    assert_eq!(c.forces.load(Ordering::Relaxed), 1);
}

#[test]
fn unforced_bytes_are_lost_across_a_crash() {
    let faults = LogFaults::new();
    let device = TimingLogDevice::new(FaultLogDevice::new(1 << 20, Arc::clone(&faults)));
    device.append(b"forced").unwrap();
    device.force().unwrap();
    device.append(b"staged").unwrap();
    // Power fails: the device stops taking writes; the disk is read back
    // at reboot.
    faults.halt();
    assert_eq!(device.scan().unwrap(), vec![b"forced".to_vec()]);
}

#[test]
fn unforced_log_records_are_lost_across_a_crash() {
    let device: Arc<dyn LogDevice> =
        TimingLogDevice::new(FaultLogDevice::new(1 << 20, LogFaults::new()));
    let tid = |seq| Tid { node: NodeId(1), incarnation: 1, seq };
    let log = LogManager::open(Arc::clone(&device), PerfCounters::new()).unwrap();
    log.append_forced(LogRecord::Begin { tid: tid(1), parent: Tid::NULL }).unwrap();
    log.append(LogRecord::Begin { tid: tid(2), parent: Tid::NULL });
    drop(log); // crash: the log manager's volatile buffer is gone
    let reopened = LogManager::open(device, PerfCounters::new()).unwrap();
    let records: Vec<LogRecord> =
        reopened.durable_entries().into_iter().map(|e| e.record).collect();
    assert_eq!(records, vec![LogRecord::Begin { tid: tid(1), parent: Tid::NULL }]);
}

/// A disk that counts the calls it receives.
struct CountingDisk {
    inner: Arc<MemDisk>,
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
}

impl Disk for CountingDisk {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }
    fn read(&self, idx: u64) -> io::Result<Sector> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(idx)
    }
    fn write(&self, idx: u64, sector: &Sector) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write(idx, sector)
    }
    fn sync(&self) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

#[test]
fn disk_wrapper_forwards_every_call() {
    let inner = Arc::new(CountingDisk {
        inner: MemDisk::new(4),
        reads: AtomicU64::new(0),
        writes: AtomicU64::new(0),
        syncs: AtomicU64::new(0),
    });
    let disk = TimingDisk::new(Arc::clone(&inner) as Arc<dyn Disk>);
    assert_eq!(disk.num_sectors(), 4);
    let mut sector = Sector::zeroed();
    sector.header = 9;
    sector.data[0] = 42;
    disk.write(2, &sector).unwrap();
    disk.sync().unwrap();
    let back = disk.read(2).unwrap();
    assert_eq!((back.header, back.data[0]), (9, 42));
    assert!(disk.read(4).is_err(), "out-of-range reads still fail");
    assert_eq!(inner.reads.load(Ordering::Relaxed), 2);
    assert_eq!(inner.writes.load(Ordering::Relaxed), 1);
    assert_eq!(inner.syncs.load(Ordering::Relaxed), 1);
}
