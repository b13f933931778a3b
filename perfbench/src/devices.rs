//! Outside-in timers for the storage devices under the program.
//!
//! [`TimingLogDevice`] wraps the log device a node's write-ahead log
//! writes to (installed through `Cluster::set_log_device`), and
//! [`TimingDisk`] wraps a recoverable segment's disk (pre-registered in
//! `Cluster::disks()` before the segment is created). Each forwards every
//! call unchanged and records a span when recording is on — a child of
//! the benchmark span open on the calling thread, or detached when none
//! is. The log wrapper also counts forces and appended bytes.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tabs_kernel::storage::{Disk, Sector};
use tabs_wal::LogDevice;

use crate::spans::timed;

/// Call counts of one wrapped log device.
#[derive(Debug, Default)]
pub struct LogCounts {
    /// Payload bytes appended.
    pub append_bytes: AtomicU64,
    /// `force` calls.
    pub forces: AtomicU64,
}

/// A [`LogDevice`] that times and counts every call to the device it
/// wraps.
pub struct TimingLogDevice {
    inner: Arc<dyn LogDevice>,
    counts: LogCounts,
}

impl TimingLogDevice {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn LogDevice>) -> Arc<Self> {
        Arc::new(Self { inner, counts: LogCounts::default() })
    }

    /// The call counts so far.
    pub fn counts(&self) -> &LogCounts {
        &self.counts
    }
}

impl LogDevice for TimingLogDevice {
    fn append(&self, payload: &[u8]) -> io::Result<()> {
        self.counts.append_bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
        timed("wal.append", None, || self.inner.append(payload))
    }

    fn force(&self) -> io::Result<()> {
        self.counts.forces.fetch_add(1, Ordering::Relaxed);
        timed("wal.force", None, || self.inner.force())
    }

    fn scan(&self) -> io::Result<Vec<Vec<u8>>> {
        timed("wal.scan", None, || self.inner.scan())
    }

    fn truncate_front(&self, n: usize) -> io::Result<()> {
        self.inner.truncate_front(n)
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }
}

/// A [`Disk`] that times every read and write of the disk it wraps.
pub struct TimingDisk {
    inner: Arc<dyn Disk>,
}

impl TimingDisk {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Disk>) -> Arc<Self> {
        Arc::new(Self { inner })
    }
}

impl Disk for TimingDisk {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&self, idx: u64) -> io::Result<Sector> {
        timed("vm.disk_read", None, || self.inner.read(idx))
    }

    fn write(&self, idx: u64, sector: &Sector) -> io::Result<()> {
        timed("vm.disk_write", None, || self.inner.write(idx, sector))
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}
