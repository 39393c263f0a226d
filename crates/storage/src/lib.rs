//! # lmas-storage — disk timing models
//!
//! The storage substrate beneath the LMAS programming model. It decides
//! what an I/O *costs* in virtual time and holds no bytes: record
//! contents travel through the emulator as packets, and a node charges
//! the models here for the transfers those packets imply.
//!
//! - [`bte`]: transfer counters ([`BteStats`]);
//! - [`disk_model`]: the paper's sequential-rate disk timing model with
//!   read-ahead and write-behind;
//! - [`stripe`]: striped multi-disk extents (`d` spindles per ASU,
//!   deterministic block→disk placement, parallel virtual-time charges);
//! - [`pool`]: sharded clock-LRU buffer pool with pin/unpin, dirty
//!   tracking, and write-behind coalescing;
//! - [`sched`]: bounded-window elevator scheduler (FCFS across windows).

#![warn(missing_docs)]

pub mod bte;
pub mod disk_model;
pub mod pool;
pub mod sched;
pub mod stripe;

pub use bte::BteStats;
pub use disk_model::{DiskParams, DiskSim};
pub use pool::{BufferPool, PoolEvent, PoolParams, PoolStats};
pub use sched::{DiskScheduler, IoReq};
pub use stripe::StripedDisk;

/// Per-node storage substrate configuration: how many spindles, how they
/// are striped, and whether the buffer pool / scheduler / read-ahead
/// pipeline are engaged. The default (`d = 1`, pool off, window 1) is the
/// plain single-disk model and is byte-identical to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageSpec {
    /// Spindles per ASU brick (hosts always keep one).
    pub disks: usize,
    /// Stripe unit in blocks (round-robin granularity across spindles).
    pub blocks_per_stripe: u64,
    /// Block size in bytes for striping, pooling, and scheduling.
    pub block_bytes: u64,
    /// Buffer-pool frames per node; 0 disables the pool (and with it the
    /// staged read-ahead pipeline).
    pub pool_frames: usize,
    /// Source read-ahead depth in packets: how many packets beyond the
    /// one being processed may be staged in pool frames. 0 = demand
    /// paging (only meaningful when the pool is on).
    pub read_ahead: usize,
    /// Let DSM-Sort functors pick `read_ahead` via their prefetch hints.
    pub auto_read_ahead: bool,
    /// Scheduler window in requests; 1 = pure FCFS (no scheduler).
    pub sched_window: usize,
}

impl Default for StorageSpec {
    fn default() -> StorageSpec {
        StorageSpec {
            disks: 1,
            blocks_per_stripe: 16,
            block_bytes: 64 << 10,
            pool_frames: 0,
            read_ahead: 0,
            auto_read_ahead: false,
            sched_window: 1,
        }
    }
}

impl StorageSpec {
    /// The default spec with `d` spindles per ASU.
    pub fn striped(d: usize) -> StorageSpec {
        assert!(d > 0, "need at least one disk");
        StorageSpec {
            disks: d,
            ..StorageSpec::default()
        }
    }

    /// This spec with a buffer pool of `frames` frames.
    pub fn with_pool(mut self, frames: usize) -> StorageSpec {
        self.pool_frames = frames;
        self
    }

    /// This spec with a fixed source read-ahead depth of `k` packets.
    pub fn with_read_ahead(mut self, k: usize) -> StorageSpec {
        self.read_ahead = k;
        self
    }

    /// This spec with functor-driven read-ahead tuning.
    pub fn with_auto_read_ahead(mut self) -> StorageSpec {
        self.auto_read_ahead = true;
        self
    }

    /// This spec with a scheduler window of `w` requests.
    pub fn with_sched_window(mut self, w: usize) -> StorageSpec {
        assert!(w >= 1, "window must hold at least one request");
        self.sched_window = w;
        self
    }

    /// This spec with `b`-byte blocks.
    pub fn with_block_bytes(mut self, b: u64) -> StorageSpec {
        assert!(b > 0, "block size must be positive");
        self.block_bytes = b;
        self
    }

    /// Whether this spec is the plain legacy model (single spindle, no
    /// pool, no scheduler): nodes then charge the disk directly and the
    /// run is byte-identical to the pre-substrate emulator.
    pub fn is_plain(&self) -> bool {
        self.disks == 1 && self.pool_frames == 0 && self.sched_window <= 1
    }
}
