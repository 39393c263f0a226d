//! Transfer counters.
//!
//! TPIE — the external-memory toolkit the paper extends — puts storage
//! behind a pluggable Block Transfer Engine (BTE) and counts what crosses
//! it. This crate models what an I/O *costs*, not what it holds, so the
//! counters are the part of that seam it keeps.

/// Transfer counters — the single counter type shared by
/// [`DiskSim`](crate::DiskSim), the striped array, and the emulator's
/// per-node reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BteStats {
    /// Read requests issued to the media.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Bytes read (valid payload).
    pub bytes_read: u64,
    /// Bytes written (valid payload).
    pub bytes_written: u64,
}

impl BteStats {
    /// The counters as a `(reads, writes, bytes_read, bytes_written)`
    /// tuple (legacy report shape).
    pub fn as_tuple(&self) -> (u64, u64, u64, u64) {
        (self.reads, self.writes, self.bytes_read, self.bytes_written)
    }

    /// Sum of two counter sets (aggregating a disk array).
    pub fn merged(self, other: BteStats) -> BteStats {
        BteStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }
}

impl std::ops::AddAssign for BteStats {
    fn add_assign(&mut self, other: BteStats) {
        *self = self.merged(other);
    }
}
