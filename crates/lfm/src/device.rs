//! The simulated raw disk device, with injectable failures.
//!
//! All durable bytes — data pages *and* the metadata region (superblock,
//! directory snapshots, journal) — live in one flat byte array standing
//! in for the paper's raw OS disk partition.  Every mutation funnels
//! through [`SimDevice::write`], which consults the
//! [`qbism_fault`] plane: an armed schedule can error the op, tear it
//! (persist only a prefix), crash the device, or tax it with simulated
//! latency.  A crashed device refuses all traffic until recovery clears
//! the flag, exactly like a machine that lost power.

use crate::{LfmError, Result};
use qbism_fault::FaultOutcome;
use std::sync::atomic::{AtomicBool, Ordering};

pub(crate) struct SimDevice {
    bytes: Vec<u8>,
    /// Atomic so concurrent readers can consult (and set) the crash flag
    /// through `&self` while writers still require `&mut self`.
    crashed: AtomicBool,
}

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("bytes", &self.bytes.len())
            .field("crashed", &self.is_crashed())
            .finish()
    }
}

impl SimDevice {
    pub(crate) fn new(len: usize) -> SimDevice {
        SimDevice { bytes: vec![0u8; len], crashed: AtomicBool::new(false) }
    }

    pub(crate) fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Recovery brings the machine back up.
    pub(crate) fn clear_crash(&mut self) {
        self.crashed.store(false, Ordering::Release);
    }

    /// Read-side fault gate: call once per logical device read.  Returns
    /// injected latency seconds (usually `0.0`); afterwards the caller
    /// may copy bytes out via [`SimDevice::slice`].
    pub(crate) fn gate_read(&self, site: &'static str) -> Result<f64> {
        if self.is_crashed() {
            return Err(LfmError::Crashed);
        }
        match qbism_fault::inject(site) {
            None => Ok(0.0),
            Some(FaultOutcome::Latency { seconds }) => Ok(seconds.max(0.0)),
            Some(FaultOutcome::Crash) => {
                self.crashed.store(true, Ordering::Release);
                Err(LfmError::Crashed)
            }
            Some(_) => Err(LfmError::DeviceFault { op: site }),
        }
    }

    /// A faultable write of `data` at byte offset `off`.  On a torn
    /// write the surviving prefix *is* persisted — that is the whole
    /// point — and the call still errors.  Returns injected latency
    /// seconds on success.
    pub(crate) fn write(&mut self, site: &'static str, off: usize, data: &[u8]) -> Result<f64> {
        if self.is_crashed() {
            return Err(LfmError::Crashed);
        }
        match qbism_fault::inject(site) {
            None => {
                self.bytes[off..off + data.len()].copy_from_slice(data);
                Ok(0.0)
            }
            Some(FaultOutcome::Latency { seconds }) => {
                self.bytes[off..off + data.len()].copy_from_slice(data);
                Ok(seconds.max(0.0))
            }
            Some(FaultOutcome::Torn { fraction }) => {
                let keep = (data.len() as f64 * fraction.clamp(0.0, 1.0)) as usize;
                let keep = keep.min(data.len());
                self.bytes[off..off + keep].copy_from_slice(&data[..keep]);
                Err(LfmError::DeviceFault { op: site })
            }
            Some(FaultOutcome::Crash) => {
                // Power dies before the write reaches the platter.
                self.crashed.store(true, Ordering::Release);
                Err(LfmError::Crashed)
            }
            Some(FaultOutcome::Error) | Some(FaultOutcome::Drop) => {
                Err(LfmError::DeviceFault { op: site })
            }
        }
    }

    /// Raw bytes, no fault gate — for copies that already passed a gate
    /// and for recovery, which inspects the medium directly.
    pub(crate) fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }

    /// Raw write, no fault gate — recovery rollback and in-memory
    /// repair after a failed data write.
    pub(crate) fn write_direct(&mut self, off: usize, data: &[u8]) {
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_fault::FaultPlane;

    #[test]
    fn unfaulted_device_just_stores_bytes() {
        let mut d = SimDevice::new(64);
        assert_eq!(d.write("lfm.write", 3, b"abc").unwrap(), 0.0);
        assert_eq!(d.gate_read("lfm.read").unwrap(), 0.0);
        assert_eq!(d.slice(3, 3), b"abc");
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let mut d = SimDevice::new(64);
        let _scope = FaultPlane::new(7).torn_nth("lfm.write", 1, 0.5).arm();
        let err = d.write("lfm.write", 0, &[9u8; 8]).unwrap_err();
        assert_eq!(err, LfmError::DeviceFault { op: "lfm.write" });
        assert_eq!(d.slice(0, 8), &[9, 9, 9, 9, 0, 0, 0, 0]);
        assert!(!d.is_crashed(), "a torn write is not a crash");
    }

    #[test]
    fn crash_stops_all_traffic_until_cleared() {
        let mut d = SimDevice::new(64);
        let scope = FaultPlane::new(7).crash_nth("lfm.write", 1).arm();
        assert_eq!(d.write("lfm.write", 0, &[1]), Err(LfmError::Crashed));
        assert_eq!(d.slice(0, 1), &[0], "nothing persisted at the crash point");
        assert_eq!(d.write("lfm.write", 0, &[1]), Err(LfmError::Crashed));
        assert_eq!(d.gate_read("lfm.read"), Err(LfmError::Crashed));
        drop(scope);
        d.clear_crash();
        assert!(d.write("lfm.write", 0, &[1]).is_ok());
    }

    #[test]
    fn latency_outcome_surfaces_seconds() {
        let d = SimDevice::new(16);
        let _scope = FaultPlane::new(7)
            .rule("lfm.read", qbism_fault::Trigger::Always, FaultOutcome::Latency { seconds: 0.5 })
            .arm();
        assert_eq!(d.gate_read("lfm.read").unwrap(), 0.5);
    }
}
