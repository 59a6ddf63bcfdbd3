//! GPF-based snapshots — the one algorithmic use the paper grants the
//! Global Persistent Flush (§3.2): "a carefully designed algorithm may
//! still employ GPF for snapshots, thanks to its global and blocking
//! properties."
//!
//! [`take_gpf_snapshot`] issues a `GPF` (draining *every* cache in the
//! coherence domain to its backing memory) and then reads each location's
//! memory image. Because the GPF is global and blocking, the result is a
//! consistent cut of the whole system at the GPF point: it contains every
//! store that completed before the GPF, on any machine, and a crash
//! immediately after the snapshot loses nothing the snapshot holds (for
//! non-volatile memories).

use std::collections::BTreeMap;
use std::fmt;

use cxl0_model::Loc;

use crate::backend::NodeHandle;
use crate::error::OpResult;

/// A consistent image of every shared location's persistent state, taken
/// at a GPF point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySnapshot {
    values: BTreeMap<Loc, u64>,
}

impl MemorySnapshot {
    /// The snapshotted value of `loc`, if `loc` exists in the system.
    pub fn get(&self, loc: Loc) -> Option<u64> {
        self.values.get(&loc).copied()
    }

    /// Number of locations captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the system has no shared locations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over `(location, value)` pairs in location order.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, u64)> + '_ {
        self.values.iter().map(|(&l, &v)| (l, v))
    }

    /// Locations whose value differs between the two snapshots, with
    /// `(self value, other value)`.
    pub fn diff(&self, other: &MemorySnapshot) -> Vec<(Loc, u64, u64)> {
        self.values
            .iter()
            .filter_map(|(&loc, &v)| {
                let w = other.get(loc)?;
                (v != w).then_some((loc, v, w))
            })
            .collect()
    }

    /// Locations with non-zero values (the "interesting" part of a mostly
    /// untouched address space).
    pub fn nonzero(&self) -> Vec<(Loc, u64)> {
        self.iter().filter(|&(_, v)| v != 0).collect()
    }
}

impl fmt::Display for MemorySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot{{")?;
        for (i, (loc, v)) in self.nonzero().into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{loc}={v}")?;
        }
        write!(f, "}}")
    }
}

/// Drains all caches with a `GPF` and captures every location's memory
/// image. Blocking and global, as §3.2 describes; expensive, intended for
/// planned checkpoints rather than per-operation durability.
///
/// # Errors
///
/// Fails if the issuing machine has crashed.
pub fn take_gpf_snapshot(node: &NodeHandle) -> OpResult<MemorySnapshot> {
    let _span = node.span(crate::trace::OpKind::GpfSnapshot);
    node.gpf()?;
    let mut values = BTreeMap::new();
    for loc in node.fabric().config().all_locations() {
        // After the GPF no cache holds any line, so each load is a
        // LOAD-from-M and leaves the state unchanged.
        values.insert(loc, node.load(loc)?);
    }
    Ok(MemorySnapshot { values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use cxl0_model::{MachineId, SystemConfig};

    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);

    fn x(o: usize, a: u32) -> Loc {
        Loc::new(MachineId(o), a)
    }

    #[test]
    fn snapshot_sees_cached_stores_after_drain() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4));
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 7).unwrap(); // only in m0's cache
        n0.lstore(x(0, 1), 8).unwrap();
        let snap = take_gpf_snapshot(&n0).unwrap();
        assert_eq!(snap.get(x(1, 0)), Some(7));
        assert_eq!(snap.get(x(0, 1)), Some(8));
        // The GPF drained them into memory for real:
        assert_eq!(f.peek_memory(x(1, 0)), 7);
    }

    #[test]
    fn crash_right_after_snapshot_loses_nothing() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4));
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 7).unwrap();
        let snap = take_gpf_snapshot(&n0).unwrap();
        f.crash(M1);
        f.crash(M0);
        f.recover(M0);
        f.recover(M1);
        for (loc, v) in snap.iter() {
            assert_eq!(f.peek_memory(loc), v, "{loc} diverged from the snapshot");
        }
    }

    #[test]
    fn diff_reports_changes_between_checkpoints() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4));
        let n0 = f.node(M0);
        n0.mstore(x(0, 0), 1).unwrap();
        let a = take_gpf_snapshot(&n0).unwrap();
        n0.lstore(x(0, 0), 2).unwrap();
        n0.lstore(x(1, 3), 9).unwrap();
        let b = take_gpf_snapshot(&n0).unwrap();
        let d = a.diff(&b);
        assert_eq!(d, vec![(x(0, 0), 1, 2), (x(1, 3), 0, 9)]);
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn snapshot_accessors() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 2));
        let n0 = f.node(M0);
        n0.mstore(x(1, 1), 5).unwrap();
        let snap = take_gpf_snapshot(&n0).unwrap();
        assert_eq!(snap.len(), 4);
        assert!(!snap.is_empty());
        assert_eq!(snap.nonzero(), vec![(x(1, 1), 5)]);
        assert_eq!(snap.get(Loc::new(MachineId(5), 0)), None);
        assert!(snap.to_string().contains("x[m1:a1]=5"));
    }

    #[test]
    fn volatile_memory_snapshot_does_not_survive_its_owner() {
        // The snapshot is only as durable as the media backing it —
        // GPF gives consistency, not non-volatility.
        let f = SimFabric::new(SystemConfig::symmetric_volatile(2, 2));
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 7).unwrap();
        let snap = take_gpf_snapshot(&n0).unwrap();
        assert_eq!(snap.get(x(1, 0)), Some(7));
        f.crash(M1);
        f.recover(M1);
        assert_eq!(f.peek_memory(x(1, 0)), 0);
    }
}
