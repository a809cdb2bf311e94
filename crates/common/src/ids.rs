//! Strongly-typed identifiers for the database kernel.
//!
//! All identifiers are thin newtypes over integers so they are free to copy
//! and hash, while preventing the classic bug of passing a transaction id
//! where a block address was expected.

use std::fmt;

/// System Change Number: the logical clock of the database.
///
/// Every redo record is stamped with the SCN at which its changes were made;
/// a transaction's changes become visible atomically at its *commit SCN*.
/// SCNs are totally ordered and strictly increasing on the primary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Scn(pub u64);

impl Scn {
    /// SCN zero: before any change in the system.
    pub const ZERO: Scn = Scn(0);
    /// Largest representable SCN (used as an "infinity" sentinel).
    pub const MAX: Scn = Scn(u64::MAX);

    /// The next SCN after `self`.
    #[inline]
    pub fn next(self) -> Scn {
        Scn(self.0 + 1)
    }

    /// Raw value accessor, for arithmetic in tests and harnesses.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Scn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scn:{}", self.0)
    }
}

impl fmt::Display for Scn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Database Block Address: uniquely identifies one block of a datafile.
///
/// Redo change vectors target exactly one DBA, and parallel redo apply
/// partitions work by hashing the DBA (paper §II.A, Fig. 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dba(pub u64);

impl Dba {
    /// Raw value accessor.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Stable hash used to assign this block to one of `n` recovery workers.
    ///
    /// A multiplicative (Fibonacci) hash: cheap and well spread even for
    /// sequential DBAs, which is the common allocation pattern.
    #[inline]
    pub fn worker_hash(self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize % n
    }
}

impl fmt::Debug for Dba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dba:{}", self.0)
    }
}

/// Identifier of a schema object (a table or table partition segment).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u32);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

/// Transaction identifier, unique across the life of the primary database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Bucket index for a hash table with `n` buckets (IM-ADG journal).
    #[inline]
    pub fn bucket(self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.0.wrapping_mul(0xD1B5_4A32_D192_ED03)) >> 33) as usize % n
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn:{}", self.0)
    }
}

/// Tenant (pluggable-database) identifier.
///
/// DBIM-on-ADG runs under multi-tenant Oracle; invalidation records carry
/// the tenant, and coarse invalidation after a standby restart is scoped to
/// one tenant (paper §III.B, §III.E).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The default tenant used by single-tenant deployments.
    pub const DEFAULT: TenantId = TenantId(1);
}

impl fmt::Debug for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tnt:{}", self.0)
    }
}

/// Identifier of a database instance within a (RAC) cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(pub u8);

impl InstanceId {
    /// Conventional id of the standby master (SIRA) instance.
    pub const MASTER: InstanceId = InstanceId(0);
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst:{}", self.0)
    }
}

/// Identifier of a redo thread (one per primary RAC instance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RedoThreadId(pub u8);

impl fmt::Debug for RedoThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rt:{}", self.0)
    }
}

/// Index of a recovery worker process on the standby.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WorkerId(pub u16);

impl fmt::Debug for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w:{}", self.0)
    }
}

/// Row slot number within a block.
pub type SlotId = u16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scn_ordering_and_next() {
        assert!(Scn(1) < Scn(2));
        assert_eq!(Scn(1).next(), Scn(2));
        assert_eq!(Scn::ZERO.raw(), 0);
        assert!(Scn::MAX > Scn(u64::MAX - 1));
    }

    #[test]
    fn dba_worker_hash_in_range_and_spread() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for i in 0..10_000u64 {
            let w = Dba(i).worker_hash(n);
            assert!(w < n);
            counts[w] += 1;
        }
        // Sequential DBAs should spread across all workers reasonably evenly.
        for &c in &counts {
            assert!(c > 10_000 / n / 2, "skewed: {counts:?}");
        }
    }

    #[test]
    fn dba_worker_hash_single_worker() {
        assert_eq!(Dba(12345).worker_hash(1), 0);
    }

    #[test]
    fn txn_bucket_in_range() {
        for i in 0..1000u64 {
            assert!(TxnId(i).bucket(64) < 64);
        }
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Scn(7)), "scn:7");
        assert_eq!(format!("{:?}", Dba(3)), "dba:3");
        assert_eq!(format!("{:?}", ObjectId(2)), "obj:2");
        assert_eq!(format!("{:?}", TxnId(9)), "txn:9");
        assert_eq!(format!("{:?}", TenantId(1)), "tnt:1");
        assert_eq!(format!("{:?}", InstanceId(0)), "inst:0");
        assert_eq!(format!("{:?}", WorkerId(4)), "w:4");
        assert_eq!(format!("{:?}", RedoThreadId(2)), "rt:2");
    }
}
