//! Replica identifiers for the version-vector family of mechanisms.
//!
//! Version vectors and vector clocks require every participant to hold a
//! unique identifier before it can record updates — the *identification
//! requirement* the paper sets out to remove. In this reproduction the
//! identifiers are allocated by the mechanism object itself, which plays the
//! role of the global naming service such systems must assume.

use core::fmt;

/// Identifier of one replica in a version-vector-style mechanism.
///
/// # Examples
///
/// ```
/// use vstamp_baselines::ReplicaId;
/// let a = ReplicaId::new(0);
/// let b = ReplicaId::new(1);
/// assert_ne!(a, b);
/// assert_eq!(a.to_string(), "r0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(u64);

impl ReplicaId {
    /// Wraps a raw replica number.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        ReplicaId(raw)
    }

    /// The raw replica number.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for ReplicaId {
    fn from(raw: u64) -> Self {
        ReplicaId(raw)
    }
}

/// A deterministic allocator of fresh replica identifiers — the stand-in for
/// the global naming protocol that version-vector systems require.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaAllocator {
    next: u64,
}

impl ReplicaAllocator {
    /// Creates an allocator that will hand out `r0`, `r1`, ….
    #[must_use]
    pub fn new() -> Self {
        ReplicaAllocator::default()
    }

    /// Allocates the next identifier.
    pub fn fresh(&mut self) -> ReplicaId {
        let id = ReplicaId(self.next);
        self.next += 1;
        id
    }

    /// Number of identifiers allocated so far.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_id_basics() {
        let id = ReplicaId::new(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(id.to_string(), "r7");
        assert_eq!(ReplicaId::from(7u64), id);
        assert!(ReplicaId::new(1) < ReplicaId::new(2));
    }

    #[test]
    fn allocator_hands_out_distinct_ids() {
        let mut alloc = ReplicaAllocator::new();
        let a = alloc.fresh();
        let b = alloc.fresh();
        let c = alloc.fresh();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(alloc.allocated(), 3);
        assert_eq!(a, ReplicaId::new(0));
        assert_eq!(c, ReplicaId::new(2));
    }
}
