//! Version stamps (Sections 4 and 6).
//!
//! A version stamp is a pair `(update, id)` of [names](crate::Name). The
//! three operations of Definition 4.3 transform stamps *locally* — no global
//! state of any kind is consulted:
//!
//! * `update`: `(u, i) → (i, i)` — the identity is copied into the update
//!   component;
//! * `fork`: `(u, i) → (u, i·0), (u, i·1)` — the identity is split by
//!   appending a bit to every string;
//! * `join`: `(u_a, i_a), (u_b, i_b) → (u_a ⊔ u_b, i_a ⊔ i_b)` — both
//!   components are joined in the name semilattice, and (in the reducing
//!   variant of Section 6) the result is simplified.
//!
//! Two coexisting stamps are compared through their update components:
//! `a ≤ b ⟺ fst(a) ⊑ fst(b)`, which by Corollary 5.2 coincides with
//! inclusion of causal histories for elements of the same frontier.
//!
//! # Frontier ordering, not global ordering
//!
//! Version stamps order elements of the *same frontier* (coexisting
//! replicas). Comparing a live stamp against a stale one — e.g. a replica
//! that has since been consumed by a join — is not meaningful, exactly as in
//! the paper (Section 1.2). Keep only the stamps of live replicas.
//!
//! # Examples
//!
//! The canonical fork/update/join round trip over three replicas:
//!
//! ```
//! use vstamp_core::{Relation, VersionStamp};
//!
//! let seed = VersionStamp::seed();
//! let (a, rest) = seed.fork();
//! let (b, c) = rest.fork();
//! assert_eq!(a.relation(&b), Relation::Equal); // nothing written yet
//!
//! let a = a.update();                          // write on replica a
//! assert_eq!(a.relation(&b), Relation::Dominates);
//!
//! let b = b.update();                          // concurrent write on b
//! assert_eq!(a.relation(&b), Relation::Concurrent);
//!
//! let merged = a.join(&b);                     // reconcile a and b
//! assert_eq!(merged.relation(&c), Relation::Dominates); // c missed both writes
//! ```

use core::fmt;

use crate::bitstring::Bit;
use crate::error::StampError;
use crate::name::Name;
use crate::name_like::NameLike;
use crate::packed::PackedName;
use crate::relation::Relation;

/// Whether joins apply the simplification rule of Section 6.
///
/// The paper first proves the mechanism correct without simplification
/// (Sections 4–5) and then shows the rewriting rule preserves every invariant
/// and the frontier order (Section 6). The evaluation (experiment E9)
/// measures how much space the rule saves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Reduction {
    /// Simplify after every join (the practical mechanism).
    #[default]
    Reducing,
    /// Never simplify (the model of Section 4, used as the proof baseline).
    NonReducing,
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Reduction::Reducing => "reducing",
            Reduction::NonReducing => "non-reducing",
        })
    }
}

/// A version stamp `(update, id)`, generic over the name representation.
///
/// Use the [`VersionStamp`] alias (packed tag array, the workspace default)
/// unless you specifically want the literal antichain representation
/// ([`SetStamp`]), the executable specification.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Stamp<N = PackedName> {
    update: N,
    id: N,
}

/// Version stamp backed by the flat preorder tag array ([`PackedName`]) —
/// the workspace default: cache-friendly, allocation-free hot paths (see
/// the `repr` ablation in the benchmark crate).
pub type VersionStamp = Stamp<PackedName>;

/// Version stamp backed by the literal antichain-of-strings representation
/// of the paper; used by the model-level tests and the `repr` ablation.
pub type SetStamp = Stamp<Name>;

impl<N: NameLike> Stamp<N> {
    /// The stamp of the initial element of a system: `({ε}, {ε})`
    /// (Definition 4.3).
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::VersionStamp;
    /// let seed = VersionStamp::seed();
    /// assert!(seed.is_seed_identity());
    /// assert_eq!(seed.to_string(), "[{ε} | {ε}]");
    /// ```
    #[must_use]
    pub fn seed() -> Self {
        Stamp { update: N::epsilon(), id: N::epsilon() }
    }

    /// Builds a stamp from its two components, validating well-formedness.
    ///
    /// # Errors
    ///
    /// Returns [`StampError::EmptyId`] if the id is the empty name (a live
    /// element always owns at least one string) and
    /// [`StampError::UpdateExceedsId`] if Invariant I1 (`update ⊑ id`) does
    /// not hold.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Name, SetStamp};
    /// let update: Name = "{0}".parse().unwrap();
    /// let id: Name = "{0, 1}".parse().unwrap();
    /// let stamp = SetStamp::from_parts(update, id)?;
    /// assert_eq!(stamp.to_string(), "[{0} | {0, 1}]");
    /// # Ok::<(), vstamp_core::StampError>(())
    /// ```
    pub fn from_parts(update: N, id: N) -> Result<Self, StampError> {
        if id.is_empty() {
            return Err(StampError::EmptyId);
        }
        if !update.leq(&id) {
            return Err(StampError::UpdateExceedsId { update: update.to_name(), id: id.to_name() });
        }
        Ok(Stamp { update, id })
    }

    /// Builds a stamp from its components without validation.
    ///
    /// Useful for constructing counterexamples in tests; every stamp produced
    /// by the public operations satisfies the checked conditions, so library
    /// code should prefer [`Stamp::from_parts`].
    #[must_use]
    pub fn from_parts_unchecked(update: N, id: N) -> Self {
        Stamp { update, id }
    }

    /// The update component (`fst` in the paper) — what this element knows
    /// about past updates.
    #[must_use]
    pub fn update_name(&self) -> &N {
        &self.update
    }

    /// The id component (`snd` in the paper) — the element's identity within
    /// the current frontier.
    #[must_use]
    pub fn id_name(&self) -> &N {
        &self.id
    }

    /// Deconstructs the stamp into `(update, id)`.
    #[must_use]
    pub fn into_parts(self) -> (N, N) {
        (self.update, self.id)
    }

    /// Returns `true` when the identity is `{ε}`, i.e. this element is (or
    /// has collapsed back into) the sole owner of the whole identity space.
    #[must_use]
    pub fn is_seed_identity(&self) -> bool {
        self.id.is_epsilon()
    }

    /// The `update` operation: `(u, i) → (i, i)`.
    ///
    /// Subsequent updates with no intervening fork or join leave the stamp
    /// unchanged — information irrelevant to frontier comparison is never
    /// stored.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::VersionStamp;
    /// let (a, _b) = VersionStamp::seed().fork();
    /// let once = a.update();
    /// let twice = once.update();
    /// assert_eq!(once, twice);
    /// ```
    #[must_use]
    pub fn update(&self) -> Self {
        Stamp { update: self.id.clone(), id: self.id.clone() }
    }

    /// The `fork` operation: `(u, i) → ((u, i·0), (u, i·1))`.
    ///
    /// Forking is how replicas are created; it requires no coordination and
    /// can be performed under any partition.
    #[must_use]
    pub fn fork(&self) -> (Self, Self) {
        (
            Stamp { update: self.update.clone(), id: self.id.append(Bit::Zero) },
            Stamp { update: self.update.clone(), id: self.id.append(Bit::One) },
        )
    }

    /// The `join` operation with simplification (Section 6):
    /// `(u_a ⊔ u_b, i_a ⊔ i_b)` reduced to normal form.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::VersionStamp;
    /// let (a, b) = VersionStamp::seed().fork();
    /// let joined = a.join(&b);
    /// assert_eq!(joined, VersionStamp::seed());
    /// ```
    #[must_use]
    pub fn join(&self, other: &Self) -> Self {
        self.join_with(other, Reduction::Reducing)
    }

    /// The `join` operation of Definition 4.3, without simplification.
    #[must_use]
    pub fn join_non_reducing(&self, other: &Self) -> Self {
        self.join_with(other, Reduction::NonReducing)
    }

    /// Joins under an explicit [`Reduction`] policy.
    #[must_use]
    pub fn join_with(&self, other: &Self, reduction: Reduction) -> Self {
        let joined = Stamp { update: self.update.join(&other.update), id: self.id.join(&other.id) };
        match reduction {
            Reduction::Reducing => joined.reduce(),
            Reduction::NonReducing => joined,
        }
    }

    /// Applies the simplification rule of Section 6 until it no longer
    /// applies, returning the normal form of the stamp.
    #[must_use]
    pub fn reduce(&self) -> Self {
        let (update, id) = N::reduce_pair(&self.update, &self.id);
        Stamp { update, id }
    }

    /// Returns `true` when no simplification step applies.
    #[must_use]
    pub fn is_reduced(&self) -> bool {
        self == &self.reduce()
    }

    /// Synchronization of two replicas, expressed as join followed by fork
    /// (Section 1.1): both replicas end up with the combined knowledge and
    /// fresh disjoint identities.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Relation, VersionStamp};
    /// let (a, b) = VersionStamp::seed().fork();
    /// let a = a.update();
    /// let (a2, b2) = a.sync(&b);
    /// assert_eq!(a2.relation(&b2), Relation::Equal);
    /// ```
    #[must_use]
    pub fn sync(&self, other: &Self) -> (Self, Self) {
        self.join(other).fork()
    }

    /// Whether this stamp's knowledge is included in `other`'s:
    /// `fst(self) ⊑ fst(other)`.
    #[must_use]
    pub fn leq(&self, other: &Self) -> bool {
        self.update.leq(&other.update)
    }

    /// Classifies two coexisting stamps: equivalent, obsolete in one
    /// direction, or concurrent (mutually inconsistent).
    ///
    /// By Corollary 5.2 this matches the comparison of causal histories for
    /// elements of the same frontier.
    #[must_use]
    pub fn relation(&self, other: &Self) -> Relation {
        Relation::from_leq(self.leq(other), other.leq(self))
    }

    /// Returns `true` when the two stamps are mutually inconsistent.
    #[must_use]
    pub fn is_concurrent_with(&self, other: &Self) -> bool {
        self.relation(other).is_concurrent()
    }

    /// Checks the local well-formedness conditions: the id is non-empty and
    /// Invariant I1 (`update ⊑ id`) holds.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition as a [`StampError`].
    pub fn validate(&self) -> Result<(), StampError> {
        if self.id.is_empty() {
            return Err(StampError::EmptyId);
        }
        if !self.update.leq(&self.id) {
            return Err(StampError::UpdateExceedsId {
                update: self.update.to_name(),
                id: self.id.to_name(),
            });
        }
        Ok(())
    }

    /// Total bits across the strings of both components — the space metric
    /// reported by experiment E7.
    #[must_use]
    pub fn bit_size(&self) -> usize {
        self.update.bit_size() + self.id.bit_size()
    }

    /// Number of strings across both components.
    #[must_use]
    pub fn string_count(&self) -> usize {
        self.update.string_count() + self.id.string_count()
    }

    /// Depth of the deepest string across both components.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.update.depth().max(self.id.depth())
    }

    /// Converts to the literal antichain representation, whatever the
    /// backing representation is.
    #[must_use]
    pub fn to_set_stamp(&self) -> SetStamp {
        Stamp { update: self.update.to_name(), id: self.id.to_name() }
    }

    /// Converts to the flat tag-array representation.
    #[must_use]
    pub fn to_packed_stamp(&self) -> VersionStamp {
        Stamp {
            update: PackedName::from_name(&self.update.to_name()),
            id: PackedName::from_name(&self.id.to_name()),
        }
    }

    /// Number of bits the wire encoding of this stamp occupies, computed
    /// directly on the backing representation.
    #[must_use]
    pub fn encoded_bits(&self) -> usize {
        self.update.encoded_bits() + self.id.encoded_bits()
    }
}

impl<N: NameLike> Default for Stamp<N> {
    /// The default stamp is the seed `({ε}, {ε})`.
    fn default() -> Self {
        Stamp::seed()
    }
}

impl<N: NameLike> fmt::Display for Stamp<N> {
    /// Formats as the paper does: `[update | id]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} | {}]", self.update, self.id)
    }
}

impl<N: NameLike> fmt::Debug for Stamp<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stamp[{} | {}]", self.update, self.id)
    }
}

impl From<SetStamp> for VersionStamp {
    fn from(stamp: SetStamp) -> Self {
        stamp.to_packed_stamp()
    }
}

impl From<VersionStamp> for SetStamp {
    fn from(stamp: VersionStamp) -> Self {
        stamp.to_set_stamp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().expect("valid name literal")
    }

    #[test]
    fn seed_stamp() {
        let seed = VersionStamp::seed();
        assert!(seed.is_seed_identity());
        assert_eq!(seed.update_name(), &PackedName::epsilon());
        assert_eq!(seed.id_name(), &PackedName::epsilon());
        assert_eq!(seed, VersionStamp::default());
        assert_eq!(seed.to_string(), "[{ε} | {ε}]");
        assert!(seed.validate().is_ok());
        assert_eq!(seed.bit_size(), 0);
        assert_eq!(seed.string_count(), 2);
        assert_eq!(seed.depth(), 0);
    }

    #[test]
    fn update_copies_id_and_is_idempotent() {
        let (a, _) = VersionStamp::seed().fork();
        let updated = a.update();
        assert_eq!(updated.update_name(), a.id_name());
        assert_eq!(updated.id_name(), a.id_name());
        assert_eq!(updated.update(), updated, "repeated updates must not change the stamp");
    }

    #[test]
    fn fork_splits_identity_and_keeps_update() {
        let seed = VersionStamp::seed();
        let (a, b) = seed.fork();
        assert_eq!(a.id_name().to_name(), name("{0}"));
        assert_eq!(b.id_name().to_name(), name("{1}"));
        assert_eq!(a.update_name(), seed.update_name());
        assert_eq!(b.update_name(), seed.update_name());
        // forked identities are disjoint
        assert!(a.id_name().to_name().all_incomparable_with(&b.id_name().to_name()));
        let (aa, ab) = a.fork();
        assert_eq!(aa.id_name().to_name(), name("{00}"));
        assert_eq!(ab.id_name().to_name(), name("{01}"));
    }

    #[test]
    fn join_of_fork_restores_identity() {
        let seed = VersionStamp::seed();
        let (a, b) = seed.fork();
        assert_eq!(a.join(&b), seed);
        // deeper: fork twice and join everything back
        let (aa, ab) = a.fork();
        let joined = aa.join(&ab).join(&b);
        assert_eq!(joined, seed);
    }

    #[test]
    fn non_reducing_join_keeps_split_identity() {
        let seed = VersionStamp::seed();
        let (a, b) = seed.fork();
        let joined = a.join_non_reducing(&b);
        assert_eq!(joined.id_name().to_name(), name("{0, 1}"));
        assert_ne!(joined, seed);
        assert!(!joined.is_reduced());
        assert_eq!(joined.reduce(), seed);
        assert_eq!(a.join_with(&b, Reduction::NonReducing), joined);
        assert_eq!(a.join_with(&b, Reduction::Reducing), seed);
    }

    #[test]
    fn relations_track_updates() {
        let (a, b) = VersionStamp::seed().fork();
        assert_eq!(a.relation(&b), Relation::Equal);
        let a1 = a.update();
        assert_eq!(a1.relation(&b), Relation::Dominates);
        assert_eq!(b.relation(&a1), Relation::Dominated);
        assert!(b.leq(&a1));
        assert!(!a1.leq(&b));
        let b1 = b.update();
        assert_eq!(a1.relation(&b1), Relation::Concurrent);
        assert!(a1.is_concurrent_with(&b1));
    }

    #[test]
    fn join_dominates_live_third_replica() {
        // Comparisons are only meaningful within a frontier, so the merged
        // stamp is compared against a replica that is still live.
        let (a, rest) = VersionStamp::seed().fork();
        let (b, c) = rest.fork();
        let a = a.update();
        let b = b.update();
        let merged = a.join(&b);
        assert_eq!(merged.relation(&c), Relation::Dominates);
        assert_eq!(c.relation(&merged), Relation::Dominated);
        // under the non-reducing model the same relation holds
        let merged_nr = a.join_non_reducing(&b);
        assert_eq!(merged_nr.relation(&c), Relation::Dominates);
    }

    #[test]
    fn sync_produces_equivalent_replicas() {
        let (a, b) = VersionStamp::seed().fork();
        let a = a.update();
        let (a2, b2) = a.sync(&b);
        assert_eq!(a2.relation(&b2), Relation::Equal);
        assert_ne!(a2.id_name(), b2.id_name());
    }

    #[test]
    fn update_dominates_past_after_fork() {
        // Invariant I3's motivating example: an update on one side of a fork
        // must not become dominated by the other side.
        let (a, b) = VersionStamp::seed().fork();
        let a1 = a.update();
        assert!(!a1.leq(&b), "updated replica must not appear obsolete");
        assert!(b.leq(&a1));
    }

    #[test]
    fn from_parts_validates() {
        assert!(SetStamp::from_parts(name("{0}"), name("{0, 1}")).is_ok());
        assert_eq!(SetStamp::from_parts(name("{0}"), Name::empty()), Err(StampError::EmptyId));
        let err = SetStamp::from_parts(name("{1}"), name("{0}")).unwrap_err();
        assert!(matches!(err, StampError::UpdateExceedsId { .. }));
        assert!(err.to_string().contains("update"));
        let unchecked = SetStamp::from_parts_unchecked(name("{1}"), name("{0}"));
        assert!(unchecked.validate().is_err());
    }

    #[test]
    fn into_parts_roundtrip() {
        let stamp = SetStamp::from_parts(name("{0}"), name("{0, 1}")).unwrap();
        let (u, i) = stamp.clone().into_parts();
        assert_eq!(SetStamp::from_parts(u, i).unwrap(), stamp);
    }

    #[test]
    fn representation_conversions_agree() {
        let (a, b) = SetStamp::seed().fork();
        let a = a.update();
        let packed_a: VersionStamp = a.clone().into();
        let packed_b: VersionStamp = b.clone().into();
        assert_eq!(packed_a.relation(&packed_b), a.relation(&b));
        assert_eq!(packed_a.join(&packed_b).to_set_stamp(), a.join(&b));
        let back: SetStamp = packed_a.clone().into();
        assert_eq!(back, a);
        assert_eq!(packed_a.bit_size(), a.bit_size());
        assert_eq!(packed_a.string_count(), a.string_count());
        assert_eq!(packed_a.depth(), a.depth());
        assert_eq!(packed_a.encoded_bits(), a.encoded_bits());
        assert_eq!(a.to_packed_stamp(), packed_a);
        assert_eq!(packed_a.to_packed_stamp(), packed_a);
    }

    #[test]
    fn operations_preserve_validity() {
        // a small deterministic exploration of the operation space
        let mut frontier = vec![VersionStamp::seed()];
        for step in 0..40usize {
            match step % 3 {
                0 => {
                    let (x, y) = frontier[step % frontier.len()].fork();
                    let idx = step % frontier.len();
                    frontier[idx] = x;
                    frontier.push(y);
                }
                1 => {
                    let idx = step % frontier.len();
                    frontier[idx] = frontier[idx].update();
                }
                _ => {
                    if frontier.len() >= 2 {
                        let b = frontier.pop().expect("len checked");
                        let idx = step % frontier.len();
                        frontier[idx] = frontier[idx].join(&b);
                    }
                }
            }
            for stamp in &frontier {
                stamp.validate().expect("reachable stamps are always valid");
            }
        }
    }

    #[test]
    fn display_formats_match_paper_notation() {
        let (a, b) = VersionStamp::seed().fork();
        let a = a.update();
        assert_eq!(a.to_string(), "[{0} | {0}]");
        assert_eq!(b.to_string(), "[{ε} | {1}]");
        let joined = a.join_non_reducing(&b);
        assert_eq!(joined.to_string(), "[{0} | {0, 1}]");
        assert_eq!(format!("{joined:?}"), "Stamp[{0} | {0, 1}]");
        assert_eq!(Reduction::Reducing.to_string(), "reducing");
        assert_eq!(Reduction::NonReducing.to_string(), "non-reducing");
        assert_eq!(Reduction::default(), Reduction::Reducing);
    }
}
