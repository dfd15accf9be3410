//! Names: finite antichains of binary strings (Definition 4.1).
//!
//! A *name* is a finite antichain in the poset of binary strings under the
//! prefix order, i.e. a finite set of pairwise incomparable strings. Names are
//! ordered by
//!
//! ```text
//! n₁ ⊑ n₂  ⟺  ∀ r ∈ n₁ . ∃ s ∈ n₂ . r ⊑ s
//! ```
//!
//! which corresponds to inclusion of the *down-sets* they generate
//! (Proposition 4.2). Under this order names form a join semilattice; the
//! join `n₁ ⊔ n₂` is the set of maximal elements of `n₁ ∪ n₂`.
//!
//! Both components of a version stamp — the *update* and the *id* — are
//! names.
//!
//! # Examples
//!
//! The worked example of Section 4:
//!
//! ```
//! use vstamp_core::Name;
//!
//! let a: Name = "{00, 011}".parse()?;
//! let b: Name = "{000, 011, 1}".parse()?;
//! let c: Name = "{00, 10}".parse()?;
//!
//! assert!(a.leq(&b));          // {00,011} ⊑ {000,011,1}
//! assert!(!c.leq(&b));         // {00,10} ⋢ {000,011,1}
//!
//! let joined: Name = "{000, 01, 1}".parse()?;
//! assert_eq!(a.join(&joined), b);  // {00,011} ⊔ {000,01,1} = {000,011,1}
//! # Ok::<(), vstamp_core::ParseNameError>(())
//! ```

use core::fmt;
use core::str::FromStr;
use std::collections::btree_set;
use std::collections::BTreeSet;

use crate::bitstring::{Bit, BitString, ParseBitStringError};
use crate::relation::Relation;

/// A finite antichain of binary strings — the set `N` of Definition 4.1.
///
/// The representation is the literal one from the paper: an explicit set of
/// strings, kept in antichain normal form (no element is a prefix of
/// another). The isomorphic packed representation is [`crate::PackedName`].
///
/// Constructing a `Name` through any of its public constructors always yields
/// an antichain: dominated strings are discarded eagerly, so e.g.
/// `{0, 01}` collapses to `{01}` (the maximal elements of the down-set).
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name {
    strings: BTreeSet<BitString>,
}

impl Name {
    /// The empty name `{}`, the bottom of the semilattice.
    ///
    /// The empty name is below every other name; it never appears as the id
    /// of a live element but is a valid update component and a useful
    /// identity for folds.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::Name;
    /// let bottom = Name::empty();
    /// let any: Name = "{01, 1}".parse().unwrap();
    /// assert!(bottom.leq(&any));
    /// assert!(bottom.is_empty());
    /// ```
    #[must_use]
    pub fn empty() -> Self {
        Name { strings: BTreeSet::new() }
    }

    /// The name `{ε}` containing only the empty string — the id of the
    /// initial element of a system (Definition 4.3) and the top of the
    /// single-replica world.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::Name;
    /// let seed = Name::epsilon();
    /// assert_eq!(seed.len(), 1);
    /// assert_eq!(seed.to_string(), "{ε}");
    /// ```
    #[must_use]
    pub fn epsilon() -> Self {
        Name::from_string(BitString::empty())
    }

    /// A name containing a single string.
    #[must_use]
    pub fn from_string(s: BitString) -> Self {
        let mut strings = BTreeSet::new();
        strings.insert(s);
        Name { strings }
    }

    /// Builds a name from arbitrary strings, normalizing to the antichain of
    /// maximal elements.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{BitString, Name};
    /// let n = Name::from_strings(["0".parse().unwrap(), "01".parse().unwrap()]);
    /// // "0" is a prefix of "01" so only "01" survives.
    /// assert_eq!(n.to_string(), "{01}");
    /// ```
    pub fn from_strings<I: IntoIterator<Item = BitString>>(strings: I) -> Self {
        let mut name = Name::empty();
        for s in strings {
            name.insert(s);
        }
        name
    }

    /// Inserts a string, keeping the antichain normal form: the string is
    /// dropped if it is dominated by an existing element, and existing
    /// elements dominated by it are removed.
    ///
    /// Returns `true` if the down-set generated by the name grew.
    pub fn insert(&mut self, s: BitString) -> bool {
        if self.strings.iter().any(|existing| s.is_prefix_of(existing)) {
            return false;
        }
        self.strings.retain(|existing| !existing.is_prefix_of(&s));
        self.strings.insert(s);
        true
    }

    /// Number of strings in the antichain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Returns `true` for the empty name `{}`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Returns `true` when the name is exactly `{ε}`.
    #[must_use]
    pub fn is_epsilon(&self) -> bool {
        self.strings.len() == 1 && self.strings.iter().next().map(BitString::is_empty) == Some(true)
    }

    /// Returns `true` when the antichain contains exactly the string `s`.
    ///
    /// Note this is *membership*, not domination: `{01}` contains `01` but
    /// not `0`. The simplification rule of Section 6 is defined in terms of
    /// membership.
    #[must_use]
    pub fn contains(&self, s: &BitString) -> bool {
        self.strings.contains(s)
    }

    /// Returns `true` when the singleton `{s}` is dominated by this name,
    /// i.e. some element of the name has `s` as a prefix.
    ///
    /// This is the `{r} ⊑ n` test used throughout the invariants.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::Name;
    /// let n: Name = "{011, 10}".parse().unwrap();
    /// assert!(n.dominates_string(&"01".parse().unwrap()));
    /// assert!(n.dominates_string(&"011".parse().unwrap()));
    /// assert!(!n.dominates_string(&"0110".parse().unwrap()));
    /// assert!(!n.dominates_string(&"00".parse().unwrap()));
    /// ```
    #[must_use]
    pub fn dominates_string(&self, s: &BitString) -> bool {
        self.strings.iter().any(|t| s.is_prefix_of(t))
    }

    /// The order `⊑` on names: every string of `self` is a prefix of some
    /// string of `other` (equivalently, down-set inclusion).
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::Name;
    /// let a: Name = "{00, 011}".parse().unwrap();
    /// let b: Name = "{000, 011, 1}".parse().unwrap();
    /// assert!(a.leq(&b));
    /// assert!(!b.leq(&a));
    /// ```
    #[must_use]
    pub fn leq(&self, other: &Name) -> bool {
        self.strings.iter().all(|r| other.dominates_string(r))
    }

    /// Strict version of [`Name::leq`].
    #[must_use]
    pub fn lt(&self, other: &Name) -> bool {
        self.leq(other) && self != other
    }

    /// Returns `true` when the names are incomparable under `⊑`.
    #[must_use]
    pub fn is_incomparable_with(&self, other: &Name) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Classifies the pair under the frontier pre-order: equivalent,
    /// dominated, dominating or concurrent.
    #[must_use]
    pub fn relation(&self, other: &Name) -> Relation {
        Relation::from_leq(self.leq(other), other.leq(self))
    }

    /// The join `⊔` of the semilattice: the maximal elements of the union
    /// (Proposition 4.2). Used by the `join` operation on stamps for both the
    /// update and the id component.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::Name;
    /// let a: Name = "{00, 011}".parse().unwrap();
    /// let b: Name = "{000, 01, 1}".parse().unwrap();
    /// assert_eq!(a.join(&b).to_string(), "{000, 011, 1}");
    /// ```
    #[must_use]
    pub fn join(&self, other: &Name) -> Name {
        let mut out = self.clone();
        for s in &other.strings {
            out.insert(s.clone());
        }
        out
    }

    /// Appends `bit` to every string of the name — the lifted concatenation
    /// `n·x := { s·x | s ∈ n }` used by the fork operation (Definition 4.3).
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Bit, Name};
    /// let n: Name = "{0, 11}".parse().unwrap();
    /// assert_eq!(n.append(Bit::One).to_string(), "{01, 111}");
    /// ```
    #[must_use]
    pub fn append(&self, bit: Bit) -> Name {
        Name { strings: self.strings.iter().map(|s| s.child(bit)).collect() }
    }

    /// Removes a string that is a member of the antichain, returning whether
    /// it was present. Used by the simplification rewriting rule.
    pub fn remove(&mut self, s: &BitString) -> bool {
        self.strings.remove(s)
    }

    /// Checks antichain well-formedness: no element is a (strict) prefix of
    /// another. Public constructors always maintain this; the check exists so
    /// tests and the invariant auditor can validate hand-built or decoded
    /// values.
    #[must_use]
    pub fn is_antichain(&self) -> bool {
        let items: Vec<&BitString> = self.strings.iter().collect();
        for (i, a) in items.iter().enumerate() {
            for b in items.iter().skip(i + 1) {
                if a.is_prefix_of(b) || b.is_prefix_of(a) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when every string of `self` is incomparable with every
    /// string of `other` — the pairwise condition of Invariant I2.
    #[must_use]
    pub fn all_incomparable_with(&self, other: &Name) -> bool {
        self.strings.iter().all(|r| other.strings.iter().all(|s| r.is_incomparable_with(s)))
    }

    /// Iterates over the strings of the antichain in deterministic order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { inner: self.strings.iter() }
    }

    /// Total number of bits across all strings — the space metric reported by
    /// experiment E7.
    #[must_use]
    pub fn bit_size(&self) -> usize {
        self.strings.iter().map(BitString::bit_size).sum()
    }

    /// Length of the longest string in the name (depth of the identity tree).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.strings.iter().map(BitString::len).max().unwrap_or(0)
    }

    /// Expands the name into its down-set: every prefix of every element.
    /// Mostly useful for tests that validate the order against the down-set
    /// semantics of Proposition 4.2.
    #[must_use]
    pub fn down_set(&self) -> BTreeSet<BitString> {
        let mut out = BTreeSet::new();
        for s in &self.strings {
            let mut cur = s.clone();
            loop {
                out.insert(cur.clone());
                match cur.parent() {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        out
    }
}

impl fmt::Display for Name {
    /// Formats the name as the paper does: `{s₁, s₂, …}` with `ε` for the
    /// empty string.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, s) in self.strings.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{s}")?;
        }
        f.write_str("}")
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name{self}")
    }
}

impl FromIterator<BitString> for Name {
    fn from_iter<I: IntoIterator<Item = BitString>>(iter: I) -> Self {
        Name::from_strings(iter)
    }
}

impl Extend<BitString> for Name {
    fn extend<I: IntoIterator<Item = BitString>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl<'a> IntoIterator for &'a Name {
    type Item = &'a BitString;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Name {
    type Item = BitString;
    type IntoIter = btree_set::IntoIter<BitString>;

    fn into_iter(self) -> Self::IntoIter {
        self.strings.into_iter()
    }
}

impl From<BitString> for Name {
    fn from(s: BitString) -> Self {
        Name::from_string(s)
    }
}

/// Iterator over the strings of a [`Name`], produced by [`Name::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    inner: btree_set::Iter<'a, BitString>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a BitString;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Error returned when parsing a [`Name`] from text.
///
/// Accepted syntax: `{}`, `{ε}`, `{01, 1}` — an optional pair of braces
/// around a comma-separated list of binary strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNameError {
    /// One of the strings failed to parse.
    String(ParseBitStringError),
    /// The braces were unbalanced or malformed.
    Braces,
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNameError::String(e) => write!(f, "invalid string in name: {e}"),
            ParseNameError::Braces => {
                f.write_str("expected a brace-delimited list of binary strings")
            }
        }
    }
}

impl std::error::Error for ParseNameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseNameError::String(e) => Some(e),
            ParseNameError::Braces => None,
        }
    }
}

impl From<ParseBitStringError> for ParseNameError {
    fn from(e: ParseBitStringError) -> Self {
        ParseNameError::String(e)
    }
}

impl FromStr for Name {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        let inner = if let Some(rest) = trimmed.strip_prefix('{') {
            rest.strip_suffix('}').ok_or(ParseNameError::Braces)?
        } else if trimmed.contains('}') {
            return Err(ParseNameError::Braces);
        } else {
            trimmed
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Name::empty());
        }
        let mut name = Name::empty();
        for part in inner.split(',') {
            let string: BitString = part.trim().parse()?;
            name.insert(string);
        }
        Ok(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().expect("valid name literal")
    }

    #[test]
    fn paper_examples_for_validity_and_order() {
        // "{0, 01} is not a valid element of N because 0 ⊑ 01"
        let collapsed = Name::from_strings(["0".parse().unwrap(), "01".parse().unwrap()]);
        assert_eq!(collapsed, name("{01}"));
        assert!(collapsed.is_antichain());

        // "{00, 011} ⊑ {000, 011, 1} and {00, 10} ⋢ {000, 011, 1}"
        assert!(name("{00, 011}").leq(&name("{000, 011, 1}")));
        assert!(!name("{00, 10}").leq(&name("{000, 011, 1}")));
    }

    #[test]
    fn paper_example_for_join() {
        // "{00, 011} ⊔ {000, 01, 1} = {000, 011, 1}"
        assert_eq!(name("{00, 011}").join(&name("{000, 01, 1}")), name("{000, 011, 1}"));
    }

    #[test]
    fn empty_name_is_bottom() {
        let bottom = Name::empty();
        for n in ["{}", "{ε}", "{0}", "{01, 1}", "{000, 011, 1}"] {
            assert!(bottom.leq(&name(n)), "{{}} should be ⊑ {n}");
        }
        assert!(bottom.is_empty());
        assert_eq!(bottom.len(), 0);
        assert_eq!(bottom.bit_size(), 0);
        assert_eq!(bottom.depth(), 0);
    }

    #[test]
    fn epsilon_name() {
        let e = Name::epsilon();
        assert!(e.is_epsilon());
        assert!(!Name::empty().is_epsilon());
        assert!(!name("{0}").is_epsilon());
        assert!(e.leq(&name("{0}")));
        assert!(e.leq(&name("{01, 1}")));
        assert!(!name("{0}").leq(&e));
        assert_eq!(e.to_string(), "{ε}");
    }

    #[test]
    fn leq_is_a_partial_order() {
        let names: Vec<Name> =
            ["{}", "{ε}", "{0}", "{1}", "{0, 1}", "{01, 1}", "{00, 011}", "{000, 011, 1}"]
                .iter()
                .map(|s| name(s))
                .collect();
        // reflexive
        for a in &names {
            assert!(a.leq(a));
        }
        // antisymmetric
        for a in &names {
            for b in &names {
                if a.leq(b) && b.leq(a) {
                    assert_eq!(a, b);
                }
            }
        }
        // transitive
        for a in &names {
            for b in &names {
                for c in &names {
                    if a.leq(b) && b.leq(c) {
                        assert!(a.leq(c), "{a} ⊑ {b} ⊑ {c} but not {a} ⊑ {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn join_is_least_upper_bound() {
        let names: Vec<Name> =
            ["{}", "{ε}", "{0}", "{1}", "{0, 1}", "{01}", "{01, 1}", "{00, 011}"]
                .iter()
                .map(|s| name(s))
                .collect();
        for a in &names {
            for b in &names {
                let j = a.join(b);
                assert!(a.leq(&j), "{a} ⊑ {a} ⊔ {b}");
                assert!(b.leq(&j), "{b} ⊑ {a} ⊔ {b}");
                assert!(j.is_antichain());
                // least: any other upper bound dominates the join
                for c in &names {
                    if a.leq(c) && b.leq(c) {
                        assert!(j.leq(c), "join {j} not least vs {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn join_is_commutative_associative_idempotent() {
        let names: Vec<Name> = ["{}", "{ε}", "{0}", "{1}", "{01, 1}", "{00, 011}", "{000, 011, 1}"]
            .iter()
            .map(|s| name(s))
            .collect();
        for a in &names {
            assert_eq!(a.join(a), *a);
            for b in &names {
                assert_eq!(a.join(b), b.join(a));
                for c in &names {
                    assert_eq!(a.join(b).join(c), a.join(&b.join(c)));
                }
            }
        }
    }

    #[test]
    fn leq_matches_down_set_inclusion() {
        let names: Vec<Name> =
            ["{}", "{ε}", "{0}", "{1}", "{0, 1}", "{01}", "{01, 1}", "{00, 011}", "{000, 011, 1}"]
                .iter()
                .map(|s| name(s))
                .collect();
        for a in &names {
            for b in &names {
                let ds_incl = a.down_set().is_subset(&b.down_set());
                assert_eq!(a.leq(b), ds_incl, "leq vs down-set mismatch for {a}, {b}");
            }
        }
    }

    #[test]
    fn join_matches_down_set_union() {
        let names: Vec<Name> = ["{}", "{ε}", "{0}", "{01, 1}", "{00, 011}", "{000, 011, 1}"]
            .iter()
            .map(|s| name(s))
            .collect();
        for a in &names {
            for b in &names {
                let j = a.join(b);
                let expected: BTreeSet<BitString> =
                    a.down_set().union(&b.down_set()).cloned().collect();
                assert_eq!(j.down_set(), expected);
            }
        }
    }

    #[test]
    fn append_lifts_concatenation() {
        let n = name("{0, 11}");
        assert_eq!(n.append(Bit::One), name("{01, 111}"));
        assert_eq!(n.append(Bit::Zero), name("{00, 110}"));
        assert_eq!(Name::epsilon().append(Bit::Zero), name("{0}"));
        assert_eq!(Name::empty().append(Bit::One), Name::empty());
    }

    #[test]
    fn append_preserves_antichain_and_dominates_original() {
        let a = name("{00, 011}");
        let b = name("{000, 011, 1}");
        for bit in [Bit::Zero, Bit::One] {
            for n in [&a, &b] {
                assert!(n.append(bit).is_antichain());
                // every string grows, so the appended name dominates the original
                assert!(n.leq(&n.append(bit)));
                assert!(!n.append(bit).leq(n));
            }
        }
    }

    #[test]
    fn contains_vs_dominates() {
        let n = name("{011, 10}");
        assert!(n.contains(&"011".parse().unwrap()));
        assert!(!n.contains(&"01".parse().unwrap()));
        assert!(n.dominates_string(&"01".parse().unwrap()));
        assert!(n.dominates_string(&"1".parse().unwrap()));
        assert!(!n.dominates_string(&"111".parse().unwrap()));
    }

    #[test]
    fn insert_returns_growth() {
        let mut n = name("{01}");
        assert!(!n.insert("0".parse().unwrap()), "dominated string should not grow the name");
        assert!(n.insert("1".parse().unwrap()));
        assert!(n.insert("00".parse().unwrap()));
        assert_eq!(n, name("{00, 01, 1}"));
        // inserting a string that dominates two others replaces both
        let mut m = name("{00, 01}");
        assert!(!m.insert("00".parse().unwrap()));
        assert_eq!(m, name("{00, 01}"));
    }

    #[test]
    fn remove_only_members() {
        let mut n = name("{00, 01, 1}");
        assert!(n.remove(&"00".parse().unwrap()));
        assert!(!n.remove(&"0".parse().unwrap()));
        assert_eq!(n, name("{01, 1}"));
    }

    #[test]
    fn relation_classification() {
        assert_eq!(name("{0}").relation(&name("{0}")), Relation::Equal);
        assert_eq!(name("{0}").relation(&name("{00, 01}")), Relation::Dominated);
        assert_eq!(name("{00, 01}").relation(&name("{0}")), Relation::Dominates);
        assert_eq!(name("{0}").relation(&name("{1}")), Relation::Concurrent);
        assert!(name("{0}").is_incomparable_with(&name("{1}")));
        assert!(name("{0}").lt(&name("{00, 01}")));
        assert!(!name("{0}").lt(&name("{0}")));
    }

    #[test]
    fn all_incomparable_with_detects_i2_violations() {
        assert!(name("{0}").all_incomparable_with(&name("{1}")));
        assert!(name("{00}").all_incomparable_with(&name("{01, 1}")));
        assert!(!name("{0}").all_incomparable_with(&name("{01}")));
        assert!(!name("{0, 10}").all_incomparable_with(&name("{1}")));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for lit in ["{}", "{ε}", "{0}", "{01, 1}", "{000, 011, 1}", "{00, 011}"] {
            let n = name(lit);
            assert_eq!(n.to_string(), lit);
            let reparsed: Name = n.to_string().parse().unwrap();
            assert_eq!(reparsed, n);
        }
    }

    #[test]
    fn parse_accepts_unbraced_and_rejects_garbage() {
        assert_eq!(name("01, 1"), name("{01, 1}"));
        assert_eq!(name(""), Name::empty());
        assert_eq!(name("  { 0 , 1 } "), name("{0, 1}"));
        assert!("{01".parse::<Name>().is_err());
        assert!("01}".parse::<Name>().is_err());
        assert!("{01, x}".parse::<Name>().is_err());
        let err = "{01, 2}".parse::<Name>().unwrap_err();
        assert!(err.to_string().contains("invalid"));
    }

    #[test]
    fn iteration_and_collection() {
        let n = name("{00, 01, 1}");
        let strings: Vec<String> = n.iter().map(|s| s.to_string()).collect();
        assert_eq!(strings, vec!["00", "01", "1"]);
        assert_eq!(n.iter().len(), 3);
        let rebuilt: Name = n.clone().into_iter().collect();
        assert_eq!(rebuilt, n);
        let by_ref: Vec<&BitString> = (&n).into_iter().collect();
        assert_eq!(by_ref.len(), 3);
        let mut extended = name("{0}");
        extended.extend(name("{1}"));
        assert_eq!(extended, name("{0, 1}"));
        let from_single: Name = BitString::empty().into();
        assert_eq!(from_single, Name::epsilon());
    }

    #[test]
    fn size_metrics() {
        let n = name("{00, 011, 1}");
        assert_eq!(n.len(), 3);
        assert_eq!(n.bit_size(), 2 + 3 + 1);
        assert_eq!(n.depth(), 3);
        assert_eq!(Name::epsilon().bit_size(), 0);
        assert_eq!(Name::epsilon().depth(), 0);
    }
}
