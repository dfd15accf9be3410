//! Finite binary strings under the prefix order.
//!
//! The paper's poset `S` (Section 4) is the set of all finite binary strings
//! (sequences over `{0, 1}`) ordered by the *prefix* relation:
//! `r ⊑ s` iff `r` is a prefix of `s`. The empty string `ε` is the bottom of
//! the order. Names ([`crate::Name`]) are finite antichains of this poset.
//!
//! [`BitString`] stores the bits packed (eight bits per byte, most significant
//! bit first) so that identities remain compact even after deep chains of
//! forks.
//!
//! # Examples
//!
//! ```
//! use vstamp_core::{Bit, BitString};
//!
//! let root = BitString::empty();
//! let left = root.child(Bit::Zero);
//! let leftright = left.child(Bit::One);
//!
//! assert!(root.is_prefix_of(&leftright));
//! assert!(left.is_prefix_of(&leftright));
//! assert!(!leftright.is_prefix_of(&left));
//! assert_eq!(leftright.to_string(), "01");
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;

/// A single binary digit appended to an identity at a fork.
///
/// Forking an element appends [`Bit::Zero`] to every string of the identity of
/// the first descendant and [`Bit::One`] to the second (Definition 4.3).
///
/// # Examples
///
/// ```
/// use vstamp_core::Bit;
///
/// assert_eq!(Bit::Zero.flip(), Bit::One);
/// assert_eq!(u8::from(Bit::One), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bit {
    /// The digit `0`, taken by the "left" descendant of a fork.
    Zero,
    /// The digit `1`, taken by the "right" descendant of a fork.
    One,
}

impl Bit {
    /// Returns the other digit.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::Bit;
    /// assert_eq!(Bit::Zero.flip(), Bit::One);
    /// assert_eq!(Bit::One.flip(), Bit::Zero);
    /// ```
    #[must_use]
    pub fn flip(self) -> Bit {
        match self {
            Bit::Zero => Bit::One,
            Bit::One => Bit::Zero,
        }
    }

    /// Returns `true` for [`Bit::One`].
    #[must_use]
    pub fn is_one(self) -> bool {
        matches!(self, Bit::One)
    }

    /// Returns `true` for [`Bit::Zero`].
    #[must_use]
    pub fn is_zero(self) -> bool {
        matches!(self, Bit::Zero)
    }
}

impl From<Bit> for u8 {
    fn from(bit: Bit) -> u8 {
        match bit {
            Bit::Zero => 0,
            Bit::One => 1,
        }
    }
}

impl From<Bit> for usize {
    fn from(bit: Bit) -> usize {
        u8::from(bit) as usize
    }
}

impl From<bool> for Bit {
    fn from(b: bool) -> Bit {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

impl From<Bit> for bool {
    fn from(bit: Bit) -> bool {
        bit.is_one()
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Bit::Zero => "0",
            Bit::One => "1",
        })
    }
}

/// A finite binary string, the element type of the poset `S` of Section 4.
///
/// Strings are ordered by [`BitString::is_prefix_of`]; the [`Ord`]
/// implementation is a *total* (lexicographic, shortlex within equal prefixes)
/// order used only to keep collections deterministic — it is **not** the
/// prefix order of the paper. Use [`BitString::prefix_cmp`] for the partial
/// order.
///
/// # Examples
///
/// ```
/// use vstamp_core::BitString;
///
/// let s: BitString = "0110".parse()?;
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.to_string(), "0110");
/// # Ok::<(), vstamp_core::ParseBitStringError>(())
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    /// Packed bits, most significant bit of byte 0 first.
    bytes: Vec<u8>,
    /// Number of valid bits.
    len: usize,
}

/// Result of comparing two strings in the prefix order.
///
/// The prefix order is partial: two strings that diverge are *incomparable*
/// (written `r ∥ s` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefixOrdering {
    /// The strings are equal.
    Equal,
    /// The left string is a strict prefix of the right one (`r ⊏ s`).
    Prefix,
    /// The right string is a strict prefix of the left one (`s ⊏ r`).
    Extension,
    /// Neither string is a prefix of the other (`r ∥ s`).
    Incomparable,
}

impl PrefixOrdering {
    /// Converts to an [`Ordering`] when the strings are comparable.
    #[must_use]
    pub fn to_ordering(self) -> Option<Ordering> {
        match self {
            PrefixOrdering::Equal => Some(Ordering::Equal),
            PrefixOrdering::Prefix => Some(Ordering::Less),
            PrefixOrdering::Extension => Some(Ordering::Greater),
            PrefixOrdering::Incomparable => None,
        }
    }

    /// Returns `true` when the left operand is a (possibly equal) prefix.
    #[must_use]
    pub fn is_le(self) -> bool {
        matches!(self, PrefixOrdering::Equal | PrefixOrdering::Prefix)
    }

    /// Returns `true` when the operands are incomparable.
    #[must_use]
    pub fn is_incomparable(self) -> bool {
        matches!(self, PrefixOrdering::Incomparable)
    }
}

impl BitString {
    /// The empty string `ε`, the bottom of the prefix order.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::BitString;
    /// let e = BitString::empty();
    /// assert!(e.is_empty());
    /// assert_eq!(e.to_string(), "ε");
    /// ```
    #[must_use]
    pub fn empty() -> Self {
        BitString { bytes: Vec::new(), len: 0 }
    }

    /// Builds a string from an iterator of bits (most significant first).
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Bit, BitString};
    /// let s = BitString::from_bits([Bit::Zero, Bit::One]);
    /// assert_eq!(s.to_string(), "01");
    /// ```
    pub fn from_bits<I: IntoIterator<Item = Bit>>(bits: I) -> Self {
        let mut s = BitString::empty();
        for b in bits {
            s.push(b);
        }
        s
    }

    /// Number of bits in the string.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for the empty string `ε`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`, or `None` if out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Bit, BitString};
    /// let s: BitString = "10".parse().unwrap();
    /// assert_eq!(s.get(0), Some(Bit::One));
    /// assert_eq!(s.get(1), Some(Bit::Zero));
    /// assert_eq!(s.get(2), None);
    /// ```
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Bit> {
        if index >= self.len {
            return None;
        }
        let byte = self.bytes[index / 8];
        let bit = (byte >> (7 - (index % 8))) & 1;
        Some(Bit::from(bit == 1))
    }

    /// Appends a bit in place.
    pub fn push(&mut self, bit: Bit) {
        if self.len % 8 == 0 {
            self.bytes.push(0);
        }
        if bit.is_one() {
            let idx = self.len / 8;
            self.bytes[idx] |= 1 << (7 - (self.len % 8));
        }
        self.len += 1;
    }

    /// Removes and returns the last bit, or `None` on the empty string.
    pub fn pop(&mut self) -> Option<Bit> {
        if self.len == 0 {
            return None;
        }
        let last = self.get(self.len - 1).expect("length checked");
        self.len -= 1;
        let idx = self.len / 8;
        // Clear the removed bit so equality/hash stay structural.
        self.bytes[idx] &= !(1 << (7 - (self.len % 8)));
        if self.len % 8 == 0 {
            self.bytes.pop();
        }
        Some(last)
    }

    /// Returns a new string with `bit` appended — the fork construction
    /// `s ↦ s·x` of Definition 4.3.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{Bit, BitString};
    /// let s = BitString::empty().child(Bit::One).child(Bit::Zero);
    /// assert_eq!(s.to_string(), "10");
    /// ```
    #[must_use]
    pub fn child(&self, bit: Bit) -> Self {
        let mut out = self.clone();
        out.push(bit);
        out
    }

    /// Returns the parent string (all bits but the last), or `None` for `ε`.
    #[must_use]
    pub fn parent(&self) -> Option<Self> {
        if self.is_empty() {
            return None;
        }
        let mut out = self.clone();
        out.pop();
        Some(out)
    }

    /// Returns the last bit, or `None` for `ε`.
    #[must_use]
    pub fn last(&self) -> Option<Bit> {
        if self.is_empty() {
            None
        } else {
            self.get(self.len - 1)
        }
    }

    /// Returns the sibling string (same parent, last bit flipped), or `None`
    /// for `ε`.
    ///
    /// Siblings are exactly the pairs `s·0`, `s·1` collapsed by the
    /// simplification rule of Section 6.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::BitString;
    /// let s: BitString = "010".parse().unwrap();
    /// assert_eq!(s.sibling().unwrap().to_string(), "011");
    /// ```
    #[must_use]
    pub fn sibling(&self) -> Option<Self> {
        let last = self.last()?;
        let mut out = self.clone();
        out.pop();
        out.push(last.flip());
        Some(out)
    }

    /// Iterates over the bits, most significant first.
    pub fn iter(&self) -> Bits<'_> {
        Bits { string: self, index: 0 }
    }

    /// Returns `true` when `self` is a (possibly equal) prefix of `other` —
    /// the order `⊑` of the paper.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::BitString;
    /// let a: BitString = "01".parse().unwrap();
    /// let b: BitString = "011".parse().unwrap();
    /// let c: BitString = "00".parse().unwrap();
    /// assert!(a.is_prefix_of(&b));
    /// assert!(!a.is_prefix_of(&c));
    /// assert!(a.is_prefix_of(&a));
    /// ```
    #[must_use]
    pub fn is_prefix_of(&self, other: &BitString) -> bool {
        if self.len > other.len {
            return false;
        }
        (0..self.len).all(|i| self.get(i) == other.get(i))
    }

    /// Returns `true` when `self` is a strict prefix of `other` (`⊏`).
    #[must_use]
    pub fn is_strict_prefix_of(&self, other: &BitString) -> bool {
        self.len < other.len && self.is_prefix_of(other)
    }

    /// Compares two strings in the prefix order.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::{BitString, PrefixOrdering};
    /// let a: BitString = "01".parse().unwrap();
    /// let b: BitString = "00".parse().unwrap();
    /// assert_eq!(a.prefix_cmp(&b), PrefixOrdering::Incomparable);
    /// ```
    #[must_use]
    pub fn prefix_cmp(&self, other: &BitString) -> PrefixOrdering {
        match (self.is_prefix_of(other), other.is_prefix_of(self)) {
            (true, true) => PrefixOrdering::Equal,
            (true, false) => PrefixOrdering::Prefix,
            (false, true) => PrefixOrdering::Extension,
            (false, false) => PrefixOrdering::Incomparable,
        }
    }

    /// Returns `true` when the strings are incomparable (`r ∥ s`), i.e.
    /// neither is a prefix of the other.
    ///
    /// Invariant I2 states that any two strings drawn from identities of a
    /// reachable frontier are pairwise incomparable.
    #[must_use]
    pub fn is_incomparable_with(&self, other: &BitString) -> bool {
        !self.is_prefix_of(other) && !other.is_prefix_of(self)
    }

    /// Longest common prefix of the two strings.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstamp_core::BitString;
    /// let a: BitString = "0110".parse().unwrap();
    /// let b: BitString = "0101".parse().unwrap();
    /// assert_eq!(a.common_prefix(&b).to_string(), "01");
    /// ```
    #[must_use]
    pub fn common_prefix(&self, other: &BitString) -> BitString {
        let mut out = BitString::empty();
        for i in 0..self.len.min(other.len) {
            let (a, b) = (self.get(i), other.get(i));
            if a == b {
                out.push(a.expect("index in range"));
            } else {
                break;
            }
        }
        out
    }

    /// Concatenates `other` onto the end of `self`.
    #[must_use]
    pub fn concat(&self, other: &BitString) -> BitString {
        let mut out = self.clone();
        for bit in other.iter() {
            out.push(bit);
        }
        out
    }

    /// Number of bits a compact encoding of this string occupies (its length);
    /// used by the space-accounting experiments (E7).
    #[must_use]
    pub fn bit_size(&self) -> usize {
        self.len
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("ε");
        }
        for bit in self.iter() {
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString({self})")
    }
}

impl PartialOrd for BitString {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitString {
    /// Total order for deterministic containers: lexicographic on bits, with a
    /// prefix ordering before its extensions. **Not** the paper's partial
    /// prefix order; use [`BitString::prefix_cmp`] for that.
    fn cmp(&self, other: &Self) -> Ordering {
        for i in 0..self.len.min(other.len) {
            match (self.get(i), other.get(i)) {
                (Some(a), Some(b)) if a != b => return u8::from(a).cmp(&u8::from(b)),
                _ => {}
            }
        }
        self.len.cmp(&other.len)
    }
}

impl FromIterator<Bit> for BitString {
    fn from_iter<I: IntoIterator<Item = Bit>>(iter: I) -> Self {
        BitString::from_bits(iter)
    }
}

impl Extend<Bit> for BitString {
    fn extend<I: IntoIterator<Item = Bit>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

impl<'a> IntoIterator for &'a BitString {
    type Item = Bit;
    type IntoIter = Bits<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitString`], produced by
/// [`BitString::iter`].
#[derive(Debug, Clone)]
pub struct Bits<'a> {
    string: &'a BitString,
    index: usize,
}

impl Iterator for Bits<'_> {
    type Item = Bit;

    fn next(&mut self) -> Option<Bit> {
        let bit = self.string.get(self.index)?;
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.string.len().saturating_sub(self.index);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Bits<'_> {}

/// Error returned when parsing a [`BitString`] from text.
///
/// Accepted syntax: a possibly empty sequence of `0`/`1` characters, or the
/// single character `ε` denoting the empty string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitStringError {
    offending: char,
}

impl fmt::Display for ParseBitStringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid character {:?} in binary string (expected '0', '1' or 'ε')",
            self.offending
        )
    }
}

impl std::error::Error for ParseBitStringError {}

impl FromStr for BitString {
    type Err = ParseBitStringError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "ε" {
            return Ok(BitString::empty());
        }
        let mut out = BitString::empty();
        for c in s.chars() {
            match c {
                '0' => out.push(Bit::Zero),
                '1' => out.push(Bit::One),
                other => return Err(ParseBitStringError { offending: other }),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        s.parse().expect("valid bit string literal")
    }

    #[test]
    fn empty_is_bottom() {
        let e = BitString::empty();
        for s in ["0", "1", "0101", "111", "ε"] {
            assert!(e.is_prefix_of(&bs(s)), "ε must be a prefix of {s}");
        }
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut s = BitString::empty();
        let pattern = [
            Bit::One,
            Bit::Zero,
            Bit::Zero,
            Bit::One,
            Bit::One,
            Bit::Zero,
            Bit::One,
            Bit::One,
            Bit::Zero,
        ];
        for &bit in &pattern {
            s.push(bit);
        }
        assert_eq!(s.len(), pattern.len());
        let mut popped = Vec::new();
        while let Some(bit) = s.pop() {
            popped.push(bit);
        }
        popped.reverse();
        assert_eq!(popped, pattern);
        assert!(s.is_empty());
    }

    #[test]
    fn pop_clears_storage_for_equality() {
        let mut a = bs("1");
        a.pop();
        assert_eq!(a, BitString::empty());
        let mut b = bs("101");
        b.pop();
        assert_eq!(b, bs("10"));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        b.hash(&mut h1);
        bs("10").hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn prefix_order_examples_from_paper() {
        // "01 ⊑ 011 and 01 ∥ 00"
        assert!(bs("01").is_prefix_of(&bs("011")));
        assert!(bs("01").is_incomparable_with(&bs("00")));
        assert_eq!(bs("01").prefix_cmp(&bs("011")), PrefixOrdering::Prefix);
        assert_eq!(bs("011").prefix_cmp(&bs("01")), PrefixOrdering::Extension);
        assert_eq!(bs("01").prefix_cmp(&bs("01")), PrefixOrdering::Equal);
        assert_eq!(bs("01").prefix_cmp(&bs("00")), PrefixOrdering::Incomparable);
    }

    #[test]
    fn prefix_ordering_conversions() {
        assert_eq!(PrefixOrdering::Equal.to_ordering(), Some(Ordering::Equal));
        assert_eq!(PrefixOrdering::Prefix.to_ordering(), Some(Ordering::Less));
        assert_eq!(PrefixOrdering::Extension.to_ordering(), Some(Ordering::Greater));
        assert_eq!(PrefixOrdering::Incomparable.to_ordering(), None);
        assert!(PrefixOrdering::Equal.is_le());
        assert!(PrefixOrdering::Prefix.is_le());
        assert!(!PrefixOrdering::Extension.is_le());
        assert!(PrefixOrdering::Incomparable.is_incomparable());
    }

    #[test]
    fn child_and_parent_are_inverse() {
        let s = bs("0110");
        assert_eq!(s.child(Bit::One).parent().unwrap(), s);
        assert_eq!(s.child(Bit::Zero).parent().unwrap(), s);
        assert_eq!(BitString::empty().parent(), None);
    }

    #[test]
    fn sibling_flips_last_bit() {
        assert_eq!(bs("010").sibling().unwrap(), bs("011"));
        assert_eq!(bs("011").sibling().unwrap(), bs("010"));
        assert_eq!(bs("1").sibling().unwrap(), bs("0"));
        assert_eq!(BitString::empty().sibling(), None);
        // sibling is an involution
        let s = bs("11010");
        assert_eq!(s.sibling().unwrap().sibling().unwrap(), s);
    }

    #[test]
    fn common_prefix_and_concat() {
        assert_eq!(bs("0110").common_prefix(&bs("0101")), bs("01"));
        assert_eq!(bs("0110").common_prefix(&bs("1101")), BitString::empty());
        assert_eq!(bs("01").concat(&bs("10")), bs("0110"));
        assert_eq!(BitString::empty().concat(&bs("10")), bs("10"));
        assert_eq!(bs("10").concat(&BitString::empty()), bs("10"));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for lit in ["ε", "0", "1", "01", "10110", "00000000", "111111111"] {
            let s = bs(lit);
            let printed = s.to_string();
            let reparsed: BitString = printed.parse().unwrap();
            assert_eq!(reparsed, s);
        }
        assert_eq!(BitString::empty().to_string(), "ε");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("01x".parse::<BitString>().is_err());
        assert!("2".parse::<BitString>().is_err());
        let err = "01a".parse::<BitString>().unwrap_err();
        assert!(err.to_string().contains('a'));
    }

    #[test]
    fn total_order_is_consistent_with_equality() {
        let strings = ["ε", "0", "1", "00", "01", "10", "11", "010", "011"];
        for a in strings {
            for b in strings {
                let (a, b) = (bs(a), bs(b));
                assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
                assert_eq!(a.cmp(&b).reverse(), b.cmp(&a));
            }
        }
    }

    #[test]
    fn total_order_refines_prefix_order() {
        // If a is a strict prefix of b then a < b in the total order.
        let strings = ["ε", "0", "1", "00", "01", "010", "0101", "10", "11", "110"];
        for a in strings {
            for b in strings {
                let (a, b) = (bs(a), bs(b));
                if a.is_strict_prefix_of(&b) {
                    assert_eq!(a.cmp(&b), Ordering::Less, "{a} should sort before {b}");
                }
            }
        }
    }

    #[test]
    fn iterator_yields_all_bits_in_order() {
        let s = bs("10110");
        let bits: Vec<Bit> = s.iter().collect();
        assert_eq!(bits, vec![Bit::One, Bit::Zero, Bit::One, Bit::One, Bit::Zero]);
        assert_eq!(s.iter().len(), 5);
        let rebuilt: BitString = bits.into_iter().collect();
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn extend_appends() {
        let mut s = bs("10");
        s.extend(bs("01").iter());
        assert_eq!(s, bs("1001"));
    }

    #[test]
    fn get_out_of_range() {
        let s = bs("01");
        assert_eq!(s.get(2), None);
        assert_eq!(BitString::empty().get(0), None);
    }

    #[test]
    fn long_strings_cross_byte_boundaries() {
        let mut s = BitString::empty();
        for i in 0..100 {
            s.push(if i % 3 == 0 { Bit::One } else { Bit::Zero });
        }
        assert_eq!(s.len(), 100);
        for i in 0..100 {
            assert_eq!(s.get(i), Some(Bit::from(i % 3 == 0)), "bit {i}");
        }
        let prefix = BitString::from_bits((0..64).map(|i| Bit::from(i % 3 == 0)));
        assert!(prefix.is_prefix_of(&s));
        assert!(!s.is_prefix_of(&prefix));
    }

    #[test]
    fn bit_conversions() {
        assert_eq!(u8::from(Bit::Zero), 0);
        assert_eq!(u8::from(Bit::One), 1);
        assert_eq!(usize::from(Bit::One), 1);
        assert_eq!(Bit::from(true), Bit::One);
        assert_eq!(Bit::from(false), Bit::Zero);
        assert!(bool::from(Bit::One));
        assert!(!bool::from(Bit::Zero));
        assert!(Bit::One.is_one());
        assert!(Bit::Zero.is_zero());
        assert_eq!(Bit::Zero.to_string(), "0");
        assert_eq!(Bit::One.to_string(), "1");
    }

    #[test]
    fn bit_size_matches_len() {
        assert_eq!(bs("ε").bit_size(), 0);
        assert_eq!(bs("0101").bit_size(), 4);
    }
}
