//! Machine-checked versions of the paper's invariants I1–I3 (Section 4).
//!
//! The paper proves, by induction on reachable configurations, that:
//!
//! * **I1** — in every stamp, `update ⊑ id`;
//! * **I2** — for any two *distinct* frontier elements, every string of one
//!   id is incomparable with every string of the other (identities are
//!   disjoint);
//! * **I3** — for any two distinct frontier elements `x`, `y` and any string
//!   `r ∈ update_x`: if `{r} ⊑ id_y` then `{r} ⊑ update_y` (knowledge that
//!   falls inside another element's identity must already be known to that
//!   element).
//!
//! These are re-stated here as executable checks over a frontier of stamps.
//! The property-test suites (experiment E5) run them after every operation
//! of randomly generated traces, for both the reducing and non-reducing
//! mechanisms; the simulator's auditor runs them during long scenario
//! replays.

use core::fmt;

use crate::config::{Configuration, ElementId};
use crate::mechanism::Mechanism;
use crate::name::Name;
use crate::name_like::NameLike;
use crate::stamp::Stamp;

/// A single invariant violation found by the auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The named component is not an antichain (well-formedness).
    NotAntichain {
        /// Element whose stamp is malformed.
        element: ElementId,
        /// `"update"` or `"id"`.
        component: &'static str,
    },
    /// Invariant I1 (`update ⊑ id`) fails for an element.
    I1 {
        /// The offending element.
        element: ElementId,
        /// Its update component.
        update: Name,
        /// Its id component.
        id: Name,
    },
    /// Invariant I2 fails for a pair of elements (their ids share comparable
    /// strings).
    I2 {
        /// First element of the offending pair.
        left: ElementId,
        /// Second element of the offending pair.
        right: ElementId,
    },
    /// Invariant I3 fails for an ordered pair of elements.
    I3 {
        /// The element contributing the update string `r`.
        source: ElementId,
        /// The element whose id dominates `r` but whose update does not.
        target: ElementId,
        /// The offending string, as a singleton name.
        witness: Name,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NotAntichain { element, component } => {
                write!(f, "element {element}: {component} component is not an antichain")
            }
            Violation::I1 { element, update, id } => {
                write!(f, "element {element}: I1 fails, update {update} not ⊑ id {id}")
            }
            Violation::I2 { left, right } => {
                write!(f, "elements {left}, {right}: I2 fails, identities are not disjoint")
            }
            Violation::I3 { source, target, witness } => {
                write!(
                    f,
                    "elements {source} → {target}: I3 fails for string {witness} (dominated by target id but not by target update)"
                )
            }
        }
    }
}

/// Outcome of auditing a frontier against the invariants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    violations: Vec<Violation>,
}

impl InvariantReport {
    /// Returns `true` when no violation was found.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations found, in deterministic order.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Panics with a readable message if any violation was found. Intended
    /// for tests and the simulator's auditing mode.
    ///
    /// # Panics
    ///
    /// Panics when the report contains at least one violation.
    pub fn assert_ok(&self) {
        assert!(self.is_ok(), "invariant violations: {self}");
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return f.write_str("all invariants hold");
        }
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Checks Invariant I1 for a single stamp.
#[must_use]
pub fn holds_i1<N: NameLike>(stamp: &Stamp<N>) -> bool {
    stamp.update_name().leq(stamp.id_name())
}

/// Checks Invariant I2 for a pair of (distinct) stamps.
#[must_use]
pub fn holds_i2<N: NameLike>(left: &Stamp<N>, right: &Stamp<N>) -> bool {
    left.id_name().to_name().all_incomparable_with(&right.id_name().to_name())
}

/// Checks Invariant I3 for an ordered pair of (distinct) stamps: every
/// string of `source`'s update that is dominated by `target`'s id must also
/// be dominated by `target`'s update.
#[must_use]
pub fn holds_i3<N: NameLike>(source: &Stamp<N>, target: &Stamp<N>) -> bool {
    i3_witness(source, target).is_none()
}

/// Returns a string witnessing an I3 violation for the ordered pair, if any.
#[must_use]
pub fn i3_witness<N: NameLike>(source: &Stamp<N>, target: &Stamp<N>) -> Option<Name> {
    let source_update = source.update_name().to_name();
    let target_id = target.id_name().to_name();
    let target_update = target.update_name().to_name();
    for r in source_update.iter() {
        if target_id.dominates_string(r) && !target_update.dominates_string(r) {
            return Some(Name::from_string(r.clone()));
        }
    }
    None
}

/// Returns `true` when some string of `sorted` (a name's strings in the
/// deterministic [`Name::iter`] order) has `r` as a prefix.
///
/// All extensions of `r` form a contiguous run starting at the first string
/// `≥ r` (any string between `r` and one of its extensions must itself
/// extend `r`), so one binary search decides domination.
fn sorted_dominates(
    sorted: &[&crate::bitstring::BitString],
    r: &crate::bitstring::BitString,
) -> bool {
    let start = sorted.partition_point(|s| *s < r);
    sorted.get(start).is_some_and(|s| r.is_prefix_of(s))
}

/// Audits a frontier given as `(identifier, stamp)` pairs, returning every
/// violation of well-formedness and of invariants I1–I3.
///
/// The frontier-wide checks are near-linear in the total number of identity
/// strings on valid frontiers: I2 compares each string of one globally
/// sorted list only against the contiguous run of strings it dominates
/// (empty when I2 holds), and I3's domination tests are binary searches.
/// Quadratic per-pair scans made the E5 auditor unusable on fragmented
/// identities.
pub fn audit_frontier<'a, N, I>(frontier: I) -> InvariantReport
where
    N: NameLike + 'a,
    I: IntoIterator<Item = (ElementId, &'a Stamp<N>)>,
{
    let elements: Vec<(ElementId, &Stamp<N>)> = frontier.into_iter().collect();
    let mut violations = Vec::new();

    // Materialize each component once; every check below works on these.
    let updates: Vec<Name> = elements.iter().map(|(_, s)| s.update_name().to_name()).collect();
    let ids: Vec<Name> = elements.iter().map(|(_, s)| s.id_name().to_name()).collect();

    for (index, &(id, _)) in elements.iter().enumerate() {
        if !updates[index].is_antichain() {
            violations.push(Violation::NotAntichain { element: id, component: "update" });
        }
        if !ids[index].is_antichain() {
            violations.push(Violation::NotAntichain { element: id, component: "id" });
        }
        if !updates[index].leq(&ids[index]) {
            violations.push(Violation::I1 {
                element: id,
                update: updates[index].clone(),
                id: ids[index].clone(),
            });
        }
    }

    // I2: sort every identity string once, tagged with its owner. All the
    // extensions of a string form a contiguous run right after it, so each
    // string is compared against exactly the strings it dominates. Valid
    // frontiers have empty runs (one adjacent check per string); the scan
    // only goes quadratic when almost every pair violates, where the
    // violation list itself is quadratic.
    let mut all_id_strings: Vec<(&crate::bitstring::BitString, usize)> = ids
        .iter()
        .enumerate()
        .flat_map(|(owner, name)| name.iter().map(move |s| (s, owner)))
        .collect();
    all_id_strings.sort_by(|a, b| a.0.cmp(b.0));
    let mut i2_pairs: std::collections::BTreeSet<(usize, usize)> =
        std::collections::BTreeSet::new();
    for (index, &(prefix, owner)) in all_id_strings.iter().enumerate() {
        for &(extension, other) in all_id_strings[index + 1..].iter() {
            if !prefix.is_prefix_of(extension) {
                break;
            }
            if owner != other {
                i2_pairs.insert((owner.min(other), owner.max(other)));
            }
        }
    }
    for (left, right) in i2_pairs {
        violations.push(Violation::I2 { left: elements[left].0, right: elements[right].0 });
    }

    // I3: for each update string `r`, find the elements whose id dominates
    // it (a contiguous run in the global sorted list) and require their
    // updates to dominate it too.
    let sorted_updates: Vec<Vec<&crate::bitstring::BitString>> =
        updates.iter().map(|name| name.iter().collect()).collect();
    let mut i3_pairs: std::collections::BTreeSet<(usize, usize)> =
        std::collections::BTreeSet::new();
    for (source, update) in updates.iter().enumerate() {
        for r in update.iter() {
            let start = all_id_strings.partition_point(|(s, _)| *s < r);
            for &(s, target) in all_id_strings[start..].iter() {
                if !r.is_prefix_of(s) {
                    break;
                }
                if target != source
                    && !sorted_dominates(&sorted_updates[target], r)
                    && i3_pairs.insert((source, target))
                {
                    violations.push(Violation::I3 {
                        source: elements[source].0,
                        target: elements[target].0,
                        witness: Name::from_string(r.clone()),
                    });
                }
            }
        }
    }

    InvariantReport { violations }
}

/// Audits the frontier of a stamp [`Configuration`], under any stamp
/// mechanism (either [`Reduction`](crate::Reduction), or the frontier GC).
#[must_use]
pub fn audit_configuration<N: NameLike, M>(config: &Configuration<M>) -> InvariantReport
where
    M: Mechanism<Element = Stamp<N>>,
{
    audit_frontier(config.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Operation;
    use crate::mechanism::VersionStampMechanism;
    use crate::stamp::{SetStamp, VersionStamp};

    fn name(s: &str) -> Name {
        s.parse().expect("valid name literal")
    }

    #[test]
    fn single_stamp_invariants() {
        let seed = VersionStamp::seed();
        assert!(holds_i1(&seed));
        let (a, b) = seed.fork();
        assert!(holds_i1(&a) && holds_i1(&b));
        assert!(holds_i2(&a, &b));
        assert!(holds_i3(&a, &b) && holds_i3(&b, &a));
        let a1 = a.update();
        assert!(holds_i1(&a1));
        assert!(holds_i2(&a1, &b));
        assert!(holds_i3(&a1, &b) && holds_i3(&b, &a1));
    }

    #[test]
    fn constructed_violations_are_detected() {
        // I1 violation: update not dominated by id.
        let bad_i1 = SetStamp::from_parts_unchecked(name("{1}"), name("{0}"));
        assert!(!holds_i1(&bad_i1));

        // I2 violation: overlapping identities.
        let x = SetStamp::from_parts_unchecked(name("{0}"), name("{0}"));
        let y = SetStamp::from_parts_unchecked(name("{}"), name("{00}"));
        assert!(!holds_i2(&x, &y));

        // I3 violation: x knows about a string inside y's identity that y
        // does not know about.
        let x = SetStamp::from_parts_unchecked(name("{1}"), name("{0}"));
        let y = SetStamp::from_parts_unchecked(name("{}"), name("{1}"));
        assert!(!holds_i3(&x, &y));
        assert_eq!(i3_witness(&x, &y), Some(name("{1}")));
        assert!(holds_i3(&y, &x));
    }

    #[test]
    fn audit_reports_every_kind_of_violation() {
        let good = SetStamp::from_parts_unchecked(name("{0}"), name("{0}"));
        let bad = SetStamp::from_parts_unchecked(name("{1}"), name("{01}"));
        let report = audit_frontier([(ElementId::new(0), &good), (ElementId::new(1), &bad)]);
        assert!(!report.is_ok());
        // bad violates I1 (update {1} ⋢ id {01}) and I2 against good
        // (id {01} comparable with id {0}) and I3 (string 1 … actually I3
        // needs domination, check report non-empty and displays).
        assert!(report.violations().iter().any(|v| matches!(v, Violation::I1 { .. })));
        assert!(report.violations().iter().any(|v| matches!(v, Violation::I2 { .. })));
        let text = report.to_string();
        assert!(text.contains("I1") || text.contains("not ⊑"));
        let display_all: Vec<String> = report.violations().iter().map(|v| v.to_string()).collect();
        assert!(!display_all.is_empty());
    }

    #[test]
    fn audit_reports_every_i2_pair_in_nested_chains() {
        // Regression: ids {0}, {01}, {011} violate I2 pairwise; the sorted
        // scan must report all three pairs, including the non-adjacent
        // (first, third) one.
        let stamps = [
            SetStamp::from_parts_unchecked(name("{}"), name("{0}")),
            SetStamp::from_parts_unchecked(name("{}"), name("{01}")),
            SetStamp::from_parts_unchecked(name("{}"), name("{011}")),
        ];
        let report =
            audit_frontier(stamps.iter().enumerate().map(|(i, s)| (ElementId::new(i as u64), s)));
        let mut i2: Vec<(ElementId, ElementId)> = report
            .violations()
            .iter()
            .filter_map(|v| match v {
                Violation::I2 { left, right } => Some((*left, *right)),
                _ => None,
            })
            .collect();
        i2.sort();
        assert_eq!(
            i2,
            vec![
                (ElementId::new(0), ElementId::new(1)),
                (ElementId::new(0), ElementId::new(2)),
                (ElementId::new(1), ElementId::new(2)),
            ]
        );
    }

    #[test]
    fn audit_detects_malformed_antichains() {
        // Bypass the Name constructors via serde-free manual construction is
        // not possible (Name always normalizes), so exercise the check
        // through the well-formed path: it simply reports no violation.
        let ok = SetStamp::from_parts_unchecked(name("{0}"), name("{0, 1}"));
        let report = audit_frontier([(ElementId::new(0), &ok)]);
        report.assert_ok();
        assert_eq!(report.to_string(), "all invariants hold");
    }

    #[test]
    #[should_panic(expected = "invariant violations")]
    fn assert_ok_panics_on_violation() {
        let bad = SetStamp::from_parts_unchecked(name("{1}"), name("{0}"));
        audit_frontier([(ElementId::new(0), &bad)]).assert_ok();
    }

    #[test]
    fn invariants_hold_along_a_deterministic_run() {
        let mut config = Configuration::new(VersionStampMechanism::reducing());
        let mut rng_state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            // xorshift-style deterministic pseudo-randomness, no external rng
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            let ids = config.ids();
            let pick =
                |offset: u64| ids[(rng_state.wrapping_add(offset) % ids.len() as u64) as usize];
            let op = match rng_state % 3 {
                0 => Operation::Update(pick(0)),
                1 => Operation::Fork(pick(1)),
                _ => {
                    if ids.len() >= 2 {
                        let a = pick(0);
                        let mut b = pick(3);
                        if a == b {
                            b = *ids.iter().find(|&&x| x != a).expect("len >= 2");
                        }
                        Operation::Join(a, b)
                    } else {
                        Operation::Fork(pick(0))
                    }
                }
            };
            config.apply(op).expect("operation over live ids");
            audit_configuration(&config).assert_ok();
        }
    }

    #[test]
    fn invariants_hold_for_non_reducing_runs_too() {
        let mut config = Configuration::new(VersionStampMechanism::non_reducing());
        let root = config.ids()[0];
        let mut outcomes = vec![root];
        // fork a few times, update everything, join everything back
        for _ in 0..4 {
            let target = outcomes[0];
            match config.apply(Operation::Fork(target)).unwrap() {
                crate::config::Applied::Forked(a, b) => {
                    outcomes.remove(0);
                    outcomes.push(a);
                    outcomes.push(b);
                }
                _ => unreachable!(),
            }
            audit_configuration(&config).assert_ok();
        }
        let ids = config.ids();
        for id in ids {
            config.apply(Operation::Update(id)).unwrap();
            audit_configuration(&config).assert_ok();
        }
        while config.len() > 1 {
            let ids = config.ids();
            config.apply(Operation::Join(ids[0], ids[1])).unwrap();
            audit_configuration(&config).assert_ok();
        }
    }
}
