//! # vstamp-panasync — dependency tracking among file copies
//!
//! The paper reports that version stamps were implemented in the PANASYNC
//! project, "an application of version stamps to file replication, providing
//! a set of tools for dependency tracking on single file copies". This crate
//! reproduces that application on an in-memory file model: the original
//! project's C++/STL library and command-line tools operated on real files,
//! but the causality-tracking behaviour is identical — only the storage
//! layer is simulated.
//!
//! A [`FileCopy`] is a piece of content plus a [`VersionStamp`]. Copies are
//! created by [`FileCopy::duplicate`] (fork), edited in place
//! ([`FileCopy::write`], update) and reconciled ([`FileCopy::reconcile`],
//! compare + join). A [`Workspace`] manages a set of named copies the way
//! the PANASYNC tools managed files in different directories or hosts.
//!
//! ```
//! use vstamp_panasync::{FileCopy, Reconciliation};
//!
//! let original = FileCopy::create("notes.txt", "v1");
//! let (mut laptop, mut desktop) = original.duplicate();
//! laptop.write("v2 written on the laptop");
//!
//! // The desktop copy is obsolete: reconciliation fast-forwards it.
//! match laptop.reconcile(&desktop) {
//!     Reconciliation::FastForward(copy) => desktop = copy,
//!     other => panic!("unexpected {other:?}"),
//! }
//! assert_eq!(desktop.content(), "v2 written on the laptop");
//! # let _ = desktop;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use core::fmt;
use std::collections::BTreeMap;

use vstamp_core::{Relation, VersionStamp};

/// One replica ("copy") of a file: its name, its content and the version
/// stamp tracking which writes it has seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCopy {
    name: String,
    content: String,
    stamp: VersionStamp,
}

impl FileCopy {
    /// Creates the first copy of a file.
    #[must_use]
    pub fn create(name: impl Into<String>, content: impl Into<String>) -> Self {
        FileCopy { name: name.into(), content: content.into(), stamp: VersionStamp::seed() }
    }

    /// The file name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current content of this copy.
    #[must_use]
    pub fn content(&self) -> &str {
        &self.content
    }

    /// The version stamp of this copy.
    #[must_use]
    pub fn stamp(&self) -> &VersionStamp {
        &self.stamp
    }

    /// Duplicates the copy (e.g. copying the file to another machine). Both
    /// results carry forked stamps and can evolve independently — no
    /// coordination of any kind is involved, exactly the scenario PANASYNC
    /// targets.
    #[must_use]
    pub fn duplicate(&self) -> (FileCopy, FileCopy) {
        let (left, right) = self.stamp.fork();
        (
            FileCopy { name: self.name.clone(), content: self.content.clone(), stamp: left },
            FileCopy { name: self.name.clone(), content: self.content.clone(), stamp: right },
        )
    }

    /// Overwrites the content of this copy, recording the write in the
    /// stamp.
    pub fn write(&mut self, content: impl Into<String>) {
        self.content = content.into();
        self.stamp = self.stamp.update();
    }

    /// Classifies this copy against another copy of the same file.
    #[must_use]
    pub fn relation(&self, other: &FileCopy) -> Relation {
        self.stamp.relation(&other.stamp)
    }

    /// Returns `true` when the two copies have seen exactly the same writes.
    #[must_use]
    pub fn is_equivalent_to(&self, other: &FileCopy) -> bool {
        self.relation(other).is_equal()
    }

    /// Returns `true` when this copy is obsolete relative to `other`.
    #[must_use]
    pub fn is_obsolete_relative_to(&self, other: &FileCopy) -> bool {
        self.relation(other).is_dominated()
    }

    /// Returns `true` when the copies hold conflicting (concurrent) writes.
    #[must_use]
    pub fn conflicts_with(&self, other: &FileCopy) -> bool {
        self.relation(other).is_concurrent()
    }

    /// Reconciles this copy (taken as the local, authoritative one) with
    /// another copy of the same file.
    ///
    /// * equivalent copies → [`Reconciliation::InSync`] with the merged
    ///   stamp for the remote side;
    /// * the remote copy is obsolete → [`Reconciliation::FastForward`]:
    ///   a replacement carrying the local content;
    /// * the local copy is obsolete → [`Reconciliation::Outdated`]: the
    ///   caller should adopt the returned copy (remote content);
    /// * concurrent writes → [`Reconciliation::Conflict`] carrying both
    ///   contents and the joined stamp, for the caller (or the user) to
    ///   resolve via [`FileCopy::resolve_conflict`].
    #[must_use]
    pub fn reconcile(&self, other: &FileCopy) -> Reconciliation {
        let joined = self.stamp.join(&other.stamp);
        match self.relation(other) {
            Relation::Equal => Reconciliation::InSync(FileCopy {
                name: self.name.clone(),
                content: self.content.clone(),
                stamp: joined,
            }),
            Relation::Dominates => Reconciliation::FastForward(FileCopy {
                name: self.name.clone(),
                content: self.content.clone(),
                stamp: joined,
            }),
            Relation::Dominated => Reconciliation::Outdated(FileCopy {
                name: self.name.clone(),
                content: other.content.clone(),
                stamp: joined,
            }),
            Relation::Concurrent => Reconciliation::Conflict(Conflict {
                name: self.name.clone(),
                local_content: self.content.clone(),
                remote_content: other.content.clone(),
                merged_stamp: joined,
            }),
        }
    }

    /// Builds the copy that results from manually resolving a conflict.
    #[must_use]
    pub fn resolve_conflict(conflict: &Conflict, resolved_content: impl Into<String>) -> FileCopy {
        FileCopy {
            name: conflict.name.clone(),
            content: resolved_content.into(),
            // the resolution is itself a new write
            stamp: conflict.merged_stamp.update(),
        }
    }
}

impl fmt::Display for FileCopy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({} bytes)", self.name, self.stamp, self.content.len())
    }
}

/// The outcome of reconciling two copies of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reconciliation {
    /// Both copies had seen the same writes; the carried copy holds the
    /// merged stamp.
    InSync(FileCopy),
    /// The other copy was obsolete; the carried copy replaces it.
    FastForward(FileCopy),
    /// The local copy was obsolete; the carried copy replaces it.
    Outdated(FileCopy),
    /// The copies held concurrent writes; manual resolution is required.
    Conflict(Conflict),
}

/// The data needed to resolve a conflict between two copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The file name.
    pub name: String,
    /// Content of the local copy.
    pub local_content: String,
    /// Content of the remote copy.
    pub remote_content: String,
    /// The join of both stamps; the resolved copy records a fresh write on
    /// top of it.
    pub merged_stamp: VersionStamp,
}

/// A set of named locations each holding one copy of the same file — the
/// in-memory equivalent of the directories/hosts the PANASYNC tools managed.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    copies: BTreeMap<String, FileCopy>,
}

/// Errors returned by [`Workspace`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkspaceError {
    /// The named location does not exist.
    UnknownLocation(String),
    /// The named location already holds a copy.
    LocationTaken(String),
}

impl fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkspaceError::UnknownLocation(l) => write!(f, "no copy at location {l:?}"),
            WorkspaceError::LocationTaken(l) => write!(f, "location {l:?} already holds a copy"),
        }
    }
}

impl std::error::Error for WorkspaceError {}

impl Workspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Creates the original copy of a file at `location`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkspaceError::LocationTaken`] if the location is in use.
    pub fn create(
        &mut self,
        location: impl Into<String>,
        name: impl Into<String>,
        content: impl Into<String>,
    ) -> Result<(), WorkspaceError> {
        let location = location.into();
        if self.copies.contains_key(&location) {
            return Err(WorkspaceError::LocationTaken(location));
        }
        self.copies.insert(location, FileCopy::create(name, content));
        Ok(())
    }

    /// Copies the file at `from` to the new location `to` (fork).
    ///
    /// # Errors
    ///
    /// Returns [`WorkspaceError::UnknownLocation`] / [`WorkspaceError::LocationTaken`].
    pub fn copy(&mut self, from: &str, to: impl Into<String>) -> Result<(), WorkspaceError> {
        let to = to.into();
        if self.copies.contains_key(&to) {
            return Err(WorkspaceError::LocationTaken(to));
        }
        let source = self
            .copies
            .get(from)
            .ok_or_else(|| WorkspaceError::UnknownLocation(from.to_owned()))?;
        let (kept, created) = source.duplicate();
        self.copies.insert(from.to_owned(), kept);
        self.copies.insert(to, created);
        Ok(())
    }

    /// Writes new content to the copy at `location`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkspaceError::UnknownLocation`] if the location is empty.
    pub fn write(
        &mut self,
        location: &str,
        content: impl Into<String>,
    ) -> Result<(), WorkspaceError> {
        let copy = self
            .copies
            .get_mut(location)
            .ok_or_else(|| WorkspaceError::UnknownLocation(location.to_owned()))?;
        copy.write(content);
        Ok(())
    }

    /// The copy at `location`, if any.
    #[must_use]
    pub fn get(&self, location: &str) -> Option<&FileCopy> {
        self.copies.get(location)
    }

    /// Number of locations holding a copy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.copies.len()
    }

    /// Returns `true` when no location holds a copy.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }

    /// Classifies the copies at two locations.
    ///
    /// # Errors
    ///
    /// Returns [`WorkspaceError::UnknownLocation`] for a missing location.
    pub fn compare(&self, left: &str, right: &str) -> Result<Relation, WorkspaceError> {
        let l = self
            .copies
            .get(left)
            .ok_or_else(|| WorkspaceError::UnknownLocation(left.to_owned()))?;
        let r = self
            .copies
            .get(right)
            .ok_or_else(|| WorkspaceError::UnknownLocation(right.to_owned()))?;
        Ok(l.relation(r))
    }

    /// Collapses a just-joined stamp with frontier evidence from every copy
    /// *except* the two being replaced by it: at the join point the pair's
    /// mutually fragmented identity becomes exclusive to the joined stamp,
    /// which is exactly when the GC of [`vstamp_core::gc`] can fire. This
    /// is what keeps long copy/edit/sync histories bounded (the ROADMAP
    /// fragmentation wall); see `examples/file_sync.rs` for a 40-epoch
    /// partition/heal run.
    fn gc_joined(&self, consumed: [&str; 2], mut copy: FileCopy) -> FileCopy {
        let evidence = vstamp_core::gc::FrontierEvidence::from_stamps(
            self.copies
                .iter()
                .filter(|(l, _)| *l != consumed[0] && *l != consumed[1])
                .map(|(_, c)| c.stamp()),
        );
        copy.stamp =
            vstamp_core::gc::shrink_to_covers(&vstamp_core::gc::collapse(&copy.stamp, &evidence));
        copy
    }

    /// Synchronizes the copies at two locations: obsolete content is
    /// replaced, equivalent copies keep their content, and conflicts are
    /// reported without touching either copy.
    ///
    /// In the non-conflict outcomes (including [`SyncOutcome::AlreadyInSync`])
    /// both locations receive fresh stamps: the merged stamp is compacted
    /// with frontier-evidence GC and split back onto the pair — the
    /// workspace holds the whole frontier of the file, so it can supply the
    /// evidence the collapse needs (see [`vstamp_core::gc`]). Stamps cloned
    /// out of the workspace before a synchronization are therefore stale
    /// and must not be compared against live copies (the paper's frontier
    /// rule).
    ///
    /// # Errors
    ///
    /// Returns [`WorkspaceError::UnknownLocation`] for a missing location.
    pub fn synchronize(&mut self, left: &str, right: &str) -> Result<SyncOutcome, WorkspaceError> {
        let l = self
            .copies
            .get(left)
            .ok_or_else(|| WorkspaceError::UnknownLocation(left.to_owned()))?
            .clone();
        let r = self
            .copies
            .get(right)
            .ok_or_else(|| WorkspaceError::UnknownLocation(right.to_owned()))?
            .clone();
        match l.reconcile(&r) {
            Reconciliation::InSync(merged) => {
                // Both copies carried the same writes; re-split the merged
                // (and GC'd) stamp so the pair sheds its mutual identity
                // fragmentation even when no content moves.
                let (for_left, for_right) = self.gc_joined([left, right], merged).duplicate();
                self.copies.insert(left.to_owned(), for_left);
                self.copies.insert(right.to_owned(), for_right);
                Ok(SyncOutcome::AlreadyInSync)
            }
            Reconciliation::FastForward(updated_remote) => {
                // propagate the local content to the right location; split
                // the merged stamp so both copies remain distinct replicas
                let (for_left, for_right) =
                    self.gc_joined([left, right], updated_remote).duplicate();
                self.copies.insert(left.to_owned(), for_left);
                self.copies.insert(right.to_owned(), for_right);
                Ok(SyncOutcome::Propagated { from: left.to_owned(), to: right.to_owned() })
            }
            Reconciliation::Outdated(updated_local) => {
                let (for_left, for_right) =
                    self.gc_joined([left, right], updated_local).duplicate();
                self.copies.insert(left.to_owned(), for_left);
                self.copies.insert(right.to_owned(), for_right);
                Ok(SyncOutcome::Propagated { from: right.to_owned(), to: left.to_owned() })
            }
            Reconciliation::Conflict(conflict) => Ok(SyncOutcome::Conflict(conflict)),
        }
    }

    /// Resolves a conflict between two locations with the given content and
    /// installs the resolution at both.
    ///
    /// # Errors
    ///
    /// Returns [`WorkspaceError::UnknownLocation`] for a missing location.
    pub fn resolve(
        &mut self,
        left: &str,
        right: &str,
        content: impl Into<String>,
    ) -> Result<(), WorkspaceError> {
        let l = self
            .copies
            .get(left)
            .ok_or_else(|| WorkspaceError::UnknownLocation(left.to_owned()))?;
        let r = self
            .copies
            .get(right)
            .ok_or_else(|| WorkspaceError::UnknownLocation(right.to_owned()))?;
        let conflict = Conflict {
            name: l.name().to_owned(),
            local_content: l.content().to_owned(),
            remote_content: r.content().to_owned(),
            merged_stamp: l.stamp().join(r.stamp()),
        };
        let resolved = FileCopy::resolve_conflict(&conflict, content);
        let (for_left, for_right) = self.gc_joined([left, right], resolved).duplicate();
        self.copies.insert(left.to_owned(), for_left);
        self.copies.insert(right.to_owned(), for_right);
        Ok(())
    }

    /// Iterates over `(location, copy)` pairs in location order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FileCopy)> {
        self.copies.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total identity strings across all copies — the fragmentation metric
    /// of the ROADMAP scaling wall, applied to this workspace.
    #[must_use]
    pub fn identity_strings(&self) -> usize {
        self.copies.values().map(|c| c.stamp().id_name().string_count()).sum()
    }

    /// Compacts the identities of every copy, using the whole frontier the
    /// workspace holds:
    ///
    /// * **Quiescent recycling** — when every copy is pairwise
    ///   [`Relation::Equal`] (the state a completed anti-entropy sweep
    ///   leaves behind), the entire identity space is re-minted: all
    ///   stamps are replaced by a fresh balanced fork tree of the seed.
    ///   Every pairwise relation is `Equal` before and after, the next
    ///   write on any copy dominates the others exactly as it would have,
    ///   and no stale stamp is ever compared again (the workspace owns all
    ///   copies) — this is the recycling discipline of bounded-timestamp
    ///   systems, and the only rewrite that truly *bounds* identities
    ///   under sustained mixing.
    /// * Otherwise — per-copy frontier-evidence [`collapse`](vstamp_core::gc::collapse)
    ///   (`vstamp_core::gc`) plus cover shrinking, which reclaims whatever
    ///   subtrees the evidence proves exclusive.
    ///
    /// Calling this after each synchronization sweep keeps long
    /// copy/edit/sync histories bounded (see `examples/file_sync.rs` for a
    /// 40-epoch partition/heal run); without it they fragment into the
    /// 10⁴–10⁵-string range measured in ROADMAP.
    ///
    /// Returns the number of identity strings removed.
    pub fn compact(&mut self) -> usize {
        let before: usize = self.identity_strings();
        let stamps: Vec<&VersionStamp> = self.copies.values().map(FileCopy::stamp).collect();
        let quiescent = stamps
            .iter()
            .enumerate()
            .all(|(i, a)| stamps[i + 1..].iter().all(|b| a.relation(b) == Relation::Equal));
        if quiescent && self.copies.len() > 1 {
            let mut fresh = vec![VersionStamp::seed()];
            while fresh.len() < self.copies.len() {
                let victim = fresh.remove(0);
                let (a, b) = victim.fork();
                fresh.push(a);
                fresh.push(b);
            }
            for (copy, stamp) in self.copies.values_mut().zip(fresh) {
                copy.stamp = stamp;
            }
        } else {
            let locations: Vec<String> = self.copies.keys().cloned().collect();
            for location in locations {
                let evidence = vstamp_core::gc::FrontierEvidence::from_stamps(
                    self.copies.iter().filter(|(l, _)| **l != location).map(|(_, c)| c.stamp()),
                );
                let copy = self.copies.get_mut(&location).expect("listed location");
                copy.stamp = vstamp_core::gc::shrink_to_covers(&vstamp_core::gc::collapse(
                    &copy.stamp,
                    &evidence,
                ));
            }
        }
        before.saturating_sub(self.identity_strings())
    }
}

/// The outcome of a pairwise synchronization in a [`Workspace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Both copies already held the same writes.
    AlreadyInSync,
    /// Content was propagated from one location to the other.
    Propagated {
        /// Location whose content won.
        from: String,
        /// Location that was brought up to date.
        to: String,
    },
    /// The copies hold concurrent writes; nothing was changed.
    Conflict(Conflict),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_recycles_at_sync_points_and_preserves_relations() {
        let mut workspace = Workspace::new();
        workspace.create("a", "f", "v0").unwrap();
        for location in ["b", "c", "d"] {
            workspace.copy("a", location).unwrap();
        }
        // Partial histories: b writes, a pulls; c stays behind.
        workspace.write("b", "v1").unwrap();
        workspace.synchronize("a", "b").unwrap();
        let before: Vec<Relation> = [("a", "c"), ("b", "c"), ("a", "b")]
            .iter()
            .map(|(l, r)| workspace.compare(l, r).unwrap())
            .collect();
        workspace.compact();
        let after: Vec<Relation> = [("a", "c"), ("b", "c"), ("a", "b")]
            .iter()
            .map(|(l, r)| workspace.compare(l, r).unwrap())
            .collect();
        assert_eq!(before, after, "compaction must not change any relation");

        // A full sweep reaches quiescence; compact then recycles the whole
        // identity space to one fresh fork-tree leaf per copy.
        for location in ["b", "c", "d"] {
            workspace.synchronize("a", location).unwrap();
        }
        for location in ["b", "c", "d"] {
            assert_eq!(workspace.compare("a", location).unwrap(), Relation::Equal);
        }
        workspace.compact();
        assert_eq!(workspace.identity_strings(), 4);
        for (_, copy) in workspace.iter() {
            assert_eq!(copy.stamp().id_name().string_count(), 1);
            copy.stamp().validate().unwrap();
        }
        // The recycled stamps keep working: a new write dominates the rest.
        workspace.write("c", "v2").unwrap();
        assert_eq!(workspace.compare("c", "a").unwrap(), Relation::Dominates);
    }

    #[test]
    fn create_and_duplicate() {
        let original = FileCopy::create("report.txt", "draft");
        assert_eq!(original.name(), "report.txt");
        assert_eq!(original.content(), "draft");
        assert!(original.stamp().is_seed_identity());
        let (a, b) = original.duplicate();
        assert!(a.is_equivalent_to(&b));
        assert_eq!(a.content(), b.content());
        assert!(original.to_string().contains("report.txt"));
    }

    #[test]
    fn writes_make_other_copies_obsolete() {
        let (mut a, b) = FileCopy::create("f", "v1").duplicate();
        a.write("v2");
        assert!(b.is_obsolete_relative_to(&a));
        assert!(!a.is_obsolete_relative_to(&b));
        assert!(!a.conflicts_with(&b));
        assert_eq!(a.relation(&b), Relation::Dominates);
    }

    #[test]
    fn concurrent_writes_conflict() {
        let (mut a, mut b) = FileCopy::create("f", "v1").duplicate();
        a.write("laptop edit");
        b.write("desktop edit");
        assert!(a.conflicts_with(&b));
        match a.reconcile(&b) {
            Reconciliation::Conflict(conflict) => {
                assert_eq!(conflict.local_content, "laptop edit");
                assert_eq!(conflict.remote_content, "desktop edit");
                let resolved = FileCopy::resolve_conflict(&conflict, "merged edit");
                assert_eq!(resolved.content(), "merged edit");
                // the resolution dominates… nothing stale is compared; the
                // resolved copy is a fresh frontier of one element
                assert!(resolved.stamp().validate().is_ok());
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn reconcile_outcomes_cover_all_relations() {
        let (a, b) = FileCopy::create("f", "v1").duplicate();
        assert!(matches!(a.reconcile(&b), Reconciliation::InSync(_)));

        let (mut a, b) = FileCopy::create("f", "v1").duplicate();
        a.write("v2");
        match a.reconcile(&b) {
            Reconciliation::FastForward(copy) => assert_eq!(copy.content(), "v2"),
            other => panic!("expected fast-forward, got {other:?}"),
        }
        match b.reconcile(&a) {
            Reconciliation::Outdated(copy) => assert_eq!(copy.content(), "v2"),
            other => panic!("expected outdated, got {other:?}"),
        }
    }

    #[test]
    fn workspace_create_copy_write_compare() {
        let mut ws = Workspace::new();
        assert!(ws.is_empty());
        ws.create("home", "todo.txt", "buy milk").unwrap();
        assert_eq!(ws.create("home", "x", "y"), Err(WorkspaceError::LocationTaken("home".into())));
        ws.copy("home", "laptop").unwrap();
        ws.copy("home", "phone").unwrap();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws.compare("home", "laptop").unwrap(), Relation::Equal);

        ws.write("laptop", "buy milk and bread").unwrap();
        assert_eq!(ws.compare("laptop", "home").unwrap(), Relation::Dominates);
        assert_eq!(ws.compare("phone", "laptop").unwrap(), Relation::Dominated);

        assert!(matches!(ws.copy("nowhere", "x"), Err(WorkspaceError::UnknownLocation(_))));
        assert!(matches!(ws.copy("home", "laptop"), Err(WorkspaceError::LocationTaken(_))));
        assert!(matches!(ws.write("nowhere", "x"), Err(WorkspaceError::UnknownLocation(_))));
        assert!(matches!(ws.compare("nowhere", "home"), Err(WorkspaceError::UnknownLocation(_))));
        assert!(ws.get("home").is_some());
        assert!(ws.get("nowhere").is_none());
        assert_eq!(ws.iter().count(), 3);
    }

    #[test]
    fn workspace_synchronization_propagates_and_detects_conflicts() {
        let mut ws = Workspace::new();
        ws.create("server", "config.ini", "port=80").unwrap();
        ws.copy("server", "edge-a").unwrap();
        ws.copy("server", "edge-b").unwrap();

        ws.write("edge-a", "port=8080").unwrap();
        match ws.synchronize("edge-a", "server").unwrap() {
            SyncOutcome::Propagated { from, to } => {
                assert_eq!(from, "edge-a");
                assert_eq!(to, "server");
            }
            other => panic!("expected propagation, got {other:?}"),
        }
        assert_eq!(ws.get("server").unwrap().content(), "port=8080");
        assert_eq!(ws.compare("server", "edge-a").unwrap(), Relation::Equal);

        // the reverse direction also propagates
        ws.write("server", "port=8443").unwrap();
        match ws.synchronize("edge-a", "server").unwrap() {
            SyncOutcome::Propagated { from, to } => {
                assert_eq!(from, "server");
                assert_eq!(to, "edge-a");
            }
            other => panic!("expected propagation, got {other:?}"),
        }

        // already in sync
        assert_eq!(ws.synchronize("edge-a", "server").unwrap(), SyncOutcome::AlreadyInSync);

        // concurrent writes conflict and are resolved explicitly
        ws.write("edge-a", "port=1").unwrap();
        ws.write("edge-b", "port=2").unwrap();
        match ws.synchronize("edge-a", "edge-b").unwrap() {
            SyncOutcome::Conflict(conflict) => {
                assert_eq!(conflict.local_content, "port=1");
                assert_eq!(conflict.remote_content, "port=2");
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        ws.resolve("edge-a", "edge-b", "port=3").unwrap();
        assert_eq!(ws.get("edge-a").unwrap().content(), "port=3");
        assert_eq!(ws.get("edge-b").unwrap().content(), "port=3");
        assert_eq!(ws.compare("edge-a", "edge-b").unwrap(), Relation::Equal);
        assert!(matches!(
            ws.synchronize("nowhere", "edge-a"),
            Err(WorkspaceError::UnknownLocation(_))
        ));
        assert!(matches!(
            ws.resolve("nowhere", "edge-a", "x"),
            Err(WorkspaceError::UnknownLocation(_))
        ));
    }

    #[test]
    fn long_disconnected_editing_session_stays_consistent() {
        // A laptop goes offline, edits many times, comes back and
        // synchronizes; meanwhile the server copy was also copied around.
        let mut ws = Workspace::new();
        ws.create("server", "paper.tex", "abstract").unwrap();
        ws.copy("server", "laptop").unwrap();
        ws.copy("server", "mirror").unwrap();
        for i in 0..50 {
            ws.write("laptop", format!("revision {i}")).unwrap();
        }
        assert_eq!(ws.compare("laptop", "server").unwrap(), Relation::Dominates);
        assert_eq!(ws.compare("mirror", "laptop").unwrap(), Relation::Dominated);
        ws.synchronize("laptop", "server").unwrap();
        ws.synchronize("server", "mirror").unwrap();
        assert_eq!(ws.get("mirror").unwrap().content(), "revision 49");
        assert_eq!(ws.compare("laptop", "mirror").unwrap(), Relation::Equal);
        // stamps stay small: repeated updates do not accumulate
        for (_, copy) in ws.iter() {
            assert!(copy.stamp().bit_size() < 64, "stamp grew unexpectedly: {}", copy.stamp());
        }
    }

    #[test]
    fn workspace_error_display() {
        assert!(WorkspaceError::UnknownLocation("x".into()).to_string().contains("no copy"));
        assert!(WorkspaceError::LocationTaken("x".into()).to_string().contains("already"));
    }
}
