//! Cluster membership as a join-semilattice carried by the exchange.
//!
//! There is no coordinator, no identifier allocator, no config service:
//! a joining process dials any live member and receives a forked half of
//! that member's *membership stamp* as its identity — the paper's
//! decentralized creation, applied to the member set itself. Each node
//! holds the set as a [`MemberTable`] outside its store; tables travel on
//! the gossip Probe (see [`node`](crate::node)) and merge with
//! [`MemberTable::merge`], which is commutative, associative and
//! idempotent (a join semilattice), so every node converges on the same
//! table without coordination and without causal versioning.
//!
//! Each entry records, besides liveness, the member's identity
//! **footprint**: its membership id plus every fork half it has *spent*
//! rooting key universes. The footprints are exactly the evidence
//! [`retire_identity`](vstamp_core::retire_identity) needs — when a member
//! is marked [`MemberStatus::Evicted`], its whole footprint, id *and*
//! spent roots, stops contributing, and every survivor's next retirement
//! pass reabsorbs it ([`MemberTable::evidence_for`]); a survivor's own
//! spent roots never defend against its own retirement either. Spent
//! roots are not quarantined: versions minted under them may still be
//! stored, and the reclaimed space can be lent again. That is sound as
//! long as clocks are compared only within one key and the key has reached
//! every node before anyone first-touches it again. The one exposure left
//! is a joiner sponsored from reclaimed space that first-touches a key
//! rooted there before the key has reached it: its root can overlap the
//! old one, and it could mint a dot that a stored clock already holds. No
//! test reproduces it yet.

use std::collections::BTreeMap;

use vstamp_core::codec::{read_frame, read_varint, write_frame, write_varint};
use vstamp_core::{DecodeError, Name, PackedName, StampCodec, VarintCodec};

use crate::store::fnv1a;

/// Liveness of one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// In the cluster: its identity footprint blocks retirement.
    Active,
    /// Evicted: neither its membership id nor its spent key roots defend
    /// their space any more, so survivors reclaim both (see the
    /// [module docs](self) for the exposure that leaves). Sticky —
    /// eviction survives any merge.
    Evicted,
}

/// One member's entry: advertised address, identity footprint, liveness
/// and a per-owner generation counter that orders an entry's rewrites.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberEntry {
    /// The address peers dial, e.g. `127.0.0.1:4021`; doubles as the
    /// entry's table key.
    pub addr: String,
    /// The member's membership-stamp id component.
    pub id: PackedName,
    /// Join of every fork half the member has lent out as a key-universe
    /// root. Monotone: merge always joins both sides.
    pub spent: PackedName,
    /// Liveness; evicted-wins on merge.
    pub status: MemberStatus,
    /// Rewrite counter: the owner bumps it on every self-update, an
    /// evictor bumps it once when marking eviction. Higher wins for the
    /// `id` component.
    pub gen: u64,
}

impl MemberEntry {
    /// A fresh active entry with nothing spent.
    #[must_use]
    pub fn active(addr: impl Into<String>, id: PackedName) -> Self {
        MemberEntry {
            addr: addr.into(),
            id,
            spent: PackedName::empty(),
            status: MemberStatus::Active,
            gen: 0,
        }
    }

    fn merged(&self, other: &MemberEntry) -> MemberEntry {
        let status =
            if self.status == MemberStatus::Evicted || other.status == MemberStatus::Evicted {
                MemberStatus::Evicted
            } else {
                MemberStatus::Active
            };
        // Higher generation carries the authoritative id; an equal-gen
        // conflict (owner rewrite racing an evictor's bump) joins both ids
        // — a conservative superset, which blocks more retirement but is
        // never unsound.
        let id = match self.gen.cmp(&other.gen) {
            std::cmp::Ordering::Greater => self.id.clone(),
            std::cmp::Ordering::Less => other.id.clone(),
            std::cmp::Ordering::Equal => {
                if self.id == other.id {
                    self.id.clone()
                } else {
                    self.id.join(&other.id)
                }
            }
        };
        MemberEntry {
            addr: self.addr.clone(),
            id,
            spent: self.spent.join(&other.spent),
            status,
            gen: self.gen.max(other.gen),
        }
    }
}

/// The replicated member set: entries keyed by advertised address.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemberTable {
    entries: BTreeMap<String, MemberEntry>,
}

impl MemberTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        MemberTable::default()
    }

    /// The entry for `addr`, if present.
    #[must_use]
    pub fn entry(&self, addr: &str) -> Option<&MemberEntry> {
        self.entries.get(addr)
    }

    /// All entries, in address order.
    pub fn entries(&self) -> impl Iterator<Item = &MemberEntry> {
        self.entries.values()
    }

    /// Number of entries (evicted included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or merges one entry (lattice join with any existing entry
    /// for the same address).
    pub fn upsert(&mut self, entry: MemberEntry) {
        match self.entries.get_mut(&entry.addr) {
            Some(existing) => *existing = existing.merged(&entry),
            None => {
                self.entries.insert(entry.addr.clone(), entry);
            }
        }
    }

    /// Replaces the entry for `entry.addr` outright — the *owner's*
    /// rewrite path (fork shrank the id, a spent root was added, a
    /// retirement re-anchored it). Callers bump `gen` past the previous
    /// entry so the rewrite wins downstream merges.
    pub fn put_entry(&mut self, entry: MemberEntry) {
        self.entries.insert(entry.addr.clone(), entry);
    }

    /// Marks `addr` evicted (generation bumped so the mark propagates).
    /// Returns whether the entry existed and was newly evicted.
    pub fn mark_evicted(&mut self, addr: &str) -> bool {
        match self.entries.get_mut(addr) {
            Some(entry) if entry.status == MemberStatus::Active => {
                entry.status = MemberStatus::Evicted;
                entry.gen += 1;
                true
            }
            _ => false,
        }
    }

    /// Lattice join with another table: entry-wise [`MemberEntry`] merge,
    /// union over addresses.
    pub fn merge(&mut self, other: &MemberTable) {
        for entry in other.entries.values() {
            self.upsert(entry.clone());
        }
    }

    /// Addresses of active members, excluding `self_addr`.
    #[must_use]
    pub fn live_peers(&self, self_addr: &str) -> Vec<String> {
        self.entries
            .values()
            .filter(|e| e.status == MemberStatus::Active && e.addr != self_addr)
            .map(|e| e.addr.clone())
            .collect()
    }

    /// Addresses currently marked evicted.
    #[must_use]
    pub fn evicted(&self) -> Vec<String> {
        self.entries
            .values()
            .filter(|e| e.status == MemberStatus::Evicted)
            .map(|e| e.addr.clone())
            .collect()
    }

    /// The retirement evidence as seen by `self_addr`: every *other*
    /// active member defends its id and its spent roots. The caller's own
    /// entry contributes nothing (its id is the thing being retired, and
    /// its own lends sit adjacent to its id — keeping them as evidence
    /// would wall off every upward merge forever), and an evicted
    /// member's entire footprint is reclaimed: its keys live on through
    /// adopted elements whose clocks are only ever compared within their
    /// own key, so overlap between reclaimed membership space and a dead
    /// member's key roots is harmless. The one residual hazard — rooting
    /// an *existing* key a second time from reclaimed space before its
    /// data has gossiped over — is the exposure the node docs keep: the
    /// two roots can overlap.
    ///
    /// Id and spent ride as *separate* names: `Name::join` keeps only
    /// ⊑-maximal strings, which must not erase a block.
    #[must_use]
    pub fn evidence_for(&self, self_addr: &str) -> Vec<Name> {
        let mut evidence = Vec::new();
        for entry in self.entries.values() {
            if entry.addr == self_addr || entry.status != MemberStatus::Active {
                continue;
            }
            evidence.push(entry.id.to_name());
            if !entry.spent.is_empty() {
                evidence.push(entry.spent.to_name());
            }
        }
        evidence
    }

    /// Encodes the table (address-ordered, so equal tables encode
    /// byte-equal).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let codec = VarintCodec;
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        write_varint(&mut out, self.entries.len() as u64);
        for entry in self.entries.values() {
            write_frame(&mut out, entry.addr.as_bytes());
            scratch.clear();
            codec.encode_name_into(&entry.id, &mut scratch);
            write_frame(&mut out, &scratch);
            scratch.clear();
            codec.encode_name_into(&entry.spent, &mut scratch);
            write_frame(&mut out, &scratch);
            out.push(match entry.status {
                MemberStatus::Active => 0,
                MemberStatus::Evicted => 1,
            });
            write_varint(&mut out, entry.gen);
        }
        out
    }

    /// FNV-1a over [`MemberTable::encode`]: equal tables give equal
    /// digests, so a Probe carries 8 bytes instead of the table.
    pub(crate) fn digest(&self) -> u64 {
        fnv1a(&self.encode())
    }

    /// Decodes a table encoded by [`MemberTable::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(bytes: &[u8]) -> Result<MemberTable, DecodeError> {
        let codec = VarintCodec;
        let mut input = bytes;
        let count = read_varint(&mut input)?;
        let mut table = MemberTable::new();
        for _ in 0..count {
            let addr = String::from_utf8(read_frame(&mut input)?.to_vec())
                .map_err(|_| DecodeError::Malformed("member addr is not valid UTF-8"))?;
            let id: PackedName = codec.decode_name(read_frame(&mut input)?)?;
            let spent: PackedName = codec.decode_name(read_frame(&mut input)?)?;
            let (status_byte, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
            input = rest;
            let status = match status_byte {
                0 => MemberStatus::Active,
                1 => MemberStatus::Evicted,
                _ => return Err(DecodeError::Malformed("unknown member status")),
            };
            let gen = read_varint(&mut input)?;
            table.upsert(MemberEntry { addr, id, spent, status, gen });
        }
        if !input.is_empty() {
            return Err(DecodeError::TrailingData);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(s: &str) -> PackedName {
        PackedName::from_name(&s.parse::<Name>().expect("valid name literal"))
    }

    fn entry(addr: &str, id: &str, gen: u64) -> MemberEntry {
        MemberEntry { gen, ..MemberEntry::active(addr, packed(id)) }
    }

    #[test]
    fn roundtrip_and_rejections() {
        let mut table = MemberTable::new();
        table.upsert(entry("127.0.0.1:1000", "{0}", 3));
        table.upsert(MemberEntry {
            spent: packed("{110}"),
            status: MemberStatus::Evicted,
            ..entry("127.0.0.1:2000", "{10}", 1)
        });
        let bytes = table.encode();
        assert_eq!(MemberTable::decode(&bytes).unwrap(), table);
        assert!(MemberTable::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(MemberTable::decode(&trailing), Err(DecodeError::TrailingData));
    }

    #[test]
    fn the_digest_is_fnv1a_over_the_encoding() {
        // The empty table encodes as one zero byte (no entries).
        assert_eq!(MemberTable::new().digest(), 0xaf63_bd4c_8601_b7df);
        let mut table = MemberTable::new();
        table.upsert(entry("127.0.0.1:1000", "{0}", 3));
        assert_ne!(table.digest(), MemberTable::new().digest());
        assert_eq!(MemberTable::decode(&table.encode()).unwrap().digest(), table.digest());
    }

    #[test]
    fn merge_is_idempotent_commutative_and_evicted_wins() {
        let mut a = MemberTable::new();
        a.upsert(entry("n1", "{0}", 2));
        a.upsert(entry("n2", "{10}", 0));
        let mut b = MemberTable::new();
        b.upsert(entry("n1", "{00}", 3)); // owner rewrote: higher gen wins
        let mut evicted_n2 = entry("n2", "{10}", 0);
        evicted_n2.status = MemberStatus::Evicted;
        evicted_n2.gen = 1;
        b.upsert(evicted_n2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");
        let mut abb = ab.clone();
        abb.merge(&b);
        assert_eq!(abb, ab, "merge must be idempotent");

        assert_eq!(ab.entry("n1").unwrap().id, packed("{00}"));
        assert_eq!(ab.entry("n1").unwrap().gen, 3);
        assert_eq!(ab.entry("n2").unwrap().status, MemberStatus::Evicted);
        // Re-merging a stale Active copy cannot resurrect n2.
        let mut stale = MemberTable::new();
        stale.upsert(entry("n2", "{10}", 5));
        ab.merge(&stale);
        assert_eq!(ab.entry("n2").unwrap().status, MemberStatus::Evicted);
    }

    #[test]
    fn equal_gen_conflicts_join_ids_conservatively() {
        let mut a = entry("n1", "{00}", 4);
        let b = entry("n1", "{01}", 4);
        a = a.merged(&b);
        assert_eq!(a.id, packed("{00}").join(&packed("{01}")));
    }

    #[test]
    fn evidence_is_live_others_only() {
        let mut table = MemberTable::new();
        let mut me = entry("me", "{0}", 1);
        me.spent = packed("{110}");
        table.upsert(me);
        let mut peer = entry("peer", "{10}", 0);
        peer.spent = packed("{0111}");
        table.upsert(peer);
        let mut dead = entry("dead", "{111}", 0);
        dead.spent = packed("{1101}");
        dead.status = MemberStatus::Evicted;
        table.upsert(dead);

        let evidence = table.evidence_for("me");
        let strings: Vec<String> =
            evidence.iter().flat_map(|name| name.iter().map(|s| s.to_string())).collect();
        // Live peer defends id {10} and spent {0111}; everything the
        // caller and the evicted member own or lent is reclaimable.
        for expected in ["10", "0111"] {
            assert!(strings.iter().any(|s| s == expected), "missing {expected}: {strings:?}");
        }
        for excluded in ["0", "110", "111", "1101"] {
            assert!(!strings.iter().any(|s| s == excluded), "unexpected {excluded}: {strings:?}");
        }
        let peers = table.live_peers("me");
        assert_eq!(peers, vec!["peer".to_string()]);
        assert_eq!(table.evicted(), vec!["dead".to_string()]);
    }
}
