//! Property tests asserting the two name representations — the literal
//! antichain set [`Name`], the executable specification, and the flat tag
//! array [`PackedName`] — are indistinguishable: every `NameLike` operation
//! commutes with the conversions, over both random names and random
//! fork/join/update traces.

use proptest::prelude::*;
use vstamp_core::{
    Bit, BitString, BitTrieCodec, Mechanism, Name, NameLike, PackedName, SetStampMechanism,
    StampCodec, Trace, VersionStampMechanism,
};

/// Strategy producing arbitrary binary strings up to `max_len` bits.
fn bitstring(max_len: usize) -> impl Strategy<Value = BitString> {
    prop::collection::vec(any::<bool>(), 0..=max_len)
        .prop_map(|bits| bits.into_iter().map(Bit::from).collect())
}

/// Strategy producing arbitrary names; the `Name` constructor normalizes
/// dominated strings away.
fn name(max_len: usize, max_strings: usize) -> impl Strategy<Value = Name> {
    prop::collection::vec(bitstring(max_len), 0..=max_strings).prop_map(Name::from_strings)
}

/// A raw script of choices interpreted against the evolving frontier, so
/// every generated operation is applicable by construction.
type Script = Vec<(u8, u8, u8)>;

fn script(max_len: usize) -> impl Strategy<Value = Script> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..=max_len)
}

fn run_script<M: Mechanism>(
    mechanism: M,
    script: &Script,
) -> (vstamp_core::Configuration<M>, Trace) {
    let mut config = vstamp_core::Configuration::new(mechanism);
    let mut trace = Trace::new();
    for &(kind, x, y) in script {
        let ids = config.ids();
        let pick = |sel: u8| ids[sel as usize % ids.len()];
        let op = match kind % 3 {
            0 => vstamp_core::Operation::Update(pick(x)),
            1 => vstamp_core::Operation::Fork(pick(x)),
            _ if ids.len() >= 2 => {
                let a = pick(x);
                let b = pick(y);
                if a == b {
                    vstamp_core::Operation::Join(
                        a,
                        *ids.iter().find(|&&i| i != a).expect("len >= 2"),
                    )
                } else {
                    vstamp_core::Operation::Join(a, b)
                }
            }
            _ => vstamp_core::Operation::Fork(pick(x)),
        };
        config.apply(op).expect("scripted operation applies");
        trace.push(op);
    }
    (config, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round-trip conversions are the identity on both representations.
    #[test]
    fn conversions_roundtrip(n in name(7, 10)) {
        let packed = PackedName::from_name(&n);
        prop_assert_eq!(packed.to_name(), n.clone());
        // Conversion through the NameLike seam.
        prop_assert_eq!(<PackedName as NameLike>::from_name(&n), packed.clone());
        prop_assert_eq!(<Name as NameLike>::from_name(&packed.to_name()), n.clone());
    }

    /// `leq` and `relation` agree across the representations.
    #[test]
    fn order_agrees(a in name(6, 8), b in name(6, 8)) {
        let (pa, pb) = (PackedName::from_name(&a), PackedName::from_name(&b));
        prop_assert_eq!(pa.leq(&pb), a.leq(&b));
        prop_assert_eq!(pa.relation(&pb), a.relation(&b));
    }

    /// `join` agrees across the representations.
    #[test]
    fn join_agrees(a in name(6, 8), b in name(6, 8)) {
        let expected = a.join(&b);
        let packed = PackedName::from_name(&a).join(&PackedName::from_name(&b));
        prop_assert_eq!(packed.to_name(), expected.clone());
        // The packed caches must stay coherent through the operation.
        prop_assert_eq!(packed.string_count(), expected.len());
        prop_assert_eq!(packed.bit_size(), expected.bit_size());
    }

    /// `append` agrees across the representations.
    #[test]
    fn append_agrees(n in name(6, 8), bit in any::<bool>()) {
        let bit = Bit::from(bit);
        let expected = n.append(bit);
        let packed = PackedName::from_name(&n).append(bit);
        prop_assert_eq!(packed.to_name(), expected.clone());
        prop_assert_eq!(packed.bit_size(), expected.bit_size());
        prop_assert_eq!(packed.depth(), expected.depth());
    }

    /// Membership and domination agree across the representations.
    #[test]
    fn membership_agrees(n in name(6, 8), s in bitstring(7)) {
        let packed = PackedName::from_name(&n);
        prop_assert_eq!(packed.contains(&s), n.contains(&s));
        prop_assert_eq!(packed.dominates_string(&s), n.dominates_string(&s));
    }

    /// The Section-6 simplification computes the same normal form in both
    /// representations, on random pairs.
    #[test]
    fn reduce_pair_agrees(u in name(5, 6), i in name(5, 6)) {
        let (nu, ni) = <Name as NameLike>::reduce_pair(&u, &i);
        let (pu, pi) = PackedName::reduce_pair(&PackedName::from_name(&u), &PackedName::from_name(&i));
        prop_assert_eq!(pu.to_name(), nu, "packed update mismatch ({u}, {i})");
        prop_assert_eq!(pi.to_name(), ni, "packed id mismatch ({u}, {i})");
    }

    /// Wire-encoding sizes agree bit-for-bit, and both representations emit
    /// the exact same bit-trie bytes.
    #[test]
    fn encodings_are_identical(n in name(7, 10)) {
        let packed = PackedName::from_name(&n);
        prop_assert_eq!(NameLike::encoded_bits(&n), NameLike::encoded_bits(&packed));
        let set_bytes = StampCodec::<Name>::encode_name(&BitTrieCodec, &n);
        let packed_bytes = StampCodec::<PackedName>::encode_name(&BitTrieCodec, &packed);
        prop_assert_eq!(&set_bytes, &packed_bytes, "wire bytes differ for {n}");
        prop_assert_eq!(set_bytes.len(), NameLike::encoded_bits(&n).div_ceil(8));
        prop_assert_eq!(
            StampCodec::<PackedName>::decode_name(&BitTrieCodec, &set_bytes).expect("roundtrip"),
            packed
        );
    }

    /// Replaying the same random trace through the set- and packed-backed
    /// stamp mechanisms yields identical frontiers, relations and sizes
    /// after every operation.
    #[test]
    fn mechanisms_replay_identically(script in script(40)) {
        let (set_config, trace) = run_script(SetStampMechanism::reducing(), &script);
        let mut packed_config = vstamp_core::Configuration::new(VersionStampMechanism::reducing());
        packed_config.apply_trace(&trace).expect("trace replays");

        prop_assert_eq!(set_config.ids(), packed_config.ids());
        for id in set_config.ids() {
            let set_stamp = set_config.get(id).expect("listed id");
            let packed_stamp = packed_config.get(id).expect("listed id");
            prop_assert_eq!(packed_stamp.to_set_stamp(), set_stamp.clone());
            prop_assert_eq!(packed_stamp.bit_size(), set_stamp.bit_size());
            prop_assert_eq!(packed_stamp.string_count(), set_stamp.string_count());
            prop_assert_eq!(packed_stamp.depth(), set_stamp.depth());
            prop_assert_eq!(packed_stamp.encoded_bits(), set_stamp.encoded_bits());
        }
        for (a, b, expected) in set_config.pairwise_relations() {
            prop_assert_eq!(packed_config.relation(a, b).expect("same ids"), expected);
        }
    }

    /// Deep fork chains exercise the inline→heap spill of the packed
    /// representation without losing equivalence.
    #[test]
    fn deep_fork_chains_stay_equivalent(bits in prop::collection::vec(any::<bool>(), 64..=160)) {
        let mut name = Name::epsilon();
        let mut packed = PackedName::epsilon();
        for &b in &bits {
            let bit = Bit::from(b);
            name = name.append(bit);
            packed = packed.append(bit);
        }
        prop_assert_eq!(packed.to_name(), name.clone());
        prop_assert_eq!(packed.depth(), bits.len());
        prop_assert_eq!(packed.bit_size(), bits.len());
        let joined = packed.join(&PackedName::epsilon());
        prop_assert_eq!(joined.to_name(), name.join(&Name::epsilon()));
    }
}
