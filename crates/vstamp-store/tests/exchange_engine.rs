//! The exchange engine behind its only seam: [`Cluster::pull`] driving a
//! scripted `request` closure instead of a socket. The closure is the whole
//! transport, so a fault plan is a few lines — fail, answer with the wrong
//! kind, truncate, flip a bit, replay — and hundreds of seeds run in
//! milliseconds with no threads and no ports.

use std::collections::HashSet;
use std::io;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vstamp_store::wire::{
    decode_offer, decode_probe, decode_want, encode_offer, encode_probe, encode_want,
};
use vstamp_store::{
    Cluster, ClusterConfig, DynamicVvBackend, Envelope, ExchangeStats, MessageKind, PullCursor,
    StoreBackend, VstampBackend,
};

const REPLICAS: usize = 3;
const KEYS: usize = 4;

/// What the clients did, per key: for every write, the writes its context
/// covered (transitively) and the replica that took it.
#[derive(Default)]
struct Oracle {
    covers: Vec<HashSet<u32>>,
    origin: Vec<(usize, usize)>,
}

impl Oracle {
    fn write<B: StoreBackend>(
        &mut self,
        cluster: &Cluster<B>,
        replica: usize,
        key: usize,
        causal: bool,
    ) {
        let id = self.covers.len() as u32;
        let name = format!("key-{key}");
        let mut covered = HashSet::new();
        let read = cluster.get(replica, &name);
        if causal {
            for seen in visible(cluster, replica, key) {
                covered.insert(seen);
                covered.extend(&self.covers[seen as usize]);
            }
        }
        cluster.put(replica, &name, id.to_le_bytes().to_vec(), read.context().filter(|_| causal));
        self.covers.push(covered);
        self.origin.push((replica, key));
    }

    /// Holds at every moment, mid-fault included: what a replica shows is
    /// an antichain, and every write it took is still visible there or
    /// covered by something that is.
    fn check_valid<B: StoreBackend>(&self, cluster: &Cluster<B>, seed: u64) {
        for replica in 0..REPLICAS {
            for key in 0..KEYS {
                let shown = visible(cluster, replica, key);
                for &a in &shown {
                    for &b in &shown {
                        assert!(
                            !self.covers[a as usize].contains(&b),
                            "seed {seed}: replica {replica} shows {b} next to {a}, which covers it"
                        );
                    }
                }
                for (id, &origin) in self.origin.iter().enumerate() {
                    let id = id as u32;
                    let kept = shown.contains(&id)
                        || shown.iter().any(|&other| self.covers[other as usize].contains(&id));
                    assert!(
                        origin != (replica, key) || kept,
                        "seed {seed}: replica {replica} lost its own write {id} of key-{key}"
                    );
                }
            }
        }
    }

    /// Holds once the faults stopped and the replicas settled: every
    /// replica shows exactly the writes nothing covers.
    fn check_exact<B: StoreBackend>(&self, cluster: &Cluster<B>, seed: u64) {
        let covered: HashSet<u32> = self.covers.iter().flatten().copied().collect();
        for key in 0..KEYS {
            let mut expected: Vec<u32> = (0..self.covers.len() as u32)
                .filter(|id| self.origin[*id as usize].1 == key && !covered.contains(id))
                .collect();
            expected.sort_unstable();
            for replica in 0..REPLICAS {
                assert_eq!(
                    visible(cluster, replica, key),
                    expected,
                    "seed {seed}: key-{key} at replica {replica}"
                );
            }
        }
    }
}

fn visible<B: StoreBackend>(cluster: &Cluster<B>, replica: usize, key: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = cluster
        .get(replica, &format!("key-{key}"))
        .iter_values()
        .map(|value| u32::from_le_bytes(value.try_into().expect("values are 4-byte ids")))
        .collect();
    ids.sort_unstable();
    ids
}

/// One pull over a transport that delivers everything, `serve` at
/// `responder` on the other end.
fn clean_pull<B: StoreBackend>(
    cluster: &Cluster<B>,
    requester: usize,
    responder: usize,
    cursor: &mut PullCursor,
) -> ExchangeStats {
    cluster
        .pull(requester, cursor, |request| {
            Ok(cluster.serve(responder, &request).expect("honest request").0)
        })
        .expect("honest transport")
}

/// One pull whose transport misbehaves on roughly every third message.
///
/// Corruption is confined to what a decoder can catch or the protocol
/// absorbs: a reply is truncated (never decodes), a request is truncated
/// or bit-flipped (a Probe then carries another root or cursor position,
/// a Want names other keys or fingerprints, or neither decodes — then the
/// responder drops it, as a node drops the connection).
///
/// A replay hands back the link's previous reply, of this exchange or of
/// an earlier pull on the link: `replayed` is the link's slot, kept across
/// its pulls. A Delta from an earlier pull is harmless. Its versions
/// re-merge idempotently, and an element part in it was cut only for a key
/// the requester lacked then: it meets a held key and is ignored, or roots
/// a key the requester still lacks, which the responder cut it for and
/// never uses again. A replayed *Offer* is no hole either: its lines are
/// stale but its `upto` was true when it was sent.
fn faulty_pull<B: StoreBackend>(
    cluster: &Cluster<B>,
    requester: usize,
    responder: usize,
    cursor: &mut PullCursor,
    replayed: &mut Option<Envelope>,
    rng: &mut StdRng,
) -> io::Result<ExchangeStats> {
    let lost = || io::Error::new(io::ErrorKind::ConnectionReset, "scripted fault");
    cluster.pull(requester, cursor, |mut request| {
        let fault = rng.gen_range(0..18u32);
        match fault {
            0 => return Err(lost()),
            1 if !request.payload.is_empty() => {
                let keep = rng.gen_range(0..request.payload.len());
                request.payload.truncate(keep);
            }
            2 if !request.payload.is_empty() => {
                let bit = rng.gen_range(0..request.payload.len() * 8);
                request.payload[bit / 8] ^= 1 << (bit % 8);
            }
            _ => {}
        }
        let (mut reply, _) = cluster.serve(responder, &request).ok_or_else(lost)?;
        match fault {
            3 => return Err(lost()),
            4 => {
                let kinds = [
                    MessageKind::Probe,
                    MessageKind::Ack,
                    MessageKind::Offer,
                    MessageKind::Delta,
                    MessageKind::Nak,
                    MessageKind::Want,
                    MessageKind::PutOk,
                ];
                reply.kind = kinds[rng.gen_range(0..kinds.len())];
            }
            5 if !reply.payload.is_empty() => {
                let keep = rng.gen_range(0..reply.payload.len());
                reply.payload.truncate(keep);
            }
            6 => {
                if let Some(previous) = replayed.replace(reply.clone()) {
                    return Ok(previous);
                }
            }
            _ => {}
        }
        *replayed = Some(reply.clone());
        Ok(reply)
    })
}

fn run_fault_seed<B: StoreBackend>(backend: B, config: ClusterConfig, seed: u64) -> (usize, usize) {
    let cluster = Cluster::with_config(backend, config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle = Oracle::default();
    let (mut failed, mut completed) = (0, 0);
    // One cursor per (requester, responder) link, kept across the faulty
    // pulls *and* the clean sweeps: a cursor that a fault moved past a
    // change nobody delivered would keep that change hidden for good. And
    // one replay slot per link, kept across its faulty pulls.
    let mut cursors = [[PullCursor::default(); REPLICAS]; REPLICAS];
    let mut replayed: [[Option<Envelope>; REPLICAS]; REPLICAS] = Default::default();
    for _ in 0..40 {
        for _ in 0..1 + rng.gen_range(0..4u32) {
            let (replica, key) = (rng.gen_range(0..REPLICAS), rng.gen_range(0..KEYS));
            let causal = rng.gen_range(0..10u32) < 7;
            oracle.write(&cluster, replica, key, causal);
        }
        let requester = rng.gen_range(0..REPLICAS);
        let responder = (requester + 1 + rng.gen_range(0..REPLICAS - 1)) % REPLICAS;
        let (cursor, slot) =
            (&mut cursors[requester][responder], &mut replayed[requester][responder]);
        match faulty_pull(&cluster, requester, responder, cursor, slot, &mut rng) {
            Ok(_) => completed += 1,
            Err(_) => failed += 1,
        }
        oracle.check_valid(&cluster, seed);
    }
    // Faults stop: clean pull sweeps reach one digest root.
    for sweep in 0.. {
        let root = cluster.digest_root(0);
        if (1..REPLICAS).all(|replica| cluster.digest_root(replica) == root) {
            break;
        }
        assert!(sweep < 8, "seed {seed}: no common digest root after {sweep} clean sweeps");
        for (requester, links) in cursors.iter_mut().enumerate() {
            for (responder, cursor) in links.iter_mut().enumerate() {
                if responder != requester {
                    clean_pull(&cluster, requester, responder, cursor);
                }
            }
        }
    }
    assert!(cluster.converged(), "seed {seed}: equal roots but different sibling sets");
    oracle.check_valid(&cluster, seed);
    oracle.check_exact(&cluster, seed);
    (failed, completed)
}

/// Runs [`run_fault_seed`] over `seeds`, honest and forced-miss fingerprints
/// alternating in pairs of seeds; returns the failed and completed pulls.
fn fault_sweep(seeds: Range<u64>) -> (usize, usize) {
    let (mut failed, mut completed) = (0, 0);
    for seed in seeds {
        let config = if seed / 2 % 2 == 0 {
            ClusterConfig::new(REPLICAS, 4)
        } else {
            ClusterConfig::new(REPLICAS, 4).with_perturbed_fingerprints()
        };
        // The version-stamp backend only. The dynamic-VV baseline is left
        // out on purpose: a miss applies a key's full frames and defers
        // the missed ones to the NAK round, and when that round fails the
        // key is left with part of the peer's sibling set. Stamps compare
        // exactly whatever subset they see; a version vector takes "dot
        // n+1 of this id" to cover dot n, so a later causal write silently
        // supersedes the sibling that never arrived (1 of 200 perturbed
        // seeds).
        let (f, c) = run_fault_seed(VstampBackend::gc(), config, seed);
        failed += f;
        completed += c;
    }
    (failed, completed)
}

#[test]
fn scripted_transport_faults_never_panic_or_corrupt_and_heal() {
    let (failed, completed) = fault_sweep(0..240);
    // The plan must actually bite, and must not starve the protocol.
    assert!(failed > 1000, "only {failed} exchanges failed");
    assert!(completed > 1000, "only {completed} exchanges completed");
}

/// The same sweep over ten times the seeds (about 5 s in release).
#[test]
#[ignore = "release-only sweep; run with --release -- --ignored"]
fn scripted_transport_faults_heal_over_2400_seeds() {
    let (failed, completed) = fault_sweep(0..2400);
    assert!(failed > 10_000, "only {failed} exchanges failed");
    assert!(completed > 10_000, "only {completed} exchanges completed");
}

#[test]
fn corrupted_delta_replies_fail_the_pull_without_a_panic() {
    // A bit flipped inside a delta may still decode — to another key,
    // value or clock; nothing short of a checksum can tell. What the
    // engine owes is that it never panics, whatever the bytes.
    for seed in 0..200u64 {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        for id in 0..12u32 {
            let key = format!("key-{}", rng.gen_range(0..KEYS));
            let read = cluster.get(1, &key);
            cluster.put(1, &key, id.to_le_bytes().to_vec(), read.context());
        }
        let _ = cluster.pull(0, &mut PullCursor::default(), |request| {
            let (mut reply, _) = cluster.serve(1, &request).expect("honest request");
            if !reply.payload.is_empty() {
                for _ in 0..1 + rng.gen_range(0..3u32) {
                    let bit = rng.gen_range(0..reply.payload.len() * 8);
                    reply.payload[bit / 8] ^= 1 << (bit % 8);
                }
            }
            Ok(reply)
        });
    }
}

/// Two clusters with the same history, one exchanged by `anti_entropy`,
/// the other by `pull` over a closure that keeps every `serve` half — both
/// under a cursor that has not pulled yet. Returns the whole exchange's
/// stats.
fn assert_halves_sum(config: ClusterConfig, settled: bool, what: &str) -> ExchangeStats {
    // Replica 1 trails replica 0 by one version of a hot key that every
    // other replica wrote in turn, each over the write before: the
    // dynamic-VV clock carries a vector entry per writing incarnation, so
    // it outgrows dot + fingerprint and delta frames pay.
    let build = || {
        let cluster = Cluster::with_config(DynamicVvBackend::new(), config);
        let mut previous = None;
        for (round, writer) in [2, 3, 4, 5, 6, 7, 0].into_iter().cycle().take(14).enumerate() {
            if let Some(previous) = previous {
                clean_pull(&cluster, writer, previous, &mut PullCursor::default());
                clean_pull(&cluster, 1, previous, &mut PullCursor::default());
            }
            let read = cluster.get(writer, "hot");
            cluster.put(writer, "hot", vec![round as u8], read.context());
            previous = Some(writer);
        }
        if settled {
            clean_pull(&cluster, 1, 0, &mut PullCursor::default());
        }
        cluster
    };
    let (whole, halves) = (build(), build());
    let total = whole.anti_entropy(1, 0);
    let mut served = Vec::new();
    let pulled = halves
        .pull(1, &mut PullCursor::default(), |request| {
            let (reply, half) = halves.serve(0, &request).expect("honest request");
            served.push(half);
            Ok(reply)
        })
        .expect("honest transport");
    type Field = fn(&ExchangeStats) -> usize;
    let fields: [(&str, Field); 15] = [
        ("keys_shipped", |s| s.keys_shipped),
        ("digest_bytes", |s| s.digest_bytes),
        ("delta_bytes", |s| s.delta_bytes),
        ("delta_frames", |s| s.delta_frames),
        ("full_frames", |s| s.full_frames),
        ("nak_refetches", |s| s.nak_refetches),
        ("wire_bytes_saved", |s| s.wire_bytes_saved),
        ("frame_bytes", |s| s.frame_bytes),
        ("delta_frame_bytes", |s| s.delta_frame_bytes),
        ("versions_skipped", |s| s.versions_skipped),
        ("root_probes", |s| s.root_probes),
        ("root_matches", |s| s.root_matches),
        ("offered_keys", |s| s.offered_keys),
        ("wanted_keys", |s| s.wanted_keys),
        ("cursor_resets", |s| s.cursor_resets),
    ];
    for (name, field) in fields {
        let halves_sum = field(&pulled) + served.iter().map(field).sum::<usize>();
        assert_eq!(field(&total), halves_sum, "{what}: {name}");
    }
    assert_eq!(whole.gossip_stats(), halves.gossip_stats(), "{what}: cumulative counters");
    assert_eq!(whole.digest_root(1), halves.digest_root(1), "{what}: resulting state");
    total
}

#[test]
fn anti_entropy_stats_are_the_pull_and_serve_halves_summed() {
    let config = ClusterConfig::new(8, 4);
    // The shapes really differ: a probe hit, an offer/want round with delta
    // frames, and the same plus a NAK round.
    let hit = assert_halves_sum(config, true, "hit");
    assert_eq!((hit.root_matches, hit.keys_shipped, hit.delta_bytes), (1, 0, 0));
    assert_eq!((hit.offered_keys, hit.cursor_resets), (0, 0), "an Ack offers nothing");
    let miss = assert_halves_sum(config, false, "miss");
    assert_eq!((miss.root_probes, miss.root_matches, miss.nak_refetches), (1, 0, 0));
    assert_eq!((miss.offered_keys, miss.wanted_keys, miss.cursor_resets), (1, 1, 1));
    assert!(miss.delta_frames > 0 && miss.keys_shipped > 0, "{miss:?}");
    assert!(miss.wire_bytes_saved > 0, "{miss:?}");
    let nak = assert_halves_sum(config.with_perturbed_fingerprints(), false, "perturbed");
    assert!(nak.nak_refetches > 0 && nak.delta_bytes > miss.delta_bytes, "{nak:?}");
}

/// `keys` keys written at replica 0 of a 2-replica store, pulled by
/// replica 1 and back, so both cursors stand at a converged state.
fn settled_pair(keys: usize) -> Cluster<VstampBackend> {
    let cluster = Cluster::new(VstampBackend::gc(), 2, 4);
    for key in 0..keys {
        cluster.put(0, &format!("key-{key}"), vec![0], None);
    }
    cluster.anti_entropy(1, 0);
    cluster.anti_entropy(0, 1);
    assert_eq!(cluster.digest_root(0), cluster.digest_root(1));
    cluster
}

fn rewrite<B: StoreBackend>(cluster: &Cluster<B>, replica: usize, key: usize, value: u8) {
    let name = format!("key-{key}");
    let read = cluster.get(replica, &name);
    cluster.put(replica, &name, vec![value], read.context());
}

#[test]
fn exchange_bytes_follow_the_dirty_keys_not_the_store() {
    const KEYS: usize = 4096;
    let cluster = settled_pair(KEYS);
    for (round, dirty) in [1usize, 16, 256].into_iter().enumerate() {
        for key in 0..dirty {
            rewrite(&cluster, 0, key * (KEYS / dirty), round as u8 + 1);
        }
        let stats = cluster.anti_entropy(1, 0);
        assert!(
            stats.digest_bytes <= 64 + 64 * dirty,
            "{dirty} dirty keys of {KEYS} cost {} non-delta bytes",
            stats.digest_bytes
        );
        assert_eq!((stats.offered_keys, stats.wanted_keys), (dirty, dirty), "{stats:?}");
        assert!(stats.keys_shipped <= dirty && stats.keys_shipped > 0, "{stats:?}");
        assert_eq!(stats.cursor_resets, 0, "{stats:?}");
        assert_eq!(cluster.digest_root(0), cluster.digest_root(1), "one pull heals {dirty}");

        let converged = cluster.anti_entropy(1, 0);
        assert_eq!(converged.root_matches, 1);
        assert!(converged.digest_bytes + converged.delta_bytes <= 20, "{converged:?}");
        // The responder's side of the pair saw those keys change too (it
        // lent identity with each one): let it catch up before the next k.
        cluster.anti_entropy(0, 1);
    }
    // Keys dirty only at the requester: the responder changed nothing, so
    // it offers nothing and nothing comes back to the side that is ahead.
    for key in 0..16 {
        rewrite(&cluster, 1, key * 7, 9);
    }
    let ahead = cluster.anti_entropy(1, 0);
    assert_eq!((ahead.root_matches, ahead.offered_keys, ahead.keys_shipped), (0, 0, 0));
    assert_eq!(ahead.delta_bytes, 0, "{ahead:?}");
    assert!(ahead.digest_bytes <= 64, "{ahead:?}");
    assert_eq!(cluster.anti_entropy(0, 1).keys_shipped, 16);
    assert_eq!(cluster.digest_root(0), cluster.digest_root(1));
}

#[test]
fn a_cursor_moves_only_on_proof() {
    let cluster = settled_pair(32);
    let mut cursor = PullCursor::default();
    rewrite(&cluster, 0, 0, 1);
    clean_pull(&cluster, 1, 0, &mut cursor);
    let mut settled = cursor;
    assert_ne!(settled, PullCursor::default(), "a completed pull advances");
    let tamper = |cursor: &mut PullCursor, edit: &mut dyn FnMut(&mut Envelope, bool)| {
        cluster.pull(1, cursor, |mut request| {
            edit(&mut request, true);
            let (mut reply, _) = cluster.serve(0, &request).ok_or(io::ErrorKind::InvalidData)?;
            edit(&mut reply, false);
            Ok(reply)
        })
    };

    // The Probe's cursor position flipped on the way: the responder lists
    // from somewhere else and says so.
    rewrite(&cluster, 0, 3, 1);
    let flipped_probe = tamper(&mut cursor, &mut |envelope, _| {
        if envelope.kind == MessageKind::Probe {
            let (root, since) = decode_probe(&envelope.payload).expect("own probe");
            envelope.payload = encode_probe(root, since ^ 1);
        }
    });
    assert!(flipped_probe.is_ok(), "{flipped_probe:?}");
    assert_eq!(cursor, settled, "an offer for another position proves nothing");

    // The Offer's echo flipped on the way back.
    rewrite(&cluster, 0, 4, 1);
    let flipped_offer = tamper(&mut cursor, &mut |envelope, _| {
        if envelope.kind == MessageKind::Offer {
            let mut offer = decode_offer(&envelope.payload).expect("own offer");
            offer.since ^= 2;
            envelope.payload = encode_offer(&offer);
        }
    });
    assert!(flipped_offer.is_ok(), "{flipped_offer:?}");
    assert_eq!(cursor, settled);

    // A Delta that does not cover what was wanted: one wanted key never
    // reaches the responder.
    rewrite(&cluster, 0, 5, 1);
    rewrite(&cluster, 0, 6, 1);
    let short_delta = tamper(&mut cursor, &mut |envelope, _| {
        if envelope.kind == MessageKind::Want {
            let mut wanted = decode_want(&envelope.payload).expect("own want");
            assert_eq!(wanted.len(), 2);
            wanted.pop();
            envelope.payload = encode_want(&wanted);
        }
    });
    assert_eq!(short_delta.expect("the pull itself completes").keys_shipped, 0);
    assert_eq!(cursor, settled, "a key is still owed");
    assert_ne!(cluster.digest_root(0), cluster.digest_root(1));

    // A Delta that fails half way leaves it, too.
    let cut = tamper(&mut cursor, &mut |envelope, _| {
        if envelope.kind == MessageKind::Delta {
            envelope.payload.truncate(envelope.payload.len() / 2);
        }
    });
    assert!(cut.is_err());
    assert_eq!(cursor, settled);

    // Nothing was skipped: the unmoved cursor is offered all four keys
    // again and still lacks the one that was dropped.
    let healed = clean_pull(&cluster, 1, 0, &mut cursor);
    assert_eq!((healed.wanted_keys, healed.cursor_resets), (1, 0), "{healed:?}");
    assert_ne!(cursor, settled);
    assert_eq!(cluster.digest_root(0), cluster.digest_root(1));
    settled = cursor;
    assert_eq!(clean_pull(&cluster, 1, 0, &mut cursor).root_matches, 1);
    assert_eq!(cursor, settled, "an Ack carries no position");
}

#[test]
fn a_restarted_responder_is_pulled_from_scratch() {
    // Two single-replica stores, the node topology: `a` pulls from `b`.
    let store = || Cluster::new(VstampBackend::gc(), 1, 4);
    let pull = |from: &Cluster<VstampBackend>, to: &Cluster<VstampBackend>, cursor: &mut _| {
        to.pull(0, cursor, |request| Ok(from.serve(0, &request).expect("honest request").0))
            .expect("honest transport")
    };
    for later_writes in [3usize, 40] {
        let (a, b) = (store(), store());
        for key in 0..20 {
            b.put(0, &format!("old-{key}"), vec![1], None);
        }
        let mut cursor = PullCursor::default();
        assert_eq!(pull(&b, &a, &mut cursor).cursor_resets, 1, "first contact");
        assert_eq!(a.digest_root(0), b.digest_root(0));
        b.put(0, "old-0", vec![2], None);
        assert_eq!(pull(&b, &a, &mut cursor).cursor_resets, 0, "steady state");

        // `b` is replaced by a store that remembers nothing: a new
        // instance whose sequence restarts, below or beyond the cursor.
        let b = store();
        for key in 0..later_writes {
            b.put(0, &format!("new-{key}"), vec![3], None);
        }
        let first = pull(&b, &a, &mut cursor);
        if first.cursor_resets == 0 {
            // The new sequence had already passed the old position: the
            // offer names an instance the cursor does not know, which
            // drops the cursor; the next pull starts over.
            assert_eq!(cursor, PullCursor::default());
            assert_eq!(pull(&b, &a, &mut cursor).cursor_resets, 1);
        }
        for key in 0..later_writes {
            assert_eq!(a.get(0, &format!("new-{key}")).values(), vec![vec![3]]);
        }
        assert_eq!(pull(&b, &a, &mut cursor).cursor_resets, 0, "the new cursor holds");
        // And the restarted store gets back what only `a` still has.
        pull(&a, &b, &mut PullCursor::default());
        assert_eq!(a.digest_root(0), b.digest_root(0), "{later_writes} writes after the restart");
    }
}
