//! The correctness gate: the happens-before history of the 256 hottest
//! keys of every workload, checked on every read and on the final state.
//!
//! Client threads only *log* what they read and wrote; the oracle replays
//! the merged log after the measured window, so its bookkeeping (which
//! grows with a key's history) never sits between a `get` and its `put`.
//! Replay order is sound because all threads stamp events from one clock:
//! a write is logged before its `put` is sent, a read after its `get`
//! returned, so a read that saw an id is always later than that id's log
//! entry.
//!
//! `vstamp_sim::KeyOracle` answers the same questions, but keeps each
//! write's causal past as a `BTreeSet<u64>`: the hottest key of
//! `node-write` takes ~8 000 writes, `store-inproc`'s ~15 000, and those
//! are the keys with the longest histories and the most siblings — the
//! ones that must be followed. [`KeyHistory`] keeps the same closure as
//! one bit per earlier write (a few MB for such a key) and is held against
//! `KeyOracle` on random histories by the unit tests.

use std::collections::{BTreeSet, HashMap, HashSet};

/// The oracle follows popularity ranks `0..ORACLE_KEYS` of every workload.
pub const ORACLE_KEYS: u32 = 256;

pub fn follows(key: u32) -> bool {
    key < ORACLE_KEYS
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Logged just before the write is issued; `read` is what the session
    /// had read (its causal past).
    Write { at_ns: u64, key: u32, id: u64, read: Vec<u64>, delete: bool },
    /// Logged when a read returned `ids`.
    Read { at_ns: u64, key: u32, ids: Vec<u64> },
}

impl Event {
    fn order(&self) -> (u64, u8) {
        match self {
            Event::Write { at_ns, .. } => (*at_ns, 0),
            Event::Read { at_ns, .. } => (*at_ns, 1),
        }
    }
}

/// The happens-before DAG of one key. Writes are numbered in record order;
/// `closure[n]` has bit `m` set when write `m` is causally before write `n`
/// (transitively), so it needs only `n` bits.
#[derive(Debug, Default)]
pub struct KeyHistory {
    ids: Vec<u64>,
    position: HashMap<u64, usize>,
    closure: Vec<Vec<u64>>,
    /// Writes some later write covers: the union of all closures.
    covered: Vec<u64>,
    deleted: Vec<bool>,
}

fn bit(set: &[u64], index: usize) -> bool {
    set.get(index / 64).is_some_and(|word| word >> (index % 64) & 1 == 1)
}

impl KeyHistory {
    /// Records a session's write: `id` causally follows everything in
    /// `read` (transitively). Ids this key never saw written are ignored
    /// here; `Oracle` reports them.
    pub fn record_write(&mut self, id: u64, read: &[u64], delete: bool) {
        let position = self.ids.len();
        let mut closure = vec![0u64; position.div_ceil(64)];
        for seen in read.iter().filter_map(|seen| self.position.get(seen).copied()) {
            closure[seen / 64] |= 1 << (seen % 64);
            for (word, upstream) in closure.iter_mut().zip(&self.closure[seen]) {
                *word |= upstream;
            }
        }
        self.covered.resize(closure.len(), 0);
        for (word, covered) in self.covered.iter_mut().zip(&closure) {
            *word |= covered;
        }
        self.ids.push(id);
        self.position.insert(id, position);
        self.closure.push(closure);
        self.deleted.push(delete);
    }

    /// Whether write `later` causally covers (happens after) `earlier`.
    pub fn covers(&self, later: u64, earlier: u64) -> bool {
        match (self.position.get(&later), self.position.get(&earlier)) {
            (Some(&later), Some(&earlier)) => bit(&self.closure[later], earlier),
            _ => false,
        }
    }

    /// Sibling pairs in `read` where one causally covers the other — the
    /// false-concurrency count of one read.
    pub fn false_concurrency(&self, read: &[u64]) -> usize {
        let mut pairs = 0;
        for (i, &a) in read.iter().enumerate() {
            for &b in &read[i + 1..] {
                pairs += usize::from(self.covers(a, b) || self.covers(b, a));
            }
        }
        pairs
    }

    /// What every replica must hold after convergence: the writes nothing
    /// covers, minus the deletes.
    pub fn expected_live(&self) -> BTreeSet<u64> {
        (0..self.ids.len())
            .filter(|&n| !bit(&self.covered, n) && !self.deleted[n])
            .map(|n| self.ids[n])
            .collect()
    }
}

/// The replayed oracle state and what it found wrong.
#[derive(Debug)]
pub struct Oracle {
    keys: Vec<KeyHistory>,
    known: HashSet<u64>,
    pub reads_checked: u64,
    /// Sibling pairs a read returned although one causally covers the
    /// other, plus ids no session ever wrote.
    pub violations: u64,
    pub notes: Vec<String>,
}

impl Oracle {
    /// An oracle whose keys were each rooted by write `root_id(key)`.
    pub fn rooted(root_id: impl Fn(u32) -> u64) -> Oracle {
        let mut oracle = Oracle {
            keys: Vec::new(),
            known: HashSet::new(),
            reads_checked: 0,
            violations: 0,
            notes: Vec::new(),
        };
        for key in 0..ORACLE_KEYS {
            let mut history = KeyHistory::default();
            history.record_write(root_id(key), &[], false);
            oracle.known.insert(root_id(key));
            oracle.keys.push(history);
        }
        oracle
    }

    fn note(&mut self, note: String) {
        self.violations += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Replays the threads' logs in clock order.
    pub fn replay(&mut self, logs: Vec<Vec<Event>>) {
        let mut events: Vec<Event> = logs.into_iter().flatten().collect();
        events.sort_by_key(Event::order);
        for event in events {
            match event {
                Event::Write { key, id, read, delete, .. } => {
                    self.keys[key as usize].record_write(id, &read, delete);
                    self.known.insert(id);
                }
                Event::Read { key, ids, .. } => self.check_read(key, &ids, "during the run"),
            }
        }
    }

    fn check_read(&mut self, key: u32, ids: &[u64], when: &str) {
        self.reads_checked += 1;
        if let Some(unknown) = ids.iter().find(|id| !self.known.contains(id)) {
            self.note(format!("key-{key}: read id {unknown} that nobody wrote ({when})"));
        }
        let pairs = self.keys[key as usize].false_concurrency(ids);
        if pairs > 0 {
            self.violations += pairs as u64 - 1;
            self.note(format!(
                "key-{key}: {pairs} causally ordered sibling pairs in {ids:?} ({when})"
            ));
        }
    }

    /// After convergence: what `replica` finally reads for `key` must be
    /// exactly the causally maximal, undeleted writes.
    pub fn check_final(&mut self, key: u32, replica: usize, ids: &[u64]) {
        self.check_read(key, ids, "final read");
        let live: BTreeSet<u64> = ids.iter().copied().collect();
        let expected = self.keys[key as usize].expected_live();
        if live != expected {
            self.note(format!(
                "key-{key} at replica {replica}: final {live:?}, expected {expected:?}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::Rng;
    use vstamp_sim::KeyOracle;

    fn write(at_ns: u64, id: u64, read: &[u64]) -> Event {
        Event::Write { at_ns, key: 0, id, read: read.to_vec(), delete: false }
    }

    fn read(at_ns: u64, ids: &[u64]) -> Event {
        Event::Read { at_ns, key: 0, ids: ids.to_vec() }
    }

    /// The reference: on random histories — long chains, blind writes,
    /// stale contexts, deletes — the bitset history and `KeyOracle` agree
    /// on every cover, every read's pair count and the final live set.
    #[test]
    fn key_history_agrees_with_the_simulators_key_oracle() {
        for seed in 0..20 {
            let mut rng = Rng::stream(seed, "oracle-test", 0);
            let (mut dense, mut reference) = (KeyHistory::default(), KeyOracle::default());
            let writes = 40 + rng.below(160);
            for id in 1..=writes {
                // A session's read: up to three earlier writes, recent ones
                // mostly, sometimes none (a blind write) or an id nobody
                // wrote on this key.
                let mut seen = Vec::new();
                for _ in 0..rng.below(4) {
                    if id > 1 {
                        let reach = if rng.below(4) == 0 { 64 } else { 3 };
                        let back = 1 + rng.below((id - 1).min(reach));
                        seen.push(id - back);
                    }
                }
                if rng.below(50) == 0 {
                    seen.push(1_000_000 + id);
                }
                let delete = rng.below(10) == 0;
                dense.record_write(id, &seen, delete);
                reference.record_write(id, &seen, delete);
                let sample: Vec<u64> = (0..3).map(|_| 1 + rng.below(id)).collect();
                assert_eq!(
                    dense.false_concurrency(&sample),
                    reference.false_concurrency(&sample),
                    "seed {seed}, after write {id}, read {sample:?}"
                );
            }
            for later in 1..=writes {
                for earlier in 1..=writes {
                    assert_eq!(
                        dense.covers(later, earlier),
                        reference.covers(later, earlier),
                        "seed {seed}: covers({later}, {earlier})"
                    );
                }
            }
            assert_eq!(dense.expected_live(), reference.expected_live(), "seed {seed}");
        }
    }

    #[test]
    fn clean_histories_pass_across_threads() {
        let mut oracle = Oracle::rooted(|key| u64::from(key) + 1);
        // Thread A supersedes the root; thread B writes concurrently.
        let a = vec![read(10, &[1]), write(11, 100, &[1]), read(40, &[100, 200])];
        let b = vec![write(20, 200, &[]), read(30, &[100, 200])];
        oracle.replay(vec![a, b]);
        assert_eq!(oracle.violations, 0, "{:?}", oracle.notes);
        assert_eq!(oracle.reads_checked, 3);
        oracle.check_final(0, 0, &[200, 100]);
        assert_eq!(oracle.violations, 0, "{:?}", oracle.notes);
    }

    #[test]
    fn false_concurrency_unknown_ids_and_lost_writes_are_caught() {
        let mut oracle = Oracle::rooted(|key| u64::from(key) + 1);
        oracle.replay(vec![vec![write(5, 100, &[1]), read(9, &[1, 100])]]);
        assert_eq!(oracle.violations, 1, "root and its successor are not siblings");
        oracle.replay(vec![vec![read(12, &[100, 999])]]);
        assert_eq!(oracle.violations, 2, "999 was never written");
        oracle.check_final(0, 1, &[1]);
        assert!(oracle.violations >= 3, "write 100 was lost");
        assert!(oracle.notes.iter().any(|n| n.contains("expected")));
    }

    #[test]
    fn deletes_leave_nothing_live() {
        let mut oracle = Oracle::rooted(|key| u64::from(key) + 1);
        oracle.replay(vec![vec![Event::Write {
            at_ns: 1,
            key: 0,
            id: 50,
            read: vec![1],
            delete: true,
        }]]);
        oracle.check_final(0, 0, &[]);
        assert_eq!(oracle.violations, 0, "{:?}", oracle.notes);
    }

    /// What made the window start below rank 0 before: a history as long
    /// as the hottest key's must stay cheap.
    #[test]
    fn a_hot_keys_history_stays_affordable() {
        let mut history = KeyHistory::default();
        history.record_write(1, &[], false);
        for id in 2..=20_000u64 {
            // Mostly a chain, with a concurrent blind write now and then.
            let seen = if id % 16 == 0 { vec![] } else { vec![id - 1] };
            history.record_write(id, &seen, false);
        }
        assert!(history.covers(19_999, 19_984));
        assert!(!history.covers(19_999, 19_983), "19 984 was blind: its chain starts there");
        let live = history.expected_live();
        assert_eq!(live.len(), 20_000 / 16 + 1, "one chain end per blind write, and the first");
        assert!(live.contains(&19_999) && live.contains(&20_000) && live.contains(&19_983));
    }
}
