//! Workload generators: seeded random fork/join/update traces.
//!
//! The paper motivates version stamps with mobile and ad-hoc deployments but
//! measures nothing; this module is the executable substitute. Every
//! generator takes an explicit seed and produces a [`Trace`] that can be
//! replayed against any [`Mechanism`], so every number that `vstamp-bench`'s
//! report bins print from a generated trace is reproducible from a
//! `(workload, seed)` pair.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vstamp_core::{Applied, Configuration, ElementId, Mechanism, Operation, Relation, Trace};

/// How the generator chooses the next operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationMix {
    /// Relative weight of `update` operations.
    pub update: u32,
    /// Relative weight of `fork` operations.
    pub fork: u32,
    /// Relative weight of `join` operations.
    pub join: u32,
}

impl OperationMix {
    /// A balanced mix (the default): equal weights.
    #[must_use]
    pub fn balanced() -> Self {
        OperationMix { update: 1, fork: 1, join: 1 }
    }

    /// An update-heavy mix modelling mostly-disconnected editing.
    #[must_use]
    pub fn update_heavy() -> Self {
        OperationMix { update: 6, fork: 1, join: 1 }
    }

    /// A churn-heavy mix: replicas are created and retired constantly.
    #[must_use]
    pub fn churn_heavy() -> Self {
        OperationMix { update: 1, fork: 3, join: 3 }
    }

    /// A synchronization-heavy mix: frequent joins immediately re-forked.
    #[must_use]
    pub fn sync_heavy() -> Self {
        OperationMix { update: 2, fork: 1, join: 4 }
    }

    fn total(&self) -> u32 {
        self.update + self.fork + self.join
    }
}

impl Default for OperationMix {
    fn default() -> Self {
        OperationMix::balanced()
    }
}

/// Parameters of a random workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of operations to generate.
    pub operations: usize,
    /// Operation mix.
    pub mix: OperationMix,
    /// Soft upper bound on the frontier width: once reached, forks are
    /// replaced by joins (and vice versa for the lower bound of one).
    pub max_replicas: usize,
    /// Random seed; reported alongside every result.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A balanced workload with the given size and seed.
    #[must_use]
    pub fn new(operations: usize, max_replicas: usize, seed: u64) -> Self {
        WorkloadSpec { operations, mix: OperationMix::balanced(), max_replicas, seed }
    }

    /// Replaces the operation mix.
    #[must_use]
    pub fn with_mix(mut self, mix: OperationMix) -> Self {
        self.mix = mix;
        self
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::new(1000, 16, 0)
    }
}

/// The mechanism the generators track live ids with. Its element is `()`:
/// [`Configuration`] hands out ids in a fixed order, so a trace names the
/// same elements whatever mechanism later replays it.
#[derive(Debug)]
struct Ids;

impl Mechanism for Ids {
    type Element = ();

    fn mechanism_name(&self) -> &'static str {
        "ids"
    }

    fn initial(&mut self) {}

    fn update(&mut self, _: &()) {}

    fn fork(&mut self, _: &()) -> ((), ()) {
        ((), ())
    }

    fn join(&mut self, _: &(), _: &()) {}

    fn relation(&self, _: &(), _: &()) -> Relation {
        unreachable!("ids carry no causality to compare")
    }

    fn size_bits(&self, _: &()) -> usize {
        0
    }
}

/// A trace being written, and the live ids its next operation may name.
struct Recorder {
    live: Configuration<Ids>,
    trace: Trace,
}

impl Recorder {
    fn new() -> Self {
        Recorder { live: Configuration::new(Ids), trace: Trace::new() }
    }

    fn apply(&mut self, op: Operation) -> Applied {
        let applied = self.live.apply(op).expect("generated operations name live elements");
        self.trace.push(op);
        applied
    }

    fn fork(&mut self, id: ElementId) -> (ElementId, ElementId) {
        match self.apply(Operation::Fork(id)) {
            Applied::Forked(a, b) => (a, b),
            other => unreachable!("a fork gave {other:?}"),
        }
    }

    /// Records an update or a join and returns the one id it produced.
    fn replace(&mut self, op: Operation) -> ElementId {
        match self.apply(op) {
            Applied::Updated(id) | Applied::Joined(id) => id,
            other => unreachable!("{op} gave {other:?}"),
        }
    }
}

/// Generates a random trace according to `spec`.
///
/// The generator tracks the live element ids so that every operation names
/// live elements. Ids are allocated deterministically by
/// [`Configuration`], so the trace replays cleanly against any mechanism.
#[must_use]
pub fn generate(spec: &WorkloadSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut recorder = Recorder::new();
    for _ in 0..spec.operations {
        let op = next_operation(&mut rng, &recorder.live.ids(), spec);
        recorder.apply(op);
    }
    recorder.trace
}

fn next_operation(rng: &mut StdRng, ids: &[ElementId], spec: &WorkloadSpec) -> Operation {
    let mix = spec.mix;
    let width = ids.len();
    let pick = |rng: &mut StdRng| ids[rng.gen_range(0..ids.len())];
    let roll = rng.gen_range(0..mix.total().max(1));
    let wants_fork = roll >= mix.update && roll < mix.update + mix.fork;
    let wants_join = roll >= mix.update + mix.fork;
    if (wants_fork && width < spec.max_replicas.max(1)) || (wants_join && width < 2) {
        return Operation::Fork(pick(rng));
    }
    if wants_join || (wants_fork && width >= spec.max_replicas.max(1)) {
        if width < 2 {
            return Operation::Update(pick(rng));
        }
        let a = pick(rng);
        let mut b = pick(rng);
        while b == a {
            b = pick(rng);
        }
        return Operation::Join(a, b);
    }
    Operation::Update(pick(rng))
}

/// Generates the partition/heal workload of experiment E7: the replica
/// population is split into `islands` groups; within an epoch only replicas
/// of the same island synchronize (join + fork), and at the end of each
/// epoch two islands heal (merge). Updates happen everywhere throughout.
#[must_use]
pub fn generate_partition_heal(
    islands: usize,
    replicas_per_island: usize,
    epochs: usize,
    updates_per_epoch: usize,
    seed: u64,
) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recorder = Recorder::new();

    // Build the initial population by forking the seed element.
    let target = (islands * replicas_per_island).max(1);
    let mut population: Vec<ElementId> = recorder.live.ids();
    while population.len() < target {
        let victim = population.remove(rng.gen_range(0..population.len()));
        let (a, b) = recorder.fork(victim);
        population.extend([a, b]);
    }

    // Assign replicas to islands round-robin.
    let mut island_members: Vec<Vec<ElementId>> = vec![Vec::new(); islands.max(1)];
    for (i, id) in population.into_iter().enumerate() {
        island_members[i % islands.max(1)].push(id);
    }

    for epoch in 0..epochs {
        // Local updates and intra-island synchronizations.
        for _ in 0..updates_per_epoch {
            let island = rng.gen_range(0..island_members.len());
            let members = &mut island_members[island];
            if members.is_empty() {
                continue;
            }
            if members.len() >= 2 && rng.gen_bool(0.4) {
                // intra-island synchronization: join then fork
                let a = members.remove(rng.gen_range(0..members.len()));
                let b = members.remove(rng.gen_range(0..members.len()));
                let joined = recorder.replace(Operation::Join(a, b));
                let (x, y) = recorder.fork(joined);
                members.extend([x, y]);
            } else {
                let slot = rng.gen_range(0..members.len());
                members[slot] = recorder.replace(Operation::Update(members[slot]));
            }
        }
        // Heal: merge two islands (if more than one remains).
        if island_members.len() > 1 && epoch + 1 < epochs {
            let absorbed = island_members.remove(rng.gen_range(0..island_members.len()));
            let receiver = rng.gen_range(0..island_members.len());
            island_members[receiver].extend(absorbed);
        }
    }
    recorder.trace
}

/// A trace that encodes the fixed three-replica run of Figure 1 / Figure 3
/// under fork-and-join dynamics, generalized to `replicas` lines and
/// `rounds` of (update, propagate-to-neighbour) steps.
#[must_use]
pub fn generate_fixed_population(replicas: usize, rounds: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recorder = Recorder::new();

    let mut lines: Vec<ElementId> = recorder.live.ids();
    while lines.len() < replicas.max(1) {
        let victim = lines.remove(0);
        let (a, b) = recorder.fork(victim);
        lines.extend([a, b]);
    }

    for _ in 0..rounds {
        // one replica updates…
        let writer = rng.gen_range(0..lines.len());
        lines[writer] = recorder.replace(Operation::Update(lines[writer]));
        // …and synchronizes with a neighbour, like the arrows of Figure 1.
        let reader = (writer + 1) % lines.len();
        if reader != writer {
            let joined = recorder.replace(Operation::Join(lines[writer], lines[reader]));
            (lines[writer], lines[reader]) = recorder.fork(joined);
        }
    }
    recorder.trace
}

/// Frontier width statistics observed while replaying a trace; used to
/// sanity-check generated workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Maximum number of coexisting replicas.
    pub max_width: usize,
    /// Final number of coexisting replicas.
    pub final_width: usize,
}

/// Replays a trace's element ids and reports frontier statistics.
#[must_use]
pub fn frontier_stats(trace: &Trace) -> FrontierStats {
    let mut live = Configuration::new(Ids);
    let mut max_width = live.len();
    for op in trace {
        live.apply(*op).expect("trace replays cleanly");
        max_width = max_width.max(live.len());
    }
    FrontierStats { max_width, final_width: live.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstamp_core::VersionStampMechanism;

    #[test]
    fn operation_mix_presets() {
        assert_eq!(OperationMix::balanced().total(), 3);
        assert_eq!(OperationMix::default(), OperationMix::balanced());
        assert!(OperationMix::update_heavy().update > OperationMix::update_heavy().fork);
        assert!(OperationMix::churn_heavy().fork > OperationMix::churn_heavy().update);
        assert!(OperationMix::sync_heavy().join > OperationMix::sync_heavy().fork);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = WorkloadSpec::new(200, 8, 42);
        assert_eq!(generate(&spec), generate(&spec));
        let other = WorkloadSpec::new(200, 8, 43);
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn generated_traces_replay_against_any_mechanism() {
        let spec = WorkloadSpec::new(300, 10, 7).with_mix(OperationMix::churn_heavy());
        let trace = generate(&spec);
        assert_eq!(trace.len(), 300);
        let mut stamps = Configuration::new(VersionStampMechanism::reducing());
        stamps.apply_trace(&trace).expect("replay against stamps");
        let mut causal = Configuration::new(vstamp_core::CausalMechanism::new());
        causal.apply_trace(&trace).expect("replay against causal histories");
        assert_eq!(stamps.ids(), causal.ids());
    }

    #[test]
    fn max_replicas_bounds_frontier_width() {
        for max in [2usize, 4, 9] {
            let spec = WorkloadSpec::new(400, max, 11).with_mix(OperationMix::churn_heavy());
            let stats = frontier_stats(&generate(&spec));
            assert!(
                stats.max_width <= max + 1,
                "frontier width {} exceeded bound {max}",
                stats.max_width
            );
            assert!(stats.final_width >= 1);
        }
    }

    #[test]
    fn update_heavy_workloads_update_most_of_the_time() {
        let spec = WorkloadSpec::new(500, 8, 3).with_mix(OperationMix::update_heavy());
        let (updates, forks, joins) = generate(&spec).op_counts();
        assert!(updates > forks + joins, "expected mostly updates, got {updates}/{forks}/{joins}");
    }

    #[test]
    fn partition_heal_trace_replays_and_grows_population() {
        let trace = generate_partition_heal(4, 3, 5, 20, 9);
        assert!(!trace.is_empty());
        let stats = frontier_stats(&trace);
        assert!(stats.max_width >= 12, "population should reach 12, got {}", stats.max_width);
        // replays against causal histories too
        let mut causal = Configuration::new(vstamp_core::CausalMechanism::new());
        causal.apply_trace(&trace).expect("replay");
    }

    #[test]
    fn fixed_population_trace_keeps_constant_width() {
        let trace = generate_fixed_population(3, 10, 5);
        let stats = frontier_stats(&trace);
        assert_eq!(stats.final_width, 3);
        // width only exceeds 3 transiently by one during a sync's fork
        assert!(stats.max_width <= 4);
        let deterministic = generate_fixed_population(3, 10, 5);
        assert_eq!(trace, deterministic);
    }

    /// FNV-1a 64 over each operation's kind and raw input ids. Written out
    /// by hand so that the pinned digests below do not move with a Rust
    /// release, as `DefaultHasher`'s output may.
    fn trace_digest(trace: &Trace) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for op in trace {
            eat(op.kind().as_bytes());
            for id in op.inputs() {
                eat(&id.raw().to_le_bytes());
            }
        }
        hash
    }

    #[test]
    fn generated_traces_match_their_golden_digests() {
        let churn = OperationMix::churn_heavy();
        // (trace, digest, max width, final width)
        let cases = [
            (generate(&WorkloadSpec::new(400, 9, 11).with_mix(churn)), 0xcf6b_c45b_2d3e_bdd4, 9, 3),
            (generate(&WorkloadSpec::new(400, 2, 11).with_mix(churn)), 0x23d8_3051_28b0_84c5, 2, 2),
            (generate(&WorkloadSpec::new(200, 8, 42)), 0x75d1_0e60_5f9e_a366, 8, 3),
            (
                generate(&WorkloadSpec::new(500, 8, 3).with_mix(OperationMix::update_heavy())),
                0x5527_d41f_9347_7afd,
                8,
                7,
            ),
            (
                generate(&WorkloadSpec::new(300, 6, 5).with_mix(OperationMix::sync_heavy())),
                0x9d61_382e_55a2_6e82,
                6,
                4,
            ),
            (generate_partition_heal(4, 3, 5, 20, 9), 0x3739_95e5_fef4_5fcb, 12, 12),
            (generate_fixed_population(3, 10, 5), 0x1c4a_5693_d38d_18a2, 3, 3),
        ];
        for (case, (trace, digest, max_width, final_width)) in cases.iter().enumerate() {
            let stats = frontier_stats(trace);
            assert_eq!(
                (trace_digest(trace), stats.max_width, stats.final_width),
                (*digest, *max_width, *final_width),
                "case {case}"
            );
        }
    }

    #[test]
    fn workload_spec_defaults() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.operations, 1000);
        assert_eq!(spec.max_replicas, 16);
        assert_eq!(spec.mix, OperationMix::balanced());
    }
}
