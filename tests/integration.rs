//! Workspace-level integration tests: the crates working together through
//! the `vstamp` facade, end to end — figure scenarios, cross-mechanism
//! agreement, the file-synchronization application and the wire encoding.

use vstamp::sim::workload::{generate, generate_partition_heal, OperationMix, WorkloadSpec};
use vstamp::sim::{check_against_oracle, compare_mechanisms, figure1, figure2, MechanismSet};
use vstamp::{
    Configuration, ElementId, Mechanism, Operation, Reconciliation, Relation, Trace, VersionStamp,
    Workspace,
};
use vstamp_baselines::{DynamicVersionVectorMechanism, FixedVersionVectorMechanism};
use vstamp_core::{
    audit_configuration, causal::CausalMechanism, BitTrieCodec, GcStampMechanism, StampCodec,
    VersionStampMechanism,
};
use vstamp_itc::ItcMechanism;

#[test]
fn figure_scenarios_agree_across_every_crate() {
    for scenario in [figure1(), figure2()] {
        let causal = scenario.replay(CausalMechanism::new());
        let stamps = scenario.replay(VersionStampMechanism::reducing());
        let vv = scenario.replay(FixedVersionVectorMechanism::new());
        let itc = scenario.replay(ItcMechanism::new());
        for (a, b, expected) in causal.pairwise_relations() {
            assert_eq!(stamps.relation(a, b).unwrap(), expected, "{}: stamps", scenario.name);
            assert_eq!(vv.relation(a, b).unwrap(), expected, "{}: version vectors", scenario.name);
            assert_eq!(itc.relation(a, b).unwrap(), expected, "{}: itc", scenario.name);
        }
    }
}

#[test]
fn random_workloads_preserve_equivalence_and_invariants_end_to_end() {
    for seed in [1u64, 2, 3] {
        let trace =
            generate(&WorkloadSpec::new(400, 10, seed).with_mix(OperationMix::churn_heavy()));
        // equivalence with the causal oracle through the facade — for the
        // default mechanism and the frontier-GC mechanism
        assert!(check_against_oracle(VersionStampMechanism::reducing(), &trace).is_exact());
        assert!(check_against_oracle(GcStampMechanism::new(), &trace).is_exact());
        assert!(check_against_oracle(ItcMechanism::new(), &trace).is_exact());
        assert!(check_against_oracle(DynamicVersionVectorMechanism::new(), &trace).is_exact());
        // invariants audited on the final configuration
        let mut config = Configuration::new(VersionStampMechanism::reducing());
        config.apply_trace(&trace).unwrap();
        audit_configuration(&config).assert_ok();
    }
}

#[test]
fn partition_heal_workload_runs_through_the_comparison_runner() {
    // Kept deliberately small: version-stamp identities fragment
    // exponentially under long partition/heal runs (see ROADMAP), and this
    // test replays the trace against every mechanism in debug builds.
    let trace = generate_partition_heal(3, 3, 3, 24, 99);
    let table = compare_mechanisms(MechanismSet::All, &trace);
    assert_eq!(table.rows().len(), 10);
    // The GC mechanism collapses what eager reduction cannot: same trace,
    // strictly fewer element bits (100 against 360 mean, 706 against 4 402
    // max on this seed), so a GC that never collapses fails here.
    let eager_row = table.row("version-stamps").expect("eager (default) row");
    let gc_row = table.row("version-stamps-gc").expect("gc row");
    assert!(gc_row.mean_element_bits < eager_row.mean_element_bits);
    assert!(gc_row.max_element_bits < eager_row.max_element_bits);
    let stamps = table.row("version-stamps").expect("stamps row");
    let dynamic = table.row("dynamic-version-vectors").expect("dynamic vv row");
    // The qualitative claim of the evaluation: stamp size stays below the
    // per-incarnation identifier growth of dynamic version vectors.
    assert!(stamps.final_mean_element_bits <= dynamic.final_mean_element_bits);
}

#[test]
fn stamps_survive_the_wire_between_replicas() {
    // Simulate shipping stamps between processes: every stamp of a frontier
    // is encoded, decoded, and the relations recomputed from the decoded
    // copies must be identical.
    let trace = generate(&WorkloadSpec::new(200, 8, 5));
    let mut config = Configuration::new(VersionStampMechanism::reducing());
    config.apply_trace(&trace).unwrap();
    let decoded: Vec<(ElementId, VersionStamp)> = config
        .iter()
        .map(|(id, stamp)| {
            let bytes = BitTrieCodec.encode_stamp(stamp);
            (id, BitTrieCodec.decode_stamp(&bytes).expect("round trip"))
        })
        .collect();
    for (i, (id_a, stamp_a)) in decoded.iter().enumerate() {
        for (id_b, stamp_b) in decoded.iter().skip(i + 1) {
            assert_eq!(
                stamp_a.relation(stamp_b),
                config.relation(*id_a, *id_b).unwrap(),
                "relation changed across the wire for ({id_a}, {id_b})"
            );
        }
    }
}

#[test]
fn file_synchronization_round_trip_through_the_facade() {
    let mut workspace = Workspace::new();
    workspace.create("origin", "notes.md", "v0").unwrap();
    workspace.copy("origin", "replica-1").unwrap();
    workspace.copy("replica-1", "replica-2").unwrap();
    workspace.write("replica-2", "v1 from replica-2").unwrap();
    assert_eq!(workspace.compare("replica-2", "origin").unwrap(), Relation::Dominates);
    workspace.synchronize("replica-2", "origin").unwrap();
    workspace.synchronize("origin", "replica-1").unwrap();
    for (_, copy) in workspace.iter() {
        assert_eq!(copy.content(), "v1 from replica-2");
    }
    // concurrent writes produce a conflict that reconcile() reports
    workspace.write("replica-1", "left").unwrap();
    workspace.write("replica-2", "right").unwrap();
    let left = workspace.get("replica-1").unwrap().clone();
    let right = workspace.get("replica-2").unwrap().clone();
    assert!(matches!(left.reconcile(&right), Reconciliation::Conflict(_)));
}

#[test]
fn the_full_lifecycle_described_in_the_abstract() {
    // "replica creation under arbitrary partitions": build 32 replicas with
    // no shared state, update them all, merge them pairwise in an arbitrary
    // order, and confirm the final element has seen everything and its
    // identity collapsed back to the seed.
    let mut replicas = vec![VersionStamp::seed()];
    while replicas.len() < 32 {
        let r = replicas.remove(0);
        let (a, b) = r.fork();
        replicas.push(a);
        replicas.push(b);
    }
    let updated: Vec<VersionStamp> = replicas.iter().map(VersionStamp::update).collect();
    let mut merged = updated.clone();
    while merged.len() > 1 {
        let a = merged.remove(0);
        let b = merged.pop().expect("len > 1");
        merged.push(a.join(&b));
    }
    let survivor = &merged[0];
    assert!(survivor.is_seed_identity());
    survivor.validate().unwrap();
}

#[test]
fn trace_type_is_usable_from_downstream_code() {
    // Downstream users can build traces by hand through the facade types.
    let trace: Trace = [
        Operation::Fork(ElementId::new(0)),
        Operation::Update(ElementId::new(1)),
        Operation::Join(ElementId::new(2), ElementId::new(3)),
    ]
    .into_iter()
    .collect();
    let mut config = Configuration::new(VersionStampMechanism::reducing());
    config.apply_trace(&trace).unwrap();
    assert_eq!(config.len(), 1);
    assert_eq!(config.mechanism().mechanism_name(), "version-stamps");
}

#[test]
fn every_target_the_docs_name_exists() {
    // `--bin X`, `--bench X` and `--example X` in the documents people and
    // CI copy commands from must name a target file that is still there.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry").path())
        .collect();
    let exists = |flag: &str, name: &str| {
        let file = format!("{name}.rs");
        match flag {
            "--bin" => crates.iter().any(|krate| krate.join("src/bin").join(&file).is_file()),
            "--bench" => {
                root.join("benches").join(&file).is_file()
                    || crates.iter().any(|krate| krate.join("benches").join(&file).is_file())
            }
            _ => root.join("examples").join(&file).is_file(),
        }
    };
    for doc in [
        "README.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
        "crates/vstamp-bench/src/lib.rs",
        "crates/vstamp-sim/src/lib.rs",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for flag in ["--bin", "--bench", "--example"] {
            for (at, _) in text.match_indices(flag) {
                let rest = text[at + flag.len()..].strip_prefix([' ', '=']).unwrap_or("");
                let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'));
                let name = &rest[..end.unwrap_or(rest.len())];
                // `--bin <name>` is a placeholder, `--benches` another flag.
                assert!(name.is_empty() || exists(flag, name), "{doc}: `{flag} {name}` is gone");
            }
        }
    }
}
