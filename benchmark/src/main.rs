//! The repository's benchmark: 3-process node workloads, an in-process
//! control, and a layer budget timed from outside. `benchmark/README.md`
//! says what each workload is for and how to read the numbers.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` prints
//!     the end-to-end metrics, `--trace 1` the per-layer metrics and writes
//!     the spans to <target>/benchmark/trace-<name>.jsonl.
//! benchmark --seed <n> [--seconds <s>] [--trace <0|1>]
//!     every workload, one JSON document keyed by workload.
//! benchmark --collect <out.json> [--runs <k>] [--seed <n>] [--seconds <s>]
//!     k runs (seeds n, n+1, …) of every workload in both passes, written
//!     as a result set with min / median / max per metric.
//! benchmark --compare <a.json> <b.json>
//!     holds set b against set a under the bounds of ./BENCHMARK.json, and
//!     the exact counts of the traced pass run against run.
//! benchmark --describe
//!     prints BENCHMARK.json as the binary's own tables define it.
//! benchmark --selfcheck [--seed <n>]
//!     same seed ⇒ same schedule and bit-identical counts; another seed ⇒
//!     another schedule.
//! ```
//!
//! Exit code 0 only if every run was correct (and, for `--compare`, nothing
//! regressed).

mod compare;
mod inproc;
mod json;
mod layers;
mod node_run;
mod nodes;
mod oracle;
mod procfs;
mod run;
mod spec;
mod tap;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use run::Outcome;
use spec::{Spec, EXACT, WORKLOADS};

const DEFAULT_SECONDS: u64 = spec::RUN_SECONDS;

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn arg_number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match arg_value(args, name) {
        None => Ok(default),
        Some(text) => {
            text.parse().map_err(|_| format!("{name} wants a whole number, got {text:?}"))
        }
    }
}

fn outcome_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|&(name, value, unit)| {
                (name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]))
            })),
        ),
    ])
}

/// Runs one workload and reports on stderr what the result line cannot
/// carry: the schedule digest, the wall time, the host's steal and any
/// failure notes.
fn run_logged(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let (started, ticks) = (Instant::now(), procfs::host_ticks());
    let outcome = run::run(spec, seed, seconds, traced);
    // What the hypervisor took from this VM's CPUs during the run.
    let stolen = ticks.zip(procfs::host_ticks()).map_or(f64::NAN, |((steal, all), (s, a))| {
        (s - steal) as f64 * 100.0 / (a - all).max(1) as f64
    });
    eprintln!(
        "{} seed {seed} trace {}: schedule digest {:016x}, {} attempted, {} failed, {:.1} s wall, {stolen:.1} % of CPU time stolen",
        spec.name,
        u8::from(traced),
        outcome.digest,
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    // Notes are failures when there are any, else the traced pass's remarks.
    let mark = if outcome.failed > 0 { '!' } else { '-' };
    for note in &outcome.notes {
        eprintln!("  {mark} {note}");
    }
    outcome
}

fn exit_for(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--node") {
        return match nodes::child_main(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("node: {error}");
                ExitCode::from(1)
            }
        };
    }
    match dispatch(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("benchmark: {usage}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let seed = arg_number(args, "--seed", 1)?;
    let seconds = arg_number(args, "--seconds", DEFAULT_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let traced = match arg_value(args, "--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };

    if let Some(position) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(position + 1), args.get(position + 2)) else {
            return Err("--compare wants two result sets".into());
        };
        return compare_sets(a, b);
    }
    if args.iter().any(|a| a == "--describe") {
        print!("{}", spec::contract().pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if args.iter().any(|a| a == "--selfcheck") {
        return Ok(exit_for(selfcheck(seed)));
    }
    if let Some(out) = arg_value(args, "--collect") {
        let runs = arg_number(args, "--runs", 5)?;
        return collect(&out, runs.max(1), seed, seconds);
    }
    if let Some(name) = arg_value(args, "--workload") {
        let spec = spec::workload(&name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; there are {names:?}")
        })?;
        let outcome = run_logged(spec, seed, seconds, traced);
        println!("{}", outcome_json(&outcome).render());
        return Ok(exit_for(outcome.correct));
    }
    // Every workload, one document.
    let mut correct = true;
    let mut document = Vec::new();
    for spec in &WORKLOADS {
        let outcome = run_logged(spec, seed, seconds, traced);
        correct &= outcome.correct;
        let mut entry = outcome_json(&outcome);
        if let Json::Obj(pairs) = &mut entry {
            pairs.push(("schedule_digest".into(), Json::Str(format!("{:016x}", outcome.digest))));
        }
        document.push((spec.name, entry));
    }
    println!("{}", Json::obj(document).pretty());
    Ok(exit_for(correct))
}

// ---------------------------------------------------------------------
// --collect: a result set.
// ---------------------------------------------------------------------

/// What a child run printed: its exit status and `(name, value, unit)`
/// per metric.
struct ChildRun {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

/// One run in a process of its own, as the driver makes them — so that a
/// run's figures (the peak RSS of the in-process store above all) are its
/// own and not the collection's.
fn run_in_child(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} seed {seed}: no result line: {e}", spec.name))?;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{} seed {seed}: result without metrics", spec.name));
    };
    let metrics = metrics.iter().filter_map(|(name, entry)| {
        Some((name.clone(), entry.get("value")?.as_f64()?, entry.get("unit")?.as_str()?.to_owned()))
    });
    Ok(ChildRun { correct: output.status.success(), metrics: metrics.collect() })
}

fn collect(out: &str, runs: u64, seed: u64, seconds: u64) -> Result<ExitCode, String> {
    let mut correct = true;
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        let mut digests = Vec::new();
        // Per pass: metric → (unit, one value per run). The two passes of a
        // seed run back to back, so that a slow spell of the host falls on
        // both and the traced ÷ untraced ratio (`--compare`) stays theirs.
        let mut series: [Vec<(String, String, Vec<f64>)>; 2] = [Vec::new(), Vec::new()];
        for run in 0..runs {
            let per_thread = spec.sessions_per_second * seconds as usize;
            let schedules: Vec<_> = (0..spec.threads)
                .map(|t| spec::schedule(spec, seed + run, t, per_thread))
                .collect();
            digests.push(Json::Str(format!("{:016x}", spec::schedule_digest(&schedules))));
            for (series, traced) in series.iter_mut().zip([false, true]) {
                let child = run_in_child(spec, seed + run, seconds, traced)?;
                correct &= child.correct;
                for (index, (name, value, unit)) in child.metrics.into_iter().enumerate() {
                    if series.len() <= index {
                        series.push((name, unit, Vec::new()));
                    }
                    series[index].2.push(value);
                }
            }
        }
        let mut passes = Vec::new();
        for (pass, series) in ["end_to_end", "per_layer"].into_iter().zip(series) {
            let metrics = series.into_iter().map(|(name, unit, values)| {
                let mut sorted = values.clone();
                let median = util::median(&mut sorted).unwrap_or(0.0);
                let spread = util::spread(&mut sorted).unwrap_or(0.0);
                let entry = Json::obj([
                    ("unit", Json::Str(unit)),
                    ("min", Json::Num(sorted[0])),
                    ("median", Json::Num(median)),
                    ("max", Json::Num(sorted[sorted.len() - 1])),
                    ("spread", Json::Num(spread)),
                    ("values", Json::Arr(values.into_iter().map(Json::Num).collect())),
                ]);
                (name, entry)
            });
            passes.push((pass, Json::obj(metrics)));
        }
        passes.push(("schedule_digests", Json::Arr(digests)));
        workloads.push((spec.name, Json::obj(passes)));
    }
    let document = Json::obj([
        ("runs", Json::Num(runs as f64)),
        ("first_seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        (
            "host_cpus",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("all_correct", Json::Bool(correct)),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(out, document.pretty()).map_err(|e| format!("write {out}: {e}"))?;
    Ok(exit_for(correct))
}

// ---------------------------------------------------------------------
// --compare: two sets under the bounds of BENCHMARK.json.
// ---------------------------------------------------------------------

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_sets(a: &str, b: &str) -> Result<ExitCode, String> {
    let benchmark = read_json("BENCHMARK.json")?;
    let (base, new) = (read_json(a)?, read_json(b)?);
    let rows = compare::compare(&benchmark, &base, &new)?;
    print!("{}", compare::render(&rows));
    // Tracing overhead: traced ÷ untraced throughput, seed by seed (the two
    // passes of a seed ran back to back), the median of those per set.
    for spec in &WORKLOADS {
        let ratio = |set: &Json| {
            let traced =
                compare::values_of(set, spec.name, "per_layer", "client.traced_ops_per_s")?;
            let plain = compare::values_of(set, spec.name, "end_to_end", "ops_per_s")?;
            let mut ratios: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t / p).collect();
            util::median(&mut ratios)
        };
        if let (Some(base), Some(new)) = (ratio(&base), ratio(&new)) {
            println!("{:<13} client.trace_overhead_ratio  base {base:.3}  new {new:.3}", spec.name);
        }
        // The host's own drift between the two sets: the replay on dynamic
        // version vectors is code no change to the stamps touches, so what
        // moves it is the machine. Verdicts of a workload whose sentinel
        // moved are the host's as much as the code's.
        let sentinel = |set: &Json| {
            let values = compare::values_of(set, spec.name, "per_layer", "backend.dvv_ops_per_s")?;
            Some(compare::summarize(&values)?.median)
        };
        if let (Some(base), Some(new)) = (sentinel(&base), sentinel(&new)) {
            println!(
                "{:<13} host sentinel backend.dvv_ops_per_s  base {base:.0}  new {new:.0}  {:+.1}%",
                spec.name,
                (new / base - 1.0) * 100.0
            );
        }
    }
    Ok(exit_for(rows.iter().all(|row| row.verdict != compare::Verdict::Regressed)))
}

// ---------------------------------------------------------------------
// --selfcheck: determinism.
// ---------------------------------------------------------------------

/// Seconds of the self-check's in-process runs: long enough for several
/// ring exchanges and a cut, short enough to run twice.
const SELFCHECK_SECONDS: u64 = 4;

fn selfcheck(seed: u64) -> bool {
    let mut ok = true;
    let mut check = |what: String, pass: bool| {
        println!("{} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    for spec in &WORKLOADS {
        let digest = |seed: u64| {
            let count = spec.sessions_per_second * DEFAULT_SECONDS as usize;
            let threads: Vec<_> =
                (0..spec.threads).map(|t| spec::schedule(spec, seed, t, count)).collect();
            spec::schedule_digest(&threads)
        };
        check(
            format!("{}: seed {seed} gives one schedule digest", spec.name),
            digest(seed) == digest(seed),
        );
        check(
            format!("{}: seed {} gives another", spec.name, seed + 1),
            digest(seed) != digest(seed + 1),
        );
    }
    let spec = spec::workload("store-inproc").expect("store-inproc is a workload");
    // Compared as bit patterns: "equal" means to the last bit.
    let exact = |outcome: &Outcome| -> Vec<(&'static str, u64)> {
        let picked = outcome.metrics.iter().filter(|(name, _, _)| EXACT.contains(name));
        picked.map(|&(name, value, _)| (name, value.to_bits())).collect()
    };
    let shown = |outcome: &Outcome| -> Vec<String> {
        exact(outcome)
            .iter()
            .map(|&(name, bits)| format!("{name} = {}", f64::from_bits(bits)))
            .collect()
    };
    let first = run_logged(spec, seed, SELFCHECK_SECONDS, true);
    let second = run_logged(spec, seed, SELFCHECK_SECONDS, true);
    let other = run_logged(spec, seed + 1, SELFCHECK_SECONDS, true);
    check(
        "store-inproc: all three runs correct".into(),
        first.correct && second.correct && other.correct,
    );
    check(
        format!("store-inproc: seed {seed} twice gives bit-identical counts: {:?}", shown(&first)),
        exact(&first).len() == EXACT.len() && exact(&first) == exact(&second),
    );
    check(
        format!("store-inproc: seed {} gives other counts", seed + 1),
        exact(&first) != exact(&other),
    );
    ok
}
