//! Result sets and their comparison. A *set* is what `--collect` writes:
//! several runs of every workload, both passes, with each metric's values
//! and their min / median / max. `--compare` holds two sets against the
//! bounds in `BENCHMARK.json` and prints one verdict per (end-to-end
//! metric, workload) pair, and one per exact count (`spec::EXACT`) of the
//! traced pass.

use crate::json::Json;
use crate::spec::{Better, EXACT, EXACT_BOUND};
use crate::util::{mean, median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// One side's run-to-run spread is wider than the bound: the runs
    /// cannot tell a regression from noise, and must not be read as
    /// "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What a metric's runs boil down to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// Distance between the first and third quartile
    /// (`statistics.quantiles(values, n=4)`); zero for a single run.
    pub iqr: f64,
}

pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut values = values.to_vec();
    let median = median(&mut values)?;
    let iqr = quartiles(&mut values).map_or(0.0, |(q1, _, q3)| q3 - q1);
    Some(Summary { median, iqr })
}

/// The verdict on one metric of one workload: `base` is the parent's runs,
/// `new` the change's.
///
/// * unresolved — either side's spread (IQR ÷ median) exceeds `bound`;
/// * regressed — the new median is worse than the base's by more than
///   `bound` × the base median;
/// * improved — it is better by more than either side's IQR: two sets of
///   the same code differ by about that much (and by anything at all when
///   neither side varies);
/// * unchanged — otherwise.
pub fn judge(base: Summary, new: Summary, better: Better, bound: f64) -> Verdict {
    let spread = |s: Summary| if s.median == 0.0 { 0.0 } else { (s.iqr / s.median).abs() };
    if spread(base) > bound || spread(new) > bound {
        return Verdict::Unresolved;
    }
    // Positive when the new side is worse.
    let worse_by = match better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    if worse_by > bound * base.median.abs() {
        Verdict::Regressed
    } else if worse_by < 0.0 && -worse_by > base.iqr.max(new.iqr) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The verdict on a count the program made (`spec::EXACT`): one seed gives
/// one value to the last bit, so the two sets are held run against run and
/// any difference is the code's. Across the runs of a set such a count
/// varies with the seed, not with noise, so spread decides nothing here;
/// sets that ran different seeds cannot be compared at all.
pub fn judge_exact(base: &[f64], new: &[f64], same_seeds: bool, better: Better) -> Verdict {
    if !same_seeds || base.len() != new.len() {
        return Verdict::Unresolved;
    }
    if base.iter().zip(new).all(|(a, b)| a.to_bits() == b.to_bits()) {
        return Verdict::Unchanged;
    }
    match (exact_summary(base), exact_summary(new)) {
        (Some(base), Some(new)) => judge(base, new, better, EXACT_BOUND),
        _ => Verdict::Unresolved,
    }
}

/// An exact count over a set's seeds: the mean, so that a change in any
/// one run shows, and no spread.
fn exact_summary(values: &[f64]) -> Option<Summary> {
    mean(values).map(|mean| Summary { median: mean, iqr: 0.0 })
}

/// The values of `metric` under `workload`/`pass` in a set document.
pub fn values_of(set: &Json, workload: &str, pass: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// Median and IQR of the runs; for an exact count, their mean and 0.
    pub base: Summary,
    pub new: Summary,
    pub bound: f64,
    pub verdict: Verdict,
}

fn better_of(entry: &Json) -> Option<Better> {
    match entry.get("better")?.as_str()? {
        "lower" => Some(Better::Lower),
        "higher" => Some(Better::Higher),
        _ => None,
    }
}

/// The seeds a set ran, as `(first seed, runs)`.
fn seeds_of(set: &Json) -> Option<(f64, f64)> {
    Some((set.get("first_seed")?.as_f64()?, set.get("runs")?.as_f64()?))
}

/// Judges every (end-to-end metric, workload) pair `benchmark` declares,
/// then every exact count of the traced pass. A pair missing from either
/// set is an error: a comparison that silently skips a row reads as a pass.
pub fn compare(benchmark: &Json, base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let list = |key: &str| {
        benchmark.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json has no {key}"))
    };
    let same_seeds = seeds_of(base).is_some() && seeds_of(base) == seeds_of(new);
    let mut rows = Vec::new();
    for workload in list("workloads")? {
        let workload =
            workload.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        for metric in list("end_to_end")? {
            let name = metric.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            let bound =
                metric.get("bound").and_then(Json::as_f64).ok_or(format!("{name} has no bound"))?;
            let better = better_of(metric).ok_or(format!("{name} has no direction"))?;
            let side = |set: &Json, which: &str| {
                values_of(set, workload, "end_to_end", name)
                    .and_then(|values| summarize(&values))
                    .ok_or(format!("{which} set has no {name} for {workload}"))
            };
            let (base, new) = (side(base, "first")?, side(new, "second")?);
            rows.push(Row {
                workload: workload.to_owned(),
                metric: name.to_owned(),
                unit: unit.to_owned(),
                base,
                new,
                bound,
                verdict: judge(base, new, better, bound),
            });
        }
        for metric in list("per_layer")? {
            let name = metric.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            if !EXACT.contains(&name) {
                continue;
            }
            let better = better_of(metric).ok_or(format!("{name} has no direction"))?;
            let side = |set: &Json, which: &str| {
                values_of(set, workload, "per_layer", name)
                    .filter(|values| !values.is_empty())
                    .ok_or(format!("{which} set has no {name} for {workload}"))
            };
            let (base, new) = (side(base, "first")?, side(new, "second")?);
            rows.push(Row {
                workload: workload.to_owned(),
                metric: name.to_owned(),
                unit: metric.get("unit").and_then(Json::as_str).unwrap_or("").to_owned(),
                verdict: judge_exact(&base, &new, same_seeds, better),
                base: exact_summary(&base).expect("not empty"),
                new: exact_summary(&new).expect("not empty"),
                bound: EXACT_BOUND,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<34} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "base median", "new median", "change", "spreadA", "spreadB", "bound"
    );
    let pct = |share: f64| format!("{:.1}%", share * 100.0);
    for row in rows {
        let change =
            if row.base.median == 0.0 { 0.0 } else { row.new.median / row.base.median - 1.0 };
        let spread = |s: Summary| if s.median == 0.0 { 0.0 } else { s.iqr / s.median };
        out.push_str(&format!(
            "{:<13} {:<34} {:>14.3} {:>14.3} {:>8} {:>7} {:>7} {:>6}  {}\n",
            row.workload,
            format!("{} [{}]", row.metric, row.unit),
            row.base.median,
            row.new.median,
            format!("{:+.1}%", change * 100.0),
            pct(spread(row.base)),
            pct(spread(row.new)),
            pct(row.bound),
            row.verdict.label()
        ));
    }
    let count = |verdict| rows.iter().filter(|row| row.verdict == verdict).count();
    out.push_str(&format!(
        "{} improved, {} unchanged, {} regressed, {} unresolved (spread wider than the bound, or exact counts of different seeds)\n",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn summary(median: f64, iqr: f64) -> Summary {
        Summary { median, iqr }
    }

    #[test]
    fn bounds_direction_and_spread_decide_the_verdict() {
        let base = summary(100.0, 2.0);
        // Lower is better: +4% is inside a 5% bound, +6% is not.
        assert_eq!(judge(base, summary(104.0, 2.0), Better::Lower, 0.05), Verdict::Unchanged);
        assert_eq!(judge(base, summary(106.0, 2.0), Better::Lower, 0.05), Verdict::Regressed);
        // Better by less than either side's IQR is noise; by more, a gain.
        assert_eq!(judge(base, summary(98.5, 2.0), Better::Lower, 0.05), Verdict::Unchanged);
        assert_eq!(judge(base, summary(97.0, 2.0), Better::Lower, 0.05), Verdict::Improved);
        assert_eq!(judge(base, summary(97.0, 4.0), Better::Lower, 0.05), Verdict::Unchanged);
        // Higher is better flips both.
        assert_eq!(judge(base, summary(94.0, 2.0), Better::Higher, 0.05), Verdict::Regressed);
        assert_eq!(judge(base, summary(103.0, 2.0), Better::Higher, 0.05), Verdict::Improved);
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(
            judge(summary(100.0, 6.0), summary(150.0, 1.0), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(judge(base, summary(90.0, 5.0), Better::Lower, 0.05), Verdict::Unresolved);
        // Exact counts: no spread, so any difference shows.
        let exact = summary(1000.0, 0.0);
        assert_eq!(judge(exact, summary(1000.0, 0.0), Better::Lower, 0.02), Verdict::Unchanged);
        assert_eq!(judge(exact, summary(999.0, 0.0), Better::Lower, 0.02), Verdict::Improved);
        assert_eq!(judge(exact, summary(1021.0, 0.0), Better::Lower, 0.02), Verdict::Regressed);
    }

    #[test]
    fn exact_counts_are_held_run_against_run() {
        let base = [240.0, 251.5, 238.25];
        // The same seeds and the same bits: unchanged, however much the
        // count varies from seed to seed.
        assert_eq!(judge_exact(&base, &base, true, Better::Lower), Verdict::Unchanged);
        // A change in any one run shows, with its direction.
        assert_eq!(
            judge_exact(&base, &[240.0, 251.5, 238.0], true, Better::Lower),
            Verdict::Improved
        );
        assert_eq!(
            judge_exact(&base, &[240.0, 251.5, 238.0], true, Better::Higher),
            Verdict::Unchanged,
            "worse, but inside the exact bound"
        );
        assert_eq!(
            judge_exact(&base, &[241.0, 251.5, 238.25], true, Better::Lower),
            Verdict::Unchanged,
            "worse, but inside the exact bound"
        );
        assert_eq!(
            judge_exact(&base, &[250.0, 260.0, 249.0], true, Better::Lower),
            Verdict::Regressed
        );
        // Other seeds, other counts: nothing to hold against what.
        assert_eq!(judge_exact(&base, &base, false, Better::Lower), Verdict::Unresolved);
        assert_eq!(judge_exact(&base, &base[..2], true, Better::Lower), Verdict::Unresolved);
    }

    #[test]
    fn summaries_use_the_drivers_quartiles() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(s, summary(5.5, 5.5));
        assert_eq!(summarize(&[7.0]), Some(summary(7.0, 0.0)));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn sets_are_compared_pair_by_pair_and_gaps_are_errors() {
        let benchmark = parse(
            r#"{"workloads":[{"name":"w1","why":"x"},{"name":"w2","why":"y"}],
                "end_to_end":[{"name":"lat","unit":"us","better":"lower","bound":0.1},
                              {"name":"tput","unit":"1/s","better":"higher","bound":0.1}],
                "per_layer":[{"name":"backend.meta_bits_per_key","unit":"bit","better":"lower"},
                             {"name":"core.leq_ns","unit":"ns","better":"lower"}]}"#,
        )
        .unwrap();
        let set = |seed: u32, lat: &str, tput: &str, bits: &str| {
            let workload = format!(
                r#"{{"end_to_end":{{"lat":{{"values":{lat}}},"tput":{{"values":{tput}}}}},
                    "per_layer":{{"backend.meta_bits_per_key":{{"values":{bits}}}}}}}"#
            );
            parse(&format!(
                r#"{{"first_seed":{seed},"runs":5,"workloads":{{"w1":{workload},"w2":{workload}}}}}"#
            ))
            .unwrap()
        };
        let bits = "[240.5,251,238,244,239]";
        let base = set(100, "[100,101,99,100,100]", "[50,50,51,49,50]", bits);
        let new = set(100, "[120,121,119,120,120]", "[60,60,61,59,60]", bits);
        let rows = compare(&benchmark, &base, &new).unwrap();
        // Two end-to-end pairs and the one exact count per workload; the
        // timed per-layer metric is nobody's verdict.
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Improved);
        assert_eq!(rows[2].verdict, Verdict::Unchanged);
        assert!(render(&rows).contains("2 improved, 2 unchanged, 2 regressed, 0 unresolved"));
        let fewer_bits = set(100, "[100]", "[50]", "[240.5,251,238,244,200]");
        assert_eq!(compare(&benchmark, &base, &fewer_bits).unwrap()[2].verdict, Verdict::Improved);
        let other_seeds = set(200, "[100]", "[50]", bits);
        assert_eq!(
            compare(&benchmark, &base, &other_seeds).unwrap()[2].verdict,
            Verdict::Unresolved
        );
        let partial = parse(r#"{"workloads":{"w1":{"end_to_end":{}}}}"#).unwrap();
        assert!(compare(&benchmark, &base, &partial).is_err());
    }
}
