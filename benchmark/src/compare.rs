//! `compare BASE... --vs NEW...`: two sets of runs, metric by metric and
//! workload by workload, against the bounds BENCHMARK.json fixes.
//!
//! A metric whose run-to-run spread (interquartile range over median) is
//! wider than its bound in either set cannot show a change of that size,
//! so it is reported `unresolved` unless every new run beats every base
//! run. Otherwise a median worse than the base median by more than the
//! bound is a `REGRESSION`. A (metric, workload) pair of the base set that
//! the new set lacks is `MISSING`. Either makes the command exit 1.
//!
//! Only full-scale, scored runs count; a run file whose checks failed makes
//! its whole set unusable.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `setup_s` may also move by this many seconds, however small its median:
/// a set-up of a few milliseconds has no steady share.
const SETUP_FLOOR_S: f64 = 0.05;

/// How a metric is judged.
struct Rule {
    lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    bound: Option<f64>,
    /// A change no larger than this, in the metric's unit, is within the
    /// bound whatever share of the median it is.
    floor: f64,
}

impl Rule {
    /// The share of `median` a change or spread must exceed to count.
    fn bound_at(&self, median: f64) -> Option<f64> {
        self.bound.map(|b| b.max(self.floor / median.abs()))
    }
}

/// The metric rules declared in BENCHMARK.json.
fn rules(path: &Path) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc[section].as_array().into_iter().flatten() {
            let name = m["name"]
                .as_str()
                .ok_or_else(|| format!("{section} entry without a name"))?;
            rules.insert(
                name.to_owned(),
                Rule {
                    lower_is_better: m["better"].as_str() == Some("lower"),
                    bound: m["bound"].as_f64(),
                    floor: if name == "setup_s" {
                        SETUP_FLOOR_S
                    } else {
                        0.0
                    },
                },
            );
        }
    }
    Ok(rules)
}

/// Run files named by `args`: files as given, directories expanded to the
/// run files directly inside them.
fn run_files(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for arg in args {
        let path = PathBuf::from(arg);
        if path.is_dir() {
            let mut inside: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| format!("{arg}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| {
                    let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    name.ends_with(".json") && !name.ends_with(".perfetto.json")
                })
                .collect();
            inside.sort();
            files.extend(inside);
        } else {
            files.push(path);
        }
    }
    Ok(files)
}

/// Every scored value in a set, keyed by (metric, workload).
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load_set(args: &[String]) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for path in run_files(args)? {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = run["workload"]
            .as_str()
            .ok_or_else(|| format!("{}: not a run file", path.display()))?;
        if run["correct"].as_bool() != Some(true) {
            return Err(format!(
                "{}: a run whose output checks failed; remove it from the set",
                path.display()
            ));
        }
        if run["scored"].as_bool() != Some(true) || run["quick"].as_bool() != Some(false) {
            continue;
        }
        let unmeasurable: Vec<&str> = run["not_measurable"]
            .as_array()
            .into_iter()
            .flatten()
            .filter_map(Value::as_str)
            .collect();
        for (name, m) in run["metrics"].as_object().into_iter().flatten() {
            if let (Some(value), false) =
                (m["value"].as_f64(), unmeasurable.contains(&name.as_str()))
            {
                samples
                    .entry((name.clone(), workload.to_owned()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if samples.is_empty() {
        return Err(format!("no scored runs in {}", args.join(" ")));
    }
    Ok(samples)
}

/// Median, quartiles and relative spread of one side.
struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
}

fn side(values: &[f64]) -> Side {
    let median = median(values);
    let (q1, q3) = quartiles(values);
    Side {
        median,
        q1,
        q3,
        spread: (q3 - q1) / median.abs(),
    }
}

/// The verdict on one (metric, workload) pair.
fn verdict(rule: &Rule, base: &[f64], new: &[f64]) -> &'static str {
    let (b, n) = (side(base), side(new));
    let (Some(bound), Some(new_bound)) = (rule.bound_at(b.median), rule.bound_at(n.median)) else {
        return "info";
    };
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    if b.spread > bound || n.spread > new_bound {
        let all_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
        return if all_better { "better" } else { "unresolved" };
    }
    let change = (n.median - b.median) / b.median.abs();
    let worse_by = if rule.lower_is_better {
        change
    } else {
        -change
    };
    if worse_by > bound {
        "REGRESSION"
    } else {
        "ok"
    }
}

/// Runs `compare`; returns the exit code.
pub fn cmd(args: &[String]) -> u8 {
    let Some(split) = args.iter().position(|a| a == "--vs") else {
        eprintln!("usage: seta-benchmark compare BASE... --vs NEW...");
        return 2;
    };
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let loaded = rules(&bench).and_then(|rules| {
        Ok((
            rules,
            load_set(&args[..split])?,
            load_set(&args[split + 1..])?,
        ))
    });
    let (rules, base, new) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<38} {:<13} {:>24} {:>24} {:>8} {:>10}  verdict",
        "metric", "workload", "base median [q1, q3]", "new median [q1, q3]", "change", "bound"
    );
    let mut failures = 0;
    for (key, base_values) in &base {
        let Some(rule) = rules.get(&key.0) else {
            continue;
        };
        let b = side(base_values);
        let fmt = |s: &Side| format!("{:.4e} [{:.3e}, {:.3e}]", s.median, s.q1, s.q3);
        let bound = match (rule.bound, rule.floor) {
            (None, _) => "-".to_owned(),
            (Some(x), floor) if floor > 0.0 => format!("{:.0}%|{floor}", x * 100.0),
            (Some(x), _) => format!("{:.0}%", x * 100.0),
        };
        let Some(new_values) = new.get(key) else {
            failures += 1;
            println!(
                "{:<38} {:<13} {:>24} {:>24} {:>8} {bound:>10}  MISSING (n={}/0)",
                key.0,
                key.1,
                fmt(&b),
                "-",
                "-",
                base_values.len(),
            );
            continue;
        };
        let verdict = verdict(rule, base_values, new_values);
        failures += usize::from(verdict == "REGRESSION");
        let n = side(new_values);
        println!(
            "{:<38} {:<13} {:>24} {:>24} {:>+7.2}% {bound:>10}  {verdict} (n={}/{})",
            key.0,
            key.1,
            fmt(&b),
            fmt(&n),
            (n.median - b.median) / b.median.abs() * 100.0,
            base_values.len(),
            new_values.len(),
        );
    }
    u8::from(failures > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Rule = Rule {
        lower_is_better: false,
        bound: Some(0.05),
        floor: 0.0,
    };

    #[test]
    fn a_small_setup_may_move_by_the_floor() {
        let setup = Rule {
            lower_is_better: true,
            bound: Some(0.10),
            floor: SETUP_FLOOR_S,
        };
        let base = [0.010, 0.011, 0.012, 0.010];
        assert_eq!(verdict(&setup, &base, &[0.020, 0.022, 0.021, 0.020]), "ok");
        assert_eq!(
            verdict(&setup, &base, &[0.090, 0.091, 0.089, 0.090]),
            "REGRESSION"
        );
        let large = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            verdict(&setup, &large, &[1.20, 1.21, 1.19, 1.20]),
            "REGRESSION"
        );
    }

    #[test]
    fn steady_sets_within_the_bound_are_ok() {
        let base = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict(&HIGHER, &base, &[98.0, 99.0, 98.5, 99.5]), "ok");
    }

    #[test]
    fn a_drop_beyond_the_bound_regresses() {
        let base = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(&HIGHER, &base, &[90.0, 91.0, 90.5, 89.5]),
            "REGRESSION"
        );
    }

    #[test]
    fn a_noisy_set_is_unresolved_unless_it_wins_every_pair() {
        let base = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(&HIGHER, &base, &[80.0, 120.0, 100.0, 90.0]),
            "unresolved"
        );
        assert_eq!(
            verdict(&HIGHER, &base, &[110.0, 140.0, 120.0, 102.0]),
            "better"
        );
    }

    #[test]
    fn per_layer_metrics_are_informational() {
        let rule = Rule {
            lower_is_better: true,
            bound: None,
            floor: 0.0,
        };
        assert_eq!(verdict(&rule, &[1.0], &[9.0]), "info");
    }
}
