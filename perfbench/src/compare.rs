//! `perfbench compare BASE.jsonl... -- NEW.jsonl...`: per (workload,
//! metric), each side's median and quartiles and a verdict.
//!
//! A timing metric is worse when the new median is worse than the base
//! median by more than its bound, better when the new side wins at least
//! nine tenths of all (new, base) pairs and the medians differ by more
//! than the base quartile spread, and unresolved when either side's
//! quartile spread exceeds the bound (unless every new run beats every
//! base run). Fidelity metrics and digests are exact functions of the
//! seed and are compared exactly, seed by seed.

use std::collections::BTreeMap;

use serde::Value;

use crate::spec::{self, Better, MetricSpec};
use crate::stats::{median, quartiles};

/// `(workload, metric)` → `(seed, value)` of every run read.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// Reads the metric and digest records of `files`, ignoring other lines.
/// A digest is kept as its bit pattern under the metric name `digest`.
fn load(files: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        for line in text.lines() {
            let Ok(Value::Obj(fields)) = serde_json::from_str::<Value>(line) else { continue };
            let (Some(Value::Str(workload)), Some(seed)) =
                (field(&fields, "workload"), number(field(&fields, "seed")))
            else {
                continue;
            };
            let entry = match (field(&fields, "metric"), field(&fields, "digest")) {
                (Some(Value::Str(metric)), _) => {
                    (metric.clone(), number(field(&fields, "value")).unwrap_or(f64::NAN))
                }
                (_, Some(Value::Str(hex))) => {
                    let bits = u64::from_str_radix(hex, 16).map_err(|e| format!("{file}: {e}"))?;
                    ("digest".to_string(), f64::from_bits(bits))
                }
                _ => continue,
            };
            runs.entry((workload.clone(), entry.0)).or_default().push((seed as u64, entry.1));
        }
    }
    Ok(runs)
}

/// `true` when `a` is better than `b` in direction `better`.
fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some(q3 - q1)
}

/// Verdict of a bounded host-time metric.
pub fn timing_verdict(m: &MetricSpec, base: &[f64], new: &[f64]) -> &'static str {
    let (Some(mb), Some(mn)) = (median(base), median(new)) else { return "unresolved" };
    let pairs = (base.len() * new.len()) as f64;
    let wins =
        new.iter().map(|&n| base.iter().filter(|&&b| beats(m.better, n, b)).count()).sum::<usize>();
    let wins = wins as f64 / pairs;
    let (Some(sb), Some(sn)) = (spread(base), spread(new)) else { return "unresolved" };
    if sb / mb.abs() > m.bound || sn / mn.abs() > m.bound {
        return if wins == 1.0 { "better" } else { "unresolved" };
    }
    if beats(m.better, mb, mn) && (mn - mb).abs() / mb.abs() > m.bound {
        "worse"
    } else if wins >= 0.9 && (mn - mb).abs() > sb {
        "better"
    } else {
        "unchanged"
    }
}

/// Verdict of an exact metric (`better` is `None` for a digest): equal on
/// every seed both sides ran, or else which way the medians moved.
fn exact_verdict(better: Option<Better>, base: &[(u64, f64)], new: &[(u64, f64)]) -> &'static str {
    let by_seed: BTreeMap<u64, u64> = base.iter().map(|&(s, v)| (s, v.to_bits())).collect();
    let shared: Vec<bool> =
        new.iter().filter_map(|(s, v)| by_seed.get(s).map(|b| *b == v.to_bits())).collect();
    if shared.is_empty() {
        return "unresolved";
    }
    if shared.iter().all(|&same| same) {
        return "unchanged";
    }
    let values = |xs: &[(u64, f64)]| xs.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
    match (better, median(&values(base)), median(&values(new))) {
        (Some(b), Some(mb), Some(mn)) if beats(b, mn, mb) => "better",
        (Some(_), ..) => "worse",
        (None, ..) => "changed",
    }
}

fn show(xs: &[f64]) -> String {
    match (median(xs), quartiles(xs)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", xs.len()),
        (Some(m), None) => format!("{m:.4} n={}", xs.len()),
        _ => "-".into(),
    }
}

/// Runs the comparison; `Ok(false)` when any metric got worse or any
/// digest changed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let split = args.iter().position(|a| a == "--").ok_or("usage: compare BASE... -- NEW...")?;
    let (base, new) = (load(&args[..split])?, load(&args[split + 1..])?);
    let mut ok = true;
    for (key @ (workload, metric), new_runs) in &new {
        let Some(base_runs) = base.get(key) else { continue };
        let values = |runs: &[(u64, f64)]| runs.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
        let spec = spec::metric(metric);
        let verdict = match spec {
            None if metric == "digest" => exact_verdict(None, base_runs, new_runs),
            Some(m) if spec::END_TO_END.iter().any(|e| e.name == m.name) => {
                timing_verdict(m, &values(base_runs), &values(new_runs))
            }
            Some(m) if spec::FIDELITY.iter().any(|f| f.name == m.name) => {
                exact_verdict(Some(m.better), base_runs, new_runs)
            }
            _ => "info",
        };
        ok &= !matches!(verdict, "worse" | "changed");
        let (b, n) = if metric == "digest" {
            (format!("{} runs", base_runs.len()), format!("{} runs", new_runs.len()))
        } else {
            (show(&values(base_runs)), show(&values(new_runs)))
        };
        let unit = spec.map_or("", |m| m.unit);
        println!("{workload:<13} {metric:<28} {unit:<9} base {b:<40} new {n:<40} {verdict}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_ms() -> &'static MetricSpec {
        spec::metric("op_ms").expect("op_ms is defined")
    }

    #[test]
    fn timing_verdicts_follow_the_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9];
        assert_eq!(timing_verdict(op_ms(), &base, &base), "unchanged");
        let slower: Vec<f64> = base.iter().map(|x| x * (1.05 + op_ms().bound)).collect();
        assert_eq!(timing_verdict(op_ms(), &base, &slower), "worse");
        let faster: Vec<f64> = base.iter().map(|x| x * 0.95).collect();
        assert_eq!(timing_verdict(op_ms(), &base, &faster), "better");
        let noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0];
        assert_eq!(timing_verdict(op_ms(), &base, &noisy), "unresolved");
    }

    #[test]
    fn exact_values_compare_seed_by_seed() {
        let base = [(1, 0.5), (2, 0.25)];
        assert_eq!(exact_verdict(None, &base, &[(2, 0.25), (1, 0.5)]), "unchanged");
        assert_eq!(exact_verdict(None, &base, &[(1, 0.5), (2, 0.3)]), "changed");
        assert_eq!(exact_verdict(Some(Better::Lower), &base, &[(1, 0.4), (2, 0.2)]), "better");
        assert_eq!(exact_verdict(Some(Better::Lower), &base, &[(3, 0.1)]), "unresolved");
    }
}
