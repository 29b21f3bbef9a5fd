//! `compare A.json B.json`: the bound rule applied to two result files of
//! `run`, one row per (metric, workload).

use std::path::Path;

use epidemic_trace::json::{self, Value};

use crate::readers;
use crate::stats::{self, Summary, Verdict};
use crate::workloads::{self, END_TO_END};

pub const SCHEMA: &str = "epidemic-benchmark/1";

/// Counts that must repeat exactly between two runs of one commit with one
/// seed; reported, not judged (another seed moves the replay's counts).
const EXACT: [&str; 3] = [
    "sim.contacts",
    "net.route_links_per_contact",
    "core.ae_exchanges",
];

struct ResultFile {
    origin: String,
    doc: Value,
}

impl ResultFile {
    fn read(path: &Path) -> Result<ResultFile, String> {
        let origin = path.display().to_string();
        let doc = json::parse(&readers::read(path)?).map_err(|e| format!("{origin}: {e}"))?;
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("{origin}: not a result file of schema {SCHEMA}"));
        }
        Ok(ResultFile { origin, doc })
    }

    fn workload(&self, name: &str) -> Result<&Value, String> {
        self.doc
            .get("workloads")
            .and_then(Value::as_array)
            .and_then(|all| {
                all.iter()
                    .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            })
            .ok_or_else(|| format!("{}: no workload {name:?}", self.origin))
    }

    fn samples(&self, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
        self.workload(workload)?
            .get("end_to_end")
            .and_then(|e| e.get(metric))
            .and_then(|m| m.get("samples"))
            .and_then(Value::as_array)
            .and_then(|a| a.iter().map(Value::as_f64).collect::<Option<Vec<f64>>>())
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("{}: no samples of {metric} on {workload}", self.origin))
    }

    fn layer(&self, workload: &str, metric: &str) -> Result<Option<f64>, String> {
        Ok(self
            .workload(workload)?
            .get("per_layer")
            .and_then(|l| l.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64))
    }
}

/// Prints the comparison; `Ok(false)` when any row regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (ResultFile::read(a)?, ResultFile::read(b)?);
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>24} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound"
    );
    let mut regressed = 0;
    for w in &workloads::WORKLOADS {
        for (metric, unit, bound) in END_TO_END {
            let (base, new) = (a.samples(w.name, metric)?, b.samples(w.name, metric)?);
            let verdict = stats::judge(&base, &new, bound).expect("samples are not empty");
            let (sa, sb) = (
                Summary::of(&base).expect("not empty"),
                Summary::of(&new).expect("not empty"),
            );
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>9.4} of {:>9.4} {:<3} {:>6.1}%  {}",
                w.name,
                metric,
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.median,
                unit,
                bound * 100.0,
                verdict.label()
            );
        }
        for metric in EXACT {
            if let (Some(x), Some(y)) = (a.layer(w.name, metric)?, b.layer(w.name, metric)?) {
                let same = if x == y { "same" } else { "differs" };
                println!("{:<16} {:<34} {x:>16} {y:>16}  {same}", w.name, metric);
            }
        }
    }
    println!("{regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_file(name: &str, wall: &[f64]) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/test-tmp/compare");
        std::fs::create_dir_all(&dir).unwrap();
        let samples = |v: &[f64]| {
            let list: Vec<String> = v.iter().map(f64::to_string).collect();
            format!("{{\"samples\":[{}]}}", list.join(","))
        };
        let sections: Vec<String> = workloads::WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\":\"{}\",\"end_to_end\":{{\"wall_s\":{},\"cpu_s\":{},\"peak_rss_kb\":{},\"allocs\":{},\"setup_s\":{}}},\"per_layer\":{{\"core.ae_exchanges\":{{\"value\":60960}}}}}}",
                    w.name,
                    samples(wall),
                    samples(&[1.0, 1.0, 1.0]),
                    samples(&[5000.0]),
                    samples(&[42.0]),
                    samples(&[0.1, 0.1])
                )
            })
            .collect();
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"{SCHEMA}\",\"workloads\":[{}]}}",
                sections.join(",")
            ),
        )
        .unwrap();
        path
    }

    #[test]
    fn same_numbers_pass_and_a_slowdown_beyond_the_bound_fails() {
        let a = result_file("a.json", &[2.0, 2.01, 1.99, 2.0, 2.0]);
        let same = result_file("same.json", &[2.02, 2.0, 2.01, 2.0, 1.99]);
        let slow = result_file("slow.json", &[2.6, 2.61, 2.59, 2.6, 2.6]);
        assert_eq!(compare(&a, &same), Ok(true));
        assert_eq!(compare(&a, &slow), Ok(false));
    }

    #[test]
    fn damaged_result_files_are_located_errors() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/test-tmp/compare");
        std::fs::create_dir_all(&dir).unwrap();
        let other = dir.join("other.json");
        std::fs::write(&other, "{\"schema\":\"something else\"}").unwrap();
        let good = result_file("good.json", &[2.0, 2.0]);
        assert!(compare(&good, &other)
            .unwrap_err()
            .contains("not a result file"));
        let empty = dir.join("empty.json");
        std::fs::write(
            &empty,
            format!("{{\"schema\":\"{SCHEMA}\",\"workloads\":[]}}"),
        )
        .unwrap();
        assert!(compare(&good, &empty)
            .unwrap_err()
            .contains("no workload \"mixing_rumor\""));
        assert!(compare(&good, &dir.join("missing.json")).is_err());
    }
}
