//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run [--seed S] [--out FILE] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- one --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` measures every workload and writes a result file; `compare`
//! applies the bounds to two result files; `one` is a single run of a
//! single workload in the shape the driver's contract asks for (see
//! `BENCHMARK.json` and the README).

mod alloc;
mod artifact;
mod checks;
mod child;
mod compare;
mod harness;
mod machine;
mod readers;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use epidemic_trace::json::{array_of, JsonObject};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use checks::Checks;
use child::Sample;
use harness::{same_output, Harness};
use report::{EndToEnd, LayerInputs, LayerMetric};
use workloads::{Threads, Workload, ENV_PREFIX, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Timed children a run never goes below, and timed rounds of `run`.
const MIN_TIMED: usize = 3;
const ROUNDS: usize = 5;

const USAGE: &str = "usage: run [--seed S] [--out FILE] [--smoke]\n       \
                     compare A.json B.json\n       \
                     one --workload W --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    // The replay runs in this process: it must not see the program's
    // ambient variables either. Nothing else is running yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with(ENV_PREFIX) {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("one") => one(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// The value after `flag`, parsed; `Ok(None)` when the flag is absent.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    args.get(pos + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?.ok_or_else(|| format!("{name} is required\n{USAGE}"))
}

/// One workload being measured end to end.
struct Measurement {
    workload: &'static Workload,
    seed: u64,
    dir: PathBuf,
    checks: Checks,
    end_to_end: EndToEnd,
    /// What the counting build printed on one worker thread: the
    /// reference every timed child's stdout must equal, which makes the
    /// repeats identical to each other and the parallel workload
    /// identical to its single-threaded twin.
    reference: String,
}

impl Measurement {
    /// Sets up, then counts allocations.
    fn begin(
        h: &Harness,
        workload: &'static Workload,
        seed: u64,
        dir: PathBuf,
    ) -> Result<Self, String> {
        let mut checks = Checks::default();
        let mut end_to_end = EndToEnd::default();
        let seconds = h.set_up(&mut checks, workload, seed, &dir)?;
        end_to_end.setup_s.push(seconds);
        let (allocations, reference) = h.count_allocations(&mut checks, workload, &dir)?;
        end_to_end.allocs.push(allocations as f64);
        Ok(Measurement {
            workload,
            seed,
            dir,
            checks,
            end_to_end,
            reference,
        })
    }

    /// Sets up again, then times one child. Setting up before every
    /// child spreads the set-up samples over the whole measurement, so a
    /// few noisy seconds on the host cannot move their median.
    fn timed(&mut self, h: &Harness) -> Result<(), String> {
        let seconds = h.set_up(&mut self.checks, self.workload, self.seed, &self.dir)?;
        self.end_to_end.setup_s.push(seconds);
        let tag = format!("timed-{}", self.end_to_end.wall_s.len());
        let run = h.timed(&mut self.checks, self.workload, false, &self.dir, &tag)?;
        self.end_to_end.push(&run.sample);
        self.checks.record(
            "stdout equals the single-threaded reference",
            same_output(&tag, &self.reference, &run.stdout),
        );
        Ok(())
    }

    /// Checks the printed tables against the paper.
    fn finish(&mut self, h: &Harness) {
        let origin = self.dir.join("allocs.out").display().to_string();
        match harness::stdout_tables(self.workload, &self.reference, &origin) {
            Ok(tables) => h.check_tables(&mut self.checks, &tables),
            Err(e) => self.checks.record("tables on stdout", Err(e)),
        }
    }

    /// The medians of this workload's timed children as one sample.
    fn median_sample(&self) -> Result<Sample, String> {
        let median = |name| {
            stats::median(self.end_to_end.samples(name))
                .ok_or_else(|| format!("no sample of {name}"))
        };
        Ok(Sample {
            wall_s: median("wall_s")?,
            cpu_s: median("cpu_s")?,
            peak_rss_kb: median("peak_rss_kb")? as u64,
        })
    }
}

/// The traced pass of one workload: a plain, a profiled and a traced
/// child, the replay with and without spans, and the per-layer metrics
/// from them.
/// `plain` and `single_threaded` are measured here unless given.
fn layers(
    h: &Harness,
    checks: &mut Checks,
    workload: &Workload,
    seed: u64,
    dir: &Path,
    plain: Option<Sample>,
    single_threaded: Option<Sample>,
) -> Result<(Vec<LayerMetric>, String), String> {
    let (plain, plain_stdout) = match plain {
        Some(sample) => (sample, None),
        None => {
            let run = h.timed(checks, workload, false, dir, "plain")?;
            (run.sample, Some(run.stdout))
        }
    };
    let single_threaded = match (workload.threads, single_threaded) {
        (Threads::One, _) => None,
        (Threads::Many, Some(sample)) => Some(sample),
        (Threads::Many, None) => Some(
            h.timed(checks, workload, true, dir, "plain-1-thread")?
                .sample,
        ),
    };
    let traced = h.traced(checks, workload, dir)?;
    if let Some(stdout) = plain_stdout {
        checks.record(
            "traced stdout equals plain stdout",
            same_output("traced", &stdout, &traced.run.stdout),
        );
    }
    h.check_tables(checks, &traced.tables);

    let start = Instant::now();
    let unspanned = replay::run(workload, seed, h.smoke, false);
    let replay_plain_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let replay = replay::run(workload, seed, h.smoke, true);
    let replay_spans_s = start.elapsed().as_secs_f64();
    checks.record(
        "replay with and without spans count the same",
        if replay.counts == unspanned.counts {
            Ok(())
        } else {
            Err(format!("{:?} != {:?}", replay.counts, unspanned.counts))
        },
    );
    checks.record("replay outcome", replay.failure.clone().map_or(Ok(()), Err));
    replay.rec.write_spans(
        &h.paths
            .results
            .join(format!("{}.spans.jsonl", workload.name)),
    )?;
    let metrics = report::per_layer(&LayerInputs {
        replay: &replay,
        replay_spans_s,
        replay_plain_s,
        traced: &traced,
        plain,
        single_threaded,
    });
    Ok((metrics, report::span_aggregates(&replay)))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A single run of a single workload, as the driver's contract shapes it:
/// the last stdout line is the result object.
fn one(args: &[String]) -> Result<bool, String> {
    let workload = workloads::find(&required::<String>(args, "--workload")?)?;
    let seed: u64 = required(args, "--seed")?;
    let seconds: f64 = required(args, "--seconds")?;
    let trace: u8 = required(args, "--trace")?;
    let h = Harness::new(false)?;
    let dir = h
        .paths
        .results_dir(&format!("one-{}-seed{seed}-trace{trace}", workload.name))?;
    let (checks, metrics, evidence) = match trace {
        0 => {
            let mut m = Measurement::begin(&h, workload, seed, dir.clone())?;
            let start = Instant::now();
            while m.end_to_end.wall_s.len() < MIN_TIMED || start.elapsed().as_secs_f64() < seconds {
                m.timed(&h)?;
            }
            m.finish(&h);
            report::print_end_to_end(workload, &m.end_to_end)?;
            let evidence = report::workload_json(
                workload,
                &h.describe(workload),
                Some(&m.end_to_end),
                None,
                &m.checks,
            )?;
            (
                m.checks,
                report::contract_end_to_end(&m.end_to_end)?,
                evidence,
            )
        }
        1 => {
            let mut checks = Checks::default();
            h.set_up(&mut checks, workload, seed, &dir)?;
            let (layers, spans) = layers(&h, &mut checks, workload, seed, &dir, None, None)?;
            report::print_per_layer(workload, &layers);
            let metrics = layers
                .iter()
                .map(|m| (m.name, m.unit, m.value.unwrap_or(0.0)))
                .collect();
            let evidence = report::workload_json(
                workload,
                &h.describe(workload),
                None,
                Some((&layers, &spans)),
                &checks,
            )?;
            (checks, metrics, evidence)
        }
        _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
    };
    let mut o = JsonObject::new();
    o.field_u64("seed", seed)
        .field_raw("machine", &h.machine.to_json())
        .field_raw("workload", &evidence);
    write_file(&dir.join("evidence.json"), &o.finish())?;
    for failure in &checks.failures {
        println!("FAILED {failure}");
    }
    println!("{}", report::contract_line(&checks, &metrics));
    Ok(true)
}

/// Every workload: allocation count, `ROUNDS` rounds of set-up and timed
/// child interleaved round-robin in an order shuffled per round from the
/// seed, then the traced pass. Exits 0 only if no operation failed.
fn run(args: &[String]) -> Result<bool, String> {
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let smoke = args.iter().any(|a| a == "--smoke");
    let h = Harness::new(smoke)?;
    let out: PathBuf = flag::<String>(args, "--out")?.map_or_else(
        || {
            let size = if smoke { "smoke" } else { "run" };
            h.paths.results.join(format!("{size}-seed{seed}.json"))
        },
        PathBuf::from,
    );
    let mut measurements = Vec::new();
    for workload in &WORKLOADS {
        let dir = h.paths.results_dir(&format!("run-{}", workload.name))?;
        measurements.push(Measurement::begin(&h, workload, seed, dir)?);
    }
    let mut order: Vec<usize> = (0..measurements.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..if smoke { 1 } else { ROUNDS } {
        order.shuffle(&mut rng);
        for &i in &order {
            measurements[i].timed(&h)?;
        }
    }
    // The parallel workload's twin: the same experiments on one thread.
    let twin = |of: &Workload| {
        measurements
            .iter()
            .find(|m| {
                m.workload.threads == Threads::One && m.workload.experiments == of.experiments
            })
            .map(Measurement::median_sample)
            .transpose()
    };
    let twins: Vec<Option<Sample>> = measurements
        .iter()
        .map(|m| twin(m.workload))
        .collect::<Result<_, String>>()?;
    let mut sections = Vec::new();
    let (mut attempted, mut failures) = (0, Vec::new());
    for (m, single_threaded) in measurements.iter_mut().zip(twins) {
        m.finish(&h);
        let plain = m.median_sample()?;
        let (layers, spans) = layers(
            &h,
            &mut m.checks,
            m.workload,
            seed,
            &m.dir,
            Some(plain),
            single_threaded,
        )?;
        report::print_end_to_end(m.workload, &m.end_to_end)?;
        report::print_per_layer(m.workload, &layers);
        sections.push(report::workload_json(
            m.workload,
            &h.describe(m.workload),
            Some(&m.end_to_end),
            Some((&layers, &spans)),
            &m.checks,
        )?);
        attempted += m.checks.attempted;
        failures.extend(
            m.checks
                .failures
                .iter()
                .map(|f| format!("{}: {f}", m.workload.name)),
        );
    }
    let mut o = JsonObject::new();
    o.field_str("schema", compare::SCHEMA)
        .field_u64("seed", seed)
        .field_bool("smoke", smoke)
        .field_raw("machine", &h.machine.to_json())
        .field_raw("workloads", &array_of(sections));
    write_file(&out, &o.finish())?;
    for failure in &failures {
        println!("FAILED {failure}");
    }
    println!(
        "checks {attempted} checks_failed {} result {}",
        failures.len(),
        out.display()
    );
    Ok(failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources() -> Vec<(PathBuf, String)> {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = vec![bench.join("Cargo.toml"), bench.join("README.md")];
        files.extend(
            std::fs::read_dir(bench.join("src"))
                .unwrap()
                .map(|entry| entry.unwrap().path()),
        );
        files
            .into_iter()
            .map(|path| {
                let text = std::fs::read_to_string(&path).unwrap();
                (path, text)
            })
            .collect()
    }

    /// The benchmark must outlive ROADMAP items 2 and 4, so it may not
    /// name anything they plan to delete. The identifiers are spelled in
    /// pieces here so that this file passes its own test.
    #[test]
    fn nothing_slated_for_deletion_is_named() {
        let doomed: Vec<String> = [
            ["run_", "sharded"],
            ["run_", "fast"],
            ["run_", "observed"],
            ["BTree", "Backend"],
            ["scenario::", "legacy"],
            ["bench::", "trace"],
            ["traced_", "table"],
            ["EPIDEMIC_", "SHARDS"],
            ["EPIDEMIC_", "BACKEND"],
            ["fig-cin-steady-", "sharded"],
        ]
        .iter()
        .map(|parts| parts.concat())
        .collect();
        // The storage enum's name is a common word part: whole identifiers only.
        let storage_enum = ["St", "ore"].concat();
        for (path, text) in sources() {
            for name in &doomed {
                assert!(
                    !text.contains(name.as_str()),
                    "{} names {name}",
                    path.display()
                );
            }
            assert!(
                !names_identifier(&text, &storage_enum),
                "{} names {storage_enum}",
                path.display()
            );
        }
    }

    /// Whether `word` occurs in `text` as a whole identifier.
    fn names_identifier(text: &str, word: &str) -> bool {
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        text.match_indices(word).any(|(at, _)| {
            !text[..at].chars().next_back().is_some_and(ident)
                && !text[at + word.len()..].chars().next().is_some_and(ident)
        })
    }

    #[test]
    fn only_the_leaf_layers_are_linked() {
        let manifest =
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
                .unwrap();
        let dependencies = manifest.split("[dependencies]").nth(1).unwrap();
        let names: Vec<&str> = dependencies
            .lines()
            .filter_map(|l| l.split_once('=').map(|(name, _)| name.trim()))
            .collect();
        assert_eq!(
            names,
            [
                "rand",
                "epidemic-db",
                "epidemic-net",
                "epidemic-core",
                "epidemic-trace"
            ]
        );
    }

    /// `BENCHMARK.json` is the driver's view of this benchmark: the same
    /// workloads, metrics, units and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_source() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let doc = epidemic_trace::json::parse(&text).unwrap();
        let list = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();
        let name =
            |v: &epidemic_trace::json::Value| v.get("name").unwrap().as_str().unwrap().to_string();
        let unit =
            |v: &epidemic_trace::json::Value| v.get("unit").unwrap().as_str().unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(name(entry), w.name);
            assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why));
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), workloads::END_TO_END.len());
        for (entry, &(metric, u, bound)) in end_to_end.iter().zip(&workloads::END_TO_END) {
            assert_eq!(
                (name(entry), unit(entry)),
                (metric.to_string(), u.to_string())
            );
            assert_eq!(entry.get("better").unwrap().as_str(), Some("lower"));
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(bound));
            assert!(bound <= 0.25);
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), report::PER_LAYER.len());
        for (entry, &(metric, u, _)) in per_layer.iter().zip(report::PER_LAYER) {
            assert_eq!(
                (name(entry), unit(entry)),
                (metric.to_string(), u.to_string())
            );
        }
        let paths = list("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
