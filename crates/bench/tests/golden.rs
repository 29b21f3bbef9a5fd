//! Golden-output regression tests.
//!
//! These pin the exact rendered text of Table 1, Table 4, one
//! spatial-rumor cell, the three steady-state figures (live databases
//! under continuous updates — the only goldens whose sites hold more than
//! one key) and the churn ablation, at deliberately small trial counts so
//! the suite stays fast. The numbers depend on every RNG draw a driver makes, so
//! any refactor that perturbs the partner-selection, contact or
//! convergence logic — however slightly — shows up as a byte-level diff
//! here. Each table is checked at 1 worker thread and at 8 to prove the
//! trial runner's scheduling never leaks into results.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! cargo test -p epidemic-bench --test golden -- --ignored regenerate
//! ```

use epidemic_bench::figures::spatial_rumor_on;
use epidemic_bench::registry::{self, Ctx};
use epidemic_bench::tables::table45_on;
use epidemic_net::topologies::{cin, Cin, CinConfig};
use epidemic_net::Spatial;
use epidemic_sim::runner::TrialRunner;

const TABLE1_GOLDEN: &str = include_str!("golden/table1.txt");
const TABLE4_GOLDEN: &str = include_str!("golden/table4.txt");
const SPATIAL_RUMOR_GOLDEN: &str = include_str!("golden/spatial_rumor.txt");
const PULL_VS_PUSH_RATE_GOLDEN: &str = include_str!("golden/fig_pull_vs_push_rate.txt");
const CIN_STEADY_GOLDEN: &str = include_str!("golden/fig_cin_steady.txt");
const CHECKSUM_WINDOW_GOLDEN: &str = include_str!("golden/fig_checksum_window.txt");
const CHURN_GOLDEN: &str = include_str!("golden/ablation_churn.txt");

/// The 50-site CIN used by the spatial goldens (same configuration as the
/// in-crate `table45_on` unit test).
fn small_cin() -> Cin {
    cin(&CinConfig {
        na_regions: 4,
        sites_per_region: 10,
        europe_sites: 10,
        backbone_chords: 2,
        seed: 7,
        ..CinConfig::default()
    })
}

/// The registry row `name` on `runner` at `n` sites and `trials` trials,
/// unobserved, as `repro` prints it.
fn run(name: &str, runner: TrialRunner, n: usize, trials: u64) -> registry::Output {
    let experiment = registry::find(name).expect("a registry row");
    let ctx = Ctx {
        runner,
        n,
        trials,
        ..experiment.ctx(None, false)
    };
    experiment.run(&ctx)
}

fn table1_text(runner: TrialRunner) -> String {
    let mut output = run("table1", runner, 200, 16);
    output.tables[0].title =
        "Table 1 (golden): push, feedback, counter, n=200, 16 trials".to_string();
    output.text()
}

/// A context for the sweeps the goldens run on the small CIN.
fn small_ctx(runner: TrialRunner, trials: u64) -> Ctx<'static> {
    Ctx {
        experiment: "golden",
        runner,
        n: registry::N,
        trials,
        observe: false,
    }
}

fn table4_text(runner: TrialRunner) -> String {
    table45_on(
        &small_ctx(runner, 6),
        &small_cin(),
        "Table 4 (golden): push-pull anti-entropy on the 50-site CIN, 6 trials",
        None,
    )
    .text()
}

fn spatial_rumor_text(runner: TrialRunner) -> String {
    spatial_rumor_on(
        &small_ctx(runner, 6),
        &small_cin(),
        &[("a = 1.2".to_string(), Spatial::QsPower { a: 1.2 })],
        40,
        8,
    )
    .render()
}

/// Registry rows pinned as `repro` prints them: name, trials and golden
/// (the file is the name with `_` for `-`). Each is checked at 1 and 8
/// worker threads.
const ROWS: [(&str, u64, &str); 4] = [
    ("fig-pull-vs-push-rate", 2, PULL_VS_PUSH_RATE_GOLDEN),
    ("fig-cin-steady", 2, CIN_STEADY_GOLDEN),
    ("fig-checksum-window", 1, CHECKSUM_WINDOW_GOLDEN),
    ("ablation-churn", 30, CHURN_GOLDEN),
];

#[test]
fn table1_matches_golden_single_thread() {
    assert_eq!(table1_text(TrialRunner::new().threads(1)), TABLE1_GOLDEN);
}

#[test]
fn table1_matches_golden_parallel() {
    assert_eq!(table1_text(TrialRunner::new().threads(8)), TABLE1_GOLDEN);
}

#[test]
fn table4_matches_golden_single_thread() {
    assert_eq!(table4_text(TrialRunner::new().threads(1)), TABLE4_GOLDEN);
}

#[test]
fn table4_matches_golden_parallel() {
    assert_eq!(table4_text(TrialRunner::new().threads(8)), TABLE4_GOLDEN);
}

#[test]
fn spatial_rumor_matches_golden_single_thread() {
    assert_eq!(
        spatial_rumor_text(TrialRunner::new().threads(1)),
        SPATIAL_RUMOR_GOLDEN
    );
}

#[test]
fn spatial_rumor_matches_golden_parallel() {
    assert_eq!(
        spatial_rumor_text(TrialRunner::new().threads(8)),
        SPATIAL_RUMOR_GOLDEN
    );
}

#[test]
fn registry_rows_match_goldens_at_1_and_8_threads() {
    for (name, trials, golden) in ROWS {
        for threads in [1, 8] {
            let runner = TrialRunner::new().threads(threads);
            let text = run(name, runner, registry::N, trials).text();
            assert_eq!(text, golden, "{name} at {threads} threads");
        }
    }
}

#[test]
#[ignore = "overwrites the checked-in golden files"]
fn regenerate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::create_dir_all(dir).expect("create golden dir");
    let single = TrialRunner::new().threads(1);
    std::fs::write(format!("{dir}/table1.txt"), table1_text(single)).expect("write table1");
    std::fs::write(format!("{dir}/table4.txt"), table4_text(single)).expect("write table4");
    std::fs::write(
        format!("{dir}/spatial_rumor.txt"),
        spatial_rumor_text(single),
    )
    .expect("write spatial_rumor");
    for (name, trials, _) in ROWS {
        let file = format!("{dir}/{}.txt", name.replace('-', "_"));
        let text = run(name, single, registry::N, trials).text();
        std::fs::write(file, text).expect("write a registry row's golden");
    }
}
