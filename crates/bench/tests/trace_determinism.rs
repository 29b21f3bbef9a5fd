//! The acceptance property behind `repro --trace`: trace artifacts carry
//! no wall-clock fields, and the trial runner returns per-trial results
//! in trial order — so every artifact must be byte-identical at
//! `EPIDEMIC_THREADS=1` and `=8`. These tests pin that down at reduced
//! scale (same code path as the full-size tables, smaller `n`/trials).

use epidemic_bench::registry::{self, Ctx};
use epidemic_bench::tables::table45_on;
use epidemic_net::topologies::{cin, CinConfig};
use epidemic_sim::runner::TrialRunner;

#[test]
fn table1_artifacts_are_byte_identical_across_thread_counts() {
    let table1 = registry::find("table1").expect("table1 is a registry row");
    let run = |threads: usize| {
        table1.run(&Ctx {
            runner: TrialRunner::new().threads(threads),
            n: 150,
            trials: 12,
            ..table1.ctx(None, true)
        })
    };
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(
        sequential.jsonl, parallel.jsonl,
        "trace bytes must not depend on threads"
    );
    assert_eq!(sequential.summary_json(), parallel.summary_json());
    assert_eq!(sequential.rows_json, parallel.rows_json);
    assert_eq!(sequential.text(), parallel.text());
}

#[test]
fn spatial_trace_is_byte_identical_across_thread_counts() {
    let net = cin(&CinConfig {
        na_regions: 3,
        sites_per_region: 8,
        europe_sites: 8,
        backbone_chords: 2,
        seed: 7,
        ..CinConfig::default()
    });
    let table5 = registry::find("table5").expect("table5 is a registry row");
    let run = |threads: usize| {
        let ctx = Ctx {
            runner: TrialRunner::new().threads(threads),
            trials: 8,
            ..table5.ctx(None, true)
        };
        table45_on(&ctx, &net, "Table 5 on a small CIN", Some(1))
    };
    let (one, eight) = (run(1), run(8));
    assert_eq!(one.jsonl, eight.jsonl);
    assert_eq!(one.tables, eight.tables);
    assert_eq!(one.rows_json, eight.rows_json);
    assert_eq!(
        one.violations,
        Some(0),
        "spatial anti-entropy is invariant-clean"
    );
    assert!(one.jsonl.contains(r#""distribution":"a = 2.0""#));
}
