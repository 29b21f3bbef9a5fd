//! The `.scenario` files shipped with the crate (`crates/sim/scenarios/`).
//!
//! Four re-express the historical drivers — for the two that keep an
//! adapter in [`super::legacy`] the file parses to exactly what its
//! `to_scenario()` builds, pinned by tests here — and the rest are new
//! runs only expressible declaratively: the failures.rs churn model on a
//! grid, a flash crowd under lossy links, and churn across a partition
//! heal. `repro fig-scenarios` sweeps all of them.

use super::spec::Scenario;

/// Name → source text of every bundled scenario, in sweep order.
pub const SOURCES: &[(&str, &str)] = &[
    (
        "clearinghouse",
        include_str!("../../scenarios/clearinghouse.scenario"),
    ),
    (
        "dormant-death",
        include_str!("../../scenarios/dormant-death.scenario"),
    ),
    (
        "partition",
        include_str!("../../scenarios/partition.scenario"),
    ),
    ("crash", include_str!("../../scenarios/crash.scenario")),
    ("churn", include_str!("../../scenarios/churn.scenario")),
    (
        "flash-crowd-lossy",
        include_str!("../../scenarios/flash-crowd-lossy.scenario"),
    ),
    (
        "churn-partition-heal",
        include_str!("../../scenarios/churn-partition-heal.scenario"),
    ),
];

/// Parses every bundled scenario. Panics only if a shipped file is
/// malformed, which the tests below rule out.
pub fn all() -> Vec<Scenario> {
    SOURCES
        .iter()
        .map(|(name, text)| {
            let spec = Scenario::parse(text)
                .unwrap_or_else(|e| panic!("bundled scenario {name} is malformed: {e}"));
            assert_eq!(&spec.name, name, "bundled file name matches its spec");
            spec
        })
        .collect()
}

/// Parses the bundled scenario with the given name, if one exists.
pub fn by_name(name: &str) -> Option<Scenario> {
    SOURCES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, text)| Scenario::parse(text).unwrap_or_else(|e| panic!("bundled {n}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::super::legacy::{ClearinghouseScenario, DormantDeathScenario};
    use super::*;

    #[test]
    fn every_bundled_scenario_parses_and_validates() {
        let specs = all();
        assert_eq!(specs.len(), SOURCES.len());
        for spec in &specs {
            spec.validate().expect("bundled specs are coherent");
        }
    }

    #[test]
    fn bundled_files_round_trip_through_render() {
        for spec in all() {
            let rendered = spec.render();
            let reparsed = Scenario::parse(&rendered).expect("render output parses");
            assert_eq!(reparsed, spec, "render/parse round-trip for {}", spec.name);
        }
    }

    /// The two legacy adapters and their bundled files describe the same
    /// runs: the file is exactly the adapter's spec (and, transitively,
    /// its canonical rendering — so regenerating a file after an adapter
    /// change is `to_scenario().render()`).
    #[test]
    fn legacy_adapters_match_their_bundled_files() {
        let clearinghouse = ClearinghouseScenario::default().to_scenario();
        assert_eq!(by_name("clearinghouse").unwrap(), clearinghouse);
        assert_eq!(
            SOURCES[0].1,
            clearinghouse.render(),
            "clearinghouse.scenario is the canonical rendering"
        );
        assert_eq!(
            by_name("dormant-death").unwrap(),
            DormantDeathScenario::default().to_scenario()
        );
    }
}
