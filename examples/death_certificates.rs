//! Deletion done wrong and done right (paper §2): resurrection, death
//! certificates, and the dormant-certificate immune response.
//!
//! ```text
//! cargo run --example death_certificates
//! ```

use epidemics::db::GcPolicy;
use epidemics::sim::scenario::{bundled, FaultKind, ScenarioArena, ScenarioEngine};

fn main() {
    // The bundled §2.3 run: 20 sites converge on an item, the last goes
    // down, the item is deleted with r = 2 retention sites, certificates
    // are collected past τ1 = 50 and the down site rejoins.
    let dormant = bundled::by_name("dormant-death").expect("bundled");

    // 1. The failure that motivates §2: with no retention site, no
    //    certificate survives τ1, and the propagation mechanism itself
    //    undoes the deletion.
    let mut naive = dormant.clone();
    for event in &mut naive.events {
        if let FaultKind::Delete { retention, .. } = &mut event.kind {
            *retention = 0;
        }
    }
    let report = ScenarioEngine::new(naive)
        .unwrap()
        .run(&mut ScenarioArena::new(), 7, &mut ());
    let resurrected = !report.cancelled;
    println!("naive deletion (no certificate survives τ1):");
    println!("  item resurrected by anti-entropy = {resurrected}\n");
    assert!(resurrected, "the paper's failure mode always reproduces");

    // 2. The space law of §2.1: dormant copies at r of n sites extend the
    //    effective history by a factor of n/r at equal space.
    println!("dormant death certificates, equal-space law τ2 = (τ-τ1)·n/r:");
    for (tau, tau1, n, r) in [(30u64, 15u64, 300u64, 4u64), (30, 15, 300, 8)] {
        let tau2 = GcPolicy::equal_space_tau2(tau, tau1, n, r);
        println!(
            "  τ={tau:2} days, τ1={tau1:2}, n={n}, r={r} -> τ2 = {tau2} days of dormant history"
        );
    }
    println!("  (\"increase the effective history from 30 days to several years\")\n");

    // 3. The immune response of §2.2–2.3: a site that slept through the
    //    deletion *and* the certificate's active window rejoins with the
    //    obsolete item; a dormant certificate awakens and cancels it.
    let report = ScenarioEngine::new(dormant)
        .unwrap()
        .run(&mut ScenarioArena::new(), 99, &mut ());
    println!("obsolete site rejoins after τ1 (20 sites, r = 2 retention sites):");
    println!(
        "  active certificates left after GC = {}",
        report.certs_after_gc.unwrap_or(0)
    );
    println!("  dormant certificates awakened    = {}", report.awakened);
    println!(
        "  obsolete item cancelled everywhere = {}",
        report.cancelled
    );
    assert!(report.cancelled);
    println!(
        "\nNote the antibody analogy (§2.1): the awakened certificate propagates\n\
         with a fresh activation timestamp but its *original* deletion timestamp,\n\
         so any legitimate newer reinstatement would survive it."
    );
}
