//! The Clearinghouse configuration (paper §0.1, §1.5): direct mail for
//! timely distribution, periodic anti-entropy as the safety net.
//!
//! ```text
//! cargo run --example clearinghouse
//! ```
//!
//! The mail system here loses 25% of messages — far worse than the real
//! CIN — yet the name service still reaches exact consistency, because
//! anti-entropy repairs whatever mail drops. The same run with anti-entropy
//! disabled never converges.

use epidemics::core::{
    Comparison, Direction, Feedback, MailConfig, Redistribution, Removal, RumorConfig,
};
use epidemics::sim::scenario::{bundled, AntiEntropySpec, ScenarioArena, ScenarioEngine};

fn main() {
    // The bundled §1.5 run, at 25 updates under much lossier mail.
    let mut base = bundled::by_name("clearinghouse").expect("bundled");
    base.protocol.mail = Some(MailConfig {
        loss_probability: 0.25,
        queue_capacity: 500,
    });
    base.workload.budget = Some(25);
    base.max_cycles = 1_000;

    println!("50 sites, 25 updates, mail losing 25% of messages\n");

    for (label, anti_entropy_every, redistribution, rumor_k) in [
        (
            "mail only (no anti-entropy)",
            None,
            Redistribution::None,
            None,
        ),
        (
            "mail + anti-entropy backup",
            Some(5),
            Redistribution::None,
            None,
        ),
        (
            "mail + AE + rumor redistribution",
            Some(5),
            Redistribution::Rumor,
            Some(2),
        ),
    ] {
        let mut spec = base.clone();
        spec.protocol.anti_entropy = anti_entropy_every.map(|every| AntiEntropySpec {
            every,
            redistribution,
            ..AntiEntropySpec::every_cycle(Comparison::Full)
        });
        spec.protocol.rumor = rumor_k
            .map(|k| RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k }));
        let engine = ScenarioEngine::new(spec).unwrap();
        let report = engine.run(&mut ScenarioArena::new(), 1987, &mut ());
        let mail = report.mail.expect("the spec mails");
        let mail_failures = mail.lost + mail.overflowed;
        match report.converged_at {
            Some(cycle) => println!(
                "{label:45} consistent at cycle {cycle:4} ({mail_failures} mail failures repaired by {} anti-entropy transfers)",
                report.ae_sent
            ),
            None => println!(
                "{label:45} NEVER consistent within 1000 cycles ({mail_failures} mail failures)"
            ),
        }
    }

    println!(
        "\nThis is the paper's §1.5 design: a timely but unreliable first hop,\n\
         backed by a simple epidemic that converges with probability 1."
    );
}
