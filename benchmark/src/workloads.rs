//! The six workloads — what each child process is asked to do, in which
//! environment, and why it was chosen — and the end-to-end metrics with
//! their regression bounds.
//!
//! `repro` has no seed flag, so the end-to-end inputs are fixed by the
//! experiment names and `--trials`; the benchmark's `--seed` drives the
//! layer replay only (see the README).

/// Which part of the leaf layers the replay re-enacts for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayKind {
    /// Tables 1–3 and the rumor ODE figure: single-update rumor epidemics
    /// under complete mixing.
    MixingRumor,
    /// Recent-list push-pull anti-entropy on the CIN under updates.
    SteadyCin,
    /// Single-update anti-entropy on the CIN and cover-time sweeps.
    SpatialAe,
    /// Rumor mongering with many hot rumors under client writes.
    SteadyRumor,
    /// Counter-RNG active-set epidemics at 10⁴–10⁶ sites.
    Megascale,
}

/// How many worker threads the child's trial fan-out gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    One,
    /// `min(nproc, 4)`: the benchmark never asks for more threads than
    /// the machine has cores.
    Many,
}

/// The end-to-end metrics in report order: `(name, unit, bound)`. The
/// bound is the share of the earlier median by which a later median may
/// worsen before that counts as a regression; all five are better lower.
///
/// The three times sit at the loosest bound the driver's contract allows.
/// On the 2-core VM the benchmark was written on, the floor under a
/// deterministic child's wall and CPU time drifts by 10–20 % over minutes
/// (neighbours on the host), so two independent sets of runs of one commit
/// differ by that much; anything tighter would reject noise. Memory and
/// allocation counts do not drift and are bound tightly.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_kb", "kB", 0.03),
    ("allocs", "count", 0.005),
    ("setup_s", "s", 0.25),
];

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Experiment names passed to `repro`, in order.
    pub experiments: &'static [&'static str],
    /// `--trials` of the standard size; `None` leaves `repro`'s default.
    pub trials: Option<u32>,
    pub threads: Threads,
    /// Largest megascale `n` (standard, smoke); `None` for workloads that
    /// do not run the megascale sweep.
    pub megascale_max_n: Option<(u32, u32)>,
    /// Median wall seconds of one child on the 2-core box the sizes were
    /// chosen on. Sizing only: it sets the child's timeout (10×).
    pub expected_s: f64,
    pub replay: ReplayKind,
}

/// `--trials` under `--smoke`.
pub const SMOKE_TRIALS: u32 = 20;
const THREADS_VAR: &str = "EPIDEMIC_THREADS";
const MEGASCALE_VAR: &str = "EPIDEMIC_MEGASCALE_MAX_N";
/// Prefix of every variable `repro` reads; ambient ones are removed
/// before a child starts.
pub const ENV_PREFIX: &str = "EPIDEMIC_";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mixing_rumor",
        why: "Complete-mixing single-update rumor epidemics at n=1000: core::rumor contacts, rand draws and shuffles, engine roster work, per-trial Replica construction; net bypassed, db holds one key",
        experiments: &["table1", "table2", "table3", "fig-rumor-ode"],
        trials: Some(100),
        threads: Threads::One,
        megascale_max_n: None,
        expected_s: 2.9,
        replay: ReplayKind::MixingRumor,
    },
    Workload {
        name: "mixing_rumor_mt",
        why: "The same work through the runner's parallel trial fan-out: the only place a parallel speedup, or one that costs the single-threaded path, can show; stdout must equal mixing_rumor's",
        experiments: &["table1", "table2", "table3", "fig-rumor-ode"],
        trials: Some(100),
        threads: Threads::Many,
        megascale_max_n: None,
        expected_s: 2.2,
        replay: ReplayKind::MixingRumor,
    },
    Workload {
        name: "steady_cin",
        why: "Live databases under continuous updates on the 254-site CIN with recent-list push-pull anti-entropy: core::anti_entropy and db (index, recent walk, offers, checksums) dominate, net is small",
        experiments: &["fig-cin-steady"],
        trials: None,
        threads: Threads::One,
        megascale_max_n: None,
        expected_s: 3.3,
        replay: ReplayKind::SteadyCin,
    },
    Workload {
        name: "spatial_ae",
        why: "Single-update anti-entropy over six spatial distributions plus cover-time sweeps: net sampler, routes and link accounting, rand and engine connection-limit arbitration; db and core see one key",
        experiments: &["table4", "table5", "fig-ae-convergence"],
        trials: None,
        threads: Threads::One,
        megascale_max_n: None,
        expected_s: 3.0,
        replay: ReplayKind::SpatialAe,
    },
    Workload {
        name: "steady_rumor",
        why: "Rumor mongering with many hot rumors and client writes on 200 sites, push beside pull, quiescent beside loaded: mixing_rumor's code used differently, so a gain for one that costs the other shows",
        experiments: &["fig-pull-vs-push-rate"],
        trials: None,
        threads: Threads::One,
        megascale_max_n: None,
        expected_s: 2.8,
        replay: ReplayKind::SteadyRumor,
    },
    Workload {
        name: "megascale",
        why: "Active-set engine, counter RNG, lazy table and CSR scale-free graph up to n=10^6: the working set is far beyond L2, so this is the memory-bound workload and the one where peak_rss_kb matters",
        experiments: &["fig-megascale"],
        trials: None,
        threads: Threads::One,
        megascale_max_n: Some((1_000_000, 100_000)),
        expected_s: 0.8,
        replay: ReplayKind::Megascale,
    },
];

pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(" "))
    })
}

/// Threads a [`Threads::Many`] child gets on a machine with `nproc` cores.
pub fn many_threads(nproc: usize) -> usize {
    nproc.clamp(1, 4)
}

impl Workload {
    /// Trials the child runs for the experiments that honour `--trials`.
    pub fn effective_trials(&self, smoke: bool) -> Option<u32> {
        if smoke {
            Some(SMOKE_TRIALS)
        } else {
            self.trials
        }
    }

    /// Largest `n` of the megascale sweep at this size.
    pub fn max_n(&self, smoke: bool) -> Option<u32> {
        self.megascale_max_n
            .map(|(standard, small)| if smoke { small } else { standard })
    }

    /// Arguments after `repro` (flags such as `--timings` are the
    /// caller's to prepend).
    pub fn argv(&self, smoke: bool) -> Vec<String> {
        let mut argv = Vec::new();
        if let Some(trials) = self.effective_trials(smoke) {
            argv.push("--trials".to_string());
            argv.push(trials.to_string());
        }
        argv.extend(self.experiments.iter().map(|e| e.to_string()));
        argv
    }

    /// Exactly the variables the child is given on top of the scrubbed
    /// ambient environment. `single_threaded` forces one worker whatever
    /// the workload says: the allocation count is taken that way.
    pub fn env(&self, smoke: bool, nproc: usize, single_threaded: bool) -> Vec<(String, String)> {
        let threads = match self.threads {
            Threads::Many if !single_threaded => many_threads(nproc),
            _ => 1,
        };
        let mut env = vec![(THREADS_VAR.to_string(), threads.to_string())];
        if let Some(n) = self.max_n(smoke) {
            env.push((MEGASCALE_VAR.to_string(), n.to_string()));
        }
        env
    }
}

/// The child's whole environment: the ambient one minus every variable
/// `repro` reads, plus exactly `set`.
pub fn scrubbed_env(
    ambient: impl IntoIterator<Item = (String, String)>,
    set: &[(String, String)],
) -> Vec<(String, String)> {
    ambient
        .into_iter()
        .filter(|(key, _)| !key.starts_with(ENV_PREFIX))
        .chain(set.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_removes_every_ambient_variable_of_the_program() {
        let ambient = vec![
            ("PATH".to_string(), "/bin".to_string()),
            ("EPIDEMIC_THREADS".to_string(), "64".to_string()),
            ("EPIDEMIC_ANYTHING_ELSE".to_string(), "x".to_string()),
            ("HOME".to_string(), "/root".to_string()),
        ];
        let set = WORKLOADS[0].env(false, 2, false);
        let env = scrubbed_env(ambient, &set);
        assert_eq!(
            env,
            vec![
                ("PATH".to_string(), "/bin".to_string()),
                ("HOME".to_string(), "/root".to_string()),
                ("EPIDEMIC_THREADS".to_string(), "1".to_string()),
            ]
        );
    }

    #[test]
    fn argv_and_env_follow_size_and_thread_mode() {
        let mt = find("mixing_rumor_mt").unwrap();
        assert_eq!(
            mt.argv(false),
            [
                "--trials",
                "100",
                "table1",
                "table2",
                "table3",
                "fig-rumor-ode"
            ]
        );
        assert_eq!(mt.argv(true)[1], "20");
        assert_eq!(mt.env(false, 2, false)[0].1, "2");
        assert_eq!(mt.env(false, 16, false)[0].1, "4");
        assert_eq!(mt.env(false, 16, true)[0].1, "1");
        let mega = find("megascale").unwrap();
        assert_eq!(mega.env(false, 2, false)[1].1, "1000000");
        assert_eq!(mega.env(true, 2, false)[1].1, "100000");
        assert_eq!(find("steady_cin").unwrap().argv(false), ["fig-cin-steady"]);
        assert!(find("nope").unwrap_err().contains("known: mixing_rumor"));
    }

    #[test]
    fn names_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
