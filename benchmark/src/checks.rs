//! Output checks, counted as operations.
//!
//! The bands are anchored to the paper, not to this repository's goldens:
//! they are wide enough (about three times the deviation seen when the
//! benchmark was written, plus the sampling noise of the trial counts in
//! use) that a one-time re-cut of the goldens in a new RNG universe still
//! passes, and tight enough that a broken protocol does not.

use crate::readers::Table;

/// Attempted and failed operations of one run: child processes and output
/// checks alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(detail) = result {
            self.failures.push(format!("{name}: {detail}"));
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// The paper's Tables 1–3: `(residue s, traffic m)` per row.
const PAPER_TABLE1: [(f64, f64); 5] = [
    (0.18, 1.7),
    (0.037, 3.3),
    (0.011, 4.5),
    (0.0036, 5.6),
    (0.0012, 6.7),
];
const PAPER_TABLE2: [(f64, f64); 5] = [
    (0.96, 0.04),
    (0.20, 1.6),
    (0.060, 2.8),
    (0.021, 3.9),
    (0.008, 4.9),
];
const PAPER_TABLE3: [(f64, f64); 3] = [(3.1e-2, 2.7), (5.8e-4, 4.5), (4.0e-6, 6.1)];

/// Sampling tolerances are for the standard trial counts; `--smoke` runs a
/// fifth of the trials, so its noise is √5 ≈ 2.2 times wider.
pub fn band_scale(smoke: bool) -> f64 {
    if smoke {
        2.5
    } else {
        1.0
    }
}

/// The residue of the rumor ODE, `s = e^{-(k+1)(1-s)}` (§1.4), by
/// fixed-point iteration from the small root.
pub fn ode_residue(k: u32) -> f64 {
    let mut s = 0.0f64;
    for _ in 0..200 {
        s = (-(f64::from(k) + 1.0) * (1.0 - s)).exp();
    }
    s
}

/// Checks the table of `experiment` against the paper; `Ok` for
/// experiments without an anchored band.
pub fn paper_bands(experiment: &str, table: &Table, scale: f64) -> Result<(), String> {
    match experiment {
        "table1" => mixing_table(table, &PAPER_TABLE1, scale),
        "table2" => mixing_table(table, &PAPER_TABLE2, scale),
        "table3" => mixing_table(table, &PAPER_TABLE3, scale),
        "fig-rumor-ode" => rumor_ode(table, scale),
        "fig-ae-convergence" => cover_time(table),
        "table4" | "table5" => spatial_ordering(table, scale),
        "fig-cin-steady" => {
            strictly_falling(table, "entries_bushey/cycle")?;
            strictly_falling(table, "conv/link/cycle")
        }
        "fig-pull-vs-push-rate" => pull_vs_push(table),
        "fig-megascale" => megascale(table),
        _ => Ok(()),
    }
}

/// Residue within 25 % (or 1e-3) and traffic within 0.15 of the paper.
fn mixing_table(table: &Table, paper: &[(f64, f64)], scale: f64) -> Result<(), String> {
    if table.rows.len() != paper.len() {
        return Err(format!(
            "{}: {} rows, the paper has {}",
            table.origin,
            table.rows.len(),
            paper.len()
        ));
    }
    for (row, &(s, m)) in paper.iter().enumerate() {
        let residue = table.num(row, "residue")?;
        let traffic = table.num(row, "traffic")?;
        if (residue - s).abs() > (0.25 * s).max(1e-3) * scale {
            return Err(format!(
                "{}: row {row} residue {residue} is not within band of the paper's {s}",
                table.origin
            ));
        }
        if (traffic - m).abs() > 0.15 * scale {
            return Err(format!(
                "{}: row {row} traffic {traffic} is not within 0.15 of the paper's {m}",
                table.origin
            ));
        }
    }
    Ok(())
}

/// Simulated residue within 35 % of the ODE for k ≤ 5 (beyond that a
/// trial leaves less than one susceptible site and the mean is all noise).
fn rumor_ode(table: &Table, scale: f64) -> Result<(), String> {
    for row in 0..table.rows.len() {
        let k = table.num(row, "k")?;
        if k > 5.0 {
            continue;
        }
        let ode = ode_residue(k as u32);
        let sim = table.num(row, "sim_residue")?;
        if (sim - ode).abs() > 0.35 * ode * scale {
            return Err(format!(
                "{}: k={k} residue {sim} is not within 35 % of the ODE's {ode:.4}",
                table.origin
            ));
        }
    }
    Ok(())
}

/// Push cover time within 2.0 cycles of log₂n + ln n (§1.3).
fn cover_time(table: &Table) -> Result<(), String> {
    for row in 0..table.rows.len() {
        let n = table.num(row, "n")?;
        let push = table.num(row, "push_(sim)")?;
        let law = n.log2() + n.ln();
        if (push - law).abs() > 2.0 {
            return Err(format!(
                "{}: n={n} push cover time {push} is not within 2.0 cycles of {law:.2}",
                table.origin
            ));
        }
    }
    Ok(())
}

fn column(table: &Table, col: &str) -> Result<Vec<f64>, String> {
    (0..table.rows.len()).map(|r| table.num(r, col)).collect()
}

fn strictly_falling(table: &Table, col: &str) -> Result<(), String> {
    let values = column(table, col)?;
    if values.len() < 2 || values.windows(2).any(|w| w[1] >= w[0]) {
        return Err(format!(
            "{}: {col} does not fall strictly from uniform to a = 2.0: {values:?}",
            table.origin
        ));
    }
    Ok(())
}

/// §3.1's trade: from uniform to a = 2.0 the critical link's compare
/// traffic falls strictly while convergence time rises. Neighbouring
/// distributions differ by less than a few trials' noise in `t_last`, so
/// a step may dip by 5 % as long as the ends are far apart.
fn spatial_ordering(table: &Table, scale: f64) -> Result<(), String> {
    strictly_falling(table, "cmp_bushey")?;
    let t_last = column(table, "t_last")?;
    let dip = 1.0 - 0.05 * scale;
    let rises =
        t_last.windows(2).all(|w| w[1] >= w[0] * dip) && t_last.last() > Some(&(t_last[0] * 1.5));
    if !rises {
        return Err(format!(
            "{}: t_last does not rise from uniform to a = 2.0: {t_last:?}",
            table.origin
        ));
    }
    Ok(())
}

/// §1.4: pull covers at least as well as push at every non-zero update
/// rate, and a quiescent push network is silent.
fn pull_vs_push(table: &Table) -> Result<(), String> {
    let mut rates = 0;
    for row in 0..table.rows.len() {
        let label = table.text(row, "workload")?;
        let Some(rate) = label.strip_suffix(" upd/cycle, push") else {
            continue;
        };
        rates += 1;
        let pull = table.find("workload", &format!("{rate} upd/cycle, pull"))?;
        if rate == "0" {
            let contacts = table.num(row, "contacts/cycle")?;
            if contacts != 0.0 {
                return Err(format!(
                    "{}: push makes {contacts} contacts per cycle at rate 0",
                    table.origin
                ));
            }
        } else if table.num(pull, "coverage")? < table.num(row, "coverage")? {
            return Err(format!(
                "{}: pull covers less than push at {rate} updates per cycle",
                table.origin
            ));
        }
    }
    if rates < 2 {
        return Err(format!("{}: fewer than two update rates", table.origin));
    }
    Ok(())
}

/// Uniform-mixing residue within 15 % of the k = 4 ODE value at n ≥ 10⁵.
fn megascale(table: &Table) -> Result<(), String> {
    let ode = ode_residue(4);
    let mut points = 0;
    for row in 0..table.rows.len() {
        if table.text(row, "topology")? != "uniform" || table.num(row, "n")? < 1e5 {
            continue;
        }
        points += 1;
        let residue = table.num(row, "residue")?;
        if (residue - ode).abs() > 0.15 * ode {
            return Err(format!(
                "{}: n={} residue {residue} is not within 15 % of the ODE's {ode:.4}",
                table.origin,
                table.text(row, "n")?
            ));
        }
    }
    if points == 0 {
        return Err(format!("{}: no uniform point at n >= 1e5", table.origin));
    }
    Ok(())
}

/// Blanks the wall-clock, allocation and RSS columns of the megascale
/// table, which legitimately differ between two runs of the same binary;
/// every other line passes through untouched.
pub fn mask_volatile(stdout: &str) -> String {
    const VOLATILE: [&str; 3] = ["seconds", "allocations", "RSS delta MB"];
    let mut masked = String::with_capacity(stdout.len());
    let mut volatile_cols: Vec<usize> = Vec::new();
    for line in stdout.lines() {
        if !line.starts_with('|') {
            volatile_cols.clear();
            masked.push_str(line);
        } else {
            let cells: Vec<&str> = line.split('|').collect();
            if volatile_cols.is_empty() {
                // A table's first row is its header.
                volatile_cols = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| VOLATILE.contains(&c.trim()))
                    .map(|(i, _)| i)
                    .collect();
                if volatile_cols.is_empty() {
                    volatile_cols.push(usize::MAX);
                }
            }
            let row: Vec<&str> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| if volatile_cols.contains(&i) { "*" } else { *c })
                .collect();
            masked.push_str(&row.join("|"));
        }
        masked.push('\n');
    }
    masked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(headers: &[&str], rows: &[&[&str]]) -> Table {
        Table {
            origin: "test".to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|c| c.to_string()).collect())
                .collect(),
        }
    }

    #[test]
    fn ode_residue_matches_the_published_roots() {
        assert!((ode_residue(1) - 0.2032).abs() < 1e-4);
        assert!((ode_residue(4) - 0.0070).abs() < 1e-4);
    }

    #[test]
    fn mixing_band_accepts_the_paper_and_rejects_a_broken_protocol() {
        let good = table(
            &["k", "residue", "traffic"],
            &[
                &["1", "0.0307", "2.71"],
                &["2", "7.10e-4", "4.49"],
                &["3", "0", "6.08"],
            ],
        );
        assert_eq!(paper_bands("table3", &good, 1.0), Ok(()));
        let bad = table(
            &["k", "residue", "traffic"],
            &[
                &["1", "0.0607", "2.71"],
                &["2", "7.10e-4", "4.49"],
                &["3", "0", "6.08"],
            ],
        );
        assert!(paper_bands("table3", &bad, 1.0)
            .unwrap_err()
            .contains("row 0 residue"));
        // Twice the trials' noise is allowed under --smoke.
        assert!(paper_bands("table3", &bad, 4.0).is_ok());
        let short = table(&["k", "residue", "traffic"], &[&["1", "0.03", "2.7"]]);
        assert!(paper_bands("table3", &short, 1.0)
            .unwrap_err()
            .contains("1 rows"));
    }

    #[test]
    fn orderings() {
        let t4 = table(
            &["distribution", "t_last", "cmp_bushey"],
            &[
                &["uniform", "5.5", "30"],
                &["a = 1.2", "5.4", "7.5"],
                &["a = 2.0", "12.5", "0.9"],
            ],
        );
        assert_eq!(paper_bands("table4", &t4, 1.0), Ok(()));
        let flat = table(
            &["distribution", "t_last", "cmp_bushey"],
            &[&["uniform", "5.5", "30"], &["a = 2.0", "5.6", "31"]],
        );
        assert!(paper_bands("table5", &flat, 1.0)
            .unwrap_err()
            .contains("cmp_bushey"));

        let rate = table(
            &["workload", "coverage", "contacts/cycle"],
            &[
                &["0 upd/cycle, push", "1.00", "0"],
                &["0 upd/cycle, pull", "1.00", "200"],
                &["4 upd/cycle, push", "0.94", "66"],
                &["4 upd/cycle, pull", "0.99", "200"],
            ],
        );
        assert_eq!(paper_bands("fig-pull-vs-push-rate", &rate, 1.0), Ok(()));
        let mut noisy = rate.clone();
        noisy.rows[0][2] = "3".to_string();
        assert!(paper_bands("fig-pull-vs-push-rate", &noisy, 1.0)
            .unwrap_err()
            .contains("rate 0"));
    }

    #[test]
    fn megascale_needs_a_large_uniform_point_in_band() {
        let t = table(
            &["n", "topology", "residue"],
            &[
                &["10000", "uniform", "0.02"],
                &["100000", "uniform", "0.0073"],
                &["100000", "scale-free m=2", "0.25"],
            ],
        );
        assert_eq!(paper_bands("fig-megascale", &t, 1.0), Ok(()));
        let small = table(
            &["n", "topology", "residue"],
            &[&["10000", "uniform", "0.007"]],
        );
        assert!(paper_bands("fig-megascale", &small, 1.0)
            .unwrap_err()
            .contains("no uniform point"));
    }

    #[test]
    fn masking_hides_only_the_volatile_columns() {
        let a = "## Fig\n| n | residue | seconds | allocations | RSS delta MB |\n|---|---|---|---|---|\n| 10 | 0.0073 | 0.03 | n/a | 12 |\n\n## T\n| k | seconds |\n";
        let b = a
            .replace("0.03", "0.04")
            .replace("n/a", "711")
            .replace(" 12 |", " 0 |");
        assert_eq!(mask_volatile(a), mask_volatile(&b));
        assert_ne!(
            mask_volatile(a),
            mask_volatile(&b.replace("0.0073", "0.0074"))
        );
        assert!(mask_volatile(a).contains("| 10 | 0.0073 |*|*|*|"));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.record("a", Ok(()));
        c.record("b", Err("broke".to_string()));
        assert_eq!((c.attempted, c.failed()), (2, 1));
        assert_eq!(c.failures, ["b: broke"]);
    }
}
