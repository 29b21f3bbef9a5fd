//! Readers for what `repro` already writes: the `--timings` report, the
//! `.agg.json` contact totals, the `.rows.json` tables and the rendered
//! tables on stdout. They are read as-is; anything missing is an error
//! that names the file and the field, never a panic.

use std::path::Path;

use epidemic_trace::json::{self, Value};

pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse(text: &str, origin: &str) -> Result<Value, String> {
    json::parse(text).map_err(|e| format!("{origin}: {e}"))
}

fn field<'a>(value: &'a Value, key: &str, origin: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{origin}: missing field {key:?}"))
}

fn array<'a>(value: &'a Value, key: &str, origin: &str) -> Result<&'a [Value], String> {
    field(value, key, origin)?
        .as_array()
        .ok_or_else(|| format!("{origin}: field {key:?} is not an array"))
}

fn number(value: &Value, key: &str, origin: &str) -> Result<f64, String> {
    field(value, key, origin)?
        .as_f64()
        .ok_or_else(|| format!("{origin}: field {key:?} is not a number"))
}

fn string<'a>(value: &'a Value, key: &str, origin: &str) -> Result<&'a str, String> {
    field(value, key, origin)?
        .as_str()
        .ok_or_else(|| format!("{origin}: field {key:?} is not a string"))
}

/// One phase of the program's own phase report.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub calls: u64,
    pub seconds: f64,
}

/// The `--timings` report.
#[derive(Debug, Clone, PartialEq)]
pub struct Timings {
    origin: String,
    /// `(name, seconds, allocations)`; the count is present only in the
    /// counting build.
    experiments: Vec<(String, f64, Option<u64>)>,
    phases: Vec<(String, Phase)>,
}

impl Timings {
    pub fn parse(text: &str, origin: &str) -> Result<Timings, String> {
        let doc = parse(text, origin)?;
        let experiments = array(&doc, "experiments", origin)?
            .iter()
            .map(|row| {
                Ok((
                    string(row, "name", origin)?.to_string(),
                    number(row, "seconds", origin)?,
                    row.get("allocations").and_then(Value::as_u64),
                ))
            })
            .collect::<Result<_, String>>()?;
        let phases = array(&doc, "phases", origin)?
            .iter()
            .map(|row| {
                let calls = field(row, "calls", origin)?
                    .as_u64()
                    .ok_or_else(|| format!("{origin}: phase calls is not a count"))?;
                Ok((
                    string(row, "name", origin)?.to_string(),
                    Phase {
                        calls,
                        seconds: number(row, "seconds", origin)?,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Timings {
            origin: origin.to_string(),
            experiments,
            phases,
        })
    }

    /// A phase by name. A run that never entered a phase does not list
    /// it: that is `None`, not a failure.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }

    /// Heap allocations summed over the rows of `experiments`, each of
    /// which must be present and carry a count.
    pub fn allocations(&self, experiments: &[&str]) -> Result<u64, String> {
        experiments.iter().try_fold(0u64, |sum, name| {
            let (_, _, count) = self
                .experiments
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("{}: no row for experiment {name:?}", self.origin))?;
            let count = count.ok_or_else(|| {
                format!(
                    "{}: experiment {name:?} has no allocations (not the counting build?)",
                    self.origin
                )
            })?;
            Ok(sum + count)
        })
    }
}

/// Contacts summed over an `.agg.json`'s aggregates; `None` when the
/// experiment keeps none.
pub fn agg_contacts(text: &str, origin: &str) -> Result<Option<u64>, String> {
    let doc = parse(text, origin)?;
    let aggregates = array(&doc, "aggregates", origin)?;
    if aggregates.is_empty() {
        return Ok(None);
    }
    aggregates
        .iter()
        .try_fold(0u64, |sum, entry| {
            let totals = field(field(entry, "aggregate", origin)?, "totals", origin)?;
            let contacts = field(totals, "contacts", origin)?
                .as_u64()
                .ok_or_else(|| format!("{origin}: totals.contacts is not a count"))?;
            Ok(sum + contacts)
        })
        .map(Some)
}

/// One result table, from `.rows.json` or from stdout. Header names are
/// normalised (lower case, `_` for space) so both sources agree:
/// `cmp Bushey` and `cmp_bushey` are the same column.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub origin: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

fn normalise(header: &str) -> String {
    header.trim().to_lowercase().replace(' ', "_")
}

impl Table {
    pub fn col(&self, name: &str) -> Result<usize, String> {
        self.headers
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("{}: no column {name:?}", self.origin))
    }

    pub fn text(&self, row: usize, col: &str) -> Result<&str, String> {
        let c = self.col(col)?;
        self.rows
            .get(row)
            .and_then(|r| r.get(c))
            .map(String::as_str)
            .ok_or_else(|| format!("{}: no row {row} in column {col:?}", self.origin))
    }

    pub fn num(&self, row: usize, col: &str) -> Result<f64, String> {
        let text = self.text(row, col)?;
        text.parse().map_err(|_| {
            format!(
                "{}: row {row} column {col:?} is not a number: {text:?}",
                self.origin
            )
        })
    }

    /// The first row whose `col` reads `value`.
    pub fn find(&self, col: &str, value: &str) -> Result<usize, String> {
        let c = self.col(col)?;
        self.rows
            .iter()
            .position(|r| r.get(c).map(String::as_str) == Some(value))
            .ok_or_else(|| format!("{}: no row with {col} = {value:?}", self.origin))
    }
}

/// The table of one experiment's `.rows.json`: figures carry rendered
/// `tables`, the numbered tables carry `rows` of named numbers.
pub fn table_from_rows_json(text: &str, origin: &str) -> Result<Table, String> {
    let doc = parse(text, origin)?;
    if let Some(tables) = doc.get("tables") {
        let table = tables
            .as_array()
            .and_then(<[Value]>::first)
            .ok_or_else(|| format!("{origin}: field \"tables\" holds no table"))?;
        let cells = |v: &Value| {
            v.as_array()?
                .iter()
                .map(|c| c.as_str().map(str::to_string))
                .collect::<Option<Vec<String>>>()
        };
        let headers = cells(field(table, "headers", origin)?)
            .ok_or_else(|| format!("{origin}: headers are not strings"))?;
        let rows = array(table, "rows", origin)?
            .iter()
            .map(|r| cells(r).ok_or_else(|| format!("{origin}: a row is not an array of strings")))
            .collect::<Result<_, String>>()?;
        return Ok(Table {
            origin: origin.to_string(),
            headers: headers.iter().map(|h| normalise(h)).collect(),
            rows,
        });
    }
    let rows = array(&doc, "rows", origin)?;
    let first = rows
        .first()
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{origin}: field \"rows\" holds no object"))?;
    let headers: Vec<String> = first.iter().map(|(k, _)| normalise(k)).collect();
    let rows = rows
        .iter()
        .map(|row| {
            let fields = row
                .as_object()
                .ok_or_else(|| format!("{origin}: a row is not an object"))?;
            Ok(fields
                .iter()
                .map(|(_, v)| match v {
                    Value::Str(s) => s.clone(),
                    Value::Num(x) => x.to_string(),
                    other => format!("{other:?}"),
                })
                .collect())
        })
        .collect::<Result<_, String>>()?;
    Ok(Table {
        origin: origin.to_string(),
        headers,
        rows,
    })
}

/// The pipe tables `repro` prints, in print order: a `## title` line, a
/// header row, a separator row, then data rows up to the next blank line.
pub fn tables_from_stdout(text: &str, origin: &str) -> Vec<Table> {
    let split = |line: &str| -> Vec<String> {
        line.trim()
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    let mut tables = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(title) = line.strip_prefix("## ") else {
            continue;
        };
        let Some(header) = lines.next().filter(|l| l.starts_with('|')) else {
            continue;
        };
        lines.next(); // the |---|---| separator
        let mut rows = Vec::new();
        while let Some(row) = lines.next_if(|l| l.starts_with('|')) {
            rows.push(split(row));
        }
        tables.push(Table {
            origin: format!("{origin}: table {title:?}"),
            headers: split(header).iter().map(|h| normalise(h)).collect(),
            rows,
        });
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMINGS: &str = r#"{
      "threads": 1, "total_seconds": 1.5,
      "experiments": [
        {"name": "table1", "seconds": 0.5, "allocations": 10, "rss_delta_kb": 1, "peak_rss_kb": 2},
        {"name": "table2", "seconds": 1.0, "allocations": 32, "rss_delta_kb": 1, "peak_rss_kb": 2}
      ],
      "phases": [
        {"name": "engine.contact_loop", "calls": 7, "seconds": 1.25}
      ]
    }"#;

    #[test]
    fn timings_phases_and_allocations() {
        let t = Timings::parse(TIMINGS, "t.json").unwrap();
        assert_eq!(
            t.phase("engine.contact_loop"),
            Some(&Phase {
                calls: 7,
                seconds: 1.25
            })
        );
        assert_eq!(t.allocations(&["table1", "table2"]), Ok(42));
    }

    #[test]
    fn a_missing_phase_is_none_and_a_missing_experiment_is_a_located_error() {
        let t = Timings::parse(TIMINGS, "t.json").unwrap();
        assert_eq!(t.phase("engine.active_apply"), None);
        let err = t.allocations(&["table1", "table9"]).unwrap_err();
        assert_eq!(err, "t.json: no row for experiment \"table9\"");
    }

    #[test]
    fn timings_without_counts_or_with_damage_are_located_errors() {
        let plain = TIMINGS.replace("\"allocations\": 10, ", "");
        let err = Timings::parse(&plain, "t.json")
            .unwrap()
            .allocations(&["table1"])
            .unwrap_err();
        assert!(err.starts_with("t.json: experiment \"table1\" has no allocations"));
        let err = Timings::parse("{\"experiments\": []}", "t.json").unwrap_err();
        assert_eq!(err, "t.json: missing field \"phases\"");
        let err = Timings::parse("{\"experiments\": [", "t.json").unwrap_err();
        assert!(err.starts_with("t.json: "), "{err}");
    }

    #[test]
    fn agg_contacts_sum_or_none() {
        let agg = r#"{"experiment":"table1","kind":"table","aggregates":[
            {"label":"k=1","aggregate":{"runs":2,"totals":{"contacts":30,"sent":30}}},
            {"label":"k=2","aggregate":{"runs":2,"totals":{"contacts":12,"sent":12}}}]}"#;
        assert_eq!(agg_contacts(agg, "a.json"), Ok(Some(42)));
        let none = r#"{"experiment":"fig-x","kind":"figure","aggregates":[]}"#;
        assert_eq!(agg_contacts(none, "a.json"), Ok(None));
        let broken = r#"{"aggregates":[{"aggregate":{}}]}"#;
        assert_eq!(
            agg_contacts(broken, "a.json").unwrap_err(),
            "a.json: missing field \"totals\""
        );
    }

    #[test]
    fn rows_json_of_both_kinds_and_stdout_agree_on_columns() {
        let numbered = r#"{"experiment":"table4","trials":2,"rows":[
            {"distribution":"uniform","t_last":5.5,"cmp_bushey":30.25},
            {"distribution":"a = 2.0","t_last":12.5,"cmp_bushey":0.9}]}"#;
        let t = table_from_rows_json(numbered, "table4.rows.json").unwrap();
        assert_eq!(t.headers, ["distribution", "t_last", "cmp_bushey"]);
        assert_eq!(
            t.num(t.find("distribution", "a = 2.0").unwrap(), "cmp_bushey"),
            Ok(0.9)
        );

        let figure = r#"{"experiment":"f","kind":"figure","tables":[{"title":"T",
            "headers":["k","ODE residue"],"rows":[["1","0.2032"],["6","9.18e-4"]]}]}"#;
        let f = table_from_rows_json(figure, "f.rows.json").unwrap();
        assert_eq!(f.headers, ["k", "ode_residue"]);
        assert_eq!(f.num(1, "ode_residue"), Ok(9.18e-4));

        let stdout = "## Table 4: x\n| distribution | t_last | cmp Bushey |\n|---|---|---|\n\
                      |      uniform |   5.48 |      29.93 |\n|      a = 2.0 |  12.50 |     0.9177 |\n\n\
                      ## Fig: y\n| k | v |\n|---|---|\n| 1 | n/a |\n";
        let s = tables_from_stdout(stdout, "out.txt");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].headers, t.headers);
        assert_eq!(s[0].num(1, "cmp_bushey"), Ok(0.9177));
        assert_eq!(s[1].text(0, "v"), Ok("n/a"));
    }

    #[test]
    fn table_lookups_fail_with_the_origin() {
        let t = Table {
            origin: "x.rows.json".to_string(),
            headers: vec!["k".to_string()],
            rows: vec![vec!["n/a".to_string()]],
        };
        assert_eq!(
            t.col("residue").unwrap_err(),
            "x.rows.json: no column \"residue\""
        );
        assert_eq!(
            t.text(3, "k").unwrap_err(),
            "x.rows.json: no row 3 in column \"k\""
        );
        assert!(t
            .num(0, "k")
            .unwrap_err()
            .contains("is not a number: \"n/a\""));
        assert!(table_from_rows_json("{}", "x")
            .unwrap_err()
            .contains("missing field \"rows\""));
    }
}
