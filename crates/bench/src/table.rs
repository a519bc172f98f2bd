//! Aligned text tables + CSV emission for the experiment harness.

use std::io::Write;
use std::path::Path;

/// One experiment output table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "E5".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (expectations, caveats).
    pub notes: Vec<String>,
    /// Checked claims printed under the notes: `(passed, claim)`.
    pub checks: Vec<(bool, String)>,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Record a claim the experiment enforces: it renders as a `PASS:` or
    /// `FAIL:` line under the table, and a failed one is listed by
    /// [`Table::failures`] (the `experiments` binary exits 1 on any).
    pub fn check(&mut self, pass: bool, claim: impl Into<String>) {
        self.checks.push((pass, claim.into()));
    }

    /// The claims whose check failed, each prefixed with the table id.
    pub fn failures(&self) -> impl Iterator<Item = String> + '_ {
        self.checks
            .iter()
            .filter(|(pass, _)| !pass)
            .map(|(_, claim)| format!("{}: {claim}", self.id))
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        for (pass, claim) in &self.checks {
            let verdict = if *pass { "PASS" } else { "FAIL" };
            out.push_str(&format!("  {verdict}: {claim}\n"));
        }
        out
    }

    /// Write the table as CSV to `dir/<id>_<slug>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{}_{}.csv", self.id.to_lowercase(), slug));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", escape_row(&self.headers))?;
        for row in &self.rows {
            writeln!(f, "{}", escape_row(row))?;
        }
        Ok(path)
    }
}

fn escape_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("E0", "demo", &["a", "long_header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["10".into(), "20,5".into(), "30".into()]);
        t.note("hello");
        t
    }

    #[test]
    fn render_is_aligned() {
        let r = sample().render();
        assert!(r.contains("E0: demo"));
        assert!(r.contains("long_header"));
        assert!(r.contains("note: hello"));
        // All data lines should have equal visible width for the first col.
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    fn failed_checks_are_reported_and_rendered() {
        let mut passing = sample();
        passing.check(true, "a >= 1");
        assert_eq!(passing.failures().count(), 0);

        let mut failing = sample();
        failing.check(true, "a >= 1");
        failing.check(false, "c < 3");
        assert_eq!(failing.failures().collect::<Vec<_>>(), ["E0: c < 3"]);
        let r = failing.render();
        assert!(r.contains("  PASS: a >= 1\n"), "{r}");
        assert!(r.contains("  FAIL: c < 3\n"), "{r}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("E0", "demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let dir = std::env::temp_dir().join("gt_bench_table_test");
        let path = sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"20,5\""));
        assert!(content.starts_with("a,long_header,c"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
