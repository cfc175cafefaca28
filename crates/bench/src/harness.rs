//! Timing and reporting helpers for the experiment binaries.

use std::time::{Duration, Instant};

/// Runs `f` once, returning its value and wall-clock time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with three decimals, or `-` for absent measurements.
pub fn fmt_ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.3}", d.as_secs_f64() * 1e3),
        None => "-".to_string(),
    }
}

/// A simple markdown table accumulator.
#[derive(Clone, Debug)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// The accumulated rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the report as a markdown table. A `|` inside a header or
    /// a cell (`|P|_M`) is escaped as `\|`, so it does not split the cell.
    pub fn to_markdown(&self) -> String {
        let line = |cells: &[String]| {
            let cells: Vec<String> = cells.iter().map(|c| c.replace('|', "\\|")).collect();
            format!("| {} |\n", cells.join(" | "))
        };
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&line(&self.headers));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }

    /// Prints the markdown to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures() {
        let (v, d) = time(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn report_renders_markdown() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        let md = r.to_markdown();
        assert!(md.contains("### t"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    /// Cells of a markdown row: the unescaped `|`s between them, less the
    /// two that open and close the row.
    fn cell_count(line: &str) -> usize {
        line.replace("\\|", "").matches('|').count() - 1
    }

    #[test]
    fn a_pipe_in_a_header_or_cell_stays_in_its_cell() {
        let mut r = Report::new("sizes", &["tuples", "|P|_M", "full |P↓S|_M"]);
        r.row(vec!["10".into(), "|x|".into(), "3".into()]);
        let md = r.to_markdown();
        let lines: Vec<&str> = md.lines().skip(2).collect();
        assert_eq!(lines[0], "| tuples | \\|P\\|_M | full \\|P↓S\\|_M |");
        assert_eq!(lines[1], "|---|---|---|");
        for line in &lines {
            assert_eq!(cell_count(line), 3, "{line}");
        }
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn report_checks_arity() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn fmt_ms_formats() {
        assert_eq!(fmt_ms(None), "-");
        assert_eq!(fmt_ms(Some(Duration::from_millis(1500))), "1500.000");
    }
}
