//! Spans recorded from outside the program, and the ledger made of them.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span: name, start, end, the span that caused it, and the round it
//! belongs to. Spans stay in memory and are written out when the run
//! ends. The same [`Tracer::exit`] that closes a span returns its
//! duration, so the untraced run (tracer disabled: nothing is stored)
//! and the traced run time exactly the same calls.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The round the span was recorded in (0 is the warm-up round).
    pub round: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span, to be handed back to [`Tracer::exit`].
#[must_use = "a span that is never exited records nothing"]
pub struct Open {
    name: &'static str,
    started: Instant,
    parent: Option<usize>,
    /// Where the finished span goes, when tracing is on.
    slot: Option<usize>,
}

/// The in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    round: u32,
    spans: Vec<Span>,
    /// Innermost open span (index into `spans`).
    current: Option<usize>,
}

impl Tracer {
    /// A tracer that stores spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            round: 0,
            spans: Vec::new(),
            current: None,
        }
    }

    /// Turns storing on or off (a run stores nothing during the set-ups
    /// it throws away).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let parent = self.current;
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns(started),
                end_ns: 0,
                parent,
                round: self.round,
            });
            self.spans.len() - 1
        });
        if slot.is_some() {
            self.current = slot;
        }
        Open {
            name,
            started,
            parent,
            slot,
        }
    }

    /// Closes `open` and returns how long it was open.
    pub fn exit(&mut self, open: Open) -> Duration {
        let ended = Instant::now();
        if let Some(slot) = open.slot {
            debug_assert_eq!(self.spans[slot].name, open.name);
            self.spans[slot].end_ns = self.ns(ended);
            self.current = open.parent;
        }
        ended.duration_since(open.started)
    }

    /// Times one leaf call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Adds a span timed elsewhere (a client thread), as a child of the
    /// innermost open span. Such spans may overlap their siblings.
    pub fn record(&mut self, name: &'static str, started: Instant, ended: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(started),
                end_ns: self.ns(ended),
                parent: self.current,
                round: self.round,
            });
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every stored span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }
}

/// Most spans one probe may leave in the trace.
const MAX_PROBE_CALLS: usize = 2_000;

/// Calls `f` under a span called `name` until `each` is spent (a call
/// slower than that runs once). Returns the last call's output.
pub fn repeat<T>(
    tr: &mut Tracer,
    each: Duration,
    name: &'static str,
    mut f: impl FnMut(&mut Tracer) -> T,
) -> T {
    let started = Instant::now();
    let mut calls = 0;
    loop {
        let open = tr.enter(name);
        let out = f(tr);
        tr.exit(open);
        calls += 1;
        if calls >= MAX_PROBE_CALLS || started.elapsed() >= each {
            return out;
        }
    }
}

/// Median duration of the stored spans called `name`, in seconds.
pub fn median_s(tr: &Tracer, name: &str) -> Result<f64, String> {
    let durations = tr.durations_s(name);
    if durations.is_empty() {
        return Err(format!("no span called {name} was recorded"));
    }
    Ok(crate::stats::median(&durations))
}

/// One ledger row: every span of one name under one root, folded.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRow {
    /// The span name.
    pub name: &'static str,
    /// How many spans carry it.
    pub count: usize,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part of the span's
    /// interval that its child spans cover.
    pub self_ns: u64,
    /// The name of the root span these spans descend from.
    pub root: &'static str,
    /// `total_ns` as a share of the total duration of all `root` spans.
    pub share_of_root: f64,
}

/// The length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Folds spans into one row per root and name (the same call under
/// another root — a compress in set-up, in a cold pass, in the layer
/// pass — is another row), ordered by root, then name.
pub fn ledger(spans: &[Span]) -> Vec<LedgerRow> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let root_of = |mut i: usize| {
        while let Some(parent) = spans[i].parent {
            i = parent;
        }
        spans[i].name
    };
    let mut root_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent.is_none()) {
        *root_totals.entry(span.name).or_default() += span.duration_ns();
    }
    let mut rows: BTreeMap<(&'static str, &'static str), LedgerRow> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let covered = covered_ns(&mut children[i], span.start_ns, span.end_ns);
        let root = root_of(i);
        let row = rows.entry((root, span.name)).or_insert_with(|| LedgerRow {
            name: span.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            root,
            share_of_root: 0.0,
        });
        row.count += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += span.duration_ns() - covered;
    }
    rows.into_values()
        .map(|mut row| {
            let root_total = root_totals.get(row.root).copied().unwrap_or(0);
            row.share_of_root = row.total_ns as f64 / root_total.max(1) as f64;
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 1,
        }
    }

    fn row<'a>(rows: &'a [LedgerRow], name: &str) -> &'a LedgerRow {
        rows.iter().find(|r| r.name == name).expect("row present")
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 30, Some(1)),
            span("child", 70, 90, Some(0)),
        ];
        let rows = ledger(&spans);
        assert_eq!(row(&rows, "root").self_ns, 100 - 50 - 20);
        assert_eq!(row(&rows, "child").count, 2);
        assert_eq!(row(&rows, "child").total_ns, 70);
        assert_eq!(row(&rows, "child").self_ns, 70 - 10);
        assert_eq!(row(&rows, "grandchild").self_ns, 10);
        assert_eq!(row(&rows, "grandchild").root, "root");
        assert!((row(&rows, "child").share_of_root - 0.7).abs() < 1e-12);
        assert!((row(&rows, "root").share_of_root - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_name_under_two_roots_is_two_rows() {
        let spans = vec![
            span("setup", 0, 100, None),
            span("compress", 10, 30, Some(0)),
            span("cold_pass", 100, 200, None),
            span("compress", 110, 160, Some(2)),
        ];
        let rows = ledger(&spans);
        let shares: Vec<_> = rows
            .iter()
            .filter(|r| r.name == "compress")
            .map(|r| (r.root, r.share_of_root))
            .collect();
        assert_eq!(shares, [("cold_pass", 0.5), ("setup", 0.2)]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two client threads under one block: [10, 60] and [40, 90]
        // cover [10, 90] = 80, not 100; a third sticks out past the end.
        let spans = vec![
            span("block", 0, 100, None),
            span("client", 10, 60, Some(0)),
            span("client", 40, 90, Some(0)),
            span("client", 95, 120, Some(0)),
        ];
        let rows = ledger(&spans);
        assert_eq!(row(&rows, "block").self_ns, 100 - 80 - 5);
        assert_eq!(row(&rows, "client").total_ns, 50 + 50 + 25);
    }

    #[test]
    fn a_disabled_tracer_times_but_stores_nothing() {
        let mut tr = Tracer::new(false);
        let outer = tr.enter("outer");
        let ((), inner) = tr.time("inner", || std::thread::sleep(Duration::from_millis(2)));
        let outer = tr.exit(outer);
        assert!(inner >= Duration::from_millis(2) && outer >= inner);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_records_the_call_tree() {
        let mut tr = Tracer::new(true);
        tr.set_round(3);
        let outer = tr.enter("outer");
        tr.time("inner", || ());
        let (started, ended) = (Instant::now(), Instant::now());
        tr.record("remote", started, ended);
        tr.exit(outer);
        tr.time("sibling", || ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.round == 3 && s.end_ns >= s.start_ns));
        assert_eq!(tr.durations_s("inner").len(), 1);
    }
}
