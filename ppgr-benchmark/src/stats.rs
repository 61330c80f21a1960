//! Order statistics, in-memory spans and the small amount of JSON the
//! benchmark writes.

use std::fmt::Write as _;
use std::time::Instant;

/// The nearest-rank `p`-th percentile of `values` (`0 < p ≤ 100`).
///
/// Returns `None` for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank_index(sorted.len(), p)])
}

/// 0-based index of the nearest-rank `p`-th percentile among `n` samples.
fn rank_index(n: usize, p: u32) -> usize {
    let rank = (u64::from(p) * n as u64).div_ceil(100).max(1);
    (rank as usize - 1).min(n - 1)
}

/// The median (nearest-rank 50th percentile); `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50).unwrap_or(0.0)
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile in steps of five (50 … 95) that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond it. Falls back to
/// the median when there are too few samples for any tail.
pub fn tail_percentile(n: usize) -> u32 {
    (10..=19)
        .rev()
        .map(|step| step * 5)
        .find(|&p| n > 0 && n - (rank_index(n, p) + 1) >= TAIL_MIN_BEYOND)
        .unwrap_or(50)
}

/// One timed interval. Spans of one session share `session`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in its [`Trace`].
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The session the span belongs to, if any.
    pub session: Option<u64>,
    /// `workload`, `session`, `step:<phase>`, `probe:<kernel>`, …
    pub name: String,
    /// Start, in ns since the trace origin.
    pub start_ns: u64,
    /// End, in ns since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory for the whole run and written out at exit.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        session: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            session,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Trace::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        self.push(name, parent, None, start, start)
    }

    /// Sets the end of a span opened with [`Trace::open`].
    pub fn close(&mut self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id].end_ns = end_ns;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: usize) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// Serializes the trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [",
            json_str(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {}, \"parent\": {}, \"session\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                opt(s.parent.map(|p| p as u64)),
                opt(s.session),
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children (concurrent work) count once.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut reach = span.start_ns;
    for (s, e) in covered {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    span.duration_ns().saturating_sub(total)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The unsigned integer that follows `"key":` in a flat JSON object line.
pub fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let rest = json_field_rest(line, key)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Whether `"key":` is followed by `true` in a flat JSON object line.
pub fn json_true_field(line: &str, key: &str) -> bool {
    json_field_rest(line, key).is_some_and(|rest| rest.starts_with("true"))
}

fn json_field_rest<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))?;
    Some(line[at + key.len() + 3..].trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // The step-5 percentile for each sample count the workloads use.
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(60), 80);
        assert_eq!(tail_percentile(80), 85);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(300), 95);
        assert_eq!(tail_percentile(1000), 95);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(0), 50);
        assert_eq!(tail_percentile(12), 50);
        for n in 20..500 {
            let p = tail_percentile(n);
            let beyond = n - (rank_index(n, p) + 1);
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p} beyond={beyond}");
            if p < 95 {
                let next = n - (rank_index(n, p + 5) + 1);
                assert!(next < TAIL_MIN_BEYOND, "n={n}: p{} also qualifies", p + 5);
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 95), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    fn span(id: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent: None,
            session: None,
            name: "s".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = span(0, 100, 200);
        // [110,150) and [140,170) overlap: together they cover 60 ns.
        // [190,230) sticks out past the parent: only 10 ns count.
        // [50,60) lies wholly outside the parent.
        let kids = [
            span(1, 110, 150),
            span(2, 140, 170),
            span(3, 190, 230),
            span(4, 50, 60),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        assert_eq!(self_time_ns(&parent, &refs), 100 - 60 - 10);
        // A child nested inside another adds nothing.
        let nested = [span(1, 110, 190), span(2, 120, 130)];
        let refs: Vec<&Span> = nested.iter().collect();
        assert_eq!(self_time_ns(&parent, &refs), 20);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn trace_json_has_every_span_field() {
        let origin = Instant::now();
        let mut t = Trace::new(origin);
        let root = t.open("workload", None, origin);
        t.push("step:hop", Some(root), Some(7), origin, origin);
        t.close(root, Instant::now());
        let json = t.to_json("solo-ecc160", 3);
        assert!(json.starts_with("{\"workload\": \"solo-ecc160\", \"seed\": 3"));
        assert!(json.contains("\"parent\": null, \"session\": null, \"name\": \"workload\""));
        assert!(json.contains("\"parent\": 0, \"session\": 7, \"name\": \"step:hop\""));
        assert_eq!(t.children(root).len(), 1);
    }

    #[test]
    fn flat_json_fields() {
        let line = "{\"correct\": true, \"attempted\": 42, \"failed\": 0, \"metrics\": {}}";
        assert_eq!(json_u64_field(line, "attempted"), Some(42));
        assert_eq!(json_u64_field(line, "failed"), Some(0));
        assert!(json_true_field(line, "correct"));
        assert_eq!(json_u64_field(line, "missing"), None);
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
