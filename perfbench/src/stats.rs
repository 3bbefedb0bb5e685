//! Summary statistics, the in-memory span recorder, and JSON text helpers.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(v, n=4)`; a single value is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta.clamp(0.0, 1.0)
            };
            (q(1), q(2), q(3))
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One timed interval around a call into a layer. `parent` indexes the
/// span that caused it (`u32::MAX` for a root); spans of one op share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory for the whole run.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span for op `op`; returns its index.
    pub fn open(&mut self, name: &'static str, op: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: u32::MAX,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, idx: u32) {
        let now = self.now();
        self.spans[idx as usize].end_ns = now;
    }

    /// Records a child of `parent` that just ended after `dur_ns`.
    pub fn close_at(&mut self, name: &'static str, parent: u32, dur_ns: u64) {
        let end_ns = self.now();
        let op = self.spans.get(parent as usize).map_or(u32::MAX, |p| p.op);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
        });
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit of `v`; non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns an empty sum's -0 into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4)[1] == 1.5
        assert_eq!(quartiles(&[1.0, 2.0]).1, 1.5);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
