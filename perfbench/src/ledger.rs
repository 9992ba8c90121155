//! What a run reports: operation accounting, correctness checks, metric
//! samples, and the benchmark's own spans for traced runs.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

use crate::host;
use crate::stats::median;

/// Attempted and failed operations by kind, reply codes, checks and the
/// metrics a run prints.
#[derive(Default)]
pub struct Ledger {
    ops: BTreeMap<&'static str, (u64, u64)>,
    replies: BTreeMap<String, u64>,
    checks: Vec<(String, bool, String)>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    details: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Ledger {
    /// Counts one operation of `kind`; an `Err` counts as failed and is
    /// reported on stderr.
    pub fn op<T, E: Display>(&mut self, kind: &'static str, r: Result<T, E>) -> Option<T> {
        let e = self.ops.entry(kind).or_default();
        e.0 += 1;
        match r {
            Ok(v) => Some(v),
            Err(err) => {
                e.1 += 1;
                eprintln!("[perfbench] {kind} failed: {err}");
                None
            }
        }
    }

    /// Counts one reply by its code (`logits`, or an error code name).
    pub fn reply(&mut self, code: &str) {
        *self.replies.entry(code.to_string()).or_default() += 1;
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        if !ok {
            eprintln!("[perfbench] check FAILED: {name}: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    /// A metric of the result object. Every workload reports the same
    /// names (see [`crate::END_TO_END`] and [`crate::PER_LAYER`]).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A figure only this workload has, printed on the `detail` line
    /// before the result rather than in it.
    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push((name, value, unit));
    }

    pub fn metric_names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.0).collect()
    }

    /// A free-form JSON object line printed before the result.
    pub fn note(&mut self, json_object: String) {
        self.notes.push(json_object);
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|v| v.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|v| v.1).sum()
    }

    /// True when every check passed, at least one ran, and every metric and
    /// detail is a finite number.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty()
            && self.checks.iter().all(|c| c.1)
            && self
                .metrics
                .iter()
                .chain(&self.details)
                .all(|m| m.1.is_finite())
    }

    /// The lines a run prints: notes, details, accounting, checks, then the
    /// result object as the last line.
    pub fn render(&self) -> Vec<String> {
        let mut out = self.notes.clone();
        if !self.details.is_empty() {
            out.push(format!(
                "{{\"detail\":{{{}}}}}",
                metrics_json(&self.details)
            ));
        }
        let ops = self
            .ops
            .iter()
            .map(|(k, (a, f))| format!("{}:{{\"attempted\":{a},\"failed\":{f}}}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",");
        let replies = self
            .replies
            .iter()
            .map(|(k, n)| format!("{}:{n}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",");
        out.push(format!(
            "{{\"operations\":{{{ops}}},\"replies\":{{{replies}}}}}"
        ));
        let checks = self
            .checks
            .iter()
            .map(|(n, ok, d)| {
                format!(
                    "{{\"name\":{},\"ok\":{ok},\"detail\":{}}}",
                    json_str(n),
                    json_str(d)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        out.push(format!("{{\"checks\":[{checks}]}}"));
        let metrics = metrics_json(&self.metrics);
        out.push(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted(),
            self.failed()
        ));
        out
    }
}

/// `"name":{"value":v,"unit":u}` pairs, comma-separated.
fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> String {
    metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// One repeat of a phase: its metric values, pooled samples such as query
/// latencies, and the machine's CPU steal during it, as a share of the CPU
/// time the host had.
#[derive(Default)]
pub struct Round {
    steal_share: f64,
    values: BTreeMap<&'static str, f64>,
    pub pooled: Vec<f64>,
}

impl Round {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }
}

/// The repeats of a phase. Each metric is reported as the median over the
/// calmer half of them: the repeats whose steal share is at most the
/// median share. Steal is other guests' use of this host's CPUs; it is
/// measured, not inferred from the timings.
#[derive(Default)]
pub struct Samples {
    rounds: Vec<Round>,
}

/// Median of the values whose steal share is at most the median share.
pub fn calm_median(pairs: &[(f64, f64)]) -> f64 {
    let cut = median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    median(
        &pairs
            .iter()
            .filter(|p| p.0 <= cut)
            .map(|p| p.1)
            .collect::<Vec<_>>(),
    )
}

impl Samples {
    /// Runs `f` as one repeat, recording the steal around it.
    pub fn run<T>(&mut self, f: impl FnOnce(&mut Round) -> T) -> T {
        let mut r = Round::default();
        let steal0 = host::steal_s();
        let (out, wall) = timed(|| f(&mut r));
        r.steal_share = (host::steal_s() - steal0) / (host::nproc() as f64 * wall);
        self.rounds.push(r);
        out
    }

    fn cut(&self) -> f64 {
        median(
            &self
                .rounds
                .iter()
                .map(|r| r.steal_share)
                .collect::<Vec<_>>(),
        )
    }

    pub fn median(&self, name: &str) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .rounds
            .iter()
            .filter_map(|r| r.values.get(name).map(|&v| (r.steal_share, v)))
            .collect();
        calm_median(&pairs)
    }

    /// The pooled samples of the calmer half.
    pub fn pooled(&self) -> Vec<f64> {
        let cut = self.cut();
        self.rounds
            .iter()
            .filter(|r| r.steal_share <= cut)
            .flat_map(|r| r.pooled.iter().copied())
            .collect()
    }

    /// A note line: repeats run, repeats counted, and each one's steal.
    pub fn note(&self, phase: &str) -> String {
        let cut = self.cut();
        let shares: Vec<String> = self
            .rounds
            .iter()
            .map(|r| format!("{:.2}", 100.0 * r.steal_share))
            .collect();
        format!(
            "{{\"{phase}\":{{\"repeats\":{},\"counted\":{},\"steal_pct\":[{}]}}}}",
            self.rounds.len(),
            self.rounds.iter().filter(|r| r.steal_share <= cut).count(),
            shares.join(",")
        )
    }
}

/// Runs whole rounds into `samples`, at least `min_rounds`, and after
/// those only while another round as long as the longest so far still
/// ends within `seconds`. Returns the number of rounds run.
pub fn rounds(
    seconds: f64,
    min_rounds: usize,
    samples: &mut Samples,
    mut round: impl FnMut(&mut Round),
) -> usize {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut n = 0;
    while n < min_rounds || start.elapsed().as_secs_f64() + longest <= seconds {
        let (_, s) = timed(|| samples.run(&mut round));
        longest = longest.max(s);
        n += 1;
    }
    n
}

/// Times `f`, returning its output and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The benchmark's own spans around calls into the program's layers.
/// Spans are flat (never nested), so their sum is the attributed time.
pub struct Spans {
    start: Instant,
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            totals: BTreeMap::new(),
        }
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, s) = timed(f);
        *self.totals.entry(name).or_default() += s;
        out
    }

    /// Total seconds inside span `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Seconds since the spans started.
    pub fn wall(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Share of the wall, in percent, outside every span.
    pub fn unattributed_pct(&self) -> f64 {
        let wall = self.wall();
        let covered: f64 = self.totals.values().sum();
        100.0 * (wall - covered) / wall
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in full precision; `null` otherwise (which fails the
/// run's correctness, see [`Ledger::correct`]).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut l = Ledger::default();
        l.op::<(), String>("train", Ok(()));
        l.op::<(), String>("query", Err("boom".into()));
        l.check("c", true, "fine");
        l.metric("x_ms", 1.5, "ms");
        l.detail("y_ms", 2.5, "ms");
        let mut lines = l.render();
        let last = lines.pop().unwrap();
        assert!(lines
            .iter()
            .any(|x| x == r#"{"detail":{"y_ms":{"value":2.5,"unit":"ms"}}}"#));
        assert!(!last.contains("y_ms"), "details stay out of the result");
        let v = sgnn_obs::json::parse(&last).unwrap();
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(1));
        assert!(last.starts_with("{\"correct\":true,"), "{last}");
        let m = v.get("metrics").and_then(|m| m.get("x_ms")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.5));
    }

    #[test]
    fn a_failed_check_or_nan_metric_makes_the_run_incorrect() {
        let mut l = Ledger::default();
        assert!(!l.correct(), "no check ran");
        l.check("a", true, "");
        l.metric("m", f64::NAN, "s");
        assert!(!l.correct());
        let mut l = Ledger::default();
        l.check("a", false, "bad");
        assert!(!l.correct());
    }

    #[test]
    fn rounds_respect_the_minimum_and_the_clock() {
        let mut s = Samples::default();
        let mut seen = 0;
        assert_eq!(
            rounds(0.0, 3, &mut s, |r| {
                seen += 1;
                r.push("x", seen as f64);
            }),
            3
        );
        assert_eq!(s.rounds.len(), 3);
        // Sleeps only ever overrun: after two 20 ms rounds, a third would
        // end past 50 ms, so the clock stops the loop at one or two.
        let n = rounds(0.05, 1, &mut Samples::default(), |_| {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        assert!((1..=2).contains(&n), "{n}");
    }

    #[test]
    fn calm_median_keeps_the_less_stolen_half() {
        // (steal share, value): the two most stolen repeats are the slow ones.
        let pairs = [
            (0.30, 9.0),
            (0.01, 5.0),
            (0.02, 5.2),
            (0.25, 8.0),
            (0.00, 5.1),
        ];
        assert_eq!(calm_median(&pairs), 5.1);
        // Equal steal keeps every repeat.
        assert_eq!(calm_median(&[(0.0, 1.0), (0.0, 2.0), (0.0, 6.0)]), 2.0);
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.rounds.push(Round {
                steal_share: 0.0,
                values: BTreeMap::from([("v", v)]),
                pooled: vec![v, v],
            });
        }
        assert_eq!(s.median("v"), 2.0);
        assert_eq!(s.pooled().len(), 6);
        assert!(s.median("absent").is_nan());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
