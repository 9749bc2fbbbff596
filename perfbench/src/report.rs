//! The run's result: metrics with their spread, the environment, the
//! correctness checks, and the two output lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Summary;

/// End-to-end metrics, printed with tracing off. Every workload reports
/// every one of them; `README.md` defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("batch_s", "s"),
    ("job_geomean_ms", "ms"),
    ("query_ms_p50", "ms"),
    ("qps", "1/s"),
];

/// Per-layer metrics, printed by the traced run. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pexp.parse_us", "us"),
    ("fst.compile_us", "us"),
    ("fst.states", "count"),
    ("fst.transitions", "count"),
    ("miner.run_ms", "ms"),
    ("miner.tables_ms", "ms"),
    ("miner.serial_ms", "ms"),
    ("miner.busy_share", "ratio"),
    ("miner.tasks", "count"),
    ("miner.steals", "count"),
    ("miner.useful_ratio", "ratio"),
    ("miner.lean_jobs", "count"),
    ("miner.auto_regret_max", "ratio"),
    ("miner.auto_regret_geomean", "ratio"),
    ("miner.auto_misroutes", "count"),
    ("dist.map_ms", "ms"),
    ("dist.reduce_ms", "ms"),
    ("dist.other_ms", "ms"),
    ("dist.pivots_us_per_seq", "us"),
    ("bsp.shuffle_records", "count"),
    ("bsp.shuffle_payloads", "count"),
    ("bsp.payload_share", "ratio"),
    ("bsp.reducer_skew", "ratio"),
    ("bsp.straggler_ms", "ms"),
    ("shuffle_mb", "MiB"),
    ("serve.connect_ms", "ms"),
    ("serve.first_frame_ms", "ms"),
    ("serve.last_frame_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.compile_ms", "ms"),
    ("serve.mine_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.busy", "count"),
    ("serve.bytes_per_query", "bytes"),
    ("serve.timeouts", "count"),
    ("serve.panics", "count"),
    ("serve.cancels", "count"),
    ("serve.admission_cap", "count"),
    ("query_ms_p99", "ms"),
    ("cold_query_ms_p50", "ms"),
    ("datagen.nyt_s", "s"),
    ("datagen.amzn_s", "s"),
    ("self_ms.job", "ms"),
    ("self_ms.query", "ms"),
    ("self_ms.core.pexp", "ms"),
    ("self_ms.core.fst", "ms"),
    ("self_ms.session", "ms"),
    ("self_ms.miner", "ms"),
    ("self_ms.dist", "ms"),
    ("self_ms.serve.connect", "ms"),
    ("self_ms.serve.first_frame", "ms"),
    ("self_ms.serve.last_frame", "ms"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

pub struct Report {
    workload: String,
    trace: bool,
    env: Vec<(&'static str, String)>,
    metrics: Vec<(&'static str, Summary)>,
    /// Operations started in the timed phases.
    pub attempted: u64,
    /// Errors, refusals and wrong results among them.
    pub failed: u64,
    /// Descriptions of failed correctness checks.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            trace,
            env: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
        }
    }

    pub fn env(&mut self, key: &'static str, value: impl ToString) {
        self.env.push((key, value.to_string()));
    }

    pub fn set(&mut self, name: &'static str, summary: Summary) {
        unit_of(name);
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, summary));
    }

    /// Sets `name` to the median of `values` (no-op on an empty sample,
    /// which leaves the metric unset).
    pub fn samples(&mut self, name: &'static str, values: &[f64]) {
        if let Some(s) = Summary::of(values) {
            self.set(name, s);
        }
    }

    pub fn scalar(&mut self, name: &'static str, value: f64, reps: usize) {
        self.set(name, Summary::scalar(value, reps));
    }

    /// Sets `self_ms.<span>` to the self time per operation of each span
    /// name that has a declared metric.
    pub fn self_times(&mut self, self_ns: BTreeMap<&'static str, u64>, ops: usize) {
        for (span, ns) in self_ns {
            let metric = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("self_ms.") == Some(span));
            if let Some(&(metric, _)) = metric {
                self.scalar(metric, ns as f64 / 1e6 / ops.max(1) as f64, ops);
            }
        }
    }

    /// Records a wrong result (it also counts as a failed operation).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, s)| s)
    }

    /// The detailed line: environment, checks, and every metric with its
    /// unit, median, quartiles and rep count.
    pub fn detail_line(&self) -> String {
        let mut out = String::from("{\"workload\":");
        push_str(&mut out, &self.workload);
        out.push_str(",\"env\":{");
        for (i, (k, v)) in self.env.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str(&mut out, k);
            out.push(':');
            push_str(&mut out, v);
        }
        let _ = write!(
            out,
            "}},\"attempted\":{},\"failed\":{},\"mismatches\":[",
            self.attempted, self.failed
        );
        for (i, m) in self.mismatches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str(&mut out, m);
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, s)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"unit\":\"{}\",\"median\":{},\"p25\":{},\"p75\":{},\"reps\":{}}}",
                unit_of(name),
                num(s.median),
                num(s.p25),
                num(s.p75),
                s.reps
            );
        }
        out.push_str("}}");
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the declared
    /// metrics of this mode (end-to-end untraced, per-layer traced).
    /// Per-layer metrics the workload does not exercise read 0; a
    /// missing end-to-end metric is a bug in the benchmark.
    pub fn result_line(&self) -> String {
        let declared = if self.trace { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in declared.iter().enumerate() {
            let value = match self.get(name) {
                Some(s) => s.median,
                None if self.trace => 0.0,
                None => panic!(
                    "{}: end-to-end metric {name} was not measured",
                    self.workload
                ),
            };
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn push_str(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let sec = section(key);
            assert_eq!(sec.matches("\"name\"").count(), list.len(), "{key} count");
            for (name, unit) in list {
                let at = sec
                    .find(&format!("\"name\": \"{name}\""))
                    .unwrap_or_else(|| panic!("{key} lacks {name}"));
                let entry = &sec[at..at + sec[at..].find('}').unwrap()];
                assert!(
                    entry.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} unit"
                );
            }
        }
    }

    #[test]
    fn result_line_lists_declared_metrics_only() {
        let mut r = Report::new("w", false);
        for (name, _) in END_TO_END {
            r.scalar(name, 2.0, 1);
        }
        r.scalar("fst.states", 5.0, 1);
        r.attempted = 3;
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"qps\":{\"value\":2.0,\"unit\":\"1/s\"}"));
        assert!(!line.contains("fst.states"));
        r.mismatch("N1: digest differs".into());
        assert!(r
            .result_line()
            .starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));

        let mut traced = Report::new("w", true);
        traced.scalar("fst.states", 5.0, 1);
        let line = traced.result_line();
        assert!(line.contains("\"fst.states\":{\"value\":5.0,\"unit\":\"count\"}"));
        assert!(line.contains("\"serve.busy\":{\"value\":0.0,\"unit\":\"count\"}"));
    }
}
