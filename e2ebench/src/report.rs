//! Metric names, failure accounting, order statistics, and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

use hfs_harness::JobOutcome;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// The figures whose experiments simulate (and so have a host cost per
/// simulated cycle); `table1`, `table2` and `fig3` only render.
pub const SIM_FIGURES: &[&str] = &[
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "scaling",
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// metric whose layer a workload never touches reads 0 on it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("core.machine.run_ns_per_cycle.existing", "ns/cycle"),
    ("core.machine.run_ns_per_cycle.memopti", "ns/cycle"),
    ("core.machine.run_ns_per_cycle.syncopti", "ns/cycle"),
    ("core.machine.run_ns_per_cycle.heavywt", "ns/cycle"),
    ("core.machine.run_ns_per_cycle.single", "ns/cycle"),
    ("core.machine.run_ns_per_cycle.multi", "ns/cycle"),
    ("core.machine.new_us", "us"),
    ("harness.job.key_us", "us"),
    ("harness.ser.encode_us", "us"),
    ("harness.ser.decode_us", "us"),
    ("harness.cache.store_us", "us"),
    ("harness.cache.load_disk_us", "us"),
    ("harness.hotcache.get_us", "us"),
    ("harness.engine.busy_frac", "ratio"),
    ("harness.engine.queue_wait_p50_ms", "ms"),
    ("harness.engine.queue_wait_p99_ms", "ms"),
    ("harness.engine.exec_wall_p50_ms", "ms"),
    ("harness.engine.exec_wall_p99_ms", "ms"),
    ("harness.engine.ns_per_cycle.fig6", "ns/cycle"),
    ("harness.engine.ns_per_cycle.fig7", "ns/cycle"),
    ("harness.engine.ns_per_cycle.fig8", "ns/cycle"),
    ("harness.engine.ns_per_cycle.fig9", "ns/cycle"),
    ("harness.engine.ns_per_cycle.fig10", "ns/cycle"),
    ("harness.engine.ns_per_cycle.fig11", "ns/cycle"),
    ("harness.engine.ns_per_cycle.fig12", "ns/cycle"),
    ("harness.engine.ns_per_cycle.ablation", "ns/cycle"),
    ("harness.engine.ns_per_cycle.scaling", "ns/cycle"),
    ("bench.figure_s.table1", "s"),
    ("bench.figure_s.table2", "s"),
    ("bench.figure_s.fig3", "s"),
    ("bench.figure_s.fig6", "s"),
    ("bench.figure_s.fig7", "s"),
    ("bench.figure_s.fig8", "s"),
    ("bench.figure_s.fig9", "s"),
    ("bench.figure_s.fig10", "s"),
    ("bench.figure_s.fig11", "s"),
    ("bench.figure_s.fig12", "s"),
    ("bench.figure_s.ablation", "s"),
    ("bench.figure_s.scaling", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.exec_wall_p50_ms", "ms"),
    ("serve.exec_wall_p99_ms", "ms"),
    ("serve.hot_hit_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.executed", "count"),
    ("serve.executed_over_new", "ratio"),
    ("serve.client.submit_ms", "ms"),
    ("serve.client.first_result_ms", "ms"),
    ("sim.cycles", "count"),
    ("cpu.instrs", "count"),
    ("cpu.comm_instrs", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.bus_transactions", "count"),
    ("mem.dram_accesses", "count"),
    ("bench.req_samples", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.traced.req_p50_ms", "ms"),
    ("bench.path.job_us", "us"),
    ("bench.path.layers_us", "us"),
    ("bench.path.self_us", "us"),
];

/// Whether `name` is a valid metric name: it starts with a letter or
/// digit and uses only letters, digits, `_`, `.` and `-`, at most 64 of
/// them.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Jobs attempted and failed over a run, plus what went wrong.
///
/// A job fails when it resolves to anything but `ok`, when the request
/// carrying it fails on the client, or when an output check on it does
/// not pass. Any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Failures counted against them.
    pub failed: u64,
    /// One line per failure, for the report on stderr.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one resolved job.
    pub fn job(&mut self, label: &str, outcome: &JobOutcome) {
        self.attempted += 1;
        if !outcome.is_ok() {
            self.fail(format!("{label}: {outcome}"));
        }
    }

    /// Counts `jobs` attempted jobs lost to a client-side error.
    pub fn lost(&mut self, jobs: u64, why: String) {
        self.attempted += jobs;
        self.failed += jobs;
        self.problems.push(why);
    }

    /// Counts one failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records a check: a `false` result counts as one failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Adds another tally's counts and problems.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// The share of attempted jobs that failed.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            return if self.failed == 0 { 0.0 } else { 1.0 };
        }
        self.failed.min(self.attempted) as f64 / self.attempted as f64
    }

    /// Whether the run is correct: something was attempted and nothing
    /// failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Named metric values, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The `p`-quantile (`0.0..=1.0`) of `samples` by nearest rank; 0 for
/// no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MB, from `VmHWM`.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The last line of the run: correctness, counts, and every metric of
/// `declared` with its unit. A declared metric the run did not set, or
/// one with an invalid name, is a benchmark bug and fails the run.
pub fn result_line(tally: &mut Tally, metrics: &Metrics, declared: &[(&str, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        if !valid_metric_name(name) {
            tally.fail(format!("invalid metric name {name}"));
        }
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => v,
            other => {
                tally.fail(format!("metric {name} not measured ({other:?})"));
                0.0
            }
        };
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_harness::Json;

    #[test]
    fn every_metric_name_uses_the_allowed_characters() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "bad metric name {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("rate{quantile}"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    /// The declared lists are the ones `BENCHMARK.json` names, with the
    /// same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = hfs_harness::parse(&text).expect("BENCHMARK.json parses");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let want: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_fails_on_a_missing_metric() {
        let mut tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let mut m = Metrics::default();
        m.set("a", 1.5);
        let line = result_line(&mut tally, &m, &[("a", "s"), ("b", "s")]);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
        assert!(hfs_harness::parse(&line).is_ok(), "{line}");
    }
}
