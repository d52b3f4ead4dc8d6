//! `figures-cold`: the paper's full figure and table suite, as
//! `all_figures` runs it, on a fresh cache directory every pass.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use hfs_bench::experiments as ex;
use hfs_bench::runner::{design_job, engine, multi_job, single_job};
use hfs_harness::{outcome_from_json, parse, EngineStats, Job, JobOutcome, Json};
use hfs_workloads::{all_benchmarks, benchmark};

use crate::fingerprint::{Counts, Fingerprint};
use crate::report::{median, quantile, Metrics, Tally, SIM_FIGURES};
use crate::trace::Tracer;
use crate::{probe, Ctx};

/// Set-up (with its warm-up pass) is repeated this many times per run
/// and its median reported.
const SETUP_REPS: usize = 3;

/// Every figure and table, in `all_figures` order, with the files
/// `all_figures` writes for it under `HFS_OUT_DIR`.
pub const FIGURES: [(&str, &[&str]); 12] = [
    ("table1", &["table1.csv", "table1.txt"]),
    ("table2", &["table2.txt"]),
    ("fig3", &["fig3.txt"]),
    ("fig6", &["fig6.csv", "fig6.txt"]),
    (
        "fig7",
        &["fig7_producer.csv", "fig7_consumer.csv", "fig7.txt"],
    ),
    ("fig8", &["fig8.csv", "fig8.txt"]),
    ("fig9", &["fig9.csv", "fig9.txt"]),
    (
        "fig10",
        &["fig10_producer.csv", "fig10_consumer.csv", "fig10.txt"],
    ),
    (
        "fig11",
        &["fig11_producer.csv", "fig11_consumer.csv", "fig11.txt"],
    ),
    (
        "fig12",
        &["fig12_producer.csv", "fig12_consumer.csv", "fig12.txt"],
    ),
    ("ablation", &["ablation.txt"]),
    ("scaling", &["scaling.txt"]),
];

/// Runs one figure's experiment and renders it exactly as
/// `all_figures` does, one body per file of [`FIGURES`].
fn render(name: &str) -> Vec<String> {
    match name {
        "table1" => {
            let t = ex::table1::run();
            vec![t.to_csv(), t.render()]
        }
        "table2" => vec![ex::table2::run()],
        "fig3" => vec![ex::fig3::run().render()],
        "fig6" => {
            let f = ex::fig6::run();
            vec![f.table().to_csv(), f.render()]
        }
        "fig7" => {
            let f = ex::fig7::run();
            vec![
                f.producer_table("Figure 7").to_csv(),
                f.consumer_table("Figure 7").to_csv(),
                f.render("Figure 7: design points, baseline bus"),
            ]
        }
        "fig8" => {
            let f = ex::fig8::run();
            vec![f.table().to_csv(), f.render()]
        }
        "fig9" => {
            let f = ex::fig9::run();
            vec![f.table().to_csv(), f.render()]
        }
        "fig10" => {
            let f = ex::fig10::run();
            vec![
                f.producer_table("Figure 10").to_csv(),
                f.consumer_table("Figure 10").to_csv(),
                f.render("Figure 10: 4-cycle bus"),
            ]
        }
        "fig11" => {
            let f = ex::fig11::run();
            vec![
                f.producer_table("Figure 11").to_csv(),
                f.consumer_table("Figure 11").to_csv(),
                f.render("Figure 11: 4-cycle, 128-byte bus"),
            ]
        }
        "fig12" => {
            let f = ex::fig12::run();
            vec![
                f.producer_table().to_csv(),
                f.consumer_table().to_csv(),
                f.render(),
            ]
        }
        "ablation" => vec![ex::ablation::run_all()],
        "scaling" => vec![ex::scaling::run()],
        other => unreachable!("unknown figure {other}"),
    }
}

/// The committed renderings, by file name.
pub fn load_expected(results: &Path) -> std::io::Result<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    for (_, files) in FIGURES {
        for f in files {
            out.insert((*f).to_string(), std::fs::read_to_string(results.join(f))?);
        }
    }
    Ok(out)
}

/// Counts a mismatch between a rendering and the committed file.
pub fn check_rendering(tally: &mut Tally, file: &str, got: &str, expected: Option<&String>) {
    tally.check(expected.is_some_and(|e| e == got), || {
        format!("{file}: rendering differs from the committed results/{file}")
    });
}

/// One figure's span within a pass.
struct FigureSample {
    name: &'static str,
    wall_s: f64,
    delta: EngineStats,
}

fn delta(a: EngineStats, b: EngineStats) -> EngineStats {
    EngineStats {
        jobs: b.jobs - a.jobs,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        failures: b.failures - a.failures,
        sim_cycles: b.sim_cycles - a.sim_cycles,
        exec_millis: b.exec_millis - a.exec_millis,
    }
}

/// One checked pass over the whole suite.
struct Pass {
    wall_s: f64,
    /// Time spent checking the pass, outside `wall_s`.
    checks_s: f64,
    jobs: u64,
    /// Cycles carried by every outcome the suite received.
    delivered_cycles: u64,
    /// Exact counts over the distinct jobs simulated.
    counts: Counts,
    figures: Vec<FigureSample>,
}

/// Runs the suite once on a fresh cache directory and checks it: every
/// rendering against the committed one, every outcome `ok`, and the
/// artifacts' cycle total against the engine's.
fn pass(
    ctx: &Ctx,
    tr: &Tracer,
    req: u64,
    expected: &BTreeMap<String, String>,
    tally: &mut Tally,
) -> Pass {
    // A fresh cache directory: the last pass's moves aside, and is
    // deleted with the rest of the work directory at exit, so no mass
    // deletion's file-system work lands in a timed pass.
    let cache = ctx.work.join("fig-cache");
    if cache.exists() {
        let aside = ctx.work.join(format!("fig-cache-{req}"));
        if let Err(e) = std::fs::rename(&cache, &aside) {
            tally.fail(format!("cannot move {} aside: {e}", cache.display()));
        }
    }
    let _ = std::fs::remove_dir_all(ctx.work.join("fig-results"));
    let mut rendered: Vec<(&str, Option<Vec<String>>)> = Vec::new();
    let mut figures = Vec::new();
    let root = tr.open("figures.pass", None, req);
    let pass_start = Instant::now();
    let pass_before = engine().stats();
    for (name, _) in FIGURES {
        let before = engine().stats();
        let s = tr.open(&format!("figure.{name}"), root, req);
        let started = Instant::now();
        let bodies = std::panic::catch_unwind(|| render(name)).ok();
        let wall_s = started.elapsed().as_secs_f64();
        tr.close(s);
        figures.push(FigureSample {
            name,
            wall_s,
            delta: delta(before, engine().stats()),
        });
        rendered.push((name, bodies));
    }
    let wall_s = pass_start.elapsed().as_secs_f64();
    tr.close(root);
    let d = delta(pass_before, engine().stats());

    // Checks, outside the timed span.
    let checks_start = Instant::now();
    tally.attempted += d.jobs;
    if d.failures > 0 {
        tally.failed += d.failures;
        tally
            .problems
            .push(format!("{} suite job(s) did not resolve ok", d.failures));
    }
    for ((name, files), (_, bodies)) in FIGURES.iter().zip(&rendered) {
        match bodies {
            Some(bodies) => {
                for (file, body) in files.iter().zip(bodies) {
                    check_rendering(tally, file, body, expected.get(*file));
                }
            }
            None => tally.fail(format!("{name}: experiment failed")),
        }
    }
    let (delivered_cycles, counts) = artifact_counts(&ctx.work.join("fig-results"), tally);
    tally.check(counts.cycles == d.sim_cycles, || {
        format!(
            "artifacts carry {} distinct simulated cycles, the engine counted {}",
            counts.cycles, d.sim_cycles
        )
    });
    Pass {
        wall_s,
        checks_s: checks_start.elapsed().as_secs_f64(),
        jobs: d.jobs,
        delivered_cycles,
        counts,
        figures,
    }
}

/// Reads back every batch artifact of a pass: the cycles carried by all
/// outcomes, and the exact counts over distinct keys.
fn artifact_counts(dir: &Path, tally: &mut Tally) -> (u64, Counts) {
    let mut delivered = 0u64;
    let mut counts = Counts::default();
    let mut seen = HashSet::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        tally.fail(format!("no batch artifacts in {}", dir.display()));
        return (0, counts);
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| parse(&t).ok());
        let Some(jobs) = doc
            .as_ref()
            .and_then(|d| d.get("jobs"))
            .and_then(Json::as_arr)
        else {
            tally.fail(format!("{}: unreadable batch artifact", path.display()));
            continue;
        };
        for j in jobs {
            let key = j.get("key").and_then(Json::as_str).unwrap_or_default();
            let outcome = j.get("outcome").map(outcome_from_json);
            match outcome {
                Some(Ok(JobOutcome::Ok(r))) => {
                    delivered += r.cycles;
                    if seen.insert(key.to_string()) {
                        counts.add(&r);
                    }
                }
                _ => tally.fail(format!("{}: job {key} has no ok outcome", path.display())),
            }
        }
    }
    (delivered, counts)
}

/// The probe set: every Figure 7 design point, every Figure 9
/// single-threaded baseline, and the two-pair scaling runs, built by
/// the same helpers the experiments use.
fn probe_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for b in all_benchmarks() {
        for d in ex::fig7::designs() {
            jobs.push(design_job("fig7", &b, d));
        }
        jobs.push(single_job("fig9", &b));
    }
    let b = benchmark("adpcmdec").expect("adpcmdec exists");
    for d in ex::scaling::designs() {
        jobs.push(multi_job("scaling", &b, d, 2));
    }
    jobs
}

/// Runs the workload and fills `e2e` (untraced) or `layers` (traced).
pub fn run(ctx: &Ctx, tally: &mut Tally, e2e: &mut Metrics, layers: &mut Metrics) {
    // Set-up: engine start-up, the committed renderings, and one
    // untimed, checked warm-up pass, so lazy initialisation and the
    // host's first-touch costs land here and not in the timed passes.
    // Repeated, and the median reported.
    let mut setups = Vec::new();
    let mut expected = BTreeMap::new();
    let off = Tracer::new(false);
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let _ = engine();
        expected = match load_expected(Path::new("results")) {
            Ok(e) => e,
            Err(e) => {
                tally.fail(format!("cannot read the committed results/: {e}"));
                return;
            }
        };
        let warm = pass(ctx, &off, u64::MAX - rep as u64, &expected, tally);
        setups.push(started.elapsed().as_secs_f64() - warm.checks_s);
    }
    e2e.set("setup_s", median(&setups));

    let mut passes: Vec<(bool, Pass)> = Vec::new();
    // A traced run needs a pass of each kind.
    let min_passes = if ctx.tracer.enabled() { 2 } else { 1 };
    let timed_start = Instant::now();
    while timed_start.elapsed().as_secs_f64() < ctx.seconds || passes.len() < min_passes {
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured under the same conditions.
        let traced = ctx.tracer.enabled() && passes.len() % 2 == 1;
        let tr = if traced { &ctx.tracer } else { &off };
        let p = pass(ctx, tr, passes.len() as u64, &expected, tally);
        passes.push((traced, p));
    }

    let first = passes[0].1.counts;
    for (i, (_, p)) in passes.iter().enumerate() {
        tally.check(p.counts == first, || {
            format!("nondeterminism: pass {i} simulated different work than pass 0")
        });
    }
    // A typical pass: each figure at its median time over the passes,
    // so a host hiccup during one figure of one pass does not count.
    let typical_s: f64 = FIGURES
        .iter()
        .enumerate()
        .map(|(i, _)| {
            median(
                &passes
                    .iter()
                    .map(|(_, p)| p.figures[i].wall_s)
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    let (jobs, cycles) = (passes[0].1.jobs, passes[0].1.delivered_cycles);
    for (_, p) in &passes {
        tally.check(p.jobs == jobs && p.delivered_cycles == cycles, || {
            "nondeterminism: passes resolved different jobs".to_string()
        });
    }
    let walls: Vec<f64> = passes.iter().map(|(_, p)| p.wall_s).collect();
    let wall: f64 = walls.iter().sum();
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    e2e.set("jobs_per_s", jobs as f64 / typical_s);
    e2e.set("sim_mcycles_per_s", cycles as f64 / typical_s / 1e6);
    e2e.set("req_p50_ms", median(&ms));
    e2e.set("req_p99_ms", quantile(&ms, 0.99));
    eprintln!(
        "figures-cold: {} passes of {jobs} jobs, {:.2} s timed, pass ms {:.0?}, \
         {} distinct simulated cycles per pass, set-up s {:.3?}",
        passes.len(),
        wall,
        ms,
        first.cycles,
        setups
    );
    Fingerprint {
        counts: first,
        executed: 0,
    }
    .compare_and_store(&ctx.out.join("fingerprint-figures-cold.txt"), tally);

    if !ctx.tracer.enabled() {
        return;
    }
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|(t, _)| !*t)
        .map(|(_, p)| p.wall_s * 1e3)
        .collect();
    let traced_ms: Vec<f64> = traced.iter().map(|p| p.wall_s * 1e3).collect();
    layers.set("bench.req_samples", passes.len() as f64);
    layers.set("bench.traced.req_p50_ms", median(&traced_ms));
    layers.set(
        "bench.trace_overhead_frac",
        median(&traced_ms) / median(&untraced) - 1.0,
    );
    let exec_ms: u64 = traced
        .iter()
        .flat_map(|p| &p.figures)
        .map(|f| f.delta.exec_millis)
        .sum();
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    layers.set(
        "harness.engine.busy_frac",
        exec_ms as f64 / 1e3 / (traced_wall * engine().workers() as f64),
    );
    let report = engine().metrics_report();
    for (name, h) in &report.histograms {
        let stem = match name.as_str() {
            "harness.queue_wait_ms" => "harness.engine.queue_wait",
            "harness.exec_wall_ms" => "harness.engine.exec_wall",
            _ => continue,
        };
        layers.set(format!("{stem}_p50_ms"), h.p50 as f64);
        layers.set(format!("{stem}_p99_ms"), h.p99 as f64);
    }
    for (name, _) in FIGURES {
        let samples: Vec<&FigureSample> = traced
            .iter()
            .flat_map(|p| &p.figures)
            .filter(|f| f.name == name)
            .collect();
        let walls: Vec<f64> = samples.iter().map(|f| f.wall_s).collect();
        layers.set(format!("bench.figure_s.{name}"), median(&walls));
        if SIM_FIGURES.contains(&name) {
            let ms: u64 = samples.iter().map(|f| f.delta.exec_millis).sum();
            let cyc: u64 = samples.iter().map(|f| f.delta.sim_cycles).sum();
            let v = if cyc == 0 {
                0.0
            } else {
                ms as f64 * 1e6 / cyc as f64
            };
            layers.set(format!("harness.engine.ns_per_cycle.{name}"), v);
        }
    }
    first.export(layers);
    probe::run(
        &ctx.tracer,
        &probe_jobs(),
        &ctx.work.join("probe-cache"),
        tally,
        layers,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_rendering_fails_the_run() {
        let got = ex::table2::run();
        let mut tally = Tally {
            attempted: 1,
            ..Tally::default()
        };
        check_rendering(&mut tally, "table2.txt", &got, Some(&got.clone()));
        assert!(tally.correct());
        let wrong = got.replacen('1', "2", 1);
        check_rendering(&mut tally, "table2.txt", &got, Some(&wrong));
        check_rendering(&mut tally, "table2.txt", &got, None);
        assert_eq!(tally.failed, 2);
        assert!(!tally.correct());
        assert!(tally.fail_frac() > 0.0);
    }

    #[test]
    fn every_committed_rendering_is_covered() {
        let committed = load_expected(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results"
        )))
        .expect("committed results are readable");
        assert_eq!(committed.len(), 24);
    }
}
