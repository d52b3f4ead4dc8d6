//! End-to-end and per-layer benchmark of hfs.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <figures-cold|sweep-warm|explore-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the metrics —
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. A traced run also writes its spans to
//! `e2ebench/out/trace-<workload>-s<seed>.json`. The exit code is 0 only
//! when every output check passed. See `e2ebench/README.md`.

mod figures;
mod fingerprint;
mod gen;
mod probe;
mod report;
mod served;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Metrics, Tally, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The benchmark's own scratch space, relative to the repository root.
const WORK_ROOT: &str = "e2ebench/work";
/// Where fingerprints and traces outlive the run.
const OUT_DIR: &str = "e2ebench/out";

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Span recorder, enabled on traced runs.
    pub tracer: Tracer,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
    /// Output directory kept across runs.
    pub out: PathBuf,
    /// Worker threads for the engine and the server.
    pub nproc: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["figures-cold", "sweep-warm", "explore-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Pins the `HFS_*` environment so nothing from the caller's shell
/// changes what is measured: errors-only logging, no progress stream,
/// `nproc` engine workers, the benchmark's own cache and artifact
/// directories, and every optional mode off. The figure suite's cache
/// has no in-memory hot layer, because one would outlive the fresh
/// cache directory of each pass and make every pass after the first
/// warm. Runs before any thread starts or the logger latches.
fn pin_env(work: &std::path::Path, nproc: usize) {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("HFS_") {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("HFS_LOG", "error");
    std::env::set_var("HFS_NO_PROGRESS", "1");
    std::env::set_var("HFS_JOBS", nproc.to_string());
    std::env::set_var("HFS_CACHE_DIR", work.join("fig-cache"));
    std::env::set_var("HFS_HOT_CACHE_MB", "0");
    std::env::set_var("HFS_RESULTS_DIR", work.join("fig-results"));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new("results").is_dir() || !std::path::Path::new("crates").is_dir() {
        eprintln!("e2ebench: run from the repository root");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    pin_env(&work, nproc);
    wake_cpus(nproc);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work: work.clone(),
        out: PathBuf::from(OUT_DIR),
        nproc,
    };

    let mut tally = Tally::default();
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    match args.workload.as_str() {
        "figures-cold" => figures::run(&ctx, &mut tally, &mut e2e, &mut layers),
        "sweep-warm" => served::sweep_warm(&ctx, &mut tally, &mut e2e, &mut layers),
        _ => served::explore_mixed(&ctx, &mut tally, &mut e2e, &mut layers),
    }
    match report::rss_peak_mb() {
        Some(mb) => e2e.set("rss_peak_mb", mb),
        None => tally.fail("cannot read peak RSS from /proc/self/status".to_string()),
    }
    layers.set("fail_frac", tally.fail_frac());
    // Layers a workload never reaches read 0; any other metric left
    // unset is a benchmark bug, which the result line reports.
    let unreached: &[&str] = match args.workload.as_str() {
        "figures-cold" => &["serve."],
        _ => &["harness.engine.", "bench.figure_s."],
    };
    for (name, _) in PER_LAYER {
        if layers.get(name).is_none() && unreached.iter().any(|p| name.starts_with(p)) {
            layers.set(*name, 0.0);
        }
    }

    if args.trace {
        let path = ctx
            .out
            .join(format!("trace-{}-s{}.json", args.workload, args.seed));
        let mut summary: Vec<(String, f64)> = layers.0.clone();
        summary.extend(e2e.0.iter().map(|(k, v)| (format!("traced_run.{k}"), *v)));
        if let Err(e) = ctx.tracer.write(&path, &summary) {
            tally.fail(format!("cannot write {}: {e}", path.display()));
        }
        print_path_table(&ctx.tracer);
    }
    // Scratch goes at exit, and the file system commits the deletion
    // before the process ends, so its work does not land in the next
    // run's measurement.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    let _ = std::fs::File::open("e2ebench").and_then(|d| d.sync_all());

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = if args.trace { &layers } else { &e2e };
    let line = report::result_line(&mut tally, metrics, declared);
    for p in tally.problems.iter().take(20) {
        eprintln!("e2ebench: FAILED: {p}");
    }
    println!("{line}");
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Keeps every CPU busy until the host runs them all at once.
///
/// On a virtual machine, a vCPU that sat idle can take a second or more
/// to be scheduled again: until then `nproc` threads share fewer CPUs,
/// and set-up and the first seconds of a workload run slow by a varying
/// amount. Spinning `nproc` threads for at least a second, and until
/// three rounds in a row take no longer than one thread alone (at most
/// eight seconds), starts every run on a fully scheduled machine.
fn wake_cpus(nproc: usize) {
    fn spin(n: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..n {
            h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3);
        }
        std::hint::black_box(h)
    }
    const ROUND: u64 = 10_000_000;
    const WAKE_MIN_S: f64 = 1.0;
    let started = std::time::Instant::now();
    let alone = {
        let t = std::time::Instant::now();
        spin(ROUND);
        t.elapsed()
    };
    let mut in_a_row = 0;
    while (in_a_row < 3 || started.elapsed().as_secs_f64() < WAKE_MIN_S)
        && started.elapsed().as_secs() < 8
    {
        let t = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..nproc {
                s.spawn(|| spin(ROUND));
            }
        });
        in_a_row = if t.elapsed() < alone.mul_f64(1.3) {
            in_a_row + 1
        } else {
            0
        };
    }
}

/// Prints each span name's count, mean, and mean self time, so the
/// layers along a workload's blocking path sit next to its wall time.
fn print_path_table(tr: &Tracer) {
    eprintln!(
        "{:<36} {:>8} {:>12} {:>12}",
        "span", "count", "mean_us", "self_us"
    );
    for (name, (n, total, own)) in tr.self_times() {
        let n = n.max(1) as f64;
        eprintln!(
            "{name:<36} {n:>8} {:>12.1} {:>12.1}",
            total as f64 / n / 1e3,
            own as f64 / n / 1e3
        );
    }
}
