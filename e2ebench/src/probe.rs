//! Layer probes for the traced run: one job at a time, the benchmark
//! calls each layer's public entry point itself and records a span
//! around the call.
//!
//! Per probe job the spans are, under one `probe.job` root: the first
//! `Job::key_ref` (hfs-harness), `Machine::new_*` and `Machine::run`
//! (hfs-core), `outcome_to_json` plus its text, `Cache::store`,
//! `Cache::load` from disk with no hot layer, `parse` plus
//! `outcome_from_json`, and `HotCache::get`. The root's self time is
//! the glue between the calls.

use std::path::Path;
use std::time::Instant;

use hfs_core::kernel::KernelPair;
use hfs_core::{DesignPoint, Machine};
use hfs_harness::{
    outcome_from_json, outcome_to_json, parse, Cache, HotCache, Job, JobOutcome, Mode,
};

use crate::fingerprint::Counts;
use crate::report::{median, Metrics, Tally};
use crate::trace::Tracer;

/// Request ids of probe jobs start here, clear of workload requests.
const PROBE_REQ_BASE: u64 = 1 << 40;

/// The design family a job's `Machine::run` time is grouped under.
pub fn family(job: &Job) -> &'static str {
    match job.mode {
        Mode::Single => "single",
        Mode::Multi(_) => "multi",
        Mode::Pipeline => match job.cfg.design {
            DesignPoint::Existing(_) => "existing",
            DesignPoint::MemOpti(_) => "memopti",
            DesignPoint::SyncOpti(_) => "syncopti",
            DesignPoint::HeavyWt(_) | DesignPoint::RegMapped(_) => "heavywt",
        },
    }
}

/// The families `core.machine.run_ns_per_cycle.*` reports.
pub const FAMILIES: [&str; 6] = [
    "existing", "memopti", "syncopti", "heavywt", "single", "multi",
];

/// Runs the probes over `jobs`, using the fresh directory `dir` for the
/// probe cache, and
/// sets every `core.*`, `harness.job/ser/cache/hotcache.*` and
/// `bench.path.*` metric from the recorded spans.
pub fn run(tr: &Tracer, jobs: &[Job], dir: &Path, tally: &mut Tally, m: &mut Metrics) {
    let cache = Cache::with_hot(dir, None);
    let hot = HotCache::new(64 << 20);
    let mut run_ns = [0u128; FAMILIES.len()];
    let mut run_cycles = [0u64; FAMILIES.len()];
    for (i, template) in jobs.iter().enumerate() {
        let req = PROBE_REQ_BASE + i as u64;
        // A rebuilt job has no memoized key, so the key span times the
        // first computation.
        let job = Job::from_parts(
            template.label.clone(),
            template.pair.clone(),
            template.cfg.clone(),
            template.mode,
            template.max_cycles,
            template.retries,
            template.metrics,
        );
        let root = tr.open("probe.job", None, req);

        let s = tr.open("harness.job.key", root, req);
        let key = job.key_ref().to_string();
        tr.close(s);

        let s = tr.open("core.machine.new", root, req);
        let built = match job.mode {
            Mode::Pipeline => Machine::new_pipeline(&job.cfg, &job.pair),
            Mode::Single => Machine::new_single(&job.cfg, &job.pair),
            Mode::Multi(n) => {
                let pairs: Vec<KernelPair> = (0..n).map(|_| job.pair.clone()).collect();
                Machine::new_multi_pipeline(&job.cfg, &pairs)
            }
        };
        tr.close(s);
        let mut machine = match built {
            Ok(machine) => machine,
            Err(e) => {
                tally.fail(format!("probe {}: machine build failed: {e}", job.label));
                tr.close(root);
                continue;
            }
        };

        let fam = FAMILIES
            .iter()
            .position(|&f| f == family(&job))
            .expect("family is listed");
        let s = tr.open("core.machine.run", root, req);
        let started = Instant::now();
        let result = machine.run(job.max_cycles);
        let took = started.elapsed();
        tr.close(s);
        let outcome = match result {
            Ok(r) => JobOutcome::Ok(r),
            Err(e) => JobOutcome::SimError(e.to_string()),
        };
        tally.job(&format!("probe {}", job.label), &outcome);
        let Some(r) = outcome.ok() else {
            tr.close(root);
            continue;
        };
        run_ns[fam] += took.as_nanos();
        run_cycles[fam] += r.cycles;

        let s = tr.open("harness.ser.encode", root, req);
        let text = outcome_to_json(&outcome).to_pretty();
        tr.close(s);

        let s = tr.open("harness.cache.store", root, req);
        cache.store(&key, &outcome);
        tr.close(s);

        let s = tr.open("harness.cache.load_disk", root, req);
        let loaded = cache.load(&key);
        tr.close(s);
        tally.check(
            loaded.is_some_and(|o| outcome_to_json(&o).to_pretty() == text),
            || {
                format!(
                    "probe {}: disk cache returned a different outcome",
                    job.label
                )
            },
        );

        let s = tr.open("harness.ser.decode", root, req);
        let decoded = parse(&text).ok().and_then(|v| outcome_from_json(&v).ok());
        tr.close(s);
        tally.check(
            decoded.is_some_and(|o| outcome_to_json(&o).to_pretty() == text),
            || format!("probe {}: decode does not round-trip", job.label),
        );

        hot.insert(&key, &outcome, Some(&text));
        let s = tr.open("harness.hotcache.get", root, req);
        let got = hot.get(&key);
        tr.close(s);
        tally.check(got.is_some(), || {
            format!("probe {}: hot cache lost a fresh entry", job.label)
        });
        tr.close(root);
    }

    for (f, name) in FAMILIES.iter().enumerate() {
        let v = if run_cycles[f] == 0 {
            0.0
        } else {
            run_ns[f] as f64 / run_cycles[f] as f64
        };
        m.set(format!("core.machine.run_ns_per_cycle.{name}"), v);
    }
    let us = |name: &str| median(&tr.durations(name)) / 1e3;
    for (metric, span) in [
        ("core.machine.new_us", "core.machine.new"),
        ("harness.job.key_us", "harness.job.key"),
        ("harness.ser.encode_us", "harness.ser.encode"),
        ("harness.ser.decode_us", "harness.ser.decode"),
        ("harness.cache.store_us", "harness.cache.store"),
        ("harness.cache.load_disk_us", "harness.cache.load_disk"),
        ("harness.hotcache.get_us", "harness.hotcache.get"),
        ("bench.path.job_us", "probe.job"),
    ] {
        m.set(metric, us(span));
    }
    // The blocking path of a job the server simulates: key, build, run,
    // store (which encodes), and the client's decode.
    let layers: f64 = [
        "harness.job.key",
        "core.machine.new",
        "core.machine.run",
        "harness.cache.store",
        "harness.ser.decode",
    ]
    .iter()
    .map(|s| us(s))
    .sum();
    m.set("bench.path.layers_us", layers);
    let st = tr.self_times();
    let own = st
        .get("probe.job")
        .map_or(0.0, |&(n, _, own)| own as f64 / n.max(1) as f64 / 1e3);
    m.set("bench.path.self_us", own);
}

/// Sums the exact counts over the `ok` outcomes of `outcomes`.
pub fn counts<'a>(outcomes: impl IntoIterator<Item = &'a JobOutcome>) -> Counts {
    let mut c = Counts::default();
    for o in outcomes {
        if let Some(r) = o.ok() {
            c.add(r);
        }
    }
    c
}
