//! The served workloads: `sweep-warm` and `explore-mixed`, each against
//! an in-process `hfs-serve` on a Unix socket.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use hfs_harness::hotcache::DEFAULT_HOT_CACHE_MB;
use hfs_harness::{execute, outcome_to_json, Batch, Engine, Job, JobOutcome};
use hfs_serve::{
    Client, ClientError, Endpoint, ServeStats, Server, ServerConfig, Subscribe, DEFAULT_QUEUE_LIMIT,
};
use hfs_sim::Rng64;

use crate::fingerprint::{Counts, Fingerprint};
use crate::gen::{self, Explorer, SWEEP_POINTS, SWEEP_REQUEST};
use crate::report::{median, quantile, Metrics, Tally};
use crate::trace::Tracer;
use crate::{probe, Ctx};

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 5;
/// Requests per block of the p99 estimate: ten samples lie beyond each
/// block's p99.
const P99_BLOCK: usize = 1000;
/// Requests per `sweep-warm` round: every slice of the sweep, then the
/// whole sweep. The whole-sweep requests, one in 19, are the slowest,
/// so they set `req_p99_ms`; each is long enough that a host scheduling
/// hiccup moves it by a small share.
const SWEEP_ROUND: usize = SWEEP_POINTS / SWEEP_REQUEST + 1;
/// Jobs the traced run probes layer by layer.
const PROBE_JOBS: usize = 48;
/// Requests per `explore-mixed` connection whose outcomes form the
/// fingerprint; every run must complete them.
const PREFIX_REQUESTS: u64 = 32;
/// `explore-mixed` runs its closed loop this long before timing starts,
/// while a fresh server's throughput still climbs.
const WARMUP_S: f64 = 3.0;
/// `explore-mixed` throughput is the median over windows this long.
const WINDOW_S: f64 = 1.0;
/// At most this many `explore-mixed` outcomes per connection are
/// re-executed in process and compared.
const MAX_SAMPLES: usize = 32;

/// A server running on its own thread.
struct Served {
    endpoint: Endpoint,
    handle: JoinHandle<std::io::Result<ServeStats>>,
}

impl Served {
    /// Starts a fresh server with `workers` simulation threads over
    /// `cache_dir`, with the default hot cache.
    fn start(ctx: &Ctx, cache_dir: &Path, workers: usize) -> std::io::Result<Served> {
        let sock = ctx.work.join("serve.sock");
        let _ = std::fs::remove_file(&sock);
        let config = ServerConfig {
            workers,
            process_workers: 0,
            worker_bin: None,
            queue_limit: DEFAULT_QUEUE_LIMIT,
            cache_dir: Some(cache_dir.to_path_buf()),
            hot_cache_mb: Some(DEFAULT_HOT_CACHE_MB),
            default_retries: 0,
        };
        let endpoint = Endpoint::Unix(sock);
        let server = Server::bind(&endpoint, &config)?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Served { endpoint, handle })
    }

    fn connect(&self) -> Result<Client, ClientError> {
        Ok(Client::connect(&self.endpoint)?)
    }

    /// Drains the server and waits for its thread.
    fn stop(self, tally: &mut Tally) {
        let shut = self.connect().and_then(|mut c| c.shutdown_server());
        if let Err(e) = shut {
            tally.fail(format!("server shutdown failed: {e}"));
            return;
        }
        match self.handle.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => tally.fail(format!("server exited with an error: {e}")),
            Err(_) => tally.fail("server thread panicked".to_string()),
        }
    }
}

/// A parsed `Client::metrics` scrape: Prometheus sample name (with its
/// labels) to value.
#[derive(Debug, Default)]
struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    fn take(client: &mut Client, tally: &mut Tally) -> Scrape {
        match client.metrics() {
            Ok(text) => Scrape(
                text.lines()
                    .filter(|l| !l.starts_with('#'))
                    .filter_map(|l| {
                        let (k, v) = l.rsplit_once(' ')?;
                        Some((k.to_string(), v.parse().ok()?))
                    })
                    .collect(),
            ),
            Err(e) => {
                tally.fail(format!("metrics scrape failed: {e}"));
                Scrape::default()
            }
        }
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sets the `serve.*` metrics from scrapes around the timed phase and
/// the server's counters. `new_keys` is the number of distinct keys
/// the server was asked for that its disk cache did not hold at start.
fn serve_layers(
    before: &Scrape,
    after: &Scrape,
    stats: &ServeStats,
    new_keys: usize,
    m: &mut Metrics,
) {
    let d = |k: &str| after.get(k) - before.get(k);
    for (metric, hist) in [
        ("serve.queue_wait", "hfs_job_queue_wait_ms"),
        ("serve.exec_wall", "hfs_job_exec_wall_ms"),
    ] {
        m.set(
            format!("{metric}_p50_ms"),
            after.get(&format!("{hist}{{quantile=\"0.5\"}}")),
        );
        m.set(
            format!("{metric}_p99_ms"),
            after.get(&format!("{hist}{{quantile=\"0.99\"}}")),
        );
    }
    let hot_hits = d("hfs_hot_cache_hits_total");
    m.set(
        "serve.hot_hit_ratio",
        ratio(hot_hits, hot_hits + d("hfs_hot_cache_misses_total")),
    );
    let submitted = d("hfs_jobs_submitted_total");
    m.set(
        "serve.cache_hit_ratio",
        ratio(d("hfs_jobs_cache_hits_total"), submitted),
    );
    m.set(
        "serve.dedup_ratio",
        ratio(d("hfs_jobs_deduped_total"), submitted),
    );
    m.set("serve.executed", stats.executed as f64);
    m.set(
        "serve.executed_over_new",
        ratio(stats.executed as f64, new_keys as f64),
    );
}

/// One finished request of a timed phase.
#[derive(Debug, Clone, Copy)]
struct Done {
    /// When it finished, in seconds since the timed phase started.
    end_s: f64,
    /// Round trip in ms.
    lat_ms: f64,
    traced: bool,
    jobs: u64,
    /// Simulated cycles carried by its outcomes.
    cycles: u64,
}

/// Client-observed timings of the requests of a timed phase.
#[derive(Debug, Default)]
struct Requests(Vec<Done>);

impl Requests {
    fn ms(&self, traced: Option<bool>) -> Vec<f64> {
        self.0
            .iter()
            .filter(|d| traced.is_none_or(|t| d.traced == t))
            .map(|d| d.lat_ms)
            .collect()
    }

    fn jobs(&self) -> u64 {
        self.0.iter().map(|d| d.jobs).sum()
    }

    /// Sets the request-latency end-to-end metrics: the median round
    /// trip, and the p99 as the median over consecutive blocks of
    /// [`P99_BLOCK`] requests of each block's p99, so one burst of host
    /// noise moves one block and not the figure.
    fn export(&self, m: &mut Metrics) {
        let mut by_end = self.0.clone();
        by_end.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        let all: Vec<f64> = by_end.iter().map(|d| d.lat_ms).collect();
        m.set("req_p50_ms", median(&all));
        let blocks: Vec<f64> = all
            .chunks_exact(P99_BLOCK)
            .map(|b| quantile(b, 0.99))
            .collect();
        let p99 = if blocks.len() < 2 {
            quantile(&all, 0.99)
        } else {
            median(&blocks)
        };
        m.set("req_p99_ms", p99);
    }

    /// Jobs and Mcycles per second, as the medians over the whole
    /// windows of `window_s` seconds of a closed loop that ran `wall_s`.
    fn window_rates(&self, window_s: f64, wall_s: f64) -> (Vec<f64>, Vec<f64>) {
        let n = (wall_s / window_s).floor().max(1.0) as usize;
        let mut jobs = vec![0u64; n];
        let mut cycles = vec![0u64; n];
        for d in &self.0 {
            let w = (d.end_s / window_s) as usize;
            if w < n {
                jobs[w] += d.jobs;
                cycles[w] += d.cycles;
            }
        }
        (
            jobs.iter().map(|&j| j as f64 / window_s).collect(),
            cycles.iter().map(|&c| c as f64 / window_s / 1e6).collect(),
        )
    }

    /// Sets the traced-run metrics that compare traced and untraced
    /// requests, and the client spans.
    fn export_traced(&self, tr: &Tracer, m: &mut Metrics) {
        let (on, off) = (self.ms(Some(true)), self.ms(Some(false)));
        m.set("bench.req_samples", self.0.len() as f64);
        m.set("bench.traced.req_p50_ms", median(&on));
        m.set(
            "bench.trace_overhead_frac",
            median(&on) / median(&off) - 1.0,
        );
        m.set(
            "serve.client.submit_ms",
            median(&tr.durations("serve.client.submit")) / 1e6,
        );
        m.set(
            "serve.client.first_result_ms",
            median(&tr.durations("serve.client.first_result")) / 1e6,
        );
    }
}

/// One `submit_batched` round trip, with spans when `tr` records.
/// Returns the batch and the round trip in ms.
fn request(
    client: &mut Client,
    tr: &Tracer,
    req: u64,
    name: &str,
    jobs: Vec<Job>,
) -> (Result<Batch, ClientError>, f64) {
    let s = tr.open("serve.client.submit", None, req);
    let started = Instant::now();
    let mut first = None;
    let res = client.submit_batched(name, jobs, Subscribe::Final, |_| {
        first.get_or_insert_with(Instant::now);
    });
    let lat_ms = started.elapsed().as_secs_f64() * 1e3;
    if let Some(f) = first {
        tr.record("serve.client.first_result", s, req, started, f);
    }
    tr.close(s);
    (res, lat_ms)
}

/// The canonical text of an outcome, for byte-identity checks.
fn text(o: &JobOutcome) -> String {
    outcome_to_json(o).to_string()
}

/// `sweep-warm`'s closed loop over the primed sweep on one connection,
/// for `seconds`. Each round submits every [`SWEEP_REQUEST`]-job slice
/// of the sweep as a request of its own and then the whole sweep as one
/// request, so one request in [`SWEEP_ROUND`] is a whole sweep.
fn sweep_loop(
    ctx: &Ctx,
    client: &mut Client,
    templates: &[Job],
    reference: &[(String, String)],
    tally: &mut Tally,
) -> Requests {
    let slices = SWEEP_POINTS / SWEEP_REQUEST;
    let mut log = Requests::default();
    let start = Instant::now();
    let off = Tracer::new(false);
    let mut r = 0usize;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.tracer.enabled() && r % 2 == 1;
        let tr = if traced { &ctx.tracer } else { &off };
        let slice = r % SWEEP_ROUND;
        let (base, len) = if slice < slices {
            (slice * SWEEP_REQUEST, SWEEP_REQUEST)
        } else {
            (0, SWEEP_POINTS)
        };
        let jobs = templates[base..base + len].to_vec();
        let (res, lat_ms) = request(client, tr, r as u64, "sweep-warm", jobs);
        let batch = match res {
            Ok(b) => b,
            Err(e) => {
                tally.lost(len as u64, format!("request {r} failed: {e}"));
                break;
            }
        };
        let mut done = Done {
            end_s: start.elapsed().as_secs_f64(),
            lat_ms,
            traced,
            jobs: batch.records.len() as u64,
            cycles: 0,
        };
        tally.check(batch.records.len() == len, || {
            format!("request {r}: {} results", batch.records.len())
        });
        // Every key is compared in the first round, and every eighth
        // request after that.
        let full_check = r < SWEEP_ROUND || r % 8 == 7;
        for (i, rec) in batch.records.iter().enumerate() {
            tally.job(&rec.label, &rec.outcome);
            if let Some(res) = rec.outcome.ok() {
                done.cycles += res.cycles;
            }
            if full_check {
                let (key, want) = &reference[base + i];
                tally.check(rec.key == *key && text(&rec.outcome) == *want, || {
                    format!("{}: outcome differs from the priming pass", rec.label)
                });
            }
        }
        log.0.push(done);
        r += 1;
    }
    log
}

/// `sweep-warm`: a seeded sweep, primed once through the server, then
/// resubmitted in slices and whole, every job a hot-cache hit.
pub fn sweep_warm(ctx: &Ctx, tally: &mut Tally, e2e: &mut Metrics, layers: &mut Metrics) {
    let templates = gen::sweep(ctx.seed);
    let mut setups = Vec::new();
    let mut kept = None;
    let mut reference: Vec<(String, String)> = Vec::new();
    let mut fingerprint = None;
    for rep in 0..SETUP_REPS {
        let cache_dir = ctx.work.join(format!("sweep-cache-{rep}"));
        let started = Instant::now();
        let served = match Served::start(ctx, &cache_dir, ctx.nproc) {
            Ok(s) => s,
            Err(e) => return tally.fail(format!("cannot start the server: {e}")),
        };
        let mut client = match served.connect() {
            Ok(c) => c,
            Err(e) => return tally.fail(format!("cannot connect: {e}")),
        };
        let primed = client.submit_batched(
            "sweep-warm/prime",
            templates.clone(),
            Subscribe::Final,
            |_| {},
        );
        setups.push(started.elapsed().as_secs_f64());
        let batch = match primed {
            Ok(b) => b,
            Err(e) => return tally.lost(SWEEP_POINTS as u64, format!("priming failed: {e}")),
        };
        for r in &batch.records {
            tally.job(&r.label, &r.outcome);
        }
        let executed = client.stats().map_or(0, |s| s.executed);
        let fp = Fingerprint {
            counts: probe::counts(batch.outcomes()),
            executed,
        };
        tally.check(fingerprint.is_none_or(|f| f == fp), || {
            format!("nondeterminism: priming pass {rep} simulated different work")
        });
        fingerprint = Some(fp);
        reference = batch
            .records
            .iter()
            .map(|r| (r.key.clone(), text(&r.outcome)))
            .collect();
        if rep + 1 < SETUP_REPS {
            drop(client);
            served.stop(tally);
        } else {
            kept = Some((served, client));
        }
    }
    e2e.set("setup_s", median(&setups));
    let (Some((served, mut client)), Some(fingerprint)) = (kept, fingerprint) else {
        return tally.fail("no set-up completed".to_string());
    };
    fingerprint.compare_and_store(
        &ctx.out
            .join(format!("fingerprint-sweep-warm-s{}.txt", ctx.seed)),
        tally,
    );

    // One connection: its client thread and the server's reader and
    // writer threads for it hand each request along in turn, so they
    // never outnumber the CPUs and the round trip does not measure the
    // scheduler.
    let before = Scrape::take(&mut client, tally);
    let log = sweep_loop(ctx, &mut client, &templates, &reference, tally);
    // The rate is that of the median request: checks run between
    // requests, so the phase's wall time is not all serving time.
    let rate =
        |f: fn(&Done) -> f64| median(&log.0.iter().map(|d| f(d) / d.lat_ms).collect::<Vec<_>>());
    let jobs_per_s = rate(|d| d.jobs as f64 * 1e3);
    let mcycles_per_s = rate(|d| d.cycles as f64 / 1e3);
    let after = Scrape::take(&mut client, tally);
    let stats = client.stats();

    e2e.set("jobs_per_s", jobs_per_s);
    e2e.set("sim_mcycles_per_s", mcycles_per_s);
    log.export(e2e);
    eprintln!(
        "sweep-warm: {} requests ({} of {SWEEP_REQUEST} jobs, {} whole sweeps), p50 {:.2} ms, p99 {:.2} ms, set-up s {:.3?}",
        log.0.len(),
        log.0.iter().filter(|d| d.jobs == SWEEP_REQUEST as u64).count(),
        log.0.iter().filter(|d| d.jobs == SWEEP_POINTS as u64).count(),
        e2e.get("req_p50_ms").unwrap_or(0.0),
        e2e.get("req_p99_ms").unwrap_or(0.0),
        setups
    );
    if ctx.tracer.enabled() {
        match &stats {
            Ok(s) => serve_layers(&before, &after, s, SWEEP_POINTS, layers),
            Err(e) => tally.fail(format!("stats failed: {e}")),
        }
        log.export_traced(&ctx.tracer, layers);
        fingerprint.counts.export(layers);
        let mut rng = Rng64::new(ctx.seed).split(3);
        let sample: Vec<Job> = (0..PROBE_JOBS)
            .map(|_| templates[rng.below(templates.len() as u64) as usize].clone())
            .collect();
        probe::run(
            &ctx.tracer,
            &sample,
            &ctx.work.join("probe-cache"),
            tally,
            layers,
        );
    }
    drop(client);
    served.stop(tally);
}

/// What one `explore-mixed` connection saw.
#[derive(Debug, Default)]
struct ConnLog {
    requests: Requests,
    new_keys: HashSet<String>,
    prefix: Counts,
    done: u64,
    samples: Vec<(Job, JobOutcome)>,
    tally: Tally,
}

/// One connection's closed loop: send a request, wait for all of its
/// results, send the next, for [`WARMUP_S`] untimed seconds and then
/// the timed `seconds`, which start at `start`.
fn explore_conn(
    ctx: &Ctx,
    mut client: Client,
    conn: u64,
    pool: Arc<Vec<Job>>,
    start: Instant,
) -> (Client, ConnLog) {
    let mut log = ConnLog::default();
    let mut stream = Explorer::new(ctx.seed, conn, pool);
    let mut pick = Rng64::new(ctx.seed).split(30 + conn);
    let off = Tracer::new(false);
    let mut k = 0u64;
    let since = |t: Instant| t.elapsed().as_secs_f64() - WARMUP_S;
    while since(start) < ctx.seconds {
        let traced = ctx.tracer.enabled() && k % 2 == 1;
        let tr = if traced { &ctx.tracer } else { &off };
        let asks = stream.next_request();
        let jobs: Vec<Job> = asks.iter().map(|a| a.job.clone()).collect();
        let req = (conn << 32) | k;
        let (res, lat_ms) = request(&mut client, tr, req, &format!("explore-c{conn}"), jobs);
        let batch = match res {
            Ok(b) => b,
            Err(e) => {
                log.tally.lost(
                    asks.len() as u64,
                    format!("c{conn} request {k} failed: {e}"),
                );
                break;
            }
        };
        let mut done = Done {
            end_s: since(start),
            lat_ms,
            traced,
            jobs: batch.records.len() as u64,
            cycles: 0,
        };
        log.tally.check(batch.records.len() == asks.len(), || {
            format!("c{conn} request {k}: short batch")
        });
        let sampled = pick.below(16) == 0 && log.samples.len() < MAX_SAMPLES;
        for (i, (ask, rec)) in asks.iter().zip(&batch.records).enumerate() {
            log.tally.job(&rec.label, &rec.outcome);
            if let Some(r) = rec.outcome.ok() {
                done.cycles += r.cycles;
                if k < PREFIX_REQUESTS {
                    log.prefix.add(r);
                }
            }
            if ask.new {
                log.new_keys.insert(rec.key.clone());
            }
            if sampled && i == 0 {
                log.samples.push((ask.job.clone(), rec.outcome.clone()));
            }
        }
        if done.end_s >= 0.0 {
            log.requests.0.push(done);
        }
        k += 1;
    }
    log.done = k;
    (client, log)
}

/// `explore-mixed`: two connections in a closed loop of small requests,
/// half revisiting a pool primed into the disk cache and half new.
pub fn explore_mixed(ctx: &Ctx, tally: &mut Tally, e2e: &mut Metrics, layers: &mut Metrics) {
    let pool = Arc::new(gen::pool(ctx.seed));
    let mut setups = Vec::new();
    let mut kept = None;
    let mut fingerprint: Option<Fingerprint> = None;
    for rep in 0..SETUP_REPS {
        let cache_dir = ctx.work.join(format!("explore-cache-{rep}"));
        let started = Instant::now();
        let engine = Engine::new(ctx.nproc).with_cache_dir(&cache_dir);
        let primed = engine.run_batch("explore-pool", pool.to_vec());
        let served = match Served::start(ctx, &cache_dir, ctx.nproc) {
            Ok(s) => s,
            Err(e) => return tally.fail(format!("cannot start the server: {e}")),
        };
        setups.push(started.elapsed().as_secs_f64());
        for r in &primed.records {
            tally.job(&r.label, &r.outcome);
        }
        let fp = Fingerprint {
            counts: probe::counts(primed.outcomes()),
            executed: engine.stats().cache_misses,
        };
        tally.check(fingerprint.is_none_or(|f| f.counts == fp.counts), || {
            format!("nondeterminism: pool priming {rep} simulated different work")
        });
        fingerprint = Some(fp);
        if rep + 1 < SETUP_REPS {
            served.stop(tally);
        } else {
            kept = Some(served);
        }
    }
    e2e.set("setup_s", median(&setups));
    let (Some(served), Some(mut fingerprint)) = (kept, fingerprint) else {
        return tally.fail("no set-up completed".to_string());
    };
    let clients: Result<Vec<Client>, ClientError> = (0..2).map(|_| served.connect()).collect();
    let mut clients = match clients {
        Ok(c) => c,
        Err(e) => return tally.fail(format!("cannot connect: {e}")),
    };
    let before = Scrape::take(&mut clients[0], tally);

    let start = Instant::now();
    let results: Vec<(Client, ConnLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let pool = Arc::clone(&pool);
                s.spawn(move || explore_conn(ctx, client, c as u64, pool, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64() - WARMUP_S;

    let mut log = Requests::default();
    let mut new_keys = HashSet::new();
    let mut samples = Vec::new();
    let mut clients = Vec::new();
    for (client, conn) in results {
        clients.push(client);
        log.0.extend(conn.requests.0);
        new_keys.extend(conn.new_keys);
        samples.extend(conn.samples);
        fingerprint.counts.absorb(conn.prefix);
        tally.absorb(conn.tally);
        tally.check(conn.done >= PREFIX_REQUESTS, || {
            format!("a connection finished only {} requests", conn.done)
        });
    }
    let after = Scrape::take(&mut clients[0], tally);
    let stats = clients[0].stats();

    // A seeded sample of served outcomes must equal an in-process run.
    for (job, served_outcome) in &samples {
        let local = execute(job, 0);
        tally.check(text(&local) == text(served_outcome), || {
            format!(
                "{}: served outcome differs from an in-process run",
                job.label
            )
        });
    }

    let (jobs_rates, cycle_rates) = log.window_rates(WINDOW_S, wall);
    e2e.set("jobs_per_s", median(&jobs_rates));
    e2e.set("sim_mcycles_per_s", median(&cycle_rates));
    log.export(e2e);
    eprintln!(
        "explore-mixed: {} requests, {} jobs, {} distinct new points, {} outcomes re-checked, \
         {:.2} s, p50 {:.2} ms, p99 {:.2} ms, jobs/s per window {:.0?}, set-up s {:.3?}",
        log.0.len(),
        log.jobs(),
        new_keys.len(),
        samples.len(),
        wall,
        e2e.get("req_p50_ms").unwrap_or(0.0),
        e2e.get("req_p99_ms").unwrap_or(0.0),
        jobs_rates,
        setups
    );
    fingerprint.compare_and_store(
        &ctx.out
            .join(format!("fingerprint-explore-mixed-s{}.txt", ctx.seed)),
        tally,
    );
    if ctx.tracer.enabled() {
        match &stats {
            Ok(s) => serve_layers(&before, &after, s, new_keys.len(), layers),
            Err(e) => tally.fail(format!("stats failed: {e}")),
        }
        log.export_traced(&ctx.tracer, layers);
        fingerprint.counts.export(layers);
        let mut stream = Explorer::new(ctx.seed, 0, Arc::clone(&pool));
        let mut sample = Vec::new();
        while sample.len() < PROBE_JOBS {
            sample.extend(
                stream
                    .next_request()
                    .into_iter()
                    .filter(|a| a.new)
                    .map(|a| a.job),
            );
        }
        sample.truncate(PROBE_JOBS);
        probe::run(
            &ctx.tracer,
            &sample,
            &ctx.work.join("probe-cache"),
            tally,
            layers,
        );
    }
    drop(clients);
    served.stop(tally);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};

    /// A job whose cycle budget is too small ends in `Timeout`; the
    /// timeout must count as a failure and make the run incorrect.
    #[test]
    fn a_timeout_raises_fail_frac_and_fails_the_run() {
        let job = Job::pipeline(
            "starved",
            KernelPair::simple("starved", 2, 5_000),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
        .with_max_cycles(50);
        let ok = Job::pipeline(
            "fine",
            KernelPair::simple("fine", 2, 20),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        );
        let batch = Engine::new(1).run_batch("t", vec![ok, job]);
        let mut tally = Tally::default();
        for r in &batch.records {
            tally.job(&r.label, &r.outcome);
        }
        assert!(matches!(
            batch.records[1].outcome,
            JobOutcome::Timeout { .. }
        ));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.fail_frac(), 0.5);
        assert!(!tally.correct());
    }

    #[test]
    fn lost_requests_count_every_job() {
        let mut tally = Tally::default();
        tally.lost(4, "busy".to_string());
        assert_eq!(tally.fail_frac(), 1.0);
        assert!(!tally.correct());
    }

    #[test]
    fn scrape_ratios_tolerate_missing_samples() {
        let before = Scrape::default();
        let mut after = Scrape::default();
        after.0.insert("hfs_jobs_submitted_total".into(), 10.0);
        after.0.insert("hfs_jobs_deduped_total".into(), 2.0);
        let mut m = Metrics::default();
        serve_layers(&before, &after, &ServeStats::default(), 0, &mut m);
        assert_eq!(m.get("serve.dedup_ratio"), Some(0.2));
        assert_eq!(m.get("serve.hot_hit_ratio"), Some(0.0));
        assert_eq!(m.get("serve.executed_over_new"), Some(0.0));
    }
}
