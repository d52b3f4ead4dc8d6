//! The `hfs-serve` server: connection handling, the single-flight
//! dispatcher, admission control, and graceful drain.
//!
//! # Architecture
//!
//! Each accepted connection gets a *reader* thread (parses client
//! frames) and a *writer* thread (drains an `mpsc` channel of server
//! frames), so slow clients never block job execution. Submitted jobs
//! flow into the [`Dispatcher`]: a mutex-guarded queue of *flights*
//! keyed by [`Job::key`]. A submission whose key is already queued or
//! running does not enqueue again — it attaches a waiter to the
//! existing flight (single-flight execution), and the one result fans
//! out to every waiter when the flight resolves.
//!
//! Workers pop flights, consult the shared result [`Cache`] (hot layer
//! first, then disk), and otherwise execute. Two worker modes share the
//! dispatcher: *thread mode* (the default) runs simulations on
//! in-process threads; *process mode* (`--workers N` /
//! `HFS_SERVE_WORKERS`) re-execs the server binary as `--worker` child
//! processes and proxies jobs to them over pipes using the same
//! length-prefixed JSON frames as the client protocol. In process mode
//! flights are sharded across workers by [`Job::key`], so the
//! single-flight guarantee needs no cross-process locking: one key maps
//! to one worker, and the parent-side dedup map is the only authority.
//! A crashed worker is restarted and its in-flight job re-dispatched
//! (bounded times; then the job resolves as
//! [`JobOutcome::WorkerDied`]).
//!
//! When every waiter of a flight disconnects, its queued entry is
//! discarded (or its running simulation is cancelled via
//! [`CancelToken`] — forwarded as a `cancel` frame in process mode); a
//! cancelled flight that gained new waiters before the worker noticed
//! is transparently re-enqueued with a fresh token.
//!
//! Admission control bounds the flight queue: a submission that would
//! push it past the limit is rejected whole with a `busy` frame —
//! never partially accepted. Submissions whose keys sit in the
//! in-memory hot cache resolve inline during `submit`, consuming no
//! queue slot and no worker round-trip.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hfs_harness::{
    env_parse, execute_with, Cache, ExecCtx, HotCache, HotEntry, Job, JobOutcome, Settings,
};
use hfs_obs::{Counter, Gauge, HistogramMetric, Registry};
use hfs_sim::CancelToken;

use crate::net::{Endpoint, Listener};
use crate::proto::{ClientFrame, JobRef, JobResult, ServeStats, ServerFrame, Subscribe};
use crate::signal;
use crate::worker::{WorkerReply, WorkerRequest};

/// Admission-control queue bound environment variable
/// (`HFS_SERVE_QUEUE_LIMIT`).
pub const ENV_QUEUE_LIMIT: &str = "HFS_SERVE_QUEUE_LIMIT";

/// Worker-process count environment variable (`HFS_SERVE_WORKERS`);
/// `0` (the default) executes on in-process threads instead.
pub const ENV_WORKERS: &str = "HFS_SERVE_WORKERS";

/// Default bound on queued (not yet running) flights.
pub const DEFAULT_QUEUE_LIMIT: usize = 1024;

/// How many worker deaths one job survives before it resolves as
/// [`JobOutcome::WorkerDied`] instead of being re-dispatched. A job
/// that reliably kills its worker (e.g. by exhausting memory) would
/// otherwise crash-loop the pool forever.
const MAX_WORKER_CRASHES: u32 = 2;

/// Results buffered per `subscribe: final` batch before a
/// [`ServerFrame::BatchResults`] chunk is flushed.
const BATCH_CHUNK: usize = 256;

/// Server tuning knobs. Connection/drain logging is no longer a config
/// flag: it goes through the `hfs-obs` logger, so `HFS_LOG` controls it
/// (accept/close at debug, drain milestones at info, failures at
/// warn/error).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker (simulation) threads when running in thread mode.
    pub workers: usize,
    /// Worker *processes* (`--workers` / `HFS_SERVE_WORKERS`): when
    /// nonzero, the server re-execs its own binary `--worker` this many
    /// times and shards flights across the children by job key; `0`
    /// (the default) executes on in-process threads.
    pub process_workers: usize,
    /// Binary to re-exec as `--worker` children; `None` uses
    /// `std::env::current_exe()`. Tests point this at a specific built
    /// `hfs-serve`.
    pub worker_bin: Option<PathBuf>,
    /// Maximum queued flights before submissions get `busy`.
    pub queue_limit: usize,
    /// On-disk result cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Hot-cache budget in MiB: `None` honors `HFS_HOT_CACHE_MB`,
    /// `Some(0)` disables the in-memory layer, `Some(n)` forces `n`
    /// MiB.
    pub hot_cache_mb: Option<u64>,
    /// Retries applied to jobs that don't override their own.
    pub default_retries: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            process_workers: 0,
            worker_bin: None,
            queue_limit: DEFAULT_QUEUE_LIMIT,
            cache_dir: None,
            hot_cache_mb: None,
            default_retries: 0,
        }
    }
}

impl ServerConfig {
    /// The production configuration: the [`Settings`] the offline
    /// engine reads (workers, cache, retries), plus
    /// `HFS_SERVE_QUEUE_LIMIT` for admission control and
    /// `HFS_SERVE_WORKERS` for the worker-process count (the hot-cache
    /// budget rides on `HFS_HOT_CACHE_MB` inside the harness cache).
    pub fn from_env() -> ServerConfig {
        let settings = Settings::from_env();
        ServerConfig {
            workers: settings.jobs,
            process_workers: env_parse(ENV_WORKERS).unwrap_or(0),
            worker_bin: None,
            queue_limit: env_parse(ENV_QUEUE_LIMIT)
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_QUEUE_LIMIT),
            cache_dir: settings.cache_dir,
            hot_cache_mb: None,
            default_retries: settings.retries,
        }
    }
}

/// One batch submission's delivery state, shared by its waiters.
struct BatchState {
    experiment: String,
    /// Batch id echoed on every response frame; 0 on the legacy
    /// `submit` path.
    id: u64,
    subscribe: Subscribe,
    remaining: AtomicUsize,
    all_ok: AtomicBool,
    /// Resolved results awaiting a `batch_results` flush
    /// (`subscribe: final` only).
    buffer: Mutex<Vec<JobResult>>,
    tx: Sender<ServerFrame>,
}

impl BatchState {
    /// Delivers one resolved job to this batch: counts it, streams it
    /// per the subscription level, and emits the final chunk plus the
    /// `done` frame when it is the last one. `encoded`, when present,
    /// is the outcome's cached serialization and is spliced into
    /// `batch_results` frames instead of re-encoding.
    // One call site per resolution path; a params struct would just
    // restate the field list.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &self,
        obs: &Telemetry,
        index: u64,
        label: String,
        key: &str,
        cached: bool,
        outcome: JobOutcome,
        encoded: Option<Arc<str>>,
    ) {
        obs.delivered.inc();
        if !outcome.is_ok() {
            self.all_ok.store(false, Ordering::Relaxed);
        }
        match self.subscribe {
            Subscribe::All => {
                let _ = self.tx.send(ServerFrame::Job {
                    experiment: self.experiment.clone(),
                    index,
                    label,
                    key: key.to_string(),
                    cached,
                    outcome,
                });
            }
            Subscribe::Final => {
                let mut buf = self.buffer.lock().unwrap();
                buf.push(JobResult {
                    index,
                    label,
                    key: key.to_string(),
                    cached,
                    outcome,
                    encoded,
                });
                if buf.len() >= BATCH_CHUNK {
                    let results = std::mem::take(&mut *buf);
                    // Send while still holding the buffer lock: the
                    // final flush below also sends under it, so a chunk
                    // can never be ordered after `done`.
                    let _ = self.tx.send(ServerFrame::BatchResults {
                        experiment: self.experiment.clone(),
                        id: self.id,
                        results,
                    });
                }
            }
            Subscribe::None => {}
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut buf = self.buffer.lock().unwrap();
            let results = std::mem::take(&mut *buf);
            if !results.is_empty() {
                let _ = self.tx.send(ServerFrame::BatchResults {
                    experiment: self.experiment.clone(),
                    id: self.id,
                    results,
                });
            }
            let _ = self.tx.send(ServerFrame::Done {
                experiment: self.experiment.clone(),
                ok: self.all_ok.load(Ordering::Relaxed),
                id: self.id,
            });
        }
    }
}

/// One waiter: a (connection, batch, index) triple expecting a result.
struct Waiter {
    conn_id: u64,
    index: usize,
    label: String,
    batch: Arc<BatchState>,
}

/// One entry of an admitted chunk: label, key, cache hit, and the job
/// (`None` for a `submit_refs` reference).
type Admitted = (String, String, Option<Arc<HotEntry>>, Option<Job>);

/// One deduplicated unit of execution.
struct Flight {
    job: Arc<Job>,
    cancel: CancelToken,
    running: bool,
    /// The worker-process index executing this flight (process mode
    /// only) — the address `drop_conn` forwards `cancel` frames to.
    worker: Option<usize>,
    waiters: Vec<Waiter>,
    /// When the flight (re-)entered the queue — the lifecycle "queued"
    /// timestamp from which queue wait is measured at worker pickup.
    enqueued_at: Instant,
}

struct DispatchInner {
    /// One queue per shard: a single queue in thread mode, one per
    /// worker process in process mode (shard = key hash % workers), so
    /// a key always executes on the same worker and single-flight
    /// dedup needs no cross-process coordination.
    queues: Vec<VecDeque<String>>,
    flights: HashMap<String, Flight>,
    running: usize,
    draining: bool,
}

impl DispatchInner {
    fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn idle(&self) -> bool {
        self.running == 0 && self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Upper bucket (milliseconds) for the dispatcher's latency histograms.
const LATENCY_HISTOGRAM_MAX_MS: usize = 60_000;

/// The dispatcher's telemetry: every counter the `Stats` frame reports
/// lives in one [`Registry`], so the `stats` view and the Prometheus
/// exposition can never disagree. Gauges mirror the queue/flight state
/// maintained under the dispatcher lock; the two histograms record the
/// job lifecycle (queued→executing wait, executing→completed wall) and
/// are observed only on the executed path, so
/// `hfs_job_queue_wait_ms_count == hfs_jobs_executed_total` holds
/// exactly at quiescence.
struct Telemetry {
    registry: Registry,
    submitted: Counter,
    executed: Counter,
    cache_hits: Counter,
    deduped: Counter,
    cancelled: Counter,
    aborted: Counter,
    rejected: Counter,
    delivered: Counter,
    retries: Counter,
    timeouts: Counter,
    worker_restarts: Counter,
    queue_depth: Gauge,
    in_flight: Gauge,
    open_conns: Gauge,
    draining: Gauge,
    queue_wait_ms: HistogramMetric,
    exec_wall_ms: HistogramMetric,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        let registry = Registry::new();
        Telemetry {
            submitted: registry.counter("hfs_jobs_submitted_total"),
            executed: registry.counter("hfs_jobs_executed_total"),
            cache_hits: registry.counter("hfs_jobs_cache_hits_total"),
            deduped: registry.counter("hfs_jobs_deduped_total"),
            cancelled: registry.counter("hfs_jobs_cancelled_total"),
            aborted: registry.counter("hfs_jobs_aborted_total"),
            rejected: registry.counter("hfs_batches_rejected_total"),
            delivered: registry.counter("hfs_jobs_delivered_total"),
            retries: registry.counter("hfs_job_retries_total"),
            timeouts: registry.counter("hfs_job_timeouts_total"),
            worker_restarts: registry.counter("hfs_worker_restarts_total"),
            queue_depth: registry.gauge("hfs_queue_depth"),
            in_flight: registry.gauge("hfs_jobs_in_flight"),
            open_conns: registry.gauge("hfs_open_connections"),
            draining: registry.gauge("hfs_draining"),
            queue_wait_ms: registry.histogram("hfs_job_queue_wait_ms", LATENCY_HISTOGRAM_MAX_MS),
            exec_wall_ms: registry.histogram("hfs_job_exec_wall_ms", LATENCY_HISTOGRAM_MAX_MS),
            registry,
        }
    }
}

/// Why a submission was refused.
enum Rejected {
    /// Admission control: the new keys would overflow the queue.
    Busy {
        queued: u64,
        limit: u64,
    },
    /// `submit_refs` only: these chunk-relative indexes resolved neither
    /// from the cache nor from an in-flight execution; the client must
    /// re-send the chunk with full specs.
    Miss(Vec<u64>),
    Draining,
}

impl Rejected {
    /// The frame that answers rejected chunk `id`.
    fn frame(self, id: u64) -> ServerFrame {
        match self {
            Rejected::Busy { queued, limit } => ServerFrame::Busy { queued, limit, id },
            Rejected::Miss(missing) => ServerFrame::RefsMiss { id, missing },
            Rejected::Draining => ServerFrame::ShuttingDown,
        }
    }
}

/// The parent side of the worker-process pool: per-worker stdin
/// handles (shared so `drop_conn` can forward cancels while the
/// worker's proxy thread is blocked on its stdout) and per-shard
/// telemetry.
struct ProcPool {
    worker_bin: PathBuf,
    stdins: Vec<Mutex<Option<std::process::ChildStdin>>>,
    shard_depth: Vec<Gauge>,
}

/// A spawned `--worker` child owned by its proxy thread.
struct WorkerChild {
    child: Child,
    stdout: std::process::ChildStdout,
}

fn spawn_worker(bin: &std::path::Path) -> io::Result<(WorkerChild, std::process::ChildStdin)> {
    let mut child = std::process::Command::new(bin)
        .arg("--worker")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        // stderr (and HFS_LOG) is inherited, but the child must not
        // append to the parent's structured log file: two processes
        // sharing one file would interleave their seq counters.
        .env_remove("HFS_LOG_FILE")
        .spawn()?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    Ok((WorkerChild { child, stdout }, stdin))
}

/// The shared execution core behind every connection.
struct Dispatcher {
    inner: Mutex<DispatchInner>,
    work_ready: Condvar,
    drained: Condvar,
    obs: Telemetry,
    cache: Option<Cache>,
    queue_limit: usize,
    default_retries: u32,
    /// Queue shards: 1 in thread mode, the worker count in process
    /// mode.
    nshards: usize,
    /// Present only in process mode.
    proc: Option<ProcPool>,
}

impl Dispatcher {
    fn new(config: &ServerConfig) -> Dispatcher {
        let obs = Telemetry::default();
        let hot = match config.hot_cache_mb {
            None => HotCache::from_env(),
            Some(0) => None,
            Some(mb) => Some(Arc::new(HotCache::new(mb << 20))),
        };
        let cache = config
            .cache_dir
            .as_ref()
            .map(|dir| Cache::with_hot(dir, hot));
        if let Some(h) = cache.as_ref().and_then(Cache::hot) {
            h.install_metrics(&obs.registry);
        }
        let nshards = config.process_workers.max(1);
        let proc = (config.process_workers > 0).then(|| ProcPool {
            worker_bin: config.worker_bin.clone().unwrap_or_else(|| {
                std::env::current_exe().unwrap_or_else(|_| PathBuf::from("hfs-serve"))
            }),
            stdins: (0..config.process_workers)
                .map(|_| Mutex::new(None))
                .collect(),
            shard_depth: (0..config.process_workers)
                .map(|i| obs.registry.gauge(&format!("hfs_worker_queue_depth_w{i}")))
                .collect(),
        });
        Dispatcher {
            inner: Mutex::new(DispatchInner {
                queues: (0..nshards).map(|_| VecDeque::new()).collect(),
                flights: HashMap::new(),
                running: 0,
                draining: false,
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            obs,
            cache,
            queue_limit: config.queue_limit,
            default_retries: config.default_retries,
            nshards,
            proc,
        }
    }

    /// The shard (queue index / worker process) a key belongs to. Keys
    /// are 16 lowercase hex digits of an FNV-1a hash, so the leading
    /// digits are uniformly distributed.
    fn shard_of(&self, key: &str) -> usize {
        if self.nshards == 1 {
            return 0;
        }
        let h = u64::from_str_radix(key.get(..8).unwrap_or("0"), 16).unwrap_or(0);
        (h as usize) % self.nshards
    }

    /// Refreshes the queue-depth gauges from the queues' state; call
    /// under the dispatcher lock after any queue mutation.
    fn note_queue_depth(&self, inner: &DispatchInner) {
        self.obs.queue_depth.set(inner.queued_total() as i64);
        if let Some(pool) = &self.proc {
            for (gauge, queue) in pool.shard_depth.iter().zip(&inner.queues) {
                gauge.set(queue.len() as i64);
            }
        }
    }

    fn stats(&self) -> ServeStats {
        let inner = self.inner.lock().unwrap();
        ServeStats {
            submitted: self.obs.submitted.get(),
            executed: self.obs.executed.get(),
            cache_hits: self.obs.cache_hits.get(),
            deduped: self.obs.deduped.get(),
            cancelled: self.obs.cancelled.get(),
            aborted: self.obs.aborted.get(),
            rejected: self.obs.rejected.get(),
            delivered: self.obs.delivered.get(),
            queued: inner.queued_total() as u64,
            running: inner.running as u64,
            draining: inner.draining,
        }
    }

    /// The live metric registry rendered as Prometheus text — the
    /// payload of the `metrics` frame.
    fn metrics_text(&self) -> String {
        self.obs.registry.render_prometheus()
    }

    /// Admits a whole batch or rejects it whole (see
    /// [`Dispatcher::admit`] for what admission does).
    ///
    /// Jobs whose keys sit in the in-memory hot cache resolve at
    /// admission: they count as cache hits, consume no queue slot (so a
    /// warm re-sweep never trips admission control), and never touch a
    /// worker.
    fn submit(
        &self,
        conn_id: u64,
        tx: &Sender<ServerFrame>,
        experiment: &str,
        id: u64,
        subscribe: Subscribe,
        jobs: Vec<Job>,
    ) -> Result<u64, Rejected> {
        let keys: Vec<String> = jobs.iter().map(Job::key).collect();
        let hot: Vec<Option<Arc<HotEntry>>> = match &self.cache {
            Some(cache) => keys.iter().map(|k| cache.hot_entry(k)).collect(),
            None => vec![None; keys.len()],
        };
        let inner = self.inner.lock().unwrap();
        if inner.draining {
            return Err(Rejected::Draining);
        }
        let new_keys: HashSet<&str> = keys
            .iter()
            .zip(&hot)
            .filter(|(k, h)| h.is_none() && !inner.flights.contains_key(k.as_str()))
            .map(|(k, _)| k.as_str())
            .collect();
        if inner.queued_total() + new_keys.len() > self.queue_limit {
            self.obs.rejected.inc();
            return Err(Rejected::Busy {
                queued: inner.queued_total() as u64,
                limit: self.queue_limit as u64,
            });
        }
        let entries = jobs
            .into_iter()
            .zip(keys)
            .zip(hot)
            .map(|((job, key), hit)| (job.label.clone(), key, hit, Some(job)))
            .collect();
        Ok(self.admit(inner, conn_id, tx, experiment, id, subscribe, entries))
    }

    /// Admits a `submit_refs` chunk: every reference must resolve from
    /// the result cache (hot or disk) or attach to an in-flight
    /// execution of its key, else the whole chunk is refused with the
    /// missing indexes and *nothing* is mutated — no counters, no
    /// queue slots, no waiters — so the client's full-spec re-send
    /// starts from a clean slate. Resolved references deliver inline
    /// as cache hits and consume no queue slot, exactly like the
    /// hot-path resolution in [`Dispatcher::submit`], so admission
    /// control never applies to a refs chunk.
    fn submit_refs(
        &self,
        conn_id: u64,
        tx: &Sender<ServerFrame>,
        experiment: &str,
        id: u64,
        subscribe: Subscribe,
        refs: Vec<JobRef>,
    ) -> Result<u64, Rejected> {
        // Cache probes can do IO (a disk read on hot-layer miss), so
        // they run before the dispatcher lock. Entries carry the
        // outcome's cached serialization, which delivery splices into
        // result frames instead of re-encoding per hit.
        let hits: Vec<Option<Arc<HotEntry>>> = match &self.cache {
            Some(cache) => refs.iter().map(|r| cache.load_entry(&r.key)).collect(),
            None => vec![None; refs.len()],
        };
        let inner = self.inner.lock().unwrap();
        if inner.draining {
            return Err(Rejected::Draining);
        }
        let missing: Vec<u64> = refs
            .iter()
            .zip(&hits)
            .enumerate()
            .filter(|(_, (r, hit))| hit.is_none() && !inner.flights.contains_key(r.key.as_str()))
            .map(|(i, _)| i as u64)
            .collect();
        if !missing.is_empty() {
            return Err(Rejected::Miss(missing));
        }
        let entries = refs
            .into_iter()
            .zip(hits)
            .map(|(r, hit)| (r.label, r.key, hit, None))
            .collect();
        Ok(self.admit(inner, conn_id, tx, experiment, id, subscribe, entries))
    }

    /// The admission tail of [`Dispatcher::submit`] and
    /// [`Dispatcher::submit_refs`], entered under the dispatcher lock
    /// once the whole chunk is admitted. It sends `accepted` (and, for
    /// an empty chunk, `done`) before any worker can pop the new
    /// flights, so clients see `accepted` before the first result
    /// frame. Then, per entry, a cache hit delivers inline; anything
    /// else waits on its key's flight, which the entry's job starts if
    /// there is none. Only `submit` passes jobs: `submit_refs` has
    /// already refused any reference with neither a hit nor a flight.
    /// Returns the chunk's job count.
    // Both callers pass their request fields straight through; a params
    // struct would just restate them.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        mut inner: MutexGuard<'_, DispatchInner>,
        conn_id: u64,
        tx: &Sender<ServerFrame>,
        experiment: &str,
        id: u64,
        subscribe: Subscribe,
        entries: Vec<Admitted>,
    ) -> u64 {
        let total = entries.len() as u64;
        let _ = tx.send(ServerFrame::Accepted {
            experiment: experiment.to_string(),
            total,
            id,
        });
        if entries.is_empty() {
            let _ = tx.send(ServerFrame::Done {
                experiment: experiment.to_string(),
                ok: true,
                id,
            });
            return 0;
        }
        let batch = Arc::new(BatchState {
            experiment: experiment.to_string(),
            id,
            subscribe,
            remaining: AtomicUsize::new(entries.len()),
            all_ok: AtomicBool::new(true),
            buffer: Mutex::new(Vec::new()),
            tx: tx.clone(),
        });
        let mut enqueued = false;
        for (index, (label, key, hit, job)) in entries.into_iter().enumerate() {
            self.obs.submitted.inc();
            if let Some(entry) = hit {
                self.obs.cache_hits.inc();
                batch.deliver(
                    &self.obs,
                    index as u64,
                    label,
                    &key,
                    true,
                    entry.outcome().clone(),
                    Some(Arc::clone(entry.json_arc())),
                );
                continue;
            }
            let waiter = Waiter {
                conn_id,
                index,
                label,
                batch: Arc::clone(&batch),
            };
            if let Some(flight) = inner.flights.get_mut(&key) {
                self.obs.deduped.inc();
                flight.waiters.push(waiter);
                continue;
            }
            let job = job.expect("a reference without a hit has a flight");
            let shard = self.shard_of(&key);
            inner.flights.insert(
                key.clone(),
                Flight {
                    job: Arc::new(job),
                    cancel: CancelToken::new(),
                    running: false,
                    worker: None,
                    waiters: vec![waiter],
                    enqueued_at: Instant::now(),
                },
            );
            inner.queues[shard].push_back(key);
            enqueued = true;
        }
        if enqueued {
            self.note_queue_depth(&inner);
            drop(inner);
            self.work_ready.notify_all();
        }
        total
    }

    /// Blocks until shard `idx` has work (returning its pickup state)
    /// or the drain condition holds (returning `None`, at which point
    /// the caller thread exits).
    fn next_flight(&self, idx: usize) -> Option<(String, Arc<Job>, CancelToken, u64)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(key) = inner.queues[idx].pop_front() {
                let flight = inner
                    .flights
                    .get_mut(&key)
                    .expect("queued key has a flight");
                flight.running = true;
                flight.worker = Some(idx);
                let job = Arc::clone(&flight.job);
                let cancel = flight.cancel.clone();
                let queue_wait_ms = flight.enqueued_at.elapsed().as_millis() as u64;
                inner.running += 1;
                self.obs.in_flight.set(inner.running as i64);
                self.note_queue_depth(&inner);
                return Some((key, job, cancel, queue_wait_ms));
            }
            if inner.draining && inner.idle() {
                return None;
            }
            inner = self.work_ready.wait(inner).unwrap();
        }
    }

    /// One worker: pop from shard `idx`, resolve from the cache or
    /// execute, deliver. Thread mode executes in-process; process mode
    /// round-trips the job through worker `idx`'s child process,
    /// spawned on first use, restarted (bounded) if it dies mid-job, and
    /// reaped at drain.
    fn worker_loop(&self, idx: usize) {
        let mut child: Option<WorkerChild> = None;
        while let Some((key, job, cancel, queue_wait_ms)) = self.next_flight(idx) {
            let executing_at = Instant::now();
            let (outcome, cached) = match self.cache.as_ref().and_then(|c| c.load(&key)) {
                Some(hit) => (hit, true),
                None => {
                    let (outcome, retries) = match self.proc {
                        None => {
                            let ctx = ExecCtx::default().with_retries(self.default_retries);
                            execute_with(&job, &ctx.with_cancel(cancel))
                        }
                        // The child's cancel arrives as a `cancel` frame
                        // from `drop_conn`.
                        Some(_) => self.run_on_child(&mut child, idx, &key, &job),
                    };
                    self.obs.retries.add(u64::from(retries));
                    if let Some(cache) = &self.cache {
                        cache.store(&key, &outcome);
                    }
                    (outcome, false)
                }
            };
            if cached {
                self.obs.cache_hits.inc();
            } else if !matches!(outcome, JobOutcome::Cancelled) {
                // The executed path is the only one that observes the
                // lifecycle histograms, keeping
                // `queue_wait count == executed` an exact invariant.
                self.obs.executed.inc();
                self.obs.queue_wait_ms.observe(queue_wait_ms);
                self.obs
                    .exec_wall_ms
                    .observe(executing_at.elapsed().as_millis() as u64);
            }
            if matches!(outcome, JobOutcome::Timeout { .. }) {
                self.obs.timeouts.inc();
            }
            self.complete(&key, outcome, cached);
        }
        if self.proc.is_some() {
            self.reap_worker(idx, child);
        }
    }

    /// Executes one job on worker `idx`'s child process, spawning or
    /// respawning it as needed. A child that dies mid-job (crash, OOM
    /// kill, operator `kill -9`) is restarted and the job re-sent, up
    /// to [`MAX_WORKER_CRASHES`] deaths; after that the job resolves as
    /// [`JobOutcome::WorkerDied`] so the batch still completes with a
    /// structured error instead of hanging.
    fn run_on_child(
        &self,
        child: &mut Option<WorkerChild>,
        idx: usize,
        key: &str,
        job: &Job,
    ) -> (JobOutcome, u32) {
        let pool = self.proc.as_ref().expect("process mode");
        // A worker death is a transient harness failure like a watchdog
        // timeout, so the operator's `HFS_RETRIES` extends the default
        // crash budget exactly as it extends in-process retries. Every
        // respawn re-sends the job from scratch, so each attempt gets a
        // fresh progress (cycle-budget) deadline.
        let budget = MAX_WORKER_CRASHES.max(self.default_retries);
        let mut crashes: u32 = 0;
        loop {
            if crashes > budget {
                return (
                    JobOutcome::WorkerDied(format!(
                        "worker {idx} died {crashes} times running this job"
                    )),
                    0,
                );
            }
            if child.is_none() {
                // Once drain begins, a dead child is reaped but never
                // respawned: the in-flight job resolves with a
                // structured outcome instead of spinning up a process
                // the shutdown path would immediately have to kill.
                if crashes > 0 && self.inner.lock().unwrap().draining {
                    return (
                        JobOutcome::WorkerDied(format!(
                            "worker {idx} died during drain; not respawned"
                        )),
                        0,
                    );
                }
                match spawn_worker(&pool.worker_bin) {
                    Ok((c, stdin)) => {
                        hfs_obs::debug(
                            "serve",
                            "worker_spawned",
                            &[
                                ("worker", u64::from(idx as u32).into()),
                                ("pid", u64::from(c.child.id()).into()),
                            ],
                        );
                        *pool.stdins[idx].lock().unwrap() = Some(stdin);
                        *child = Some(c);
                    }
                    Err(e) => {
                        crashes += 1;
                        self.obs.worker_restarts.inc();
                        hfs_obs::error(
                            "serve",
                            "worker_spawn_failed",
                            &[
                                ("worker", u64::from(idx as u32).into()),
                                ("error", e.to_string().into()),
                            ],
                        );
                        std::thread::sleep(Duration::from_millis(100));
                        continue;
                    }
                }
            }
            let request = WorkerRequest::Run {
                key: key.to_string(),
                retries: self.default_retries,
                job: job.clone(),
            };
            let sent = {
                let mut stdin = pool.stdins[idx].lock().unwrap();
                match stdin.as_mut() {
                    Some(s) => crate::proto::write_frame(s, &request.to_json()).is_ok(),
                    None => false,
                }
            };
            if !sent {
                // The child died while idle; count it and respawn.
                self.note_worker_death(idx, child, &mut crashes, "write failed");
                continue;
            }
            let reply = {
                let c = child.as_mut().expect("child was just ensured");
                crate::proto::read_frame(&mut c.stdout)
                    .ok()
                    .flatten()
                    .and_then(|v| WorkerReply::from_json(&v).ok())
            };
            match reply {
                Some(r) if r.key == key => return (r.outcome, r.retries_used),
                Some(r) => {
                    // A reply for another key breaks the
                    // one-outstanding protocol; treat the child as
                    // wedged.
                    self.note_worker_death(
                        idx,
                        child,
                        &mut crashes,
                        &format!("protocol error: reply for {:?}", r.key),
                    );
                }
                None => {
                    self.note_worker_death(idx, child, &mut crashes, "died mid-job");
                }
            }
        }
    }

    /// Records one worker-process death: reaps the corpse, clears its
    /// shared stdin slot, and bumps the restart telemetry.
    fn note_worker_death(
        &self,
        idx: usize,
        child: &mut Option<WorkerChild>,
        crashes: &mut u32,
        why: &str,
    ) {
        let pool = self.proc.as_ref().expect("process mode");
        *pool.stdins[idx].lock().unwrap() = None;
        if let Some(mut c) = child.take() {
            let _ = c.child.kill();
            let _ = c.child.wait();
        }
        *crashes += 1;
        self.obs.worker_restarts.inc();
        hfs_obs::warn(
            "serve",
            "worker_died",
            &[
                ("worker", u64::from(idx as u32).into()),
                ("reason", why.into()),
            ],
        );
    }

    /// Gracefully retires worker `idx`'s child at drain: sends `exit`,
    /// closes its stdin, and reaps it (with a bounded wait, then a
    /// kill) so a drained server leaves no orphan processes behind.
    fn reap_worker(&self, idx: usize, child: Option<WorkerChild>) {
        let pool = self.proc.as_ref().expect("process mode");
        let stdin = pool.stdins[idx].lock().unwrap().take();
        if let Some(mut s) = stdin {
            let _ = crate::proto::write_frame(&mut s, &WorkerRequest::Exit.to_json());
            // Dropping the handle closes the pipe: EOF is the backup
            // exit signal if the frame never arrived.
        }
        let Some(mut c) = child else { return };
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match c.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = c.child.kill();
                    let _ = c.child.wait();
                    return;
                }
            }
        }
    }

    /// Resolves a flight: fan the outcome out to every waiter, or
    /// re-enqueue if it was cancelled but picked up new waiters.
    fn complete(&self, key: &str, outcome: JobOutcome, cached: bool) {
        let mut inner = self.inner.lock().unwrap();
        inner.running -= 1;
        self.obs.in_flight.set(inner.running as i64);
        let mut flight = inner
            .flights
            .remove(key)
            .expect("completed key has a flight");
        if matches!(outcome, JobOutcome::Cancelled) && !flight.waiters.is_empty() {
            // Cancellation raced with a fresh submission: the new
            // waiters deserve a real result, so run it again with a
            // token nobody has fired.
            flight.cancel = CancelToken::new();
            flight.running = false;
            flight.worker = None;
            flight.enqueued_at = Instant::now();
            let shard = self.shard_of(key);
            inner.flights.insert(key.to_string(), flight);
            inner.queues[shard].push_back(key.to_string());
            self.note_queue_depth(&inner);
            drop(inner);
            self.work_ready.notify_all();
            return;
        }
        // One serialization shared by every chunk-delivered waiter;
        // skipped entirely when nobody buffers results (per-job `job`
        // frames encode the outcome themselves). Failures are rare
        // enough to encode per-waiter.
        let wants_encoded = outcome.is_ok()
            && flight
                .waiters
                .iter()
                .any(|w| matches!(w.batch.subscribe, Subscribe::Final));
        let encoded: Option<Arc<str>> =
            wants_encoded.then(|| hfs_harness::outcome_to_json(&outcome).to_pretty().into());
        for w in &flight.waiters {
            w.batch.deliver(
                &self.obs,
                w.index as u64,
                w.label.clone(),
                key,
                cached,
                outcome.clone(),
                encoded.clone(),
            );
        }
        let drained = inner.draining && inner.idle();
        drop(inner);
        // Wake idle workers so they can observe the drain condition,
        // and the drain waiter itself.
        self.work_ready.notify_all();
        if drained {
            self.drained.notify_all();
        }
    }

    /// Detaches a disconnected client: removes its waiters everywhere,
    /// discards queued flights nobody else wants, and cancels running
    /// ones.
    fn drop_conn(&self, conn_id: u64) {
        let mut inner = self.inner.lock().unwrap();
        let mut dead_queued: Vec<String> = Vec::new();
        let mut cancel_on_worker: Vec<(usize, String)> = Vec::new();
        for (key, flight) in &mut inner.flights {
            flight.waiters.retain(|w| w.conn_id != conn_id);
            if flight.waiters.is_empty() {
                if flight.running {
                    flight.cancel.cancel();
                    self.obs.cancelled.inc();
                    if let Some(widx) = flight.worker {
                        if self.proc.is_some() {
                            cancel_on_worker.push((widx, key.clone()));
                        }
                    }
                } else {
                    dead_queued.push(key.clone());
                }
            }
        }
        for key in &dead_queued {
            inner.flights.remove(key);
            for queue in &mut inner.queues {
                queue.retain(|k| k != key);
            }
            self.obs.aborted.inc();
        }
        self.note_queue_depth(&inner);
        let drained = inner.draining && inner.idle();
        drop(inner);
        // Forward cancels into the worker processes (best-effort: a
        // result that already raced back simply wins).
        if let Some(pool) = &self.proc {
            for (widx, key) in cancel_on_worker {
                if let Some(stdin) = pool.stdins[widx].lock().unwrap().as_mut() {
                    let _ =
                        crate::proto::write_frame(stdin, &WorkerRequest::Cancel { key }.to_json());
                }
            }
        }
        if drained {
            self.drained.notify_all();
        }
    }

    fn begin_drain(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.draining = true;
        self.obs.draining.set(1);
        let drained = inner.idle();
        drop(inner);
        self.work_ready.notify_all();
        if drained {
            self.drained.notify_all();
        }
    }

    fn is_draining(&self) -> bool {
        self.inner.lock().unwrap().draining
    }

    /// Blocks until draining has been requested *and* all accepted work
    /// has resolved.
    fn wait_drained(&self) {
        let mut inner = self.inner.lock().unwrap();
        while !(inner.draining && inner.idle()) {
            inner = self.drained.wait(inner).unwrap();
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    dispatcher: Arc<Dispatcher>,
    listener: Listener,
    unix_path: Option<PathBuf>,
    endpoint_desc: String,
    workers: usize,
}

impl Server {
    /// Binds a server to `endpoint` with the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(endpoint: &Endpoint, config: &ServerConfig) -> io::Result<Server> {
        let listener = endpoint.bind()?;
        let unix_path = match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(p) => Some(p.clone()),
            #[allow(unreachable_patterns)]
            _ => None,
        };
        Ok(Server {
            dispatcher: Arc::new(Dispatcher::new(config)),
            listener,
            unix_path,
            endpoint_desc: endpoint.to_string(),
            workers: config.workers.max(1),
        })
    }

    /// The bound TCP address when listening on TCP (for port-0 binds in
    /// tests).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.tcp_addr()
    }

    /// A human-readable description of where the server listens.
    pub fn endpoint(&self) -> &str {
        &self.endpoint_desc
    }

    /// Runs until drained: accepts connections and executes submissions
    /// until a `shutdown` frame arrives or SIGTERM/SIGINT is latched,
    /// then finishes all accepted work, delivers every pending result,
    /// and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures; per-connection I/O
    /// errors only tear down that connection.
    pub fn run(self) -> io::Result<ServeStats> {
        let Server {
            dispatcher,
            listener,
            unix_path,
            endpoint_desc,
            workers,
        } = self;
        // Thread mode: `workers` threads share the one shard. Process
        // mode: one proxy thread per worker process, each on its shard.
        let threads = if dispatcher.proc.is_some() {
            dispatcher.nshards
        } else {
            workers
        };
        let worker_handles: Vec<_> = (0..threads)
            .map(|i| {
                let d = Arc::clone(&dispatcher);
                std::thread::spawn(move || d.worker_loop(i % d.nshards))
            })
            .collect();

        listener.set_nonblocking(true)?;
        let live_conns = Arc::new(AtomicUsize::new(0));
        let mut next_conn_id: u64 = 0;
        loop {
            if signal::term_requested() || dispatcher.is_draining() {
                dispatcher.begin_drain();
                break;
            }
            match listener.accept() {
                Ok(stream) => {
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    hfs_obs::debug("serve", "connection_accepted", &[("conn", conn_id.into())]);
                    let d = Arc::clone(&dispatcher);
                    let conns = Arc::clone(&live_conns);
                    conns.fetch_add(1, Ordering::SeqCst);
                    d.obs.open_conns.inc();
                    std::thread::spawn(move || {
                        handle_conn(&d, stream, conn_id);
                        d.obs.open_conns.dec();
                        conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    hfs_obs::error(
                        "serve",
                        "accept_failed",
                        &[
                            ("endpoint", endpoint_desc.as_str().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }

        // Stop listening first so no connection can arrive after the
        // drain decision, then finish everything already accepted.
        drop(listener);
        if let Some(path) = &unix_path {
            let _ = std::fs::remove_file(path);
        }
        dispatcher.wait_drained();
        for h in worker_handles {
            let _ = h.join();
        }
        // Give connection writer threads a bounded window to flush the
        // final frames to still-attached clients. Connections close as
        // clients read their `done`/`shutting_down` frames; a client
        // that lingers forever only costs this timeout.
        let deadline = Instant::now() + Duration::from_secs(5);
        while live_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        hfs_obs::info(
            "serve",
            "drained",
            &[("endpoint", endpoint_desc.as_str().into())],
        );
        Ok(dispatcher.stats())
    }
}

/// Reader side of one connection; spawns its paired writer thread.
fn handle_conn(dispatcher: &Dispatcher, stream: crate::net::Stream, conn_id: u64) {
    let (tx, rx) = channel::<ServerFrame>();
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            hfs_obs::error(
                "serve",
                "stream_clone_failed",
                &[("conn", conn_id.into()), ("error", e.to_string().into())],
            );
            return;
        }
    };
    let writer = std::thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            if frame.write_to(&mut write_half).is_err() {
                break;
            }
        }
        let _ = write_half.flush();
    });

    let mut read_half = stream;
    loop {
        match ClientFrame::read_from(&mut read_half) {
            Ok(None) => break,
            Err(e) => {
                hfs_obs::warn(
                    "serve",
                    "connection_error",
                    &[("conn", conn_id.into()), ("error", e.to_string().into())],
                );
                let _ = tx.send(ServerFrame::Error {
                    message: e.to_string(),
                });
                break;
            }
            Ok(Some(ClientFrame::Ping)) => {
                let _ = tx.send(ServerFrame::Pong);
            }
            Ok(Some(ClientFrame::Stats)) => {
                let _ = tx.send(ServerFrame::Stats(dispatcher.stats()));
            }
            Ok(Some(ClientFrame::Metrics)) => {
                let _ = tx.send(ServerFrame::Metrics {
                    text: dispatcher.metrics_text(),
                });
            }
            Ok(Some(ClientFrame::Shutdown)) => {
                let _ = tx.send(ServerFrame::ShuttingDown);
                dispatcher.begin_drain();
            }
            Ok(Some(ClientFrame::Submit { experiment, jobs })) => {
                if let Err(r) =
                    dispatcher.submit(conn_id, &tx, &experiment, 0, Subscribe::All, jobs)
                {
                    let _ = tx.send(r.frame(0));
                }
            }
            Ok(Some(ClientFrame::SubmitBatch {
                experiment,
                id,
                subscribe,
                jobs,
            })) => {
                if let Err(r) = dispatcher.submit(conn_id, &tx, &experiment, id, subscribe, jobs) {
                    let _ = tx.send(r.frame(id));
                }
            }
            Ok(Some(ClientFrame::SubmitRefs {
                experiment,
                id,
                subscribe,
                refs,
            })) => {
                if let Err(r) =
                    dispatcher.submit_refs(conn_id, &tx, &experiment, id, subscribe, refs)
                {
                    let _ = tx.send(r.frame(id));
                }
            }
        }
    }
    dispatcher.drop_conn(conn_id);
    drop(tx);
    // The writer exits once every sender is gone: ours just dropped,
    // and `drop_conn` removed the waiters holding batch clones. It
    // still flushes frames already queued (job results, `done`,
    // `shutting_down`) before exiting.
    let _ = writer.join();
    hfs_obs::debug("serve", "connection_closed", &[("conn", conn_id.into())]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};

    fn job(label: &str, work: u32, iters: u64) -> Job {
        Job::pipeline(
            label,
            KernelPair::simple("demo", work, iters),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    fn dispatcher(workers: usize, queue_limit: usize) -> Arc<Dispatcher> {
        let d = Arc::new(Dispatcher::new(&ServerConfig {
            workers,
            queue_limit,
            cache_dir: None,
            default_retries: 0,
            ..ServerConfig::default()
        }));
        for _ in 0..workers {
            let dd = Arc::clone(&d);
            std::thread::spawn(move || dd.worker_loop(0));
        }
        d
    }

    fn drain(d: &Dispatcher) {
        d.begin_drain();
        d.wait_drained();
    }

    #[test]
    fn identical_jobs_execute_once() {
        let d = dispatcher(2, 64);
        let (tx, rx) = channel();
        // Two batches of the same job from the same logical client.
        d.submit(0, &tx, "a", 0, Subscribe::All, vec![job("a/x", 2, 40)])
            .ok()
            .unwrap();
        d.submit(0, &tx, "b", 0, Subscribe::All, vec![job("b/x", 2, 40)])
            .ok()
            .unwrap();
        let mut jobs = 0;
        let mut dones = 0;
        while dones < 2 {
            match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
                ServerFrame::Job { .. } => jobs += 1,
                ServerFrame::Done { .. } => dones += 1,
                ServerFrame::Accepted { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(jobs, 2, "both waiters got a result");
        let stats = d.stats();
        // Single-flight: two submissions, one execution (timing may
        // let both flights run if the first resolves before the second
        // submit — only possible here because submits are sequential;
        // with the 40-iteration job the first typically still runs.
        // The hard guarantee is executed + deduped == submitted when
        // nothing is cached or cancelled.)
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.executed + stats.deduped, 2);
        drain(&d);
    }

    #[test]
    fn concurrent_identical_batches_dedupe() {
        let d = dispatcher(1, 64);
        let (tx, rx) = channel();
        // One worker, pinned on a long blocker job so the queue backs
        // up: submit the same 3 jobs from 4 "clients" while the worker
        // chews on the blocker. Dedup is then deterministic for every
        // submission after the first (without the blocker, a fast
        // enough simulator finishes x/a before the later submits land
        // and re-executes it).
        d.submit(
            9,
            &tx,
            "blk",
            0,
            Subscribe::All,
            vec![job("blk/hold", 2, 20_000)],
        )
        .ok()
        .unwrap();
        let jobs = || vec![job("x/a", 2, 200), job("x/b", 3, 200), job("x/c", 4, 200)];
        for conn in 0..4 {
            d.submit(conn, &tx, "x", 0, Subscribe::All, jobs())
                .ok()
                .unwrap();
        }
        let mut dones = 0;
        while dones < 5 {
            if let ServerFrame::Done { ok, .. } = rx.recv_timeout(Duration::from_secs(60)).unwrap()
            {
                assert!(ok);
                dones += 1;
            }
        }
        let stats = d.stats();
        assert_eq!(stats.submitted, 13);
        assert_eq!(stats.delivered, 13, "every waiter served");
        assert!(
            stats.deduped >= 9,
            "at most the blocker and the first batch's 3 jobs execute; got {stats:?}"
        );
        assert!(stats.executed <= 4);
        drain(&d);
    }

    #[test]
    fn admission_control_rejects_whole_batches() {
        let d = dispatcher(1, 2);
        let (tx, rx) = channel();
        // Occupy the worker and fill the queue.
        d.submit(
            0,
            &tx,
            "fill",
            0,
            Subscribe::All,
            vec![job("f/1", 2, 2_000), job("f/2", 3, 2_000)],
        )
        .ok()
        .unwrap();
        // Wait until the first flight is actually running so the queue
        // has deterministic occupancy (1 queued, 1 running).
        let t0 = Instant::now();
        while d.stats().running == 0 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let res = d.submit(
            1,
            &tx,
            "big",
            0,
            Subscribe::All,
            vec![job("b/1", 4, 10), job("b/2", 5, 10), job("b/3", 6, 10)],
        );
        match res {
            Err(Rejected::Busy { limit, .. }) => assert_eq!(limit, 2),
            _ => panic!("expected busy"),
        }
        assert_eq!(d.stats().rejected, 1);
        // A duplicate of queued work costs no slot and is admitted even
        // at the bound.
        d.submit(1, &tx, "dup", 0, Subscribe::All, vec![job("d/2", 3, 2_000)])
            .ok()
            .expect("duplicate admits without a queue slot");
        let mut dones = 0;
        while dones < 2 {
            if let ServerFrame::Done { .. } = rx.recv_timeout(Duration::from_secs(60)).unwrap() {
                dones += 1;
            }
        }
        drain(&d);
    }

    #[test]
    fn disconnect_discards_queued_and_cancels_running() {
        let d = dispatcher(1, 64);
        let (tx, rx) = channel();
        // Long-running head job plus queued tail, all owned by conn 7.
        d.submit(
            7,
            &tx,
            "gone",
            0,
            Subscribe::All,
            vec![job("g/head", 2, 2_000_000), job("g/tail", 3, 50)],
        )
        .ok()
        .unwrap();
        let t0 = Instant::now();
        while d.stats().running == 0 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(5));
        }
        d.drop_conn(7);
        // The tail was discarded, the head cancelled; the dispatcher
        // settles to empty without delivering anything.
        let t0 = Instant::now();
        while (d.stats().running > 0 || d.stats().queued > 0)
            && t0.elapsed() < Duration::from_secs(60)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = d.stats();
        assert_eq!(stats.cancelled, 1, "running head got cancelled: {stats:?}");
        assert_eq!(stats.aborted, 1, "queued tail was discarded: {stats:?}");
        assert_eq!(stats.delivered, 0);
        drop(rx);
        // The dispatcher stays healthy: new work from a live conn runs.
        let (tx2, rx2) = channel();
        d.submit(8, &tx2, "after", 0, Subscribe::All, vec![job("a/1", 2, 40)])
            .ok()
            .unwrap();
        let mut done = false;
        while !done {
            if let ServerFrame::Done { ok, .. } = rx2.recv_timeout(Duration::from_secs(30)).unwrap()
            {
                assert!(ok);
                done = true;
            }
        }
        drain(&d);
    }

    #[test]
    fn draining_refuses_new_submissions() {
        let d = dispatcher(1, 64);
        d.begin_drain();
        let (tx, _rx) = channel();
        assert!(matches!(
            d.submit(0, &tx, "late", 0, Subscribe::All, vec![job("l/1", 2, 10)]),
            Err(Rejected::Draining)
        ));
        d.wait_drained();
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let d = dispatcher(1, 64);
        let (tx, rx) = channel();
        d.submit(0, &tx, "empty", 0, Subscribe::All, Vec::new())
            .ok()
            .unwrap();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            ServerFrame::Accepted { total: 0, .. }
        ));
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            ServerFrame::Done { ok: true, .. }
        ));
        drain(&d);
    }
}
