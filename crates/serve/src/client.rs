//! Client-side library for talking to an `hfs-serve` instance.
//!
//! [`Client::submit`] streams a batch through the server and reassembles
//! the answers into the same [`hfs_harness::Batch`] the offline
//! [`hfs_harness::Engine`] produces — so `Batch::write_artifact` yields
//! byte-identical `results/<experiment>.json` files whichever path ran
//! the jobs.
//!
//! [`Client::submit_batched`] is the sweep-scale path: it splits the
//! jobs into `submit_batch` chunks (`HFS_SUBMIT_CHUNK`), keeps a
//! window of them in flight (`HFS_SUBMIT_WINDOW`) so the server never
//! idles between batches, asks for chunked `batch_results` frames
//! instead of one `job` frame per job, and rides out `busy` rejections
//! with bounded retries. It reassembles the very same [`Batch`], so the
//! artifact bytes cannot depend on which submit path ran.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::Duration;

use hfs_harness::{env_flag, env_parse, Batch, Job, JobOutcome, Record};

use crate::net::{Endpoint, Stream};
use crate::proto::{ClientFrame, JobRef, ProtoError, ServeStats, ServerFrame, Subscribe};

/// Jobs per `submit_batch` frame on the batched path
/// (`HFS_SUBMIT_CHUNK`).
pub const ENV_SUBMIT_CHUNK: &str = "HFS_SUBMIT_CHUNK";

/// Chunks kept in flight on the batched path (`HFS_SUBMIT_WINDOW`).
pub const ENV_SUBMIT_WINDOW: &str = "HFS_SUBMIT_WINDOW";

/// Set to `0` to disable content-key reference submission
/// (`HFS_SUBMIT_REFS=0`): the batched path then always sends full job
/// specs, as if every `submit_refs` probe missed.
pub const ENV_SUBMIT_REFS: &str = "HFS_SUBMIT_REFS";

/// Default chunk size. With the default window this keeps at most
/// `DEFAULT_QUEUE_LIMIT` jobs enqueued server-side, so a lone client
/// never trips admission control.
pub const DEFAULT_SUBMIT_CHUNK: usize = 512;

/// Default in-flight chunk window.
pub const DEFAULT_SUBMIT_WINDOW: usize = 2;

/// Consecutive `busy` rejections tolerated before the batched path
/// gives up (each idle retry backs off 50ms).
const BUSY_RETRY_LIMIT: u32 = 1200;

/// Anything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// No `HFS_SOCK`/`HFS_ADDR` in the environment.
    NoEndpoint,
    /// Transport failure.
    Io(io::Error),
    /// Protocol failure.
    Proto(ProtoError),
    /// The server rejected the batch: its queue is full.
    Busy {
        /// Flights queued server-side at rejection time.
        queued: u64,
        /// The server's admission limit.
        limit: u64,
    },
    /// The server is draining and refused the request.
    ShuttingDown,
    /// The server reported an error frame.
    Server(String),
    /// The server broke the protocol's sequencing rules.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NoEndpoint => {
                write!(f, "no server endpoint: set HFS_SOCK (or HFS_ADDR)")
            }
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy { queued, limit } => {
                write!(f, "server busy: {queued} flights queued (limit {limit})")
            }
            ClientError::ShuttingDown => write!(f, "server is shutting down"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(m) => write!(f, "unexpected server behavior: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

/// A streamed per-job progress update, handed to the callback of
/// [`Client::submit`] as results arrive (completion order, not
/// submission order).
#[derive(Debug, Clone)]
pub struct JobUpdate {
    /// How many of the batch's jobs have resolved, this one included.
    pub finished: u64,
    /// Total jobs in the batch.
    pub total: u64,
    /// The resolved job's label.
    pub label: String,
    /// Whether it was served from the server's cache.
    pub cached: bool,
    /// Its outcome.
    pub outcome: JobOutcome,
}

/// A connection to an `hfs-serve` instance.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connects to an explicit endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            stream: endpoint.connect()?,
        })
    }

    /// Connects to the endpoint named by `HFS_SOCK`/`HFS_ADDR`.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoEndpoint`] when neither variable is set, else
    /// connect failures.
    pub fn from_env() -> Result<Client, ClientError> {
        let endpoint = Endpoint::from_env().ok_or(ClientError::NoEndpoint)?;
        Ok(Client::connect(&endpoint)?)
    }

    fn read_frame(&mut self) -> Result<ServerFrame, ClientError> {
        match ServerFrame::read_from(&mut self.stream)? {
            Some(frame) => Ok(frame),
            None => Err(ClientError::Unexpected(
                "server closed the connection mid-conversation".to_string(),
            )),
        }
    }

    /// Liveness round-trip.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a non-`pong` answer.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        ClientFrame::Ping.write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a non-`stats` answer.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        ClientFrame::Stats.write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::Stats(s) => Ok(s),
            other => Err(ClientError::Unexpected(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's live metric registry as Prometheus text
    /// exposition (counters, gauges, and p50/p95/p99 summaries).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a non-`metrics` answer.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        ClientFrame::Metrics.write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::Metrics { text } => Ok(text),
            other => Err(ClientError::Unexpected(format!(
                "expected metrics, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unexpected answer.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        ClientFrame::Shutdown.write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(format!(
                "expected shutting_down, got {other:?}"
            ))),
        }
    }

    /// Submits a batch and blocks until every job has streamed back,
    /// invoking `on_update` per resolved job. The returned [`Batch`]
    /// holds records in submission order, exactly like
    /// [`hfs_harness::Engine::run_batch`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`]/[`ClientError::ShuttingDown`] on rejection,
    /// plus transport, protocol, and sequencing failures.
    pub fn submit(
        &mut self,
        experiment: &str,
        jobs: Vec<Job>,
        mut on_update: impl FnMut(&JobUpdate),
    ) -> Result<Batch, ClientError> {
        let total = jobs.len() as u64;
        ClientFrame::Submit {
            experiment: experiment.to_string(),
            jobs,
        }
        .write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::Accepted {
                experiment: e,
                total: t,
                ..
            } => {
                if e != experiment || t != total {
                    return Err(ClientError::Unexpected(format!(
                        "accepted {e}/{t}, submitted {experiment}/{total}"
                    )));
                }
            }
            ServerFrame::Busy { queued, limit, .. } => {
                return Err(ClientError::Busy { queued, limit })
            }
            ServerFrame::ShuttingDown => return Err(ClientError::ShuttingDown),
            ServerFrame::Error { message } => return Err(ClientError::Server(message)),
            other => {
                return Err(ClientError::Unexpected(format!(
                    "expected accepted, got {other:?}"
                )))
            }
        }
        let mut slots = Slots::new(total);
        loop {
            match self.read_frame()? {
                ServerFrame::Job {
                    experiment: e,
                    index,
                    label,
                    key,
                    cached,
                    outcome,
                } => {
                    if e != experiment {
                        return Err(ClientError::Unexpected(format!(
                            "job frame for batch {e:?} while waiting on {experiment:?}"
                        )));
                    }
                    slots.fill(index as usize, label, key, cached, outcome, &mut on_update)?;
                }
                ServerFrame::Done { experiment: e, .. } => {
                    if e != experiment {
                        return Err(ClientError::Unexpected(format!(
                            "done frame for batch {e:?} while waiting on {experiment:?}"
                        )));
                    }
                    return slots.into_batch(experiment);
                }
                ServerFrame::Error { message } => return Err(ClientError::Server(message)),
                other => {
                    return Err(ClientError::Unexpected(format!(
                        "unexpected frame mid-batch: {other:?}"
                    )))
                }
            }
        }
    }

    /// Submits a sweep on the pipelined batched path and blocks until
    /// every chunk has resolved. Jobs are split into `submit_batch`
    /// chunks of `HFS_SUBMIT_CHUNK` jobs; `HFS_SUBMIT_WINDOW` chunks
    /// stay in flight so the server's queue never drains dry between
    /// submissions. Results come back as chunked `batch_results` frames
    /// (far fewer frames than one per job) and are reassembled into a
    /// [`Batch`] byte-identical to [`Client::submit`]'s.
    ///
    /// `subscribe` picks the result traffic: [`Subscribe::Final`]
    /// streams chunked results (the default choice); [`Subscribe::None`]
    /// suppresses them entirely — a cache-priming mode that returns an
    /// empty-record [`Batch`]; [`Subscribe::All`] degrades to `Final`
    /// here because per-job `job` frames carry no batch id to demux on.
    ///
    /// Chunks are first offered as `submit_refs` — content keys plus
    /// labels, a few dozen bytes per job instead of a full spec — so a
    /// warm resweep costs neither client-side job serialization nor
    /// server-side parsing. If any key is unknown server-side the whole
    /// chunk bounces back (`refs_miss`, side-effect free) and this and
    /// every later chunk falls back to full `submit_batch` specs;
    /// `HFS_SUBMIT_REFS=0` skips the probe entirely.
    ///
    /// A `busy` rejection is not fatal: the chunk is requeued and
    /// retried once a whole in-flight chunk drains (or after a 50ms
    /// backoff when nothing is in flight), up to a bounded number of
    /// consecutive rejections.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] after the retry budget is exhausted,
    /// [`ClientError::ShuttingDown`] on server drain, plus transport,
    /// protocol, and sequencing failures.
    pub fn submit_batched(
        &mut self,
        experiment: &str,
        jobs: Vec<Job>,
        subscribe: Subscribe,
        mut on_update: impl FnMut(&JobUpdate),
    ) -> Result<Batch, ClientError> {
        let total = jobs.len() as u64;
        if jobs.is_empty() {
            return Ok(Batch {
                name: experiment.to_string(),
                records: Vec::new(),
            });
        }
        let subscribe = match subscribe {
            Subscribe::All => Subscribe::Final,
            s => s,
        };
        let knob = |name, default| env_parse(name).filter(|&n| n > 0).unwrap_or(default);
        let chunk_size = knob(ENV_SUBMIT_CHUNK, DEFAULT_SUBMIT_CHUNK);
        let window = knob(ENV_SUBMIT_WINDOW, DEFAULT_SUBMIT_WINDOW);
        // Key-reference probing starts on and latches off at the first
        // `refs_miss`: a sweep is either warm (every chunk resolves
        // from the server's caches) or cold (one bounced chunk per
        // window slot, then full specs for the rest).
        let mut use_refs = std::env::var_os(ENV_SUBMIT_REFS).is_none() || env_flag(ENV_SUBMIT_REFS);

        // Chunk ids are 1-based offsets into the sweep; `base_of` maps
        // them back to global slot positions and doubles as the
        // outstanding-chunk set (ids leave it on `done`).
        let mut pending: VecDeque<(u64, Vec<Job>)> = VecDeque::new();
        let mut base_of: HashMap<u64, usize> = HashMap::new();
        {
            let mut rest = jobs;
            let mut id = 0u64;
            let mut base = 0usize;
            while !rest.is_empty() {
                let tail = rest.split_off(rest.len().min(chunk_size));
                id += 1;
                base_of.insert(id, base);
                base += rest.len();
                pending.push_back((id, std::mem::replace(&mut rest, tail)));
            }
        }
        let nchunks = pending.len();

        let mut slots = Slots::new(total);
        // Chunks written but not yet accepted keep their jobs here in
        // case a `busy` bounces them back to `pending`.
        let mut awaiting: HashMap<u64, Vec<Job>> = HashMap::new();
        let mut done_chunks = 0usize;
        let mut in_flight = 0usize;
        let mut stalled = false;
        let mut consecutive_busy: u32 = 0;

        while done_chunks < nchunks {
            // Keep the window full — unless the server just said busy,
            // in which case resubmitting before anything drained would
            // only spin on rejections.
            while in_flight < window && !pending.is_empty() && (!stalled || in_flight == 0) {
                if stalled {
                    // Nothing of ours is in flight, so no result
                    // traffic will free queue space; back off in time
                    // instead.
                    std::thread::sleep(Duration::from_millis(50));
                    stalled = false;
                }
                let (id, chunk) = pending.pop_front().expect("checked non-empty");
                if use_refs {
                    ClientFrame::SubmitRefs {
                        experiment: experiment.to_string(),
                        id,
                        subscribe,
                        refs: chunk
                            .iter()
                            .map(|j| JobRef {
                                key: j.key(),
                                label: j.label.clone(),
                            })
                            .collect(),
                    }
                    .write_to(&mut self.stream)?;
                    awaiting.insert(id, chunk);
                } else {
                    // Build the frame with the owned jobs and take them
                    // back after the write: chunks are too big to clone
                    // per submission.
                    let frame = ClientFrame::SubmitBatch {
                        experiment: experiment.to_string(),
                        id,
                        subscribe,
                        jobs: chunk,
                    };
                    frame.write_to(&mut self.stream)?;
                    let ClientFrame::SubmitBatch { jobs: chunk, .. } = frame else {
                        unreachable!("constructed as submit_batch above");
                    };
                    awaiting.insert(id, chunk);
                }
                in_flight += 1;
            }
            match self.read_frame()? {
                ServerFrame::Accepted {
                    experiment: e, id, ..
                } => {
                    if e != experiment || awaiting.remove(&id).is_none() {
                        return Err(ClientError::Unexpected(format!(
                            "accept for unknown chunk {id} of batch {e:?}"
                        )));
                    }
                    consecutive_busy = 0;
                }
                ServerFrame::Busy { queued, limit, id } => {
                    let Some(chunk) = awaiting.remove(&id) else {
                        return Err(ClientError::Busy { queued, limit });
                    };
                    consecutive_busy += 1;
                    if consecutive_busy > BUSY_RETRY_LIMIT {
                        return Err(ClientError::Busy { queued, limit });
                    }
                    pending.push_front((id, chunk));
                    in_flight -= 1;
                    stalled = true;
                }
                ServerFrame::RefsMiss { id, .. } => {
                    let Some(chunk) = awaiting.remove(&id) else {
                        return Err(ClientError::Unexpected(format!(
                            "refs_miss for unknown chunk {id}"
                        )));
                    };
                    // The sweep is cold: the rejection had no side
                    // effects, so resubmitting the same chunk as full
                    // specs (front of the queue, order preserved) is
                    // safe. Stay in spec mode for the rest of the sweep.
                    use_refs = false;
                    pending.push_front((id, chunk));
                    in_flight -= 1;
                }
                ServerFrame::BatchResults {
                    experiment: e,
                    id,
                    results,
                } => {
                    if e != experiment {
                        return Err(ClientError::Unexpected(format!(
                            "results for batch {e:?} while sweeping {experiment:?}"
                        )));
                    }
                    let base = *base_of.get(&id).ok_or_else(|| {
                        ClientError::Unexpected(format!("results for unknown chunk {id}"))
                    })?;
                    for r in results {
                        let index = base + r.index as usize;
                        slots.fill(index, r.label, r.key, r.cached, r.outcome, &mut on_update)?;
                    }
                }
                ServerFrame::Done {
                    experiment: e, id, ..
                } => {
                    // `batch_results` for a chunk always precede its
                    // `done` (sent under the same lock server-side), so
                    // dropping the id here also rejects double-dones.
                    if e != experiment || base_of.remove(&id).is_none() {
                        return Err(ClientError::Unexpected(format!(
                            "done for unknown chunk {id} of batch {e:?}"
                        )));
                    }
                    done_chunks += 1;
                    in_flight -= 1;
                    consecutive_busy = 0;
                    stalled = false;
                }
                ServerFrame::ShuttingDown => return Err(ClientError::ShuttingDown),
                ServerFrame::Error { message } => return Err(ClientError::Server(message)),
                other => {
                    return Err(ClientError::Unexpected(format!(
                        "unexpected frame mid-sweep: {other:?}"
                    )))
                }
            }
        }
        if matches!(subscribe, Subscribe::None) {
            // Cache priming: the server sent no results, by request.
            return Ok(Batch {
                name: experiment.to_string(),
                records: Vec::new(),
            });
        }
        slots.into_batch(experiment)
    }
}

/// A batch's records in submission order, filled as results stream
/// back in any order.
struct Slots {
    records: Vec<Option<Record>>,
    finished: u64,
}

impl Slots {
    fn new(total: u64) -> Slots {
        Slots {
            records: (0..total).map(|_| None).collect(),
            finished: 0,
        }
    }

    /// Files the result for batch position `index` and reports it.
    fn fill(
        &mut self,
        index: usize,
        label: String,
        key: String,
        cached: bool,
        outcome: JobOutcome,
        on_update: &mut impl FnMut(&JobUpdate),
    ) -> Result<(), ClientError> {
        let total = self.records.len() as u64;
        let slot = self.records.get_mut(index).ok_or_else(|| {
            ClientError::Unexpected(format!("result index {index} out of range {total}"))
        })?;
        if slot.is_some() {
            return Err(ClientError::Unexpected(format!(
                "duplicate result for index {index}"
            )));
        }
        self.finished += 1;
        on_update(&JobUpdate {
            finished: self.finished,
            total,
            label: label.clone(),
            cached,
            outcome: outcome.clone(),
        });
        *slot = Some(Record {
            label,
            key,
            cached,
            // Wall time is a server-side detail; artifacts exclude it,
            // so zero keeps records honest without affecting bytes.
            wall_millis: 0,
            outcome,
        });
        Ok(())
    }

    /// The finished batch, or an error naming the first unresolved job.
    fn into_batch(self, experiment: &str) -> Result<Batch, ClientError> {
        let records = self
            .records
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.ok_or_else(|| ClientError::Unexpected(format!("done before job {i} resolved")))
            })
            .collect::<Result<_, _>>()?;
        Ok(Batch {
            name: experiment.to_string(),
            records,
        })
    }
}

/// A progress reporter matching the offline engine's structured stream:
/// one `job_done` record at info level per resolved job, so `HFS_LOG`
/// governs client-side progress exactly like engine-side progress.
pub fn print_update(experiment: &str, u: &JobUpdate) {
    let label = u
        .label
        .strip_prefix(experiment)
        .and_then(|rest| rest.strip_prefix('/'))
        .unwrap_or(&u.label);
    hfs_obs::info(
        "client",
        "job_done",
        &[
            ("finished", u.finished.into()),
            ("total", u.total.into()),
            ("batch", experiment.into()),
            ("label", label.into()),
            ("status", u.outcome.status().into()),
            ("outcome", u.outcome.to_string().into()),
            ("cached", u.cached.into()),
        ],
    );
}
