//! The `--worker` child process and its parent↔worker pipe protocol.
//!
//! In process mode (`hfs-serve --workers N`) the server re-execs its
//! own binary with `--worker`. The child is a pure executor: it owns no
//! cache, no listener, and no telemetry — it reads [`WorkerRequest`]
//! frames on stdin, simulates, and writes [`WorkerReply`] frames on
//! stdout. All caching, dedup, and accounting stay in the parent, which
//! is what keeps the stats identities and byte-identical artifacts
//! independent of the worker mode.
//!
//! Frames reuse the client protocol's transport
//! ([`read_frame`]/[`write_frame`]: 4-byte big-endian length + compact
//! JSON) and the harness codec for jobs and outcomes, so nothing new
//! has to round-trip.
//!
//! The child runs one job at a time (the parent never pipelines a
//! second `run` before the reply), but a `cancel` frame may arrive
//! mid-run: a reader thread watches stdin and fires the running job's
//! [`CancelToken`] when the cancelled key matches. EOF on stdin — the
//! parent died or dropped the pipe — is an exit signal, so a crashed
//! parent never leaves orphan workers behind.

use std::io;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

use hfs_harness::{
    execute_with, job_from_json, job_to_json, outcome_from_json, outcome_to_json, ExecCtx, Job,
    JobOutcome, Json,
};
use hfs_sim::CancelToken;

use crate::proto::{read_frame, write_frame, ProtoError};

/// A parent→worker frame.
// `Run` dwarfs the other variants, but requests are built once per
// dispatch and never collected — boxing the job would cost more than
// the stack space saves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WorkerRequest {
    /// Execute one job and reply with a [`WorkerReply`].
    Run {
        /// The job's content key (echoed back; the child never hashes).
        key: String,
        /// Default retry budget for the run.
        retries: u32,
        /// The job itself.
        job: Job,
    },
    /// Fire the cancel token of the currently running job if its key
    /// matches; ignored otherwise (the reply already raced ahead).
    Cancel {
        /// Key of the job to cancel.
        key: String,
    },
    /// Finish up and exit cleanly (also implied by stdin EOF).
    Exit,
}

impl WorkerRequest {
    /// Encodes the frame body.
    pub fn to_json(&self) -> Json {
        match self {
            WorkerRequest::Run { key, retries, job } => Json::obj(vec![
                ("type", Json::Str("run".to_string())),
                ("key", Json::Str(key.clone())),
                ("retries", Json::U64(u64::from(*retries))),
                ("job", job_to_json(job)),
            ]),
            WorkerRequest::Cancel { key } => Json::obj(vec![
                ("type", Json::Str("cancel".to_string())),
                ("key", Json::Str(key.clone())),
            ]),
            WorkerRequest::Exit => Json::obj(vec![("type", Json::Str("exit".to_string()))]),
        }
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on unknown tags or missing fields.
    pub fn from_json(v: &Json) -> Result<WorkerRequest, ProtoError> {
        let tag = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::Malformed("worker frame has no type".to_string()))?;
        let key = || {
            v.get("key")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ProtoError::Malformed("worker frame has no key".to_string()))
        };
        match tag {
            "run" => Ok(WorkerRequest::Run {
                key: key()?,
                retries: v
                    .get("retries")
                    .and_then(Json::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| ProtoError::Malformed("run has no retries".to_string()))?,
                job: job_from_json(
                    v.get("job")
                        .ok_or_else(|| ProtoError::Malformed("run has no job".to_string()))?,
                )?,
            }),
            "cancel" => Ok(WorkerRequest::Cancel { key: key()? }),
            "exit" => Ok(WorkerRequest::Exit),
            other => Err(ProtoError::Malformed(format!(
                "unknown worker frame type {other:?}"
            ))),
        }
    }
}

/// A worker→parent frame: the outcome of one `run`.
#[derive(Debug, Clone)]
pub struct WorkerReply {
    /// Echo of the run's key.
    pub key: String,
    /// Retries the execution consumed.
    pub retries_used: u32,
    /// The simulation outcome.
    pub outcome: JobOutcome,
}

impl WorkerReply {
    /// Encodes the frame body.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", Json::Str("result".to_string())),
            ("key", Json::Str(self.key.clone())),
            ("retries_used", Json::U64(u64::from(self.retries_used))),
            ("outcome", outcome_to_json(&self.outcome)),
        ])
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on unknown tags or missing fields.
    pub fn from_json(v: &Json) -> Result<WorkerReply, ProtoError> {
        if v.get("type").and_then(Json::as_str) != Some("result") {
            return Err(ProtoError::Malformed(
                "worker reply is not a result frame".to_string(),
            ));
        }
        Ok(WorkerReply {
            key: v
                .get("key")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ProtoError::Malformed("result has no key".to_string()))?,
            retries_used: v
                .get("retries_used")
                .and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| ProtoError::Malformed("result has no retries_used".to_string()))?,
            outcome: outcome_from_json(
                v.get("outcome")
                    .ok_or_else(|| ProtoError::Malformed("result has no outcome".to_string()))?,
            )?,
        })
    }
}

/// The `--worker` entry point: serve `run` requests from stdin until
/// `exit` or EOF. Returns the process exit code.
pub fn worker_main() -> i32 {
    // None = exit; Some = one job to run.
    let (work_tx, work_rx) = channel::<Option<(String, u32, Job)>>();
    let current: Arc<Mutex<Option<(String, CancelToken)>>> = Arc::new(Mutex::new(None));

    let reader_current = Arc::clone(&current);
    let reader = std::thread::spawn(move || {
        let mut stdin = io::stdin().lock();
        loop {
            let frame = match read_frame(&mut stdin) {
                Ok(Some(v)) => WorkerRequest::from_json(&v),
                // EOF (parent gone) and transport errors both end the
                // worker; never linger as an orphan.
                Ok(None) | Err(_) => {
                    let _ = work_tx.send(None);
                    return;
                }
            };
            match frame {
                Ok(WorkerRequest::Run { key, retries, job }) => {
                    if work_tx.send(Some((key, retries, job))).is_err() {
                        return;
                    }
                }
                Ok(WorkerRequest::Cancel { key }) => {
                    let guard = reader_current.lock().unwrap();
                    if let Some((running, token)) = guard.as_ref() {
                        if *running == key {
                            token.cancel();
                        }
                    }
                }
                Ok(WorkerRequest::Exit) | Err(_) => {
                    let _ = work_tx.send(None);
                    return;
                }
            }
        }
    });

    let mut stdout = io::stdout().lock();
    while let Ok(Some((key, retries, job))) = work_rx.recv() {
        let token = CancelToken::new();
        *current.lock().unwrap() = Some((key.clone(), token.clone()));
        let ctx = ExecCtx::default().with_retries(retries).with_cancel(token);
        let (outcome, retries_used) = execute_with(&job, &ctx);
        *current.lock().unwrap() = None;
        let reply = WorkerReply {
            key,
            retries_used,
            outcome,
        };
        if write_frame(&mut stdout, &reply.to_json()).is_err() {
            break; // parent gone; nothing left to report to
        }
    }
    drop(work_rx);
    // The reader exits on its own at EOF/exit; don't block on a stdin
    // read that may never return if the parent holds the pipe open.
    drop(reader);
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};

    fn demo_job() -> Job {
        Job::pipeline(
            "worker/demo",
            KernelPair::simple("demo", 2, 40),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    #[test]
    fn requests_round_trip() {
        let job = demo_job();
        let run = WorkerRequest::Run {
            key: job.key(),
            retries: 2,
            job: job.clone(),
        };
        match WorkerRequest::from_json(&run.to_json()).unwrap() {
            WorkerRequest::Run {
                key,
                retries,
                job: back,
            } => {
                assert_eq!(key, job.key());
                assert_eq!(retries, 2);
                assert_eq!(back.key(), job.key());
            }
            other => panic!("wrong frame: {other:?}"),
        }
        let cancel = WorkerRequest::Cancel { key: "abc".into() };
        assert!(matches!(
            WorkerRequest::from_json(&cancel.to_json()).unwrap(),
            WorkerRequest::Cancel { .. }
        ));
        assert!(matches!(
            WorkerRequest::from_json(&WorkerRequest::Exit.to_json()).unwrap(),
            WorkerRequest::Exit
        ));
    }

    #[test]
    fn replies_round_trip() {
        let job = demo_job();
        let outcome = hfs_harness::execute(&job, 0);
        let cycles = outcome.ok().expect("demo job runs").cycles;
        let reply = WorkerReply {
            key: job.key(),
            retries_used: 1,
            outcome,
        };
        let back = WorkerReply::from_json(&reply.to_json()).unwrap();
        assert_eq!(back.key, job.key());
        assert_eq!(back.retries_used, 1);
        assert_eq!(back.outcome.ok().unwrap().cycles, cycles);
    }

    #[test]
    fn unknown_worker_frames_fail_loudly() {
        let v = Json::obj(vec![("type", Json::Str("warp".to_string()))]);
        assert!(WorkerRequest::from_json(&v).is_err());
        assert!(WorkerReply::from_json(&v).is_err());
    }
}
