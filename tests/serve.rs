//! End-to-end tests for `hfs-serve`: real sockets, concurrent clients,
//! byte-identical artifacts, single-flight deduplication, and
//! disconnect resilience.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use hfs::core::{DesignPoint, MachineConfig};
use hfs::harness::{Engine, Job};
use hfs::serve::{Client, ClientFrame, Endpoint, Server, ServerConfig, ServerFrame};

/// Fresh scratch directory under the system temp dir (std-only; no
/// tempfile crate). Unique per test via pid + counter.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hfs-serve-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small sweep: one benchmark across three golden designs, scaled to
/// `iterations` so tests stay fast.
fn sweep(experiment: &str, iterations: u64) -> Vec<Job> {
    let designs = [
        DesignPoint::existing(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::heavywt(),
    ];
    let b = hfs::workloads::benchmark("fir").expect("fir exists");
    designs
        .iter()
        .map(|&d| {
            let bench = b.with_iterations(iterations);
            Job::pipeline(
                format!("{experiment}/fir/{d}"),
                bench.pair,
                MachineConfig::itanium2_cmp(d),
            )
        })
        .collect()
}

/// Binds a server on an ephemeral TCP port, runs it on a background
/// thread, and returns the connectable endpoint plus the join handle
/// (which yields the final drained counter snapshot).
fn start_server(config: ServerConfig) -> (Endpoint, thread::JoinHandle<hfs::serve::ServeStats>) {
    hfs::obs::init_test_logger();
    let server =
        Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), &config).expect("bind server");
    let addr = server.tcp_addr().expect("tcp endpoint has an address");
    let handle = thread::spawn(move || server.run().expect("server run"));
    (Endpoint::Tcp(addr.to_string()), handle)
}

/// Protocol round-trip over a real socket: ping, stats, a small batch
/// streamed back in submission order, then a clean drain on shutdown.
#[test]
fn protocol_round_trip_over_tcp() {
    let (endpoint, handle) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    client.ping().expect("ping");
    let before = client.stats().expect("stats");
    assert_eq!(before.submitted, 0);
    assert!(!before.draining);

    let jobs = sweep("roundtrip", 200);
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let mut updates = 0u64;
    let batch = client
        .submit("roundtrip", jobs, |u| {
            updates += 1;
            assert!(u.finished >= 1 && u.finished <= u.total);
        })
        .expect("submit");
    assert_eq!(updates, 3, "one streamed update per job");
    assert_eq!(batch.name, "roundtrip");
    let got: Vec<String> = batch.records.iter().map(|r| r.label.clone()).collect();
    assert_eq!(got, labels, "records come back in submission order");
    for r in &batch.records {
        assert!(r.outcome.is_ok(), "{}: {:?}", r.label, r.outcome);
    }

    client.shutdown_server().expect("shutdown ack");
    drop(client);
    let final_stats = handle.join().expect("server thread");
    assert_eq!(final_stats.submitted, 3);
    assert_eq!(final_stats.delivered, 3);
    assert_eq!(final_stats.queued, 0);
    assert_eq!(final_stats.running, 0);
}

/// The same round-trip over a Unix-domain socket (the production
/// transport), including socket-file cleanup after drain.
#[cfg(unix)]
#[test]
fn protocol_round_trip_over_unix_socket() {
    let sock = scratch_dir("unix").join("hfs.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    hfs::obs::init_test_logger();
    let server = Server::bind(&endpoint, &ServerConfig::default()).expect("bind unix server");
    let handle = thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(&endpoint).expect("connect over unix socket");
    client.ping().expect("ping");
    let batch = client
        .submit("unix", sweep("unix", 200), |_| {})
        .expect("submit");
    assert_eq!(batch.records.len(), 3);
    client.shutdown_server().expect("shutdown ack");
    drop(client);
    handle.join().expect("server thread");
    assert!(
        !sock.exists(),
        "server removes its socket file after draining"
    );
}

/// N concurrent clients submitting the same sweep must each get an
/// artifact byte-identical to the offline engine's, while the shared
/// cache plus single-flight keep server-side executions at one per
/// unique job.
#[test]
fn concurrent_clients_get_byte_identical_artifacts() {
    const CLIENTS: usize = 3;
    let jobs = sweep("figX", 500);
    let unique = jobs.len() as u64;

    // Offline golden run: same jobs through the plain engine.
    let offline = Engine::new(2)
        .run_batch("figX", jobs.clone())
        .artifact_json();

    let (endpoint, handle) = start_server(ServerConfig {
        workers: 2,
        cache_dir: Some(scratch_dir("cache")),
        ..ServerConfig::default()
    });
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        let endpoint = endpoint.clone();
        let jobs = jobs.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            barrier.wait();
            client
                .submit("figX", jobs, |_| {})
                .expect("submit")
                .artifact_json()
        }));
    }
    let artifacts: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (i, a) in artifacts.iter().enumerate() {
        assert_eq!(
            a, &offline,
            "client {i}'s artifact must be byte-identical to the offline run"
        );
    }

    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.submitted, unique * CLIENTS as u64);
    assert_eq!(stats.delivered, unique * CLIENTS as u64);
    assert!(
        stats.executed <= unique,
        "single-flight + shared cache bound executions to one per unique job: {stats:?}"
    );
    assert_eq!(
        stats.executed + stats.cache_hits + stats.deduped,
        unique * CLIENTS as u64,
        "every delivery is an execution, a cache hit, or a dedup: {stats:?}"
    );
    client.shutdown_server().expect("shutdown ack");
    drop(client);
    handle.join().expect("server thread");
}

/// With the cache disabled, overlap between identical in-flight batches
/// can only be absorbed by single-flight — prove it with the counters.
#[test]
fn single_flight_dedupes_concurrent_identical_batches() {
    const CLIENTS: usize = 3;
    // One worker and multi-millisecond jobs: by the time the first job
    // finishes, every client's submission has joined the in-flight map.
    let jobs = sweep("dedup", 5_000);
    let unique = jobs.len() as u64;
    let (endpoint, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: None,
        ..ServerConfig::default()
    });

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        let endpoint = endpoint.clone();
        let jobs = jobs.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            barrier.wait();
            client
                .submit("dedup", jobs, |_| {})
                .expect("submit")
                .artifact_json()
        }));
    }
    let artifacts: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(
        artifacts.windows(2).all(|w| w[0] == w[1]),
        "deduped batches must still deliver identical artifacts"
    );

    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.submitted, unique * CLIENTS as u64);
    assert!(stats.deduped > 0, "expected in-flight dedup: {stats:?}");
    assert!(
        stats.executed < stats.submitted,
        "single-flight must execute fewer jobs than were submitted: {stats:?}"
    );
    client.shutdown_server().expect("shutdown ack");
    drop(client);
    handle.join().expect("server thread");
}

/// A client that disconnects mid-batch must not poison the server or
/// the cache: its queued flights are discarded, its running flight is
/// cancelled (and never cached), and a later client re-running the same
/// sweep still gets the offline-identical artifact.
#[test]
fn disconnect_mid_batch_leaves_cache_consistent() {
    let jobs = sweep("abandon", 5_000);
    let offline = Engine::new(2)
        .run_batch("abandon", jobs.clone())
        .artifact_json();

    let (endpoint, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: Some(scratch_dir("abandon-cache")),
        ..ServerConfig::default()
    });

    // Raw protocol client: submit, read the acceptance, vanish.
    {
        let mut stream = endpoint.connect().expect("connect raw");
        ClientFrame::Submit {
            experiment: "abandon".to_string(),
            jobs: jobs.clone(),
        }
        .write_to(&mut stream)
        .expect("write submit");
        match ServerFrame::read_from(&mut stream).expect("read accepted") {
            Some(ServerFrame::Accepted { total, .. }) => assert_eq!(total, jobs.len() as u64),
            other => panic!("expected accepted, got {other:?}"),
        }
        // Dropping the stream here abandons the batch mid-flight.
    }
    // Give the server a moment to notice the hangup and cancel.
    thread::sleep(Duration::from_millis(50));

    let mut client = Client::connect(&endpoint).expect("reconnect");
    client
        .ping()
        .expect("server still healthy after disconnect");
    let batch = client
        .submit("abandon", jobs, |_| {})
        .expect("resubmit after disconnect");
    assert_eq!(
        batch.artifact_json(),
        offline,
        "post-disconnect rerun must still match the offline artifact"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.delivered, 3,
        "only the surviving client's jobs are delivered: {stats:?}"
    );
    client.shutdown_server().expect("shutdown ack");
    drop(client);
    let final_stats = handle.join().expect("server thread");
    assert_eq!(final_stats.queued, 0);
    assert_eq!(final_stats.running, 0);
}
