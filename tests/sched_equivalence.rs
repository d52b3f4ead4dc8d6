//! Run-loop equivalence: the event-driven calendar-queue loop and plain
//! per-cycle stepping must be bit-identical in every architectural
//! statistic, and the strided deadlock detector must declare at the
//! same cycle in both. Only wall-clock may differ between the loops.

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{CheckLevel, DesignPoint, Machine, MachineConfig, RunResult, SimError};
use hfs::isa::QueueId;
use hfs::sim::Rng64;
use hfs::trace::Tracer;

/// Builds a random but valid two-thread pipeline (the same shape space
/// as `proptest_pipeline`, different seed stream).
fn arb_pair(rng: &mut Rng64) -> KernelPair {
    let pwork = rng.range(1, 6) as u32;
    let cchain = rng.range(1, 6) as u32;
    let nq = rng.range(1, 3) as usize;
    let iters = rng.range(10, 40);
    let fp = rng.below(3) as u32;

    let queues: Vec<QueueId> = (0..nq as u16).map(QueueId).collect();
    let mut psteps = vec![KStep::Alu(pwork)];
    if fp > 0 {
        psteps.push(KStep::Fp(fp));
    }
    for &q in &queues {
        psteps.push(KStep::Produce(q));
    }
    psteps.push(KStep::Branch);
    let mut csteps: Vec<KStep> = queues.iter().map(|&q| KStep::Consume(q)).collect();
    csteps.push(KStep::AluChain(cchain));
    csteps.push(KStep::Branch);
    KernelPair {
        name: "sched-prop",
        producer: Kernel::new(psteps),
        consumer: Kernel::new(csteps),
        iterations: iters,
    }
}

fn designs() -> Vec<DesignPoint> {
    vec![
        DesignPoint::existing(),
        DesignPoint::memopti(),
        DesignPoint::syncopti(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::heavywt(),
        // Centralized store: long consume-to-use latency keeps the
        // producer blocked on a full queue for whole windows — the
        // regime where a stale sync-array port budget (a begin_cycle
        // the event scheduler skipped) once leaked into stall counters.
        DesignPoint::heavywt_centralized(12),
    ]
}

/// One run with fast-forwarding on (the event loop) or off (per-cycle
/// stepping).
fn run_ff(cfg: &MachineConfig, pair: &KernelPair, ff: bool) -> RunResult {
    let mut m = Machine::new_pipeline(cfg, pair).expect("machine builds");
    m.set_fast_forward(ff);
    m.run(20_000_000).expect("run completes")
}

fn assert_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.cycles, b.cycles, "{label}: cycles");
    assert_eq!(a.cores, b.cores, "{label}: core stats");
    assert_eq!(a.mem, b.mem, "{label}: mem stats");
    assert_eq!(a.stream_cache, b.stream_cache, "{label}: stream cache");
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
}

/// Runs `cases` random pipelines from `seed` on every design point and
/// checks the event loop against per-cycle stepping: same cycles,
/// per-core statistics (stall breakdowns and the blocked-attempt
/// counters the skip path replays in bulk included), memory-system
/// counters, and stream-cache counters.
fn check_random_configs(seed: u64, cases: u64) {
    let mut rng = Rng64::new(seed);
    for case in 0..cases {
        let pair = arb_pair(&mut rng);
        assert!(pair.validate().is_ok());
        for design in designs() {
            let cfg = MachineConfig::itanium2_cmp(design);
            let event = run_ff(&cfg, &pair, true);
            let percycle = run_ff(&cfg, &pair, false);
            let label = format!("seed {seed:#x} case {case}, {}", event.design);
            assert_identical(&event, &percycle, &label);
        }
    }
}

/// Event loop == per-cycle stepping across random pipelines and every
/// design point.
#[test]
fn event_matches_percycle_on_random_configs() {
    check_random_configs(0x5CED_0001, 6);
}

/// Fast-forwarding (the event loop) is invisible in every statistic on
/// a second, independent stream of random pipelines.
#[test]
fn fastforward_matches_percycle_on_random_configs() {
    check_random_configs(0xFF_0001, 8);
}

/// The single-core fused baseline takes both loops too.
#[test]
fn event_matches_percycle_on_single_core_machines() {
    let mut rng = Rng64::new(0x5CED_0002);
    let pair = arb_pair(&mut rng);
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::existing());
    let run = |ff| {
        let mut m = Machine::new_single(&cfg, &pair).expect("machine builds");
        m.set_fast_forward(ff);
        m.run(20_000_000).expect("run completes")
    };
    assert_identical(&run(true), &run(false), "single-core");
}

/// A metrics-only tracer is safe to fast-forward in the event loop: its
/// fixed-order event totals and order-insensitive histograms must match
/// the per-cycle run exactly. (Recording tracers pin to per-cycle
/// stepping instead — exported event *streams* are compared
/// byte-for-byte by the trace determinism suite.)
#[test]
fn metrics_only_tracer_is_identical_across_modes() {
    let mut rng = Rng64::new(0x5CED_0003);
    let pair = arb_pair(&mut rng);
    for design in designs() {
        let cfg = MachineConfig::itanium2_cmp(design);
        let run = |ff: bool| {
            let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
            m.set_fast_forward(ff);
            m.set_tracer(Tracer::metrics_only());
            let r = m.run(20_000_000).expect("run completes");
            let t = m.tracer().clone();
            (r, t.event_counts(), t.consume_to_use(), t.queue_depth())
        };
        let (re, ce, cue, qde) = run(true);
        let (rp, cp, cup, qdp) = run(false);
        let label = format!("metrics {}", re.design);
        assert_identical(&re, &rp, &label);
        assert_eq!(ce, cp, "{label}: event counts");
        assert_eq!(
            (cue.count(), cue.sum()),
            (cup.count(), cup.sum()),
            "{label}: consume-to-use histogram"
        );
        assert_eq!(
            (qde.count(), qde.sum()),
            (qdp.count(), qdp.sum()),
            "{label}: queue-depth histogram"
        );
    }
}

/// Event-loop sampling lands on the same grid with the same iteration
/// counts as per-cycle stepping, and the run populates the scheduler's
/// own accounting.
#[test]
fn sampling_grid_and_sched_stats_survive_event_mode() {
    let mut rng = Rng64::new(0x5CED_0004);
    let pair = arb_pair(&mut rng);
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::syncopti_sc_q64());
    let run = |ff| {
        let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
        m.set_fast_forward(ff);
        let out = m.run_sampled(20_000_000, Some(64)).expect("run completes");
        (out, m.sched_stats().clone())
    };
    let ((re, se), stats) = run(true);
    let ((rp, sp), percycle_stats) = run(false);
    assert_identical(&re, &rp, "sampled");
    assert_eq!(se, sp, "sample streams must be identical");
    assert_eq!(
        stats.cycles_processed + stats.cycles_skipped,
        re.cycles + 1,
        "processed + skipped cycles must partition the run: {stats:?}"
    );
    assert!(stats.scheduled > 0, "event run populates queue accounting");
    assert!(stats.fired > 0, "event run fires wakes");
    assert_eq!(
        percycle_stats.scheduled, 0,
        "per-cycle runs leave scheduler accounting zeroed"
    );
}

/// Regression: a producer blocked on a full queue for whole windows
/// (centralized store, long consume-to-use latency) once diverged in
/// `stream_blocked` — the event scheduler skipped the sync array's
/// per-cycle `begin_cycle`, so a consumer-side `try_consume` drew on a
/// stale port budget and parked, landing its ACK a cycle late. Needs a
/// real benchmark run: hundreds of iterations with sustained
/// queue-full phases, which the short random pipelines above never
/// reach.
#[test]
fn heavywt_centralized_long_blocked_phases_stay_identical() {
    let bench = hfs::workloads::all_benchmarks()
        .into_iter()
        .find(|b| b.name == "wc")
        .expect("wc registered");
    let mut pair = bench.pair.clone();
    pair.iterations = 300;
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt_centralized(12));
    let event = run_ff(&cfg, &pair, true);
    let percycle = run_ff(&cfg, &pair, false);
    assert_identical(&event, &percycle, "wc/centralized (event vs per-cycle)");
}

/// The machine checker composes with both loops: enabling it forces
/// per-cycle stepping (every invariant is re-audited each cycle), yet
/// the architectural results must still match an unchecked event-loop
/// run exactly — with `set_fast_forward(true)` or `false` alike. This is
/// the equivalence guarantee under `HFS_CHECK=1`.
#[test]
fn checker_preserves_results_and_pins_percycle() {
    let mut rng = Rng64::new(0xFF_0002);
    let pair = arb_pair(&mut rng);
    for design in designs() {
        let cfg = MachineConfig::itanium2_cmp(design);
        let baseline = run_ff(&cfg, &pair, true);
        let label = format!("checked {}", baseline.design);
        assert!(!baseline.checked, "{label}: baseline is unchecked");
        for ff in [true, false] {
            let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
            m.set_fast_forward(ff);
            m.set_check_level(CheckLevel::Full);
            let r = m.run(20_000_000).expect("checked run completes");
            assert!(r.checked, "{label}: run reports itself checked");
            assert_eq!(
                m.sched_stats().scheduled,
                0,
                "{label}: checked run must step per-cycle (ff={ff})"
            );
            assert_identical(&r, &baseline, &format!("{label} (ff={ff})"));
        }
    }
}

/// A dense pair: independent ALU work every cycle on both cores, so
/// almost no cycle can be skipped. Under the EXISTING design the event
/// loop's queue, arming and wake bounds are pure overhead here.
fn dense_pair() -> KernelPair {
    let q = QueueId(0);
    KernelPair {
        name: "ff-dense",
        producer: Kernel::new(vec![KStep::Alu(4), KStep::Produce(q), KStep::Branch]),
        consumer: Kernel::new(vec![KStep::Consume(q), KStep::AluChain(4), KStep::Branch]),
        iterations: 4000,
    }
}

/// On a workload whose skip rate is too low to pay for scheduling, the
/// event loop must latch to per-cycle stepping after its observation
/// windows — and the architectural results must still be bit-identical
/// to a plain per-cycle run.
#[test]
fn auto_latch_fires_on_low_skip_workloads() {
    let pair = dense_pair();
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::existing());
    let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    m.set_fast_forward(true);
    let event = m.run(20_000_000).expect("run completes");
    let stats = m.sched_stats();
    assert!(
        stats.latched,
        "dense workload must trip the low-skip latch: {stats:?}"
    );
    assert!(
        event.cycles > 8192,
        "latch fires only after full observation windows, so the run \
         must span several: {} cycles",
        event.cycles
    );
    assert_eq!(
        stats.cycles_processed + stats.cycles_skipped,
        event.cycles + 1,
        "the per-cycle tail keeps the processed/skipped partition: {stats:?}"
    );
    assert_identical(&event, &run_ff(&cfg, &pair, false), "latched");
}

/// On a skip-heavy workload the latch must *not* fire, even across
/// several full observation windows: the event loop keeps skipping to
/// the end of the run. `fir` under HEAVYWT is one: the event loop skips
/// about a quarter of its cycles.
#[test]
fn auto_latch_spares_skip_heavy_workloads() {
    let pair = hfs::workloads::benchmark("fir")
        .expect("fir registered")
        .with_iterations(3000)
        .pair;
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt());
    let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    m.set_fast_forward(true);
    let r = m.run(20_000_000).expect("run completes");
    let stats = m.sched_stats();
    assert!(
        r.cycles > 4 * 4096,
        "test must span multiple observation windows: {} cycles",
        r.cycles
    );
    assert!(
        !stats.latched,
        "skip-heavy workload must keep the event loop: {stats:?}"
    );
    assert!(
        stats.cycles_skipped * 8 >= r.cycles,
        "skip rate should clear the 1/8 latch threshold: {stats:?}"
    );
}

/// A pipeline that genuinely deadlocks under HEAVYWT: the producer must
/// emit more items into `q0` than the queue, network, and consumer's
/// instruction window can absorb before it ever produces `q1`, while
/// the consumer's oldest in-flight consume waits on `q1`. Per-queue
/// produce/consume counts still balance, so the pair validates.
fn deadlocking_pair() -> KernelPair {
    let q0 = QueueId(0);
    let q1 = QueueId(1);
    KernelPair {
        name: "circular-wait",
        producer: Kernel::new(vec![
            KStep::Loop(vec![KStep::Produce(q0)], 200),
            KStep::Produce(q1),
            KStep::Branch,
        ]),
        consumer: Kernel::new(vec![
            KStep::Consume(q1),
            KStep::Loop(vec![KStep::Consume(q0)], 200),
            KStep::Branch,
        ]),
        iterations: 4,
    }
}

fn declared_cycle(deadlock_cycles: u64, ff: bool) -> u64 {
    // The consumer's instruction window lets consumes *behind* the
    // blocked q1 consume still issue, complete, and ACK, so the
    // producer can push roughly window + queue-depth items of q0
    // before back-pressure freezes it; 200 is far beyond that.
    let mut cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt_with(2, 4));
    cfg.deadlock_cycles = deadlock_cycles;
    let pair = deadlocking_pair();
    assert!(pair.validate().is_ok(), "balanced counts must validate");
    let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    m.set_fast_forward(ff);
    match m.run(10_000_000) {
        Err(SimError::Deadlock { cycle, .. }) => cycle,
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// The deadlock detector only *sweeps* every `DEADLOCK_STRIDE` cycles,
/// but the declared cycle is computed from progress timestamps, so it
/// must shift by exactly one when the window grows by one — per-cycle
/// declaration semantics, immune to the sweep quantization.
#[test]
fn strided_deadlock_declares_at_the_exact_cycle() {
    let base = declared_cycle(1000, true);
    let plus_one = declared_cycle(1001, true);
    assert_eq!(
        plus_one,
        base + 1,
        "declared cycle must track the window exactly, not the sweep grid"
    );
}

/// The event loop must not change when a deadlock is declared: a jump
/// never passes a sweep that could declare.
#[test]
fn deadlock_cycle_identical_with_and_without_fastforward() {
    for window in [777, 1000, 4096] {
        assert_eq!(
            declared_cycle(window, true),
            declared_cycle(window, false),
            "window {window}"
        );
    }
}
