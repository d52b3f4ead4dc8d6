//! Seeded job generators for the served workloads.
//!
//! A design point is a paper kernel, a design family variant, a
//! coherence protocol, a short iteration count, and a workload address
//! seed. The generators hand out address seeds from disjoint classes,
//! so points meant to be new never collide with each other or with the
//! primed pool, while kernel, design, protocol and iteration count are
//! drawn by `Rng64` from the benchmark seed.

use std::sync::Arc;

use hfs_core::{DesignPoint, MachineConfig};
use hfs_harness::Job;
use hfs_mem::Protocol;
use hfs_sim::Rng64;
use hfs_workloads::{all_benchmarks, Benchmark};

/// Kernel × design combinations per protocol.
const PER_PROTOCOL: usize = 9 * 12;
/// Points per `sweep-warm` slice request (one `submit_batched` call):
/// every kernel × design combination of one protocol once, so slices of
/// a protocol carry the same mix.
pub const SWEEP_REQUEST: usize = PER_PROTOCOL;
/// Points in one `sweep-warm` sweep: six rounds over the three
/// protocols.
pub const SWEEP_POINTS: usize = 6 * 3 * SWEEP_REQUEST;
/// Points primed into the `explore-mixed` disk cache.
pub const POOL_POINTS: usize = 512;
/// Points per `explore-mixed` request.
pub const EXPLORE_REQUEST: usize = 4;
/// Every this many requests, a connection's request carries the shared
/// new point both connections ask for at about the same time.
pub const SHARED_EVERY: u64 = 4;

/// Address-seed classes: the pool, each connection's own new points
/// (1 and 2), and the new points both connections request (3).
const SEED_CLASSES: u64 = 4;
const SEED_BASE: u64 = 0x5eed_0000;

/// The design families the generators draw from: EXISTING, MEMOPTI,
/// the four SYNCOPTI variants, and HEAVYWT over transit and depth.
pub fn designs() -> Vec<DesignPoint> {
    let mut ds = vec![
        DesignPoint::existing(),
        DesignPoint::memopti(),
        DesignPoint::syncopti(),
        DesignPoint::syncopti_q64(),
        DesignPoint::syncopti_sc(),
        DesignPoint::syncopti_sc_q64(),
    ];
    for transit in [1, 5, 10] {
        for depth in [32, 64] {
            ds.push(DesignPoint::heavywt_with(transit, depth));
        }
    }
    ds
}

/// The space points are drawn from.
#[derive(Debug, Clone)]
pub struct Space {
    benches: Vec<Benchmark>,
    designs: Vec<DesignPoint>,
    /// Iterations are drawn from `full / div.0 ..= full / div.1`.
    div: (u64, u64),
}

impl Space {
    /// Iterations between `full / lo_div` and `full / hi_div` of each
    /// kernel's paper count (at least 2).
    pub fn new(lo_div: u64, hi_div: u64) -> Space {
        Space {
            benches: all_benchmarks(),
            designs: designs(),
            div: (lo_div, hi_div),
        }
    }

    /// One point with the given address seed.
    pub fn point(&self, rng: &mut Rng64, label: String, seed: u64) -> Job {
        let combo = rng.below(self.combos() as u64) as usize;
        self.point_of(combo, rng, label, seed)
    }

    /// Kernel × design × protocol combinations.
    pub fn combos(&self) -> usize {
        self.benches.len() * self.designs.len() * Protocol::ALL.len()
    }

    /// A point of combination `combo` (`< combos()`; kernel varies
    /// fastest, then design, then protocol), with a drawn iteration count
    /// and the given address seed.
    pub fn point_of(&self, combo: usize, rng: &mut Rng64, label: String, seed: u64) -> Job {
        let b = &self.benches[combo % self.benches.len()];
        let rest = combo / self.benches.len();
        let design = self.designs[rest % self.designs.len()];
        let protocol = Protocol::ALL[rest / self.designs.len()];
        let full = b.pair.iterations;
        let lo = (full / self.div.0).max(2);
        let hi = (full / self.div.1).max(lo);
        let iterations = rng.range(lo, hi + 1);
        let mut cfg = MachineConfig::itanium2_cmp(design);
        cfg.mem.protocol = protocol;
        cfg.seed = seed;
        Job::pipeline(label, b.with_iterations(iterations).pair, cfg)
    }
}

fn class_seed(class: u64, n: u64) -> u64 {
    SEED_BASE + SEED_CLASSES * n + class
}

/// The `sweep-warm` sweep: [`SWEEP_POINTS`] distinct short points, in
/// groups of [`SWEEP_REQUEST`] that each hold every kernel × design
/// combination of one protocol once, in seeded order.
pub fn sweep(seed: u64) -> Vec<Job> {
    let space = Space::new(200, 50);
    assert_eq!(space.combos(), PER_PROTOCOL * Protocol::ALL.len());
    let mut rng = Rng64::new(seed).split(1);
    let mut jobs = Vec::with_capacity(SWEEP_POINTS);
    while jobs.len() < SWEEP_POINTS {
        for protocol in 0..Protocol::ALL.len() {
            let mut order: Vec<usize> = (0..PER_PROTOCOL).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for k in order {
                let i = jobs.len() as u64;
                let combo = protocol * PER_PROTOCOL + k;
                let label = format!("sweep-warm/p{i}");
                jobs.push(space.point_of(combo, &mut rng, label, class_seed(0, i)));
            }
        }
    }
    jobs
}

/// The `explore-mixed` space: each simulation takes about 0.1–2 ms.
fn explore_space() -> Space {
    Space::new(100, 25)
}

/// The `explore-mixed` pool primed into the disk cache before timing.
pub fn pool(seed: u64) -> Vec<Job> {
    let space = explore_space();
    let mut rng = Rng64::new(seed).split(2);
    (0..POOL_POINTS as u64)
        .map(|i| space.point(&mut rng, format!("explore/pool/p{i}"), class_seed(0, i)))
        .collect()
}

/// One requested point and whether it was new when generated.
#[derive(Debug, Clone)]
pub struct Ask {
    /// The job.
    pub job: Job,
    /// `true` for a point outside the primed pool.
    pub new: bool,
}

/// One connection's endless, seeded request stream for `explore-mixed`.
#[derive(Debug, Clone)]
pub struct Explorer {
    space: Space,
    seed: u64,
    conn: u64,
    rng: Rng64,
    pool: Arc<Vec<Job>>,
    next_own: u64,
    next_req: u64,
}

impl Explorer {
    /// The stream of connection `conn` (0 or 1).
    pub fn new(seed: u64, conn: u64, pool: Arc<Vec<Job>>) -> Explorer {
        Explorer {
            space: explore_space(),
            seed,
            conn,
            rng: Rng64::new(seed).split(10 + conn),
            pool,
            next_own: 0,
            next_req: 0,
        }
    }

    /// The next request: [`EXPLORE_REQUEST`] points, each a pool
    /// revisit or a new point with even odds; every
    /// [`SHARED_EVERY`]th request leads with the new point the other
    /// connection asks for in its request of the same index.
    pub fn next_request(&mut self) -> Vec<Ask> {
        let k = self.next_req;
        self.next_req += 1;
        let mut asks = Vec::with_capacity(EXPLORE_REQUEST);
        for slot in 0..EXPLORE_REQUEST {
            let label = format!("explore/c{}/r{k}/{slot}", self.conn);
            if slot == 0 && k % SHARED_EVERY == SHARED_EVERY - 1 {
                let n = k / SHARED_EVERY;
                let mut rng = Rng64::new(self.seed).split(1000 + n);
                asks.push(Ask {
                    job: self.space.point(&mut rng, label, class_seed(3, n)),
                    new: true,
                });
            } else if self.rng.bool() {
                let pick = self.rng.below(self.pool.len() as u64) as usize;
                let mut job = self.pool[pick].clone();
                job.label = label;
                asks.push(Ask { job, new: false });
            } else {
                let seed = class_seed(1 + self.conn, self.next_own);
                self.next_own += 1;
                asks.push(Ask {
                    job: self.space.point(&mut self.rng, label, seed),
                    new: true,
                });
            }
        }
        asks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn keys(jobs: impl IntoIterator<Item = Job>) -> Vec<String> {
        jobs.into_iter().map(|j| j.key()).collect()
    }

    #[test]
    fn generators_repeat_for_a_seed() {
        assert_eq!(keys(sweep(7)), keys(sweep(7)));
        assert_ne!(keys(sweep(7)), keys(sweep(8)));
        assert_eq!(keys(pool(7)), keys(pool(7)));
        let pool = Arc::new(pool(7));
        let mut a = Explorer::new(7, 0, Arc::clone(&pool));
        let mut b = Explorer::new(7, 0, pool);
        for _ in 0..50 {
            let (x, y) = (a.next_request(), b.next_request());
            assert_eq!(
                keys(x.into_iter().map(|a| a.job)),
                keys(y.into_iter().map(|a| a.job))
            );
        }
    }

    #[test]
    fn sweep_points_are_distinct_and_requests_share_a_mix() {
        let jobs = sweep(3);
        let ks: HashSet<String> = keys(jobs.iter().cloned()).into_iter().collect();
        assert_eq!(ks.len(), SWEEP_POINTS);
        for request in jobs.chunks_exact(SWEEP_REQUEST) {
            let combos: HashSet<(&str, String)> = request
                .iter()
                .map(|j| (j.pair.name, j.cfg.design.label()))
                .collect();
            assert_eq!(combos.len(), SWEEP_REQUEST);
            let protocol = request[0].cfg.mem.protocol;
            assert!(request.iter().all(|j| j.cfg.mem.protocol == protocol));
        }
    }

    #[test]
    fn new_points_are_new_and_shared_points_are_shared() {
        let pool = Arc::new(pool(5));
        let pool_keys: HashSet<String> = keys(pool.iter().cloned()).into_iter().collect();
        let mut seen_new: HashSet<String> = HashSet::new();
        let mut streams = [
            Explorer::new(5, 0, Arc::clone(&pool)),
            Explorer::new(5, 1, Arc::clone(&pool)),
        ];
        let mut revisits = 0;
        for k in 0..200u64 {
            let r0 = streams[0].next_request();
            let r1 = streams[1].next_request();
            if k % SHARED_EVERY == SHARED_EVERY - 1 {
                assert_eq!(
                    r0[0].job.key(),
                    r1[0].job.key(),
                    "shared point of request {k}"
                );
            }
            for (i, ask) in r0.iter().chain(&r1).enumerate() {
                let key = ask.job.key();
                if ask.new {
                    assert!(!pool_keys.contains(&key));
                    let shared_copy = i == EXPLORE_REQUEST && k % SHARED_EVERY == SHARED_EVERY - 1;
                    assert!(seen_new.insert(key) || shared_copy, "new point repeated");
                } else {
                    assert!(pool_keys.contains(&key));
                    revisits += 1;
                }
            }
        }
        // About half the points revisit the pool.
        assert!((600..1000).contains(&revisits), "{revisits} revisits");
    }
}
