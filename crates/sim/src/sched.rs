//! Calendar-queue event scheduler for the simulation hot loop.
//!
//! The machine's event-driven run mode replaces per-cycle `next_event`
//! polling with *pushed* wake times: whenever a component's state
//! changes, the machine schedules its next wake into a [`CalendarQueue`]
//! — a bucketed timing wheel over [`Cycle`] with an overflow min-heap
//! for events beyond the wheel's horizon. Popping the next non-empty
//! bucket yields the next cycle anything can happen, so dead windows are
//! skipped in O(1) per component instead of O(components) per advance.
//!
//! Entries are *lazily* invalidated: re-arming a token earlier simply
//! pushes a second entry, and the machine discards the superseded one
//! when it surfaces (its recorded wake no longer matches the token's
//! armed time). A stale early entry therefore costs at most one spurious
//! — and harmless — processed cycle.
//!
//! # Example
//!
//! ```
//! use hfs_sim::sched::CalendarQueue;
//! use hfs_sim::Cycle;
//!
//! let mut q = CalendarQueue::new(Cycle::ZERO);
//! q.schedule(Cycle::new(3), 0);
//! q.schedule(Cycle::new(9_000), 1); // far future: overflow heap
//! assert_eq!(q.next_due(), Some(Cycle::new(3)));
//! assert_eq!(q.pop_due(Cycle::new(5)), Some((Cycle::new(3), 0)));
//! assert_eq!(q.pop_due(Cycle::new(5)), None);
//! assert_eq!(q.next_due(), Some(Cycle::new(9_000)));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::stats::Histogram;
use crate::Cycle;

/// Wheel size in one-cycle buckets. Events within this many cycles of
/// the cursor index directly into their bucket; later events park in the
/// overflow heap and are promoted as the cursor advances. 256 covers the
/// longest component-internal latencies (DRAM, idle-flush timeouts) for
/// the configured machines, so promotion is rare.
const WHEEL_SLOTS: u64 = 256;

/// Occupancy histogram resolution (entries outstanding at schedule time).
const OCCUPANCY_BUCKETS: usize = 64;

/// Counters describing one run of the event-driven scheduler (surfaced
/// in `MetricsReport` as `sched.*` under `HFS_METRICS=1`).
#[derive(Debug, Clone)]
pub struct SchedStats {
    /// Wake times pushed into the queue.
    pub scheduled: u64,
    /// Due entries that matched their token's armed wake time.
    pub fired: u64,
    /// Due entries superseded by a later re-arm (lazily cancelled).
    pub cancelled: u64,
    /// Cycles the machine actually stepped.
    pub cycles_processed: u64,
    /// Cycles the machine skipped by jumping between wake times.
    pub cycles_skipped: u64,
    /// Queue occupancy sampled at each `schedule` call.
    pub occupancy: Histogram,
    /// Whether the low-skip auto-latch handed the run off to per-cycle
    /// stepping partway through.
    pub latched: bool,
}

impl Default for SchedStats {
    fn default() -> Self {
        SchedStats {
            scheduled: 0,
            fired: 0,
            cancelled: 0,
            cycles_processed: 0,
            cycles_skipped: 0,
            occupancy: Histogram::new(OCCUPANCY_BUCKETS),
            latched: false,
        }
    }
}

/// A calendar queue: a timing wheel of one-cycle buckets plus an
/// overflow min-heap for events beyond the wheel horizon.
///
/// Each entry is a `(wake cycle, token)` pair; tokens are small integers
/// chosen by the caller (the machine uses one per component plus a few
/// for its own scheduled events — deadlock sweep, sampling grid,
/// watchdog deadline). The queue never coalesces entries: cancellation
/// is the caller's job via its own armed-time table (see the module
/// docs).
#[derive(Debug)]
pub struct CalendarQueue {
    /// `wheel[c % WHEEL_SLOTS]` holds every entry with wake cycle `c`
    /// for `c` in `[cursor, cursor + WHEEL_SLOTS)`. Within that window
    /// the mapping is bijective, so all entries in one bucket share the
    /// same wake cycle.
    wheel: Vec<Vec<(u64, u32)>>,
    /// All entries have wake cycle `>= cursor`; buckets behind the
    /// cursor are empty.
    cursor: u64,
    /// Entries with wake cycle `>= cursor + WHEEL_SLOTS`, promoted into
    /// the wheel as the cursor advances.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Entry count currently in the wheel (not the overflow heap).
    wheel_len: usize,
    /// Wake times pushed so far.
    scheduled: u64,
    /// Occupancy at each push.
    occupancy: Histogram,
}

impl CalendarQueue {
    /// An empty queue whose cursor starts at `start`.
    pub fn new(start: Cycle) -> CalendarQueue {
        CalendarQueue {
            wheel: vec![Vec::new(); WHEEL_SLOTS as usize],
            cursor: start.as_u64(),
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            scheduled: 0,
            occupancy: Histogram::new(OCCUPANCY_BUCKETS),
        }
    }

    /// Schedules `token` to surface at cycle `at` (clamped to the
    /// cursor: the past is not reachable, so an overdue wake surfaces
    /// immediately).
    pub fn schedule(&mut self, at: Cycle, token: u32) {
        let at = at.as_u64().max(self.cursor);
        self.scheduled += 1;
        self.occupancy
            .record(self.wheel_len as u64 + self.overflow.len() as u64);
        if at < self.cursor + WHEEL_SLOTS {
            self.wheel[(at % WHEEL_SLOTS) as usize].push((at, token));
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse((at, token)));
        }
    }

    /// Pops one entry with wake cycle `<= now`, advancing the cursor as
    /// needed; `None` once nothing remains due. Entries for one cycle
    /// surface before any entry of a later cycle (wake-time
    /// monotonicity).
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u32)> {
        let now = now.as_u64();
        loop {
            if self.cursor > now {
                return None;
            }
            if self.wheel_len == 0 {
                // Nothing inside the horizon: hop the cursor straight to
                // the earliest overflow entry instead of walking empty
                // buckets one by one.
                match self.overflow.peek() {
                    Some(&Reverse((at, _))) if at <= now => {
                        self.cursor = at;
                        self.promote();
                    }
                    _ => {
                        // The jump can pull overflow entries inside the
                        // horizon; promote them now so the wheel invariant
                        // holds for the next schedule/next_due call.
                        self.cursor = now + 1;
                        self.promote();
                        return None;
                    }
                }
                continue;
            }
            let bucket = (self.cursor % WHEEL_SLOTS) as usize;
            if let Some((at, token)) = self.wheel[bucket].pop() {
                debug_assert_eq!(at, self.cursor, "bucket holds one wake cycle");
                self.wheel_len -= 1;
                return Some((Cycle::new(at), token));
            }
            self.cursor += 1;
            self.promote();
        }
    }

    /// The earliest scheduled wake cycle, without popping. In the dense
    /// case the first bucket is non-empty and this is O(1); a long empty
    /// stretch costs one wheel scan right before a correspondingly long
    /// jump.
    pub fn next_due(&self) -> Option<Cycle> {
        let overflow_min = self.overflow.peek().map(|&Reverse((at, _))| at);
        if self.wheel_len > 0 {
            for d in 0..WHEEL_SLOTS {
                let bucket = ((self.cursor + d) % WHEEL_SLOTS) as usize;
                if let Some(&(at, _)) = self.wheel[bucket].first() {
                    // With the horizon invariant the wheel hit is always
                    // earliest, but take the min against the overflow
                    // peek so a future invariant slip can't reorder
                    // wakes silently.
                    return Some(Cycle::new(match overflow_min {
                        Some(o) => at.min(o),
                        None => at,
                    }));
                }
            }
        }
        overflow_min.map(Cycle::new)
    }

    /// Entries currently scheduled (wheel + overflow).
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total `schedule` calls so far.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Queue occupancy sampled at each `schedule` call.
    pub fn occupancy(&self) -> &Histogram {
        &self.occupancy
    }

    /// Moves overflow entries that now fall inside the wheel horizon
    /// into their buckets.
    fn promote(&mut self) {
        while let Some(&Reverse((at, token))) = self.overflow.peek() {
            if at >= self.cursor + WHEEL_SLOTS {
                break;
            }
            self.overflow.pop();
            self.wheel[(at % WHEEL_SLOTS) as usize].push((at, token));
            self.wheel_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    #[test]
    fn pop_due_is_monotone_in_wake_time() {
        // Random schedule order; pops must come back sorted by wake
        // cycle, including entries that start in the overflow heap.
        let mut q = CalendarQueue::new(Cycle::ZERO);
        let mut rng = Rng64::new(7);
        let mut expect: Vec<u64> = (0..500).map(|_| rng.below(4 * WHEEL_SLOTS)).collect();
        for (i, &at) in expect.iter().enumerate() {
            q.schedule(Cycle::new(at), i as u32);
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        let mut last = 0;
        while let Some((at, _)) = q.pop_due(Cycle::new(u64::MAX / 4)) {
            assert!(at.as_u64() >= last, "pops must be monotone");
            last = at.as_u64();
            got.push(at.as_u64());
        }
        assert_eq!(got, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_entries_promote_from_overflow() {
        let mut q = CalendarQueue::new(Cycle::ZERO);
        let far = WHEEL_SLOTS * 10 + 17;
        q.schedule(Cycle::new(far), 42);
        assert_eq!(q.len(), 1);
        // Parked in the overflow heap, still visible to next_due.
        assert_eq!(q.next_due(), Some(Cycle::new(far)));
        // Not due before its time.
        assert_eq!(q.pop_due(Cycle::new(far - 1)), None);
        // Due exactly at its wake cycle, after promotion.
        assert_eq!(q.pop_due(Cycle::new(far)), Some((Cycle::new(far), 42)));
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn near_and_far_entries_interleave_correctly() {
        let mut q = CalendarQueue::new(Cycle::new(100));
        q.schedule(Cycle::new(105), 1);
        q.schedule(Cycle::new(100 + WHEEL_SLOTS + 3), 2);
        q.schedule(Cycle::new(102), 3);
        assert_eq!(q.next_due(), Some(Cycle::new(102)));
        assert_eq!(q.pop_due(Cycle::new(200)), Some((Cycle::new(102), 3)));
        assert_eq!(q.pop_due(Cycle::new(200)), Some((Cycle::new(105), 1)));
        // The far entry is beyond `now`; nothing else is due yet.
        assert_eq!(q.pop_due(Cycle::new(200)), None);
        let far = Cycle::new(100 + WHEEL_SLOTS + 3);
        assert_eq!(q.next_due(), Some(far));
        assert_eq!(q.pop_due(far), Some((far, 2)));
    }

    #[test]
    fn empty_pop_jump_promotes_overflow_into_horizon() {
        // Regression: pop_due's cursor jump over an empty window used to
        // skip promote(), leaving an overflow entry inside the wheel
        // horizon; a later wheel schedule then shadowed it in next_due()
        // and the machine could jump past a pending armed wake.
        let mut q = CalendarQueue::new(Cycle::ZERO);
        q.schedule(Cycle::new(300), 1); // beyond horizon: overflow heap
        assert_eq!(q.pop_due(Cycle::new(100)), None); // cursor hops to 101
        q.schedule(Cycle::new(350), 2); // inside horizon: wheel
        assert_eq!(q.next_due(), Some(Cycle::new(300)));
        assert_eq!(q.pop_due(Cycle::new(400)), Some((Cycle::new(300), 1)));
        assert_eq!(q.pop_due(Cycle::new(400)), Some((Cycle::new(350), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn past_schedules_clamp_to_cursor() {
        let mut q = CalendarQueue::new(Cycle::new(50));
        q.schedule(Cycle::new(10), 7); // in the past: surfaces at cursor
        assert_eq!(q.pop_due(Cycle::new(50)), Some((Cycle::new(50), 7)));
    }

    #[test]
    fn stats_track_scheduling() {
        let mut q = CalendarQueue::new(Cycle::ZERO);
        for i in 0..10 {
            q.schedule(Cycle::new(i), i as u32);
        }
        assert_eq!(q.scheduled(), 10);
        assert_eq!(q.occupancy().count(), 10);
        // First sample sees an empty queue, last sees nine entries.
        assert_eq!(q.occupancy().percentile(100.0), Some(9));
    }

    #[test]
    fn sched_stats_default_is_zeroed() {
        let s = SchedStats::default();
        assert_eq!(s.scheduled + s.fired + s.cancelled, 0);
        assert_eq!(s.cycles_processed + s.cycles_skipped, 0);
        assert_eq!(s.occupancy.count(), 0);
        assert!(!s.latched);
    }
}
