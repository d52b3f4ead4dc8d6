//! The simulated-work fingerprint: exact event counts that any change
//! which only speeds up the simulator must leave alone.
//!
//! Each run compares its fingerprint with the one an earlier run of
//! the same workload and seed left in the output directory. A
//! difference is nondeterminism or a model change, never noise, and
//! fails the run.

use std::path::Path;

use hfs_core::RunResult;

use crate::report::{Metrics, Tally};

/// Exact totals over a set of run results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions, all cores.
    pub instrs: u64,
    /// Committed communication instructions, all cores.
    pub comm_instrs: u64,
    /// L2 pipe accesses.
    pub l2_accesses: u64,
    /// Bus address phases (one per bus transaction).
    pub bus_transactions: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
}

impl Counts {
    /// Adds one run's totals.
    pub fn add(&mut self, r: &RunResult) {
        self.cycles += r.cycles;
        self.instrs += r.cores.iter().map(|c| c.total_instrs()).sum::<u64>();
        self.comm_instrs += r.cores.iter().map(|c| c.comm_instrs).sum::<u64>();
        self.l2_accesses += r.mem.l2_accesses;
        self.bus_transactions += r.mem.bus.addr_phases;
        self.dram_accesses += r.mem.dram_accesses;
    }

    /// Adds another set of totals.
    pub fn absorb(&mut self, o: Counts) {
        self.cycles += o.cycles;
        self.instrs += o.instrs;
        self.comm_instrs += o.comm_instrs;
        self.l2_accesses += o.l2_accesses;
        self.bus_transactions += o.bus_transactions;
        self.dram_accesses += o.dram_accesses;
    }

    fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("sim.cycles", self.cycles),
            ("cpu.instrs", self.instrs),
            ("cpu.comm_instrs", self.comm_instrs),
            ("mem.l2_accesses", self.l2_accesses),
            ("mem.bus_transactions", self.bus_transactions),
            ("mem.dram_accesses", self.dram_accesses),
        ]
    }

    /// Sets the six count metrics.
    pub fn export(&self, m: &mut Metrics) {
        for (name, v) in self.fields() {
            m.set(name, v as f64);
        }
    }
}

/// A run's fingerprint: the counts plus `serve.executed` (jobs the
/// server simulated over the deterministic part of the workload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Exact totals.
    pub counts: Counts,
    /// Server executions.
    pub executed: u64,
}

impl Fingerprint {
    fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counts.fields() {
            out.push_str(&format!("{name} {v}\n"));
        }
        out.push_str(&format!("serve.executed {}\n", self.executed));
        out
    }

    /// Compares with the fingerprint stored at `path` (counting any
    /// drift as a failure) and stores this one there if none was.
    pub fn compare_and_store(&self, path: &Path, tally: &mut Tally) {
        let mine = self.render();
        match std::fs::read_to_string(path) {
            Ok(prev) => tally.check(prev == mine, || {
                format!(
                    "nondeterminism: simulated-work fingerprint differs from the earlier run \
                     recorded in {} (remove it if the model changed on purpose)\nbefore:\n{prev}now:\n{mine}",
                    path.display()
                )
            }),
            Err(_) => {
                let stored = path
                    .parent()
                    .map_or(Ok(()), std::fs::create_dir_all)
                    .and_then(|()| std::fs::write(path, &mine));
                if let Err(e) = stored {
                    tally.fail(format!("cannot store fingerprint {}: {e}", path.display()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_fails_and_a_repeat_passes() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-fp-{}", std::process::id()));
        let path = dir.join("fp.txt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut fp = Fingerprint::default();
        fp.counts.cycles = 10;
        let mut tally = Tally::default();
        fp.compare_and_store(&path, &mut tally);
        fp.compare_and_store(&path, &mut tally);
        assert_eq!(tally.failed, 0);
        fp.executed = 1;
        fp.compare_and_store(&path, &mut tally);
        assert_eq!(tally.failed, 1);
        assert!(tally.problems[0].contains("nondeterminism"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = dir.parent().map(std::fs::remove_dir);
    }
}
