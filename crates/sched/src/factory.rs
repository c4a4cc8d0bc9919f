//! Scheduler construction by name — the experiment harness configures
//! per-router scheduling from these descriptors (Table 1's "Scheduling
//! Algorithm" column).

use crate::{edf, fifoplus, fq, lifo, lstf, prio, random, srpt};
use ups_net::{LinkId, Scheduler};

/// A constructible scheduling algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// First-in-first-out (drop tail).
    Fifo,
    /// Last-in-first-out.
    Lifo,
    /// Uniform random among queued packets; seeded per link.
    Random,
    /// Static priority, `hdr.prio` stamped at ingress.
    Priority,
    /// Shortest job first (static priority = flow size).
    Sjf,
    /// Shortest remaining processing time + starvation prevention.
    Srpt,
    /// Fair queuing (SCFQ emulation of DKS bit-by-bit round robin).
    Fq,
    /// FIFO+ (Clark et al.): credit for upstream queueing delay.
    FifoPlus,
    /// Least Slack Time First.
    Lstf,
    /// Network-wide EDF (static-header LSTF equivalent).
    Edf,
    /// Half the routers run FQ, half run FIFO+ (Table 1's "FQ/FIFO+"
    /// mixed deployment; split by link id parity).
    FqFifoPlusMix,
}

impl SchedKind {
    /// Every constructible kind, in Table 1 order (iteration for tests
    /// and exhaustive sweeps).
    pub const ALL: [SchedKind; 11] = [
        SchedKind::Fifo,
        SchedKind::Lifo,
        SchedKind::Random,
        SchedKind::Priority,
        SchedKind::Sjf,
        SchedKind::Srpt,
        SchedKind::Fq,
        SchedKind::FifoPlus,
        SchedKind::Lstf,
        SchedKind::Edf,
        SchedKind::FqFifoPlusMix,
    ];

    /// Build a scheduler instance for `link`. `seed` feeds the Random
    /// scheduler (mixed with the link id so each port draws its own
    /// stream) and is ignored by deterministic algorithms.
    pub fn build(self, link: LinkId, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedKind::Fifo => Box::new(ups_net::Fifo::new()),
            SchedKind::Lifo => Box::new(lifo::Lifo::new()),
            SchedKind::Random => Box::new(random::Random::new(
                seed ^ (link.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )),
            SchedKind::Priority => Box::new(prio::priority()),
            SchedKind::Sjf => Box::new(prio::sjf()),
            SchedKind::Srpt => Box::new(srpt::Srpt::new()),
            SchedKind::Fq => Box::new(fq::Fq::new()),
            SchedKind::FifoPlus => Box::new(fifoplus::fifo_plus()),
            SchedKind::Lstf => Box::new(lstf::lstf()),
            SchedKind::Edf => Box::new(edf::edf()),
            SchedKind::FqFifoPlusMix => {
                if link.0 % 2 == 0 {
                    Box::new(fq::Fq::new())
                } else {
                    Box::new(fifoplus::fifo_plus())
                }
            }
        }
    }

    /// Display label (matches the paper's tables).
    pub fn label(self) -> &'static str {
        match self {
            SchedKind::Fifo => "FIFO",
            SchedKind::Lifo => "LIFO",
            SchedKind::Random => "Random",
            SchedKind::Priority => "Priority",
            SchedKind::Sjf => "SJF",
            SchedKind::Srpt => "SRPT",
            SchedKind::Fq => "FQ",
            SchedKind::FifoPlus => "FIFO+",
            SchedKind::Lstf => "LSTF",
            SchedKind::Edf => "EDF",
            SchedKind::FqFifoPlusMix => "FQ/FIFO+",
        }
    }

    /// Whether this algorithm reads `hdr.prio` (the ingress must stamp it).
    pub fn needs_priority_stamp(self) -> bool {
        matches!(
            self,
            SchedKind::Priority | SchedKind::Sjf | SchedKind::Srpt | SchedKind::Edf
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_kind() {
        for k in SchedKind::ALL {
            let s = k.build(LinkId(3), 42);
            assert_eq!(s.len(), 0, "{} not empty at birth", s.name());
        }
    }

    #[test]
    fn mix_alternates_by_link_parity() {
        assert_eq!(SchedKind::FqFifoPlusMix.build(LinkId(0), 0).name(), "FQ");
        assert_eq!(SchedKind::FqFifoPlusMix.build(LinkId(1), 0).name(), "FIFO+");
    }

    #[test]
    fn random_ports_get_distinct_streams() {
        let mut a = SchedKind::Random.build(LinkId(0), 7);
        let mut b = SchedKind::Random.build(LinkId(1), 7);
        for seq in 0..20 {
            a.enqueue(ups_net::testutil::queued_slack(0, seq, seq));
            b.enqueue(ups_net::testutil::queued_slack(0, seq, seq));
        }
        let da: Vec<u64> = std::iter::from_fn(|| a.dequeue())
            .map(|q| q.pkt.seq)
            .collect();
        let db: Vec<u64> = std::iter::from_fn(|| b.dequeue())
            .map(|q| q.pkt.seq)
            .collect();
        assert_ne!(da, db);
    }
}
