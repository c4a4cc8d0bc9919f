//! FIFO+ (Clark, Shenker, Zhang 1992) — minimizes tail delay in multi-hop
//! networks by prioritizing packets "based on the amount of queueing delay
//! they have seen at their previous hops" (§3.2).
//!
//! Implementation note: the paper observes that LSTF with a constant
//! initial slack *is* FIFO+. With constant slack `S`, the LSTF deadline at
//! a router is `enq + (S − Σ upstream waits) + tx`, so for uniform packet
//! sizes the order reduces to `enq_time − accumulated queueing delay`: a
//! virtual arrival time credited for upstream waiting. That is the key
//! used here, reading the wait accumulator the port maintains in
//! `pkt.qdelay` — no slack header required, making FIFO+ usable as an
//! *original* schedule in replay experiments (Table 1's FQ/FIFO+ row).

use crate::keyed::{KeyPolicy, Keyed};
use ups_net::scheduler::Queued;

/// Key policy for FIFO+.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPlusPolicy;

impl KeyPolicy for FifoPlusPolicy {
    fn name(&self) -> &'static str {
        "FIFO+"
    }
    fn key(&self, q: &Queued) -> i64 {
        q.enq_time.as_ps() as i64 - q.pkt.qdelay.as_i64()
    }
}

/// FIFO+ scheduler.
pub type FifoPlus = Keyed<FifoPlusPolicy>;

/// Construct a FIFO+ scheduler.
pub fn fifo_plus() -> FifoPlus {
    Keyed::new(FifoPlusPolicy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::scheduler::Scheduler;
    use ups_net::testutil::queued_full;
    use ups_sim::Dur;

    #[test]
    fn upstream_waiters_jump_ahead() {
        let mut s = fifo_plus();
        // Packet 0 arrives first but has seen no queueing; packet 1
        // arrives 10us later having waited 50us upstream.
        let fresh = queued_full(0, 0, 0, 0, 0);
        let mut waited = queued_full(1, 1, 0, 0, 10_000);
        waited.pkt.qdelay = Dur::from_micros(50);
        s.enqueue(fresh);
        s.enqueue(waited);
        assert_eq!(s.dequeue().unwrap().pkt.seq, 1);
        assert_eq!(s.dequeue().unwrap().pkt.seq, 0);
    }

    #[test]
    fn without_upstream_delay_it_serves_in_arrival_order() {
        let mut s = fifo_plus();
        for seq in 0..5 {
            s.enqueue(queued_full(0, seq, 0, 0, seq * 100));
        }
        for seq in 0..5 {
            assert_eq!(s.dequeue().unwrap().pkt.seq, seq);
        }
    }
}
