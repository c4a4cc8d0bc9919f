//! Network-wide Earliest Deadline First (Appendix E).
//!
//! The static-header twin of LSTF: the packet header carries the *target
//! output time* `o(p)` unchanged end-to-end (in `hdr.prio`, as picoseconds),
//! and each router computes a local deadline
//! `priority(p) = o(p) − tmin(p, α, dest) + T(p, α)`
//! from static topology information. Appendix E proves this produces
//! exactly the same replay schedule as LSTF; the property test in
//! `ups-core` exercises that equivalence end-to-end.

use crate::keyed::{KeyPolicy, Keyed};
use ups_net::scheduler::Queued;

/// Key policy for network-wide EDF.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfPolicy;

impl KeyPolicy for EdfPolicy {
    fn name(&self) -> &'static str {
        "EDF"
    }
    fn key(&self, q: &Queued) -> i64 {
        // o(p) − tmin(p, α, dest) + T(p, α). `remaining_tmin()` — static
        // topology information EDF is permitted to use, walked here
        // because no other scheduler reads it — includes the local
        // transmission time (tmin from this hop inclusive), so adding
        // tx_dur back yields the Appendix E priority exactly.
        q.pkt.hdr.prio - q.pkt.remaining_tmin().as_i64() + q.tx_dur.as_i64()
    }
    fn preemptible(&self) -> bool {
        true
    }
}

/// Earliest Deadline First scheduler.
pub type Edf = Keyed<EdfPolicy>;

/// Construct an EDF scheduler.
pub fn edf() -> Edf {
    Keyed::new(EdfPolicy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::scheduler::Scheduler;
    use ups_net::testutil::queued_full;

    #[test]
    fn earlier_output_time_wins() {
        let mut s = edf();
        // Same path ⇒ same remaining tmin; order by o(p).
        s.enqueue(queued_full(0, 0, 0, 90_000_000, 0)); // o = 90us
        s.enqueue(queued_full(0, 1, 0, 30_000_000, 0)); // o = 30us
        assert_eq!(s.dequeue().unwrap().pkt.seq, 1);
        assert_eq!(s.dequeue().unwrap().pkt.seq, 0);
    }

    #[test]
    fn deadline_matches_lstf_slack_deadline() {
        // For a packet whose slack was initialized from o(p) and that has
        // not yet waited anywhere, the EDF key equals the LSTF deadline:
        // slack = o − i − tmin(src,dest); at the first hop enq = i, and
        // remaining_tmin() = tmin(src,dest) so
        //   EDF key  = o − tmin + tx
        //   LSTF key = enq + slack + tx = i + (o − i − tmin) + tx.
        let o: i64 = 500_000_000;
        let enq_ns: u64 = 2;
        let q_edf = queued_full(0, 0, 0, o, enq_ns);
        let tmin = q_edf.pkt.remaining_tmin().as_i64();
        let slack = o - (enq_ns as i64 * 1_000) - tmin;
        let q_lstf = queued_full(0, 0, slack, 0, enq_ns);
        assert_eq!(EdfPolicy.key(&q_edf), q_lstf.slack_deadline());
    }
}
