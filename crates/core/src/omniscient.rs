//! The omniscient UPS of Appendix B.
//!
//! With *omniscient* header initialization, each packet is given the
//! vector of per-hop scheduling times `⟨o(p, α₁), …, o(p, αₙ)⟩`. Each
//! router looks up its own entry and uses it as a static priority —
//! earlier original scheduling time = served first. Appendix B proves
//! this replays **any** viable schedule perfectly; the property tests in
//! `tests/` exercise that end-to-end. The vectors are a proof device, so
//! packets do not carry them: every port shares one [`HopTable`], and a
//! replay packet's id is its row in the schedule.

use crate::schedule::RecordedSchedule;
use std::sync::Arc;
use ups_net::scheduler::Queued;
use ups_sched::keyed::{KeyPolicy, Keyed};
use ups_sim::Time;

/// A recorded schedule's per-hop scheduling times `o(p, α_k)`: packet
/// `k`'s hop `h` is `times[first[k] + h]`.
#[derive(Debug)]
pub struct HopTable {
    first: Vec<usize>,
    times: Vec<Time>,
}

impl HopTable {
    /// The transmission starts of `schedule`, laid out as its hop arena.
    pub fn of(schedule: &RecordedSchedule) -> HopTable {
        HopTable {
            first: schedule.packets.iter().map(|p| p.hop_offset).collect(),
            times: schedule.hops.iter().map(|h| h.tx_start).collect(),
        }
    }
}

/// Key policy: priority = this hop's recorded scheduling time.
#[derive(Debug)]
pub struct OmniscientPolicy(Arc<HopTable>);

impl KeyPolicy for OmniscientPolicy {
    fn name(&self) -> &'static str {
        "Omniscient"
    }
    fn key(&self, q: &Queued) -> i64 {
        let first = self.0.first[q.pkt.id.0 as usize];
        self.0.times[first + q.pkt.hops_done as usize].as_ps() as i64
    }
}

/// The omniscient per-hop-priority scheduler.
pub type Omniscient = Keyed<OmniscientPolicy>;

/// Construct an omniscient scheduler keyed on `table`.
pub fn omniscient(table: Arc<HopTable>) -> Omniscient {
    Keyed::new(OmniscientPolicy(table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::testutil::queued_slack;
    use ups_net::Scheduler;

    /// A table whose row `k` holds `rows[k]`, in microseconds.
    fn table(rows: &[&[u64]]) -> Arc<HopTable> {
        let mut t = HopTable {
            first: Vec::new(),
            times: Vec::new(),
        };
        for row in rows {
            t.first.push(t.times.len());
            t.times.extend(row.iter().map(|&us| Time::from_micros(us)));
        }
        Arc::new(t)
    }

    fn at_hop(id: u64, hops_done: u16) -> ups_net::Queued {
        let mut q = queued_slack(0, 0, id);
        q.pkt.hops_done = hops_done;
        q
    }

    #[test]
    fn orders_by_current_hop_entry() {
        let mut s = omniscient(table(&[&[5, 50], &[10, 999]]));
        // Packet 0 is at hop 1 with entry 50us; packet 1 at hop 0 with
        // entry 10us: packet 1 wins even though its later entries are big.
        s.enqueue(at_hop(0, 1));
        s.enqueue(at_hop(1, 0));
        assert_eq!(s.dequeue().unwrap().pkt.seq, 1);
        assert_eq!(s.dequeue().unwrap().pkt.seq, 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn rejects_packets_outside_the_table() {
        let mut s = omniscient(table(&[&[5]]));
        s.enqueue(at_hop(1, 0));
    }
}
