//! Deficit Round Robin (Shreedhar & Varghese \[27\]).
//!
//! An O(1) approximation of fair queuing, included as an extra baseline
//! (the paper cites DRR among the fairness mechanisms a UPS would
//! subsume). Flows take turns; each visit adds one `quantum` of bytes to
//! the flow's deficit counter, and the flow sends head packets while its
//! deficit covers them.

// Both hash maps are read and written by FlowId key only; service order
// comes exclusively from the `active` VecDeque, so hash iteration order
// never reaches an artifact. Clippy's hash-type ban is relaxed
// file-wide.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, VecDeque};
use ups_net::scheduler::{Queued, Scheduler};
use ups_net::FlowId;

/// Deficit Round Robin scheduler.
#[derive(Debug)]
pub struct Drr {
    quantum: u32,
    flows: HashMap<FlowId, VecDeque<Queued>>,
    /// Round-robin order of active flows.
    active: VecDeque<FlowId>,
    deficit: HashMap<FlowId, u64>,
    len: usize,
}

impl Drr {
    /// Create a DRR scheduler; `quantum` is the per-round byte allowance
    /// (use at least the MTU so every visit can send something).
    pub fn new(quantum: u32) -> Drr {
        assert!(quantum > 0);
        Drr {
            quantum,
            flows: HashMap::new(),
            active: VecDeque::new(),
            deficit: HashMap::new(),
            len: 0,
        }
    }
}

impl Scheduler for Drr {
    fn name(&self) -> &'static str {
        "DRR"
    }

    fn enqueue(&mut self, q: Queued) {
        let flow = q.pkt.flow;
        let fq = self.flows.entry(flow).or_default();
        if fq.is_empty() {
            self.active.push_back(flow);
            self.deficit.entry(flow).or_insert(0);
        }
        fq.push_back(q);
        self.len += 1;
    }

    fn dequeue(&mut self) -> Option<Queued> {
        if self.len == 0 {
            return None;
        }
        loop {
            let flow = *self.active.front().expect("active list empty with len>0");
            let fq = self.flows.get_mut(&flow).expect("active flow missing");
            let head_size = fq.front().expect("active flow empty").pkt.size as u64;
            let d = self.deficit.get_mut(&flow).expect("no deficit");
            if *d >= head_size {
                *d -= head_size;
                let q = fq.pop_front().expect("checked non-empty");
                self.len -= 1;
                if fq.is_empty() {
                    // A flow leaving the active list forfeits its deficit.
                    self.flows.remove(&flow);
                    self.deficit.remove(&flow);
                    self.active.pop_front();
                }
                return Some(q);
            }
            // Head doesn't fit: add a quantum and move to the back.
            *d += self.quantum as u64;
            self.active.rotate_left(1);
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::testutil::queued_flow;

    #[test]
    fn round_robins_equal_sized_packets() {
        let mut s = Drr::new(1500);
        let mut seq = 0;
        for _ in 0..3 {
            s.enqueue(queued_flow(0, 0, 0, seq));
            seq += 1;
        }
        for _ in 0..3 {
            s.enqueue(queued_flow(1, 0, 0, seq));
            seq += 1;
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue())
            .map(|q| q.pkt.flow.0)
            .collect();
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn empty_returns_none() {
        let mut s = Drr::new(1500);
        assert!(s.dequeue().is_none());
        s.enqueue(queued_flow(0, 0, 0, 0));
        assert!(s.dequeue().is_some());
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn flow_departure_forfeits_deficit() {
        let mut s = Drr::new(1500);
        s.enqueue(queued_flow(0, 0, 0, 0));
        s.dequeue();
        // Re-activate the flow: deficit restarts at zero (needs a fresh
        // quantum before sending), same as a brand-new flow.
        s.enqueue(queued_flow(0, 0, 1, 1));
        s.enqueue(queued_flow(1, 0, 1, 2));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue())
            .map(|q| q.pkt.flow.0)
            .collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn conserves_packets_across_flows() {
        let mut s = Drr::new(1500);
        for i in 0..60u64 {
            s.enqueue(queued_flow(i % 5, 0, i, i));
        }
        let mut seqs: Vec<u64> = std::iter::from_fn(|| s.dequeue())
            .map(|q| q.pkt.seq)
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..60).collect::<Vec<_>>());
    }
}
