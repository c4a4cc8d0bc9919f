//! Ingress header stamping — the paper's §3 slack-initialization
//! heuristics plus the priority stamps SJF/SRPT need.
//!
//! | Policy | Paper use | Formula |
//! |---|---|---|
//! | [`SlackPolicy::None`] | FIFO & friends | slack = 0 |
//! | [`SlackPolicy::FlowSizeTimesD`] | mean FCT (§3.1) | `slack = fs(p) · D`, `fs` in packets, `D` ≫ any network delay |
//! | [`SlackPolicy::Constant`] | tail delay (§3.2) | same slack for every packet → LSTF ≡ FIFO+ |
//! | [`SlackPolicy::VirtualClock`] | fairness (§3.3) | `slack(pᵢ) = max(0, slack(pᵢ₋₁) + τ − (i(pᵢ) − i(pᵢ₋₁)))` with `τ` = packet time at the estimated fair rate |
//!
//! A [`HeaderStamper`] holds the per-flow state the virtual-clock rule
//! needs and is owned by whichever component injects packets (a host's
//! transport endpoint, or the UDP open-loop injector).

use std::collections::BTreeMap;
use ups_net::{FlowId, SchedHeader};
use ups_sim::{Bandwidth, Dur, Time, PS_PER_SEC};

/// Slack-initialization heuristic.
#[derive(Debug, Clone)]
pub enum SlackPolicy {
    /// Zero slack header (for schedulers that ignore it).
    None,
    /// `slack = flow_pkts × D` (§3.1). `D = 1 s` in the paper.
    FlowSizeTimesD {
        /// The multiplier D.
        d: Dur,
    },
    /// Constant slack for all packets (§3.2; 1 s in the paper).
    Constant {
        /// The constant.
        slack: Dur,
    },
    /// Virtual-clock pacing against an estimated fair rate (§3.3).
    VirtualClock {
        /// The fair-share estimate `rest` (any value ≤ r* converges).
        rest: Bandwidth,
    },
    /// Weighted fairness (§3.3's extension): per-flow `rest` values "in
    /// proportion to the desired weights". Flow `f` paces against
    /// `base × weight(f)`; flows without an entry use weight 1.
    WeightedVirtualClock {
        /// The unweighted rate estimate.
        base: Bandwidth,
        /// Per-flow weights (must be > 0).
        weights: BTreeMap<FlowId, f64>,
    },
}

/// Static-priority stamp for priority-based schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrioPolicy {
    /// prio = 0 for everything.
    None,
    /// prio = flow size in packets (SJF).
    FlowSize,
    /// prio = remaining packets of the flow including this one (SRPT).
    Remaining,
}

/// Stamps headers at the ingress, holding virtual-clock state per flow.
#[derive(Debug)]
pub struct HeaderStamper {
    /// Slack heuristic.
    pub slack: SlackPolicy,
    /// Priority stamp.
    pub prio: PrioPolicy,
    /// Virtual-clock state: (slack of previous packet, its arrival time).
    vc: BTreeMap<FlowId, (i64, Time)>,
}

impl HeaderStamper {
    /// Create a stamper.
    pub fn new(slack: SlackPolicy, prio: PrioPolicy) -> HeaderStamper {
        HeaderStamper {
            slack,
            prio,
            vc: BTreeMap::new(),
        }
    }

    /// Stamper that writes all-zero headers.
    pub fn zero() -> HeaderStamper {
        HeaderStamper::new(SlackPolicy::None, PrioPolicy::None)
    }

    /// Stamp a data packet of `wire_bytes` belonging to `flow` (total
    /// size `flow_pkts`, `remaining_pkts` unsent including this one),
    /// injected at `now`.
    pub fn stamp_data(
        &mut self,
        flow: FlowId,
        flow_pkts: u64,
        remaining_pkts: u64,
        wire_bytes: u32,
        now: Time,
    ) -> SchedHeader {
        let slack = match &self.slack {
            SlackPolicy::None => 0,
            SlackPolicy::FlowSizeTimesD { d } => (flow_pkts as i64).saturating_mul(d.as_i64()),
            SlackPolicy::Constant { slack } => slack.as_i64(),
            SlackPolicy::VirtualClock { rest } => {
                self.vc_advance(flow, rest.tx_time(wire_bytes).as_i64(), now)
            }
            SlackPolicy::WeightedVirtualClock { base, weights } => {
                let w = weights.get(&flow).copied().unwrap_or(1.0);
                assert!(w > 0.0, "non-positive weight for {flow:?}");
                // rest_f = base × w ⇒ the per-packet pacing interval
                // shrinks by the weight.
                let tau = (base.tx_time(wire_bytes).as_i64() as f64 / w).round() as i64;
                self.vc_advance(flow, tau.max(1), now)
            }
        };
        let prio = match self.prio {
            PrioPolicy::None => 0,
            PrioPolicy::FlowSize => flow_pkts.min(i64::MAX as u64) as i64,
            PrioPolicy::Remaining => remaining_pkts.min(i64::MAX as u64) as i64,
        };
        SchedHeader { slack, prio }
    }

    /// Advance the virtual-clock recursion for `flow` with per-packet
    /// interval `tau`: `slack(pᵢ) = max(0, slack(pᵢ₋₁) + τ − gap)`.
    fn vc_advance(&mut self, flow: FlowId, tau: i64, now: Time) -> i64 {
        match self.vc.get(&flow) {
            None => {
                // First packet of the flow: slack = 0.
                self.vc.insert(flow, (0, now));
                0
            }
            Some(&(prev_slack, prev_time)) => {
                let gap = now.signed_since(prev_time);
                let s = (prev_slack + tau - gap).max(0);
                self.vc.insert(flow, (s, now));
                s
            }
        }
    }

    /// Stamp an acknowledgement. ACKs are tiny and ride lightly loaded
    /// reverse paths; they get a modest constant slack (1 ms) and top
    /// priority, mirroring pFabric's "ACKs are never the bottleneck"
    /// treatment.
    pub fn stamp_ack(&self) -> SchedHeader {
        SchedHeader {
            slack: PS_PER_SEC as i64 / 1_000,
            prio: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_size_times_d_orders_by_size() {
        let mut st = HeaderStamper::new(
            SlackPolicy::FlowSizeTimesD {
                d: Dur::from_secs(1),
            },
            PrioPolicy::None,
        );
        let small = st.stamp_data(FlowId(0), 2, 2, 1500, Time::ZERO);
        let big = st.stamp_data(FlowId(1), 1000, 1000, 1500, Time::ZERO);
        assert!(small.slack < big.slack);
        assert_eq!(small.slack, 2 * PS_PER_SEC as i64);
    }

    #[test]
    fn constant_slack_is_flat() {
        let mut st = HeaderStamper::new(
            SlackPolicy::Constant {
                slack: Dur::from_secs(1),
            },
            PrioPolicy::None,
        );
        for i in 0..5 {
            let h = st.stamp_data(FlowId(i), 10 + i, 1, 1500, Time::from_micros(i));
            assert_eq!(h.slack, PS_PER_SEC as i64);
        }
    }

    #[test]
    fn virtual_clock_first_packet_gets_zero() {
        let mut st = HeaderStamper::new(
            SlackPolicy::VirtualClock {
                rest: Bandwidth::gbps(1),
            },
            PrioPolicy::None,
        );
        assert_eq!(
            st.stamp_data(FlowId(9), 100, 100, 1500, Time::ZERO).slack,
            0
        );
    }

    #[test]
    fn virtual_clock_credits_slow_senders_and_charges_fast_ones() {
        let rest = Bandwidth::gbps(1); // tau = 12us per 1500B
        let mut st = HeaderStamper::new(SlackPolicy::VirtualClock { rest }, PrioPolicy::None);
        let f = FlowId(0);
        st.stamp_data(f, 100, 100, 1500, Time::ZERO);
        // Next packet arrives immediately (faster than rest): slack grows
        // by tau - 0 = 12us: the flow is ahead of its fair rate.
        let h = st.stamp_data(f, 100, 99, 1500, Time::ZERO);
        assert_eq!(h.slack, Dur::from_micros(12).as_i64());
        // Third packet arrives after a long idle gap: slack floors at 0.
        let h = st.stamp_data(f, 100, 98, 1500, Time::from_millis(1));
        assert_eq!(h.slack, 0);
    }

    #[test]
    fn virtual_clock_tracks_flows_independently() {
        let mut st = HeaderStamper::new(
            SlackPolicy::VirtualClock {
                rest: Bandwidth::gbps(1),
            },
            PrioPolicy::None,
        );
        st.stamp_data(FlowId(0), 10, 10, 1500, Time::ZERO);
        st.stamp_data(FlowId(0), 10, 9, 1500, Time::ZERO);
        // A different flow's first packet is still zero-slack.
        assert_eq!(st.stamp_data(FlowId(1), 10, 10, 1500, Time::ZERO).slack, 0);
    }

    #[test]
    fn weighted_virtual_clock_scales_tau_by_weight() {
        let mut weights = BTreeMap::new();
        weights.insert(FlowId(0), 2.0); // double share
        weights.insert(FlowId(1), 1.0);
        let mut st = HeaderStamper::new(
            SlackPolicy::WeightedVirtualClock {
                base: Bandwidth::gbps(1),
                weights,
            },
            PrioPolicy::None,
        );
        // Both flows send two back-to-back packets; the heavier flow
        // accrues half the slack credit (it is *entitled* to send twice
        // as fast, so back-to-back sending is less ahead of its share).
        st.stamp_data(FlowId(0), 10, 10, 1500, Time::ZERO);
        let h0 = st.stamp_data(FlowId(0), 10, 9, 1500, Time::ZERO);
        st.stamp_data(FlowId(1), 10, 10, 1500, Time::ZERO);
        let h1 = st.stamp_data(FlowId(1), 10, 9, 1500, Time::ZERO);
        assert_eq!(h0.slack * 2, h1.slack);
        // Unlisted flows default to weight 1.
        st.stamp_data(FlowId(9), 10, 10, 1500, Time::ZERO);
        let h9 = st.stamp_data(FlowId(9), 10, 9, 1500, Time::ZERO);
        assert_eq!(h9.slack, h1.slack);
    }

    #[test]
    fn priority_stamps() {
        let mut st = HeaderStamper::new(SlackPolicy::None, PrioPolicy::FlowSize);
        assert_eq!(st.stamp_data(FlowId(0), 77, 5, 1500, Time::ZERO).prio, 77);
        let mut st = HeaderStamper::new(SlackPolicy::None, PrioPolicy::Remaining);
        assert_eq!(st.stamp_data(FlowId(0), 77, 5, 1500, Time::ZERO).prio, 5);
    }

    #[test]
    fn ack_stamp_is_urgent() {
        let st = HeaderStamper::zero();
        let h = st.stamp_ack();
        assert_eq!(h.prio, 0);
        assert!(h.slack > 0);
    }
}
