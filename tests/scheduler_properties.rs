//! Property-based tests of scheduler invariants: conservation (no
//! packet is lost or duplicated), ordering laws, and drop-victim
//! behavior, across every algorithm.

// Hash maps here serve keyed lookups only: nothing iterates them, so
// no hash order can reach a result. Clippy's hash-type ban is relaxed
// file-wide.
#![allow(clippy::disallowed_types)]

use proptest::prelude::*;
use std::collections::BTreeMap;
use ups::net::testutil::queued_full;
use ups::net::Fifo;
use ups::net::{EvictOutcome, Queued, Scheduler};
use ups::sched::{
    edf::edf, fifoplus::fifo_plus, fq::Fq, lifo::Lifo, lstf::lstf, prio::sjf, random::Random,
    soa::OrderedQueue, srpt::Srpt, Lstf, SchedKind,
};

/// A generated packet description: (flow, slack, prio, enqueue ns).
type Desc = (u64, i64, i64, u64);

fn descs() -> impl Strategy<Value = Vec<Desc>> {
    prop::collection::vec((0u64..6, 0i64..2_000_000, 0i64..1_000, 0u64..1_000), 1..60)
}

fn enqueue_all(s: &mut dyn Scheduler, items: &[Desc]) {
    for (i, &(flow, slack, prio, enq)) in items.iter().enumerate() {
        let mut q = queued_full(flow, i as u64, slack, prio, enq);
        q.arrival_seq = i as u64;
        s.enqueue(q);
    }
}

fn drain(s: &mut dyn Scheduler) -> Vec<Queued> {
    std::iter::from_fn(|| s.dequeue()).collect()
}

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fifo::new()),
        Box::new(Lifo::new()),
        Box::new(Random::new(42)),
        Box::new(sjf()),
        Box::new(Srpt::new()),
        Box::new(Fq::new()),
        Box::new(fifo_plus()),
        Box::new(lstf()),
        Box::new(edf()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_scheduler_conserves_packets(items in descs()) {
        for mut s in all_schedulers() {
            enqueue_all(s.as_mut(), &items);
            prop_assert_eq!(s.len(), items.len(), "{} len", s.name());
            let out = drain(s.as_mut());
            let mut seqs: Vec<u64> = out.iter().map(|q| q.pkt.seq).collect();
            seqs.sort_unstable();
            let want: Vec<u64> = (0..items.len() as u64).collect();
            prop_assert_eq!(seqs, want, "{} lost or duplicated packets", s.name());
            prop_assert!(s.dequeue().is_none());
            prop_assert_eq!(s.len(), 0);
        }
    }

    #[test]
    fn lstf_dequeues_in_deadline_order(items in descs()) {
        let mut s = lstf();
        enqueue_all(&mut s, &items);
        let out = drain(&mut s);
        let keys: Vec<i64> = out.iter().map(|q| q.slack_deadline()).collect();
        prop_assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "out-of-order deadlines: {keys:?}"
        );
    }

    #[test]
    fn sjf_dequeues_in_priority_order(items in descs()) {
        let mut s = sjf();
        enqueue_all(&mut s, &items);
        let out = drain(&mut s);
        let prios: Vec<i64> = out.iter().map(|q| q.pkt.hdr.prio).collect();
        prop_assert!(prios.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fifo_preserves_arrival_order(items in descs()) {
        let mut s = Fifo::new();
        enqueue_all(&mut s, &items);
        let out = drain(&mut s);
        let seqs: Vec<u64> = out.iter().map(|q| q.arrival_seq).collect();
        prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn srpt_serves_flows_in_fcfs_within_flow(items in descs()) {
        let mut s = Srpt::new();
        enqueue_all(&mut s, &items);
        let out = drain(&mut s);
        // Within each flow, packets come out in arrival order
        // (starvation prevention: flow head first).
        let mut last_seen: std::collections::HashMap<u64, u64> = Default::default();
        for q in &out {
            if let Some(&prev) = last_seen.get(&q.pkt.flow.0) {
                prop_assert!(prev < q.arrival_seq, "flow reordered internally");
            }
            last_seen.insert(q.pkt.flow.0, q.arrival_seq);
        }
    }

    #[test]
    fn lstf_eviction_keeps_the_most_urgent(items in descs()) {
        prop_assume!(items.len() >= 2);
        let mut s = lstf();
        enqueue_all(&mut s, &items);
        // Evict against a mid-urgency probe: whatever happens, the
        // minimum deadline in the queue must never be evicted.
        let before_min = {
            let out = drain(&mut s);
            let min = out.iter().map(|q| q.slack_deadline()).min().unwrap();
            for q in out {
                s.enqueue(q);
            }
            min
        };
        let probe = queued_full(99, 999, 1_000_000, 0, 500);
        match s.evict_for(&probe) {
            EvictOutcome::Evicted(v) => {
                prop_assert!(
                    v.slack_deadline() >= before_min,
                    "evicted a packet more urgent than the minimum"
                );
            }
            EvictOutcome::DropIncoming => {}
        }
    }

    #[test]
    fn factory_builds_are_empty_and_named(seed in 0u64..100) {
        for kind in [
            SchedKind::Fifo, SchedKind::Lifo, SchedKind::Random,
            SchedKind::Priority, SchedKind::Sjf, SchedKind::Srpt,
            SchedKind::Fq, SchedKind::FifoPlus,
            SchedKind::Lstf, SchedKind::Edf, SchedKind::FqFifoPlusMix,
        ] {
            let s = kind.build(ups::net::LinkId(seed as u32), seed);
            prop_assert_eq!(s.len(), 0);
            prop_assert!(!s.name().is_empty());
        }
    }
}

/// One phase of the [`OrderedQueue`] model script: a mode and the raw
/// values it consumes, one operation each.
type Phase = (u8, Vec<i64>);

fn phases() -> impl Strategy<Value = Vec<Phase>> {
    let raw = prop::collection::vec(-1_000_000_000i64..1_000_000_000, 0..1024);
    prop::collection::vec((0u8..7, raw), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `OrderedQueue` against a `BTreeMap` keyed like the map it once
    /// was, under interleaved operations at depths up to 4,096. The
    /// phases aim at each arm of the ends-first admit: strictly rising
    /// runs (new maximum, front), strictly falling runs (new minimum,
    /// back), uniform keys (the search), a narrow range (ties, FCFS by
    /// `arrival_seq`); negative keys are late slack.
    #[test]
    fn ordered_queue_matches_btreemap_model(script in phases()) {
        const MAX_DEPTH: usize = 4096;
        let mut q: OrderedQueue<i64> = OrderedQueue::new();
        // (key, arrival_seq) -> the packet's flow id, a payload tag.
        let mut model: BTreeMap<(i64, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        for (mode, raws) in script {
            for (i, raw) in raws.into_iter().enumerate() {
                let lo = model.first_key_value().map(|(&(k, _), _)| k);
                let hi = model.last_key_value().map(|(&(k, _), _)| k);
                let step = raw.rem_euclid(5) + 1;
                let insert = match mode {
                    0 => Some(raw),
                    1 => Some(raw.rem_euclid(7) - 3),
                    2 => Some(hi.map_or(raw, |k| k + step)),
                    3 => Some(lo.map_or(raw, |k| k - step)),
                    // A port in service: arrivals alternate with pops.
                    4 if i % 2 == 0 => Some(raw),
                    _ => None,
                };
                match insert {
                    Some(key) if model.len() < MAX_DEPTH => {
                        seq += 1;
                        let tag = raw.unsigned_abs() % 64;
                        q.insert(key, queued_full(tag, seq, 0, key, 0));
                        model.insert((key, seq), tag);
                    }
                    Some(_) => {}
                    None => {
                        let (got, want) = if mode == 6 {
                            (q.pop_max(), model.pop_last())
                        } else {
                            (q.pop_min(), model.pop_first())
                        };
                        let got = got.map(|(k, e)| ((k, e.arrival_seq), e.pkt.flow.0));
                        prop_assert_eq!(got, want, "pop in mode {}", mode);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(
                    q.peek_min().map(|e| e.arrival_seq),
                    model.first_key_value().map(|(&(_, s), _)| s)
                );
                prop_assert_eq!(q.max_key(), model.last_key_value().map(|(&(k, _), _)| k));
            }
        }
        // What is left drains in model order.
        while let Some((key, e)) = q.pop_min() {
            prop_assert_eq!(Some(((key, e.arrival_seq), e.pkt.flow.0)), model.pop_first());
        }
        prop_assert!(model.is_empty());
    }

    /// `Keyed` under what `Link::preempt` does: the packet in service
    /// goes back into the queue with a fresh `arrival_seq` and a shorter
    /// `tx_dur`, among fresh arrivals, services and drop-worst evictions.
    #[test]
    fn keyed_requeue_with_fresh_arrival_seq_matches_model(
        ops in prop::collection::vec((0u8..5, -40i64..40), 1..600),
    ) {
        let mut s = lstf();
        // (slack deadline, arrival_seq) -> packet seq.
        let mut model: BTreeMap<(i64, u64), u64> = BTreeMap::new();
        let mut arrival = 0u64;
        let mut admit = |s: &mut Lstf, model: &mut BTreeMap<_, _>, mut q: Queued| {
            arrival += 1;
            q.arrival_seq = arrival;
            model.insert((q.slack_deadline(), arrival), q.pkt.seq);
            s.enqueue(q);
        };
        for (pkt_seq, (op, slack)) in ops.into_iter().enumerate() {
            let pkt_seq = pkt_seq as u64;
            match op {
                0 | 1 => admit(&mut s, &mut model, queued_full(0, pkt_seq, slack, 0, 0)),
                2 => {
                    let got = s.dequeue().map(|q| q.pkt.seq);
                    prop_assert_eq!(got, model.pop_first().map(|(_, v)| v));
                }
                3 => {
                    if let Some(mut q) = s.dequeue() {
                        prop_assert_eq!(Some(q.pkt.seq), model.pop_first().map(|(_, v)| v));
                        q.tx_dur = ups::sim::Dur(q.tx_dur.as_ps() / 2);
                        q.pkt.tx_left = q.tx_dur;
                        admit(&mut s, &mut model, q);
                    }
                }
                _ => {
                    let probe = queued_full(0, pkt_seq, slack, 0, 0);
                    let worse = model
                        .last_key_value()
                        .is_some_and(|(&(k, _), _)| k > probe.slack_deadline());
                    let want = if worse { model.pop_last().map(|(_, v)| v) } else { None };
                    let got = match s.evict_for(&probe) {
                        EvictOutcome::Evicted(v) => Some(v.pkt.seq),
                        EvictOutcome::DropIncoming => None,
                    };
                    prop_assert_eq!(got, want, "drop-worst victim");
                }
            }
            prop_assert_eq!(s.len(), model.len());
            prop_assert_eq!(
                s.peek().map(|p| p.seq),
                model.first_key_value().map(|(_, &v)| v)
            );
        }
    }
}

#[test]
fn random_scheduler_is_seed_deterministic_across_drains() {
    let items: Vec<Desc> = (0..40).map(|i| (i % 5, 0, 0, i)).collect();
    let drain_with = |seed: u64| {
        let mut s = Random::new(seed);
        enqueue_all(&mut s, &items);
        drain(&mut s)
            .into_iter()
            .map(|q| q.pkt.seq)
            .collect::<Vec<_>>()
    };
    assert_eq!(drain_with(7), drain_with(7));
    assert_ne!(drain_with(7), drain_with(8));
}
