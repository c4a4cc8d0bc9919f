//! Bounded ring buffer of packet/flow lifecycle events.

use ups_sim::Time;

/// What happened to a packet (or flow) at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifeKind {
    /// Packet entered the network at its source host.
    Inject,
    /// Packet was admitted to a link queue.
    Enqueue,
    /// Packet began serializing onto a wire.
    TxStart,
    /// Packet reached its destination.
    Deliver,
    /// Packet was dropped (buffer overflow).
    Drop,
    /// A deadline-tagged flow's packet arrived after the flow's
    /// absolute deadline.
    DeadlineMiss,
}

impl LifeKind {
    /// Stable lowercase label used in the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            LifeKind::Inject => "inject",
            LifeKind::Enqueue => "enqueue",
            LifeKind::TxStart => "tx_start",
            LifeKind::Deliver => "deliver",
            LifeKind::Drop => "drop",
            LifeKind::DeadlineMiss => "deadline_miss",
        }
    }
}

/// One structured lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifeEvent {
    /// When it happened.
    pub t: Time,
    /// What happened.
    pub kind: LifeKind,
    /// Flow the packet belongs to.
    pub flow: u64,
    /// Sequence number within the flow.
    pub seq: u64,
    /// Where: link id for queue/wire events, node id for endpoint
    /// events (inject/deliver/deadline-miss).
    pub loc: u32,
}

/// A bounded ring of the most recent lifecycle events.
///
/// Capacity is fixed at construction; pushing past it overwrites the
/// oldest entry, so the hot path never allocates and memory stays
/// bounded on arbitrarily long runs. `total()` still counts every
/// event ever pushed, so "how much did we drop" is always known.
#[derive(Debug, Clone)]
pub struct LifecycleRing {
    buf: Vec<LifeEvent>,
    cap: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    total: u64,
}

impl LifecycleRing {
    /// A ring keeping the most recent `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> LifecycleRing {
        let cap = cap.max(1);
        LifecycleRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            total: 0,
        }
    }

    /// Record an event, overwriting the oldest if full.
    #[inline]
    pub fn push(&mut self, ev: LifeEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Every event ever pushed (retained or overwritten).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &LifeEvent> {
        let (wrapped, recent) = self.buf.split_at(self.head);
        recent.iter().chain(wrapped.iter())
    }

    /// Export the retained events as JSON Lines, oldest first — one
    /// compact object per line:
    /// `{"t_ps":…,"kind":"…","flow":…,"seq":…,"loc":…}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 64);
        for ev in self.iter() {
            out.push_str(&format!(
                "{{\"t_ps\":{},\"kind\":\"{}\",\"flow\":{},\"seq\":{},\"loc\":{}}}\n",
                ev.t.as_ps(),
                ev.kind.label(),
                ev.flow,
                ev.seq,
                ev.loc
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_us: u64, kind: LifeKind, seq: u64) -> LifeEvent {
        LifeEvent {
            t: Time::from_micros(t_us),
            kind,
            flow: 7,
            seq,
            loc: 3,
        }
    }

    #[test]
    fn wraps_and_keeps_most_recent() {
        let mut r = LifecycleRing::new(3);
        for i in 0..5 {
            r.push(ev(i, LifeKind::Enqueue, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 5);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest-first iteration after wrap");
    }

    #[test]
    fn jsonl_lines_parse_as_flat_objects() {
        let mut r = LifecycleRing::new(8);
        r.push(ev(1, LifeKind::Inject, 0));
        r.push(ev(2, LifeKind::Drop, 1));
        let out = r.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t_ps\":1000000,\"kind\":\"inject\",\"flow\":7,\"seq\":0,\"loc\":3}"
        );
        assert!(lines[1].contains("\"kind\":\"drop\""));
    }
}
