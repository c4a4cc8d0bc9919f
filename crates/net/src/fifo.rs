//! First-in-first-out scheduler — the baseline and the default for every
//! port until an experiment installs something else.

use crate::scheduler::{Queued, Scheduler};
use std::collections::VecDeque;

/// Drop-tail FIFO queue.
#[derive(Debug, Default)]
pub struct Fifo {
    q: VecDeque<Queued>,
}

impl Fifo {
    /// Create an empty FIFO queue.
    pub fn new() -> Fifo {
        Fifo::default()
    }
}

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn enqueue(&mut self, q: Queued) {
        self.q.push_back(q);
    }

    fn dequeue(&mut self) -> Option<Queued> {
        self.q.pop_front()
    }

    fn len(&self) -> usize {
        self.q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::EvictOutcome;
    use crate::testutil::queued_slack as queued;

    #[test]
    fn fifo_order() {
        let mut f = Fifo::new();
        for i in 0..5 {
            f.enqueue(queued(0, i, i));
        }
        for i in 0..5 {
            assert_eq!(f.dequeue().unwrap().pkt.seq, i);
        }
        assert!(f.dequeue().is_none());
    }

    #[test]
    fn fifo_is_drop_tail() {
        let mut f = Fifo::new();
        f.enqueue(queued(0, 0, 0));
        let incoming = queued(0, 1, 1);
        assert!(matches!(f.evict_for(&incoming), EvictOutcome::DropIncoming));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn fifo_never_preempts() {
        let f = Fifo::new();
        assert!(f.urgency(&queued(0, 0, 0)).is_none());
    }
}
