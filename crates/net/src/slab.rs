//! The packet arena: slot-reusing storage for in-flight packets.
//!
//! The event loop used to box every packet into its `Arrive` event — one
//! heap allocation *per hop* of every packet, right on the hot path. The
//! [`PacketSlab`] replaces that: packets live in slots, events carry a
//! 4-byte [`PacketRef`] index, and freed slots go on a free list for
//! reuse. Packets are stored boxed — allocated once, when they are sent
//! — so a slab insert or remove moves 8 bytes, not the 144-byte
//! `Packet`, and the same box travels through queue entries and back
//! untouched. In steady state inserting and removing packets performs
//! **zero** heap allocation.
//!
//! Open-loop input reaches the arena through an
//! [`InjectSource`](crate::source::InjectSource), which builds a packet
//! at its send instant, so the arena holds only packets travelling
//! between events *in the network*, never packets a leg will send
//! later. (Packets pre-scheduled one by one with
//! `Network::inject_on_path` do wait in a slot until they are due;
//! transports inject at `now`.)
//!
//! A `PacketRef` is only as alive as the slot it names: removing a packet
//! invalidates its ref, and the slot may be handed to a different packet
//! by a later insert. The network is the only producer and consumer of
//! refs — it inserts at injection and at hop completion, and removes at
//! the matching `Arrive` — so every ref is used exactly once, enforced in
//! debug builds by poisoning empty slots.

use crate::packet::Packet;

/// Index of a live packet in the [`PacketSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(u32);

/// A slot-reusing arena of in-flight packets.
#[derive(Debug, Default)]
pub struct PacketSlab {
    slots: Vec<Option<Box<Packet>>>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> PacketSlab {
        PacketSlab::default()
    }

    /// Store `pkt`, reusing a freed slot when one exists.
    pub fn insert(&mut self, pkt: Box<Packet>) -> PacketRef {
        let idx = match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none(), "free-listed live slot");
                self.slots[idx as usize] = Some(pkt);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("PacketSlab overflow");
                self.slots.push(Some(pkt));
                idx
            }
        };
        PacketRef(idx)
    }

    /// Remove and return the packet at `r`, freeing its slot. Panics if
    /// the ref was already consumed (a use-after-free in the event loop).
    pub fn remove(&mut self, r: PacketRef) -> Box<Packet> {
        let pkt = self.slots[r.0 as usize]
            .take()
            .expect("PacketRef used after removal");
        self.free.push(r.0);
        pkt
    }

    /// Hint the CPU to pull the packet at `r` into cache. The event loop
    /// issues this for the *next* event's packet while the current one is
    /// being processed: packets are touched once per hop with microseconds
    /// of simulated (and thousands of events of real) distance between
    /// touches, so the first access of a hop otherwise eats a cache miss.
    /// No-op for a stale ref or on non-x86 targets.
    #[inline]
    pub fn prefetch(&self, r: PacketRef) {
        #[cfg(target_arch = "x86_64")]
        if let Some(Some(pkt)) = self.slots.get(r.0 as usize) {
            crate::packet::prefetch_packet(pkt);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = r;
    }

    /// Number of live packets.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True if no packets are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (live + reusable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SchedHeader;
    use crate::testutil::packet;

    #[test]
    fn insert_get_remove_round_trips() {
        let mut slab = PacketSlab::new();
        let r0 = slab.insert(Box::new(packet(0, 0, 0, SchedHeader::default())));
        let r1 = slab.insert(Box::new(packet(1, 1, 0, SchedHeader::default())));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(r1).id.0, 1);
        assert_eq!(slab.remove(r0).id.0, 0);
        assert!(slab.is_empty());
    }

    #[test]
    fn slots_are_reused_without_growth() {
        let mut slab = PacketSlab::new();
        // Steady state: two packets in flight, many hops each.
        let mut live = vec![
            slab.insert(Box::new(packet(0, 0, 0, SchedHeader::default()))),
            slab.insert(Box::new(packet(1, 0, 1, SchedHeader::default()))),
        ];
        for hop in 0..1000 {
            let pkt = slab.remove(live.remove(0));
            live.push(slab.insert(pkt));
            assert_eq!(slab.capacity(), 2, "slab grew at hop {hop}");
        }
    }

    #[test]
    #[should_panic(expected = "used after removal")]
    fn stale_ref_is_rejected() {
        let mut slab = PacketSlab::new();
        let r = slab.insert(Box::new(packet(0, 0, 0, SchedHeader::default())));
        slab.remove(r);
        slab.remove(r);
    }
}
