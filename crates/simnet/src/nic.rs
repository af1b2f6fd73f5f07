//! Per-node network interface: per-flow injection queues drained
//! round-robin at link bandwidth, gated by switch admission credits
//! (back-pressure).
//!
//! Flows model InfiniBand queue pairs: each sending process gets its own
//! send queue and the NIC arbitrates between active queues packet by
//! packet. Without this, one process with a deep backlog (CompressionB
//! queues megabytes) would head-of-line-block every other process on the
//! node — most damagingly the latency probes, whose single packet would
//! measure the *local* backlog instead of the switch.
//!
//! A flow's queue holds one entry per message, not per packet: packets are
//! cut from the head message at transmit time ("lazy segmentation") and
//! handed out as [`PacketRef`]s. This sends exactly the `(message, index)`
//! sequence a queue of individual packets would: each flow stays FIFO, and
//! round-robin still advances one packet per turn.

use std::collections::VecDeque;

use crate::packet::PacketRef;
use crate::util::IdHashMap;

/// Identifies a sending context (one rank / queue pair) for NIC
/// arbitration.
pub type FlowId = u64;

/// One queued message on a flow: packets `next..packets` of the message in
/// slab slot `slot` are still to be sent. Packets are cut from it one at a
/// time at transmit time, so a deep backlog costs one entry per message.
#[derive(Debug, Clone, Copy)]
struct Pending {
    slot: u32,
    next: u32,
    packets: u32,
}

/// The transmit side of one node's NIC.
///
/// Receiving needs no state: delivered packets are handed straight to the
/// upper layer by the fabric.
#[derive(Debug, Default)]
pub struct Nic {
    /// Dense queue index of every flow that has ever sent. Consulted once
    /// per message, never per packet; a flow keeps its queue (and the
    /// queue's allocation) after it drains.
    flow_index: IdHashMap<FlowId, u32>,
    /// Per-flow FIFO queues of partly sent messages, by dense index.
    queues: Vec<VecDeque<Pending>>,
    /// Round-robin order of flows (dense indices) with queued packets.
    rr: VecDeque<u32>,
    /// Packets queued across all flows.
    queued: usize,
    /// Packet currently being serialized onto the wire, if any.
    tx: Option<PacketRef>,
    /// True while this NIC is parked in the switch's back-pressure waiter
    /// list (prevents double-parking).
    pub(crate) waiting_for_credit: bool,
}

impl Nic {
    /// Queues all `packets` packets of the message in slab slot `slot` on
    /// `flow`'s send queue.
    pub fn enqueue(&mut self, flow: FlowId, slot: u32, packets: u32) {
        debug_assert!(packets > 0, "a message has at least one packet");
        let next_index = self.queues.len() as u32;
        let idx = *self.flow_index.entry(flow).or_insert(next_index);
        if idx == next_index {
            self.queues.push(VecDeque::new());
        }
        let q = &mut self.queues[idx as usize];
        if q.is_empty() {
            self.rr.push_back(idx);
        }
        q.push_back(Pending {
            slot,
            next: 0,
            packets,
        });
        self.queued += packets as usize;
    }

    /// True if the NIC could start a transmission: idle, not parked, and
    /// has something to send.
    pub fn can_start(&self) -> bool {
        self.tx.is_none() && !self.waiting_for_credit && self.queued > 0
    }

    /// Begins serializing the next packet, taken round-robin across active
    /// flows (credit must already be held), and returns it; the caller
    /// derives its serialization time and schedules TX-done.
    ///
    /// # Panics
    /// Panics if no packet is queued.
    pub fn start_tx(&mut self) -> PacketRef {
        debug_assert!(self.tx.is_none(), "NIC started while busy");
        // anp-lint: allow(D003) — internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results
        let idx = self.rr.pop_front().expect("start_tx on empty NIC queue");
        let q = &mut self.queues[idx as usize];
        // A flow is in `rr` exactly while its queue is non-empty, and a
        // queued message always has a packet left.
        let head = &mut q[0];
        let pkt = PacketRef {
            slot: head.slot,
            index: head.next,
        };
        head.next += 1;
        if head.next == head.packets {
            q.pop_front();
        }
        if !q.is_empty() {
            // One packet per turn: re-queue the flow at the back.
            self.rr.push_back(idx);
        }
        self.queued -= 1;
        self.tx = Some(pkt);
        pkt
    }

    /// Completes the in-flight transmission, returning the packet now on
    /// the wire toward the switch.
    ///
    /// # Panics
    /// Panics if no transmission is in flight.
    pub fn tx_done(&mut self) -> PacketRef {
        self.tx
            .take()
            // anp-lint: allow(D003) — internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results
            .expect("NIC tx_done with no packet in flight")
    }

    /// Packets queued (not counting one in flight).
    pub fn backlog(&self) -> usize {
        self.queued
    }

    /// Number of flows with queued packets.
    pub fn active_flows(&self) -> usize {
        self.rr.len()
    }

    /// True if a packet is currently being serialized.
    pub fn is_transmitting(&self) -> bool {
        self.tx.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Sends one packet and returns it.
    fn send(nic: &mut Nic) -> PacketRef {
        nic.start_tx();
        nic.tx_done()
    }

    #[test]
    fn nic_lifecycle() {
        let mut nic = Nic::default();
        assert!(!nic.can_start());
        nic.enqueue(1, 10, 1);
        nic.enqueue(1, 11, 1);
        assert!(nic.can_start());
        assert_eq!(nic.backlog(), 2);
        assert_eq!(nic.active_flows(), 1);

        let started = nic.start_tx();
        assert_eq!(started, PacketRef { slot: 10, index: 0 });
        assert!(nic.is_transmitting());
        assert!(!nic.can_start(), "busy NIC cannot start another tx");

        let sent = nic.tx_done();
        assert_eq!(sent, started);
        assert!(nic.can_start());
        assert_eq!(nic.backlog(), 1);
    }

    #[test]
    fn single_flow_is_fifo() {
        let mut nic = Nic::default();
        for slot in 0..5 {
            nic.enqueue(7, slot, 1);
        }
        for slot in 0..5 {
            assert_eq!(send(&mut nic).slot, slot);
        }
    }

    #[test]
    fn messages_are_cut_into_packets_in_order() {
        let mut nic = Nic::default();
        nic.enqueue(7, 3, 3);
        nic.enqueue(7, 4, 1);
        assert_eq!(nic.backlog(), 4);
        let order: Vec<(u32, u32)> = (0..4)
            .map(|_| {
                let p = send(&mut nic);
                (p.slot, p.index)
            })
            .collect();
        assert_eq!(order, vec![(3, 0), (3, 1), (3, 2), (4, 0)]);
        assert_eq!(nic.backlog(), 0);
        assert!(!nic.can_start());
    }

    #[test]
    fn flows_interleave_round_robin() {
        let mut nic = Nic::default();
        // Flow 1 has a deep backlog; flow 2 has a single probe packet
        // enqueued later. Round-robin must send the probe second, not
        // fifth.
        for slot in 0..4 {
            nic.enqueue(1, slot, 1);
        }
        nic.enqueue(2, 99, 1);
        let order: Vec<u32> = (0..5).map(|_| send(&mut nic).slot).collect();
        assert_eq!(order, vec![0, 99, 1, 2, 3]);
    }

    #[test]
    fn three_flows_share_fairly() {
        let mut nic = Nic::default();
        for f in 0..3u32 {
            for i in 0..2 {
                nic.enqueue(u64::from(f), f * 10 + i, 1);
            }
        }
        let order: Vec<u32> = (0..6).map(|_| send(&mut nic).slot).collect();
        assert_eq!(order, vec![0, 10, 20, 1, 11, 21]);
    }

    #[test]
    fn parked_nic_cannot_start() {
        let mut nic = Nic::default();
        nic.enqueue(0, 1, 1);
        nic.waiting_for_credit = true;
        assert!(!nic.can_start());
        nic.waiting_for_credit = false;
        assert!(nic.can_start());
    }

    #[test]
    #[should_panic(expected = "empty NIC queue")]
    fn start_on_empty_queue_panics() {
        let mut nic = Nic::default();
        nic.start_tx();
    }

    /// The per-packet NIC this one replaces: every packet queued on its
    /// flow individually, flows served round-robin one packet per turn.
    #[derive(Default)]
    struct PerPacketNic {
        flows: std::collections::BTreeMap<FlowId, VecDeque<(u32, u32)>>,
        rr: VecDeque<FlowId>,
    }

    impl PerPacketNic {
        fn enqueue(&mut self, flow: FlowId, slot: u32, packets: u32) {
            let q = self.flows.entry(flow).or_default();
            if q.is_empty() {
                self.rr.push_back(flow);
            }
            q.extend((0..packets).map(|index| (slot, index)));
        }

        fn send(&mut self) -> Option<(u32, u32)> {
            let flow = self.rr.pop_front()?;
            let q = self.flows.get_mut(&flow)?;
            let pkt = q.pop_front()?;
            if !q.is_empty() {
                self.rr.push_back(flow);
            }
            Some(pkt)
        }
    }

    proptest! {
        /// Random interleavings of enqueues and transmissions over several
        /// flows send the same `(message, index)` sequence as the
        /// per-packet round-robin reference.
        #[test]
        fn prop_lazy_segmentation_keeps_round_robin_order(
            ops in collection::vec((0u32..3, 0u64..4, 1u32..6), 1..80)
        ) {
            let mut nic = Nic::default();
            let mut reference = PerPacketNic::default();
            let mut next_slot = 0u32;
            for (kind, flow, packets) in ops {
                if kind == 0 {
                    // Transmit one packet, if there is one.
                    let expected = reference.send();
                    prop_assert_eq!(nic.can_start(), expected.is_some());
                    if let Some(expected) = expected {
                        let p = send(&mut nic);
                        prop_assert_eq!((p.slot, p.index), expected);
                    }
                } else {
                    nic.enqueue(flow, next_slot, packets);
                    reference.enqueue(flow, next_slot, packets);
                    next_slot += 1;
                }
                prop_assert_eq!(nic.active_flows(), reference.rr.len());
            }
            // Drain what is left.
            while let Some(expected) = reference.send() {
                let p = send(&mut nic);
                prop_assert_eq!((p.slot, p.index), expected);
            }
            prop_assert_eq!(nic.backlog(), 0);
            prop_assert!(!nic.can_start());
        }
    }
}
