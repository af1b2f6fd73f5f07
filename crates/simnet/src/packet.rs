//! Packets and messages.
//!
//! The fabric deals in *messages* (what a rank sends) and *packets* (what
//! the switch routes). A message is segmented into MTU-sized packets at the
//! source NIC — the property the paper's Fig. 1 builds on: "application
//! messages are broken up into multiple small (few KB) packets and sent to
//! the network switch".
//!
//! Inside the fabric a packet in flight is a [`PacketRef`]: a handle to its
//! message's record plus its index. Size, `last` flag and endpoints are
//! derived from the record with `packet_count` and `packet_bytes`, which
//! agree exactly with the reference segmentation [`segment_sizes`]. The full
//! [`Packet`] view is built only for the upper layer.

/// Identifies a compute node attached to the switch (also its port index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a usize, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Unique identifier of a message within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// A message handed to the fabric by the upper layer.
///
/// The fabric is deliberately payload-free: only sizes and identifiers move
/// through the simulation, never data bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Fabric-assigned identifier, returned by `Fabric::send_message`.
    pub id: MessageId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// One MTU-or-smaller unit routed by the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The message this packet belongs to.
    pub msg: MessageId,
    /// Index of this packet within its message (0-based).
    pub index: u32,
    /// True for the final packet of the message.
    pub last: bool,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Bytes carried by this packet (≤ MTU; the last packet may be short).
    pub bytes: u64,
}

/// An in-flight packet inside the fabric: 8 bytes instead of a 32-byte
/// [`Packet`], so queues and events stay small under deep backlogs.
///
/// `slot` names the message's record in the fabric's message slab; slots
/// are reused once a message retires, so a handle is meaningful only while
/// its message is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef {
    /// Slab slot of the message this packet belongs to.
    pub slot: u32,
    /// Index of this packet within its message (0-based).
    pub index: u32,
}

/// Number of packets a `bytes`-byte message is cut into: one per full or
/// partial MTU, and one (empty) packet for a zero-byte message. Equals
/// `segment_sizes(bytes, mtu).len()`.
///
/// # Panics
/// Panics if `mtu` is zero, or if the message needs more than `u32::MAX`
/// packets.
pub(crate) fn packet_count(bytes: u64, mtu: u64) -> u32 {
    let count = bytes.div_ceil(mtu).max(1);
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    u32::try_from(count).expect("message needs more than u32::MAX packets")
}

/// Bytes carried by packet `index` of a `bytes`-byte message cut into
/// `count` packets (as returned by [`packet_count`]): a full MTU, except
/// the last packet, which carries the remainder. Equals
/// `segment_sizes(bytes, mtu)[index]`.
pub(crate) fn packet_bytes(bytes: u64, mtu: u64, count: u32, index: u32) -> u64 {
    debug_assert!(index < count, "packet index out of range");
    if index + 1 < count {
        mtu
    } else {
        bytes - mtu * u64::from(count - 1)
    }
}

/// Splits `bytes` into MTU-sized chunks; the final chunk carries the
/// remainder. A zero-byte message still produces one (empty) packet so that
/// zero-payload control messages (barrier tokens, eager headers) transit the
/// switch like any other traffic.
///
/// This is the reference specification of segmentation; the fabric cuts
/// packets lazily with `packet_count` and `packet_bytes` instead of
/// materialising the list.
///
/// # Panics
/// Panics if `mtu` is zero.
pub fn segment_sizes(bytes: u64, mtu: u64) -> Vec<u64> {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(mtu > 0, "MTU must be positive");
    if bytes == 0 {
        return vec![0];
    }
    let full = (bytes / mtu) as usize;
    let rem = bytes % mtu;
    let mut out = Vec::with_capacity(full + usize::from(rem > 0));
    out.extend(std::iter::repeat_n(mtu, full));
    if rem > 0 {
        out.push(rem);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn segmentation_exact_multiple() {
        assert_eq!(segment_sizes(8192, 4096), vec![4096, 4096]);
    }

    #[test]
    fn segmentation_with_remainder() {
        assert_eq!(segment_sizes(5000, 4096), vec![4096, 904]);
    }

    #[test]
    fn segmentation_small_message_is_single_packet() {
        // The paper's ImpactB probes are 1 KB "to ensure that they are
        // communicated via a single network packet".
        assert_eq!(segment_sizes(1024, 4096), vec![1024]);
    }

    #[test]
    fn zero_byte_message_is_one_empty_packet() {
        assert_eq!(segment_sizes(0, 4096), vec![0]);
    }

    #[test]
    fn packet_ref_is_eight_bytes() {
        // Every NIC queue entry, central-stage slot, egress FIFO slot and
        // packet-carrying event holds one; a new field here costs memory on
        // every in-flight packet.
        assert_eq!(std::mem::size_of::<PacketRef>(), 8);
    }

    proptest! {
        /// Segmentation conserves bytes and respects the MTU.
        #[test]
        fn prop_segmentation_conserves_bytes(bytes in 0u64..1_000_000, mtu in 1u64..10_000) {
            let segs = segment_sizes(bytes, mtu);
            prop_assert_eq!(segs.iter().sum::<u64>(), bytes);
            prop_assert!(segs.iter().all(|&s| s <= mtu));
            // Only the last packet may be short.
            for s in &segs[..segs.len().saturating_sub(1)] {
                prop_assert_eq!(*s, mtu);
            }
        }

        /// The lazily derived count, per-packet sizes and `last` flags
        /// reproduce the reference segmentation exactly.
        #[test]
        fn prop_lazy_segmentation_matches_reference(
            raw in 0u64..200_000,
            mtu in 1u64..10_000,
            shape in (0u32..2, 0u64..6, 0u64..3),
        ) {
            let (near_multiple, k, off) = shape;
            // Half the cases sit on or next to an MTU multiple, where an
            // off-by-one in the count or the remainder would show.
            let bytes = if near_multiple == 1 {
                (mtu * k + off).saturating_sub(1)
            } else {
                raw
            };
            let reference = segment_sizes(bytes, mtu);
            let count = packet_count(bytes, mtu);
            prop_assert_eq!(count as usize, reference.len());
            for (i, size) in reference.iter().enumerate() {
                let index = i as u32;
                prop_assert_eq!(packet_bytes(bytes, mtu, count, index), *size);
                prop_assert_eq!(index + 1 == count, i + 1 == reference.len());
            }
        }
    }
}
