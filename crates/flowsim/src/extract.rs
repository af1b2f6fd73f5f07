//! Symbolic traffic extraction: walk a job's rank programs without a
//! simulator and tabulate the aggregate demand they would place on the
//! fabric.
//!
//! The walk drives each rank's [`anp_simmpi::Program`] to completion at frozen
//! simulated time, lowering collectives through the *same*
//! [`anp_simmpi::coll::lower`] expansions the discrete-event world uses, so
//! the extracted byte/packet/round counts are exactly the counts the DES
//! would move — only the timing is left to the analytic model.
//!
//! A rank lowers each distinct collective op once and tallies the
//! expansion into a per-rank delta; every later instance of that op on the
//! same rank replays the delta in O(nodes) instead of re-walking the
//! expansion. All tallies are exact integers, converted to `f64` once at
//! the end.

use anp_simmpi::{coll, Ctx, Op};
use anp_simnet::{NodeId, SimDuration, SimTime, SwitchConfig, Topology};
use anp_workloads::compressionb::CompressionConfig;
use anp_workloads::Members;

/// Cap on primitive operations walked per job: a runaway (or endless)
/// program is a caller bug, not something to spin on forever.
const OP_BUDGET: u64 = 200_000_000;

/// The per-socket CompressionB process count the DES experiments pin
/// (`experiments::impact_profile_of_compression` passes `per_node = 2`).
pub const COMPRESSION_PER_NODE: u32 = 2;

/// Aggregate network demand of one job, independent of time.
///
/// For a finite job the fields are run totals; for CompressionB (which
/// loops forever) they are per-iteration totals. Either way the analytic
/// model only ever divides them by the job's (solved) duration to obtain
/// rates, so the distinction never leaks further.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficDescriptor {
    /// Job label for diagnostics.
    pub label: String,
    /// Rank count.
    pub ranks: u32,
    /// Critical-path proxy for CPU time: the maximum per-rank total of
    /// `Compute` and `Sleep` spans, in nanoseconds.
    pub compute_ns: f64,
    /// Latency-chained synchronization rounds: the maximum per-rank count
    /// of `WaitAll`s that had at least one request outstanding. Each costs
    /// at least one one-way network latency that cannot be pipelined away.
    pub rounds: f64,
    /// Inter-node messages sent by all ranks.
    pub remote_msgs: f64,
    /// Inter-node payload bytes sent by all ranks.
    pub remote_bytes: f64,
    /// MTU-segmented packets those messages become.
    pub remote_packets: f64,
    /// Of [`TrafficDescriptor::remote_packets`], how many cross a fat-tree
    /// leaf boundary (zero on a single switch). Cross-leaf packets
    /// traverse three switches instead of one.
    pub cross_leaf_packets: f64,
    /// Intra-node payload bytes (never touch the switch).
    pub local_bytes: f64,
    /// Largest per-node total of transmitted remote bytes.
    pub max_node_tx_bytes: f64,
    /// Largest per-node total of received remote bytes.
    pub max_node_rx_bytes: f64,
    /// Largest per-node count of *distinct* remote destination nodes.
    /// Governs how many independent source flows interleave at a busy
    /// egress port (more interleaved flows → deeper burst queues).
    pub peers: f64,
}

impl TrafficDescriptor {
    /// True if the job never touches the network.
    pub fn is_network_idle(&self) -> bool {
        self.remote_packets == 0.0
    }

    /// Mean bytes per remote packet (falls back to the probe-sized 1 KB
    /// packet when the job sends nothing).
    pub fn avg_packet_bytes(&self) -> f64 {
        if self.remote_packets > 0.0 {
            self.remote_bytes / self.remote_packets
        } else {
            1024.0
        }
    }

    /// Mean switch traversals per remote packet: 1, plus 2 more for the
    /// cross-leaf fraction.
    pub fn avg_traversals(&self) -> f64 {
        if self.remote_packets > 0.0 {
            1.0 + 2.0 * self.cross_leaf_packets / self.remote_packets
        } else {
            1.0
        }
    }
}

#[cfg(test)]
impl TrafficDescriptor {
    /// Every field, numeric ones as raw bits: equal iff bit-identical.
    pub(crate) fn bits(&self) -> (String, u32, [u64; 10]) {
        (
            self.label.clone(),
            self.ranks,
            [
                self.compute_ns,
                self.rounds,
                self.remote_msgs,
                self.remote_bytes,
                self.remote_packets,
                self.cross_leaf_packets,
                self.local_bytes,
                self.max_node_tx_bytes,
                self.max_node_rx_bytes,
                self.peers,
            ]
            .map(f64::to_bits),
        )
    }
}

/// Which leaf switch a node hangs off (0 on a single switch).
fn leaf_of(net: &SwitchConfig, node: NodeId) -> u32 {
    match net.topology {
        Topology::SingleSwitch => 0,
        Topology::FatTree { leaves, .. } => node.0 / (net.nodes / leaves),
    }
}

/// Message tallies of one rank or one collective expansion. Every addend
/// is a whole number of bytes or packets, so `u64` sums converted once
/// equal running `f64` sums exactly while totals stay below 2^53.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    remote_msgs: u64,
    remote_bytes: u64,
    remote_packets: u64,
    cross_leaf_packets: u64,
    local_bytes: u64,
}

impl Counts {
    /// Tallies one `bytes`-sized message from node `src` to node `dst`;
    /// true if it leaves the node.
    fn send(&mut self, net: &SwitchConfig, src: NodeId, dst: NodeId, bytes: u64) -> bool {
        if dst == src {
            self.local_bytes += bytes;
            return false;
        }
        let pkts = bytes.div_ceil(net.mtu).max(1);
        self.remote_msgs += 1;
        self.remote_bytes += bytes;
        self.remote_packets += pkts;
        if leaf_of(net, src) != leaf_of(net, dst) {
            self.cross_leaf_packets += pkts;
        }
        true
    }

    fn add(&mut self, o: &Counts) {
        self.remote_msgs += o.remote_msgs;
        self.remote_bytes += o.remote_bytes;
        self.remote_packets += o.remote_packets;
        self.cross_leaf_packets += o.cross_leaf_packets;
        self.local_bytes += o.local_bytes;
    }
}

/// A rank's synchronization state: latency-chained rounds so far, and
/// whether a request is outstanding for the next `WaitAll`.
#[derive(Debug, Clone, Copy, Default)]
struct SyncState {
    rounds: u64,
    pending: bool,
}

impl SyncState {
    fn post(&mut self) {
        self.pending = true;
    }

    fn wait(&mut self) {
        if self.pending {
            self.rounds += 1;
            self.pending = false;
        }
    }
}

/// What one collective op adds to its rank's tallies: lowered and
/// tallied the first time the rank issues the op, replayed afterwards.
#[derive(Debug)]
struct CollDelta {
    op: Op,
    /// Ops in the expansion, charged against the op budget on replay.
    len: u64,
    counts: Counts,
    /// Remote bytes per destination node; a 0-byte message still marks
    /// its node as a peer.
    rx: Vec<(u32, u64)>,
    /// Rounds added and pending flag on exit, indexed by the pending flag
    /// on entry (a collective may be entered with an un-waited request).
    sync: [SyncState; 2],
}

impl CollDelta {
    fn lower(
        op: Op,
        local: u32,
        src: NodeId,
        nodes_of: &[NodeId],
        net: &SwitchConfig,
    ) -> CollDelta {
        let n = nodes_of.len() as u32;
        let Some(ops) = coll::lower(&op, local, n, Op::RESERVED_TAG_BASE) else {
            unreachable!("only collectives are lowered, got {op:?}");
        };
        let mut d = CollDelta {
            op,
            len: ops.len() as u64,
            counts: Counts::default(),
            rx: Vec::new(),
            sync: [
                SyncState::default(),
                SyncState {
                    rounds: 0,
                    pending: true,
                },
            ],
        };
        for o in ops {
            match o {
                Op::Irecv { .. } => d.sync.iter_mut().for_each(SyncState::post),
                Op::WaitAll => d.sync.iter_mut().for_each(SyncState::wait),
                Op::Isend { dst, bytes, .. } => {
                    d.sync.iter_mut().for_each(SyncState::post);
                    let dst_node = nodes_of[dst as usize];
                    if d.counts.send(net, src, dst_node, bytes) {
                        match d.rx.iter_mut().find(|(node, _)| *node == dst_node.0) {
                            Some((_, rx)) => *rx += bytes,
                            None => d.rx.push((dst_node.0, bytes)),
                        }
                    }
                }
                other => unreachable!("collective expansions are point-to-point, got {other:?}"),
            }
        }
        d
    }
}

/// The walk's op allowance: every program op costs one, every collective
/// one more per op of its expansion.
struct Budget<'a> {
    left: u64,
    limit: u64,
    label: &'a str,
}

impl Budget<'_> {
    fn charge(&mut self, ops: u64) {
        // anp-lint: allow(D003) — documented "# Panics" contract: an endless program is a caller bug the walk must not mask
        assert!(
            self.left >= ops,
            "traffic extraction for '{}' exceeded {} ops (is the program endless?)",
            self.label,
            self.limit
        );
        self.left -= ops;
    }
}

/// Walks every rank of `members` to completion and tabulates its traffic.
///
/// # Panics
/// Panics if a rank issues more than an internal budget of operations —
/// endless programs must not be walked directly (CompressionB has the
/// closed-form [`describe_compression`] instead).
pub fn describe_members(label: &str, members: Members, net: &SwitchConfig) -> TrafficDescriptor {
    walk(label, members, net, OP_BUDGET)
}

/// [`describe_members`] with an explicit op budget.
fn walk(label: &str, mut members: Members, net: &SwitchConfig, budget: u64) -> TrafficDescriptor {
    let n = members.len() as u32;
    let nodes = net.nodes as usize;
    let nodes_of: Vec<NodeId> = members.iter().map(|(_, node)| *node).collect();
    let mut total = Counts::default();
    let mut tx = vec![0u64; nodes];
    let mut rx = vec![0u64; nodes];
    // Row `src` marks the remote nodes that node `src` has sent to.
    let mut peers = vec![false; nodes * nodes];
    let (mut compute_ns, mut rounds) = (0u64, 0u64);
    let mut budget = Budget {
        left: budget,
        limit: budget,
        label,
    };
    let ctx = Ctx { now: SimTime::ZERO };
    let mut deltas: Vec<CollDelta> = Vec::new();
    for (local, (prog, src)) in members.iter_mut().enumerate() {
        let src = *src;
        let peer_row = &mut peers[src.0 as usize * nodes..][..nodes];
        let mut compute = 0u64;
        let mut sync = SyncState::default();
        let mut counts = Counts::default();
        deltas.clear();
        loop {
            let op = prog.next_op(&ctx);
            budget.charge(1);
            match op {
                Op::Stop => break,
                Op::Compute(t) | Op::Sleep(t) => compute += t.as_nanos(),
                Op::Irecv { .. } => sync.post(),
                Op::WaitAll => sync.wait(),
                Op::Isend { dst, bytes, .. } => {
                    sync.post();
                    let dst_node = nodes_of[dst as usize];
                    if counts.send(net, src, dst_node, bytes) {
                        rx[dst_node.0 as usize] += bytes;
                        peer_row[dst_node.0 as usize] = true;
                    }
                }
                coll_op => {
                    let i = match deltas.iter().position(|d| d.op == coll_op) {
                        Some(i) => i,
                        None => {
                            deltas.push(CollDelta::lower(
                                coll_op,
                                local as u32,
                                src,
                                &nodes_of,
                                net,
                            ));
                            deltas.len() - 1
                        }
                    };
                    let d = &deltas[i];
                    budget.charge(d.len);
                    counts.add(&d.counts);
                    let exit = d.sync[usize::from(sync.pending)];
                    sync = SyncState {
                        rounds: sync.rounds + exit.rounds,
                        pending: exit.pending,
                    };
                    for &(dst, bytes) in &d.rx {
                        rx[dst as usize] += bytes;
                        peer_row[dst as usize] = true;
                    }
                }
            }
        }
        total.add(&counts);
        tx[src.0 as usize] += counts.remote_bytes;
        compute_ns = compute_ns.max(compute);
        rounds = rounds.max(sync.rounds);
    }
    let max_of = |v: &[u64]| v.iter().copied().max().unwrap_or(0) as f64;
    TrafficDescriptor {
        label: label.to_owned(),
        ranks: n,
        compute_ns: compute_ns as f64,
        rounds: rounds as f64,
        remote_msgs: total.remote_msgs as f64,
        remote_bytes: total.remote_bytes as f64,
        remote_packets: total.remote_packets as f64,
        cross_leaf_packets: total.cross_leaf_packets as f64,
        local_bytes: total.local_bytes as f64,
        max_node_tx_bytes: max_of(&tx),
        max_node_rx_bytes: max_of(&rx),
        peers: peers
            .chunks(nodes.max(1))
            .map(|row| row.iter().filter(|&&p| p).count())
            .max()
            .unwrap_or(0) as f64,
    }
}

/// Closed-form per-iteration descriptor of the CompressionB interferer
/// (Fig. 5): `COMPRESSION_PER_NODE` ranks per node, each sending
/// `partners × messages` payloads of `msg_bytes` along the node ring
/// (always inter-node), sleeping `partners × bubble_cycles` cycles, and
/// closing the iteration with one `WaitAll`.
pub fn describe_compression(comp: &CompressionConfig, net: &SwitchConfig) -> TrafficDescriptor {
    let nodes = u64::from(net.nodes);
    let per_node = u64::from(COMPRESSION_PER_NODE);
    let ranks = nodes * per_node;
    let p = u64::from(comp.partners);
    let m = u64::from(comp.messages);
    let pkts_per_msg = comp.msg_bytes.div_ceil(net.mtu).max(1);

    // Ring distances 1..=P from every node; count the fat-tree
    // leaf-crossing fraction exactly.
    let mut remote_pairs = 0u64;
    let mut cross_pairs = 0u64;
    for i in 0..nodes {
        for dist in 1..=p {
            let dst = (i + nodes - dist % nodes) % nodes;
            if dst == i {
                continue;
            }
            remote_pairs += 1;
            let (src_n, dst_n) = (NodeId(i as u32), NodeId(dst as u32));
            if leaf_of(net, src_n) != leaf_of(net, dst_n) {
                cross_pairs += 1;
            }
        }
    }
    let msgs = (remote_pairs * per_node * m) as f64;
    let bubble = SimDuration::from_cycles(comp.bubble_cycles, net.cpu_hz).as_nanos() as f64;
    TrafficDescriptor {
        label: format!("compressionb-{}", comp.label()),
        ranks: ranks as u32,
        compute_ns: p as f64 * bubble,
        rounds: 1.0,
        remote_msgs: msgs,
        remote_bytes: msgs * comp.msg_bytes as f64,
        remote_packets: msgs * pkts_per_msg as f64,
        cross_leaf_packets: (cross_pairs * per_node * m * pkts_per_msg) as f64,
        local_bytes: 0.0,
        max_node_tx_bytes: (per_node * p * m * comp.msg_bytes) as f64,
        max_node_rx_bytes: (per_node * p * m * comp.msg_bytes) as f64,
        peers: p.min(nodes - 1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_core::experiments::ExperimentConfig;
    use anp_simmpi::{Looping, Program, Scripted, Src};
    use anp_simnet::SwitchConfig;
    use anp_workloads::{AppKind, RunMode};
    use proptest::prelude::*;
    use std::collections::{BTreeSet, VecDeque};

    fn net() -> SwitchConfig {
        SwitchConfig::tiny_deterministic()
    }

    fn member(ops: Vec<Op>, node: u32) -> (Box<dyn Program>, NodeId) {
        (Box::new(Scripted::new(ops)), NodeId(node))
    }

    /// The op-by-op walk `describe_members` replaced: re-expands every
    /// collective instance and tallies in `f64`. Kept as the oracle the
    /// per-rank deltas must match bit for bit.
    fn describe_members_reference(
        label: &str,
        mut members: Members,
        net: &SwitchConfig,
    ) -> TrafficDescriptor {
        let n = members.len() as u32;
        let nodes_of: Vec<NodeId> = members.iter().map(|(_, node)| *node).collect();
        let mut tx = vec![0.0f64; net.nodes as usize];
        let mut rx = vec![0.0f64; net.nodes as usize];
        let mut dsts: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); net.nodes as usize];
        let mut d = TrafficDescriptor {
            label: label.to_owned(),
            ranks: n,
            compute_ns: 0.0,
            rounds: 0.0,
            remote_msgs: 0.0,
            remote_bytes: 0.0,
            remote_packets: 0.0,
            cross_leaf_packets: 0.0,
            local_bytes: 0.0,
            max_node_tx_bytes: 0.0,
            max_node_rx_bytes: 0.0,
            peers: 0.0,
        };
        let ctx = Ctx { now: SimTime::ZERO };
        for (local, (prog, src_node)) in members.iter_mut().enumerate() {
            let src_node = *src_node;
            let mut compute = 0.0f64;
            let mut rounds = 0u64;
            let mut pending = false;
            let mut expanded: VecDeque<Op> = VecDeque::new();
            loop {
                let op = match expanded.pop_front() {
                    Some(op) => op,
                    None => prog.next_op(&ctx),
                };
                match op {
                    Op::Stop => break,
                    Op::Compute(t) | Op::Sleep(t) => compute += t.as_nanos() as f64,
                    Op::Irecv { .. } => pending = true,
                    Op::WaitAll => {
                        if pending {
                            rounds += 1;
                            pending = false;
                        }
                    }
                    Op::Isend { dst, bytes, .. } => {
                        pending = true;
                        let dst_node = nodes_of[dst as usize];
                        if dst_node == src_node {
                            d.local_bytes += bytes as f64;
                        } else {
                            let pkts = bytes.div_ceil(net.mtu).max(1) as f64;
                            d.remote_msgs += 1.0;
                            d.remote_bytes += bytes as f64;
                            d.remote_packets += pkts;
                            tx[src_node.0 as usize] += bytes as f64;
                            rx[dst_node.0 as usize] += bytes as f64;
                            dsts[src_node.0 as usize].insert(dst_node.0);
                            if leaf_of(net, src_node) != leaf_of(net, dst_node) {
                                d.cross_leaf_packets += pkts;
                            }
                        }
                    }
                    coll_op => expanded.extend(
                        coll::lower(&coll_op, local as u32, n, Op::RESERVED_TAG_BASE)
                            .expect("every other op is matched above"),
                    ),
                }
            }
            d.compute_ns = d.compute_ns.max(compute);
            d.rounds = d.rounds.max(rounds as f64);
        }
        d.max_node_tx_bytes = tx.iter().copied().fold(0.0, f64::max);
        d.max_node_rx_bytes = rx.iter().copied().fold(0.0, f64::max);
        d.peers = dsts.iter().map(BTreeSet::len).max().unwrap_or(0) as f64;
        d
    }

    #[test]
    fn six_apps_match_the_reference_walk_bit_for_bit() {
        let cfg = ExperimentConfig::cab();
        let mut fat_tree = SwitchConfig::cab();
        // 18 nodes on 3 leaves: 6 per leaf, so collectives cross leaves.
        fat_tree.topology = Topology::FatTree {
            leaves: 3,
            spines: 2,
        };
        for net in [SwitchConfig::cab(), fat_tree] {
            for app in AppKind::ALL {
                let seed = cfg.workload_seed(app as u64 + 1);
                let build = || app.build(RunMode::Iterations(0), seed);
                let fast = describe_members(app.name(), build(), &net);
                let slow = describe_members_reference(app.name(), build(), &net);
                assert_eq!(fast.bits(), slow.bits(), "{app} on {:?}", net.topology);
                assert!(fast.remote_msgs > 0.0, "{app} must touch the network");
                if net.topology != Topology::SingleSwitch && app != AppKind::Mcb {
                    assert!(fast.cross_leaf_packets > 0.0, "{app} crosses leaves");
                }
            }
        }
    }

    /// Payload sizes around the tiny preset's 1024-byte MTU, including
    /// zero-byte messages (one packet, a peer, no bytes).
    const SIZES: [u64; 7] = [0, 1, 1023, 1024, 1025, 5000, 40_960];

    /// Decodes a generated `(kind, a, b)` triple into an op of an
    /// `n`-rank job.
    fn decode((kind, a, b): (u32, u32, u64), n: u32) -> Op {
        let bytes = SIZES[b as usize % SIZES.len()];
        match kind {
            0 => Op::Compute(SimDuration::from_nanos(b * 1_000 + u64::from(a))),
            1 => Op::Sleep(SimDuration::from_nanos(u64::from(a) + 1)),
            2 | 3 => Op::Isend {
                dst: a % n,
                bytes,
                tag: 1,
            },
            4 => Op::Irecv {
                src: if a % 2 == 0 {
                    Src::Any
                } else {
                    Src::Rank(a % n)
                },
                tag: 1,
            },
            5 => Op::WaitAll,
            6 => Op::Barrier,
            7 => Op::Allreduce { bytes },
            8 => Op::Alltoall {
                bytes_per_pair: bytes,
            },
            9 => Op::Bcast { root: a % n, bytes },
            10 => Op::Reduce { root: a % n, bytes },
            _ => Op::Allgather {
                bytes_per_rank: bytes,
            },
        }
    }

    proptest! {
        /// Random scripted jobs on a random rank → node map, on a single
        /// switch and on a two-leaf fat tree: the delta walk equals the
        /// op-by-op walk in every bit.
        #[test]
        fn prop_random_jobs_match_the_reference_walk(
            progs in collection::vec(collection::vec((0u32..12, 0u32..16, 0u64..7), 0..30), 1..10),
            node_map in collection::vec(0u32..4, 10),
            fat in 0u32..2,
        ) {
            let mut cfg = net();
            if fat == 1 {
                cfg.topology = Topology::FatTree { leaves: 2, spines: 1 };
            }
            let n = progs.len() as u32;
            let members = || -> Members {
                progs
                    .iter()
                    .zip(&node_map)
                    .map(|(codes, &node)| {
                        member(codes.iter().map(|&c| decode(c, n)).collect(), node)
                    })
                    .collect()
            };
            let fast = describe_members("prop", members(), &cfg);
            let slow = describe_members_reference("prop", members(), &cfg);
            prop_assert_eq!(fast.bits(), slow.bits());
        }
    }

    #[test]
    fn a_collective_entered_with_a_pending_request_tallies_like_the_reference() {
        let cfg = net();
        let send = |dst| Op::Isend {
            dst,
            bytes: 0,
            tag: 1,
        };
        // A one-rank barrier lowers to nothing, so the un-waited send stays
        // pending through it and the next `WaitAll` closes a round; the
        // second barrier is entered with nothing pending.
        let solo = || -> Members {
            vec![member(
                vec![send(0), Op::Barrier, Op::WaitAll, Op::Barrier, Op::WaitAll],
                0,
            )]
        };
        let fast = describe_members("solo", solo(), &cfg);
        assert_eq!(
            fast.bits(),
            describe_members_reference("solo", solo(), &cfg).bits()
        );
        assert_eq!(fast.rounds, 1.0);
        // Four ranks: the zero-byte send goes to the one node the barrier
        // never talks to (r ^ 3), so it alone makes that node a peer.
        let job = || -> Members {
            (0..4)
                .map(|r| member(vec![send(r ^ 3), Op::Barrier, Op::Barrier, Op::WaitAll], r))
                .collect()
        };
        let fast = describe_members("pending", job(), &cfg);
        assert_eq!(
            fast.bits(),
            describe_members_reference("pending", job(), &cfg).bits()
        );
        assert_eq!(fast.rounds, 4.0, "two rounds per barrier, none after");
        assert_eq!(fast.peers, 3.0, "barrier partners r^1, r^2 plus r^3");
    }

    #[test]
    fn zero_byte_collectives_still_mark_peers() {
        let cfg = net();
        let job = || -> Members {
            (0..4)
                .map(|r| {
                    let a2a = Op::Alltoall { bytes_per_pair: 0 };
                    member(vec![a2a, a2a], r)
                })
                .collect()
        };
        let fast = describe_members("empty-a2a", job(), &cfg);
        assert_eq!(
            fast.bits(),
            describe_members_reference("empty-a2a", job(), &cfg).bits()
        );
        assert_eq!(fast.remote_bytes, 0.0);
        assert_eq!(
            fast.remote_packets, 24.0,
            "4 ranks × 3 peers × 2, one packet each"
        );
        assert_eq!(fast.peers, 3.0, "every other node, though no byte moves");
    }

    /// Ops the walk charges for a job: every program op (`Stop`
    /// included) plus every op of every collective expansion.
    #[test]
    fn the_budget_trips_at_the_reference_op_count() {
        let cfg = net();
        let ops = vec![
            Op::Allreduce { bytes: 64 },
            Op::Compute(SimDuration::from_nanos(5)),
            Op::Allreduce { bytes: 64 },
            Op::Alltoall { bytes_per_pair: 8 },
        ];
        let members = || -> Members { (0..3).map(|r| member(ops.clone(), r)).collect() };
        let expected: u64 = (0..3)
            .map(|l| {
                ops.iter()
                    .map(|op| 1 + coll::lower(op, l, 3, 0).map_or(0, |e| e.len() as u64))
                    .sum::<u64>()
                    + 1
            })
            .sum();
        let d = walk("exact", members(), &cfg, expected);
        assert_eq!(
            d.bits(),
            describe_members_reference("exact", members(), &cfg).bits()
        );
        let short = std::panic::catch_unwind(|| walk("short", members(), &cfg, expected - 1));
        assert!(
            short.is_err(),
            "one op short of the job must trip the budget"
        );
    }

    #[test]
    #[should_panic(expected = "exceeded 10000 ops")]
    fn an_endless_program_of_collectives_trips_the_budget() {
        let cfg = net();
        let members: Members = (0..4)
            .map(|r| -> (Box<dyn Program>, NodeId) {
                (
                    Box::new(Looping::new(vec![Op::Allreduce { bytes: 8 }, Op::Barrier])),
                    NodeId(r),
                )
            })
            .collect();
        walk("endless", members, &cfg, 10_000);
    }

    #[test]
    fn point_to_point_tallies_bytes_packets_rounds() {
        let cfg = net();
        // Rank 0 on node 0 sends 5000 B to rank 1 on node 1 (MTU 1024 →
        // 5 packets) and waits; rank 1 receives.
        let members: Members = vec![
            member(
                vec![
                    Op::Compute(SimDuration::from_nanos(700)),
                    Op::Isend {
                        dst: 1,
                        bytes: 5000,
                        tag: 1,
                    },
                    Op::WaitAll,
                ],
                0,
            ),
            member(
                vec![
                    Op::Irecv {
                        src: anp_simmpi::Src::Rank(0),
                        tag: 1,
                    },
                    Op::WaitAll,
                ],
                1,
            ),
        ];
        let d = describe_members("t", members, &cfg);
        assert_eq!(d.ranks, 2);
        assert_eq!(d.remote_msgs, 1.0);
        assert_eq!(d.remote_bytes, 5000.0);
        assert_eq!(d.remote_packets, 5.0);
        assert_eq!(d.rounds, 1.0, "both ranks sync once");
        assert_eq!(d.compute_ns, 700.0);
        assert_eq!(d.max_node_tx_bytes, 5000.0);
        assert_eq!(d.max_node_rx_bytes, 5000.0);
        assert_eq!(d.cross_leaf_packets, 0.0, "single switch");
        assert_eq!(d.peers, 1.0, "node 0 targets one remote node");
    }

    #[test]
    fn local_messages_bypass_the_network() {
        let cfg = net();
        let members: Members = vec![
            member(
                vec![
                    Op::Isend {
                        dst: 1,
                        bytes: 2048,
                        tag: 1,
                    },
                    Op::WaitAll,
                ],
                0,
            ),
            member(
                vec![
                    Op::Irecv {
                        src: anp_simmpi::Src::Any,
                        tag: 1,
                    },
                    Op::WaitAll,
                ],
                0,
            ),
        ];
        let d = describe_members("t", members, &cfg);
        assert!(d.is_network_idle());
        assert_eq!(d.local_bytes, 2048.0);
        assert_eq!(d.max_node_tx_bytes, 0.0);
    }

    #[test]
    fn collectives_expand_to_des_identical_counts() {
        let cfg = net();
        // A 4-rank barrier on 4 nodes: recursive doubling = 2 rounds of
        // 8-byte exchanges per rank → 8 remote messages total.
        let members: Members = (0..4).map(|r| member(vec![Op::Barrier], r)).collect();
        let d = describe_members("barrier", members, &cfg);
        assert_eq!(d.remote_msgs, 8.0);
        assert_eq!(d.remote_bytes, 64.0);
        assert_eq!(d.rounds, 2.0, "log2(4) latency-chained rounds");
    }

    #[test]
    fn empty_waitall_is_not_a_round() {
        let cfg = net();
        let members: Members = vec![member(vec![Op::WaitAll, Op::WaitAll], 0)];
        let d = describe_members("idle", members, &cfg);
        assert_eq!(d.rounds, 0.0);
    }

    #[test]
    fn compression_descriptor_matches_figure_5_arithmetic() {
        let cfg = net(); // 4 nodes, MTU 1024
        let comp = CompressionConfig::new(2, 1_000_000, 3);
        let d = describe_compression(&comp, &cfg);
        // 8 ranks × (2 partners × 3 messages) × 40960 B, all remote.
        assert_eq!(d.ranks, 8);
        assert_eq!(d.remote_msgs, 48.0);
        assert_eq!(d.remote_bytes, 48.0 * 40_960.0);
        assert_eq!(d.remote_packets, 1920.0, "40960 B = 40 packets at MTU 1024");
        assert_eq!(d.max_node_tx_bytes, 2.0 * 6.0 * 40_960.0);
        assert_eq!(d.max_node_rx_bytes, d.max_node_tx_bytes);
        assert_eq!(d.rounds, 1.0);
        assert_eq!(d.peers, 2.0, "ring distances 1..=2 on 4 nodes");
        // 2 partners × 1 M cycles at the tiny preset's clock.
        let bubble = SimDuration::from_cycles(1_000_000, cfg.cpu_hz).as_nanos() as f64;
        assert!((d.compute_ns - 2.0 * bubble).abs() < 1e-9);
    }

    #[test]
    fn cross_leaf_fraction_counts_fat_tree_hops() {
        let mut cfg = net();
        cfg.topology = Topology::FatTree {
            leaves: 2,
            spines: 1,
        };
        // 4 nodes on 2 leaves: nodes {0,1} and {2,3}. Ring distance 1
        // crosses a leaf for 0→3 and 2→1 (2 of 4 pairs).
        let comp = CompressionConfig::new(1, 1_000, 1);
        let d = describe_compression(&comp, &cfg);
        assert_eq!(d.cross_leaf_packets / d.remote_packets, 0.5);
        assert!(d.avg_traversals() > 1.0);
    }
}
