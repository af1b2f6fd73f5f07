//! The network-only phase of a traced run: the fabric driven directly
//! through `Fabric::send_message`, `EventQueue::pop` and `Fabric::handle`
//! (the loop `anp_simnet::drain` runs), with no MPI layer or rank
//! programs on top, so its per-call times belong to `anp-simnet` alone.

use std::time::Instant;

use anp_simnet::{EventQueue, Fabric, NetEvent, NodeId, SwitchConfig};

/// Partners per node and messages per partner in one round: a
/// CompressionB `P4-M10` burst of 40 KB messages around the node ring.
const PARTNERS: u32 = 4;
const MESSAGES: u32 = 10;
const MSG_BYTES: u64 = 40 * 1024;
/// Rounds per phase; each round starts when the previous one drained.
const ROUNDS: u32 = 40;
/// One call in `SAMPLE_EVERY` is timed on its own.
const SAMPLE_EVERY: u64 = 64;

/// What the phase measured (host time) and the fabric counters it checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetPhase {
    /// Mean host ns of a sampled `EventQueue::pop`.
    pub pop_ns: f64,
    /// Mean host ns of a sampled `Fabric::handle`.
    pub handle_ns: f64,
    /// Host ns of the whole phase per delivered packet.
    pub ns_per_packet: f64,
    /// Whether every message and packet sent was delivered.
    pub conserved: bool,
}

/// Runs the phase on the Cab switch seeded from `seed`.
pub fn run(seed: u64) -> NetPhase {
    let mut fabric = Fabric::new(SwitchConfig::cab().with_seed(seed ^ 0x0E7_F1A5));
    let mut q = EventQueue::<NetEvent>::new();
    let nodes = fabric.nodes();
    let mut notices = Vec::new();
    let (mut calls, mut pop_ns, mut handle_ns, mut samples) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for src in 0..nodes {
            for k in 1..=PARTNERS {
                let dst = (src + k) % nodes;
                for m in 0..MESSAGES {
                    let flow = u64::from(src) * 2 + u64::from(m % 2);
                    fabric.send_message(&mut q, flow, NodeId(src), NodeId(dst), MSG_BYTES);
                }
            }
        }
        loop {
            calls += 1;
            let sampled = calls % SAMPLE_EVERY == 0;
            let t0 = sampled.then(Instant::now);
            let Some((_, ev)) = q.pop() else { break };
            if let Some(t0) = t0 {
                pop_ns += t0.elapsed().as_nanos() as u64;
                let t1 = Instant::now();
                fabric.handle(&mut q, ev, &mut notices);
                handle_ns += t1.elapsed().as_nanos() as u64;
                samples += 1;
            } else {
                fabric.handle(&mut q, ev, &mut notices);
            }
            notices.clear();
        }
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let stats = fabric.stats();
    let samples = samples.max(1) as f64;
    NetPhase {
        pop_ns: pop_ns as f64 / samples,
        handle_ns: handle_ns as f64 / samples,
        ns_per_packet: wall_ns / stats.packets_delivered.max(1) as f64,
        conserved: stats.messages_sent == stats.messages_delivered
            && stats.packets_created == stats.packets_delivered
            && stats.messages_sent == u64::from(ROUNDS * nodes * PARTNERS * MESSAGES),
    }
}
