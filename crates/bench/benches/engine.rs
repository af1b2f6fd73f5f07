//! Criterion benchmarks of the discrete-event core: event-queue
//! scheduling/popping and the full packet path through the fabric.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use anp_simnet::{drain, EventQueue, Fabric, NetEvent, NodeId, SimDuration, SimTime, SwitchConfig};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for n in [1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_function(format!("schedule_pop_{n}"), |b| {
            b.iter_batched(
                EventQueue::<u64>::new,
                |mut q| {
                    // Interleaved times exercise heap reordering.
                    for i in 0..n {
                        q.schedule_at(SimTime::from_nanos((i * 7919) % (n * 4)), i);
                    }
                    let mut acc = 0u64;
                    while let Some((_, e)) = q.pop() {
                        acc = acc.wrapping_add(e);
                    }
                    acc
                },
                BatchSize::SmallInput,
            );
        });
    }

    // Hold model of packet traffic on the Cab switch: ~100 events pending,
    // each pop schedules a successor with the delay mix a contended ladder
    // rung shows (40% 250 ns wire, 40% 820 ns MTU serialization, 15% 300 ns
    // service base, 5% a scattered tail).
    const PENDING: u64 = 100;
    const HOLDS: u64 = 100_000;
    let delays: Vec<SimDuration> = (0..HOLDS)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            SimDuration::from_nanos(match h % 100 {
                0..=39 => 250,
                40..=79 => 820,
                80..=94 => 300,
                _ => 1_000 + h % 50_000,
            })
        })
        .collect();
    g.throughput(Throughput::Elements(HOLDS));
    g.bench_function("hold_cab_mix", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::<u64>::new();
                for i in 0..PENDING {
                    q.schedule_after(delays[i as usize], i);
                }
                q
            },
            |mut q| {
                let mut acc = 0u64;
                for d in &delays {
                    let (_, e) = q.pop().expect("the hold model keeps events pending");
                    acc = acc.wrapping_add(e);
                    q.schedule_after(*d, e);
                }
                acc
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_fabric_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    g.bench_function("single_packet_end_to_end", |b| {
        b.iter_batched(
            || {
                (
                    Fabric::new(SwitchConfig::tiny_deterministic()),
                    EventQueue::<NetEvent>::new(),
                )
            },
            |(mut fab, mut q)| {
                fab.send_message(&mut q, 0, NodeId(0), NodeId(1), 512);
                drain(&mut fab, &mut q, SimTime::from_secs(1)).len()
            },
            BatchSize::SmallInput,
        );
    });

    // Sustained many-sender load at Cab scale: measures events/sec of the
    // whole switch model under contention.
    let msgs = 2_000u64;
    g.throughput(Throughput::Elements(msgs));
    g.bench_function("cab_contended_2000_msgs", |b| {
        b.iter_batched(
            || {
                (
                    Fabric::new(SwitchConfig::cab().with_seed(1)),
                    EventQueue::<NetEvent>::new(),
                )
            },
            |(mut fab, mut q)| {
                for i in 0..msgs {
                    fab.send_message(
                        &mut q,
                        i % 36,
                        NodeId((i % 18) as u32),
                        NodeId(((i + 7) % 18) as u32),
                        4096 * 3,
                    );
                }
                drain(&mut fab, &mut q, SimTime::from_secs(10)).len()
            },
            BatchSize::SmallInput,
        );
    });

    // The backlog a CompressionB `P4-M10` rung builds (the shape of the
    // benchmark's network phase): every Cab node queues 10 messages of
    // 40 KB for each of 4 ring predecessors at once, then the fabric
    // drains. Measures the per-packet path under deep NIC backlogs.
    const NODES: u32 = 18;
    const PARTNERS: u32 = 4;
    const MESSAGES: u32 = 10;
    g.throughput(Throughput::Elements(u64::from(NODES * PARTNERS * MESSAGES)));
    g.bench_function("cab_bulk_backlog", |b| {
        b.iter_batched(
            || {
                (
                    Fabric::new(SwitchConfig::cab().with_seed(1)),
                    EventQueue::<NetEvent>::new(),
                )
            },
            |(mut fab, mut q)| {
                for p in 0..PARTNERS {
                    for _ in 0..MESSAGES {
                        for node in 0..NODES {
                            let pred = (node + NODES - (p + 1)) % NODES;
                            fab.send_message(
                                &mut q,
                                u64::from(node),
                                NodeId(node),
                                NodeId(pred),
                                40 * 1024,
                            );
                        }
                    }
                }
                drain(&mut fab, &mut q, SimTime::from_secs(10)).len()
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_fabric_path);
criterion_main!(benches);
