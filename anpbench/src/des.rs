//! The DES cells of the benchmark, built from the public functions of
//! `anp-simmpi`, `anp-simnet` and `anp-workloads`.
//!
//! They do what `anp_core::experiments::{impact_series, runtime_of}` do —
//! same world, same jobs, same seeds, same run budget hook — but keep the
//! world in hand, so the benchmark can read the fabric's counters after
//! each cell and, when tracing, wrap the workload constructors, the run
//! loop and every rank program in spans. The crate's tests pin them to the
//! library functions bit for bit.

use std::rc::Rc;

use anp_core::experiments::{ExperimentConfig, ExperimentError, Members};
use anp_core::{LatencyProfile, TimedSeries};
use anp_simmpi::{RunOutcome, World};
use anp_simnet::{SimDuration, SimTime};
use anp_workloads::{build_compressionb, build_impactb, AppKind, CompressionConfig, RunMode};

use crate::trace::{self, names, ProgramClock, Tracer};

/// Simulator counters of one or more DES cells (summed with
/// [`DesCounters::add`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DesCounters {
    /// `FabricStats::messages_sent`.
    pub messages_sent: u64,
    /// `FabricStats::messages_delivered`.
    pub messages_delivered: u64,
    /// `FabricStats::packets_created`.
    pub packets_created: u64,
    /// `FabricStats::packets_delivered`.
    pub packets_delivered: u64,
    /// `FabricStats::local_messages`.
    pub local_messages: u64,
    /// `FabricStats::backpressure_stalls`.
    pub backpressure_stalls: u64,
    /// `World::events_processed`.
    pub events: u64,
    /// `World::job_ops_executed`, summed over the cell's jobs.
    pub ops: u64,
    /// Central-stage busy time, simulated ns.
    pub central_busy_ns: u128,
    /// Central-stage capacity (observed horizon × servers), simulated ns.
    pub central_capacity_ns: u128,
    /// Summed central-queue wait of served packets, simulated ns.
    pub central_wait_ns: u128,
    /// Packets served by the central stage.
    pub central_served: u64,
    /// Largest central-queue length seen.
    pub central_max_queue_len: u64,
}

impl DesCounters {
    fn of(world: &World, jobs: &[anp_simmpi::JobId]) -> Self {
        let f = world.fabric().stats();
        let sw = world.fabric().switch_stats();
        let horizon = world.now().saturating_since(sw.window_start).as_nanos() as u128;
        DesCounters {
            messages_sent: f.messages_sent,
            messages_delivered: f.messages_delivered,
            packets_created: f.packets_created,
            packets_delivered: f.packets_delivered,
            local_messages: f.local_messages,
            backpressure_stalls: f.backpressure_stalls,
            events: world.events_processed(),
            ops: jobs.iter().map(|&j| world.job_ops_executed(j)).sum(),
            central_busy_ns: sw.busy_ns,
            central_capacity_ns: horizon * sw.servers.max(1) as u128,
            central_wait_ns: sw.total_wait_ns,
            central_served: sw.served,
            central_max_queue_len: sw.max_queue_len as u64,
        }
    }

    /// Adds `other` into `self` (maxima for the queue length).
    pub fn add(&mut self, other: &DesCounters) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.packets_created += other.packets_created;
        self.packets_delivered += other.packets_delivered;
        self.local_messages += other.local_messages;
        self.backpressure_stalls += other.backpressure_stalls;
        self.events += other.events;
        self.ops += other.ops;
        self.central_busy_ns += other.central_busy_ns;
        self.central_capacity_ns += other.central_capacity_ns;
        self.central_wait_ns += other.central_wait_ns;
        self.central_served += other.central_served;
        self.central_max_queue_len = self.central_max_queue_len.max(other.central_max_queue_len);
    }
}

/// Builds members inside a build span, wrapping each program in a timing
/// program when tracing.
fn build(tracer: Option<&Tracer>, clock: &ProgramClock, make: impl FnOnce() -> Members) -> Members {
    let _s = trace::span(tracer, names::BUILD);
    let members = make();
    match tracer {
        Some(_) => trace::timed_members(members, clock),
        None => members,
    }
}

/// Runs `run` inside a run span and records the programs' summed
/// `next_op` time as its aggregate child.
fn run<T>(tracer: Option<&Tracer>, clock: &ProgramClock, run: impl FnOnce() -> T) -> T {
    let Some(t) = tracer else {
        return run();
    };
    let _s = t.span(names::RUN);
    let out = run();
    let (ns, calls) = clock.get();
    t.aggregate(names::NEXT_OP, ns, calls);
    out
}

/// An impact cell: ImpactB probes next to an optional endless
/// CompressionB configuration; the warm-up-cut probe profile. Mirrors
/// `impact_profile_of_compression` (and, with no workload, `idle_profile`).
pub fn impact(
    cfg: &ExperimentConfig,
    comp: Option<&CompressionConfig>,
    tracer: Option<&Tracer>,
) -> Result<(LatencyProfile, DesCounters), ExperimentError> {
    let clock: ProgramClock = Rc::default();
    let mut world = World::new(cfg.switch.clone());
    let mut sink = None;
    let probe_members = build(tracer, &clock, || {
        let (members, samples) = build_impactb(&cfg.impact, cfg.switch.nodes);
        sink = Some(samples);
        members
    });
    let sink = sink.expect("build closure ran");
    let mut jobs = vec![world.add_job("impactb", probe_members)];
    if let Some(comp) = comp {
        let members = build(tracer, &clock, || {
            build_compressionb(comp, cfg.switch.nodes, 2, cfg.switch.cpu_hz)
        });
        jobs.push(world.add_job("workload", members));
    }
    let (max_events, wall_deadline) = anp_core::supervise::world_allowance();
    world.set_run_budget(max_events, wall_deadline);
    run(tracer, &clock, || {
        world.run_until(SimTime::ZERO + cfg.measure_window)
    });
    anp_core::sweep::note_events(world.events_processed());
    if world.budget_exhausted() {
        return Err(ExperimentError::Budget(world.stall_report(jobs[0])));
    }
    let counters = DesCounters::of(&world, &jobs);
    let samples = sink.borrow();
    if samples.is_empty() {
        return Err(ExperimentError::NoSamples);
    }
    let _s = trace::span(tracer, names::PROFILE);
    let profile = TimedSeries::with_warmup(samples.clone(), cfg.warmup_frac).profile();
    Ok((profile, counters))
}

/// A runtime cell: `victim` at its default iteration count, next to an
/// endless copy of `other` if given. Mirrors `solo_runtime` and
/// `runtime_under_corun`.
pub fn runtime(
    cfg: &ExperimentConfig,
    victim: AppKind,
    other: Option<AppKind>,
    tracer: Option<&Tracer>,
) -> Result<(SimDuration, DesCounters), ExperimentError> {
    let clock: ProgramClock = Rc::default();
    let members = build(tracer, &clock, || {
        victim.build(RunMode::Iterations(0), cfg.workload_seed(victim as u64 + 1))
    });
    let noise = other.map(|o| {
        build(tracer, &clock, || {
            o.build(RunMode::Endless, cfg.workload_seed(o as u64 + 101))
        })
    });
    let mut world = World::new(cfg.switch.clone());
    let job = world.add_job(victim.name(), members);
    let mut jobs = vec![job];
    if let Some(noise) = noise {
        jobs.push(world.add_job("interferer", noise));
    }
    let cap = SimTime::ZERO + cfg.run_cap;
    let (max_events, wall_deadline) = anp_core::supervise::world_allowance();
    world.set_run_budget(max_events, wall_deadline);
    let outcome = run(tracer, &clock, || world.run_until_job_done(job, cap));
    anp_core::sweep::note_events(world.events_processed());
    match outcome {
        RunOutcome::Completed { at } => {
            Ok((at.since(SimTime::ZERO), DesCounters::of(&world, &jobs)))
        }
        RunOutcome::DeadlineExpired(report) => Err(ExperimentError::HorizonExceeded {
            job: victim.name().to_owned(),
            cap,
            report,
        }),
        RunOutcome::Stalled(report) => Err(ExperimentError::Stalled(report)),
        RunOutcome::BudgetExhausted(report) => Err(ExperimentError::Budget(report)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_core::Journaled as _;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::cab().with_seed(7).with_jobs(1)
    }

    #[test]
    fn impact_cell_matches_the_library_bit_for_bit() {
        let cfg = cfg();
        let comp = CompressionConfig::new(14, 25_000_000, 1);
        let lib = anp_core::impact_profile_of_compression(&cfg, &comp).expect("library cell");
        for tracer in [None, Some(&Tracer::default())] {
            let (ours, counters) = impact(&cfg, Some(&comp), tracer).expect("benchmark cell");
            assert_eq!(ours.encode_journal(), lib.encode_journal());
            assert!(counters.packets_delivered > 0);
        }
        let idle = anp_core::idle_profile(&cfg).expect("library idle");
        let (ours, _) = impact(&cfg, None, None).expect("benchmark idle");
        assert_eq!(ours.encode_journal(), idle.encode_journal());
    }

    #[test]
    fn runtime_cells_match_the_library() {
        let cfg = cfg();
        let solo = anp_core::solo_runtime(&cfg, AppKind::Lulesh).expect("library solo");
        let corun = anp_core::runtime_under_corun(&cfg, AppKind::Mcb, AppKind::Lulesh)
            .expect("library corun");
        let traced = Tracer::default();
        for tracer in [None, Some(&traced)] {
            let (t, c) = runtime(&cfg, AppKind::Lulesh, None, tracer).expect("solo");
            assert_eq!(t, solo);
            assert_eq!(c.messages_sent, c.messages_delivered);
            assert_eq!(c.packets_created, c.packets_delivered);
            let (t, _) = runtime(&cfg, AppKind::Mcb, Some(AppKind::Lulesh), tracer).expect("corun");
            assert_eq!(t, corun);
        }
        let spans = traced.spans();
        assert_eq!(trace::check_nesting(&spans), Ok(()));
        let seen: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(seen.contains(&names::NEXT_OP) && seen.contains(&names::BUILD));
    }
}
