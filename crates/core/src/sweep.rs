//! The parallel experiment sweep engine.
//!
//! Every expensive artefact of the paper is a grid of *independent,
//! deterministic* simulations: one impact run per CompressionB
//! configuration, an `apps × configs` grid of runtime runs (§IV-A), and a
//! quadratic grid of co-run pairings (Table I). Each cell seeds its own
//! [`anp_simmpi::World`] from the experiment config alone, so cells share
//! no state and can execute on any thread in any order.
//!
//! One worker pool, `fan_out`, exploits that for both sweep engines: it
//! runs cell `i` for every index across `N` worker threads (std
//! [`std::thread::scope`], no runtime dependencies) and collects results
//! **by index**. Workers pull the next unclaimed index from an atomic
//! counter; each result lands in its own slot, so the output vector is
//! byte-identical to what a serial loop in index order would produce,
//! regardless of scheduling. With [`Parallelism::Fixed`]`(1)` the cells
//! run in order on the calling thread.
//!
//! [`sweep_recorded_for`] is the plain engine: it trusts its tasks (a
//! panicking task propagates) and captures a [`SweepTelemetry`] record —
//! per-run wall time and simulation events processed (reported by the
//! experiment drivers via [`note_events`]), plus whole-sweep wall time and
//! worker count. [`crate::supervise::sweep_supervised_for`] is the
//! supervised engine on the same pool. Harnesses serialize the telemetry
//! to `BENCH_anp.json` so the performance trajectory of the engine is
//! tracked run over run.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// How many worker threads a sweep may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Exactly this many workers. `Fixed(1)` runs every task in order on
    /// the calling thread — the exact pre-sweep-engine serial behavior.
    Fixed(usize),
}

impl Parallelism {
    /// A fixed worker count (clamped to at least 1).
    pub fn fixed(n: usize) -> Self {
        Parallelism::Fixed(n.max(1))
    }

    /// The number of workers this setting resolves to on this machine.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

thread_local! {
    /// Simulation events processed by experiment drivers on this thread
    /// since the last [`take_events`]. Thread-local so parallel workers
    /// attribute events to their own runs.
    static RUN_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Credits `n` simulation events to the current thread's running tally.
/// Called by the experiment drivers after each `World` run. Also charges
/// the supervised run budget of the current cell attempt, if one is
/// installed (see [`crate::supervise`]).
pub fn note_events(n: u64) {
    RUN_EVENTS.with(|c| c.set(c.get().saturating_add(n)));
    crate::supervise::charge_events(n);
}

/// Drains the current thread's event tally (used by the sweep runner to
/// attribute events to the task that just finished).
pub fn take_events() -> u64 {
    RUN_EVENTS.with(|c| c.replace(0))
}

/// Telemetry of one run (one sweep cell): an independent simulation or a
/// small serial batch of them.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Human-readable cell label, e.g. `solo:FFTW` or `grid:FFTW/P7-B2.5e6-M10`.
    pub label: String,
    /// Measurement backend that produced the cell (`"des"` for the
    /// packet-level simulator, `"flow"` for the analytic model).
    pub backend: String,
    /// Wall-clock seconds the cell took on its worker.
    pub wall_secs: f64,
    /// Simulation events processed by the cell (from
    /// [`anp_simmpi::World::events_processed`] via [`note_events`]).
    /// Zero for analytic backends, which process no events.
    pub events: u64,
    /// How the cell ended: `"ok"` (also for plain unsupervised sweeps),
    /// `"resumed"` (decoded from a run journal), or a failure kind from
    /// [`crate::journal::CellStatus`] (`"failed"`, `"panicked"`,
    /// `"budget"`).
    pub outcome: String,
    /// Retries the supervisor spent on the cell (0 in plain sweeps).
    pub retries: u32,
}

impl RunRecord {
    /// Simulation events per wall-clock second — the engine's throughput
    /// on this cell.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }
}

/// Telemetry of one whole sweep: the per-run records plus the fan-out
/// shape and end-to-end wall time.
#[derive(Debug, Clone)]
pub struct SweepTelemetry {
    /// Name of the sweep (e.g. `lookup-table`, `table1-grid`).
    pub name: String,
    /// Backend the sweep's cells ran on (`"des"`, `"flow"`, or `"mixed"`
    /// after absorbing a sweep from a different backend).
    pub backend: String,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// End-to-end wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// One record per task, in task (= serial) order.
    pub runs: Vec<RunRecord>,
}

impl SweepTelemetry {
    /// Total simulation events across all runs.
    pub fn events_total(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    /// Sum of per-run wall times — the serial-equivalent duration of the
    /// sweep (what one worker would have needed).
    pub fn serial_secs(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_secs).sum()
    }

    /// Aggregate throughput: total events over end-to-end wall time.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events_total() as f64 / self.wall_secs
    }

    /// Parallel speedup actually realized: serial-equivalent time over
    /// end-to-end wall time. ~1.0 for a serial sweep.
    pub fn speedup(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 1.0;
        }
        self.serial_secs() / self.wall_secs
    }

    /// Folds `other` into `self`: runs concatenate, wall times add (the
    /// sweeps ran one after the other), worker count keeps the maximum.
    /// Absorbing a sweep from a different backend marks the aggregate as
    /// `"mixed"` (the per-run records keep their own backend).
    pub fn absorb(&mut self, other: SweepTelemetry) {
        self.workers = self.workers.max(other.workers);
        self.wall_secs += other.wall_secs;
        if self.backend != other.backend {
            self.backend = "mixed".to_owned();
        }
        self.runs.extend(other.runs);
    }

    /// Serializes the record to a self-contained JSON object (the
    /// element schema of `BENCH_anp.json`; no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.runs.len() * 96);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"backend\":\"{}\",\"workers\":{},\"wall_secs\":{:.6},\
             \"serial_secs\":{:.6},\
             \"speedup\":{:.3},\"runs\":{},\"events\":{},\"events_per_sec\":{:.0},\
             \"per_run\":[",
            json_escape(&self.name),
            json_escape(&self.backend),
            self.workers,
            self.wall_secs,
            self.serial_secs(),
            self.speedup(),
            self.runs.len(),
            self.events_total(),
            self.events_per_sec(),
        ));
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"backend\":\"{}\",\"wall_secs\":{:.6},\"events\":{},\
                 \"outcome\":\"{}\",\"retries\":{}}}",
                json_escape(&r.label),
                json_escape(&r.backend),
                r.wall_secs,
                r.events,
                json_escape(&r.outcome),
                r.retries
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (labels are plain ASCII identifiers, but
/// stay safe against quotes and backslashes anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs `cell(i)` for every `i` in `0..n` on up to `workers` threads
/// and returns the results **in index order** — byte-identical to a
/// serial loop, regardless of how the scheduler interleaves the cells.
/// With one worker (or at most one cell) the cells run in order on the
/// calling thread. A panicking cell propagates out of the pool once
/// every worker has stopped.
pub(crate) fn fan_out<R: Send>(
    workers: usize,
    n: usize,
    cell: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(cell).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = cell(i);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // anp-lint: allow(D003) — thread::scope joins every worker before collection, so each slot holds exactly one result
                .expect("sweep cell did not produce a result")
        })
        .collect()
}

/// Runs `tasks` across up to [`Parallelism::workers`] threads and returns
/// their results **in task order** together with a [`SweepTelemetry`]
/// record: per-run wall time and simulation events, whole-sweep wall
/// time, worker count. Every [`RunRecord`] and the telemetry itself are
/// attributed to `backend` (`"des"`, `"flow"`, …).
///
/// Tasks must be independent: each closure owns (or shares immutably)
/// everything it needs. A panicking task propagates out of the sweep;
/// [`crate::supervise::sweep_supervised_for`] isolates panics instead.
pub fn sweep_recorded_for<T, F>(
    name: &str,
    backend: &str,
    par: Parallelism,
    tasks: Vec<(String, F)>,
) -> (Vec<T>, SweepTelemetry)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let workers = par.workers().min(n.max(1));
    let sweep_start = Instant::now();
    let tasks: Vec<Mutex<Option<(String, F)>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();

    let (values, runs) = fan_out(workers, n, |i| {
        let (label, f) = tasks[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            // anp-lint: allow(D003) — the pool hands each index to exactly one call; a double claim is engine corruption that must halt loudly
            .expect("sweep task claimed twice");
        let _ = take_events(); // drop any stale tally from a previous cell
        let start = Instant::now();
        let value = f();
        let record = RunRecord {
            label,
            backend: backend.to_owned(),
            wall_secs: start.elapsed().as_secs_f64(),
            events: take_events(),
            outcome: "ok".to_owned(),
            retries: 0,
        };
        (value, record)
    })
    .into_iter()
    .unzip();
    let telemetry = SweepTelemetry {
        name: name.to_owned(),
        backend: backend.to_owned(),
        workers,
        wall_secs: sweep_start.elapsed().as_secs_f64(),
        runs,
    };
    (values, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain engine over unlabeled tasks, values only.
    fn values<T: Send>(par: Parallelism, tasks: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
        let labeled = tasks.into_iter().map(|f| (String::new(), f)).collect();
        sweep_recorded_for("unit", "des", par, labeled).0
    }

    /// Burns time proportional to `work`; the value depends only on `i`.
    fn skewed(i: u64, work: u64) -> u64 {
        let mut acc = 0u64;
        for k in 0..work * 1_000 {
            acc = acc.wrapping_add(k ^ i);
        }
        i + acc.wrapping_mul(0)
    }

    #[test]
    fn results_come_back_in_task_order() {
        // Give later tasks *less* work so they finish first under any
        // parallel schedule; the output must still be index-ordered.
        let tasks: Vec<_> = (0..64u64).map(|i| move || skewed(i, 64 - i)).collect();
        assert_eq!(
            values(Parallelism::fixed(8), tasks),
            (0..64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_matches_serial_output() {
        let mk = || {
            (0..40u64)
                .map(|i| move || i.wrapping_mul(0x9E37_79B9).rotate_left(i as u32 % 13))
                .collect::<Vec<_>>()
        };
        let serial = values(Parallelism::fixed(1), mk());
        let parallel = values(Parallelism::fixed(7), mk());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_task_sweeps() {
        let none: Vec<fn() -> u32> = vec![];
        assert!(values(Parallelism::Auto, none).is_empty());
        assert_eq!(values(Parallelism::Auto, vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    fn fan_out_handles_small_pools() {
        assert!(fan_out(4, 0, |i| i).is_empty());
        assert_eq!(fan_out(4, 1, |i| i + 7), vec![7]);
        assert_eq!(fan_out(1, 3, |i| i * 2), vec![0, 2, 4]);
        assert_eq!(fan_out(16, 3, |i| i * 10), vec![0, 10, 20], "workers > n");
    }

    #[test]
    fn fan_out_keeps_index_order_under_skewed_costs() {
        // Early cells are the expensive ones, so later cells finish first.
        let out = fan_out(4, 48, |i| skewed(i as u64, 48 - i as u64));
        assert_eq!(out, (0..48).collect::<Vec<u64>>());
    }

    #[test]
    fn telemetry_counts_runs_and_events() {
        let tasks: Vec<(String, _)> = (0..5u64)
            .map(|i| {
                (format!("cell{i}"), move || {
                    note_events(100 + i);
                    i
                })
            })
            .collect();
        let (values, t) = sweep_recorded_for("unit", "des", Parallelism::fixed(3), tasks);
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.runs.len(), 5);
        assert_eq!(t.name, "unit");
        assert_eq!(t.workers, 3);
        assert_eq!(t.events_total(), 100 + 101 + 102 + 103 + 104);
        assert_eq!(t.runs[2].label, "cell2");
        assert_eq!(t.runs[2].events, 102);
        assert!(t.serial_secs() >= 0.0);
    }

    #[test]
    fn serial_telemetry_reports_one_worker() {
        let (_, t) = sweep_recorded_for(
            "serial",
            "des",
            Parallelism::fixed(1),
            vec![("a".to_owned(), || ())],
        );
        assert_eq!(t.workers, 1);
    }

    #[test]
    fn stale_events_do_not_leak_between_cells() {
        note_events(999); // tally left by an earlier, unswept experiment
        let tasks = vec![("only".to_owned(), || note_events(5))];
        let (_, t) = sweep_recorded_for("leak", "des", Parallelism::fixed(1), tasks);
        assert_eq!(t.events_total(), 5);
    }

    #[test]
    fn json_record_is_well_formed() {
        let t = SweepTelemetry {
            name: "t\"est".to_owned(),
            backend: "flow".to_owned(),
            workers: 4,
            wall_secs: 1.5,
            runs: vec![RunRecord {
                label: "a".to_owned(),
                backend: "flow".to_owned(),
                wall_secs: 0.5,
                events: 10,
                outcome: "ok".to_owned(),
                retries: 1,
            }],
        };
        let j = t.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"t\\\"est\""));
        assert!(j.contains("\"backend\":\"flow\""));
        assert!(j.contains("\"workers\":4"));
        assert!(j.contains("\"events\":10"));
        assert!(j.contains("\"outcome\":\"ok\""));
        assert!(j.contains("\"retries\":1"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count(),);
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn speedup_of_serial_sweep_is_about_one() {
        let rec = |events| RunRecord {
            label: String::new(),
            backend: "des".to_owned(),
            wall_secs: 1.0,
            events,
            outcome: "ok".to_owned(),
            retries: 0,
        };
        let t = SweepTelemetry {
            name: "s".into(),
            backend: "des".to_owned(),
            workers: 1,
            wall_secs: 2.0,
            runs: vec![rec(1), rec(1)],
        };
        assert!((t.speedup() - 1.0).abs() < 1e-9);
        assert!((t.events_per_sec() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn backend_attribution_defaults_to_des_and_mixes_on_absorb() {
        let (_, des) = crate::supervise::sweep_supervised(
            "d",
            Parallelism::fixed(1),
            &crate::supervise::Supervisor::none(),
            None,
            0,
            vec![("a".to_owned(), || Ok::<u64, crate::ExperimentError>(0))],
        )
        .unwrap();
        assert_eq!(des.backend, "des");
        assert_eq!(des.runs[0].backend, "des");
        let (_, flow) = sweep_recorded_for(
            "f",
            "flow",
            Parallelism::fixed(1),
            vec![("b".to_owned(), || ())],
        );
        assert_eq!(flow.backend, "flow");
        assert_eq!(flow.runs[0].backend, "flow");
        let mut agg = des.clone();
        agg.absorb(des.clone());
        assert_eq!(agg.backend, "des", "same-backend absorb stays pure");
        agg.absorb(flow);
        assert_eq!(agg.backend, "mixed");
        assert_eq!(agg.runs[2].backend, "flow", "per-run attribution survives");
    }

    #[test]
    fn parallelism_resolves_to_positive_workers() {
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(Parallelism::fixed(0).workers(), 1);
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert_eq!(Parallelism::fixed(6).workers(), 6);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
