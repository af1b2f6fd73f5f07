//! Spans recorded from outside the program, around the calls the benchmark
//! makes into each layer's public functions.
//!
//! A [`Tracer`] keeps every span in memory (name, start, end, parent span
//! and cell id) and the benchmark writes them out when the run ends. Two
//! adapters reach layers the benchmark does not call directly: a
//! [`TimedProgram`] wraps each rank program so `next_op` time is summed per
//! run span, and a [`TracedBackend`] wraps a measurement backend so each
//! backend call gets a span.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use anp_core::experiments::{ExperimentConfig, ExperimentError};
use anp_core::{Backend, LatencyProfile, WorkloadSpec};
use anp_simmpi::{Ctx, Op, Program};
use anp_simnet::{NodeId, SimDuration};
use anp_workloads::{AppKind, CompressionConfig};

/// Span names: one per layer boundary the benchmark crosses.
pub mod names {
    /// A whole set-up (config, output directory, idle calibration).
    pub const SETUP: &str = "setup";
    /// A whole pass over a workload's cells.
    pub const PASS: &str = "pass";
    /// One sweep cell (carries a fresh cell id).
    pub const CELL: &str = "cell";
    /// `AppKind::build`, `build_compressionb`, `build_impactb`.
    pub const BUILD: &str = "workloads.build";
    /// Summed `Program::next_op` calls of one run (an aggregate span).
    pub const NEXT_OP: &str = "workloads.program.next_op";
    /// `World::run_until` / `World::run_until_job_done`.
    pub const RUN: &str = "simmpi.run";
    /// `TimedSeries` warm-up cut and `LatencyProfile` construction.
    pub const PROFILE: &str = "core.samples.profile";
    /// `calibrate` / `calibrate_with`.
    pub const CALIBRATE: &str = "core.queue.calibrate";
    /// A supervised sweep (`sweep_supervised*`, `measure_*_supervised_with`).
    pub const SUPERVISE: &str = "core.supervise";
    /// The `--resume` pass: `RunJournal::resume` plus the resumed sweep.
    pub const RESUME: &str = "core.journal.resume";
    /// `Study::predict_all` and `error_summaries`.
    pub const PREDICT: &str = "core.models.predict";
    /// A flow backend call that extracted a descriptor (memo miss).
    pub const DESCRIBE: &str = "flowsim.describe";
    /// A flow backend call answered from memoized descriptors.
    pub const SOLVE: &str = "flowsim.solve";
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary (see [`names`]).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The sweep cell this span belongs to (0 outside cells).
    pub cell: u32,
    /// Calls summed into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    next_cell: u32,
}

/// In-memory span recorder. `Sync` so cell closures handed to the
/// supervised sweep engine can share it; the benchmark runs one thread,
/// so the lock is never contended.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        let mut st = self.tracer.lock();
        st.spans[self.index].end_ns = end;
        // Guards drop in reverse order of creation, so this span is the
        // innermost open one; tolerate anything else rather than panic
        // inside a drop.
        if let Some(pos) = st.open.iter().rposition(|&i| i == self.index) {
            st.open.truncate(pos);
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    fn open(&self, name: &'static str, new_cell: bool) -> SpanGuard<'_> {
        let start = self.now_ns();
        let mut st = self.lock();
        let parent = st.open.last().copied();
        let cell = if new_cell {
            st.next_cell += 1;
            st.next_cell
        } else {
            parent.map_or(0, |p| st.spans[p].cell)
        };
        let index = st.spans.len();
        st.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            cell,
            calls: 1,
        });
        st.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, false)
    }

    /// Records `calls` calls totalling `total_ns` as one child of the
    /// innermost open span, packed at that span's start so it lies inside
    /// it (the calls themselves are interleaved with the parent's own
    /// work).
    pub fn aggregate(&self, name: &'static str, total_ns: u64, calls: u64) {
        let mut st = self.lock();
        let Some(parent) = st.open.last().copied() else {
            return;
        };
        let start = st.spans[parent].start_ns;
        let cell = st.spans[parent].cell;
        st.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + total_ns,
            parent: Some(parent),
            cell,
            calls,
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Number of spans recorded so far (a cursor for [`Tracer::spans`]).
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }
}

/// Opens `name` on `tracer` if tracing is on.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name))
}

/// Opens a cell span (a fresh cell id) on `tracer` if tracing is on.
pub fn cell(tracer: Option<&Tracer>) -> Option<SpanGuard<'_>> {
    tracer.map(|t| t.open(names::CELL, true))
}

/// Summed `next_op` time (ns) and call count of every program of one run.
pub type ProgramClock = Rc<Cell<(u64, u64)>>;

/// A rank program that times each `next_op` call of the program it wraps.
pub struct TimedProgram {
    inner: Box<dyn Program>,
    clock: ProgramClock,
}

impl Program for TimedProgram {
    fn next_op(&mut self, ctx: &Ctx) -> Op {
        let start = Instant::now();
        let op = self.inner.next_op(ctx);
        let (ns, calls) = self.clock.get();
        self.clock
            .set((ns + start.elapsed().as_nanos() as u64, calls + 1));
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Wraps every program of `members` in a [`TimedProgram`] sharing `clock`.
pub fn timed_members(
    members: Vec<(Box<dyn Program>, NodeId)>,
    clock: &ProgramClock,
) -> Vec<(Box<dyn Program>, NodeId)> {
    members
        .into_iter()
        .map(|(inner, node)| {
            let timed: Box<dyn Program> = Box::new(TimedProgram {
                inner,
                clock: Rc::clone(clock),
            });
            (timed, node)
        })
        .collect()
}

/// Wraps a measurement backend so every call gets a span: a call is a
/// memo miss ([`names::DESCRIBE`]) when it is the first to need some
/// application's descriptor — keyed by (app, salt, derived seed), the
/// same inputs the flow backend's process-wide memo uses — and a solve
/// ([`names::SOLVE`]) otherwise.
pub struct TracedBackend<'a> {
    inner: &'a dyn Backend,
    tracer: &'a Tracer,
    seen: Mutex<BTreeSet<(AppKind, u64, u64)>>,
}

impl<'a> TracedBackend<'a> {
    /// Wraps `inner`, recording on `tracer`.
    pub fn new(inner: &'a dyn Backend, tracer: &'a Tracer) -> Self {
        TracedBackend {
            inner,
            tracer,
            seen: Mutex::new(BTreeSet::new()),
        }
    }

    /// Opens the span for a call needing the descriptors of `apps`
    /// (application, seed salt).
    fn call(&self, cfg: &ExperimentConfig, apps: &[(AppKind, u64)]) -> SpanGuard<'_> {
        let mut seen = self.seen.lock().expect("memo-key set poisoned");
        let mut miss = false;
        for &(app, salt) in apps {
            miss |= seen.insert((app, salt, cfg.workload_seed(salt)));
        }
        drop(seen);
        self.tracer
            .span(if miss { names::DESCRIBE } else { names::SOLVE })
    }
}

impl Backend for TracedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports_faults(&self) -> bool {
        self.inner.supports_faults()
    }

    fn supports_timed_series(&self) -> bool {
        self.inner.supports_timed_series()
    }

    fn measure_impact_profile(
        &self,
        cfg: &ExperimentConfig,
        workload: WorkloadSpec<'_>,
    ) -> Result<LatencyProfile, ExperimentError> {
        let apps: &[(AppKind, u64)] = match workload {
            WorkloadSpec::App(app) => &[(app, app as u64 + 1)],
            WorkloadSpec::Idle | WorkloadSpec::Compression(_) => &[],
        };
        let _s = self.call(cfg, apps);
        self.inner.measure_impact_profile(cfg, workload)
    }

    fn measure_compression_run(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
        comp: &CompressionConfig,
    ) -> Result<SimDuration, ExperimentError> {
        let _s = self.call(cfg, &[(app, app as u64 + 1)]);
        self.inner.measure_compression_run(cfg, app, comp)
    }

    fn measure_solo_runtime(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        let _s = self.call(cfg, &[(app, app as u64 + 1)]);
        self.inner.measure_solo_runtime(cfg, app)
    }

    fn measure_corun_runtime(
        &self,
        cfg: &ExperimentConfig,
        victim: AppKind,
        other: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        let _s = self.call(
            cfg,
            &[(victim, victim as u64 + 1), (other, other as u64 + 101)],
        );
        self.inner.measure_corun_runtime(cfg, victim, other)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children never overlap one another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Checks that every span lies inside its parent and shares its parent's
/// cell id (a cell span starts a new one).
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .filter(|_| p < i)
            .ok_or_else(|| format!("span {i} ({}) has no earlier parent {p}", s.name))?;
        let inside = parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns;
        let same_cell = s.name == names::CELL || s.cell == parent.cell;
        if !inside || !same_cell || s.start_ns > s.end_ns {
            return Err(format!("span {i} {s:?} is not inside span {p} {parent:?}"));
        }
    }
    Ok(())
}

/// Writes `spans` as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{},\"calls\":{}}}",
            s.name, s.start_ns, s.end_ns, s.cell, s.calls
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_lie_inside_parents_and_inherit_cells() {
        let t = Tracer::default();
        {
            let _pass = t.span(names::PASS);
            for _ in 0..2 {
                let _cell = cell(Some(&t));
                let _run = t.span(names::RUN);
                std::hint::black_box((0..1000).sum::<u64>());
                t.aggregate(names::NEXT_OP, 0, 3);
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 7);
        assert_eq!(check_nesting(&spans), Ok(()));
        let cells: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == names::CELL)
            .map(|s| s.cell)
            .collect();
        assert_eq!(cells, vec![1, 2]);

        let mut escaped = spans.clone();
        escaped[2].end_ns = escaped[0].end_ns + 1;
        assert!(check_nesting(&escaped).is_err());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: 0,
            calls: 1,
        };
        let spans = vec![
            span(names::PASS, 0, 100, None),
            span(names::RUN, 10, 60, Some(0)),
            span(names::NEXT_OP, 10, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }
}
