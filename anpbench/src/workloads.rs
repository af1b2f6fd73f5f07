//! The three workloads: their set-up, one pass over their cells, and the
//! output checks. Every workload is one closed sequence of sweep cells on
//! one thread (`Parallelism::fixed(1)`).
//!
//! * `ladder_bulk` — the eight-rung CompressionB impact ladder (the
//!   `--quick` diagonal of the paper sweep) through `sweep_supervised`
//!   with a fresh run journal, then again against the completed journal
//!   (`--resume`). Host time is the per-packet path.
//! * `apps_corun` — solo runtimes of the six proxies and four Table-I
//!   co-runs. Heavier per-message work: delivery, MPI matching,
//!   collective lowering, rank timers.
//! * `flow_study` — the whole paper study through the analytic flow
//!   backend, for fresh seeds each pass (its descriptor memo is
//!   process-wide). Runs no DES event in its passes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use anp_core::{
    all_models, calibrate_with, config_fingerprint, degradation_percent, error_summaries,
    sweep_supervised, sweep_supervised_for, Backend, Calibration, ExperimentConfig, Journaled,
    LatencyProfile, LookupTable, ModelKind, MuPolicy, Parallelism, RunJournal, Study, Supervisor,
};
use anp_flowsim::FlowBackend;
use anp_simnet::SimDuration;
use anp_workloads::{AppKind, CompressionConfig};

use crate::des::{self, DesCounters};
use crate::golden::Output;
use crate::trace::{self, names, Tracer};

/// The default workload seed: `ExperimentConfig::cab()`'s.
pub const DEFAULT_SEED: u64 = 0xA11CE;

/// Simulated window of each ladder rung. A quarter of the paper
/// harnesses' 300 ms keeps one pass near 3.5 s, so a run holds several.
const LADDER_WINDOW_MS: u64 = 75;

/// Flow studies per `flow_study` pass, each at its own seed.
const FLOW_SEEDS_PER_PASS: u64 = 4;

/// The Table-I co-runs of `apps_corun`: (victim, endless partner).
/// Lulesh next to MILC hits credit back-pressure; MCB next to AMG is
/// timer-heavy. MILC under FFTW and AMG under VPFFT would take 8 s of a
/// 10 s pass, leaving too few passes per run for a steady median.
const CORUNS: [(AppKind, AppKind); 2] = [
    (AppKind::Lulesh, AppKind::Milc),
    (AppKind::Mcb, AppKind::Amg),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CompressionB impact ladder, fresh and resumed.
    LadderBulk,
    /// Solo and co-run application runtimes.
    AppsCorun,
    /// The paper study on the flow backend.
    FlowStudy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LadderBulk,
        Workload::AppsCorun,
        Workload::FlowStudy,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LadderBulk => "ladder_bulk",
            Workload::AppsCorun => "apps_corun",
            Workload::FlowStudy => "flow_study",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment configuration of this workload at `seed`.
    fn config(self, seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::cab().with_seed(seed).with_jobs(1);
        if self == Workload::LadderBulk {
            cfg.measure_window = SimDuration::from_millis(LADDER_WINDOW_MS);
        }
        cfg
    }
}

/// The eight ladder rungs: the `i % 5 == (i / 5) % 5` diagonal of the
/// paper's 40-configuration sweep (the harnesses' `--quick` subset).
pub fn ladder() -> Vec<CompressionConfig> {
    CompressionConfig::paper_sweep()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == (i / 5) % 5)
        .map(|(_, c)| c)
        .collect()
}

/// An `f64` as the hex of its bits (exact).
pub fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Inverse of [`bits`].
pub fn from_bits(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn digest(parts: &[String]) -> String {
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    format!("{:016x}", anp_core::journal::fnv1a(&parts))
}

fn calibration_value(c: &Calibration) -> String {
    format!("{},{},{}", bits(c.mu), bits(c.var_s), bits(c.idle_mean))
}

/// What a set-up made: the configuration and the idle calibration every
/// workload starts from.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The workload's experiment configuration.
    pub cfg: ExperimentConfig,
    /// Queue-model calibration from the DES idle profile.
    pub calibration: Calibration,
    /// Counters of the calibration run.
    pub des: DesCounters,
    /// The set-up's simulated outputs.
    pub outputs: Vec<Output>,
    dir: PathBuf,
}

/// Config, output directory, and idle calibration (DES, as `calibrate`
/// does) at the workload seed.
pub fn setup(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<Setup, String> {
    let _s = trace::span(tracer, names::SETUP);
    let cfg = workload.config(seed);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Calibrate over the paper harnesses' full window whatever the
    // workload's own window.
    let idle_cfg = ExperimentConfig::cab().with_seed(seed).with_jobs(1);
    let (profile, des) = {
        let _c = trace::span(tracer, names::CALIBRATE);
        des::impact(&idle_cfg, None, tracer).map_err(|e| format!("idle calibration: {e}"))?
    };
    let calibration = Calibration::from_idle_profile(&profile, MuPolicy::MinLatency)
        .map_err(|e| format!("idle calibration: {e}"))?;
    let outputs = vec![
        (
            "setup:calibration".to_owned(),
            calibration_value(&calibration),
        ),
        ("setup:idle-mean".to_owned(), bits(profile.mean())),
    ];
    Ok(Setup {
        workload,
        seed,
        cfg,
        calibration,
        des,
        outputs,
        dir: dir.to_owned(),
    })
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Simulated outputs, labelled.
    pub outputs: Vec<Output>,
    /// One line per failed cell or broken invariant.
    pub failures: Vec<String>,
    /// Cells attempted.
    pub cells: u64,
    /// Summed counters of the pass's DES cells.
    pub des: DesCounters,
    /// Cells in the journal the resumed sweep read.
    pub journal_cells: u64,
    /// Size of that journal, bytes.
    pub journal_bytes: u64,
}

impl PassOut {
    fn push(&mut self, label: impl Into<String>, value: impl Into<String>) {
        self.outputs.push((label.into(), value.into()));
    }
}

/// Runs pass number `index` of the set-up's workload.
pub fn pass(setup: &Setup, index: u64, tracer: Option<&Tracer>) -> PassOut {
    let _s = trace::span(tracer, names::PASS);
    match setup.workload {
        Workload::LadderBulk => ladder_pass(setup, tracer),
        Workload::AppsCorun => apps_pass(setup, tracer),
        Workload::FlowStudy => {
            let traced;
            let backend: &dyn Backend = match tracer {
                Some(t) => {
                    traced = trace::TracedBackend::new(&FlowBackend, t);
                    &traced
                }
                None => &FlowBackend,
            };
            let mut out = PassOut::default();
            for j in 0..FLOW_SEEDS_PER_PASS {
                let seed = flow_seed(setup.seed, index * FLOW_SEEDS_PER_PASS + j);
                let study = flow_study(seed, backend, tracer);
                let prefix = format!("s{seed:016x}:");
                out.outputs.extend(
                    study
                        .outputs
                        .into_iter()
                        .map(|(label, value)| (format!("{prefix}{label}"), value)),
                );
                out.failures
                    .extend(study.failures.into_iter().map(|f| format!("{prefix}{f}")));
                out.cells += study.cells;
            }
            out
        }
    }
}

/// The `k`-th flow-study seed derived from the workload seed (SplitMix64).
fn flow_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ladder_pass(setup: &Setup, tracer: Option<&Tracer>) -> PassOut {
    let mut out = PassOut::default();
    let cfg = &setup.cfg;
    let rungs = ladder();
    let counters = Mutex::new(vec![DesCounters::default(); rungs.len()]);
    let tasks = || -> Vec<(String, _)> {
        rungs
            .iter()
            .enumerate()
            .map(|(i, comp)| {
                let counters = &counters;
                (format!("impact:{}", comp.label()), move || {
                    let _c = trace::cell(tracer);
                    let (profile, c) = des::impact(cfg, Some(comp), tracer)?;
                    counters.lock().expect("counter lock")[i] = c;
                    Ok(profile)
                })
            })
            .collect()
    };
    let path = setup.dir.join(format!("ladder-{:016x}.jsonl", setup.seed));
    let fp = config_fingerprint(cfg, "des");
    let par = Parallelism::fixed(1);
    let sup = Supervisor::none();
    let fresh = RunJournal::create(&path)
        .map_err(|e| e.to_string())
        .and_then(|j| {
            let _s = trace::span(tracer, names::SUPERVISE);
            sweep_supervised("ladder", par, &sup, Some(&j), fp, tasks()).map_err(|e| e.to_string())
        });
    let fresh: Vec<Result<LatencyProfile, String>> = match fresh {
        Ok((cells, _)) => cells
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect(),
        Err(e) => {
            out.failures.push(format!("ladder journal: {e}"));
            return out;
        }
    };
    out.journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let resumed = {
        let _s = trace::span(tracer, names::RESUME);
        RunJournal::resume(&path)
            .map_err(|e| e.to_string())
            .and_then(|j| {
                out.journal_cells = j.completed_cells() as u64;
                sweep_supervised("ladder", par, &sup, Some(&j), fp, tasks())
                    .map_err(|e| e.to_string())
            })
    };
    let _ = std::fs::remove_file(&path);
    let resumed = match resumed {
        Ok((cells, _)) => cells,
        Err(e) => {
            out.failures.push(format!("ladder resume: {e}"));
            return out;
        }
    };
    out.cells = (fresh.len() + resumed.len()) as u64;
    if out.journal_cells != rungs.len() as u64 {
        out.failures.push(format!(
            "journal holds {} of {} cells",
            out.journal_cells,
            rungs.len()
        ));
    }
    for ((comp, fresh), resumed) in rungs.iter().zip(&fresh).zip(&resumed) {
        let label = comp.label();
        let profile = match fresh {
            Ok(p) => p,
            Err(e) => {
                out.failures.push(e.clone());
                continue;
            }
        };
        if profile.count() == 0 {
            out.failures.push(format!("impact:{label}: no samples"));
        }
        let encoded = profile.encode_journal();
        match resumed {
            Ok(r) if r.encode_journal() == encoded => {}
            Ok(_) => out
                .failures
                .push(format!("impact:{label}: resumed profile differs")),
            Err(e) => out
                .failures
                .push(format!("impact:{label}: resume failed: {e}")),
        }
        out.push(format!("impact:{label}"), digest(&[encoded]));
        out.push(format!("mean:{label}"), bits(profile.mean()));
        out.push(
            format!("util:{label}"),
            bits(setup.calibration.utilization(profile)),
        );
    }
    for c in counters.into_inner().expect("counter lock").iter() {
        out.des.add(c);
    }
    out
}

fn apps_pass(setup: &Setup, tracer: Option<&Tracer>) -> PassOut {
    let mut out = PassOut::default();
    let cfg = &setup.cfg;
    let cells: Vec<(AppKind, Option<AppKind>)> = AppKind::ALL
        .iter()
        .map(|&a| (a, None))
        .chain(CORUNS.iter().map(|&(v, o)| (v, Some(o))))
        .collect();
    let counters = Mutex::new(vec![DesCounters::default(); cells.len()]);
    let tasks: Vec<(String, _)> = cells
        .iter()
        .enumerate()
        .map(|(i, &(victim, other))| {
            let counters = &counters;
            (cell_label(victim, other), move || {
                let _c = trace::cell(tracer);
                let (t, c) = des::runtime(cfg, victim, other, tracer)?;
                counters.lock().expect("counter lock")[i] = c;
                Ok(t)
            })
        })
        .collect();
    let labels: Vec<String> = tasks.iter().map(|(l, _)| l.clone()).collect();
    let results = {
        let _s = trace::span(tracer, names::SUPERVISE);
        let fp = config_fingerprint(cfg, "des");
        sweep_supervised(
            "apps",
            Parallelism::fixed(1),
            &Supervisor::none(),
            None,
            fp,
            tasks,
        )
    };
    let results = match results {
        Ok((r, _)) => r,
        Err(e) => {
            out.failures.push(format!("apps sweep: {e}"));
            return out;
        }
    };
    let counters = counters.into_inner().expect("counter lock");
    out.cells = results.len() as u64;
    for (((label, r), c), &(_, other)) in labels.iter().zip(results).zip(&counters).zip(&cells) {
        match r {
            Ok(t) => out.push(label.clone(), t.as_nanos().to_string()),
            Err(e) => {
                out.failures.push(e.to_string());
                continue;
            }
        }
        // A finished solo job has delivered everything it sent; next to
        // an endless partner, the partner's traffic may still be in
        // flight when the measured job ends.
        let conserved = if other.is_none() {
            c.messages_sent == c.messages_delivered && c.packets_created == c.packets_delivered
        } else {
            c.messages_delivered <= c.messages_sent && c.packets_delivered <= c.packets_created
        };
        if !conserved {
            out.failures.push(format!(
                "{label}: message/packet conservation broken: {c:?}"
            ));
        }
        out.des.add(c);
    }
    out
}

fn cell_label(victim: AppKind, other: Option<AppKind>) -> String {
    match other {
        None => format!("solo:{}", victim.name()),
        Some(o) => format!("corun:{}|{}", victim.name(), o.name()),
    }
}

/// One flow study's outputs and the raw answers the accuracy metrics
/// compare against DES values.
#[derive(Debug, Default)]
pub struct FlowStudyOut {
    /// Digests of each step's outputs.
    pub outputs: Vec<Output>,
    /// Failed cells and broken invariants.
    pub failures: Vec<String>,
    /// Cells attempted.
    pub cells: u64,
    /// Mean probe latency (µs) of the idle profile.
    pub idle_mean: f64,
    /// Mean probe latency (µs) per compression label.
    pub rung_means: BTreeMap<String, f64>,
    /// Slowdown (%) per co-run label.
    pub slowdowns: BTreeMap<String, f64>,
}

/// The paper study on `backend` at `seed`: calibration, the 40-config
/// look-up table with solo runtimes, six app profiles, all 36 co-run
/// runtimes, the four models' predictions and their error summaries.
pub fn flow_study(seed: u64, backend: &dyn Backend, tracer: Option<&Tracer>) -> FlowStudyOut {
    let mut out = FlowStudyOut::default();
    let cfg = &ExperimentConfig::cab().with_seed(seed).with_jobs(1);
    let sup = Supervisor::none();
    let par = Parallelism::fixed(1);
    let apps = AppKind::ALL;
    let push = |out: &mut FlowStudyOut, label: &str, parts: Vec<String>| {
        out.outputs.push((label.to_owned(), digest(&parts)));
    };

    out.cells += 1;
    let calibration = {
        let _s = trace::span(tracer, names::CALIBRATE);
        calibrate_with(backend, cfg, MuPolicy::MinLatency)
    };
    let calibration = match calibration {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("calibration: {e}"));
            return out;
        }
    };
    out.idle_mean = calibration.idle_mean;
    push(
        &mut out,
        "calibration",
        vec![calibration_value(&calibration)],
    );

    let sweep = CompressionConfig::paper_sweep();
    let lut = {
        let _s = trace::span(tracer, names::SUPERVISE);
        LookupTable::measure_supervised_with(
            backend,
            cfg,
            calibration,
            &apps,
            &sweep,
            &sup,
            None,
            |_| {},
        )
    };
    let lut = match lut {
        Ok((lut, _)) => lut,
        Err(e) => {
            out.failures.push(format!("lookup table: {e}"));
            return out;
        }
    };
    out.cells += lut.total as u64;
    out.failures
        .extend(lut.failures.iter().map(|e| e.to_string()));
    let Some(table) = lut.table else {
        out.failures.push("lookup table: no entries".to_owned());
        return out;
    };
    let mut parts = Vec::new();
    for e in &table.entries {
        out.rung_means.insert(e.config.label(), e.profile.mean());
        parts.push(e.config.label());
        parts.push(e.profile.encode_journal());
        parts.push(bits(e.utilization));
        parts.extend(
            e.slowdown
                .iter()
                .map(|(a, d)| format!("{}={}", a.name(), bits(*d))),
        );
    }
    parts.extend(
        table
            .solo
            .iter()
            .map(|(a, t)| format!("{}={}", a.name(), t.as_nanos())),
    );
    push(&mut out, "lut", parts);

    let profiles = {
        let _s = trace::span(tracer, names::SUPERVISE);
        Study::measure_profiles_supervised_with(backend, cfg, table, &apps, &sup, None, |_| {})
    };
    let study = match profiles {
        Ok((study, failures, _)) => {
            out.failures.extend(failures.iter().map(|e| e.to_string()));
            study
        }
        Err(e) => {
            out.failures.push(format!("app profiles: {e}"));
            return out;
        }
    };
    out.cells += apps.len() as u64;
    let parts = study
        .app_profiles
        .iter()
        .map(|(a, p)| format!("{}={}", a.name(), p.encode_journal()))
        .collect();
    push(&mut out, "profiles", parts);

    let pairs: Vec<(AppKind, AppKind)> = apps
        .iter()
        .flat_map(|&v| apps.iter().map(move |&o| (v, o)))
        .collect();
    let tasks: Vec<(String, _)> = pairs
        .iter()
        .map(|&(v, o)| {
            (cell_label(v, Some(o)), move || {
                backend.measure_corun_runtime(cfg, v, o)
            })
        })
        .collect();
    let coruns = {
        let _s = trace::span(tracer, names::SUPERVISE);
        let fp = config_fingerprint(cfg, backend.name());
        sweep_supervised_for("flow-coruns", backend.name(), par, &sup, None, fp, tasks)
    };
    let coruns = match coruns {
        Ok((r, _)) => r,
        Err(e) => {
            out.failures.push(format!("co-runs: {e}"));
            return out;
        }
    };
    out.cells += coruns.len() as u64;

    let mut outcomes = {
        let _s = trace::span(tracer, names::PREDICT);
        study.predict_all(&apps, &all_models())
    };
    let mut parts = Vec::new();
    for (o, r) in outcomes.iter_mut().zip(&coruns) {
        let label = cell_label(o.victim, Some(o.other));
        match (r, study.table.solo.get(&o.victim)) {
            (Ok(t), Some(&solo)) => {
                let d = degradation_percent(solo, *t);
                o.measured = Some(d);
                out.slowdowns.insert(label.clone(), d);
                parts.push(format!("{label}={}", t.as_nanos()));
            }
            (Err(e), _) => out.failures.push(e.to_string()),
            (Ok(_), None) => out.failures.push(format!("{label}: no solo baseline")),
        }
        if o.predicted.len() != ModelKind::ALL.len() || o.predicted.values().any(|p| !p.is_finite())
        {
            out.failures
                .push(format!("{label}: predictions {:?}", o.predicted));
        }
    }
    push(&mut out, "coruns", parts);
    let parts = outcomes
        .iter()
        .flat_map(|o| {
            o.predicted
                .iter()
                .map(|(m, p)| format!("{}={}", m.name(), bits(*p)))
        })
        .collect();
    push(&mut out, "predictions", parts);

    let summaries = {
        let _s = trace::span(tracer, names::PREDICT);
        error_summaries(&outcomes, &ModelKind::ALL)
    };
    match summaries {
        Ok(s) if s.len() == ModelKind::ALL.len() => {
            let parts = s
                .iter()
                .map(|(m, q)| {
                    let qs = [q.min, q.q1, q.median, q.q3, q.max].map(bits).join(",");
                    format!("{}={qs}", m.name())
                })
                .collect();
            push(&mut out, "summaries", parts);
        }
        Ok(s) => out
            .failures
            .push(format!("error summaries cover {} models", s.len())),
        Err(e) => out.failures.push(format!("error summaries: {e}")),
    }
    out
}

/// The anchor: a few cells of `workload` at the default seed, whose
/// outputs must equal the golden ones at any workload seed.
pub fn anchor(workload: Workload, dir: &Path) -> PassOut {
    let mut out = PassOut::default();
    let setup = match setup(workload, DEFAULT_SEED, dir, None) {
        Ok(s) => s,
        Err(e) => {
            out.failures.push(e);
            return out;
        }
    };
    out.cells += 1;
    out.outputs.extend(setup.outputs.iter().cloned());
    let cfg = &setup.cfg;
    match workload {
        Workload::LadderBulk => {
            let comp = CompressionConfig::new(14, 25_000_000, 1);
            out.cells += 1;
            match des::impact(cfg, Some(&comp), None) {
                Ok((p, _)) => {
                    let label = comp.label();
                    out.push(format!("impact:{label}"), digest(&[p.encode_journal()]));
                    out.push(format!("mean:{label}"), bits(p.mean()));
                    out.push(
                        format!("util:{label}"),
                        bits(setup.calibration.utilization(&p)),
                    );
                }
                Err(e) => out.failures.push(e.to_string()),
            }
        }
        Workload::AppsCorun => {
            for (victim, other) in [
                (AppKind::Mcb, None),
                (AppKind::Lulesh, None),
                (AppKind::Mcb, Some(AppKind::Amg)),
            ] {
                out.cells += 1;
                match des::runtime(cfg, victim, other, None) {
                    Ok((t, _)) => out.push(cell_label(victim, other), t.as_nanos().to_string()),
                    Err(e) => out.failures.push(e.to_string()),
                }
            }
        }
        Workload::FlowStudy => {
            let study = flow_study(DEFAULT_SEED, &FlowBackend, None);
            out.cells += study.cells;
            out.outputs.extend(study.outputs);
            out.failures.extend(study.failures);
        }
    }
    out
}

/// The outputs stored in the golden file for `workload`: set-up plus one
/// full pass at the default seed (for the flow study, the anchor study).
pub fn golden_outputs(workload: Workload, dir: &Path) -> Result<Vec<Output>, String> {
    let setup = setup(workload, DEFAULT_SEED, dir, None)?;
    let mut outputs = setup.outputs.clone();
    let out = match workload {
        Workload::FlowStudy => anchor(workload, dir),
        _ => pass(&setup, 0, None),
    };
    if let Some(f) = out.failures.first() {
        return Err(format!("{}: {f}", workload.name()));
    }
    for o in out.outputs {
        if !outputs.contains(&o) {
            outputs.push(o);
        }
    }
    Ok(outputs)
}
