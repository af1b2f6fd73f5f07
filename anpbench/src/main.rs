//! The anp benchmark.
//!
//! ```text
//! anpbench --workload <ladder_bulk|apps_corun|flow_study> [--seed N]
//!          [--seconds S] [--trace 0|1] [--out DIR]
//! anpbench --write-golden PATH
//! ```
//!
//! With `--trace 0` it runs passes over the workload's cells for about
//! `--seconds`, setting the workload up three times before each pass, and
//! reports the median pass time, the median set-up time and the peak RSS.
//! With `--trace 1` it alternates untraced and traced set-up + pass units
//! for about `--seconds`, runs the network-only phase and reports
//! per-layer metrics from the traced units (medians) and the spans it
//! recorded. Either way it checks every simulated output (golden values,
//! invariants, pass-to-pass equality) and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod des;
mod golden;
mod netphase;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use golden::{Golden, Output};
use trace::{names, Span, Tracer};
use workloads::{PassOut, Setup, Workload, DEFAULT_SEED};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit. `sim_ns` is simulated
/// time; `s` and `ns` are host time.
const PER_LAYER: [(&str, &str); 39] = [
    ("simnet.packets", "count"),
    ("simnet.messages", "count"),
    ("simnet.packets_per_message", "pkt/msg"),
    ("simnet.local_messages", "count"),
    ("simnet.backpressure_stalls", "count"),
    ("simnet.central.utilization", "frac"),
    ("simnet.central.mean_wait_ns", "sim_ns"),
    ("simnet.central.max_queue_len", "count"),
    ("simnet.event.pop_ns", "ns"),
    ("simnet.fabric.handle_ns", "ns"),
    ("simnet.fabric.ns_per_packet", "ns"),
    ("simmpi.events", "count"),
    ("simmpi.events_per_packet", "ev/pkt"),
    ("simmpi.ops", "count"),
    ("simmpi.run_s", "s"),
    ("simmpi.self_s", "s"),
    ("simmpi.ns_per_event", "ns"),
    ("simmpi.ns_per_packet", "ns"),
    ("workloads.build_s", "s"),
    ("workloads.program.calls", "count"),
    ("workloads.program.next_op_s", "s"),
    ("core.queue.calibrate_s", "s"),
    ("core.samples.profile_s", "s"),
    ("core.models.predict_s", "s"),
    ("core.supervise.overhead_s", "s"),
    ("core.journal.cells", "count"),
    ("core.journal.bytes", "B"),
    ("core.journal.resume_s", "s"),
    ("core.cells", "count"),
    ("core.cells_failed", "count"),
    ("flowsim.calls", "count"),
    ("flowsim.memo_misses", "count"),
    ("flowsim.describe_s", "s"),
    ("flowsim.solve_s", "s"),
    ("flowsim.probe_err_pct", "%"),
    ("flowsim.slowdown_err_pct", "pp"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.units", "count"),
];

/// Set-ups before each pass of a `--trace 0` run; the median of all of
/// them is `setup_s`. Interleaving them with the passes makes `setup_s`
/// sample the same stretch of machine time as `wall_s`.
const SETUPS_PER_PASS: usize = 3;

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

enum Command {
    Run(Options),
    WriteGolden(PathBuf),
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from(".anpbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = parse_seed(v).ok_or_else(|| format!("bad seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{v}'"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (0 or 1)")),
                };
            }
            "--out" => out = PathBuf::from(value()?),
            "--write-golden" => return Ok(Command::WriteGolden(PathBuf::from(value()?))),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Options {
        workload,
        seed,
        seconds,
        trace,
        out,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::WriteGolden(path)) => write_golden(&path),
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_golden(path: &Path) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("anpbench-golden-{}", std::process::id()));
    let mut outputs = Vec::new();
    for w in Workload::ALL {
        outputs.push((w.name(), workloads::golden_outputs(w, &dir)?));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let header = format!(
        "# Exact simulated outputs of every workload at the default workload\n\
         # seed {DEFAULT_SEED:#x}, written by `anpbench --write-golden`.\n\
         # <workload> <label> <value>; values are ns, f64 bit patterns (hex) or\n\
         # FNV-1a digests of bit-exact encodings.\n"
    );
    std::fs::write(path, Golden::render(&header, &outputs))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Everything a run accumulates for its result line.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
    seen: BTreeMap<String, String>,
}

impl Ledger {
    /// Records a pass (or set-up) result; an output whose label was seen
    /// before with another value is a failure: passes over the same
    /// inputs, traced or not, must agree exactly.
    fn absorb(&mut self, cells: u64, outputs: &[Output], failures: &[String]) {
        self.attempted += cells;
        self.failures.extend(failures.iter().cloned());
        for (label, value) in outputs {
            match self.seen.get(label) {
                Some(v) if v != value => self.failures.push(format!(
                    "{label}: {value} differs from an earlier pass's {v}"
                )),
                Some(_) => {}
                None => {
                    self.seen.insert(label.clone(), value.clone());
                }
            }
        }
    }

    fn absorb_pass(&mut self, out: &PassOut) {
        self.absorb(out.cells, &out.outputs, &out.failures);
    }

    fn absorb_setup(&mut self, setup: &Setup) {
        self.absorb(1, &setup.outputs, &[]);
    }

    /// `(attempted, failed)` for the result line: every failure counts
    /// against at least one attempted cell.
    fn totals(&self) -> (u64, u64) {
        let failed = self.failures.len() as u64;
        (self.attempted.max(failed).max(1), failed)
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(opts: &Options) -> Result<(), String> {
    let golden = Golden::parse(golden::GOLDEN_TXT)?;
    let mut ledger = Ledger::default();
    let w = opts.workload;
    let metrics = if opts.trace {
        traced_run(opts, &golden, &mut ledger)?
    } else {
        untraced_run(opts, &mut ledger)?
    };

    // The anchor: a few cells at the default seed against golden values,
    // so every run checks exact outputs whatever its seed.
    let anchor = workloads::anchor(w, &opts.out);
    ledger.attempted += anchor.cells;
    ledger.failures.extend(anchor.failures.iter().cloned());
    ledger
        .failures
        .extend(golden.check(w.name(), &anchor.outputs));
    if opts.seed == DEFAULT_SEED {
        // Every golden output must have been produced and match.
        let produced: Vec<Output> = ledger
            .seen
            .iter()
            .chain(anchor.outputs.iter().map(|(l, v)| (l, v)))
            .filter(|(l, _)| golden.value(w.name(), l).is_some())
            .map(|(l, v)| (l.clone(), v.clone()))
            .collect();
        ledger.failures.extend(golden.check(w.name(), &produced));
        for label in golden.labels(w.name()) {
            if !produced.iter().any(|(l, _)| l == label) {
                ledger
                    .failures
                    .push(format!("{label}: golden output not produced"));
            }
        }
    }

    for f in &ledger.failures {
        eprintln!("FAILED: {f}");
    }
    let (attempted, failed) = ledger.totals();
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(())
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn with_units(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Metrics {
    table
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn untraced_run(opts: &Options, ledger: &mut Ledger) -> Result<Metrics, String> {
    let start = Instant::now();
    let (mut setup_s, mut walls) = (Vec::new(), Vec::new());
    for index in 0.. {
        let mut setup = None;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let s = workloads::setup(opts.workload, opts.seed, &opts.out, None)?;
            setup_s.push(t.elapsed().as_secs_f64());
            ledger.absorb_setup(&s);
            setup = Some(s);
        }
        let setup = setup.expect("SETUPS_PER_PASS > 0");
        let t = Instant::now();
        let out = workloads::pass(&setup, index, None);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        ledger.absorb_pass(&out);
        if start.elapsed().as_secs_f64() + wall / 2.0 >= opts.seconds {
            break;
        }
    }
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": 0, \"setup_s\": {setup_s:?}, \"pass_s\": {walls:?}}}}}",
        opts.workload.name(),
        opts.seed,
    );
    let values = BTreeMap::from([
        ("wall_s", median(&walls)),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    Ok(with_units(&END_TO_END, &values))
}

/// Per-layer values of one traced set-up + pass unit, from the spans it
/// recorded (`spans[first..]`) and the counters its cells returned.
fn unit_layers(
    spans: &[Span],
    first: usize,
    setup: &Setup,
    out: &PassOut,
) -> BTreeMap<&'static str, f64> {
    let selfs = trace::self_times(spans);
    let unit = || spans.iter().enumerate().skip(first);
    let secs = |name: &str| {
        unit()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| s.dur_ns())
            .sum::<u64>() as f64
            / 1e9
    };
    let count = |name: &str| unit().filter(|(_, s)| s.name == name).count() as f64;
    let self_secs = |name: &str| {
        unit()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| selfs[i])
            .sum::<u64>() as f64
            / 1e9
    };
    let mut des = setup.des;
    des.add(&out.des);
    let packets = des.packets_created as f64;
    let run_s = secs(names::RUN);
    let next_op_s = secs(names::NEXT_OP);
    let roots = secs(names::SETUP) + secs(names::PASS);
    let root_self = self_secs(names::SETUP) + self_secs(names::PASS);
    BTreeMap::from([
        ("simnet.packets", packets),
        ("simnet.messages", des.messages_sent as f64),
        (
            "simnet.packets_per_message",
            ratio(packets, (des.messages_sent - des.local_messages) as f64),
        ),
        ("simnet.local_messages", des.local_messages as f64),
        ("simnet.backpressure_stalls", des.backpressure_stalls as f64),
        (
            "simnet.central.utilization",
            ratio(des.central_busy_ns as f64, des.central_capacity_ns as f64),
        ),
        (
            "simnet.central.mean_wait_ns",
            ratio(des.central_wait_ns as f64, des.central_served as f64),
        ),
        (
            "simnet.central.max_queue_len",
            des.central_max_queue_len as f64,
        ),
        ("simmpi.events", des.events as f64),
        (
            "simmpi.events_per_packet",
            ratio(des.events as f64, packets),
        ),
        ("simmpi.ops", des.ops as f64),
        ("simmpi.run_s", run_s),
        ("simmpi.self_s", run_s - next_op_s),
        ("simmpi.ns_per_event", ratio(run_s * 1e9, des.events as f64)),
        ("simmpi.ns_per_packet", ratio(run_s * 1e9, packets)),
        ("workloads.build_s", secs(names::BUILD)),
        (
            "workloads.program.calls",
            unit()
                .filter(|(_, s)| s.name == names::NEXT_OP)
                .map(|(_, s)| s.calls)
                .sum::<u64>() as f64,
        ),
        ("workloads.program.next_op_s", next_op_s),
        ("core.queue.calibrate_s", secs(names::CALIBRATE)),
        ("core.samples.profile_s", secs(names::PROFILE)),
        ("core.models.predict_s", secs(names::PREDICT)),
        ("core.supervise.overhead_s", self_secs(names::SUPERVISE)),
        ("core.journal.cells", out.journal_cells as f64),
        ("core.journal.bytes", out.journal_bytes as f64),
        ("core.journal.resume_s", secs(names::RESUME)),
        ("core.cells", out.cells as f64),
        ("core.cells_failed", out.failures.len() as f64),
        (
            "flowsim.calls",
            count(names::DESCRIBE) + count(names::SOLVE),
        ),
        ("flowsim.memo_misses", count(names::DESCRIBE)),
        ("flowsim.describe_s", secs(names::DESCRIBE)),
        ("flowsim.solve_s", secs(names::SOLVE)),
        ("trace.unattributed_pct", ratio(root_self * 100.0, roots)),
    ])
}

/// Flow answers at the default seed against the DES values stored as
/// golden data: mean relative error of probe means (idle and the eight
/// ladder rungs, %) and mean absolute error of the slowdowns of the
/// co-runs `apps_corun` measures (percentage points).
fn flow_accuracy(golden: &Golden, flow: &workloads::FlowStudyOut) -> Result<(f64, f64), String> {
    let g = |w: &str, label: &str| {
        golden
            .value(w, label)
            .ok_or_else(|| format!("golden {w} {label} missing"))
    };
    let des_f64 = |w: &str, label: &str| {
        g(w, label).and_then(|v| {
            workloads::from_bits(v).ok_or_else(|| format!("golden {label}: bad value"))
        })
    };
    let des_ns = |label: &str| {
        g("apps_corun", label).and_then(|v| {
            v.parse::<u64>()
                .map(anp_simnet::SimDuration::from_nanos)
                .map_err(|e| format!("golden {label}: {e}"))
        })
    };
    let idle = des_f64("apps_corun", "setup:idle-mean")?;
    let mut probe = vec![(flow.idle_mean - idle).abs() / idle];
    for comp in workloads::ladder() {
        let label = comp.label();
        let des = des_f64("ladder_bulk", &format!("mean:{label}"))?;
        let f = flow
            .rung_means
            .get(&label)
            .ok_or(format!("flow has no rung {label}"))?;
        probe.push((f - des).abs() / des);
    }
    let mut slow = Vec::new();
    for (label, f) in &flow.slowdowns {
        let Some((victim, _)) = label.strip_prefix("corun:").and_then(|p| p.split_once('|')) else {
            continue;
        };
        let (Ok(solo), Ok(corun)) = (des_ns(&format!("solo:{victim}")), des_ns(label)) else {
            continue;
        };
        slow.push((f - anp_core::degradation_percent(solo, corun)).abs());
    }
    if slow.is_empty() {
        return Err("no co-run has DES golden data".to_owned());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Ok((mean(&probe) * 100.0, mean(&slow)))
}

fn traced_run(opts: &Options, golden: &Golden, ledger: &mut Ledger) -> Result<Metrics, String> {
    let tracer = Tracer::default();
    let start = Instant::now();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut units: Vec<BTreeMap<&str, f64>> = Vec::new();
    let mut traced_indices = Vec::new();
    let mut setup = None;
    for index in (0..).step_by(2) {
        let s = workloads::setup(opts.workload, opts.seed, &opts.out, None)?;
        let t = Instant::now();
        let out = workloads::pass(&s, index, None);
        untraced_walls.push(t.elapsed().as_secs_f64());
        ledger.absorb_setup(&s);
        ledger.absorb_pass(&out);

        let first = tracer.len();
        let s = workloads::setup(opts.workload, opts.seed, &opts.out, Some(&tracer))?;
        let t = Instant::now();
        let out = workloads::pass(&s, index + 1, Some(&tracer));
        traced_walls.push(t.elapsed().as_secs_f64());
        units.push(unit_layers(&tracer.spans(), first, &s, &out));
        traced_indices.push(index + 1);
        ledger.absorb_setup(&s);
        ledger.absorb_pass(&out);
        setup = Some(s);
        let unit = untraced_walls.last().copied().unwrap_or(0.0)
            + traced_walls.last().copied().unwrap_or(0.0);
        if start.elapsed().as_secs_f64() + unit / 2.0 >= opts.seconds {
            break;
        }
    }
    let setup = setup.expect("at least one unit");
    if opts.workload == Workload::FlowStudy {
        // Traced flow passes ran on seeds of their own: recompute them
        // untraced so the ledger compares the two.
        for &index in &traced_indices {
            ledger.absorb_pass(&workloads::pass(&setup, index, None));
        }
    }

    let net = netphase::run(opts.seed);
    ledger.attempted += 1;
    if !net.conserved {
        ledger
            .failures
            .push("network-only phase: messages or packets lost".to_owned());
    }
    let flow = workloads::flow_study(DEFAULT_SEED, &anp_flowsim::FlowBackend, None);
    ledger.attempted += flow.cells;
    ledger.failures.extend(flow.failures.iter().cloned());
    ledger
        .failures
        .extend(golden.check("flow_study", &flow.outputs));
    let (probe_err, slowdown_err) = flow_accuracy(golden, &flow)?;

    let spans = tracer.spans();
    ledger.attempted += 1;
    if let Err(e) = trace::check_nesting(&spans) {
        ledger.failures.push(e);
    }
    let path = opts.out.join(format!(
        "spans-{}-{:016x}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": 1, \"units\": {}, \"spans\": {}, \"spans_file\": \"{}\"}}}}",
        opts.workload.name(),
        opts.seed,
        units.len(),
        spans.len(),
        path.display()
    );

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, _) in PER_LAYER.iter() {
        let per_unit: Vec<f64> = units.iter().filter_map(|u| u.get(name).copied()).collect();
        if !per_unit.is_empty() {
            values.insert(name, median(&per_unit));
        }
    }
    values.insert("simnet.event.pop_ns", net.pop_ns);
    values.insert("simnet.fabric.handle_ns", net.handle_ns);
    values.insert("simnet.fabric.ns_per_packet", net.ns_per_packet);
    values.insert("flowsim.probe_err_pct", probe_err);
    values.insert("flowsim.slowdown_err_pct", slowdown_err);
    values.insert(
        "trace.overhead_pct",
        (ratio(median(&traced_walls), median(&untraced_walls)) - 1.0) * 100.0,
    );
    values.insert("trace.units", units.len() as f64);
    Ok(with_units(&PER_LAYER, &values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_golden_value_fails_the_anchor() {
        let dir = std::env::temp_dir().join(format!("anpbench-test-{}", std::process::id()));
        let anchor = workloads::anchor(Workload::LadderBulk, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(anchor.failures.is_empty(), "{:?}", anchor.failures);
        let golden = Golden::parse(golden::GOLDEN_TXT).expect("golden parses");
        assert!(golden.check("ladder_bulk", &anchor.outputs).is_empty());

        // Flip one digit of one golden value.
        let (label, value) = &anchor.outputs[anchor.outputs.len() - 1];
        let flipped: String = value
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    if c == '0' {
                        '1'
                    } else {
                        '0'
                    }
                } else {
                    c
                }
            })
            .collect();
        let line = format!("ladder_bulk {label} {value}");
        let perturbed =
            golden::GOLDEN_TXT.replace(&line, &format!("ladder_bulk {label} {flipped}"));
        assert_ne!(perturbed, golden::GOLDEN_TXT, "golden has '{line}'");
        let perturbed = Golden::parse(&perturbed).expect("perturbed golden parses");
        let mut ledger = Ledger::default();
        ledger.absorb_pass(&anchor);
        ledger
            .failures
            .extend(perturbed.check("ladder_bulk", &anchor.outputs));
        let (attempted, failed) = ledger.totals();
        assert_eq!(failed, 1);
        assert!(failed as f64 / attempted as f64 > 0.0);
    }

    #[test]
    fn passes_that_disagree_are_failures() {
        let mut ledger = Ledger::default();
        let out = |v: &str| vec![("solo:X".to_owned(), v.to_owned())];
        ledger.absorb(1, &out("1"), &[]);
        ledger.absorb(1, &out("1"), &[]);
        assert!(ledger.failures.is_empty());
        ledger.absorb(1, &out("2"), &[]);
        assert_eq!((ledger.attempted, ledger.failures.len()), (3, 1));
    }

    #[test]
    fn metric_tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        match parse_args(&args(
            "--workload flow_study --seed 0x10 --seconds 2 --trace 1",
        )) {
            Ok(Command::Run(o)) => {
                assert_eq!(
                    (o.workload, o.seed, o.seconds, o.trace),
                    (Workload::FlowStudy, 16, 2.0, true)
                );
            }
            _ => panic!("valid arguments rejected"),
        }
        for bad in [
            "",
            "--workload nope",
            "--workload flow_study --trace 2",
            "--seconds -1 --workload ladder_bulk",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
