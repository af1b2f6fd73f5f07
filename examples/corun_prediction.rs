//! Co-run prediction: the paper's headline use-case end to end.
//!
//! Predict how two applications will degrade each other *before ever
//! running them together*, using only measurements taken on each in
//! isolation (§V) — then verify against a real co-run.
//!
//! This uses a reduced CompressionB sweep so it finishes in about a
//! minute; the `fig8_prediction_errors` harness runs the full study.
//!
//! ```text
//! cargo run --release --example corun_prediction
//! ```

use active_netprobe::core::{
    all_models, calibrate, DesBackend, ExperimentConfig, LookupTable, MuPolicy, Study, Supervisor,
};
use active_netprobe::workloads::{AppKind, CompressionConfig};

fn main() {
    let cfg = ExperimentConfig::cab();
    let apps = [AppKind::Fftw, AppKind::Milc];

    // Isolated measurements: idle calibration, a small compression table,
    // and each application's impact profile. Cost grows linearly with the
    // number of applications — the quadratic pairing space comes free.
    println!("[1/3] measuring look-up table (linear in apps and configs)...");
    let calib = calibrate(&cfg, MuPolicy::MinLatency).expect("calibration");
    let sweep: Vec<CompressionConfig> = CompressionConfig::paper_sweep()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == (i / 5) % 5)
        .map(|(_, c)| c)
        .collect();
    // Every sweep runs without supervision limits or a journal; a missing
    // cell ends the example.
    let none = Supervisor::none();
    let (lut, _) = LookupTable::measure_supervised_with(
        &DesBackend,
        &cfg,
        calib,
        &apps,
        &sweep,
        &none,
        None,
        |_| {},
    )
    .expect("table measurement");
    assert!(lut.is_complete(), "table holes: {:?}", lut.failures);
    let table = lut.table.expect("complete table");
    println!(
        "      table covers {:.0}%..{:.0}% switch utilization",
        table.utilization_range().0 * 100.0,
        table.utilization_range().1 * 100.0
    );

    println!("[2/3] measuring each app's impact profile...");
    let (study, holes, _) = Study::measure_profiles_supervised_with(
        &DesBackend,
        &cfg,
        table,
        &apps,
        &none,
        None,
        |_| {},
    )
    .expect("profiles");
    assert!(holes.is_empty(), "profile holes: {holes:?}");

    // Predict both directions of the pairing with all four models.
    println!("[3/3] predicting FFTW <-> MILC, then verifying with a co-run...\n");
    let models = all_models();
    let mut outcomes = [
        study.predict_pair(AppKind::Fftw, AppKind::Milc, &models),
        study.predict_pair(AppKind::Milc, AppKind::Fftw, &models),
    ];
    let (holes, _) = study
        .measure_pairs_supervised_with(&DesBackend, &cfg, &mut outcomes, &none, None, |_| {})
        .expect("co-run ground truth");
    assert!(holes.is_empty(), "co-run holes: {holes:?}");
    for outcome in &outcomes {
        println!(
            "{} co-run with {}: measured {:+.1}%",
            outcome.victim.name(),
            outcome.other.name(),
            outcome.measured.unwrap()
        );
        for (&model, prediction) in &outcome.predicted {
            println!(
                "    {:<15} predicts {:+6.1}%  (|err| {:.1})",
                model.name(),
                prediction,
                outcome.abs_error(model).unwrap()
            );
        }
        println!();
    }
}
