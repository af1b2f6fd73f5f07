//! Criterion benchmarks of the statistics and model kernels: histogram
//! construction, the PDFLT overlap integral, quantiles, the P-K inversion,
//! full model prediction against a realistic look-up table, and the flow
//! backend's traffic extraction for the collective-heavy app proxies.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use anp_core::{all_models, Calibration, LatencyProfile, MuPolicy};
use anp_metrics::{linear_fit, quantile, Histogram, OnlineStats};

fn synthetic_samples(n: usize, shift: f64) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + shift + ((i * 2_654_435_761) % 1000) as f64 / 400.0)
        .collect()
}

fn bench_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    let samples = synthetic_samples(100_000, 0.0);
    g.throughput(Throughput::Elements(samples.len() as u64));
    g.bench_function("histogram_fill_100k", |b| {
        b.iter(|| {
            let mut h = Histogram::latency_us();
            h.extend(samples.iter().copied());
            h.total()
        });
    });
    g.bench_function("welford_100k", |b| {
        b.iter(|| OnlineStats::from_slice(&samples).variance());
    });

    let ha = Histogram::of(&synthetic_samples(10_000, 0.0), 0.0, 10.0, 20);
    let hb = Histogram::of(&synthetic_samples(10_000, 0.8), 0.0, 10.0, 20);
    g.bench_function("pdf_product_integral", |b| {
        b.iter(|| ha.pdf_product_integral(&hb));
    });

    let small = synthetic_samples(10_000, 0.0);
    g.bench_function("quantile_10k", |b| {
        b.iter(|| quantile(&small, 0.75).unwrap());
    });

    let xs: Vec<f64> = (0..1_000).map(f64::from).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 3.0).collect();
    g.bench_function("linear_fit_1k", |b| {
        b.iter(|| linear_fit(&xs, &ys).unwrap().slope);
    });
    g.finish();
}

fn bench_queue_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_model");
    let calib = Calibration {
        mu: 0.83,
        var_s: 0.12,
        idle_mean: 1.28,
        policy: MuPolicy::MinLatency,
    };
    g.bench_function("pk_inversion", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..1_000 {
                acc += calib.utilization_from_sojourn(1.0 + i as f64 * 0.01);
            }
            acc
        });
    });
    g.bench_function("profile_build_2k", |b| {
        let samples = synthetic_samples(2_000, 0.5);
        b.iter(|| LatencyProfile::from_samples(&samples).mean());
    });
    g.finish();
}

fn bench_model_prediction(c: &mut Criterion) {
    use anp_core::{CompressionEntry, LookupTable};
    use anp_workloads::{AppKind, CompressionConfig};
    use std::collections::BTreeMap;

    let calib = Calibration {
        mu: 0.83,
        var_s: 0.12,
        idle_mean: 1.28,
        policy: MuPolicy::MinLatency,
    };
    // A 40-entry table like the real study's.
    let entries: Vec<CompressionEntry> = (0..40)
        .map(|i| {
            let profile = LatencyProfile::from_samples(&synthetic_samples(2_000, i as f64 * 0.2));
            let utilization = calib.utilization(&profile);
            let slowdown: BTreeMap<AppKind, f64> = AppKind::ALL
                .iter()
                .map(|&a| (a, utilization * 100.0 * (a as usize + 1) as f64 / 6.0))
                .collect();
            CompressionEntry {
                config: CompressionConfig::new(1, 25_000 * (i + 1), 1),
                profile,
                utilization,
                slowdown,
            }
        })
        .collect();
    let solo = AppKind::ALL
        .iter()
        .map(|&a| (a, anp_simnet::SimDuration::from_millis(100)))
        .collect();
    let table = LookupTable::from_parts(calib, entries, solo);
    let probe = LatencyProfile::from_samples(&synthetic_samples(2_000, 1.7));

    let mut g = c.benchmark_group("models");
    for model in all_models() {
        g.bench_function(format!("predict_{}", model.name()), |b| {
            b.iter_batched(
                || (),
                |()| model.predict(&table, AppKind::Fftw, &probe),
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_flow_describe(c: &mut Criterion) {
    use anp_core::experiments::ExperimentConfig;
    use anp_workloads::{AppKind, RunMode};

    let cfg = ExperimentConfig::cab();
    let mut g = c.benchmark_group("flowsim");
    for app in [AppKind::Fftw, AppKind::Milc, AppKind::Amg] {
        // The flow backend's own build: default iterations, derived seed.
        let seed = cfg.workload_seed(app as u64 + 1);
        g.bench_function(format!("describe_{}", app.name().to_lowercase()), |b| {
            b.iter_batched(
                || app.build(RunMode::Iterations(0), seed),
                |members| anp_flowsim::describe_members(app.name(), members, &cfg.switch),
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_metrics,
    bench_queue_model,
    bench_model_prediction,
    bench_flow_describe
);
criterion_main!(benches);
