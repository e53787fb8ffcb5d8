//! The `sim-schemes` workload: `pkg-sim` plays the WP profile through
//! W = 50 workers and S = 5 sources, serially in one thread, under six
//! scheme configurations. No engine is involved: pkg-core, pkg-hash,
//! pkg-datagen and pkg-metrics do all the work.

use std::sync::Arc;
use std::time::Instant;

use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::{DatasetProfile, SpeedDrift, StreamSpec};
use pkg_metrics::LoadMetricKind;
use pkg_sim::{ServiceProfile, SimConfig, SimReport};

use crate::trace::{Name, Tracer, NO_PARENT};

/// Downstream workers.
pub const WORKERS: usize = 50;
/// Source PEIs.
pub const SOURCES: usize = 5;
/// Nominal service time behind the adaptive scheme's latency signal, ns.
const BASE_SERVICE_NS: u64 = 50_000;

/// The six measured configurations, by metric suffix.
pub const SCHEMES: [&str; 6] =
    ["kg", "pkg_local", "pkg_global", "dchoices", "wchoices", "pkg_adaptive"];

/// The WP profile scaled by `scale` (1.0 = the crate's default 5M
/// messages over 660k keys; messages and keys scale together).
pub fn profile(scale: f64) -> DatasetProfile {
    DatasetProfile::wikipedia().scale(scale)
}

/// The configuration of scheme `name` on the stream `spec` iterated with
/// `seed`. The hash seed stays `SimConfig::new`'s default, so only the
/// stream varies with the benchmark seed.
///
/// `pkg_adaptive` is PKG minimizing the Peak-EWMA latency signal with the
/// online capacity estimator, while worker 0 drops to quarter speed halfway
/// through the stream.
pub fn config(name: &str, spec: &StreamSpec, seed: u64) -> SimConfig {
    let scheme = match name {
        "kg" => SchemeSpec::KeyGrouping,
        "pkg_local" | "pkg_adaptive" => SchemeSpec::pkg(EstimateKind::Local),
        "pkg_global" => SchemeSpec::pkg(EstimateKind::Global),
        "dchoices" => SchemeSpec::d_choices(EstimateKind::Local),
        "wchoices" => SchemeSpec::w_choices(EstimateKind::Local),
        other => panic!("unknown scheme {other}"),
    };
    let mut cfg = SimConfig::new(WORKERS, SOURCES, scheme);
    cfg.stream_seed = seed;
    if name != "pkg_adaptive" {
        return cfg;
    }
    let mut slowed = vec![1.0; WORKERS];
    slowed[0] = 0.25;
    let drift = SpeedDrift::uniform(WORKERS).with_step(spec.duration_ms() / 2, slowed);
    cfg.with_load_metric(LoadMetricKind::peak_ewma())
        .with_estimator(2_048)
        .with_service_profile(ServiceProfile::new(BASE_SERVICE_NS, drift))
}

/// Build the stream; returns it with its build time in seconds.
pub fn build(scale: f64, seed: u64) -> (StreamSpec, f64) {
    let t0 = Instant::now();
    let spec = profile(scale).build(seed);
    (spec, t0.elapsed().as_secs_f64())
}

/// One simulation, timed (and wrapped in a root span when traced).
pub fn run(
    name: &str,
    spec: &StreamSpec,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
) -> (SimReport, f64) {
    let cfg = config(name, spec, seed);
    let span = tracer.map(|t| t.open(Name::Sim, NO_PARENT));
    let t0 = Instant::now();
    let report = pkg_sim::run(spec, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, span) {
        t.close(id);
    }
    (report, wall)
}

/// Messages lost or invented by a report: every load vector (the final
/// one and each drift phase's) must sum to the message count.
pub fn failures(spec: &StreamSpec, report: &SimReport) -> u64 {
    let total = spec.messages();
    let mut failed = report.messages.abs_diff(total);
    failed += report.worker_loads.iter().sum::<u64>().abs_diff(total);
    if let Some(drift) = &report.drift {
        let phases: u64 = drift.phases.iter().map(|p| p.loads.iter().sum::<u64>()).sum();
        failed += phases.abs_diff(total);
        failed += drift.phases.iter().map(|p| p.messages).sum::<u64>().abs_diff(total);
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_agrees_with_the_sim_report() {
        let (spec, _) = build(0.01, 3);
        for name in SCHEMES {
            let (r, _) = run(name, &spec, 3, None);
            assert_eq!(failures(&spec, &r), 0, "{name}");
            let mean = r.messages as f64 / WORKERS as f64;
            let ours = crate::stats::imbalance(&r.worker_loads) * mean;
            assert!(
                (ours - r.final_imbalance).abs() < 1e-6,
                "{name}: {ours} vs {}",
                r.final_imbalance
            );
        }
    }

    #[test]
    fn equal_seeds_give_equal_imbalance_and_other_seeds_other_streams() {
        let (spec, _) = build(0.01, 0);
        let loads = |seed| run("pkg_local", &spec, seed, None).0.worker_loads;
        assert_eq!(loads(11), loads(11));
        let keys = |seed| spec.iter(seed).take(500).map(|m| m.key).collect::<Vec<_>>();
        assert_eq!(keys(11), keys(11));
        assert_ne!(keys(11), keys(12));
    }
}
