//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wc-saturate|wc-paced|sim-schemes> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1` runs
//! the traced pass and reports the per-layer metrics. Every run checks its
//! output. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it give
//! the host fingerprint, each metric with its unit, and sample counts. The
//! exit code is 0 only when every correctness check passed. Workload
//! parameters come from this file and the arguments alone — no environment
//! variable changes what is measured. `perfbench/LAYERS.md` maps each
//! per-layer metric to the end-to-end metric it should move.

#![forbid(unsafe_code)]

mod host;
mod simschemes;
mod stats;
mod trace;
mod wordcount;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use pkg_apps::wordcount::exact_counts;
use pkg_core::{EstimateKind, SchemeSpec, SharedLoads};
use pkg_engine::tuple::audit;
use pkg_engine::Tuple;

use crate::stats::median;
use crate::trace::{now_ns, Name, Trace, Tracer, NO_PARENT};
use crate::wordcount::{Rep, Stream, WcSpec};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_msg_s", "msg/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_p999_ms", "ms"),
    ("imbalance", "ratio"),
    ("state_entries_max", "count"),
    ("setup_s", "s"),
    ("correct_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 25] = [
    ("datagen.next_ns", "ns"),
    ("datagen.topology_build_s", "s"),
    ("datagen.stream_build_s", "s"),
    ("hash.key_id_ns", "ns"),
    ("route.pkg_local_ns", "ns"),
    ("route.pkg_local_batch_ns", "ns"),
    ("sim.kg_msg_s", "msg/s"),
    ("sim.pkg_local_msg_s", "msg/s"),
    ("sim.pkg_global_msg_s", "msg/s"),
    ("sim.dchoices_msg_s", "msg/s"),
    ("sim.wchoices_msg_s", "msg/s"),
    ("sim.pkg_adaptive_msg_s", "msg/s"),
    ("engine.overhead_ns_per_tuple", "ns"),
    ("engine.activations_per_ktuple", "1/ktuple"),
    ("engine.max_depth", "count"),
    ("engine.stalled_ms", "ms"),
    ("engine.heap_keys", "count"),
    ("engine.tuple_clones", "count"),
    ("engine.msg_s_1worker", "msg/s"),
    ("agg.counter_execute_ns", "ns"),
    ("agg.counter_flush_us", "us"),
    ("agg.aggregator_execute_ns", "ns"),
    ("agg.partials_merged", "count"),
    ("load.gen_lag_max_ms", "ms"),
    ("trace.overhead_msg_s", "msg/s"),
];

/// Tuples per source in one measured `wc-saturate` run (20 sources).
const SATURATE_PER_SOURCE: u64 = 50_000;
/// Length of one measured `wc-paced` schedule, seconds.
const PACED_RUN_S: f64 = 0.75;
/// Scale of the WP profile `sim-schemes` plays (1.0 = 5M messages over
/// 660k keys).
const SIM_SCALE: f64 = 0.05;
/// Fewest measured runs per workload, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Fewest set-up samples behind `setup_s`.
const MIN_SETUPS: usize = 9;
/// The pool's default batch quantum (`pkg_engine`'s `DEFAULT_BATCH`): the
/// batch size the engine's spout path hands to `route_batch`.
const ENGINE_BATCH: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WcSaturate,
    WcPaced,
    SimSchemes,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::WcSaturate, Workload::WcPaced, Workload::SimSchemes];

    fn name(self) -> &'static str {
        match self {
            Workload::WcSaturate => "wc-saturate",
            Workload::WcPaced => "wc-paced",
            Workload::SimSchemes => "sim-schemes",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds must be in (0, 120], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(15.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Metrics and correctness tallies of one run of the benchmark.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail printed before the JSON line.
    notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Take `other`'s tallies, and those of its metrics not set here.
    fn fill_from(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.metrics {
            self.metrics.entry(k).or_insert(v);
        }
        self.notes.extend(other.notes);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.values().all(|v| v.is_finite())
    }

    /// Print the detail lines and the final JSON line for `table`.
    fn print(&self, table: &[(&'static str, &'static str)]) {
        for note in &self.notes {
            println!("{note}");
        }
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            println!("metric {name} = {value} {unit}");
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            json.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct() && table.iter().all(|(n, _)| self.metrics.contains_key(n)),
            self.attempted.max(1),
            self.failed
        );
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <wc-saturate|wc-paced|sim-schemes> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host::Fingerprint::detect().json());
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let (outcome, table) = if args.trace {
        (traced(args.workload, args.seed), &PER_LAYER[..])
    } else {
        let out = match args.workload {
            Workload::WcSaturate => measure_engine(
                &WcSpec::saturate(args.seed, host::cores(), SATURATE_PER_SOURCE),
                budget,
            ),
            Workload::WcPaced => {
                measure_engine(&WcSpec::paced(args.seed, host::cores(), PACED_RUN_S), budget)
            }
            Workload::SimSchemes => measure_sim(args.seed, budget),
        };
        (out, &END_TO_END[..])
    };
    outcome.print(table);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Nearest-rank percentile of `values` (`q` in (0, 1]).
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `name median (n=…, quartile spread …)` for the detail lines.
fn describe(name: &str, values: &[f64]) -> String {
    let spread = if values.len() >= 2 { stats::relative_spread(values) } else { 0.0 };
    format!(
        "  {name}: median {} over n={} (quartile spread {spread:.4})",
        median(values),
        values.len()
    )
}

/// End-to-end metrics of an engine workload: repeated runs of one
/// topology until the time budget is spent, each checked against the
/// exact counts, reported as medians.
fn measure_engine(spec: &WcSpec, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let exact = exact_counts(&spec.wordcount_config());
    // Warm-up (not reported): thread stacks, allocator arenas, page cache.
    let warm = WcSpec { messages_per_source: spec.messages_per_source / 8, ..spec.clone() };
    let warm_rep = wordcount::run(&warm, None);
    out.failed += wordcount::failures(&warm, &exact_counts(&warm.wordcount_config()), &warm_rep);
    out.attempted += warm.total();
    drop(warm_rep);

    let (mut tput, mut p50, mut p99, mut p999, mut imb, mut state, mut setup) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut samples = 0;
    let (mut engine_p50, mut engine_p99) = (vec![], vec![]);
    let started = Instant::now();
    while tput.len() < MIN_RUNS || started.elapsed() < budget {
        let rep = wordcount::run(spec, None);
        out.failed += wordcount::failures(spec, &exact, &rep);
        out.attempted += spec.total();
        let ([a, b, c], n) = rep.latency();
        samples += n;
        let [e50, e99, _] = rep.stats.latency_percentiles("counter");
        engine_p50.push(e50 as f64 / 1e6);
        engine_p99.push(e99 as f64 / 1e6);
        tput.push(rep.throughput());
        p50.push(a as f64 / 1e6);
        p99.push(b as f64 / 1e6);
        p999.push(c as f64 / 1e6);
        imb.push(stats::imbalance(&rep.stats.loads("counter")));
        state.push(rep.stats.max_state("counter") as f64);
        setup.push(rep.setup_s());
    }
    // Extra set-up samples (stream tables and topology, not run).
    while setup.len() < MIN_SETUPS {
        let t0 = Instant::now();
        let stream = Stream::build(spec.vocabulary, spec.p1);
        let topo = wordcount::topology(
            spec,
            &stream,
            &wordcount::Taps::default(),
            wordcount::wordcount_counter(spec),
        );
        setup.push(t0.elapsed().as_secs_f64());
        drop(topo);
    }
    out.notes.push(format!(
        "runs: {} of {} tuples ({} sources -> {} counters -> 1 aggregator), {} pool workers",
        tput.len(),
        spec.total(),
        spec.sources,
        spec.counters,
        spec.workers
    ));
    out.notes.push(if spec.rate.is_some() {
        format!(
            "latency samples: {samples} tuples over {} runs (scheduled send time -> counter execute)",
            tput.len()
        )
    } else {
        format!(
            "latency samples: {samples} tuples over {} runs (generation of every {}th tuple -> \
             counter execute); engine emission -> execute histogram, median p50/p99: {:.4}/{:.4} ms",
            tput.len(),
            wordcount::SATURATE_STAMP_EVERY,
            median(&engine_p50),
            median(&engine_p99)
        )
    });
    for (name, v) in [
        ("throughput_msg_s", &tput),
        ("latency_p99_ms", &p99),
        ("latency_p999_ms", &p999),
        ("setup_s", &setup),
    ] {
        out.notes.push(describe(name, v));
    }
    out.set("throughput_msg_s", median(&tput));
    out.set("latency_p50_ms", median(&p50));
    out.set("latency_p99_ms", median(&p99));
    out.set("latency_p999_ms", median(&p999));
    out.set("imbalance", median(&imb));
    out.set("state_entries_max", median(&state));
    out.set("setup_s", median(&setup));
    out.set("correct_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    out
}

/// End-to-end metrics of `sim-schemes`: passes over the six schemes until
/// the time budget is spent.
fn measure_sim(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut spec = None;
    for _ in 0..MIN_SETUPS {
        let (s, secs) = simschemes::build(SIM_SCALE, seed);
        setup.push(secs);
        spec = Some(s);
    }
    let spec = spec.expect("built");
    let messages = spec.messages();

    // The memory axis: distinct (key, worker) pairs under PKG local. Also
    // the warm-up; replication tracking keeps it out of the timed passes.
    let cfg = simschemes::config("pkg_local", &spec, seed).with_replication();
    let report = pkg_sim::run(&spec, &cfg);
    out.failed += simschemes::failures(&spec, &report);
    out.attempted += messages;
    let pairs = report.replication.as_ref().map_or(0, |r| r.total_pairs);

    let (mut tput, mut imb) = (vec![], vec![]);
    let (mut p50, mut p99, mut p999) = (vec![], vec![], vec![]);
    let started = Instant::now();
    while tput.len() < MIN_RUNS || started.elapsed() < budget {
        let mut job_ms = Vec::with_capacity(simschemes::SCHEMES.len());
        for name in simschemes::SCHEMES {
            let (r, wall) = simschemes::run(name, &spec, seed, None);
            out.failed += simschemes::failures(&spec, &r);
            out.attempted += messages;
            job_ms.push(wall * 1e3);
            if name == "pkg_local" {
                imb.push(stats::imbalance(&r.worker_loads));
            }
        }
        let pass_s: f64 = job_ms.iter().sum::<f64>() / 1e3;
        tput.push((messages * simschemes::SCHEMES.len() as u64) as f64 / pass_s);
        p50.push(median(&job_ms));
        p99.push(percentile(&job_ms, 0.99));
        p999.push(percentile(&job_ms, 0.999));
    }
    out.notes.push(format!(
        "passes: {} over {} schemes, {messages} messages each, W={} S={}",
        tput.len(),
        simschemes::SCHEMES.len(),
        simschemes::WORKERS,
        simschemes::SOURCES
    ));
    out.notes.push(format!(
        "latency samples: {} simulation jobs ({} per pass; a pass's p99 and p999 are its slowest job)",
        p50.len() * simschemes::SCHEMES.len(),
        simschemes::SCHEMES.len()
    ));
    for (name, v) in [("throughput_msg_s", &tput), ("latency_p99_ms", &p99), ("setup_s", &setup)] {
        out.notes.push(describe(name, v));
    }
    out.set("throughput_msg_s", median(&tput));
    out.set("latency_p50_ms", median(&p50));
    out.set("latency_p99_ms", median(&p99));
    out.set("latency_p999_ms", median(&p999));
    out.set("imbalance", median(&imb));
    out.set("state_entries_max", pairs as f64);
    out.set("setup_s", median(&setup));
    out.set("correct_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    out
}

/// How much work a traced pass does: its own workload's pass runs at full
/// size; the others run small, only to fill in metrics of layers the
/// workload bypasses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    Probe,
}

/// The traced pass of `workload`, completed by probe passes of the others.
fn traced(workload: Workload, seed: u64) -> Outcome {
    let pass = |w: Workload, size: Size| match w {
        Workload::WcSaturate | Workload::WcPaced => trace_engine(w, seed, size),
        Workload::SimSchemes => trace_sim(seed, size),
    };
    let mut out = pass(workload, Size::Full);
    out.notes.push(format!("clock: an empty span costs {:.1} ns", empty_span_ns()));
    for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
        let probe = pass(other, Size::Probe);
        let filled: Vec<&str> =
            probe.metrics.keys().copied().filter(|k| !out.metrics.contains_key(k)).collect();
        out.notes.push(format!("probe {} filled: {}", other.name(), filled.join(" ")));
        out.fill_from(probe);
    }
    out
}

/// Mean duration of a span around nothing: the clock cost every leaf self
/// time includes.
fn empty_span_ns() -> f64 {
    const N: u64 = 100_000;
    let total: u64 = (0..N)
        .map(|_| {
            let t0 = now_ns();
            now_ns() - t0
        })
        .sum();
    total as f64 / N as f64
}

/// Write a trace's spans under `perfbench/out/`; best effort.
fn write_trace(file: &str, trace: &Trace) -> Option<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(file);
    std::fs::write(&path, trace.to_tsv(256)).ok()?;
    Some(path.display().to_string())
}

/// Replay the engine's hash and route calls over each source's exact key
/// sequence. Returns the replay trace, the replayed per-counter loads of
/// `route` and of `route_batch`, and the key count.
fn replay_engine(spec: &WcSpec) -> (Trace, Vec<u64>, Vec<u64>, u64) {
    let tracer = Tracer::new();
    let root = tracer.open(Name::Replay, NO_PARENT);
    let mut rec = tracer.recorder("replay".into(), root);
    let stream = Stream::build(spec.vocabulary, spec.p1);
    let n = spec.counters;
    let seed = pkg_engine::edge_seed(wordcount::ENGINE_SEED, 0, 1);
    let (mut by_route, mut by_batch) = (vec![0u64; n], vec![0u64; n]);
    let mut chunk: Vec<Tuple> = Vec::with_capacity(4_096);
    let mut keys: Vec<u64> = Vec::with_capacity(spec.messages_per_source as usize);
    let mut targets = Vec::with_capacity(ENGINE_BATCH);
    for i in 0..spec.sources {
        let mut rng = Stream::rng(spec.seed, i);
        keys.clear();
        let mut left = spec.messages_per_source;
        while left > 0 {
            let take = left.min(4_096);
            left -= take;
            chunk.clear();
            chunk.extend((0..take).map(|_| Tuple::new(stream.next_word(&mut rng), 1)));
            let t0 = now_ns();
            keys.extend(chunk.iter().map(Tuple::key_id));
            rec.record(Name::KeyId, t0, now_ns());
        }
        let shared = SharedLoads::new(n);
        let mut p = SchemeSpec::pkg(EstimateKind::Local).build(n, seed, i, &shared, None);
        let t0 = now_ns();
        for &k in &keys {
            by_route[p.route(k, 0)] += 1;
        }
        rec.record(Name::Route, t0, now_ns());
        let mut p = SchemeSpec::pkg(EstimateKind::Local).build(n, seed, i, &shared, None);
        let t0 = now_ns();
        for batch in keys.chunks(ENGINE_BATCH) {
            p.route_batch(batch, 0, &mut targets);
            for &w in &targets {
                by_batch[w] += 1;
            }
        }
        rec.record(Name::RouteBatch, t0, now_ns());
    }
    drop(rec);
    tracer.close(root);
    (tracer.finish(), by_route, by_batch, spec.total())
}

fn abs_diff_sum(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).map(|(x, y)| x.abs_diff(*y)).sum::<u64>() + a.len().abs_diff(b.len()) as u64
}

/// Traced pass of an engine workload.
fn trace_engine(workload: Workload, seed: u64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let workers = host::cores();
    let (spec, runs) = match (workload, size) {
        (Workload::WcSaturate, Size::Full) => (WcSpec::saturate(seed, workers, 50_000), 3),
        (Workload::WcSaturate, Size::Probe) => (WcSpec::saturate(seed, workers, 10_000), 1),
        (_, Size::Full) => (WcSpec::paced(seed, workers, PACED_RUN_S), 3),
        (_, Size::Probe) => (WcSpec::paced(seed, workers, 0.25), 1),
    };
    let saturate = spec.rate.is_none();
    let exact = exact_counts(&spec.wordcount_config());
    let check = |out: &mut Outcome, rep: &Rep| {
        out.failed += wordcount::failures(&spec, &exact, rep);
        out.attempted += spec.total();
    };
    // Warm-up (not reported).
    let warm = wordcount::run(&spec, None);
    check(&mut out, &warm);
    drop(warm);

    let mut per_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &'static str, v: f64| per_layer.entry(k).or_default().push(v);
    let (mut untraced, mut traced_tput) = (vec![], vec![]);
    let mut last_trace = None;
    let mut last_loads = Vec::new();
    for _ in 0..runs {
        // Untraced twin of the traced run: the tracing-overhead baseline
        // and the allocation audit.
        let (keys0, clones0) = (audit::heap_keys(), audit::tuple_clones());
        let rep = wordcount::run(&spec, None);
        push("engine.heap_keys", (audit::heap_keys() - keys0) as f64);
        push("engine.tuple_clones", (audit::tuple_clones() - clones0) as f64);
        check(&mut out, &rep);
        untraced.push(rep.throughput());
        drop(rep);

        let tracer = Tracer::new();
        let rep = wordcount::run(&spec, Some(&tracer));
        check(&mut out, &rep);
        let trace = tracer.finish();
        let tuples = spec.total() as f64;
        let stats = &rep.stats;
        traced_tput.push(rep.throughput());
        push("datagen.next_ns", trace.leaf_mean_ns(Name::DatagenNext));
        push("datagen.stream_build_s", rep.stream_build_s);
        push("datagen.topology_build_s", rep.topology_build_s);
        push("agg.counter_execute_ns", trace.leaf_mean_ns(Name::CounterExecute));
        let (ticks, tick_ns) = trace.leaf_total(Name::CounterTick);
        let (fins, fin_ns) = trace.leaf_total(Name::CounterFinish);
        push(
            "agg.counter_flush_us",
            (tick_ns + fin_ns) as f64 / (ticks + fins).max(1) as f64 / 1e3,
        );
        push("agg.aggregator_execute_ns", trace.leaf_mean_ns(Name::AggregatorExecute));
        push("agg.partials_merged", stats.processed("aggregator") as f64);
        push("engine.activations_per_ktuple", rep.activations() as f64 * 1e3 / tuples);
        push("engine.max_depth", stats.max_depth("counter") as f64);
        push("engine.stalled_ms", stats.stalled_ns("counter").iter().sum::<u64>() as f64 / 1e6);
        if saturate {
            let run_span = rep.run_span.expect("traced run");
            let overhead = trace.root_self_ns(run_span, spec.workers as u64) as f64 / tuples;
            push("engine.overhead_ns_per_tuple", overhead);
        } else {
            push("load.gen_lag_max_ms", rep.taps.gen_lag_ns.load(Ordering::Relaxed) as f64 / 1e6);
        }
        last_loads = stats.loads("counter");
        last_trace = Some(trace);
    }
    if saturate {
        let one = WcSpec { workers: 1, ..spec.clone() };
        for _ in 0..runs {
            let rep = wordcount::run(&one, None);
            check(&mut out, &rep);
            push("engine.msg_s_1worker", rep.throughput());
        }
        push("trace.overhead_msg_s", median(&untraced) - median(&traced_tput));
    }

    let (replay, by_route, by_batch, keys) = replay_engine(&spec);
    let (_, key_ns) = replay.leaf_total(Name::KeyId);
    let (_, route_ns) = replay.leaf_total(Name::Route);
    let (_, batch_ns) = replay.leaf_total(Name::RouteBatch);
    push("hash.key_id_ns", key_ns as f64 / keys as f64);
    push("route.pkg_local_ns", route_ns as f64 / keys as f64);
    push("route.pkg_local_batch_ns", batch_ns as f64 / keys as f64);
    // The replay is an oracle for the engine's routing decisions.
    let mismatch = abs_diff_sum(&by_route, &last_loads) + abs_diff_sum(&by_batch, &by_route);
    out.failed += mismatch;

    for (k, v) in &per_layer {
        out.set(k, median(v));
    }
    if size == Size::Full {
        out.notes.push(format!(
            "traced: {} traced + {} untraced runs of {} tuples ({} sources -> {} counters), \
             {} pool workers; replay of {keys} keys",
            runs,
            runs,
            spec.total(),
            spec.sources,
            spec.counters,
            spec.workers
        ));
        if let Some(path) = last_trace
            .as_ref()
            .and_then(|t| write_trace(&format!("trace-{}.tsv", workload.name()), t))
        {
            out.notes.push(format!("spans written to {path}"));
        }
    }
    out
}

/// Traced pass of `sim-schemes`.
fn trace_sim(seed: u64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let (scale, passes) = match size {
        Size::Full => (SIM_SCALE, 9),
        Size::Probe => (0.02, 1),
    };
    let (spec, build_s) = simschemes::build(scale, seed);
    let messages = spec.messages();
    out.set("datagen.stream_build_s", build_s);

    let tracer = Tracer::new();
    let mut rates: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut pkg_local_loads = Vec::new();
    for _ in 0..passes {
        for name in simschemes::SCHEMES {
            let (r, wall) = simschemes::run(name, &spec, seed, Some(&tracer));
            out.failed += simschemes::failures(&spec, &r);
            out.attempted += messages;
            rates.entry(name).or_default().push(messages as f64 / wall);
            if name == "pkg_local" {
                pkg_local_loads = r.worker_loads;
            }
        }
    }
    for (name, metric) in simschemes::SCHEMES.iter().zip([
        "sim.kg_msg_s",
        "sim.pkg_local_msg_s",
        "sim.pkg_global_msg_s",
        "sim.dchoices_msg_s",
        "sim.wchoices_msg_s",
        "sim.pkg_adaptive_msg_s",
    ]) {
        out.set(metric, median(&rates[name]));
    }

    // Replays: the stream iterator (pkg-datagen) and PKG-local routing of
    // each source's round-robin share (pkg-core), which must reproduce the
    // simulator's PKG-local loads exactly.
    let root = tracer.open(Name::Replay, NO_PARENT);
    let mut rec = tracer.recorder("replay".into(), root);
    let t0 = now_ns();
    let share = (messages as usize).div_ceil(simschemes::SOURCES);
    let mut per_source: Vec<Vec<u64>> =
        (0..simschemes::SOURCES).map(|_| Vec::with_capacity(share)).collect();
    for (i, m) in spec.iter(seed).enumerate() {
        per_source[i % simschemes::SOURCES].push(m.key);
    }
    rec.record(Name::StreamIter, t0, now_ns());
    let (mut by_route, mut by_batch) =
        (vec![0u64; simschemes::WORKERS], vec![0u64; simschemes::WORKERS]);
    let shared = SharedLoads::new(simschemes::WORKERS);
    let hash_seed = simschemes::config("pkg_local", &spec, seed).seed;
    let mut targets = Vec::new();
    for (s, keys) in per_source.iter().enumerate() {
        let build = || {
            SchemeSpec::pkg(EstimateKind::Local).build(
                simschemes::WORKERS,
                hash_seed,
                s,
                &shared,
                None,
            )
        };
        let mut p = build();
        let t0 = now_ns();
        for &k in keys {
            by_route[p.route(k, 0)] += 1;
        }
        rec.record(Name::Route, t0, now_ns());
        let mut p = build();
        let t0 = now_ns();
        for batch in keys.chunks(ENGINE_BATCH) {
            p.route_batch(batch, 0, &mut targets);
            for &w in &targets {
                by_batch[w] += 1;
            }
        }
        rec.record(Name::RouteBatch, t0, now_ns());
    }
    drop(rec);
    tracer.close(root);
    let trace = tracer.finish();
    out.set("datagen.next_ns", trace.leaf_total(Name::StreamIter).1 as f64 / messages as f64);
    out.set("route.pkg_local_ns", trace.leaf_total(Name::Route).1 as f64 / messages as f64);
    out.set(
        "route.pkg_local_batch_ns",
        trace.leaf_total(Name::RouteBatch).1 as f64 / messages as f64,
    );
    let mismatch = abs_diff_sum(&by_route, &pkg_local_loads) + abs_diff_sum(&by_batch, &by_route);
    out.failed += mismatch;
    if size == Size::Full {
        out.notes.push(format!(
            "traced: {passes} passes over {} schemes, {messages} messages each",
            simschemes::SCHEMES.len()
        ));
        if let Some(path) = write_trace("trace-sim-schemes.tsv", &trace) {
            out.notes.push(format!("spans written to {path}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload wc-paced --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::WcPaced, 3, 10.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload wc-paced --seed 1 --trace 2").is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let metrics: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        let expected: Vec<&str> = workloads.iter().chain(metrics.iter()).copied().collect();
        assert_eq!(names, expected, "BENCHMARK.json names, in order: workloads then metrics");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must have unit {unit} in BENCHMARK.json"
            );
        }
    }
}
