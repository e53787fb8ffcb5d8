//! The engine workloads: `pkg-apps` word count on `pkg-engine`'s pool
//! executor, built from benchmark-owned pieces so every run can be checked
//! and traced without touching the crates.
//!
//! * The spout regenerates exactly the stream `pkg_apps::wordcount` emits
//!   (same Zipf table, lexicon and per-source seeding), so
//!   `pkg_apps::wordcount::exact_counts` is the oracle for the final totals.
//!   A paced spout emits tuple `i` no earlier than `start + i / rate` and
//!   ships that scheduled time in the tuple value; a closed-loop spout
//!   ships its generation time in every [`SATURATE_STAMP_EVERY`]-th tuple.
//! * [`Probe`] wraps the counter and aggregator bolts. It records spans in
//!   traced runs and, at the counters, the latency from each stamp to
//!   `execute`, restoring the unit count before the counter sees the tuple.
//!   Latencies are kept as exact samples, not histogram buckets.
//! * [`Sink`] sits after the aggregator, decodes the final totals and keeps
//!   them for the correctness check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pkg_agg::{PartialAgg, Sum};
use pkg_apps::wordcount::{AggregatorBolt, CounterBolt, WordCountConfig, WordCountVariant};
use pkg_datagen::text::{word_bytes_for_rank, MAX_WORD_LEN};
use pkg_datagen::zipf::ZipfTable;
use pkg_engine::prelude::*;
use pkg_engine::RunStats;
use pkg_hash::FxHashMap;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::{now_ns, Name, Recorder, Tracer};

/// A closed-loop source stamps one tuple in this many with its generation
/// time (the rest carry the plain count 1): enough samples for p999 at a
/// fraction of the clock reads.
pub const SATURATE_STAMP_EVERY: u64 = 8;

/// The engine's edge-hash seed: `RuntimeOptions::default`'s. The stream
/// varies with the benchmark seed; the deployment does not, so a seed
/// never decides whether the head word's two choices share a counter.
pub const ENGINE_SEED: u64 = 42;

/// One word-count topology: source → counter (PKG d=2, local estimation)
/// → aggregator (key grouping) → benchmark sink.
#[derive(Debug, Clone)]
pub struct WcSpec {
    /// Source instances.
    pub sources: usize,
    /// Counter instances.
    pub counters: usize,
    /// Tuples each source emits.
    pub messages_per_source: u64,
    /// Vocabulary size.
    pub vocabulary: u64,
    /// Probability of the most frequent word.
    pub p1: f64,
    /// Stream seed (the engine's hash seed stays [`ENGINE_SEED`]).
    pub seed: u64,
    /// Paced (open-loop) schedule in tuples per second per source; `None`
    /// emits as fast as backpressure allows.
    pub rate: Option<f64>,
    /// Emulated per-tuple service time at the counters.
    pub service_delay: Duration,
    /// Counter flush period; `None` flushes only at end of stream.
    pub aggregation_period: Option<Duration>,
    /// Pool worker threads.
    pub workers: usize,
}

impl WcSpec {
    /// `wc-saturate`: 20 sources → 179 counters → 1 aggregator, closed
    /// loop, no service delay, counters flush only at end of stream.
    pub fn saturate(seed: u64, workers: usize, messages_per_source: u64) -> Self {
        Self {
            sources: 20,
            counters: 179,
            messages_per_source,
            vocabulary: 10_000,
            p1: 0.0932,
            seed,
            rate: None,
            service_delay: Duration::ZERO,
            aggregation_period: None,
            workers,
        }
    }

    /// `wc-paced`: 1 source at a fixed 400k tuples/s for `seconds` → 32
    /// counters with 20 µs emulated service time and a 100 ms flush period
    /// → 1 aggregator. With more than `2 / p1` counters the head word
    /// cannot be balanced, so the load imbalance is set by the skew, not by
    /// a few tuples of greedy noise. The service time keeps a counter below
    /// saturation (75%) even when both hash choices of the head word land
    /// on it.
    pub fn paced(seed: u64, workers: usize, seconds: f64) -> Self {
        let rate = 400_000.0;
        Self {
            sources: 1,
            counters: 32,
            messages_per_source: (rate * seconds) as u64,
            vocabulary: 10_000,
            p1: 0.0932,
            seed,
            rate: Some(rate),
            service_delay: Duration::from_micros(20),
            aggregation_period: Some(Duration::from_millis(100)),
            workers,
        }
    }

    /// Tuples the sources generate in one run.
    pub fn total(&self) -> u64 {
        self.sources as u64 * self.messages_per_source
    }

    /// The `pkg-apps` configuration describing the same stream (for the
    /// `exact_counts` oracle).
    pub fn wordcount_config(&self) -> WordCountConfig {
        WordCountConfig {
            variant: WordCountVariant::PartialKeyGrouping,
            sources: self.sources,
            counters: self.counters,
            messages_per_source: self.messages_per_source,
            vocabulary: self.vocabulary,
            p1: self.p1,
            service_delay: self.service_delay,
            aggregation_period: self.aggregation_period,
            top_k: 10,
            seed: self.seed,
            source_rate: self.rate,
        }
    }

    /// Engine options, every field set here: the `PKG_ENGINE_EXECUTOR`
    /// environment knob that `RuntimeOptions::default` reads never applies.
    pub fn runtime_options(&self) -> RuntimeOptions {
        RuntimeOptions {
            channel_capacity: 1_024,
            seed: ENGINE_SEED,
            executor: ExecutorMode::Pool { workers: self.workers, batch: 0 },
            capacities: InstanceCapacities::uniform(),
            spsc_rings: true,
            ingress: None,
            load: None,
        }
    }
}

/// The shared stream tables: the Zipf CDF and the rank → word lexicon.
#[derive(Clone)]
pub struct Stream {
    zipf: Arc<ZipfTable>,
    words: Arc<Vec<([u8; MAX_WORD_LEN], u8)>>,
}

impl Stream {
    /// Build the tables for a vocabulary and head probability.
    pub fn build(vocabulary: u64, p1: f64) -> Self {
        let words = (0..vocabulary)
            .map(|r| {
                let (word, len) = word_bytes_for_rank(r);
                (word, len as u8)
            })
            .collect();
        Self { zipf: Arc::new(ZipfTable::with_p1(vocabulary, p1)), words: Arc::new(words) }
    }

    /// The random source of source instance `i` — the derivation
    /// `pkg_apps::wordcount` uses, so its `exact_counts` is the oracle.
    pub fn rng(seed: u64, i: usize) -> SmallRng {
        SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37))
    }

    /// Draw the next word.
    #[inline]
    pub fn next_word(&self, rng: &mut SmallRng) -> &[u8] {
        let (word, len) = &self.words[self.zipf.sample(rng) as usize];
        &word[..usize::from(*len)]
    }
}

/// Handles the topology's benchmark-owned pieces report into.
#[derive(Clone, Default)]
pub struct Taps {
    /// Tracer and the id of the run's root span, in traced runs.
    pub tracer: Option<(Arc<Tracer>, u32)>,
    /// Stamp → counter-execute latency samples, ns.
    pub latency: Arc<Mutex<Vec<u64>>>,
    /// How late the paced schedule ran at worst, ns.
    pub gen_lag_ns: Arc<AtomicU64>,
    /// Final totals decoded by the sink.
    pub totals: Arc<Mutex<Vec<(TupleKey, i64)>>>,
    /// Sink tuples whose decoded payload disagreed with their value.
    pub sink_mismatches: Arc<AtomicU64>,
}

impl Taps {
    fn recorder(&self, label: String) -> Option<Recorder> {
        self.tracer.as_ref().map(|(t, root)| t.recorder(label, *root))
    }
}

/// One source instance.
struct Source {
    stream: Stream,
    rng: SmallRng,
    left: u64,
    emitted: u64,
    /// Nanoseconds between scheduled tuples (paced), else `None`.
    period_ns: Option<f64>,
    start_ns: Option<u64>,
    lag_max_ns: u64,
    gen_lag_ns: Arc<AtomicU64>,
    rec: Option<Recorder>,
}

impl Source {
    fn next(&mut self) -> Option<Tuple> {
        if self.left == 0 {
            return None;
        }
        let mut value = 1;
        if let Some(period) = self.period_ns {
            let start = *self.start_ns.get_or_insert_with(now_ns);
            let due = start + (self.emitted as f64 * period) as u64;
            let mut now = now_ns();
            while now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
                now = now_ns();
            }
            self.lag_max_ns = self.lag_max_ns.max(now - due);
            value = due as i64;
        } else if self.emitted.is_multiple_of(SATURATE_STAMP_EVERY) {
            value = now_ns() as i64;
        }
        self.left -= 1;
        self.emitted += 1;
        let Some(rec) = &mut self.rec else {
            return Some(Tuple::new(self.stream.next_word(&mut self.rng), value));
        };
        let t0 = now_ns();
        let tuple = Tuple::new(self.stream.next_word(&mut self.rng), value);
        rec.record(Name::DatagenNext, t0, now_ns());
        Some(tuple)
    }
}

impl Drop for Source {
    fn drop(&mut self) {
        self.gen_lag_ns.fetch_max(self.lag_max_ns, Ordering::Relaxed);
    }
}

/// Benchmark-owned wrapper around a bolt from the crates under test.
pub struct Probe<B: Bolt> {
    inner: B,
    /// Span names of `execute`, `tick` and `finish`.
    names: [Name; 3],
    rec: Option<Recorder>,
    /// Latency samples of this instance (counters only).
    samples: Vec<u64>,
    /// Where to merge them when the instance is dropped.
    merge_into: Option<Arc<Mutex<Vec<u64>>>>,
}

impl<B: Bolt> Probe<B> {
    /// A counter wrapper: records the latency of stamped tuples.
    pub fn counter(inner: B, taps: &Taps, instance: usize) -> Self {
        Self {
            inner,
            names: [Name::CounterExecute, Name::CounterTick, Name::CounterFinish],
            rec: taps.recorder(format!("counter[{instance}]")),
            samples: Vec::new(),
            merge_into: Some(Arc::clone(&taps.latency)),
        }
    }

    fn aggregator(inner: B, taps: &Taps) -> Self {
        Self {
            inner,
            names: [Name::AggregatorExecute, Name::AggregatorTick, Name::AggregatorFinish],
            rec: taps.recorder("aggregator[0]".into()),
            samples: Vec::new(),
            merge_into: None,
        }
    }

    fn timed(&mut self, name: Name, f: impl FnOnce(&mut B)) {
        match &mut self.rec {
            None => f(&mut self.inner),
            Some(rec) => {
                let t0 = now_ns();
                f(&mut self.inner);
                rec.record(name, t0, now_ns());
            }
        }
    }
}

impl<B: Bolt> Bolt for Probe<B> {
    fn execute(&mut self, mut tuple: Tuple, out: &mut Emitter<'_>) {
        if self.merge_into.is_some() && tuple.value != 1 {
            self.samples.push(now_ns().saturating_sub(tuple.value as u64));
            tuple.value = 1;
        }
        self.timed(self.names[0], |b| b.execute(tuple, out));
    }

    fn tick(&mut self, out: &mut Emitter<'_>) {
        self.timed(self.names[1], |b| b.tick(out));
    }

    fn finish(&mut self, out: &mut Emitter<'_>) {
        self.timed(self.names[2], |b| b.finish(out));
    }

    fn state_size(&self) -> usize {
        self.inner.state_size()
    }
}

impl<B: Bolt> Drop for Probe<B> {
    fn drop(&mut self) {
        if let Some(Ok(mut merged)) = self.merge_into.as_ref().map(|m| m.lock()) {
            merged.append(&mut self.samples);
        }
    }
}

/// Terminal bolt: decodes each final total and keeps it.
struct Sink {
    totals: Vec<(TupleKey, i64)>,
    mismatches: u64,
    taps: Taps,
    rec: Option<Recorder>,
}

impl Bolt for Sink {
    fn execute(&mut self, tuple: Tuple, _out: &mut Emitter<'_>) {
        let t0 = self.rec.is_some().then(now_ns);
        let decoded = Sum::decode(&tuple.payload).map(|s| s.emit());
        if decoded != Some(tuple.value) {
            self.mismatches += 1;
        }
        self.totals.push((tuple.key, decoded.unwrap_or(0)));
        if let (Some(rec), Some(t0)) = (&mut self.rec, t0) {
            rec.record(Name::SinkExecute, t0, now_ns());
        }
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.taps.sink_mismatches.fetch_add(self.mismatches, Ordering::Relaxed);
        if let Ok(mut totals) = self.taps.totals.lock() {
            totals.append(&mut self.totals);
        }
    }
}

/// Build the topology. `counter` makes the bolt each counter instance
/// wraps (the word-count counter in every workload; tests swap in others).
pub fn topology<C: Bolt + 'static>(
    spec: &WcSpec,
    stream: &Stream,
    taps: &Taps,
    counter: impl Fn(usize) -> C + Send + 'static,
) -> Topology {
    let mut topo = Topology::new();
    let (src_stream, src_taps) = (stream.clone(), taps.clone());
    let (seed, left, period_ns) = (spec.seed, spec.messages_per_source, spec.rate.map(|r| 1e9 / r));
    let source = topo.add_spout("source", spec.sources, move |i| {
        let mut src = Source {
            stream: src_stream.clone(),
            rng: Stream::rng(seed, i),
            left,
            emitted: 0,
            period_ns,
            start_ns: None,
            lag_max_ns: 0,
            gen_lag_ns: Arc::clone(&src_taps.gen_lag_ns),
            rec: src_taps.recorder(format!("source[{i}]")),
        };
        spout_from_fn(move || src.next())
    });
    let counter_taps = taps.clone();
    let mut handle = topo
        .add_bolt("counter", spec.counters, move |i| {
            Box::new(Probe::counter(counter(i), &counter_taps, i))
        })
        .input(source, Grouping::partial_key());
    if let Some(period) = spec.aggregation_period {
        handle = handle.tick_every(period);
    }
    let counter_id = handle.id();
    let agg_taps = taps.clone();
    let aggregator = topo
        .add_bolt("aggregator", 1, move |_| {
            Box::new(Probe::aggregator(AggregatorBolt::new(false), &agg_taps))
        })
        .input(counter_id, Grouping::Key)
        .id();
    let sink_taps = taps.clone();
    topo.add_bolt("sink", 1, move |_| {
        Box::new(Sink {
            totals: Vec::new(),
            mismatches: 0,
            rec: sink_taps.recorder("sink[0]".into()),
            taps: sink_taps.clone(),
        })
    })
    .input(aggregator, Grouping::Global);
    topo
}

/// The word-count counter bolt of a spec.
pub fn wordcount_counter(spec: &WcSpec) -> impl Fn(usize) -> CounterBolt + Send + 'static {
    let delay = spec.service_delay;
    move |_| CounterBolt::new(false, delay, 10)
}

/// Everything one run of a topology produced.
pub struct Rep {
    /// Time to build the stream tables, seconds.
    pub stream_build_s: f64,
    /// Time to build the topology, seconds.
    pub topology_build_s: f64,
    /// Engine statistics.
    pub stats: RunStats,
    /// The benchmark taps after the run.
    pub taps: Taps,
    /// Id of the run's root span (traced runs).
    pub run_span: Option<u32>,
}

impl Rep {
    /// Set-up time: stream tables plus topology.
    pub fn setup_s(&self) -> f64 {
        self.stream_build_s + self.topology_build_s
    }

    /// Counter tuples per second of `Runtime::run` wall time.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput("counter")
    }

    /// `[p50, p99, p999]` latency in ns (nearest rank over exact samples)
    /// and the sample count: from the scheduled send time in paced runs,
    /// from generation otherwise, to counter `execute`.
    pub fn latency(&self) -> ([u64; 3], usize) {
        let mut samples = self.taps.latency.lock().expect("latency tap").clone();
        samples.sort_unstable();
        let at = |q: f64| {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len().max(1));
            samples.get(rank - 1).copied().unwrap_or(0)
        };
        ([at(0.50), at(0.99), at(0.999)], samples.len())
    }

    /// Scheduler activations of every component.
    pub fn activations(&self) -> u64 {
        ["source", "counter", "aggregator", "sink"].iter().map(|c| self.stats.activations(c)).sum()
    }
}

/// Build and run one topology. With a tracer, the run is wrapped in a root
/// span and every benchmark-owned piece records under it.
pub fn run(spec: &WcSpec, tracer: Option<&Arc<Tracer>>) -> Rep {
    let t0 = Instant::now();
    let stream = Stream::build(spec.vocabulary, spec.p1);
    let stream_build_s = t0.elapsed().as_secs_f64();
    let run_span = tracer.map(|t| t.open(Name::Run, crate::trace::NO_PARENT));
    let taps =
        Taps { tracer: tracer.zip(run_span).map(|(t, id)| (Arc::clone(t), id)), ..Taps::default() };
    let t1 = Instant::now();
    let topo = topology(spec, &stream, &taps, wordcount_counter(spec));
    let runtime = Runtime::with_options(spec.runtime_options());
    let topology_build_s = t1.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, run_span) {
        t.restart(id);
    }
    let stats = runtime.run(topo);
    if let (Some(t), Some(id)) = (tracer, run_span) {
        t.close(id);
    }
    Rep { stream_build_s, topology_build_s, stats, taps, run_span }
}

/// Check one run's output against the exact counts of its stream.
/// Returns the number of failed tuples: words missing from or miscounted
/// in the final totals, plus any tuples or partials lost between stages.
pub fn failures(spec: &WcSpec, exact: &FxHashMap<String, i64>, rep: &Rep) -> u64 {
    let stats = &rep.stats;
    let mut failed = stats.processed("counter").abs_diff(spec.total());
    failed += stats.emitted("counter").abs_diff(stats.processed("aggregator"));
    failed += rep.taps.sink_mismatches.load(Ordering::Relaxed);
    let totals = rep.taps.totals.lock().expect("totals tap");
    let mut seen = 0usize;
    for (key, got) in totals.iter() {
        let want = std::str::from_utf8(key).ok().and_then(|w| exact.get(w)).copied().unwrap_or(0);
        if want != 0 {
            seen += 1;
        }
        failed += got.abs_diff(want);
    }
    // Words the sink never reported.
    if seen < exact.len() {
        let reported: std::collections::HashSet<&[u8]> =
            totals.iter().map(|(k, _)| k.as_bytes()).collect();
        failed += exact
            .iter()
            .filter(|(w, _)| !reported.contains(w.as_bytes()))
            .map(|(_, &c)| c.unsigned_abs())
            .sum::<u64>();
    }
    failed.min(spec.total().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_apps::wordcount::exact_counts;

    fn tiny(seed: u64) -> WcSpec {
        WcSpec { messages_per_source: 2_000, ..WcSpec::saturate(seed, 2, 2_000) }
    }

    #[test]
    fn saturate_run_is_correct() {
        let spec = tiny(5);
        let rep = run(&spec, None);
        assert_eq!(failures(&spec, &exact_counts(&spec.wordcount_config()), &rep), 0);
        assert_eq!(rep.stats.processed("counter"), spec.total());
    }

    #[test]
    fn broken_totals_are_counted_as_failures() {
        let spec = tiny(5);
        let rep = run(&spec, None);
        let mut exact = exact_counts(&spec.wordcount_config());
        *exact.values_mut().next().expect("non-empty") += 3;
        exact.insert("never-generated".into(), 2);
        assert_eq!(failures(&spec, &exact, &rep), 5);
    }

    #[test]
    fn equal_seeds_give_equal_imbalance_and_other_seeds_other_streams() {
        let imbalance =
            |seed| crate::stats::imbalance(&run(&tiny(seed), None).stats.loads("counter"));
        assert_eq!(imbalance(7), imbalance(7));
        let stream = Stream::build(10_000, 0.0932);
        let words = |seed| {
            let mut rng = Stream::rng(seed, 0);
            (0..200).map(|_| stream.next_word(&mut rng).to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(words(7), words(7));
        assert_ne!(words(7), words(8));
    }

    #[test]
    fn options_ignore_the_executor_environment_knob() {
        std::env::set_var("PKG_ENGINE_EXECUTOR", "threads");
        let opts = tiny(1).runtime_options();
        std::env::remove_var("PKG_ENGINE_EXECUTOR");
        assert_eq!(opts.executor, ExecutorMode::Pool { workers: 2, batch: 0 });
    }

    /// A counter whose instance 0 sleeps once, on its 50th tuple.
    struct Sleepy {
        seen: u64,
        nap: Duration,
    }

    impl Bolt for Sleepy {
        fn execute(&mut self, _tuple: Tuple, _out: &mut Emitter<'_>) {
            self.seen += 1;
            if self.seen == 50 {
                std::thread::sleep(self.nap);
            }
        }
    }

    #[test]
    fn paced_latency_charges_a_stall_to_the_tuples_behind_it() {
        let p999_ms = |nap: Duration| {
            let spec = WcSpec {
                counters: 1,
                messages_per_source: 20_000,
                rate: Some(100_000.0),
                service_delay: Duration::ZERO,
                ..WcSpec::paced(3, 2, 0.2)
            };
            let taps = Taps::default();
            let stream = Stream::build(spec.vocabulary, spec.p1);
            let topo = topology(&spec, &stream, &taps, move |_| Sleepy { seen: 0, nap });
            let stats = Runtime::with_options(spec.runtime_options()).run(topo);
            assert_eq!(stats.processed("counter"), 20_000);
            let mut samples = taps.latency.lock().expect("tap").clone();
            assert_eq!(samples.len(), 20_000, "every paced tuple is a sample");
            samples.sort_unstable();
            samples[19_980] as f64 / 1e6
        };
        let calm = p999_ms(Duration::ZERO);
        // A 60 ms stall at 100k tuples/s queues thousands of tuples behind
        // it: far more than 0.1% of them wait tens of milliseconds.
        let stalled = p999_ms(Duration::from_millis(60));
        assert!(stalled > 30.0, "stall not charged: p999 {stalled:.2} ms");
        assert!(stalled > calm + 20.0, "calm p999 {calm:.2} ms vs stalled {stalled:.2} ms");
    }
}
