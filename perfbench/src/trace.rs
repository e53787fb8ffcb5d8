//! Span recording for the traced pass.
//!
//! The benchmark never instruments the crates it measures. It records a
//! span around each call it makes *into* a layer: the spout closure's
//! stream generation, the counter/aggregator/sink bolt callbacks (through
//! benchmark-owned wrappers), `Runtime::run`, each `pkg_sim::run`, and the
//! replayed hash and route calls. Spans stay in memory until the pass ends;
//! self times are computed from them and a bounded sample is written out.
//!
//! There are two kinds of span. A *root* span (a run, a replay, a
//! simulation) has an id and may parent other spans. A *leaf* span (one
//! callback) belongs to the lane of the instance that recorded it and
//! names its root as parent. Instances record into their own lane without
//! locking and hand the lane to the [`Tracer`] when they are dropped.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process. Every timestamp the
/// benchmark takes (spans, paced schedules, latencies) uses this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// `Runtime::run` (root).
    Run,
    /// One `pkg_sim::run` (root).
    Sim,
    /// A replay of pkg-hash / pkg-core calls outside the engine (root).
    Replay,
    /// Stream generation inside the spout closure (pkg-datagen).
    DatagenNext,
    /// Counter bolt `execute`.
    CounterExecute,
    /// Counter bolt `tick` (a periodic partial flush).
    CounterTick,
    /// Counter bolt `finish` (the end-of-stream flush).
    CounterFinish,
    /// Aggregator bolt `execute` (one partial merged).
    AggregatorExecute,
    /// Aggregator bolt `tick` (the benchmark's aggregator is not windowed,
    /// so this stays empty).
    AggregatorTick,
    /// Aggregator bolt `finish` (final totals emitted).
    AggregatorFinish,
    /// Benchmark sink `execute` (final totals decoded).
    SinkExecute,
    /// A chunk of `Tuple::key_id` calls.
    KeyId,
    /// A source's key sequence through `Partitioner::route`.
    Route,
    /// A source's key sequence through `Partitioner::route_batch`.
    RouteBatch,
    /// A pass over a `StreamSpec` iterator (pkg-datagen).
    StreamIter,
}

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Run => "engine.run",
            Name::Sim => "sim.run",
            Name::Replay => "replay",
            Name::DatagenNext => "datagen.next",
            Name::CounterExecute => "counter.execute",
            Name::CounterTick => "counter.tick",
            Name::CounterFinish => "counter.finish",
            Name::AggregatorExecute => "aggregator.execute",
            Name::AggregatorTick => "aggregator.tick",
            Name::AggregatorFinish => "aggregator.finish",
            Name::SinkExecute => "sink.execute",
            Name::KeyId => "hash.key_id",
            Name::Route => "route.route",
            Name::RouteBatch => "route.route_batch",
            Name::StreamIter => "datagen.stream_iter",
        }
    }
}

/// Parent id of a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was measured.
    pub name: Name,
    /// Root span this one ran under, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, [`now_ns`] clock.
    pub start: u64,
    /// End, [`now_ns`] clock.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The leaf spans of one instance (or replay), in recording order.
#[derive(Debug, Default)]
pub struct Lane {
    /// Which instance recorded them, e.g. `counter[3]`.
    pub label: String,
    /// The spans.
    pub spans: Vec<Span>,
}

/// Collects every span of one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Root spans; a root's id is its index.
    roots: Mutex<Vec<Span>>,
    lanes: Mutex<Vec<Lane>>,
}

impl Tracer {
    /// An empty tracer, shareable with the instances that record into it.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Open a root span now; close it with [`Tracer::close`].
    pub fn open(&self, name: Name, parent: u32) -> u32 {
        let mut roots = self.roots.lock().expect("tracer roots");
        roots.push(Span { name, parent, start: now_ns(), end: 0 });
        (roots.len() - 1) as u32
    }

    /// Restart an open root span now: for roots whose id must be handed
    /// to recorders before the measured call begins.
    pub fn restart(&self, id: u32) {
        self.roots.lock().expect("tracer roots")[id as usize].start = now_ns();
    }

    /// Close a root span opened with [`Tracer::open`].
    pub fn close(&self, id: u32) {
        self.roots.lock().expect("tracer roots")[id as usize].end = now_ns();
    }

    /// A recorder for one instance's leaf spans under root `parent`.
    pub fn recorder(self: &Arc<Self>, label: String, parent: u32) -> Recorder {
        Recorder { tracer: Arc::clone(self), parent, lane: Lane { label, spans: Vec::new() } }
    }

    /// Take every span recorded so far. Recorders hand in their lanes when
    /// dropped, so call this after the traced calls have returned.
    pub fn finish(&self) -> Trace {
        Trace {
            roots: std::mem::take(&mut *self.roots.lock().expect("tracer roots")),
            lanes: std::mem::take(&mut *self.lanes.lock().expect("tracer lanes")),
        }
    }
}

/// Records one instance's leaf spans without locking; hands them to the
/// tracer when dropped.
#[derive(Debug)]
pub struct Recorder {
    tracer: Arc<Tracer>,
    parent: u32,
    lane: Lane,
}

impl Recorder {
    /// Record a leaf span.
    #[inline]
    pub fn record(&mut self, name: Name, start: u64, end: u64) {
        self.lane.spans.push(Span { name, parent: self.parent, start, end });
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let lane = std::mem::take(&mut self.lane);
        if let Ok(mut lanes) = self.tracer.lanes.lock() {
            lanes.push(lane);
        }
    }
}

/// The frozen spans of a traced pass.
#[derive(Debug)]
pub struct Trace {
    /// Root spans; a root's id is its index.
    pub roots: Vec<Span>,
    /// Leaf spans per recording instance.
    pub lanes: Vec<Lane>,
}

impl Trace {
    fn leaves(&self) -> impl Iterator<Item = &Span> {
        self.lanes.iter().flat_map(|l| l.spans.iter())
    }

    /// Count and total duration of the leaf spans called `name`. Leaves
    /// have no children, so their total duration is their self time.
    pub fn leaf_total(&self, name: Name) -> (u64, u64) {
        self.leaves().filter(|s| s.name == name).fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns()))
    }

    /// Mean self time of the leaf spans called `name`, in nanoseconds (0
    /// when there are none).
    pub fn leaf_mean_ns(&self, name: Name) -> f64 {
        let (n, ns) = self.leaf_total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Self time of root `id`: its duration times `width` (the number of
    /// threads its children could run on — the pool's workers for a run,
    /// 1 otherwise) minus the durations of its direct children.
    pub fn root_self_ns(&self, id: u32, width: u64) -> u64 {
        let root = &self.roots[id as usize];
        let children: u64 =
            self.leaves().chain(self.roots.iter()).filter(|s| s.parent == id).map(Span::ns).sum();
        (root.ns() * width).saturating_sub(children)
    }

    /// Render the spans as TSV (`lane name parent start_ns end_ns`): every
    /// root and the first `per_lane` leaves of each lane. The header line
    /// states how many leaves were left out.
    pub fn to_tsv(&self, per_lane: usize) -> String {
        let total: usize = self.lanes.iter().map(|l| l.spans.len()).sum();
        let kept: usize = self.lanes.iter().map(|l| l.spans.len().min(per_lane)).sum();
        let mut out = format!(
            "# {} roots, {total} leaves, {} leaves omitted (first {per_lane} per lane kept)\n\
             lane\tname\tparent\tstart_ns\tend_ns\n",
            self.roots.len(),
            total - kept
        );
        for (id, s) in self.roots.iter().enumerate() {
            let _ = writeln!(
                out,
                "root#{id}\t{}\t{}\t{}\t{}",
                s.name.label(),
                parent_label(s.parent),
                s.start,
                s.end
            );
        }
        for lane in &self.lanes {
            for s in lane.spans.iter().take(per_lane) {
                let _ = writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}",
                    lane.label,
                    s.name.label(),
                    parent_label(s.parent),
                    s.start,
                    s.end
                );
            }
        }
        out
    }
}

fn parent_label(parent: u32) -> String {
    if parent == NO_PARENT {
        "-".into()
    } else {
        format!("root#{parent}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_across_lanes() {
        let tracer = Tracer::new();
        let run = tracer.open(Name::Run, NO_PARENT);
        {
            let mut a = tracer.recorder("a".into(), run);
            let mut b = tracer.recorder("b".into(), run);
            a.record(Name::CounterExecute, 10, 30);
            b.record(Name::CounterExecute, 15, 20);
            b.record(Name::DatagenNext, 20, 25);
        }
        tracer.close(run);
        let mut trace = tracer.finish();
        // Pin the root's interval so the arithmetic is exact.
        trace.roots[run as usize].start = 0;
        trace.roots[run as usize].end = 100;
        assert_eq!(trace.leaf_total(Name::CounterExecute), (2, 25));
        assert_eq!(trace.leaf_mean_ns(Name::DatagenNext), 5.0);
        assert_eq!(trace.root_self_ns(run, 1), 70);
        assert_eq!(trace.root_self_ns(run, 2), 170);
        let tsv = trace.to_tsv(1);
        assert!(tsv.starts_with("# 1 roots, 3 leaves, 1 leaves omitted"));
        assert_eq!(tsv.lines().count(), 2 + 1 + 2);
    }
}
