//! Stream groupings — how an edge partitions tuples among the downstream
//! instances. Storm's groupings plus every scheme the simulator runs: an
//! edge's routing is built by [`SchemeSpec::build`], so the engine and the
//! simulator make the same decision for the same per-sender key sequence.

use std::sync::Arc;

use pkg_core::{EstimateKind, Partitioner, SchemeSpec, SharedLoads};
use pkg_elastic::MembershipPlan;

/// Partitioning strategy of one topology edge.
#[derive(Debug, Clone, PartialEq)]
pub enum Grouping {
    /// Round-robin (Storm's shuffle grouping); shorthand for
    /// [`SchemeSpec::ShuffleGrouping`].
    Shuffle,
    /// Hash on the key (Storm's fields grouping / the paper's KG);
    /// shorthand for [`SchemeSpec::KeyGrouping`].
    Key,
    /// Any scheme the simulator runs: PKG (§III), PoTC, On-Greedy and the
    /// journal's D-/W-Choices. Every sender owns its own partitioner, so
    /// [`EstimateKind::Local`] is the paper's per-source estimation; the
    /// engine's only shared estimate is [`crate::LoadSignalOptions`], which
    /// [`crate::Topology::validate`] enforces by rejecting `Global` and
    /// `Probing` specs (and Off-Greedy, which needs the full histogram).
    Scheme(SchemeSpec),
    /// `scheme` confined to the live worker set of a [`MembershipPlan`].
    /// Each sender replays the plan against its own routed-tuple count; on
    /// crossing a threshold it broadcasts an in-band epoch marker (see
    /// [`crate::elastic`]) to every downstream instance, then routes new
    /// tuples over the new live set. Estimation stays per-sender local.
    Elastic {
        /// The routing scheme; must be resizable (every scheme but
        /// Off-Greedy is).
        scheme: SchemeSpec,
        /// The scripted membership schedule, shared by every sender.
        plan: Arc<MembershipPlan>,
    },
    /// Everything to instance 0 (Storm's global grouping; used for final
    /// aggregators).
    Global,
    /// Every tuple to every instance.
    Broadcast,
}

impl Grouping {
    /// The paper's PKG: two choices, local load estimation.
    pub fn partial_key() -> Self {
        Grouping::Scheme(SchemeSpec::pkg(EstimateKind::Local))
    }

    /// D-Choices with the default imbalance target and local estimation.
    pub fn d_choices() -> Self {
        Grouping::Scheme(SchemeSpec::d_choices(EstimateKind::Local))
    }

    /// W-Choices with the default imbalance target and local estimation.
    pub fn w_choices() -> Self {
        Grouping::Scheme(SchemeSpec::w_choices(EstimateKind::Local))
    }

    /// Elastic PKG (two choices) following `plan`.
    pub fn elastic(plan: MembershipPlan) -> Self {
        Grouping::Elastic { scheme: SchemeSpec::pkg(EstimateKind::Local), plan: Arc::new(plan) }
    }

    /// The scheme that routes this edge; `None` for `Global` and
    /// `Broadcast`, which need no partitioner.
    pub(crate) fn scheme(&self) -> Option<SchemeSpec> {
        match self {
            Grouping::Shuffle => Some(SchemeSpec::ShuffleGrouping),
            Grouping::Key => Some(SchemeSpec::KeyGrouping),
            Grouping::Scheme(spec) | Grouping::Elastic { scheme: spec, .. } => Some(spec.clone()),
            Grouping::Global | Grouping::Broadcast => None,
        }
    }
}

/// Where a routed tuple goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A single downstream instance.
    One(usize),
    /// All downstream instances (broadcast).
    All,
}

/// Reusable output buffer of [`Router::route_batch`]: per-tuple
/// destinations plus the tuple indices *grouped by destination* (a stable
/// counting sort), so the executor can deliver each destination's run with
/// one lock/wake instead of one per tuple.
///
/// Buffers are retained across batches — steady state allocates nothing.
#[derive(Debug, Default)]
pub struct TargetBatch {
    /// Destination of tuple `i`, in stream order.
    dests: Vec<usize>,
    /// Tuple indices stably sorted by destination.
    order: Vec<u32>,
    /// `(dest, start, end)` ranges into `order`, ascending by `dest`, one
    /// per destination that received at least one tuple.
    runs: Vec<(u32, u32, u32)>,
    /// Scratch: per-destination counts / cursor positions.
    counts: Vec<u32>,
}

impl TargetBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self) {
        self.dests.clear();
        self.order.clear();
        self.runs.clear();
    }

    /// Group `dests` by destination with a stable counting sort: O(keys + n)
    /// and allocation-free once the scratch buffers are warm.
    fn group(&mut self, n: usize) {
        self.counts.clear();
        self.counts.resize(n, 0);
        for &d in &self.dests {
            self.counts[d] += 1;
        }
        // Prefix sums: counts[d] becomes the start cursor of d's run.
        let mut start = 0u32;
        for d in 0..n {
            let c = self.counts[d];
            self.counts[d] = start;
            if c > 0 {
                self.runs.push((d as u32, start, start + c));
            }
            start += c;
        }
        self.order.resize(self.dests.len(), 0);
        for (i, &d) in self.dests.iter().enumerate() {
            let pos = &mut self.counts[d];
            self.order[*pos as usize] = i as u32;
            *pos += 1;
        }
    }

    /// Destination of tuple `i`, in stream order.
    pub fn dest(&self, i: usize) -> usize {
        self.dests[i]
    }

    /// Number of routed tuples in the batch.
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    /// Per-destination runs: `(dest, tuple indices in stream order)`.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.runs.iter().map(move |&(d, s, e)| (d as usize, &self.order[s as usize..e as usize]))
    }
}

/// Per-sender routing state for one outgoing edge: a thin adapter over the
/// `pkg_core` partitioner the edge's scheme builds.
///
/// Every upstream instance owns its own `Router` — for load-consulting
/// schemes this is what makes load estimation *local*: the partitioner's
/// estimate counts only the tuples this sender routed, per §III-B.
pub struct Router {
    kind: RouterKind,
    n: usize,
}

enum RouterKind {
    /// Every [`Grouping`] with a [`SchemeSpec`]; `epochs` is `Some` on
    /// elastic edges.
    Scheme {
        partitioner: Box<dyn Partitioner>,
        epochs: Option<EpochReplay>,
    },
    Global,
    Broadcast,
}

/// A sender's replay of an elastic edge's [`MembershipPlan`].
struct EpochReplay {
    plan: Arc<MembershipPlan>,
    /// Tuples this sender has routed on the edge.
    routed: u64,
    next_epoch: u32,
}

impl Router {
    /// Build routing state for an edge with `n` downstream instances.
    ///
    /// `seed` must be shared by all senders on the edge (so they agree on
    /// hash candidates); `sender_index` staggers shuffle's round-robin.
    /// With `shared` given (a destination's signal-bearing loads, see
    /// [`crate::LoadSignalOptions`]), load-consulting schemes minimize its
    /// pluggable load *signal* instead of a local tuple count: pending/latency
    /// signals are shared feedback by nature, so [`EstimateKind::build`] makes
    /// every estimate global over them. `None` keeps the paper's local
    /// estimation. Elastic edges always estimate locally: their replay is
    /// defined over the sender's own routed count.
    pub fn new(
        grouping: &Grouping,
        n: usize,
        seed: u64,
        sender_index: usize,
        shared: Option<&SharedLoads>,
    ) -> Self {
        assert!(n > 0, "edges need at least one downstream instance");
        let Some(spec) = grouping.scheme() else {
            let kind = match grouping {
                Grouping::Broadcast => RouterKind::Broadcast,
                _ => RouterKind::Global,
            };
            return Self { kind, n };
        };
        let epochs = match grouping {
            Grouping::Elastic { plan, .. } => {
                assert_eq!(
                    plan.capacity(),
                    n,
                    "membership plan id space must match the downstream instance count"
                );
                Some(EpochReplay { plan: Arc::clone(plan), routed: 0, next_epoch: 1 })
            }
            _ => None,
        };
        let loads = match shared {
            Some(s) if epochs.is_none() => {
                assert_eq!(s.n(), n, "shared loads must cover every downstream instance");
                s.clone()
            }
            _ => SharedLoads::new(n),
        };
        let mut partitioner = spec.build(n, seed, sender_index, &loads, None);
        if let Some(replay) = &epochs {
            partitioner.apply_membership(replay.plan.live(0));
        }
        Self { kind: RouterKind::Scheme { partitioner, epochs }, n }
    }

    /// Route a tuple key.
    #[inline]
    pub fn route(&mut self, key_id: u64) -> Target {
        match &mut self.kind {
            RouterKind::Scheme { partitioner, epochs } => {
                if let Some(replay) = epochs {
                    replay.routed += 1;
                }
                Target::One(partitioner.route(key_id, 0))
            }
            RouterKind::Global => Target::One(0),
            RouterKind::Broadcast => Target::All,
        }
    }

    /// [`Partitioner::head_candidates`] of this edge's scheme: the
    /// candidates of a head key's next message, `None` for tail keys and
    /// schemes without a head/tail split. Must be consulted *before*
    /// [`Router::route`] for the same message. The hedged dispatcher uses
    /// this to pick the fallback instance.
    pub fn head_candidates(&self, key_id: u64) -> Option<Vec<usize>> {
        match &self.kind {
            RouterKind::Scheme { partitioner, .. } => partitioner.head_candidates(key_id),
            _ => None,
        }
    }

    /// Advance this sender's membership epoch by one if its routed-tuple
    /// count has crossed the next plan threshold, switching routing onto the
    /// new live set and returning the epoch just entered. The emitter calls
    /// this before routing each tuple (looping, in case thresholds are a
    /// single tuple apart) and broadcasts an in-band marker per epoch
    /// returned — so on every FIFO channel the marker separates old-epoch
    /// from new-epoch traffic. `None` for non-elastic groupings and between
    /// thresholds.
    pub fn advance_epoch(&mut self) -> Option<u32> {
        let RouterKind::Scheme { partitioner, epochs: Some(replay) } = &mut self.kind else {
            return None;
        };
        let epoch = replay.next_epoch;
        if epoch >= replay.plan.epochs() || replay.routed < replay.plan.threshold(epoch) {
            return None;
        }
        partitioner.apply_membership(replay.plan.live(epoch));
        replay.next_epoch += 1;
        Some(epoch)
    }

    /// Whether [`Router::route_batch`] may be used for this edge.
    ///
    /// Two groupings opt out: `Broadcast` (no single destination to group
    /// by) and `Elastic` (epoch markers must interleave with the tuples
    /// that crossed each membership threshold, which only the per-tuple
    /// path can do). Every greedy scheme is batchable *by the paper's own
    /// argument*: between two argmin evaluations the loads move by at most
    /// the batch size, so deferring delivery (not the decision — decisions
    /// stay per-tuple, in stream order) changes nothing.
    pub fn is_batchable(&self) -> bool {
        matches!(self.kind, RouterKind::Scheme { epochs: None, .. } | RouterKind::Global)
    }

    /// Route a whole batch of key fingerprints with one
    /// [`Partitioner::route_batch`] call, grouping the results by
    /// destination in `out`.
    ///
    /// Decisions are made per key **in stream order** with exactly the same
    /// state updates as [`Router::route`], so the chosen destinations are
    /// byte-identical to the one-at-a-time path (pinned by the tests below);
    /// only the *delivery* is grouped. Callers must check
    /// [`Router::is_batchable`] first.
    pub fn route_batch(&mut self, keys: &[u64], out: &mut TargetBatch) {
        out.begin();
        match &mut self.kind {
            RouterKind::Scheme { partitioner, epochs: None } => {
                partitioner.route_batch(keys, 0, &mut out.dests)
            }
            RouterKind::Global => out.dests.resize(keys.len(), 0),
            RouterKind::Scheme { .. } | RouterKind::Broadcast => {
                unreachable!("caller checks is_batchable before routing a batch")
            }
        }
        out.group(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_elastic::{Change, MembershipPlan};

    fn router(grouping: &Grouping, n: usize, seed: u64, sender_index: usize) -> Router {
        Router::new(grouping, n, seed, sender_index, None)
    }

    /// The resizable schemes an elastic edge is exercised over.
    fn resizable_schemes() -> [SchemeSpec; 4] {
        [
            SchemeSpec::KeyGrouping,
            SchemeSpec::pkg(EstimateKind::Local),
            SchemeSpec::d_choices(EstimateKind::Local),
            SchemeSpec::w_choices(EstimateKind::Local),
        ]
    }

    #[test]
    fn key_routing_is_consistent_across_senders() {
        let mut a = router(&Grouping::Key, 8, 7, 0);
        let mut b = router(&Grouping::Key, 8, 7, 3);
        for k in 0..100u64 {
            assert_eq!(a.route(k), b.route(k));
        }
    }

    #[test]
    fn partial_splits_hot_key_over_two_instances() {
        let mut r = router(&Grouping::partial_key(), 10, 3, 0);
        let mut hit = std::collections::HashSet::new();
        for _ in 0..100 {
            if let Target::One(t) = r.route(42) {
                hit.insert(t);
            }
        }
        assert!(hit.len() <= 2, "PKG must use at most two instances per key");
    }

    #[test]
    fn shuffle_staggers_by_sender() {
        let mut a = router(&Grouping::Shuffle, 4, 0, 0);
        let mut b = router(&Grouping::Shuffle, 4, 0, 1);
        assert_eq!(a.route(0), Target::One(0));
        assert_eq!(b.route(0), Target::One(1));
    }

    #[test]
    fn d_choices_widens_hot_key_and_keeps_tail_at_two() {
        let n = 32;
        let mut r = router(&Grouping::d_choices(), n, 5, 0);
        let mut hot_targets = std::collections::HashSet::new();
        let mut tail_targets: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
            std::collections::HashMap::new();
        for i in 0..40_000u64 {
            // 40% of traffic on key 0, rest a cycling uniform tail.
            let key = if i % 5 < 2 { 0 } else { 1 + (i % 400) };
            if let Target::One(t) = r.route(key) {
                if key == 0 {
                    hot_targets.insert(t);
                } else {
                    tail_targets.entry(key).or_default().insert(t);
                }
            }
        }
        assert!(
            hot_targets.len() > 2,
            "hot key stayed on {} instances; D-Choices must widen it",
            hot_targets.len()
        );
        // d(0.4) = ceil(0.4·32/1.1) = 12: never wider than the bound.
        assert!(hot_targets.len() <= 12, "hot key on {} instances", hot_targets.len());
        for (key, targets) in tail_targets {
            assert!(targets.len() <= 2, "tail key {key} used {} instances", targets.len());
        }
    }

    #[test]
    fn w_choices_spreads_extreme_key_past_d_choices() {
        let n = 24;
        let run = |grouping: Grouping| {
            let mut r = router(&grouping, n, 7, 0);
            let mut hot = std::collections::HashSet::new();
            for i in 0..30_000u64 {
                let key = if i % 2 == 0 { 0 } else { i + 1 };
                if let Target::One(t) = r.route(key) {
                    if key == 0 {
                        hot.insert(t);
                    }
                }
            }
            hot.len()
        };
        let dc = run(Grouping::d_choices());
        let wc = run(Grouping::w_choices());
        assert_eq!(wc, n, "a 50% key under W-Choices reaches every instance");
        assert!(dc < wc, "D-Choices spread {dc} must stay below W-Choices {wc}");
        assert!(dc > 2);
    }

    #[test]
    fn elastic_replays_plan_and_confines_routing_to_live_set() {
        let plan = MembershipPlan::new(4)
            .with_step(100, [Change::Remove(3)])
            .with_step(200, [Change::Insert(3)]);
        for scheme in resizable_schemes() {
            let grouping =
                Grouping::Elastic { scheme: scheme.clone(), plan: Arc::new(plan.clone()) };
            let mut r = router(&grouping, 4, 9, 0);
            assert_eq!(r.advance_epoch(), None, "epoch 0 needs no announcement");
            let mut epochs = Vec::new();
            for (routed, k) in (0u64..300).enumerate() {
                let routed = routed as u64;
                while let Some(e) = r.advance_epoch() {
                    epochs.push((routed, e));
                }
                // A skewed stream, so D-/W-Choices also take their head path.
                let key = if k % 2 == 0 { 0 } else { k };
                if (100..200).contains(&routed) {
                    assert_ne!(r.route(key), Target::One(3), "{scheme:?} routed to dead 3");
                } else {
                    r.route(key);
                }
            }
            assert_eq!(epochs, vec![(100, 1), (200, 2)], "{scheme:?}");
            assert_eq!(r.advance_epoch(), None, "plan exhausted");
        }
    }

    #[test]
    fn elastic_senders_agree_on_candidates_with_static_partial() {
        // An elastic edge whose plan never changes routes exactly like the
        // static scheme — markers aside, the two are byte-identical.
        for scheme in resizable_schemes() {
            let elastic = Grouping::Elastic {
                scheme: scheme.clone(),
                plan: Arc::new(MembershipPlan::new(8)),
            };
            let mut a = router(&elastic, 8, 3, 0);
            let mut b = router(&Grouping::Scheme(scheme.clone()), 8, 3, 0);
            for k in 0..2_000u64 {
                let key = if k % 3 == 0 { 0 } else { k % 37 };
                assert_eq!(a.advance_epoch(), None);
                assert_eq!(a.route(key), b.route(key), "{scheme:?} diverged at message {k}");
            }
        }
    }

    /// The engine-vs-simulator routing oracle: for every scheme the engine
    /// accepts, per-tuple [`Router::route`], [`Router::route_batch`] and an
    /// independently built simulator partitioner agree byte for byte.
    #[test]
    fn route_batch_matches_per_tuple_route_for_every_batchable_grouping() {
        let local = EstimateKind::Local;
        let groupings = [
            Grouping::Shuffle,
            Grouping::Key,
            Grouping::Scheme(SchemeSpec::KeyGrouping),
            Grouping::Scheme(SchemeSpec::ShuffleGrouping),
            Grouping::partial_key(),
            Grouping::Scheme(SchemeSpec::Pkg { d: 3, estimate: local }),
            Grouping::Scheme(SchemeSpec::StaticPotc { estimate: local }),
            Grouping::Scheme(SchemeSpec::OnGreedy { estimate: local }),
            Grouping::d_choices(),
            Grouping::w_choices(),
            Grouping::Global,
        ];
        // A skewed stream: key 0 is hot, the tail cycles.
        let keys: Vec<u64> = (0..5_000u64).map(|i| if i % 3 == 0 { 0 } else { i % 97 }).collect();
        for (n, seed, sender) in [(12, 11, 2), (2, 0, 0), (7, 0xdead_beef, 5), (50, 3, 49)] {
            for g in &groupings {
                let mut one = router(g, n, seed, sender);
                let mut batched = router(g, n, seed, sender);
                // `None` (Global) routes everything to instance 0.
                let mut oracle =
                    g.scheme().map(|s| s.build(n, seed, sender, &SharedLoads::new(n), None));
                assert!(batched.is_batchable());
                let mut out = TargetBatch::new();
                for chunk in keys.chunks(64) {
                    batched.route_batch(chunk, &mut out);
                    assert_eq!(out.len(), chunk.len());
                    for (i, &k) in chunk.iter().enumerate() {
                        let want = oracle.as_mut().map_or(0, |p| p.route(k, 0));
                        let at = format!("{g:?} (n={n}, seed={seed}, sender={sender}) at key {k}");
                        assert_eq!(one.route(k), Target::One(want), "route vs oracle: {at}");
                        assert_eq!(out.dest(i), want, "route_batch vs oracle: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn target_batch_runs_group_stably_by_destination() {
        let mut r = router(&Grouping::Key, 4, 3, 0);
        let keys: Vec<u64> = (0..257).collect();
        let mut out = TargetBatch::new();
        r.route_batch(&keys, &mut out);
        let mut seen = 0usize;
        let mut prev_dest = None;
        for (dest, idxs) in out.runs() {
            assert!(prev_dest.is_none_or(|p| p < dest), "runs ascend by destination");
            prev_dest = Some(dest);
            assert!(!idxs.is_empty());
            for w in idxs.windows(2) {
                assert!(w[0] < w[1], "within a run, stream order is preserved");
            }
            for &i in idxs {
                assert_eq!(out.dest(i as usize), dest);
            }
            seen += idxs.len();
        }
        assert_eq!(seen, keys.len(), "runs partition the batch");
    }

    #[test]
    fn elastic_and_broadcast_are_not_batchable() {
        assert!(!router(&Grouping::elastic(MembershipPlan::new(4)), 4, 0, 0).is_batchable());
        assert!(!router(&Grouping::Broadcast, 4, 0, 0).is_batchable());
    }

    #[test]
    fn global_always_zero_broadcast_always_all() {
        let mut g = router(&Grouping::Global, 5, 0, 2);
        let mut b = router(&Grouping::Broadcast, 5, 0, 2);
        assert_eq!(g.route(9), Target::One(0));
        assert_eq!(b.route(9), Target::All);
    }
}
