//! Declarative topology construction (the DAG of Fig. 1).

use std::time::Duration;

use pkg_core::EstimateKind;

use crate::bolt::Bolt;
use crate::grouping::Grouping;
use crate::spout::Spout;

/// Identifies a component (spout or bolt) in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Factory creating the `i`-th instance of a spout component.
pub type SpoutFactory = Box<dyn Fn(usize) -> Box<dyn Spout> + Send>;
/// Factory creating the `i`-th instance of a bolt component.
pub type BoltFactory = Box<dyn Fn(usize) -> Box<dyn Bolt> + Send>;

pub(crate) enum ComponentKind {
    Spout(SpoutFactory),
    Bolt(BoltFactory),
}

pub(crate) struct Component {
    pub(crate) name: String,
    pub(crate) parallelism: usize,
    pub(crate) kind: ComponentKind,
    /// Input edges: (upstream node, grouping).
    pub(crate) inputs: Vec<(NodeId, Grouping)>,
    /// Tick interval for bolts (aggregation period), if any.
    pub(crate) tick_every: Option<Duration>,
}

/// A directed acyclic graph of spouts and bolts.
#[derive(Default)]
pub struct Topology {
    pub(crate) components: Vec<Component>,
}

/// Fluent handle returned by [`Topology::add_bolt`] for wiring inputs.
pub struct BoltHandle<'a> {
    topo: &'a mut Topology,
    id: NodeId,
}

impl BoltHandle<'_> {
    /// Subscribe this bolt to `from` with the given grouping.
    pub fn input(self, from: NodeId, grouping: Grouping) -> Self {
        assert!(
            from.0 < self.id.0,
            "inputs must reference earlier components (the builder is topological)"
        );
        self.topo.components[self.id.0].inputs.push((from, grouping));
        self
    }

    /// Configure a periodic tick (the aggregation period of Q4).
    pub fn tick_every(self, period: Duration) -> Self {
        assert!(!period.is_zero(), "tick period must be positive");
        self.topo.components[self.id.0].tick_every = Some(period);
        self
    }

    /// The component id, for wiring further bolts.
    pub fn id(&self) -> NodeId {
        self.id
    }
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a spout component with `parallelism` instances; `factory(i)`
    /// creates instance `i`.
    pub fn add_spout(
        &mut self,
        name: &str,
        parallelism: usize,
        factory: impl Fn(usize) -> Box<dyn Spout> + Send + 'static,
    ) -> NodeId {
        assert!(parallelism > 0, "parallelism must be positive");
        let id = NodeId(self.components.len());
        self.components.push(Component {
            name: name.to_string(),
            parallelism,
            kind: ComponentKind::Spout(Box::new(factory)),
            inputs: Vec::new(),
            tick_every: None,
        });
        id
    }

    /// Add a bolt component; wire its inputs through the returned handle.
    pub fn add_bolt(
        &mut self,
        name: &str,
        parallelism: usize,
        factory: impl Fn(usize) -> Box<dyn Bolt> + Send + 'static,
    ) -> BoltHandle<'_> {
        assert!(parallelism > 0, "parallelism must be positive");
        let id = NodeId(self.components.len());
        self.components.push(Component {
            name: name.to_string(),
            parallelism,
            kind: ComponentKind::Bolt(Box::new(factory)),
            inputs: Vec::new(),
            tick_every: None,
        });
        BoltHandle { topo: self, id }
    }

    /// Validate structural invariants (every bolt has ≥ 1 input, names are
    /// unique, every edge's scheme is one the runtime can serve). Called by
    /// the runtime before spawning threads.
    pub fn validate(&self) {
        let mut names = std::collections::HashSet::new();
        for (i, c) in self.components.iter().enumerate() {
            assert!(names.insert(&c.name), "duplicate component name {}", c.name);
            match c.kind {
                ComponentKind::Spout(_) => {
                    assert!(c.inputs.is_empty(), "spout {} cannot have inputs", c.name)
                }
                ComponentKind::Bolt(_) => {
                    assert!(!c.inputs.is_empty(), "bolt {} has no inputs", c.name);
                    for (from, grouping) in &c.inputs {
                        assert!(from.0 < i, "edge must go forward");
                        let Some(spec) = grouping.scheme() else { continue };
                        let edge = format_args!(
                            "bolt {} (input from {})",
                            c.name, self.components[from.0].name
                        );
                        assert!(
                            !spec.needs_frequencies(),
                            "{edge}: {} needs the full key histogram, which a running \
                             topology does not have",
                            spec.label()
                        );
                        assert!(
                            matches!(spec.estimate(), None | Some(EstimateKind::Local)),
                            "{edge}: {} estimates load globally, but the engine's shared \
                             estimate comes only from RuntimeOptions::load; use \
                             EstimateKind::Local",
                            spec.label()
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt::CountingBolt;
    use crate::spout::spout_from_iter;
    use pkg_core::SchemeSpec;

    #[test]
    fn builder_wires_edges() {
        let mut t = Topology::new();
        let s = t.add_spout("s", 2, |_| spout_from_iter(Vec::new()));
        let b =
            t.add_bolt("b", 3, |_| Box::new(CountingBolt::default())).input(s, Grouping::Key).id();
        let _ =
            t.add_bolt("agg", 1, |_| Box::new(CountingBolt::default())).input(b, Grouping::Global);
        t.validate();
        assert_eq!(t.components.len(), 3);
        assert_eq!(t.components[1].inputs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "has no inputs")]
    fn bolt_without_inputs_is_invalid() {
        let mut t = Topology::new();
        let _ = t.add_bolt("orphan", 1, |_| Box::new(CountingBolt::default()));
        t.validate();
    }

    fn served_by(grouping: Grouping) {
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(Vec::new()));
        let _ = t.add_bolt("count", 2, |_| Box::new(CountingBolt::default())).input(s, grouping);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "bolt count (input from src): PKG-G estimates load globally")]
    fn global_estimate_scheme_is_invalid() {
        served_by(Grouping::Scheme(SchemeSpec::pkg(EstimateKind::Global)));
    }

    #[test]
    #[should_panic(expected = "bolt count (input from src): DC-P1 estimates load globally")]
    fn probing_estimate_elastic_scheme_is_invalid() {
        let probing = EstimateKind::Probing { period_ms: 60_000 };
        served_by(Grouping::Elastic {
            scheme: SchemeSpec::d_choices(probing),
            plan: std::sync::Arc::new(pkg_elastic::MembershipPlan::new(2)),
        });
    }

    #[test]
    #[should_panic(
        expected = "bolt count (input from src): Off-Greedy needs the full key histogram"
    )]
    fn off_greedy_scheme_is_invalid() {
        served_by(Grouping::Scheme(SchemeSpec::OffGreedy));
    }

    #[test]
    fn local_schemes_are_valid() {
        served_by(Grouping::Scheme(SchemeSpec::OnGreedy { estimate: EstimateKind::Local }));
        served_by(Grouping::w_choices());
    }

    #[test]
    #[should_panic(expected = "duplicate component name")]
    fn duplicate_names_are_invalid() {
        let mut t = Topology::new();
        let s = t.add_spout("x", 1, |_| spout_from_iter(Vec::new()));
        let _ =
            t.add_bolt("x", 1, |_| Box::new(CountingBolt::default())).input(s, Grouping::Shuffle);
        t.validate();
    }
}
