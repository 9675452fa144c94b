//! Wall-clock spans for the layer replay: name, start, end, parent span
//! and query id, kept in memory and written out when the run ends. A
//! disabled tracer records nothing and costs one branch per call.

use std::io::Write;
use std::time::Instant;

/// The layers the replay attributes wall time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One query arrival: a container whose self time is the glue
    /// between the layers it holds, not a layer of its own.
    Arrival,
    /// `EventQueue::schedule`/`pop` and the arrival draws
    /// (`workload::sample_interarrival`, consumer and class).
    Events,
    /// `RoutingPolicy::route` and `ShardRouter::providers_of_shard`.
    Route,
    /// `ConsumerAgent::intention_for` over the candidate set.
    ConsumerIntention,
    /// `ProviderAgent::intention_and_utilization` over the candidate set.
    ProviderIntention,
    /// `SocketMediator::gather`: one wave over loopback TCP.
    Gather,
    /// `AllocationMethod::allocate` (Definition 9, Equation 6).
    Score,
    /// `MediatorState::record_allocation` (the δ windows).
    Record,
    /// `record_allocation`/`record_proposal`/`assign`/`complete`.
    Feedback,
    /// The periodic metric sample.
    Sample,
    /// The departure rules' periodic assessment.
    Assess,
    /// `ShardRouter::sync_views`.
    Sync,
    /// A rebalancing round (`ShardRouter::migrate_provider`).
    Rebalance,
    /// `Population::generate`.
    SetupPopulation,
    /// `ShardRouter::new`.
    SetupShards,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 15] = [
        Layer::Arrival,
        Layer::Events,
        Layer::Route,
        Layer::ConsumerIntention,
        Layer::ProviderIntention,
        Layer::Gather,
        Layer::Score,
        Layer::Record,
        Layer::Feedback,
        Layer::Sample,
        Layer::Assess,
        Layer::Sync,
        Layer::Rebalance,
        Layer::SetupPopulation,
        Layer::SetupShards,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Arrival => "sim.arrival",
            Layer::Events => "sim.events",
            Layer::Route => "sim.route",
            Layer::ConsumerIntention => "agents.consumer_intention",
            Layer::ProviderIntention => "agents.provider_intention",
            Layer::Gather => "transport.gather",
            Layer::Score => "core.score",
            Layer::Record => "core.record",
            Layer::Feedback => "agents.feedback",
            Layer::Sample => "sim.sample",
            Layer::Assess => "agents.assess",
            Layer::Sync => "sim.sync",
            Layer::Rebalance => "sim.rebalance",
            Layer::SetupPopulation => "sim.setup.population",
            Layer::SetupShards => "sim.setup.shards",
        }
    }

    /// Whether the layer's self time counts toward the replay's covered
    /// wall: containers and set-up (outside the replayed run) do not.
    pub fn covers_run(self) -> bool {
        !matches!(
            self,
            Layer::Arrival | Layer::SetupPopulation | Layer::SetupShards
        )
    }
}

/// No parent / no query.
pub const NONE: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer's base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns (≥ start once closed).
    pub end: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// The query the span worked on, or [`NONE`].
    pub query: u32,
}

impl Span {
    /// Duration, ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recording tracer (`enabled`) or a no-op one.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the base for `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Opens a span of `layer` for `query` inside the innermost open one.
    #[inline]
    pub fn enter(&mut self, layer: Layer, query: u32) {
        if !self.enabled {
            return;
        }
        let start = self.ns(Instant::now());
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            query,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.ns(Instant::now());
        if let Some(index) = self.open.pop() {
            self.spans[index as usize].end = end;
        }
    }

    /// Records an already closed span (timed on another thread) as a
    /// child of the innermost open span.
    pub fn closed(&mut self, layer: Layer, start: Instant, end: Instant, query: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.spans.push(Span {
            layer,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            query,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it covered by
/// its direct children (the union of their intervals, clipped to the
/// span, so overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals of self time and span counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// `(self ns, spans)` per layer, indexed by `Layer as usize` (the
    /// order of [`Layer::ALL`]).
    by_layer: [(u64, u64); Layer::ALL.len()],
}

impl LayerTotals {
    /// Adds the spans of one traced replay.
    pub fn add(&mut self, spans: &[Span]) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let slot = &mut self.by_layer[span.layer as usize];
            slot.0 += own;
            slot.1 += 1;
        }
    }

    /// Self time of `layer`, ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.by_layer[layer as usize].0
    }

    /// Spans of `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.by_layer[layer as usize].1
    }

    /// Σ self time over the layers that cover the replayed run, ns.
    pub fn covered_ns(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.covers_run())
            .map(|&l| self.self_ns(l))
            .sum()
    }
}

/// Writes spans as tab-separated `name start_ns end_ns parent query`
/// rows (`-` for none).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\tquery")?;
    let opt = |v: u32| {
        if v == NONE {
            "-".to_string()
        } else {
            v.to_string()
        }
    };
    for span in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            span.layer.name(),
            span.start,
            span.end,
            opt(span.parent),
            opt(span.query)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            query: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // arrival [0,100) ⊃ gather [10,90) ⊃ intention [20,50), [60,70)
        let spans = [
            span(Layer::Arrival, 0, 100, NONE),
            span(Layer::Gather, 10, 90, 0),
            span(Layer::ConsumerIntention, 20, 50, 1),
            span(Layer::ProviderIntention, 60, 70, 1),
            span(Layer::Score, 90, 95, 0),
        ];
        // The grandchildren reduce the gather, not the arrival.
        assert_eq!(self_times(&spans), vec![15, 40, 30, 10, 5]);
        let mut totals = LayerTotals::default();
        totals.add(&spans);
        assert_eq!(totals.self_ns(Layer::Gather), 40);
        assert_eq!(totals.count(Layer::Score), 1);
        // The container's glue is not coverage: 40 + 30 + 10 + 5.
        assert_eq!(totals.covered_ns(), 85);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span(Layer::Gather, 0, 100, NONE),
            span(Layer::ProviderIntention, 10, 40, 0),
            span(Layer::ProviderIntention, 30, 60, 0),
            span(Layer::ConsumerIntention, 90, 120, 0),
        ];
        // Covered: [10,60) + [90,100) = 60 of the gather's 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn layers_index_their_own_table_slot() {
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            assert_eq!(layer as usize, i, "{}", layer.name());
        }
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.enter(Layer::Arrival, 7);
        tracer.enter(Layer::Score, 7);
        tracer.exit();
        let now = Instant::now();
        tracer.closed(Layer::ProviderIntention, now, now, 7);
        tracer.exit();
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!(spans[0].parent, NONE);
        assert!(spans.iter().all(|s| s.end >= s.start && s.query == 7));
        assert!(spans[0].end >= spans[1].end);

        let mut off = Tracer::new(false);
        off.enter(Layer::Arrival, 1);
        off.exit();
        assert!(off.into_spans().is_empty());
    }
}
