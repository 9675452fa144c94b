//! The layer replay: drives a workload through the layers' public
//! functions in the engine's own order, with a span around each layer.
//!
//! It mirrors `Simulator::run` step for step — the same random stream,
//! the same event queue, the same arrival, allocation, completion,
//! sample, assessment, sync and rebalance handling — so the replayed run
//! is the engine's run, attributable layer by layer. Two decisions it
//! does not recompute but takes from the engine's report, at the instant
//! the engine took them: which participants depart (the replay still
//! evaluates every departure rule, and checks its own verdicts against
//! the log) and which provider a rebalancing round migrates. At the end
//! [`Replay::fidelity`] compares the replayed run with the report: query
//! counters, per-shard allocations, round counts and every metric series
//! the report digest covers, bit for bit.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlb_agents::{DepartureReason, Population};
use sqlb_core::mediator_state::MediatorStateConfig;
use sqlb_core::{AllocationMethod, CandidateInfo, SelectionSet};
use sqlb_mediation::ProviderAnswer;
use sqlb_metrics::{fairness, mean, spread, Histogram, TimeSeries};
use sqlb_reputation::ReputationStore;
use sqlb_sim::events::{Event, EventQueue};
use sqlb_sim::routing::{RoutingPolicy, ShardLoadView};
use sqlb_sim::shard::shard_seed;
use sqlb_sim::stats::MetricSeries;
use sqlb_sim::workload::{arrival_rate, sample_interarrival};
use sqlb_sim::{MediationMode, Method, ShardRouter, SimulationConfig, SimulationReport};
use sqlb_transport::{ServerConfig, SocketMediator, WaveJobs};
use sqlb_types::{
    ConsumerId, ProviderId, Query, QueryClass, QueryId, SimDuration, SimTime, SlotColumn, SqlbError,
};

use crate::span::{Layer, Tracer, NONE};

/// Counters of one replayed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Queries issued.
    pub issued: u64,
    /// Queries allocated (scored and recorded).
    pub allocated: u64,
    /// Queries completed by their providers.
    pub completed: u64,
    /// Queries no shard could take.
    pub unallocated: u64,
    /// Candidates over all allocated queries.
    pub candidates: u64,
    /// Rebalancing rounds.
    pub rebalance_rounds: u64,
    /// Migrations applied from the engine's log.
    pub migrations: u64,
}

/// Times recorded on the socket host thread, turned into spans once the
/// wave is back.
type HostTimings = Mutex<Vec<(Layer, Instant, Instant)>>;

/// A replay of one workload run.
pub struct Replay<'r> {
    config: SimulationConfig,
    log: &'r SimulationReport,
    router: ShardRouter,
    /// One allocation method per shard, seeded like the router's own, so
    /// scoring can be timed apart from the δ-window recording.
    methods: Vec<Box<dyn AllocationMethod>>,
    routing: Box<dyn RoutingPolicy>,
    shard_backlog: Vec<f64>,
    shard_capacity: Vec<f64>,
    population: Population,
    reputation: ReputationStore,
    rng: StdRng,
    queue: EventQueue,
    busy_until: SlotColumn<ProviderId, f64>,
    provider_strikes: SlotColumn<ProviderId, u32>,
    consumer_strikes: SlotColumn<ConsumerId, u32>,
    now: SimTime,
    next_query_id: u32,
    next_sample_tick: u64,
    next_assessment_tick: u64,
    next_sync_tick: u64,
    next_rebalance_tick: u64,
    total_capacity: f64,
    initial_consumers: usize,
    socket: Option<SocketMediator>,
    series: MetricSeries,
    response_times: Histogram,
    counts: ReplayCounts,
    /// Cursors into the report's departure and migration logs.
    next_provider_departure: usize,
    next_consumer_departure: usize,
    next_migration: usize,
    infos: Vec<CandidateInfo>,
    shown_cis: Vec<f64>,
    selected_indices: Vec<usize>,
    selection: SelectionSet,
    /// Departure verdicts of the replay that disagreed with the log.
    verdict_mismatches: u64,
    /// The spans of this replay (a no-op recorder when untraced).
    pub tracer: Tracer,
}

impl<'r> Replay<'r> {
    /// Sets the replay up for `config` (an SQLB configuration), taking
    /// departures and migrations from `log`, the engine's report of the
    /// same configuration. Set-up itself is traced as the
    /// `sim.setup.*` spans.
    pub fn new(
        config: SimulationConfig,
        log: &'r SimulationReport,
        traced: bool,
    ) -> Result<Self, SqlbError> {
        config.validate()?;
        let mut tracer = Tracer::new(traced);

        tracer.enter(Layer::SetupPopulation, NONE);
        let population = Population::generate(&config.population);
        tracer.exit();
        let population = population?;

        let state_config = MediatorStateConfig {
            consumer_window: config.population.consumer_config.memory,
            provider_proposed_window: config.population.provider_config.proposed_memory,
            provider_performed_window: config.population.provider_config.performed_memory,
            initial_satisfaction: config.population.provider_config.initial_satisfaction,
        };
        tracer.enter(Layer::SetupShards, NONE);
        let mut router = ShardRouter::new(
            config.mediator_shards,
            Method::Sqlb,
            config.seed,
            state_config,
            population.providers.keys(),
        );
        router.set_scoring_threads(config.scoring_threads);
        tracer.exit();

        let methods = (0..router.shard_count())
            .map(|shard| {
                let mut method = Method::Sqlb.build(shard_seed(config.seed, shard));
                method.set_record_ranking(false);
                method.set_scoring_threads(config.scoring_threads);
                method
            })
            .collect();
        let socket = match config.mediation {
            MediationMode::Inline => None,
            MediationMode::Socket => Some(
                SocketMediator::loopback(
                    config.socket_hosts,
                    ServerConfig {
                        timeout: Duration::from_millis(config.wave_timeout_ms),
                        request_bids: false,
                    },
                    population.consumers.keys(),
                    population.providers.keys(),
                )
                .map_err(|e| SqlbError::InvalidConfig {
                    reason: format!("socket bring-up failed: {e}"),
                })?,
            ),
            other => {
                return Err(SqlbError::InvalidConfig {
                    reason: format!("the replay has no {} backend", other.name()),
                })
            }
        };

        let shard_capacity = (0..router.shard_count())
            .map(|shard| {
                router
                    .providers_of_shard(shard)
                    .iter()
                    .map(|&p| population.providers[p].capacity().units_per_sec())
                    .sum()
            })
            .collect();
        let providers = population.providers.len();
        let consumers = population.consumers.len();
        let mut replay = Replay {
            routing: config.routing.build(),
            shard_backlog: vec![0.0; router.shard_count()],
            shard_capacity,
            total_capacity: population.total_capacity(),
            initial_consumers: consumers,
            reputation: ReputationStore::neutral(),
            rng: StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17)),
            queue: EventQueue::new(),
            busy_until: SlotColumn::with_len(providers, 0.0),
            provider_strikes: SlotColumn::with_len(providers, 0),
            consumer_strikes: SlotColumn::with_len(consumers, 0),
            now: SimTime::ZERO,
            next_query_id: 0,
            next_sample_tick: 1,
            next_assessment_tick: 1,
            next_sync_tick: 1,
            next_rebalance_tick: 1,
            socket,
            series: MetricSeries::default(),
            response_times: Histogram::new(0.0, 120.0, 240),
            counts: ReplayCounts::default(),
            next_provider_departure: 0,
            next_consumer_departure: 0,
            next_migration: 0,
            infos: Vec::new(),
            shown_cis: Vec::new(),
            selected_indices: Vec::new(),
            selection: SelectionSet::new(),
            verdict_mismatches: 0,
            methods,
            router,
            population,
            log,
            config,
            tracer,
        };
        replay.schedule_initial_events();
        Ok(replay)
    }

    fn schedule_initial_events(&mut self) {
        let first = self.next_interarrival();
        if first.is_finite() {
            self.queue
                .schedule(SimTime::from_secs(first), Event::QueryArrival);
        }
        let c = &self.config;
        self.queue
            .schedule(SimTime::from_secs(c.sample_interval_secs), Event::Sample);
        self.queue.schedule(
            SimTime::from_secs(c.assessment_interval_secs),
            Event::Assessment,
        );
        if self.router.shard_count() > 1 {
            self.queue
                .schedule(SimTime::from_secs(c.sync_interval_secs), Event::SyncViews);
            if c.migration_enabled {
                self.queue.schedule(
                    SimTime::from_secs(c.rebalance_interval_secs),
                    Event::Rebalance,
                );
            }
        }
    }

    fn schedule_periodic(&mut self, which: Event) {
        let (tick, interval) = match which {
            Event::Sample => (&mut self.next_sample_tick, self.config.sample_interval_secs),
            Event::Assessment => (
                &mut self.next_assessment_tick,
                self.config.assessment_interval_secs,
            ),
            Event::SyncViews => (&mut self.next_sync_tick, self.config.sync_interval_secs),
            _ => (
                &mut self.next_rebalance_tick,
                self.config.rebalance_interval_secs,
            ),
        };
        *tick += 1;
        let at = *tick as f64 * interval;
        if at <= self.config.duration_secs {
            self.queue.schedule(SimTime::from_secs(at), which);
        }
    }

    fn next_interarrival(&mut self) -> f64 {
        let active = self.population.active_consumer_count();
        let consumer_fraction = if self.initial_consumers == 0 {
            0.0
        } else {
            active as f64 / self.initial_consumers as f64
        };
        let fraction = self
            .config
            .workload
            .fraction_at(self.now.as_secs(), self.config.duration_secs);
        let rate = arrival_rate(fraction, self.total_capacity, Population::mean_query_cost())
            * consumer_fraction;
        sample_interarrival(&mut self.rng, rate)
    }

    /// Runs the replay to the horizon, like `Simulator::run`.
    pub fn run(&mut self) {
        loop {
            self.tracer.enter(Layer::Events, NONE);
            let popped = self.queue.pop();
            self.tracer.exit();
            let Some((time, event)) = popped else {
                break;
            };
            if time.as_secs() > self.config.duration_secs {
                break;
            }
            self.now = time;
            match event {
                Event::QueryArrival => self.arrival(),
                Event::QueryCompletion {
                    provider,
                    issued_at,
                    work,
                    ..
                } => {
                    self.tracer.enter(Layer::Feedback, NONE);
                    self.population.providers[provider].complete(work);
                    if let Some(shard) = self.router.shard_of_provider(provider) {
                        self.shard_backlog[shard] -= work.value();
                    }
                    self.response_times.record((self.now - issued_at).as_secs());
                    self.counts.completed += 1;
                    self.tracer.exit();
                }
                Event::Sample => self.sample(),
                Event::Assessment => self.assess(),
                Event::SyncViews => {
                    self.tracer.enter(Layer::Sync, NONE);
                    self.router.sync_views();
                    self.schedule_periodic(Event::SyncViews);
                    self.tracer.exit();
                }
                Event::Rebalance => self.rebalance(),
                Event::ChurnDepart { .. } | Event::ChurnRejoin { .. } => {}
            }
        }
    }

    fn arrival(&mut self) {
        let qid = self.next_query_id;
        self.tracer.enter(Layer::Arrival, qid);

        self.tracer.enter(Layer::Events, qid);
        let dt = self.next_interarrival();
        if dt.is_finite() {
            let at = self.now + SimDuration::from_secs(dt);
            if at.as_secs() <= self.config.duration_secs {
                self.queue.schedule(at, Event::QueryArrival);
            }
        }
        let consumers = self.population.active_consumer_ids();
        if consumers.is_empty() {
            self.tracer.exit();
            self.tracer.exit();
            return;
        }
        let consumer = consumers[self.rng.random_range(0..consumers.len())];
        let class = if self.rng.random_bool(0.5) {
            QueryClass::Light
        } else {
            QueryClass::Heavy
        };
        let mut query = Query::single(QueryId::new(qid), consumer, class, self.now);
        query.n = self.config.query_n;
        self.next_query_id = self.next_query_id.wrapping_add(1);
        self.counts.issued += 1;
        self.tracer.exit();

        self.tracer.enter(Layer::Route, qid);
        let preferred = self.routing.route(
            consumer,
            &self.router,
            ShardLoadView {
                backlog: &self.shard_backlog,
                capacity: &self.shard_capacity,
            },
        );
        let shard_count = self.router.shard_count();
        let shard = (0..shard_count)
            .map(|offset| (preferred + offset) % shard_count)
            .find(|&s| !self.router.providers_of_shard(s).is_empty());
        self.tracer.exit();
        let Some(shard) = shard else {
            self.counts.unallocated += 1;
            self.tracer.exit();
            return;
        };

        if self.socket.is_some() {
            self.gather_socket(&query, shard);
        } else {
            self.gather_inline(&query, shard);
        }
        self.allocate_and_record(&query, shard);
        self.tracer.exit();
    }

    /// Definitions 7 and 8 by direct calls, one layer at a time.
    fn gather_inline(&mut self, query: &Query, shard: usize) {
        let qid = query.id.raw();
        let candidates = self.router.providers_of_shard(shard);
        self.tracer.enter(Layer::ConsumerIntention, qid);
        let consumer = &self.population.consumers[query.consumer];
        self.infos.clear();
        self.infos.extend(candidates.iter().map(|&p| {
            CandidateInfo::new(p).with_consumer_intention(consumer.intention_for(
                query,
                p,
                &self.reputation,
            ))
        }));
        self.tracer.exit();

        self.tracer.enter(Layer::ProviderIntention, qid);
        let now = self.now;
        for info in &mut self.infos {
            let (pi, utilization) =
                self.population.providers[info.provider].intention_and_utilization(query, now);
            info.provider_intention = pi;
            info.utilization = utilization;
        }
        self.tracer.exit();
    }

    /// One wave over the loopback socket transport, with the host-side
    /// intention work timed on the host thread.
    fn gather_socket(&mut self, query: &Query, shard: usize) {
        let qid = query.id.raw();
        let now = self.now;
        let traced = self.tracer.enabled();
        let timings: HostTimings = Mutex::new(Vec::new());
        let timings_ref = &timings;
        // Building the wave (request, one boxed job per endpoint) is
        // transport work too: the gather span covers it.
        self.tracer.enter(Layer::Gather, qid);
        let candidates = self.router.providers_of_shard(shard).to_vec();
        let requests = [(query.clone(), candidates.clone())];

        let consumer_agent = &self.population.consumers[query.consumer];
        let reputation = &self.reputation;
        let mut jobs = WaveJobs::new();
        jobs.consumer(query.consumer, move |decoded| {
            let start = traced.then(Instant::now);
            let answers = decoded
                .iter()
                .map(|(q, cands)| {
                    (
                        q.id,
                        cands
                            .iter()
                            .map(|&p| (p, consumer_agent.intention_for(q, p, reputation)))
                            .collect(),
                    )
                })
                .collect();
            if let Some(start) = start {
                let entry = (Layer::ConsumerIntention, start, Instant::now());
                timings_ref
                    .lock()
                    .expect("no host job panics while holding the timings")
                    .push(entry);
            }
            answers
        });
        for (p, agent) in self.population.providers.iter_mut_of(&candidates) {
            jobs.provider(p, move |decoded, _bids| {
                let start = traced.then(Instant::now);
                let answers = decoded
                    .iter()
                    .map(|q| {
                        let (intention, utilization) = agent.intention_and_utilization(q, now);
                        ProviderAnswer {
                            query: q.id,
                            intention,
                            utilization,
                            bid: None,
                        }
                    })
                    .collect();
                if let Some(start) = start {
                    let entry = (Layer::ProviderIntention, start, Instant::now());
                    timings_ref
                        .lock()
                        .expect("no host job panics while holding the timings")
                        .push(entry);
                }
                answers
            });
        }

        let socket = self.socket.as_mut().expect("socket workload");
        let gathered = socket.gather(&requests, jobs);
        let timings = timings
            .into_inner()
            .expect("no host job panics while holding the timings");
        for (layer, start, end) in timings {
            self.tracer.closed(layer, start, end, qid);
        }
        self.tracer.exit();
        self.infos.clear();
        self.infos.extend(gathered.into_iter().flatten());
    }

    /// Algorithm 1, lines 6–10: score, record the δ windows, feed the
    /// outcome back to the participants and enqueue the query.
    fn allocate_and_record(&mut self, query: &Query, shard: usize) {
        let qid = query.id.raw();
        let now = self.now;
        self.counts.allocated += 1;
        self.counts.candidates += self.infos.len() as u64;

        self.tracer.enter(Layer::Score, qid);
        let allocation =
            self.methods[shard].allocate(query, &self.infos, self.router.mediator(shard).state());
        self.tracer.exit();

        self.tracer.enter(Layer::Record, qid);
        self.router
            .mediator_mut(shard)
            .state_mut()
            .record_allocation(query, &self.infos, &allocation);
        self.tracer.exit();

        self.tracer.enter(Layer::Feedback, qid);
        self.selection.rebuild(&allocation);
        self.shown_cis.clear();
        self.shown_cis
            .extend(self.infos.iter().map(|i| i.consumer_intention));
        self.selected_indices.clear();
        let selection = &self.selection;
        self.selected_indices.extend(
            self.infos
                .iter()
                .enumerate()
                .filter(|(_, i)| selection.contains(i.provider))
                .map(|(idx, _)| idx),
        );
        self.population.consumers[query.consumer].record_allocation(
            &self.shown_cis,
            &self.selected_indices,
            query.n,
        );
        for info in &self.infos {
            let performed = self.selection.contains(info.provider);
            self.population.providers[info.provider].record_proposal(
                query,
                info.provider_intention,
                performed,
            );
        }
        self.shard_backlog[shard] += query.cost().value() * allocation.selected.len() as f64;
        for &p in &allocation.selected {
            let processing = self.population.providers[p].assign(query, now);
            let start = self.busy_until[p].max(now.as_secs());
            let finish = start + processing.as_secs();
            self.busy_until[p] = finish;
            self.queue.schedule(
                SimTime::from_secs(finish),
                Event::QueryCompletion {
                    provider: p,
                    query: query.id,
                    issued_at: query.issued_at,
                    work: query.cost(),
                },
            );
        }
        self.tracer.exit();
    }

    fn sample(&mut self) {
        self.tracer.enter(Layer::Sample, NONE);
        let now = self.now;
        let mut sat_intention = Vec::new();
        let mut sat_preference = Vec::new();
        let mut alloc_sat_pref = Vec::new();
        let mut alloc_sat_int = Vec::new();
        let mut utilizations = Vec::new();
        for p in self
            .population
            .providers
            .values_mut()
            .filter(|p| !p.has_departed())
        {
            sat_intention.push(p.smoothed_satisfaction());
            sat_preference.push(p.preference_satisfaction());
            alloc_sat_pref.push(p.preference_allocation_satisfaction());
            alloc_sat_int.push(p.allocation_satisfaction());
            utilizations.push(p.utilization(now).value());
        }
        let mut consumer_alloc_sat = Vec::new();
        let mut consumer_sat = Vec::new();
        for c in self
            .population
            .consumers
            .values()
            .filter(|c| !c.has_departed())
        {
            consumer_alloc_sat.push(c.allocation_satisfaction());
            consumer_sat.push(c.satisfaction());
        }
        let workload_fraction = self
            .config
            .workload
            .fraction_at(now.as_secs(), self.config.duration_secs);
        let s = &mut self.series;
        s.provider_satisfaction_intention_mean
            .push(now, mean(&sat_intention));
        s.provider_satisfaction_preference_mean
            .push(now, mean(&sat_preference));
        s.provider_allocation_satisfaction_preference_mean
            .push(now, mean(&alloc_sat_pref));
        s.provider_allocation_satisfaction_intention_mean
            .push(now, mean(&alloc_sat_int));
        s.provider_satisfaction_fairness
            .push(now, fairness(&sat_intention));
        s.consumer_allocation_satisfaction_mean
            .push(now, mean(&consumer_alloc_sat));
        s.consumer_satisfaction_mean.push(now, mean(&consumer_sat));
        s.consumer_satisfaction_fairness
            .push(now, fairness(&consumer_sat));
        s.utilization_mean.push(now, mean(&utilizations));
        s.utilization_fairness.push(now, fairness(&utilizations));
        s.workload_fraction.push(now, workload_fraction);
        s.active_providers.push(now, sat_intention.len() as f64);
        s.active_consumers
            .push(now, consumer_alloc_sat.len() as f64);

        let shard_count = self.router.shard_count();
        if s.shard_utilization.len() != shard_count {
            s.shard_utilization
                .resize_with(shard_count, TimeSeries::new);
            s.shard_satisfaction
                .resize_with(shard_count, TimeSeries::new);
            s.shard_allocation_counts
                .resize_with(shard_count, TimeSeries::new);
        }
        let mut shard_means = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let providers = self.router.providers_of_shard(shard);
            let mut utilization_sum = 0.0;
            let mut satisfaction_sum = 0.0;
            for &p in providers {
                let provider = &mut self.population.providers[p];
                utilization_sum += provider.utilization(now).value();
                satisfaction_sum += provider.smoothed_satisfaction();
            }
            let count = providers.len();
            let (utilization, satisfaction) = if count == 0 {
                (0.0, 0.0)
            } else {
                (
                    utilization_sum / count as f64,
                    satisfaction_sum / count as f64,
                )
            };
            let s = &mut self.series;
            s.shard_utilization[shard].push(now, utilization);
            s.shard_satisfaction[shard].push(now, satisfaction);
            s.shard_allocation_counts[shard].push(
                now,
                self.router.mediator(shard).state().allocations() as f64,
            );
            if count > 0 {
                shard_means.push(utilization);
            }
        }
        self.series
            .shard_utilization_spread
            .push(now, spread(&shard_means));
        self.schedule_periodic(Event::Sample);
        self.tracer.exit();
    }

    /// The departure assessment: every rule is evaluated as the engine
    /// does; the departures themselves are the engine's, from its log.
    fn assess(&mut self) {
        self.tracer.enter(Layer::Assess, NONE);
        let now = self.now;
        let fraction = self
            .config
            .workload
            .fraction_at(now.as_secs(), self.config.duration_secs);
        let optimal_utilization = fraction.max(0.05);
        let warmed_up = now.as_secs() >= self.config.departure_warmup_secs;
        let mut leaving_providers = Vec::new();
        if warmed_up && self.config.providers_may_leave {
            let rule = self.config.provider_departure;
            for (id, provider) in self.population.providers.iter_mut() {
                if provider.has_departed() {
                    continue;
                }
                let utilization = provider.utilization(now).value();
                let verdict = rule.evaluate(
                    provider.strict_satisfaction(),
                    provider.adequation(),
                    utilization,
                    optimal_utilization,
                    provider.proposed_queries(),
                );
                match verdict {
                    Some(reason) => {
                        self.provider_strikes[id] += 1;
                        let required = if reason == DepartureReason::Overutilization {
                            1
                        } else {
                            rule.required_consecutive.max(1)
                        };
                        if self.provider_strikes[id] >= required {
                            leaving_providers.push(id);
                        }
                    }
                    None => self.provider_strikes[id] = 0,
                }
            }
        }
        let mut leaving_consumers = Vec::new();
        if warmed_up && self.config.consumers_may_leave {
            let rule = self.config.consumer_departure;
            for (id, consumer) in self.population.consumers.iter() {
                if consumer.has_departed() {
                    continue;
                }
                let verdict = rule.evaluate(
                    consumer.satisfaction(),
                    consumer.adequation(),
                    consumer.issued_queries(),
                );
                match verdict {
                    Some(_) => {
                        self.consumer_strikes[id] += 1;
                        if self.consumer_strikes[id] >= rule.required_consecutive.max(1) {
                            leaving_consumers.push(id);
                        }
                    }
                    None => self.consumer_strikes[id] = 0,
                }
            }
        }

        // Apply the engine's departures for this instant.
        let log = self.log;
        let mut logged_providers = Vec::new();
        while let Some(record) = log.provider_departures.get(self.next_provider_departure) {
            if record.time_secs != now.as_secs() {
                break;
            }
            self.next_provider_departure += 1;
            logged_providers.push(record.provider);
            let id = record.provider;
            self.population.depart_provider(id);
            if let Some(shard) = self.router.shard_of_provider(id) {
                let agent = &self.population.providers[id];
                self.shard_capacity[shard] -= agent.capacity().units_per_sec();
                self.shard_backlog[shard] -= agent.backlog().value();
            }
            self.router.remove_provider(id);
            if let Some(socket) = &mut self.socket {
                socket.deregister_provider(id);
            }
        }
        let mut logged_consumers = Vec::new();
        while let Some(record) = log.consumer_departures.get(self.next_consumer_departure) {
            if record.time_secs != now.as_secs() {
                break;
            }
            self.next_consumer_departure += 1;
            logged_consumers.push(record.consumer);
            self.population.depart_consumer(record.consumer);
            self.router.remove_consumer(record.consumer);
            if let Some(socket) = &mut self.socket {
                socket.deregister_consumer(record.consumer);
            }
        }
        if logged_providers != leaving_providers || logged_consumers != leaving_consumers {
            self.verdict_mismatches += 1;
        }
        self.schedule_periodic(Event::Assessment);
        self.tracer.exit();
    }

    /// A rebalancing round: the migrations the engine decided on, taken
    /// from the report's log. The engine's donor selection is not
    /// replayed, so this span times the moves and nothing else.
    fn rebalance(&mut self) {
        self.tracer.enter(Layer::Rebalance, NONE);
        self.schedule_periodic(Event::Rebalance);
        self.counts.rebalance_rounds += 1;
        let log = self.log;
        while let Some(record) = log.migrations.get(self.next_migration) {
            if record.time_secs != self.now.as_secs() {
                break;
            }
            self.next_migration += 1;
            if let Some(migration) = self
                .router
                .migrate_provider(record.provider, record.to_shard)
            {
                let agent = &self.population.providers[record.provider];
                let capacity = agent.capacity().units_per_sec();
                self.shard_capacity[migration.from] -= capacity;
                self.shard_capacity[migration.to] += capacity;
                let backlog = agent.backlog().value();
                self.shard_backlog[migration.from] -= backlog;
                self.shard_backlog[migration.to] += backlog;
                self.counts.migrations += 1;
            }
        }
        self.tracer.exit();
    }

    /// Counters of the replayed run.
    pub fn counts(&self) -> ReplayCounts {
        self.counts
    }

    /// Synchronization rounds the replay ran.
    pub fn sync_rounds(&self) -> u64 {
        self.router.sync_rounds()
    }

    /// Where the replayed run differs from the engine's report; empty
    /// when the replay reproduced it exactly.
    pub fn fidelity(&self) -> Vec<String> {
        let log = self.log;
        let mut diffs = Vec::new();
        let mut check = |what: &str, replayed: u64, engine: u64| {
            if replayed != engine {
                diffs.push(format!("{what}: replay {replayed}, engine {engine}"));
            }
        };
        check("issued", self.counts.issued, log.issued_queries);
        check("completed", self.counts.completed, log.completed_queries);
        check(
            "unallocated",
            self.counts.unallocated,
            log.unallocated_queries,
        );
        check("sync rounds", self.router.sync_rounds(), log.sync_rounds);
        check(
            "rebalance rounds",
            self.counts.rebalance_rounds,
            log.rebalance_rounds,
        );
        check(
            "migrations",
            self.counts.migrations,
            log.migrations.len() as u64,
        );
        check(
            "provider departures",
            self.next_provider_departure as u64,
            log.provider_departures.len() as u64,
        );
        check(
            "consumer departures",
            self.next_consumer_departure as u64,
            log.consumer_departures.len() as u64,
        );
        check("departure verdict mismatches", self.verdict_mismatches, 0);
        if self.router.allocations_per_shard() != log.shard_allocations {
            diffs.push("per-shard allocations differ".to_string());
        }
        let (a, b) = (&self.series, &log.series);
        let pairs = [
            (
                &a.provider_satisfaction_intention_mean,
                &b.provider_satisfaction_intention_mean,
            ),
            (
                &a.provider_satisfaction_preference_mean,
                &b.provider_satisfaction_preference_mean,
            ),
            (
                &a.provider_allocation_satisfaction_preference_mean,
                &b.provider_allocation_satisfaction_preference_mean,
            ),
            (
                &a.provider_allocation_satisfaction_intention_mean,
                &b.provider_allocation_satisfaction_intention_mean,
            ),
            (
                &a.provider_satisfaction_fairness,
                &b.provider_satisfaction_fairness,
            ),
            (
                &a.consumer_allocation_satisfaction_mean,
                &b.consumer_allocation_satisfaction_mean,
            ),
            (&a.consumer_satisfaction_mean, &b.consumer_satisfaction_mean),
            (
                &a.consumer_satisfaction_fairness,
                &b.consumer_satisfaction_fairness,
            ),
            (&a.utilization_mean, &b.utilization_mean),
            (&a.utilization_fairness, &b.utilization_fairness),
            (&a.workload_fraction, &b.workload_fraction),
            (&a.active_providers, &b.active_providers),
            (&a.active_consumers, &b.active_consumers),
        ];
        let bits = |s: &TimeSeries| -> Vec<(u64, u64)> {
            s.points()
                .iter()
                .map(|p| (p.time.to_bits(), p.value.to_bits()))
                .collect()
        };
        let differing = pairs.iter().filter(|(x, y)| bits(x) != bits(y)).count();
        if differing > 0 {
            diffs.push(format!("{differing} of 13 digest series differ"));
        }
        if self.response_times.mean().to_bits() != log.response_times.mean().to_bits() {
            diffs.push("mean response time differs".to_string());
        }
        diffs
    }
}
