//! One benchmark run: set-up, then four phases (serve, prep, train, eval)
//! interleaved step by step until `--seconds` have passed. Only the
//! public library API is driven.
//!
//! Interleaving and medians are what make the numbers repeat on a shared
//! machine: its speed drifts by tens of percent over a few seconds, so a
//! phase timed over one contiguous slice of the run reports whichever
//! speed that slice had. Spread over the whole run, every phase sees the
//! same machine, and each metric is the median over the phase's steps (or
//! serving slices), which ignores the steps a stall happened to hit.

use crate::checks::{above_chance, same_answers, same_eval, Checks};
use crate::metrics::Values;
use crate::spec::{Spec, AUC_EPOCHS, EDGES_PER_BATCH, PROBES, REPLICAS, TRAIN_LINKS};
use crate::stats::{mean, median, min, quantile, timed, timed_unstolen, SplitMix, StepTime};
use am_dgcnn::obs::{Obs, Report};
use am_dgcnn::{
    predict_probs, DgcnnModel, EvalMetrics, Experiment, FeatureConfig, ModelConfig, SampleStore,
    Session, StoreKey,
};
use amdgcnn_data::Dataset;
use amdgcnn_graph::{graph_digest, GraphMutation};
use amdgcnn_serve::{
    save_model, ArtifactMeta, Fleet, FleetConfig, FleetStats, GraphStore, InferenceEngine,
    LinkQuery, ServerStats,
};
use amdgcnn_tensor::ParamStore;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Closed-loop client threads (never more than the machine's cores).
const CLIENTS: usize = 2;
/// Minimum repetitions of a repeated step, so its median has a middle.
const MIN_REPS: usize = 3;
/// Length of one serving step.
const SERVE_SLICE: Duration = Duration::from_secs(1);
/// Unrecorded serving before the first step, to fill the fleet's caches.
const SERVE_WARM_UP: Duration = Duration::from_secs(1);
/// Share of the prep phase's time spent on cold sessions.
const COLD_SHARE: f64 = 0.75;
/// Pairs timed through a standalone engine for the hit/miss split.
const ENGINE_PROBES: usize = 64;
/// The model seed is part of the workload, so `test_macro_auc` is one
/// number for the code under test rather than a sample over seeds.
const MODEL_SEED: u64 = 17;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks.
    pub checks: Checks,
    /// Operations attempted: queries, rolls, set-ups, session builds,
    /// epochs, evaluations.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end and per-layer values.
    pub values: Values,
    /// Reproducibility record, one line each.
    pub record: Vec<String>,
}

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `spec` for `seconds` of interleaved phases. `trace` turns on the
/// library's obs registries and the per-layer measurements; `scratch`
/// receives the WAL and the sample store.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    out.record.push(format!(
        "workload={} seed={seed} seconds={seconds} trace={} nproc={} \
         rayon=offline shim, par_iter runs sequentially",
        spec.name,
        trace as u8,
        nproc()
    ));
    let registry = || {
        if trace {
            Obs::enabled()
        } else {
            Obs::disabled()
        }
    };
    let serve_obs = registry();
    let setup = set_up(spec, &serve_obs, scratch, &mut out);
    let ds = &setup.ds;

    let mut prep = Prep::new(spec, ds, scratch, registry());
    let train_obs = registry();
    let session = prep.cold_session(&train_obs);
    let twin = trace.then(|| {
        // The untraced twin for `obs.trace_overhead`, read back from the
        // store the first cold session wrote.
        experiment(spec, &Obs::disabled(), &prep.path)
            .session(ds, train_links(ds))
            .expect("untraced twin session from the store")
    });
    let mut train = Train::new(session, twin);
    let mut eval = Eval::default();
    let mut serve = Serve::new(spec, seed, &setup);

    let shares = [
        spec.shares.serve,
        spec.shares.prep,
        spec.shares.train,
        spec.shares.eval,
    ];
    let mut used = [0.0f64; 4];
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let wanting = [
            serve.wants_more(),
            prep.wants_more(),
            train.wants_more(),
            eval.wants_more(),
        ];
        let open = elapsed < seconds;
        if !open && !wanting.contains(&true) {
            break;
        }
        // The phase furthest behind its share of the elapsed time.
        let phase = (0..4)
            .filter(|&p| open || wanting[p])
            .max_by(|&a, &b| {
                let lag = |p: usize| shares[p] * elapsed - used[p];
                lag(a).total_cmp(&lag(b))
            })
            .expect("some phase is open");
        let t = Instant::now();
        match phase {
            0 => serve.step(),
            1 => prep.step(),
            2 => train.step(),
            _ => eval.step(&train.session),
        }
        used[phase] += t.elapsed().as_secs_f64();
    }

    serve.finish(trace, &mut out);
    prep.finish(&train.session, trace, &mut out);
    let session = train.finish(&train_obs, &mut out);
    eval.finish(&session, trace, &mut out);
    setup.fleet.shutdown();
    out.values.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The training links of every session: the first `TRAIN_LINKS` (the
/// test split is used whole).
fn train_links(ds: &Dataset) -> Option<usize> {
    Some(TRAIN_LINKS.min(ds.train.len()))
}

/// The experiment every session is built from.
fn experiment(spec: &Spec, obs: &Obs, store: &Path) -> Experiment {
    Experiment::builder()
        .gnn(spec.gnn)
        .hyper(spec.hyper)
        .seed(MODEL_SEED)
        .prefetch(nproc())
        .observe(obs.clone())
        .sample_store(store)
        .build()
}

struct Setup {
    ds: Dataset,
    artifact: Vec<u8>,
    fleet: Fleet,
    graph: GraphStore,
}

/// Dataset generation, the model at its seeded initialisation saved as an
/// artifact, a started fleet and an empty graph store, `SETUP_REPS` times
/// over. The artifact holds the parameters every session of `experiment`
/// starts from.
fn set_up(spec: &Spec, serve_obs: &Obs, scratch: &Path, out: &mut Outcome) -> Setup {
    let wal = scratch.join("graph.wal");
    let mut gen_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            prev.fleet.shutdown();
        }
        let _ = std::fs::remove_file(&wal);
        let start = Instant::now();
        let (generate, ds) = timed(|| spec.data.generate());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let mut cfg =
            ModelConfig::dgcnn_defaults(spec.gnn, fcfg.dim(), ds.edge_attrs.dim(), ds.num_classes);
        cfg.hidden_dim = spec.hyper.hidden_dim;
        cfg.sort_k = spec.hyper.sort_k;
        cfg.num_relations = ds.graph.num_edge_types();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(MODEL_SEED ^ 0x5eed_1a7e);
        let model = DgcnnModel::new(cfg, &mut ps, &mut rng);
        let meta = ArtifactMeta::describe(&ds, &model.cfg, &fcfg, 0).expect("artifact");
        let mut artifact = Vec::new();
        save_model(&meta, &ps, &mut artifact).expect("save artifact");
        let fleet_cfg = FleetConfig {
            replicas: REPLICAS,
            cache_capacity: spec.serve.cache_capacity,
            ..FleetConfig::default()
        };
        let fleet = Fleet::start_with(
            artifact.clone(),
            ds.clone(),
            fleet_cfg,
            serve_obs.clone(),
            Vec::new(),
        )
        .expect("fleet start");
        let graph = GraphStore::create(ds.clone(), &wal)
            .expect("graph store")
            .with_obs(serve_obs.clone());
        setup_s.push(start.elapsed().as_secs_f64());
        gen_s.push(generate);
        out.attempted += 1;
        last = Some(Setup {
            ds,
            artifact,
            fleet,
            graph,
        });
    }
    let setup = last.expect("SETUP_REPS >= 1");
    out.values.set("setup_s", median(&setup_s));
    out.values.set("data.generate_ms", median(&gen_s) * 1e3);
    let digest = graph_digest(&setup.ds.graph);
    let pinned = spec.data.pinned_digest();
    out.record.push(format!(
        "dataset={} graph_digest={digest:08x} {}",
        setup.ds.name,
        match pinned {
            Some(_) => "(pinned)",
            None => "(not pinned: this generator builds a different graph in every process)",
        }
    ));
    if let Some(want) = pinned {
        out.checks.require(digest == want, || {
            format!("graph digest {digest:08x}, expected {want:08x}")
        });
    }
    setup
}

/// A Zipf-skewed stream over a fixed set of distinct pairs.
struct Stream {
    pairs: Vec<LinkQuery>,
    cdf: Vec<f64>,
}

impl Stream {
    /// `n` distinct pairs: the dataset's links in seeded order, topped up
    /// with random node pairs when the dataset has fewer.
    fn new(ds: &Dataset, n: usize, exponent: f64, rng: &mut SplitMix) -> Self {
        let mut seen = HashSet::new();
        let mut pairs: Vec<LinkQuery> = ds
            .train
            .iter()
            .chain(&ds.test)
            .map(|l| (l.u, l.v))
            .filter(|&q| seen.insert(q))
            .collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        pairs.truncate(n);
        let nodes = ds.graph.num_nodes() as u64;
        while pairs.len() < n {
            let q = distinct_nodes(rng, nodes);
            if seen.insert(q) {
                pairs.push(q);
            }
        }
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-exponent);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        Self { pairs, cdf }
    }

    fn draw(&self, rng: &mut SplitMix) -> LinkQuery {
        let u = rng.next_f64();
        self.pairs[self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.pairs.len() - 1)]
    }
}

fn distinct_nodes(rng: &mut SplitMix, nodes: u64) -> LinkQuery {
    let u = rng.below(nodes);
    let v = (u + 1 + rng.below(nodes - 1)) % nodes;
    (u as u32, v as u32)
}

/// Serving counters summed over the fleet's replica generations (a roll
/// replaces every replica, and with it the replica's counters).
///
/// A roll drops the outgoing replicas' counters, so they are read just
/// before it. What those replicas serve between that read and their
/// replacement is not counted; `server.stats_coverage` reports the share
/// of the fleet's answers the sums do cover.
#[derive(Debug, Default, Clone, Copy)]
struct ServeTotals {
    queries: u64,
    batches: u64,
    batch_ns: u64,
    hits: u64,
    misses: u64,
    dedup: u64,
    stale: u64,
    migrated: u64,
    invalidated: u64,
}

impl ServeTotals {
    fn of(s: &ServerStats) -> Self {
        Self {
            queries: s.queries_served,
            batches: s.batches,
            batch_ns: s.latency_hist.sum_ns,
            hits: s.cache_hits,
            misses: s.cache_misses,
            dedup: s.dedup_hits,
            stale: s.stale_serves,
            migrated: s.cache_migrated,
            invalidated: s.cache_invalidated,
        }
    }

    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            queries: f(self.queries, o.queries),
            batches: f(self.batches, o.batches),
            batch_ns: f(self.batch_ns, o.batch_ns),
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            dedup: f(self.dedup, o.dedup),
            stale: f(self.stale, o.stale),
            migrated: f(self.migrated, o.migrated),
            invalidated: f(self.invalidated, o.invalidated),
        }
    }
}

/// Serving phase: each step runs the closed-loop clients for one slice
/// while the main thread commits a mutation batch and rolls the fleet
/// every `roll_every` answers.
struct Serve<'a> {
    spec: &'a Spec,
    setup: &'a Setup,
    stream: Stream,
    slices: u64,
    seed: u64,
    /// Answers recorded so far (statistics only: publishes no other data).
    answered: AtomicU64,
    /// One message per `roll_every` recorded answers, from the clients to
    /// the thread that rolls the graph, which blocks on it in between.
    roll_due: (Sender<()>, Receiver<()>),
    /// Latencies of answered queries, one list per recorded slice.
    latencies_ns: Vec<Vec<u64>>,
    failed: u64,
    /// Length of each recorded slice.
    recorded_s: Vec<f64>,
    /// Fleet counters when recording started.
    base: FleetStats,
    rolls: Rolls,
}

/// Mutation batches and fleet rolls.
struct Rolls {
    rng: SplitMix,
    /// Counters of replica generations already rolled away.
    rolled: ServeTotals,
    apply_ms: Vec<f64>,
    roll_graph_ms: Vec<f64>,
    total_ms: Vec<f64>,
    region_nodes: Vec<f64>,
    failures: Vec<String>,
}

impl<'a> Serve<'a> {
    fn new(spec: &'a Spec, seed: u64, setup: &'a Setup) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5e7e_0001);
        let stream = Stream::new(
            &setup.ds,
            spec.serve.distinct_pairs,
            spec.serve.zipf_exponent,
            &mut rng,
        );
        let mut serve = Self {
            spec,
            setup,
            stream,
            slices: 0,
            seed,
            answered: AtomicU64::new(0),
            roll_due: mpsc::channel(),
            latencies_ns: Vec::new(),
            failed: 0,
            recorded_s: Vec::new(),
            base: setup.fleet.stats(),
            rolls: Rolls {
                rng,
                rolled: ServeTotals::default(),
                apply_ms: Vec::new(),
                roll_graph_ms: Vec::new(),
                total_ms: Vec::new(),
                region_nodes: Vec::new(),
                failures: Vec::new(),
            },
        };
        serve.slice(SERVE_WARM_UP, false);
        serve.base = setup.fleet.stats();
        serve
    }

    fn wants_more(&self) -> bool {
        self.rolls.total_ms.is_empty() && self.rolls.failures.is_empty()
    }

    fn step(&mut self) {
        self.slice(SERVE_SLICE, true);
    }

    /// Serve for `length`; when recording, keep latencies and roll the
    /// graph on schedule.
    fn slice(&mut self, length: Duration, record: bool) {
        self.slices += 1;
        let slice_seed = self.seed ^ (self.slices << 32);
        let (setup, answered, rolls) = (self.setup, &self.answered, &mut self.rolls);
        let (due_tx, due_rx) = (&self.roll_due.0, &self.roll_due.1);
        let roll_every = self.spec.serve.roll_every;
        let stop = AtomicBool::new(false);
        let logs: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS.min(nproc()))
                .map(|c| {
                    let (stream, stop, fleet) = (&self.stream, &stop, &setup.fleet);
                    let mut rng = SplitMix::new(slice_seed ^ (c as u64 + 1).wrapping_mul(0xc1e7));
                    let due = due_tx.clone();
                    scope.spawn(move || {
                        let (mut latencies, mut failed) = (Vec::new(), 0u64);
                        while !stop.load(Ordering::SeqCst) {
                            let q = stream.draw(&mut rng);
                            let (s, result) = timed(|| fleet.query(q));
                            match result {
                                Ok(_) if record => {
                                    latencies.push((s * 1e9) as u64);
                                    if (answered.fetch_add(1, Ordering::Relaxed) + 1) % roll_every
                                        == 0
                                    {
                                        due.send(()).expect("the serving phase holds the receiver");
                                    }
                                }
                                Ok(_) => {}
                                Err(_) => failed += 1,
                            }
                        }
                        (latencies, failed)
                    })
                })
                .collect();
            let start = Instant::now();
            while let Some(left) = length.checked_sub(start.elapsed()) {
                if due_rx.recv_timeout(left).is_ok() {
                    rolls.roll(setup);
                }
            }
            stop.store(true, Ordering::SeqCst);
            if record {
                self.recorded_s.push(start.elapsed().as_secs_f64());
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        if record {
            let mut slice_ns = Vec::new();
            for (latencies, failed) in logs {
                slice_ns.extend(latencies);
                self.failed += failed;
            }
            self.latencies_ns.push(slice_ns);
        }
    }
}

impl Rolls {
    /// Commit a mutation batch and roll the fleet onto it.
    fn roll(&mut self, setup: &Setup) {
        let graph = &setup.ds.graph;
        let (nodes, edge_types) = (graph.num_nodes() as u64, graph.num_edge_types() as u64);
        let batch: Vec<GraphMutation> = (0..EDGES_PER_BATCH)
            .map(|_| {
                let (u, v) = distinct_nodes(&mut self.rng, nodes);
                let etype = self.rng.below(edge_types) as u16;
                GraphMutation::AddEdge { u, v, etype }
            })
            .collect();
        let (apply_s, commit) = timed(|| setup.graph.apply(&batch, None));
        let commit = match commit {
            Ok(commit) => commit,
            Err(e) => return self.failures.push(format!("apply: {e}")),
        };
        let fleet = &setup.fleet;
        // The outgoing replicas' counters, before the roll drops them.
        self.rolled = self
            .rolled
            .zip(ServeTotals::of(&fleet.stats().merged), u64::wrapping_add);
        let (roll_s, rolled) = timed(|| {
            fleet.roll_graph(
                Arc::clone(&commit.dataset),
                &commit.region,
                commit.generation,
            )
        });
        if let Err(e) = rolled {
            return self.failures.push(format!("roll_graph: {e}"));
        }
        self.apply_ms.push(apply_s * 1e3);
        self.roll_graph_ms.push(roll_s * 1e3);
        self.total_ms.push((apply_s + roll_s) * 1e3);
        self.region_nodes.push(commit.region.len() as f64);
    }
}

impl Serve<'_> {
    fn finish(&self, trace: bool, out: &mut Outcome) {
        let fleet = &self.setup.fleet;
        let last = fleet.stats();
        let rolls = &self.rolls;
        let totals = rolls
            .rolled
            .zip(ServeTotals::of(&last.merged), u64::wrapping_add)
            .zip(ServeTotals::of(&self.base.merged), u64::wrapping_sub);
        let ok = self.latencies_ns.iter().map(Vec::len).sum::<usize>() as u64;
        let made = rolls.total_ms.len() as u64;
        let refused = rolls.failures.len() as u64;
        out.attempted += ok + self.failed + made + refused;
        out.failed += self.failed + refused;
        out.checks.require(rolls.failures.is_empty(), || {
            format!("graph rolls failed: {:?}", rolls.failures)
        });
        out.checks.require(totals.stale == 0, || {
            format!("{} stale serves", totals.stale)
        });
        out.checks.require(ok > 0 && made > 0, || {
            format!("{ok} queries answered and {made} graph rolls made")
        });
        if ok == 0 || made == 0 {
            return;
        }
        self.check_probes(trace, out);

        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let hit_ratio = ratio(totals.hits, totals.hits + totals.misses);
        let answered = last.answered - self.base.answered;
        let coverage = ratio(totals.queries, answered);
        out.record.push(format!(
            "serve: {ok} answered, {} failed, {made} rolls (graph generation {}), \
             engine hit ratio {hit_ratio:.3} over {} of the fleet's {answered} answers \
             (the rest were served by outgoing replicas during a roll)",
            self.failed,
            fleet.graph_generation(),
            totals.queries,
        ));
        let v = &mut out.values;
        let served: Vec<(f64, &Vec<u64>)> = self
            .recorded_s
            .iter()
            .copied()
            .zip(&self.latencies_ns)
            .filter(|(_, l)| !l.is_empty())
            .collect();
        let per_slice = |f: &dyn Fn(f64, &[u64]) -> f64| {
            median(&served.iter().map(|&(s, l)| f(s, l)).collect::<Vec<_>>())
        };
        v.set("queries_per_s", per_slice(&|s, l| l.len() as f64 / s));
        v.set(
            "query_ms_p50",
            per_slice(&|_, l| quantile(l, 0.50) as f64 / 1e6),
        );
        v.set(
            "query_ms_p90",
            per_slice(&|_, l| quantile(l, 0.90) as f64 / 1e6),
        );
        v.set("roll_ms_p50", median(&rolls.total_ms));
        v.set("answered_fraction", ok as f64 / (ok + self.failed) as f64);
        if !trace {
            return;
        }
        let engine_ms = ratio(totals.batch_ns, totals.batches) / 1e6;
        let latency_ms: Vec<f64> = self
            .latencies_ns
            .iter()
            .flatten()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        // Fleet replicas keep their queue-wait span in a private registry,
        // so the wait is derived: client latency less the engine's batch
        // time.
        v.set(
            "server.queue_wait_ms_mean",
            (mean(&latency_ms) - engine_ms).max(0.0),
        );
        v.set(
            "server.batch_size_mean",
            ratio(totals.queries, totals.batches),
        );
        v.set("engine.ms_per_batch", engine_ms);
        v.set("server.stats_coverage", coverage);
        v.set("engine.hit_ratio", hit_ratio);
        v.set("engine.dedup_hits", totals.dedup as f64);
        v.set("graph_store.apply_ms_p50", median(&rolls.apply_ms));
        v.set("fleet.roll_graph_ms_p50", median(&rolls.roll_graph_ms));
        v.set("roll.region_nodes_mean", mean(&rolls.region_nodes));
        v.set(
            "roll.kept_fraction",
            ratio(totals.migrated, totals.migrated + totals.invalidated),
        );
        v.set("serve.stale_serves", totals.stale as f64);
        v.set(
            "fleet.failovers",
            (last.failovers - self.base.failovers) as f64,
        );
        v.set("fleet.hedges", (last.hedges - self.base.hedges) as f64);
    }

    /// After the last roll, the fleet's answers for a fixed probe set
    /// must equal a fresh engine's on the same generation, bit for bit.
    /// A traced run then times known-cold and known-warm queries on a
    /// second fresh engine.
    fn check_probes(&self, trace: bool, out: &mut Outcome) {
        let (fleet, pairs) = (&self.setup.fleet, &self.stream.pairs);
        let half = PROBES / 2;
        let probes: Vec<LinkQuery> = pairs[..half]
            .iter()
            .chain(&pairs[pairs.len() - half..])
            .copied()
            .collect();
        let served: Result<Vec<Vec<f32>>, _> = probes.iter().map(|&q| fleet.query(q)).collect();
        let ds = fleet.dataset();
        out.checks
            .require(graph_digest(&ds.graph) == self.setup.graph.digest(), || {
                "the fleet serves another graph than the graph store holds".into()
            });
        let engine = |capacity| {
            InferenceEngine::load(self.setup.artifact.as_slice(), (*ds).clone(), capacity)
                .expect("fresh engine")
                .with_graph_generation(fleet.graph_generation())
        };
        let expected = engine(self.spec.serve.cache_capacity).predict(&probes);
        match served {
            Ok(served) => out.checks.require(same_answers(&served, &expected), || {
                "served answers differ from a fresh engine on the same generation".into()
            }),
            Err(e) => out
                .checks
                .require(false, || format!("probe query failed: {e}")),
        }
        if !trace {
            return;
        }
        let probe = engine(ENGINE_PROBES);
        let (mut miss, mut hit) = (Vec::new(), Vec::new());
        for &q in pairs.iter().rev().take(ENGINE_PROBES) {
            miss.push(timed(|| probe.predict_one(q)).0 * 1e3);
            hit.push(timed(|| probe.predict_one(q)).0 * 1e3);
        }
        out.values.set("engine.miss_ms_p50", median(&miss));
        out.values.set("engine.hit_ms_p50", median(&hit));
    }
}

/// Prep phase: cold sessions that write the sample store, and warm
/// sessions that read it back.
struct Prep<'a> {
    spec: &'a Spec,
    ds: &'a Dataset,
    path: PathBuf,
    cold_obs: Obs,
    cold: Experiment,
    warm: Experiment,
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    cold_eval: Option<EvalMetrics>,
    warm_eval: Option<EvalMetrics>,
}

impl<'a> Prep<'a> {
    fn new(spec: &'a Spec, ds: &'a Dataset, scratch: &Path, cold_obs: Obs) -> Self {
        let path = scratch.join("samples.amss");
        Self {
            spec,
            ds,
            cold: experiment(spec, &cold_obs, &path),
            warm: experiment(spec, &Obs::disabled(), &path),
            path,
            cold_obs,
            cold_s: Vec::new(),
            warm_s: Vec::new(),
            cold_eval: None,
            warm_eval: None,
        }
    }

    /// The first cold session, kept for training: timed like every other
    /// cold session, but its trainer reports to `train_obs`.
    fn cold_session(&mut self, train_obs: &Obs) -> Session {
        let mut session = self.build_cold();
        session.trainer.attach_obs(train_obs.clone());
        self.cold_eval = Some(session.evaluate());
        session
    }

    fn build_cold(&mut self) -> Session {
        let _ = std::fs::remove_file(&self.path);
        let (s, session) = timed(|| self.cold.session(self.ds, train_links(self.ds)));
        self.cold_s.push(s);
        session.expect("cold session writing the store")
    }

    fn wants_more(&self) -> bool {
        self.cold_s.len() < MIN_REPS || self.warm_s.len() < MIN_REPS
    }

    fn step(&mut self) {
        let cold_time: f64 = self.cold_s.iter().sum();
        let warm_time: f64 = self.warm_s.iter().sum();
        if cold_time * (1.0 - COLD_SHARE) <= warm_time * COLD_SHARE {
            self.build_cold();
            return;
        }
        let (s, session) = timed(|| self.warm.session(self.ds, train_links(self.ds)));
        let session = session.expect("warm session from the store");
        self.warm_s.push(s);
        if self.warm_eval.is_none() {
            self.warm_eval = Some(session.evaluate());
        }
    }

    fn finish(&self, session: &Session, trace: bool, out: &mut Outcome) {
        let samples = (session.train_samples.len() + session.test_samples.len()) as f64;
        out.attempted += (self.cold_s.len() + self.warm_s.len()) as u64;
        out.values
            .set("prep_cold_samples_per_s", samples / median(&self.cold_s));
        out.values
            .set("prep_warm_samples_per_s", samples / median(&self.warm_s));
        out.record.push(summary("prep cold session", &self.cold_s));
        out.record.push(summary("prep warm session", &self.warm_s));

        let (cold, warm) = (self.cold_eval, self.warm_eval);
        out.checks.require(
            matches!((&cold, &warm), (Some(c), Some(w)) if same_eval(c, w)),
            || format!("warm-store evaluation {warm:?} differs from cold {cold:?}"),
        );
        // One more warm build with counters on: every sample must hit.
        let counted = Obs::enabled();
        experiment(self.spec, &counted, &self.path)
            .session(self.ds, train_links(self.ds))
            .expect("counted warm session");
        let report = counted.report();
        let hits = report.counter("pipeline/prefetch/store_hit").unwrap_or(0);
        let misses = report.counter("pipeline/prefetch/store_miss").unwrap_or(0);
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        out.checks
            .require(hit_ratio == 1.0 && hits as f64 == samples, || {
                format!("warm store: {hits} hits, {misses} misses")
            });
        if !trace {
            return;
        }
        let v = &mut out.values;
        v.set("store.hit_ratio", hit_ratio);
        let key = StoreKey::for_dataset(
            self.ds,
            &FeatureConfig::for_graph(self.ds.graph.num_node_types()),
            0,
        );
        let open_s: Vec<f64> = (0..MIN_REPS)
            .map(|_| timed(|| SampleStore::open(&self.path, key).expect("open store")).0)
            .collect();
        v.set("store.open_ms", median(&open_s) * 1e3);
        let bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());
        v.set("store.file_mb", bytes as f64 / (1 << 20) as f64);
        let all: Vec<_> = session
            .train_samples
            .iter()
            .chain(&session.test_samples)
            .collect();
        let nodes: Vec<f64> = all.iter().map(|s| s.num_nodes as f64).collect();
        let messages: Vec<f64> = all.iter().map(|s| s.graph.num_messages() as f64).collect();
        v.set("sample.subgraph_nodes_mean", mean(&nodes));
        v.set("sample.messages_per_sample", mean(&messages));

        let report = self.cold_obs.report();
        for (metric, span) in [
            ("sample.khop_ms_per_link", "pipeline/sample/khop"),
            ("sample.drnl_ms_per_link", "pipeline/sample/drnl"),
            ("sample.tensorize_ms_per_link", "pipeline/sample/tensorize"),
            ("store.flush_ms", "pipeline/prefetch/store_flush"),
        ] {
            v.set(metric, span_mean_ms(&report, span));
        }
        let parts: f64 = ["khop", "drnl", "tensorize"]
            .iter()
            .map(|p| span_total_ns(&report, &format!("pipeline/sample/{p}")))
            .sum();
        v.set(
            "sample.span_coverage",
            parts / span_total_ns(&report, "pipeline/sample").max(1.0),
        );
        let cold_wall_ns = self.cold_s.iter().sum::<f64>() * 1e9;
        v.set(
            "prefetch.wait_share",
            span_total_ns(&report, "pipeline/prefetch/wait") / cold_wall_ns,
        );
    }
}

/// Training phase: one untimed warm-up epoch, then one timed epoch per
/// step. `test_macro_auc` is taken after exactly `AUC_EPOCHS` timed
/// epochs. A traced run trains an untraced twin in lockstep to measure
/// the tracing overhead.
struct Train {
    session: Session,
    twin: Option<Session>,
    epochs: Vec<StepTime>,
    twin_s: Vec<f64>,
    auc: Option<f64>,
}

fn epoch(session: &mut Session) -> StepTime {
    timed_unstolen(|| {
        session
            .trainer
            .train(&session.model, &mut session.ps, &session.train_samples, 1)
            .expect("training epoch")
    })
    .0
}

impl Train {
    fn new(mut session: Session, mut twin: Option<Session>) -> Self {
        epoch(&mut session);
        if let Some(twin) = twin.as_mut() {
            epoch(twin);
        }
        Self {
            session,
            twin,
            epochs: Vec::new(),
            twin_s: Vec::new(),
            auc: None,
        }
    }

    fn wants_more(&self) -> bool {
        self.epochs.len() < AUC_EPOCHS.max(MIN_REPS)
    }

    fn step(&mut self) {
        self.epochs.push(epoch(&mut self.session));
        if let Some(twin) = self.twin.as_mut() {
            self.twin_s.push(epoch(twin).seconds);
        }
        if self.epochs.len() == AUC_EPOCHS {
            self.auc = Some(self.session.evaluate().auc);
        }
    }

    fn finish(self, obs: &Obs, out: &mut Outcome) -> Session {
        out.attempted += (self.epochs.len() + self.twin_s.len()) as u64;
        out.record.push(step_summary("train epoch", &self.epochs));
        let epoch_s = seconds(&self.epochs);
        let auc = self.auc.unwrap_or(f64::NAN);
        out.checks.require(above_chance(auc), || {
            format!("test macro AUC {auc} is not above 0.5")
        });
        let v = &mut out.values;
        v.set("test_macro_auc", auc);
        let samples = self.session.train_samples.len() as f64;
        // The fastest epoch, not the median one: see `Eval`.
        v.set("train_samples_per_s", samples / min(&epoch_s));
        if !self.twin_s.is_empty() {
            let traced: f64 = epoch_s.iter().sum();
            v.set(
                "obs.trace_overhead",
                traced / self.twin_s.iter().sum::<f64>(),
            );
            let report = obs.report();
            for (metric, span) in [
                ("train.forward_ms_per_batch", "train/forward"),
                ("train.backward_ms_per_batch", "train/backward"),
                ("train.optimizer_ms_per_batch", "train/optimizer_step"),
            ] {
                v.set(metric, span_mean_ms(&report, span));
            }
            let parts: f64 = ["train/forward", "train/backward", "train/optimizer_step"]
                .iter()
                .map(|n| span_total_ns(&report, n))
                .sum();
            v.set(
                "train.span_coverage",
                parts / span_total_ns(&report, "train/epoch").max(1.0),
            );
        }
        self.session
    }
}

/// Evaluation phase: one `Session::evaluate` per step, on the session
/// being trained (evaluation cost does not depend on the weights).
///
/// Training and evaluation are single-threaded arithmetic on the calling
/// thread, so their steps are timed without the time the hypervisor stole
/// (`timed_unstolen`): on a shared host, steal stretched single epochs by
/// up to 70%. What remains is co-tenants sharing
/// the physical core, which only ever slows a step, so both report their
/// fastest step. The other phases use threads and the disk, are timed by
/// the wall clock, and report their median step.
#[derive(Default)]
struct Eval {
    evals: Vec<StepTime>,
}

impl Eval {
    fn wants_more(&self) -> bool {
        self.evals.len() < MIN_REPS
    }

    fn step(&mut self, session: &Session) {
        self.evals.push(timed_unstolen(|| session.evaluate()).0);
    }

    fn finish(&self, session: &Session, trace: bool, out: &mut Outcome) {
        out.attempted += self.evals.len() as u64 + 2;
        out.record.push(step_summary("evaluate", &self.evals));
        let n = session.test_samples.len() as f64;
        out.values
            .set("eval_samples_per_s", n / min(&seconds(&self.evals)));
        let (a, b) = (session.evaluate(), session.evaluate());
        out.checks.require(same_eval(&a, &b), || {
            format!("two evaluations of one model disagree: {a:?} and {b:?}")
        });
        if trace {
            let predict_s: Vec<f64> = (0..MIN_REPS)
                .map(|_| {
                    timed(|| predict_probs(&session.model, &session.ps, &session.test_samples)).0
                })
                .collect();
            out.values
                .set("eval.ms_per_sample", median(&predict_s) * 1e3 / n);
        }
    }
}

/// Mean span time in milliseconds (0 when the span never ran).
fn span_mean_ms(report: &Report, name: &str) -> f64 {
    report.span(name).map_or(0.0, |s| s.mean_ns as f64 / 1e6)
}

fn span_total_ns(report: &Report, name: &str) -> f64 {
    report.span(name).map_or(0.0, |s| s.total_ns as f64)
}

/// One record line summarising a step's repeated samples.
fn summary(step: &str, samples: &[f64]) -> String {
    let hi = samples.iter().copied().fold(0.0, f64::max);
    format!(
        "{step}: {} samples, median {:.3} ms, min {:.3} ms, max {:.3} ms",
        samples.len(),
        median(samples) * 1e3,
        min(samples) * 1e3,
        hi * 1e3
    )
}

fn seconds(steps: &[StepTime]) -> Vec<f64> {
    steps.iter().map(|s| s.seconds).collect()
}

/// `summary` of steps timed by `timed_unstolen`, with how many of them
/// had the stolen time taken out.
fn step_summary(step: &str, steps: &[StepTime]) -> String {
    let unstolen = steps.iter().filter(|s| s.unstolen).count();
    format!(
        "{} ({unstolen} of {} without stolen time)",
        summary(step, &seconds(steps)),
        steps.len()
    )
}

/// Peak resident set size (`VmHWM`) in MiB, 0 where `/proc` is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
