//! The workloads. Every workload runs the same four phases on its
//! own dataset and model (the result must carry every end-to-end metric),
//! but gives the phase it is named after the longest window.

use am_dgcnn::{GnnKind, Hyperparams};
use amdgcnn_bench::configs::{tuned_hyper, Bench};
use amdgcnn_data::{primekg_like, wn18_like, Dataset, PrimeKgConfig, Wn18Config};

/// Which generator builds the dataset.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// `wn18_like`: deterministic for a config.
    Wn18(Wn18Config),
    /// `primekg_like`: builds a different graph in every process (its
    /// generator draws in `HashSet` iteration order).
    PrimeKg(PrimeKgConfig),
}

impl Data {
    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        match self {
            Data::Wn18(cfg) => wn18_like(cfg),
            Data::PrimeKg(cfg) => primekg_like(cfg),
        }
    }

    /// The graph digest every run must reproduce, where the generator is
    /// deterministic across processes.
    pub fn pinned_digest(&self) -> Option<u32> {
        match self {
            Data::Wn18(cfg) if cfg.num_nodes == Wn18Config::default().num_nodes => {
                Some(WN18_DEFAULT_DIGEST)
            }
            _ => None,
        }
    }
}

/// `graph_digest` of `wn18_like(&Wn18Config::default())`.
const WN18_DEFAULT_DIGEST: u32 = 0xf817_6fb9;

/// Fleet replicas.
pub const REPLICAS: usize = 2;
/// Edges appended per mutation batch.
pub const EDGES_PER_BATCH: usize = 2;
/// Training links of every session, or all of them where the dataset has
/// fewer; the test split is used whole.
pub const TRAIN_LINKS: usize = 600;
/// Pairs whose served answers are checked after the last roll: the
/// stream's first and last `PROBES / 2` pairs.
pub const PROBES: usize = 48;
/// Timed epochs after which `test_macro_auc` is taken. Fixed, so the AUC
/// is the same for a program however fast the epochs run.
pub const AUC_EPOCHS: usize = 2;

/// Serving set-up: a fleet under a closed-loop Zipf stream with rolls.
#[derive(Debug, Clone, Copy)]
pub struct Serve {
    /// Per-replica cache capacity.
    pub cache_capacity: usize,
    /// Distinct pairs in the stream (more than the fleet's total cache).
    pub distinct_pairs: usize,
    /// Zipf exponent over the stream's popularity ranks: with the cache
    /// size and the roll rate it sets the engine's hit ratio, which should
    /// stay well away from 0.5 so the median query does not jump between
    /// the hit and the miss path from run to run.
    pub zipf_exponent: f64,
    /// Answered queries between two mutation batches.
    pub roll_every: u64,
}

/// Shares of `--seconds` given to each timed phase (they sum to 1).
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    /// Fleet serving with graph rolls.
    pub serve: f64,
    /// Cold and warm session builds.
    pub prep: f64,
    /// Training epochs.
    pub train: f64,
    /// Evaluations.
    pub eval: f64,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Dataset generator.
    pub data: Data,
    /// Model family.
    pub gnn: GnnKind,
    /// Table I hyperparameters.
    pub hyper: Hyperparams,
    /// Serving set-up.
    pub serve: Serve,
    /// Phase windows.
    pub shares: Shares,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["train_wn18_gat", "prep_primekg_gcn"];

/// Hit-heavy serving: about 0.7 of the engine's lookups hit.
const WN18_SERVE: Serve = Serve {
    cache_capacity: 256,
    distinct_pairs: 2000,
    zipf_exponent: 1.1,
    roll_every: 150,
};

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "train_wn18_gat" => Spec {
                name: "train_wn18_gat",
                data: Data::Wn18(Wn18Config::default()),
                gnn: GnnKind::am_dgcnn(),
                hyper: tuned_hyper(Bench::Wn18),
                serve: WN18_SERVE,
                shares: Shares {
                    serve: 0.30,
                    prep: 0.10,
                    train: 0.40,
                    eval: 0.20,
                },
            },
            "prep_primekg_gcn" => Spec {
                name: "prep_primekg_gcn",
                data: Data::PrimeKg(PrimeKgConfig::default()),
                gnn: GnnKind::Gcn,
                hyper: tuned_hyper(Bench::PrimeKg),
                // Miss-heavy serving, beside the hit-heavy wn18 stream: a
                // flatter stream over more pairs, and rolls that invalidate
                // large k-hop regions of this denser graph.
                serve: Serve {
                    cache_capacity: 64,
                    distinct_pairs: 4000,
                    zipf_exponent: 0.5,
                    roll_every: 75,
                },
                shares: Shares {
                    serve: 0.15,
                    prep: 0.50,
                    train: 0.20,
                    eval: 0.15,
                },
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The same workload at `*Config::tiny()` scale, for the self-test.
    pub fn tiny(self) -> Spec {
        let data = match self.data {
            Data::Wn18(_) => Data::Wn18(Wn18Config::tiny()),
            Data::PrimeKg(_) => Data::PrimeKg(PrimeKgConfig::tiny()),
        };
        Spec {
            data,
            serve: Serve {
                cache_capacity: 8,
                distinct_pairs: 40,
                roll_every: 20,
                ..self.serve
            },
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_defined_and_its_shares_sum_to_one() {
        for name in WORKLOADS {
            let spec = Spec::named(name).expect(name);
            assert_eq!(spec.name, name);
            let s = spec.shares;
            assert!(
                (s.serve + s.prep + s.train + s.eval - 1.0).abs() < 1e-9,
                "{name}"
            );
        }
        assert!(Spec::named("nope").is_none());
    }

    #[test]
    fn the_stream_overflows_the_fleet_cache_and_holds_the_probes() {
        for name in WORKLOADS {
            let spec = Spec::named(name).expect(name);
            for serve in [spec.serve, spec.tiny().serve] {
                assert!(serve.distinct_pairs > REPLICAS * serve.cache_capacity);
                assert!(serve.distinct_pairs >= PROBES / 2);
            }
        }
    }
}
