//! The named workloads and their set-up, through the repository's public
//! surface only: `load_benchmark`, `partition_benchmark`, `build_clients`,
//! `make_strategy("FedGTA")` and `Simulation`.

use fedgta_bench::runner::{make_strategy, partition_benchmark, SplitKind};
use fedgta_data::load_benchmark;
use fedgta_fed::client::{build_clients, Client, ClientBuildConfig};
use fedgta_fed::codec::CodecSpec;
use fedgta_fed::faults::FaultConfig;
use fedgta_fed::round::{CommsConfig, SimConfig, Simulation, TransportMode};
use fedgta_fed::strategies::Strategy;
use fedgta_nn::models::{ModelConfig, ModelKind};
use std::time::Instant;

/// Faults of the chaos workload, in `--faults` syntax.
pub const CHAOS_FAULTS: &str =
    "drop=0.1,corrupt=0.05,crash=0.02,delay=20,slow=0.25x4,retries=3,backoff=50";

/// One benchmark workload: FedGTA at full participation on one round shape.
pub struct Workload {
    pub name: &'static str,
    pub dataset: &'static str,
    pub model: ModelKind,
    pub hidden: usize,
    pub split: SplitKind,
    pub clients: usize,
    pub epochs: usize,
    /// Rounds of one simulation. A run pools at least 100 rounds over
    /// its simulations.
    pub rounds: usize,
    /// Runs over the channel transport with lossy codecs and faults.
    pub chaos: bool,
    /// `final_acc` must reach this on every seed (see README.md).
    pub acc_floor: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train-gcn-pubmed",
        dataset: "pubmed",
        model: ModelKind::Gcn,
        hidden: 32,
        split: SplitKind::Louvain,
        clients: 10,
        epochs: 3,
        rounds: 50,
        chaos: false,
        acc_floor: 0.65,
    },
    Workload {
        name: "server-sgc-reddit256",
        dataset: "reddit",
        model: ModelKind::Sgc,
        hidden: 32,
        split: SplitKind::Metis,
        clients: 256,
        epochs: 1,
        rounds: 50,
        chaos: false,
        acc_floor: 0.85,
    },
    Workload {
        name: "wire-gamlp-photo-chaos",
        dataset: "amazon-photo",
        model: ModelKind::Gamlp,
        hidden: 128,
        split: SplitKind::Metis,
        clients: 40,
        epochs: 1,
        rounds: 50,
        chaos: true,
        acc_floor: 0.80,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built federation and the wall time of each set-up stage.
pub struct Setup {
    pub clients: Vec<Client>,
    pub load_s: f64,
    pub partition_s: f64,
    pub build_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.load_s + self.partition_s + self.build_s
    }

    /// Σ n_train over the federation.
    pub fn train_nodes(&self) -> usize {
        self.clients.iter().map(Client::n_train).sum()
    }
}

impl Workload {
    /// Loads the dataset, partitions it and builds the clients, all
    /// seeded by `seed`.
    pub fn setup(&self, seed: u64) -> Setup {
        let t0 = Instant::now();
        let bench = load_benchmark(self.dataset, seed).expect("catalog dataset");
        let t1 = Instant::now();
        let parts = partition_benchmark(&bench, self.split, self.clients, seed);
        let t2 = Instant::now();
        let clients = build_clients(&bench, &parts, &self.client_config(seed));
        let t3 = Instant::now();
        Setup {
            clients,
            load_s: (t1 - t0).as_secs_f64(),
            partition_s: (t2 - t1).as_secs_f64(),
            build_s: (t3 - t2).as_secs_f64(),
        }
    }

    /// The CLI's `run` defaults for this backbone.
    fn client_config(&self, seed: u64) -> ClientBuildConfig {
        ClientBuildConfig {
            model: ModelConfig {
                kind: self.model,
                hidden: self.hidden,
                layers: if self.model == ModelKind::Sgc { 1 } else { 2 },
                k: 5,
                beta: 0.15,
                batch_size: 256,
                seed,
                ..ModelConfig::default()
            },
            lr: 0.02,
            weight_decay: 5e-4,
            halo: false,
        }
    }

    /// The simulation the untraced run measures.
    pub fn simulation(&self, clients: Vec<Client>, seed: u64, threads: usize) -> Simulation {
        self.simulation_with(clients, make_strategy("FedGTA"), seed, threads)
    }

    /// The same simulation around any strategy (the traced run passes its
    /// own).
    pub fn simulation_with(
        &self,
        clients: Vec<Client>,
        strategy: Box<dyn Strategy>,
        seed: u64,
        threads: usize,
    ) -> Simulation {
        let sim = Simulation::new(
            clients,
            strategy,
            SimConfig {
                rounds: self.rounds,
                local_epochs: self.epochs,
                participation: 1.0,
                eval_every: 5,
                seed,
                threads,
            },
        );
        if !self.chaos {
            return sim;
        }
        sim.with_comms(CommsConfig {
            mode: TransportMode::Transport,
            faults: FaultConfig::parse(CHAOS_FAULTS).expect("valid fault spec"),
            fault_seed: seed,
            deadline_ms: 400,
            oversample: 1.2,
            codec: Some(CodecSpec::parse("topk=256+quant-i8").expect("valid codec")),
            codec_down: Some(CodecSpec::parse("quant-i8").expect("valid codec")),
            error_feedback: true,
            ..CommsConfig::default()
        })
    }
}
