//! The named workloads and the inputs each one draws from `--seed`.
//!
//! Every workload runs the LiveJournal R-MAT proxy from the instance
//! catalog at p = 4 ranks with one thread per rank. The graph and the
//! insert workloads' initial/withheld split are fixed per instance, so every
//! seed starts from the same matrices (the split alone moves batch cost by
//! ~10% between seeds); the seed drives the per-rank update draws and the
//! weights.

use dspgemm_core::dyn_general::GeneralUpdates;
use dspgemm_graph::catalog::{instances_scaled, InstanceSpec};
use dspgemm_graph::stream::{split_for_insertion, ReplacementDraws};
use dspgemm_graph::Edge;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64, Xoshiro256};

/// Ranks per job: the smallest non-trivial 2D grid. Two rank threads per
/// core on a two-core host; larger grids would time the scheduler.
pub const P: usize = 4;

/// Intra-rank threads (the paper's `T`).
pub const THREADS: usize = 1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Algebraic insertions, each batch applied then published as an epoch.
    InsertServe,
    /// The same insertion stream through the depth-1 lookahead, one flush
    /// and one publish at the end.
    InsertPipelined,
    /// Removals and weight overwrites under (min,+) via Algorithm 2.
    GeneralMinplus,
    /// `InsertPipelined` on rank processes over the localhost TCP mesh.
    InsertPipelinedTcp,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::InsertServe,
        Workload::InsertPipelined,
        Workload::GeneralMinplus,
        Workload::InsertPipelinedTcp,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InsertServe => "insert-serve",
            Workload::InsertPipelined => "insert-pipelined",
            Workload::GeneralMinplus => "general-minplus",
            Workload::InsertPipelinedTcp => "insert-pipelined-tcp",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the ranks are OS processes over TCP.
    pub fn is_tcp(self) -> bool {
        self == Workload::InsertPipelinedTcp
    }

    /// Whether batches go through `submit_algebraic` (lookahead).
    pub fn pipelined(self) -> bool {
        matches!(
            self,
            Workload::InsertPipelined | Workload::InsertPipelinedTcp
        )
    }

    /// Whether the workload runs Algorithm 2 under (min,+).
    pub fn general(self) -> bool {
        self == Workload::GeneralMinplus
    }
}

/// Input scale: `Full` is what the benchmark measures, `Tiny` keeps the
/// determinism tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured scale.
    Full,
    /// A smoke scale for tests.
    Tiny,
}

impl Size {
    /// Parses `full` / `tiny`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// The scale parameters of one workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Catalog divisor for the LiveJournal proxy.
    pub divisor: u64,
    /// Update tuples each rank draws per batch.
    pub batch_per_rank: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// The scale of `workload` at `size`.
pub fn shape(workload: Workload, size: Size) -> Shape {
    match (size, workload.general()) {
        (Size::Tiny, _) => Shape {
            divisor: 16384,
            batch_per_rank: 64,
            setup_reps: 2,
        },
        // 4096 rather than 1024 insertions per rank: at ~30 ms per batch the
        // run-to-run spread of the pipelined workloads' latencies doubled.
        (Size::Full, false) => Shape {
            divisor: 512,
            batch_per_rank: 4096,
            setup_reps: 5,
        },
        // Algorithm 2 costs ~0.5 s per batch on the divisor-512 graph (256
        // updates per rank); half the graph keeps ~80 batches in a run.
        (Size::Full, true) => Shape {
            divisor: 1024,
            batch_per_rank: 128,
            setup_reps: 5,
        },
    }
}

/// One batch as handed to the engine.
pub enum Batch<V> {
    /// Algebraic insertions into `A` (`B* = 0`).
    Insert(Vec<Triple<V>>),
    /// General updates of `A` (`B` stays the weighted adjacency).
    General(GeneralUpdates<V>),
}

impl<V> Batch<V> {
    /// Update tuples this rank passes to the engine for this batch.
    pub fn tuples(&self) -> u64 {
        match self {
            Batch::Insert(t) => t.len() as u64,
            Batch::General(u) => (u.sets.len() + u.deletes.len()) as u64,
        }
    }
}

/// This rank's share of the inputs plus its update draw stream.
pub struct RankInputs<V> {
    /// Matrix dimension.
    pub n: Index,
    /// This rank's slice of `A`'s initial triples.
    pub a: Vec<Triple<V>>,
    /// This rank's slice of `B`'s triples.
    pub b: Vec<Triple<V>>,
    /// Edges the update draws sample from.
    pool: Vec<Edge>,
    draws: ReplacementDraws,
    /// Coin flips and new weights of general batches.
    rng: Xoshiro256,
}

impl<V> RankInputs<V> {
    fn new(
        n: Index,
        a: Vec<Triple<V>>,
        b: Vec<Triple<V>>,
        pool: Vec<Edge>,
        shape: Shape,
        seed: u64,
        rank: usize,
    ) -> Self {
        Self {
            n,
            a,
            b,
            pool,
            draws: ReplacementDraws::new(shape.batch_per_rank, seed, rank),
            rng: Xoshiro256::derive(seed ^ 0x9E1E_7A1E, rank as u64),
        }
    }
}

fn livejournal(shape: Shape) -> InstanceSpec {
    instances_scaled(shape.divisor)
        .into_iter()
        .find(|s| s.name == "LiveJournal")
        .expect("the catalog lists LiveJournal")
}

/// Matrix dimension at `shape`.
pub fn dimension(shape: Shape) -> Index {
    livejournal(shape).n
}

fn rank_slice(edges: &[Edge], rank: usize) -> impl Iterator<Item = Edge> + '_ {
    edges.iter().copied().skip(rank).step_by(P)
}

/// Edge weight in `1..=16`: integral, so (min,+) sums stay exact in `f64`.
fn weight(rng: &mut impl Rng) -> f64 {
    (1 + rng.gen_range(16)) as f64
}

/// Insert workloads: `A` starts as half of the adjacency matrix, `B` is all
/// of it, unit values under (+,·); batches draw (with replacement) from the
/// withheld half, so the stream never runs dry.
pub fn insert_inputs(shape: Shape, seed: u64, rank: usize) -> RankInputs<u64> {
    let spec = livejournal(shape);
    let (n, edges) = (spec.n, spec.undirected_edges());
    let unit = |(u, v): Edge| Triple::new(u, v, 1u64);
    let b = rank_slice(&edges, rank).map(unit).collect();
    let (initial, withheld) = split_for_insertion(edges, spec.seed);
    let a = rank_slice(&initial, rank).map(unit).collect();
    RankInputs::new(n, a, b, withheld, shape, seed, rank)
}

/// `general-minplus`: `A = B` = the weighted adjacency matrix; batches draw
/// entries of the adjacency and remove or re-weight them in `A`, half and
/// half (a re-weight of a removed entry inserts it again).
pub fn general_inputs(shape: Shape, seed: u64, rank: usize) -> RankInputs<f64> {
    let spec = livejournal(shape);
    let (n, edges) = (spec.n, spec.undirected_edges());
    // Weights hash the coordinate under the seed, so every duplicate of an
    // edge (and every rank) agrees on it.
    let weighted = |(u, v): Edge| {
        let mut h = SplitMix64::derive(seed, (u64::from(u) << 32) | u64::from(v));
        Triple::new(u, v, weight(&mut h))
    };
    let a: Vec<Triple<f64>> = rank_slice(&edges, rank).map(weighted).collect();
    RankInputs::new(n, a.clone(), a, edges, shape, seed, rank)
}

impl RankInputs<u64> {
    /// The next insertion batch.
    pub fn next_insert(&mut self) -> Batch<u64> {
        let draws = self.draws.next_batch(&self.pool);
        Batch::Insert(
            draws
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1))
                .collect(),
        )
    }
}

impl RankInputs<f64> {
    /// The next general batch.
    pub fn next_general(&mut self) -> Batch<f64> {
        let mut upd = GeneralUpdates::new();
        for (u, v) in self.draws.next_batch(&self.pool) {
            if self.rng.gen_bool(0.5) {
                upd.deletes.push((u, v));
            } else {
                upd.sets.push(Triple::new(u, v, weight(&mut self.rng)));
            }
        }
        Batch::General(upd)
    }
}
