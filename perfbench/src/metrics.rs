//! Folding the ranks' reports into the end-to-end and per-layer metrics.
//!
//! Times taken on every rank are averaged over ranks (the barriers make
//! rank 0's window walls the critical path, so those come from rank 0);
//! counts are summed over ranks. Per-layer times are per traced window.

use crate::drive::{traced_window, RankReport, EXIT_WAIT, PUBLISH};
use crate::workload::P;
use dspgemm_mpi::CommCategory;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const MIB: f64 = (1u64 << 20) as f64;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Median of `ns` (mean of the middle pair for an even count).
pub fn median(ns: &[u64]) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2] as f64,
        n => (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, and the percentile it sits at. With fewer than 11
/// samples, the maximum.
pub fn tail(ns: &[u64]) -> (f64, f64) {
    let mut v = ns.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n < 11 {
        return (v.last().copied().unwrap_or(0) as f64, 100.0);
    }
    let k = n - 11;
    (v[k] as f64, 100.0 * k as f64 / (n - 1) as f64)
}

/// Values the parent measured around the rank processes (zero on the
/// simulator).
#[derive(Debug, Clone, Copy, Default)]
pub struct Extras {
    /// Spawn of the rank processes to the last rank's closure entry.
    pub bootstrap_s: f64,
    /// Data-mesh frames per batch (traced TCP runs).
    pub frames_per_batch: f64,
    /// TCP stream wall minus the simulator's on the identical stream.
    pub stream_excess_ms: f64,
}

/// Stream totals derived once from the reports.
pub struct Totals<'a> {
    reports: &'a [RankReport],
    /// Batch windows in the stream.
    batches: f64,
    /// Bytes sent over the stream, all ranks.
    stream_bytes: f64,
    /// Flops of the stream, all ranks.
    flops: f64,
}

impl<'a> Totals<'a> {
    /// Sums the reports.
    pub fn new(reports: &'a [RankReport]) -> Self {
        Self {
            reports,
            batches: reports[0].batches as f64,
            stream_bytes: reports.iter().map(|r| r.stream.total_bytes() as f64).sum(),
            flops: reports.iter().map(|r| r.flops as f64).sum(),
        }
    }

    fn root(&self) -> &RankReport {
        &self.reports[0]
    }

    fn sum(&self, f: impl Fn(&RankReport) -> u64) -> f64 {
        self.reports.iter().map(|r| f(r) as f64).sum()
    }

    fn per_batch(&self, f: impl Fn(&RankReport) -> u64) -> f64 {
        self.sum(f) / self.batches
    }

    fn category_bytes(&self, cat: CommCategory) -> f64 {
        self.per_batch(|r| r.stream.bytes[cat as usize])
    }

    /// Rank-mean `(exposed, hidden)` ns of the phases, per traced window.
    fn phase(&self, names: &[&str]) -> (f64, f64) {
        let windows = self.root().traced_windows.max(1) as f64;
        let mut sum = (0.0, 0.0);
        for r in self.reports {
            for (name, exposed, hidden) in &r.phases {
                if names.contains(&name.as_str()) {
                    sum.0 += *exposed as f64;
                    sum.1 += *hidden as f64;
                }
            }
        }
        let div = windows * self.reports.len() as f64;
        (sum.0 / div, sum.1 / div)
    }

    /// Phases recorded in traced windows that no layer claims.
    pub fn unmapped_phases(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .reports
            .iter()
            .flat_map(|r| r.phases.iter().map(|(n, ..)| n.clone()))
            .filter(|n| {
                !LAYERS
                    .iter()
                    .any(|(_, phases)| phases.contains(&n.as_str()))
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// `(layer, ms per traced window)` for every layer, then the traced
    /// wall per window and the unattributed remainder.
    pub fn closure(&self) -> (Vec<(&'static str, f64)>, f64, f64) {
        let layers: Vec<(&'static str, f64)> = LAYERS
            .iter()
            .map(|(layer, phases)| (*layer, ms(self.phase(phases).0)))
            .collect();
        let windows = self.root().traced_windows.max(1) as f64;
        let wall = ms(self.root().traced_ns as f64 / windows);
        let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
        (layers, wall, wall - attributed)
    }
}

/// The engine's `PhaseTimer` phases, folded into the benchmark's layers.
/// The apply path reports its redistribution as one `scatter` phase; the
/// submit path splits it into sort / comm. / mem. management / local
/// construct.; both land in `redistribute`. `imbalance` is the time ranks
/// idle at a window's exit barrier.
const LAYERS: [(&str, &[&str]); 5] = [
    (
        "redistribute",
        &[
            "scatter",
            "redist. sort",
            "redist. comm.",
            "mem. management",
            "local construct.",
        ],
    ),
    (
        "rounds",
        &["bcast", "reduce-scatter", "transpose local", "send/recv"],
    ),
    ("sparse", &["local mult.", "local update"]),
    ("snapshot", &[PUBLISH]),
    ("imbalance", &[EXIT_WAIT]),
];

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(t: &Totals, x: &Extras) -> Vec<Metric> {
    let root = t.root();
    let (tail_ns, _) = tail(&root.window_ns);
    vec![
        Metric {
            name: "setup_s",
            value: median(&root.setup_ns) / 1e9 + x.bootstrap_s,
            unit: "s",
        },
        Metric {
            name: "batch_ms_p50",
            value: ms(median(&root.window_ns)),
            unit: "ms",
        },
        Metric {
            name: "batch_ms_tail",
            value: ms(tail_ns),
            unit: "ms",
        },
        Metric {
            name: "updates_per_s",
            value: t.sum(|r| r.tuples) / (root.stream_ns as f64 / 1e9),
            unit: "1/s",
        },
        Metric {
            name: "wire_mib_per_batch",
            value: t.stream_bytes / t.batches / MIB,
            unit: "MiB",
        },
        Metric {
            name: "peak_rss_mib",
            value: t.reports.iter().map(|r| r.rss_kib).max().unwrap_or(0) as f64 / 1024.0,
            unit: "MiB",
        },
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(t: &Totals, x: &Extras) -> Vec<Metric> {
    let root = t.root();
    let m = |name, value, unit| Metric { name, value, unit };
    let summa_ns: Vec<u64> = root
        .setup_ns
        .iter()
        .zip(&root.construct_ns)
        .map(|(s, c)| s - c)
        .collect();
    let comm = t.phase(&["redist. comm."]);
    let bcast = t.phase(&["bcast"]);
    let local_mult_ms = ms(t.phase(&["local mult."]).0);
    let flops_per_batch = t.flops / t.batches;
    let max_rank_flops = t.reports.iter().map(|r| r.flops).max().unwrap_or(0) as f64;
    let mean_flops = t.flops / t.reports.len() as f64;
    let (traced, untraced): (Vec<usize>, Vec<usize>) =
        (0..root.window_ns.len()).partition(|&i| traced_window(i as u64));
    let publish_by_window: Vec<u64> = traced
        .iter()
        .map(|&i| t.reports.iter().map(|r| r.publish_ns[i]).sum::<u64>() / t.reports.len() as u64)
        .collect();
    let wall = |ids: &[usize]| -> Vec<u64> { ids.iter().map(|&i| root.window_ns[i]).collect() };
    let (traced, untraced) = (wall(&traced), wall(&untraced));
    let crit_bytes: f64 = (0..root.window_bytes.len())
        .map(|i| {
            t.reports
                .iter()
                .map(|r| r.window_bytes[i])
                .max()
                .unwrap_or(0) as f64
        })
        .sum::<f64>()
        / t.batches;
    let exposed = t.sum(|r| r.stream.exposed_ns);
    let hidden = t.sum(|r| r.stream.overlapped_ns);
    let (_, _, unattributed) = t.closure();
    vec![
        m("setup.construct_ms", ms(median(&root.construct_ns)), "ms"),
        m("setup.summa_ms", ms(median(&summa_ns)), "ms"),
        m("setup.summa_flops", t.sum(|r| r.summa_flops), "count"),
        m("setup.summa_wire_bytes", t.sum(|r| r.summa_bytes), "bytes"),
        m("redistribute.ms", ms(t.phase(LAYERS[0].1).0), "ms"),
        m("redistribute.comm_exposed_ms", ms(comm.0), "ms"),
        m("redistribute.comm_hidden_ms", ms(comm.1), "ms"),
        m(
            "redistribute.alltoall_bytes_per_batch",
            t.category_bytes(CommCategory::Alltoall),
            "bytes",
        ),
        m(
            "redistribute.alltoall_msgs_per_batch",
            t.per_batch(|r| r.stream.msgs[CommCategory::Alltoall as usize]),
            "count",
        ),
        m("rounds.bcast_exposed_ms", ms(bcast.0), "ms"),
        m("rounds.bcast_hidden_ms", ms(bcast.1), "ms"),
        m(
            "rounds.reduce_scatter_ms",
            ms(t.phase(&["reduce-scatter"]).0),
            "ms",
        ),
        m(
            "rounds.transpose_local_ms",
            ms(t.phase(&["transpose local"]).0),
            "ms",
        ),
        m("rounds.send_recv_ms", ms(t.phase(&["send/recv"]).0), "ms"),
        m(
            "rounds.bcast_bytes_per_batch",
            t.category_bytes(CommCategory::Bcast),
            "bytes",
        ),
        m(
            "rounds.reduce_bytes_per_batch",
            t.category_bytes(CommCategory::Reduce),
            "bytes",
        ),
        m(
            "rounds.p2p_bytes_per_batch",
            t.category_bytes(CommCategory::P2p),
            "bytes",
        ),
        m("sparse.local_mult_ms", local_mult_ms, "ms"),
        m(
            "sparse.local_update_ms",
            ms(t.phase(&["local update"]).0),
            "ms",
        ),
        m("sparse.flops_per_batch", flops_per_batch, "count"),
        m(
            "sparse.mflops_per_s",
            if local_mult_ms > 0.0 {
                flops_per_batch / P as f64 / (local_mult_ms * 1e3)
            } else {
                0.0
            },
            "MFLOP/s",
        ),
        m(
            "sparse.flop_imbalance",
            max_rank_flops / mean_flops.max(1.0),
            "ratio",
        ),
        m(
            "sparse.flops_vs_static",
            flops_per_batch / t.sum(|r| r.static_flops).max(1.0),
            "ratio",
        ),
        m(
            "snapshot.publish_ms_p50",
            ms(median(&publish_by_window)),
            "ms",
        ),
        m(
            "snapshot.retained_epochs",
            t.reports.iter().map(|r| r.retained).max().unwrap_or(0) as f64,
            "count",
        ),
        m(
            "snapshot.heap_mib",
            t.sum(|r| r.snapshot_heap_bytes) / MIB,
            "MiB",
        ),
        m(
            "mpisim.exposed_wait_ms",
            ms(exposed / P as f64 / t.batches),
            "ms",
        ),
        m(
            "mpisim.overlap_ratio",
            if exposed + hidden > 0.0 {
                hidden / (exposed + hidden)
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "mpisim.msgs_per_batch",
            t.per_batch(|r| r.stream.msgs.iter().sum()),
            "count",
        ),
        m("mpisim.crit_bytes_per_batch", crit_bytes, "bytes"),
        m("tcp.frames_per_batch", x.frames_per_batch, "count"),
        m("tcp.bootstrap_s", x.bootstrap_s, "s"),
        m("tcp.stream_excess_ms", x.stream_excess_ms, "ms"),
        m("static_recompute_ms", ms(root.static_ns as f64), "ms"),
        m(
            "static_wire_ratio",
            t.stream_bytes / t.batches / t.sum(|r| r.static_bytes).max(1.0),
            "ratio",
        ),
        m("trace.exit_wait_ms", ms(t.phase(&[EXIT_WAIT]).0), "ms"),
        m("trace.unattributed_ms", unattributed, "ms"),
        m(
            "trace.overhead_pct",
            if untraced.is_empty() || traced.is_empty() {
                0.0
            } else {
                100.0 * (median(&traced) / median(&untraced) - 1.0)
            },
            "%",
        ),
    ]
}
