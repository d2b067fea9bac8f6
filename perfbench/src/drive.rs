//! The SPMD body every rank runs: set up, stream batches in a closed loop,
//! then verify the maintained product against a static recompute.
//!
//! The engine is reached only through its public calls. Every batch call
//! runs in a *window* fenced by barriers on both sides: the wall time is
//! the critical path, and the counter deltas (this rank's bytes and
//! messages per category, flops, and in traced windows the engine's
//! `PhaseTimer` phases) are taken before the exit barrier, so harness
//! traffic never leaks into them.

use crate::workload::{Batch, RankInputs, Size, Workload, THREADS};
use dspgemm_core::dyn_general::GeneralUpdates;
use dspgemm_core::{DistMat, DynSpGemm, Grid};
use dspgemm_mpi::{Comm, NUM_CATEGORIES};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::Triple;
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::PhaseTimer;
use dspgemm_util::{encode_to_vec, WireDecode, WireEncode, WireError, WireReader, WireSize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// When the closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Submit batches until this many seconds of stream have passed.
    Seconds(f64),
    /// Submit exactly this many batches.
    Batches(u64),
}

impl Budget {
    fn more(self, done: u64, elapsed_s: f64) -> bool {
        match self {
            Budget::Seconds(s) => elapsed_s < s,
            Budget::Batches(n) => done < n,
        }
    }
}

/// Everything a rank needs to run its share of one job.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The workload.
    pub workload: Workload,
    /// Its scale.
    pub size: Size,
    /// Seed of every draw.
    pub seed: u64,
    /// Loop length.
    pub budget: Budget,
    /// Collect the per-layer split in half of the batch windows.
    pub trace: bool,
    /// Run the harness (windows, barriers, loop control, verification)
    /// without handing batches to the engine: the baseline a TCP job's
    /// frame count is differenced against.
    pub dry: bool,
}

/// One rank's own communication counters (its row of `CommStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Bytes sent, per category.
    pub bytes: [u64; NUM_CATEGORIES],
    /// Messages sent, per category.
    pub msgs: [u64; NUM_CATEGORIES],
    /// Time blocked on communication.
    pub exposed_ns: u64,
    /// Request lifetime hidden under compute.
    pub overlapped_ns: u64,
}

impl Counters {
    fn read(comm: &Comm) -> Self {
        let stats = comm.comm_stats();
        let row = &stats.per_rank[comm.rank()];
        Self {
            bytes: row.bytes,
            msgs: row.msgs,
            exposed_ns: row.exposed_ns,
            overlapped_ns: row.overlapped_ns,
        }
    }

    fn since(&self, earlier: &Self) -> Self {
        Self {
            bytes: std::array::from_fn(|c| self.bytes[c] - earlier.bytes[c]),
            msgs: std::array::from_fn(|c| self.msgs[c] - earlier.msgs[c]),
            exposed_ns: self.exposed_ns - earlier.exposed_ns,
            overlapped_ns: self.overlapped_ns - earlier.overlapped_ns,
        }
    }

    fn add(&mut self, other: &Self) {
        for c in 0..NUM_CATEGORIES {
            self.bytes[c] += other.bytes[c];
            self.msgs[c] += other.msgs[c];
        }
        self.exposed_ns += other.exposed_ns;
        self.overlapped_ns += other.overlapped_ns;
    }

    /// Bytes over all categories.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// What one rank reports back. On the TCP backend it travels over the
/// control socket, hence the wire codec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankReport {
    /// Wall-clock time this rank's closure started (mesh up); set by the
    /// caller, before it generates the inputs.
    pub ready_unix_ns: u64,
    /// Per set-up: construction of `A` and `B` plus `DynSpGemm::new`.
    pub setup_ns: Vec<u64>,
    /// Per set-up: construction of `A` and `B`.
    pub construct_ns: Vec<u64>,
    /// Flops of the initial SUMMA (this rank).
    pub summa_flops: u64,
    /// Bytes this rank sent during the initial SUMMA.
    pub summa_bytes: u64,
    /// Global nnz of `A`, `B`, and `C` before the stream.
    pub nnz_start: [u64; 3],
    /// Batch windows run (one batch call each).
    pub batches: u64,
    /// Update tuples this rank handed to the engine.
    pub tuples: u64,
    /// Wall time per batch window.
    pub window_ns: Vec<u64>,
    /// Bytes this rank sent per batch window.
    pub window_bytes: Vec<u64>,
    /// Publish time per batch window (0 where the window did not publish
    /// or was not traced).
    pub publish_ns: Vec<u64>,
    /// First batch call to last commit.
    pub stream_ns: u64,
    /// This rank's counters summed over every window of the stream.
    pub stream: Counters,
    /// Bytes this rank sent during the stream outside any window or loop
    /// control: 0 unless engine traffic escapes the windows.
    pub unwindowed_bytes: u64,
    /// Flops this rank performed during the stream.
    pub flops: u64,
    /// Traced windows: `(phase, exposed ns, overlapped ns)`; the publish
    /// call appears as the phase `publish`.
    pub phases: Vec<(String, u64, u64)>,
    /// Wall time of the traced windows.
    pub traced_ns: u64,
    /// Number of traced windows.
    pub traced_windows: u64,
    /// Epochs alive after the stream.
    pub retained: u64,
    /// Heap bytes of the live epochs.
    pub snapshot_heap_bytes: u64,
    /// Peak resident set of this process after the stream, KiB.
    pub rss_kib: u64,
    /// Wall time of the verification `recompute_static`.
    pub static_ns: u64,
    /// Bytes this rank sent during it.
    pub static_bytes: u64,
    /// Flops this rank performed during it.
    pub static_flops: u64,
    /// Root only: whether the maintained `C` is bit-identical to the
    /// recomputed one, a digest of the maintained `C`, and its nnz.
    pub verdict: Option<(bool, u64, u64)>,
}

/// Implements the wire codec for a struct as the concatenation of its
/// fields, in declaration order.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl WireEncode for $ty {
            fn wire_encode(&self, out: &mut Vec<u8>) {
                $(self.$field.wire_encode(out);)*
            }
        }
        impl WireDecode for $ty {
            fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($field: WireDecode::wire_decode(r)?,)* })
            }
        }
    };
}

wire_struct!(Counters {
    bytes,
    msgs,
    exposed_ns,
    overlapped_ns,
});

wire_struct!(RankReport {
    ready_unix_ns,
    setup_ns,
    construct_ns,
    summa_flops,
    summa_bytes,
    nnz_start,
    batches,
    tuples,
    window_ns,
    window_bytes,
    publish_ns,
    stream_ns,
    stream,
    unwindowed_bytes,
    flops,
    phases,
    traced_ns,
    traced_windows,
    retained,
    snapshot_heap_bytes,
    rss_kib,
    static_ns,
    static_bytes,
    static_flops,
    verdict,
});

/// The publish call's name in [`RankReport::phases`].
pub const PUBLISH: &str = "publish";

/// [`RankReport::phases`] name of the time a rank waits at a window's exit
/// barrier for the slowest rank: load imbalance.
pub const EXIT_WAIT: &str = "exit-barrier wait";

type Phases = BTreeMap<String, (u64, u64)>;

fn phases(timer: &PhaseTimer) -> Phases {
    let mut map = Phases::new();
    for (name, d) in timer.entries() {
        map.entry(name).or_default().0 = d.as_nanos() as u64;
    }
    for (name, d) in timer.overlapped_entries() {
        map.entry(name).or_default().1 = d.as_nanos() as u64;
    }
    map
}

fn add_phase_delta(acc: &mut Phases, before: &Phases, after: &Phases) {
    for (name, &(exposed, hidden)) in after {
        let (e0, h0) = before.get(name).copied().unwrap_or_default();
        let slot = acc.entry(name.clone()).or_default();
        slot.0 += exposed - e0;
        slot.1 += hidden - h0;
    }
}

/// Whether batch window `i` of a traced run collects the layer split: a
/// fixed pseudo-random half of the windows, so no period in the engine's
/// own work lines up with the traced/untraced split that
/// `trace.overhead_pct` compares (every other window read +4% on the
/// pipelined workloads; this split reads about 0).
pub fn traced_window(i: u64) -> bool {
    SplitMix64::derive(0x7ACE, i).next_u64() & 1 == 1
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Peak resident set size of this process in KiB (`VmHWM`; 0 where the
/// kernel does not report it).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One barrier-fenced batch window's measurements.
struct Window {
    wall_ns: u64,
    counters: Counters,
    flops: u64,
    publish_ns: u64,
}

/// Runs `call` between barriers. In a traced window, adds the engine's
/// phase deltas, the publish time and the wait at the exit barrier (this
/// rank idle while the slowest finishes) into `traced`.
fn window<S: Semiring>(
    comm: &Comm,
    eng: &mut DynSpGemm<S>,
    traced: Option<&mut Phases>,
    call: impl FnOnce(&mut DynSpGemm<S>) -> u64,
) -> Window {
    comm.barrier();
    let c0 = Counters::read(comm);
    let f0 = eng.flops;
    let p0 = traced.is_some().then(|| phases(&eng.timer));
    let t = Instant::now();
    let publish_ns = call(eng);
    let counters = Counters::read(comm).since(&c0);
    let flops = eng.flops - f0;
    let p1 = p0.as_ref().map(|_| phases(&eng.timer));
    let done_ns = elapsed_ns(t);
    comm.barrier();
    let wall_ns = elapsed_ns(t);
    if let (Some(acc), Some(p0), Some(p1)) = (traced, p0, p1) {
        add_phase_delta(acc, &p0, &p1);
        acc.entry(PUBLISH.into()).or_default().0 += publish_ns;
        acc.entry(EXIT_WAIT.into()).or_default().0 += wall_ns - done_ns;
    }
    Window {
        wall_ns,
        counters,
        flops,
        publish_ns,
    }
}

fn timed_publish<S: Semiring>(eng: &mut DynSpGemm<S>) -> u64 {
    let t = Instant::now();
    eng.publish();
    elapsed_ns(t)
}

/// Hands one batch to the engine; returns the publish time.
fn run_batch<S: Semiring>(
    grid: &Grid,
    eng: &mut DynSpGemm<S>,
    job: &Job,
    batch: Batch<S::Elem>,
) -> u64 {
    if job.dry {
        return 0;
    }
    match batch {
        Batch::Insert(ups) if job.workload.pipelined() => {
            eng.submit_algebraic(grid, ups, Vec::new());
            0
        }
        Batch::Insert(ups) => {
            eng.apply_algebraic(grid, ups, Vec::new());
            timed_publish(eng)
        }
        Batch::General(ups) => {
            eng.apply_general(grid, ups, GeneralUpdates::new());
            timed_publish(eng)
        }
    }
}

/// Runs one rank of `job`. `attempted` counts the batch windows rank 0 has
/// entered, so a job that dies mid-stream still reports how far it got.
pub fn drive<S>(
    comm: &Comm,
    job: &Job,
    mut inputs: RankInputs<S::Elem>,
    mut next: impl FnMut(&mut RankInputs<S::Elem>) -> Batch<S::Elem>,
    attempted: &AtomicU64,
) -> RankReport
where
    S: Semiring,
    Triple<S::Elem>: WireSize + WireDecode,
{
    let mut report = RankReport::default();
    let grid = Grid::new(comm);
    let n = inputs.n;
    let shape = crate::workload::shape(job.workload, job.size);
    let track_filter = job.workload.general();

    // --- Set-up, repeated; the last engine carries the stream. ---
    let mut eng: Option<DynSpGemm<S>> = None;
    for _ in 0..shape.setup_reps {
        drop(eng.take());
        let (a_t, b_t) = (inputs.a.clone(), inputs.b.clone());
        let mut timer = PhaseTimer::new();
        comm.barrier();
        let t = Instant::now();
        let a = DistMat::from_global_triples(&grid, n, n, a_t, THREADS, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, b_t, THREADS, &mut timer);
        comm.barrier();
        report.construct_ns.push(elapsed_ns(t));
        let c0 = Counters::read(comm);
        let e = DynSpGemm::<S>::new(&grid, a, b, THREADS, track_filter);
        report.summa_bytes = Counters::read(comm).since(&c0).total_bytes();
        comm.barrier();
        report.setup_ns.push(elapsed_ns(t));
        report.summa_flops = e.flops;
        eng = Some(e);
    }
    let mut eng = eng.expect("at least one set-up");
    report.nnz_start = [
        eng.a.global_nnz(&grid),
        eng.b.global_nnz(&grid),
        eng.c.global_nnz(&grid),
    ];

    // --- The closed loop. ---
    let mut traced = Phases::new();
    let mut control = Counters::default();
    comm.barrier();
    let c_start = Counters::read(comm);
    let start = Instant::now();
    loop {
        let batch = next(&mut inputs);
        report.tuples += batch.tuples();
        if comm.rank() == 0 {
            attempted.fetch_add(1, Ordering::Relaxed);
        }
        let is_traced = job.trace && traced_window(report.batches);
        let w = window(comm, &mut eng, is_traced.then_some(&mut traced), |e| {
            run_batch(&grid, e, job, batch)
        });
        report.batches += 1;
        report.window_ns.push(w.wall_ns);
        report.window_bytes.push(w.counters.total_bytes());
        report
            .publish_ns
            .push(if is_traced { w.publish_ns } else { 0 });
        report.stream.add(&w.counters);
        report.flops += w.flops;
        if is_traced {
            report.traced_ns += w.wall_ns;
            report.traced_windows += 1;
        }
        let c0 = Counters::read(comm);
        let elapsed = start.elapsed().as_secs_f64();
        let more = (comm.rank() == 0).then(|| job.budget.more(report.batches, elapsed));
        let more = comm.bcast(0, more);
        control.add(&Counters::read(comm).since(&c0));
        if !more {
            break;
        }
    }
    if job.workload.pipelined() {
        // The last submitted batch commits here: flush, then its epoch.
        let w = window(comm, &mut eng, job.trace.then_some(&mut traced), |e| {
            if job.dry {
                return 0;
            }
            e.flush(&grid);
            timed_publish(e)
        });
        report.stream.add(&w.counters);
        report.flops += w.flops;
        if job.trace {
            report.traced_ns += w.wall_ns;
            report.traced_windows += 1;
        }
    }
    report.stream_ns = elapsed_ns(start);
    let all = Counters::read(comm).since(&c_start);
    report.unwindowed_bytes =
        all.total_bytes() - report.stream.total_bytes() - control.total_bytes();
    report.phases = traced
        .into_iter()
        .map(|(name, (exposed, hidden))| (name, exposed, hidden))
        .collect();

    report.rss_kib = peak_rss_kib();
    report.retained = eng.snapshots().retained() as u64;
    let mut seen = Vec::new();
    report.snapshot_heap_bytes = eng
        .snapshots()
        .live()
        .iter()
        .map(|s| s.heap_bytes_unshared(&mut seen) as u64)
        .sum();

    // --- Verification, outside every timed region. ---
    let maintained = eng.c.gather_to_root(comm);
    comm.barrier();
    let c0 = Counters::read(comm);
    let f0 = eng.flops;
    let t = Instant::now();
    eng.recompute_static(&grid);
    report.static_bytes = Counters::read(comm).since(&c0).total_bytes();
    report.static_flops = eng.flops - f0;
    comm.barrier();
    report.static_ns = elapsed_ns(t);
    let fresh = eng.c.gather_to_root(comm);
    report.verdict = maintained.zip(fresh).map(|(m, f)| {
        let bytes = encode_to_vec(&m);
        (bytes == encode_to_vec(&f), fnv1a(&bytes), m.len() as u64)
    });
    report
}
