//! The repository's benchmark: dynamic-SpGEMM update streams on the
//! simulator and on the TCP backend, end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload insert-pipelined --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One run sets the workload up several times, streams batches in a closed
//! loop for `--seconds`, then checks the maintained product bit for bit
//! against a static recompute. It prints one `record` line (host, inputs,
//! exact counters, ratio bases, layer closure) and, last, the result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

mod drive;
mod metrics;
mod workload;

use drive::{Budget, Job, RankReport};
use dspgemm_mpi::tcp::{run_tcp, Reexec, TcpConfig};
use dspgemm_mpi::{Comm, NUM_CATEGORIES};
use dspgemm_obs::json::escape;
use dspgemm_sparse::semiring::{MinPlus, U64Plus};
use metrics::{Extras, Metric, Totals};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use workload::{Size, Workload, P};

/// Tells a TCP rank process which of its parent's jobs it belongs to:
/// `main`, or `ref:<batches>` for the dry frame baseline.
const JOB_ENV: &str = "PERFBENCH_TCP_JOB";

const USAGE: &str = "usage: perfbench --workload <insert-serve|insert-pipelined|general-minplus|\
insert-pipelined-tcp> --seed <n> [--seconds <s>] [--trace <0|1>] [--size <full|tiny>] [--batches <n>]";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// A fixed batch count in place of `--seconds` (exact-counter tests).
    batches: Option<u64>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, 10.0);
    let (mut trace, mut size, mut batches) = (false, Size::Full, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => size = Size::parse(&value).ok_or_else(bad)?,
            "--batches" => {
                batches = Some(value.parse().map_err(|_| bad()).and_then(|n| {
                    if n > 0 {
                        Ok(n)
                    } else {
                        Err(bad())
                    }
                })?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size,
        batches,
    })
}

impl Args {
    fn job(&self) -> Job {
        Job {
            workload: self.workload,
            size: self.size,
            seed: self.seed,
            budget: self
                .batches
                .map_or(Budget::Seconds(self.seconds), Budget::Batches),
            trace: self.trace,
            dry: false,
        }
    }
}

/// One rank of `job`, on either backend.
fn rank_main(comm: &Comm, job: &Job, attempted: &AtomicU64) -> RankReport {
    let ready_unix_ns = unix_ns();
    let shape = workload::shape(job.workload, job.size);
    let report = if job.workload.general() {
        let inputs = workload::general_inputs(shape, job.seed, comm.rank());
        drive::drive::<MinPlus>(comm, job, inputs, |i| i.next_general(), attempted)
    } else {
        let inputs = workload::insert_inputs(shape, job.seed, comm.rank());
        drive::drive::<U64Plus>(comm, job, inputs, |i| i.next_insert(), attempted)
    };
    RankReport {
        ready_unix_ns,
        ..report
    }
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Runs `job` on the simulator.
fn run_sim(job: Job, attempted: &AtomicU64) -> Vec<RankReport> {
    dspgemm_mpi::run(P, |comm| rank_main(comm, &job, attempted)).results
}

/// Runs `job` as `P` rank processes (this binary, re-executed with the
/// same arguments) over the TCP mesh. Returns the reports, the data-mesh
/// frame count, and the bootstrap time: parent spawn to the last rank's
/// closure entry.
fn run_on_tcp(job: Job, role: &str) -> (Vec<RankReport>, u64, f64) {
    std::env::set_var(JOB_ENV, role);
    let mut cfg = TcpConfig::new(P);
    cfg.deadline = Duration::from_secs(170);
    let spawned = unix_ns();
    let out = run_tcp(Reexec::SameArgv, cfg, move |comm| {
        rank_main(comm, &job, &AtomicU64::new(0))
    });
    let reports: Vec<RankReport> = out
        .results
        .into_iter()
        .map(|r| r.expect("every rank reports"))
        .collect();
    let ready = reports
        .iter()
        .map(|r| r.ready_unix_ns)
        .max()
        .unwrap_or(spawned);
    (
        reports,
        out.frames,
        ready.saturating_sub(spawned) as f64 / 1e9,
    )
}

/// A TCP rank process: re-enter the job named by [`JOB_ENV`] and exit
/// inside `run_tcp`.
fn tcp_child(args: &Args) -> ! {
    let mut job = args.job();
    let role = std::env::var(JOB_ENV).unwrap_or_default();
    if let Some(n) = role.strip_prefix("ref:") {
        job.dry = true;
        job.budget = Budget::Batches(n.parse().expect("ref job batch count"));
    }
    run_tcp(Reexec::SameArgv, TcpConfig::new(P), move |comm| {
        rank_main(comm, &job, &AtomicU64::new(0))
    });
    unreachable!("run_tcp exits in a rank process")
}

/// The counters that must repeat exactly for one seed, and match across
/// backends.
#[derive(Debug, PartialEq)]
struct Exact {
    batches: u64,
    bytes: [u64; NUM_CATEGORIES],
    msgs: [u64; NUM_CATEGORIES],
    flops: u64,
    nnz_c: u64,
    digest: u64,
}

impl Exact {
    fn of(reports: &[RankReport]) -> Self {
        let sum = |f: &dyn Fn(&RankReport) -> u64| reports.iter().map(f).sum::<u64>();
        let verdict = reports[0].verdict.unwrap_or_default();
        Self {
            batches: reports[0].batches,
            bytes: std::array::from_fn(|c| sum(&|r| r.stream.bytes[c])),
            msgs: std::array::from_fn(|c| sum(&|r| r.stream.msgs[c])),
            flops: sum(&|r| r.flops),
            nnz_c: verdict.2,
            digest: verdict.1,
        }
    }

    fn json(&self, frames: Option<u64>) -> String {
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let mut s = format!(
            "{{\"batches\":{},\"bytes\":[{}],\"msgs\":[{}],\"flops\":{},\"nnz_c\":{},\"digest\":\"{:016x}\"",
            self.batches,
            list(&self.bytes),
            list(&self.msgs),
            self.flops,
            self.nnz_c,
            self.digest
        );
        if let Some(f) = frames {
            let _ = write!(s, ",\"frames\":{f}");
        }
        s + "}"
    }
}

/// Everything one invocation measured.
struct Outcome {
    reports: Vec<RankReport>,
    extras: Extras,
    /// Data-mesh frames of the stream (traced TCP runs).
    stream_frames: Option<u64>,
    /// Checks beyond the bit-for-bit product comparison that failed.
    problems: Vec<String>,
}

fn run(args: &Args, attempted: &AtomicU64) -> Outcome {
    let job = args.job();
    let mut problems = Vec::new();
    if !job.workload.is_tcp() {
        let reports = run_sim(job, attempted);
        return Outcome {
            reports,
            extras: Extras::default(),
            stream_frames: None,
            problems,
        };
    }
    let (reports, frames, bootstrap_s) = run_on_tcp(job, "main");
    let mut extras = Extras {
        bootstrap_s,
        ..Extras::default()
    };
    let mut stream_frames = None;
    if job.trace {
        let n = reports[0].batches;
        // Identical harness traffic, no batch calls: the difference in
        // frames is the stream's.
        let dry = Job {
            dry: true,
            budget: Budget::Batches(n),
            ..job
        };
        let (_, ref_frames, _) = run_on_tcp(dry, &format!("ref:{n}"));
        match frames.checked_sub(ref_frames) {
            Some(d) => {
                stream_frames = Some(d);
                extras.frames_per_batch = d as f64 / n as f64;
            }
            None => problems.push(format!(
                "the dry baseline wrote more frames ({ref_frames}) than the stream job ({frames})"
            )),
        }
        // The same stream on the simulator: exact counters must agree, and
        // the wall difference is the cost of the real transport.
        let sim = run_sim(
            Job {
                workload: Workload::InsertPipelined,
                budget: Budget::Batches(n),
                ..job
            },
            &AtomicU64::new(0),
        );
        if Exact::of(&sim) != Exact::of(&reports) {
            problems.push(format!(
                "exact counters differ from insert-pipelined: sim {:?} vs tcp {:?}",
                Exact::of(&sim),
                Exact::of(&reports)
            ));
        }
        extras.stream_excess_ms = (reports[0].stream_ns as f64 - sim[0].stream_ns as f64) / 1e6;
    }
    Outcome {
        reports,
        extras,
        stream_frames,
        problems,
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Host facts recorded with the metrics.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            caches.push(format!("\"L{level} {kind} {size}\""));
        }
    }
    let mem_kib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .unwrap_or(0);
    format!(
        "{{\"nproc\":{nproc},\"caches\":[{}],\"mem_total_kib\":{mem_kib}}}",
        caches.join(",")
    )
}

fn record_json(args: &Args, out: &Outcome, totals: &Totals) -> String {
    let root = &out.reports[0];
    let shape = workload::shape(args.workload, args.size);
    let (_, tail_pct) = metrics::tail(&root.window_ns);
    let (layers, wall, unattributed) = totals.closure();
    let layer_fields: Vec<String> = layers
        .iter()
        .map(|(name, v)| format!("\"{name}_ms\":{}", num(*v)))
        .collect();
    let unmapped: Vec<String> = totals
        .unmapped_phases()
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    format!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"size\":\"{}\",\"trace\":{},\"p\":{P},\
\"threads\":{},\"host\":{},\"inputs\":{{\"graph\":\"LiveJournal R-MAT proxy\",\"divisor\":{},\
\"batch_per_rank\":{},\"n\":{},\"nnz_a\":{},\"nnz_b\":{},\"nnz_c_start\":{},\"nnz_c_end\":{}}},\
\"samples\":{},\"tail_percentile\":\"p{:.1}\",\"exact\":{},\"unwindowed_bytes\":{},\
\"ratio_bases\":{{\"sparse.flops_vs_static\":\"stream flops per batch / flops of one static SUMMA of the final A and B\",\
\"static_wire_ratio\":\"stream bytes per batch / bytes of one static SUMMA of the final A and B\",\
\"trace.overhead_pct\":\"median traced window / median untraced window of the same run, minus 1\"}},\
\"closure_per_traced_window\":{{\"wall_ms\":{},{},\"unattributed_ms\":{},\"traced_windows\":{},\"unmapped_phases\":[{}]}}}}}}",
        args.workload.name(),
        args.seed,
        args.size.name(),
        u8::from(args.trace),
        workload::THREADS,
        host_json(),
        shape.divisor,
        shape.batch_per_rank,
        workload::dimension(shape),
        root.nnz_start[0],
        root.nnz_start[1],
        root.nnz_start[2],
        root.verdict.map_or(0, |v| v.2),
        root.window_ns.len(),
        tail_pct,
        Exact::of(&out.reports).json(out.stream_frames),
        out.reports.iter().map(|r| r.unwindowed_bytes).sum::<u64>(),
        num(wall),
        layer_fields.join(","),
        num(unattributed),
        root.traced_windows,
        unmapped.join(","),
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if dspgemm_mpi::tcp::is_child() {
        tcp_child(&args);
    }
    let attempted = AtomicU64::new(0);
    let mut outcome = match catch_unwind(AssertUnwindSafe(|| run(&args, &attempted))) {
        Ok(o) => o,
        Err(_) => {
            // A batch call panicked: the job could not finish, so every
            // batch it entered is counted failed and nothing is measured.
            let n = attempted.load(Ordering::Relaxed).max(1);
            println!("{{\"correct\":false,\"attempted\":{n},\"failed\":{n},\"metrics\":{{}}}}");
            std::process::exit(1);
        }
    };
    if !matches!(outcome.reports[0].verdict, Some((true, ..))) {
        let msg = "maintained C differs from the static recompute";
        outcome.problems.push(msg.into());
    }
    let unwindowed: u64 = outcome.reports.iter().map(|r| r.unwindowed_bytes).sum();
    if unwindowed != 0 {
        let msg = format!("{unwindowed} stream bytes escaped the batch windows");
        outcome.problems.push(msg);
    }
    let totals = Totals::new(&outcome.reports);
    println!("{}", record_json(&args, &outcome, &totals));
    let correct = outcome.problems.is_empty();
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    let metrics = if args.trace {
        metrics::per_layer(&totals, &outcome.extras)
    } else {
        metrics::end_to_end(&totals, &outcome.extras)
    };
    let attempted = outcome.reports[0].batches;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{}}}",
        if correct { 0 } else { attempted },
        metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
