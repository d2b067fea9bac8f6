//! The benchmark's own checks, at the tiny scale with a fixed batch count:
//! exact counters repeat for a seed, change with the seed, and agree between
//! the simulator and the TCP backend; every metric `BENCHMARK.json` names is
//! printed.

use dspgemm_obs::json::{parse, Value};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "insert-serve",
    "insert-pipelined",
    "general-minplus",
    "insert-pipelined-tcp",
];

/// Runs the benchmark binary; returns its `record` and result lines.
fn run(workload: &str, seed: u64, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--size",
            "tiny",
            "--batches",
            "4",
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., record, result] = lines[..] else {
        panic!("{workload}: expected a record and a result line:\n{stdout}")
    };
    let record = parse(record).expect("record is JSON");
    let result = parse(result).expect("result is JSON");
    (record.get("record").expect("record key").clone(), result)
}

fn exact(record: &Value) -> &Value {
    record.get("exact").expect("exact counters")
}

fn exact_without_frames(record: &Value) -> Vec<(String, Value)> {
    let obj = exact(record).as_obj().expect("exact is an object");
    obj.iter()
        .filter(|(k, _)| *k != "frames")
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn exact_counters_repeat_for_a_seed() {
    for w in WORKLOADS {
        let (first, result) = run(w, 7, 1);
        let (second, _) = run(w, 7, 1);
        assert_eq!(
            exact(&first),
            exact(&second),
            "{w}: counters differ between runs"
        );
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
        assert_eq!(num(&result, "failed"), 0.0, "{w}");
        assert_eq!(num(&result, "attempted"), 4.0, "{w}");
        assert_eq!(num(&first, "unwindowed_bytes"), 0.0, "{w}");
    }
}

#[test]
fn tcp_counters_equal_the_simulator() {
    let (sim, _) = run("insert-pipelined", 11, 1);
    let (tcp, _) = run("insert-pipelined-tcp", 11, 1);
    assert_eq!(exact_without_frames(&sim), exact_without_frames(&tcp));
    assert!(
        num(exact(&tcp), "frames") > 0.0,
        "the TCP stream wrote no frames"
    );
}

#[test]
fn seed_changes_the_product() {
    for w in ["insert-pipelined", "general-minplus"] {
        let (a, _) = run(w, 7, 0);
        let (b, _) = run(w, 8, 0);
        assert_ne!(
            exact(&a).get("digest"),
            exact(&b).get("digest"),
            "{w}: the seed does not reach the inputs"
        );
    }
}

#[test]
fn record_describes_host_and_inputs() {
    let (record, _) = run("insert-serve", 3, 0);
    let host = record.get("host").expect("host");
    assert!(num(host, "nproc") >= 1.0);
    assert!(num(host, "mem_total_kib") > 0.0);
    let inputs = record.get("inputs").expect("inputs");
    for key in ["n", "nnz_a", "nnz_b", "nnz_c_start", "nnz_c_end"] {
        assert!(num(inputs, key) > 0.0, "{key}");
    }
}

#[test]
fn every_listed_metric_is_printed() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = parse(&std::fs::read_to_string(manifest).expect("BENCHMARK.json")).unwrap();
    for (list, trace) in [("end_to_end", 0), ("per_layer", 1)] {
        let names: Vec<&str> = bench
            .get(list)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        for w in WORKLOADS {
            let (_, result) = run(w, 5, trace);
            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics");
            let mut printed: Vec<&str> = metrics.keys().map(String::as_str).collect();
            printed.sort_unstable();
            let mut listed = names.clone();
            listed.sort_unstable();
            assert_eq!(printed, listed, "{w} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
