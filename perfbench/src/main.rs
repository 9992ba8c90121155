//! Outside-in benchmark of the spectral GNN workspace.
//!
//! ```text
//! sgnn-perfbench --workload <mb-sharded|serve-zipf> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public functions of the `sgnn-*` crates and
//! times those calls from outside. With `--trace 0` a run prints the
//! end-to-end metrics; with `--trace 1` it replays the workload with the
//! benchmark's own spans around each layer and prints the per-layer
//! metrics. Every run checks the program's outputs; a failed check makes
//! the run exit non-zero. The last line of stdout is the result object.

mod check;
mod host;
mod ledger;
mod mb;
mod probe;
mod serve;
mod stats;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ledger::{json_num, json_str, Ledger};

#[global_allocator]
static ALLOC: sgnn_train::memory::TrackingAlloc = sgnn_train::memory::TrackingAlloc;

pub const WORKLOADS: [&str; 2] = ["mb-sharded", "serve-zipf"];

/// The result's metrics with `--trace 0`, the same for every workload.
/// `work_s` is the wall of the workload's main call (one training call;
/// one round of queries) and `infer_ms` the wait for one inference (a
/// full-graph `infer_mb` pass; a served query's p50 latency).
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "work_s",
    "infer_ms",
    "cpu_s",
    "peak_ram_mib",
    "test_metric",
];

/// The result's metrics with `--trace 1`: the layers every workload
/// measures. Figures of layers only one workload has go on its `detail`
/// line.
pub const PER_LAYER: [&str; 6] = [
    "dense.gemm_ms",
    "dense.gemm_gflops",
    "dense.gather_rows_per_s",
    "models.terms_mib",
    "obs.overhead_pct",
    "obs.unattributed_pct",
];

/// The model both workloads train: Chebyshev of order [`HOPS`] with
/// hidden width [`HIDDEN`].
pub const FILTER: &str = "Chebyshev";
pub const HOPS: usize = 10;
pub const HIDDEN: usize = 64;

pub fn filter() -> Arc<dyn sgnn_core::SpectralFilter> {
    sgnn_core::make_filter(FILTER, HOPS).expect("Chebyshev is registered")
}

/// Training at a fixed epoch count with early stopping off, so every
/// version of the program does the same work.
pub fn train_config(seed: u64, epochs: usize) -> sgnn_train::TrainConfig {
    sgnn_train::TrainConfig {
        hops: HOPS,
        hidden: HIDDEN,
        epochs,
        patience: 0,
        seed,
        ..sgnn_train::TrainConfig::default()
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Worker-pool lanes of every run: two, or one on a single-CPU host.
fn threads() -> usize {
    host::nproc().min(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A per-run scratch directory under the working directory, removed when
/// the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sgnn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = WorkDir(PathBuf::from(".perfbench-work").join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("sgnn-perfbench: {}: {e}", work.0.display());
        std::process::exit(2);
    }
    sgnn_dense::runtime::set_threads(threads());

    let steal0 = host::steal_s();
    let cpu0 = host::cpu_s();
    let start = Instant::now();
    let mut ledger = Ledger::default();
    match args.workload.as_str() {
        "mb-sharded" => mb::run(&args, &work.0, &mut ledger),
        "serve-zipf" => serve::run(&args, &work.0, &mut ledger),
        _ => unreachable!("workload validated by parse_args"),
    }
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut got = ledger.metric_names();
    got.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    ledger.check(
        "result holds every metric of its mode",
        got == want,
        format!("{got:?}"),
    );
    let wall = start.elapsed().as_secs_f64();
    ledger.note(format!(
        "{{\"host\":{{\"nproc\":{},\"cpu_model\":{},\"threads\":{},\"backend\":{},\"git_rev\":{},\
         \"workload\":{},\"seed\":{},\"trace\":{},\"wall_s\":{},\"cpu_s\":{},\"steal_s\":{}}}}}",
        host::nproc(),
        json_str(&host::cpu_model()),
        threads(),
        json_str(&format!("{:?}", sgnn_dense::backend::selected_kind())),
        json_str(&host::git_rev(std::path::Path::new("."))),
        json_str(&args.workload),
        args.seed,
        args.trace,
        json_num(wall),
        json_num(host::cpu_s() - cpu0),
        json_num(host::steal_s() - steal0),
    ));
    for line in ledger.render() {
        println!("{line}");
    }
    drop(work);
    if !ledger.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_the_run_flags() {
        let a = parse_args(&argv(
            "--workload mb-sharded --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mb-sharded", 7, 12.0, true)
        );
        assert!(parse_args(&argv("--workload fb-arxiv")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve-zipf --threads 1")).is_err());
    }

    /// The metric and workload lists match BENCHMARK.json's, name for name.
    #[test]
    fn lists_match_the_manifest() {
        use sgnn_obs::json::{parse, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            let Some(Value::Arr(list)) = spec.get(key) else {
                panic!("{key} is not a list");
            };
            list.iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
