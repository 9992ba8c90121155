//! `mb-sharded`: decoupled mini-batch Chebyshev (K = 10) on a graph with
//! pokec's Table-3 parameters, generated straight to shards and propagated
//! through the streaming operator.

use std::path::Path;
use std::sync::Arc;

use sgnn_autograd::optim::GroupHyper;
use sgnn_autograd::{Adam, Optimizer, ParamStore, Tape};
use sgnn_core::FilterModule;
use sgnn_data::{dataset_spec, generate_sharded, CsbmParams, Metric, ShardedDataset};
use sgnn_dense::rng as drng;
use sgnn_models::decoupled::{gather_terms, DecoupledConfig, DecoupledModel};
use sgnn_sparse::{PropMatrix, ShardedCsr};
use sgnn_train::memory::{ram_peak, ram_reset_peak, DeviceMeter};
use sgnn_train::{infer_mb, try_train_mini_batch_with};

use crate::check::{self, check_accuracy, FIXED_POINT_TOL};
use crate::ledger::{rounds, timed, Ledger, Samples, Spans, MIB};
use crate::probe::{self, Layer};
use crate::stats::median;
use crate::{filter, host, train_config, Args};

pub const DATASET: &str = "pokec";
/// Nodes of the scaled graph; edges keep pokec's mean degree.
pub const NODES: usize = 100_000;
pub const EPOCHS: usize = 5;
/// Graph generations before the first round.
const SETUP_REPEATS: usize = 3;
/// Graph generations at the start of every round, so that `setup_s` is
/// sampled across the whole run rather than in one burst at its start.
const SETUP_PER_ROUND: usize = 2;
const INFER_REPEATS: usize = 5;
const MIN_ROUNDS: usize = 3;

/// pokec's Table-3 row (homophily, attributes, classes, signal, mean
/// degree) at [`NODES`] nodes.
pub fn params() -> CsbmParams {
    let spec = dataset_spec(DATASET).expect("pokec is registered");
    CsbmParams {
        nodes: NODES,
        edges: (NODES as f64 * spec.edges as f64 / spec.nodes as f64 / 2.0) as usize,
        homophily: spec.homophily,
        classes: spec.classes,
        feature_dim: spec.feature_dim,
        signal: spec.signal,
        ..CsbmParams::default()
    }
}

/// One `generate_sharded` call writing the workload's graph to `path`,
/// timed as a repeat of `setup_s`.
fn generate(
    seed: u64,
    path: &Path,
    setup: &mut Samples,
    ledger: &mut Ledger,
) -> Option<ShardedDataset> {
    let p = params();
    setup.run(|r| {
        let (sd, s) = timed(|| generate_sharded(DATASET, &p, Metric::Accuracy, seed, path, 0));
        r.push("setup_s", s);
        ledger.op("generate", sd)
    })
}

/// Generates the graph [`SETUP_REPEATS`] times and checks its shape.
fn setup(seed: u64, path: &Path, ledger: &mut Ledger) -> Option<(ShardedDataset, Samples)> {
    let mut setup = Samples::default();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        last = Some(generate(seed, path, &mut setup, ledger)?);
    }
    let sd = last.expect("at least one generation");
    let p = params();
    ledger.check(
        "pokec-like shape",
        sd.data.nodes() == NODES
            && sd.data.features.cols() == p.feature_dim
            && sd.data.num_classes == 2,
        format!(
            "{} nodes, {} stored edges in {} shards ({} B), {} attributes",
            sd.data.nodes(),
            sd.summary.nnz,
            sd.summary.shards,
            sd.summary.file_bytes,
            sd.data.features.cols()
        ),
    );
    Some((sd, setup))
}

/// The degree fixed point of the streaming operator, with degrees taken
/// from the shard file's degree table once they add up to its nnz.
fn check_fixed_point(csr: &ShardedCsr, pm: &PropMatrix, rho: f32, ledger: &mut Ledger) {
    let sum: u64 = csr.degs().iter().map(|&d| d as u64).sum();
    ledger.check(
        "shard degree table sums to nnz",
        sum == csr.nnz_stored(),
        format!("sum {sum}, stored nnz {}", csr.nnz_stored()),
    );
    let degs: Vec<f64> = csr.degs().iter().map(|&d| d as f64 + 1.0).collect();
    let (f, a) = check::fixed_point_errors(pm, &degs, rho as f64);
    ledger.check(
        "sharded operator fixes degree powers",
        f < FIXED_POINT_TOL && a < FIXED_POINT_TOL,
        format!("largest error {f:.3} (A d^rho), {a:.3} (A^T d^(1-rho)) rounding bounds"),
    );
}

pub fn run(args: &Args, work: &Path, ledger: &mut Ledger) {
    let path = work.join("pokec.shrd");
    let Some((sd, mut setup)) = setup(args.seed, &path, ledger) else {
        return;
    };
    let cfg = train_config(args.seed, EPOCHS);
    let pm = PropMatrix::from_sharded(Arc::clone(&sd.csr), cfg.rho);
    check_fixed_point(&sd.csr, &pm, cfg.rho, ledger);
    if args.trace {
        traced(args, &sd, &pm, &path, &setup, ledger);
        return;
    }
    let data = &sd.data;
    let spare = work.join("setup.shrd");
    let mut s = Samples::default();
    rounds(args.seconds, MIN_ROUNDS, &mut s, |s| {
        for _ in 0..SETUP_PER_ROUND {
            if generate(args.seed, &spare, &mut setup, ledger).is_none() {
                return;
            }
        }
        ram_reset_peak();
        let cpu0 = host::cpu_s();
        let (r, train_s) = timed(|| try_train_mini_batch_with(filter(), &pm, data, &cfg));
        let Some(trained) = ledger.op("train", r) else {
            return;
        };
        let mut infers = Vec::new();
        let mut logits = None;
        for _ in 0..INFER_REPEATS {
            let (l, t) = timed(|| {
                infer_mb(
                    &trained.model,
                    &trained.terms,
                    data.nodes(),
                    cfg.batch_size,
                    &trained.store,
                )
            });
            ledger.op::<(), String>("infer", Ok(()));
            infers.push(t);
            logits = Some(l);
        }
        let cpu = host::cpu_s() - cpu0;
        let report = &trained.report;
        let logits = logits.expect("at least one inference");
        let acc = check_accuracy("test accuracy", &logits, data, report.test_metric, ledger);
        ledger.check(
            "fixed epoch count",
            report.epochs_run == EPOCHS,
            format!("{} epochs", report.epochs_run),
        );
        s.push("train_s", train_s);
        s.push("precompute_s", report.precompute_s);
        s.push("epoch_ms", report.train_epoch_s * 1e3);
        s.push("infer_s", median(&infers));
        s.push("cpu_s", cpu);
        s.push("peak_ram_mib", ram_peak() as f64 / MIB);
        s.push("device_peak_mib", report.device_bytes as f64 / MIB);
        s.push("test_metric", acc);
    });
    ledger.note(s.note("rounds"));
    ledger.note(setup.note("setup"));
    ledger.metric("setup_s", setup.median("setup_s"), "s");
    ledger.metric("work_s", s.median("train_s"), "s");
    ledger.metric("infer_ms", s.median("infer_s") * 1e3, "ms");
    ledger.metric("cpu_s", s.median("cpu_s"), "s");
    ledger.metric("peak_ram_mib", s.median("peak_ram_mib"), "MiB");
    ledger.metric("test_metric", s.median("test_metric"), "score");
    ledger.detail("precompute_s", s.median("precompute_s"), "s");
    ledger.detail("epoch_ms", s.median("epoch_ms"), "ms");
    ledger.detail("device_peak_mib", s.median("device_peak_mib"), "MiB");
}

fn traced(
    args: &Args,
    sd: &ShardedDataset,
    pm: &PropMatrix,
    path: &Path,
    setup: &Samples,
    ledger: &mut Ledger,
) {
    let data = &sd.data;
    let cfg = train_config(args.seed, EPOCHS);
    // The untraced reference: the second of two training calls, so that
    // both sides of the overhead ratio run with warm allocations.
    let mut reference = None;
    for _ in 0..2 {
        drop(reference.take());
        let (r, s) = timed(|| try_train_mini_batch_with(filter(), pm, data, &cfg));
        reference = Some((ledger.op("train", r).map(|t| t.report), s));
    }
    let Some((Some(report), untraced_s)) = reference else {
        return;
    };

    sgnn_obs::enable_aggregation();
    let mut sp = Spans::start();
    // Replay of the mini-batch trainer's loop: same calls, order and seeds.
    let opened = sp.time("sparse.operator", || {
        ShardedCsr::open(path, true).map(|csr| PropMatrix::from_sharded(Arc::new(csr), cfg.rho))
    });
    let Some(rpm) = ledger.op("open", opened) else {
        return;
    };
    let (model, mut store, mut opt, mut rng) = sp.time("models.init", || {
        let mut rng = drng::seeded(cfg.seed);
        let mut store = ParamStore::new();
        let model = DecoupledModel::new(
            filter(),
            data.features.cols(),
            data.num_classes,
            DecoupledConfig {
                hidden: cfg.hidden,
                phi0_layers: 0,
                phi1_layers: 2,
                dropout: cfg.dropout,
            },
            &mut store,
            &mut rng,
        );
        let opt = Adam::with_groups(
            GroupHyper {
                lr: cfg.lr,
                weight_decay: cfg.weight_decay,
            },
            GroupHyper {
                lr: cfg.lr_filter,
                weight_decay: cfg.weight_decay_filter,
            },
        );
        (model, store, opt, rng)
    });
    let terms = sp.time("models.precompute", || {
        model.precompute_mb(&rpm, &data.features)
    });
    let mut device = DeviceMeter::new();
    let (mut epochs_wall, mut tape_bytes) = (0.0, 0usize);
    let mut train_idx = data.splits.train.clone();
    let mut chunks: Vec<Vec<u32>> = Vec::new();
    let mut finite = true;
    for epoch in 0..cfg.epochs {
        let (_, epoch_s) = timed(|| {
            drng::shuffle(&mut train_idx, &mut rng);
            chunks = train_idx
                .chunks(cfg.batch_size)
                .map(|c| c.to_vec())
                .collect();
            for (b, chunk) in chunks.iter().enumerate() {
                store.zero_grads();
                let batch_terms = sp.time("models.gather", || gather_terms(&terms, chunk));
                let (mut tape, loss, f) = sp.time("autograd.forward", || {
                    let y: Vec<u32> = chunk.iter().map(|&i| data.labels[i as usize]).collect();
                    let mut tape = Tape::new(
                        true,
                        cfg.seed
                            .wrapping_mul(6151)
                            .wrapping_add(epoch as u64 * 131)
                            .wrapping_add(b as u64),
                    );
                    let logits = model.forward_mb(&mut tape, &batch_terms, &store);
                    let loss = tape.softmax_cross_entropy(logits, Arc::new(y));
                    let f = tape.value(loss).get(0, 0).is_finite();
                    (tape, loss, f)
                });
                finite &= f;
                sp.time("autograd.backward", || tape.backward(loss, &mut store));
                sp.time("autograd.step", || opt.step(&mut store));
                device.record_step(&tape, &store, Some(&opt), 0);
                tape_bytes = tape_bytes.max(tape.resident_bytes());
            }
        });
        epochs_wall += epoch_s;
    }
    let logits = sp.time("train.infer", || {
        infer_mb(&model, &terms, data.nodes(), cfg.batch_size, &store)
    });
    let traced_s = sp.wall();
    let unattributed = sp.unattributed_pct();
    let epoch_spans = [
        "models.gather",
        "autograd.forward",
        "autograd.backward",
        "autograd.step",
    ];
    let epoch_other = epochs_wall - epoch_spans.iter().map(|n| sp.total(n)).sum::<f64>();
    ledger.op::<(), &str>(
        "replay",
        if finite {
            Ok(())
        } else {
            Err("non-finite loss")
        },
    );
    let replay_acc = check::accuracy(&logits, &data.labels, &data.splits.test);
    ledger.check(
        "replay reaches the untraced test metric",
        replay_acc == report.test_metric,
        format!("replay {replay_acc}, untraced {}", report.test_metric),
    );
    ledger.check(
        "replay device peak",
        device.peak() == report.device_bytes,
        format!(
            "replay {} B, untraced {} B",
            device.peak(),
            report.device_bytes
        ),
    );

    // Kernel probes on this workload's operator, terms and shapes.
    let width = data.features.cols();
    let read0 = sgnn_obs::snapshot()
        .counter("shard.bytes_read")
        .unwrap_or(0);
    let (hop_s, hop_t_s) = probe::hops(&rpm, width, args.seed);
    let read = sgnn_obs::snapshot()
        .counter("shard.bytes_read")
        .unwrap_or(0)
        - read0;
    let per_hop_mib = read as f64 / (2 * probe::REPEATS) as f64 / MIB;
    let (_, basis_s) = timed(|| model.filter.precompute(&rpm, &data.features));
    let layers = [
        Layer {
            fan_in: model.filter.out_features(width),
            fan_out: cfg.hidden,
            input_grad: true,
        },
        Layer {
            fan_in: cfg.hidden,
            fan_out: data.num_classes,
            input_grad: true,
        },
    ];
    let heights: Vec<usize> = chunks.iter().map(Vec::len).collect();
    let (gemm_f, gemm_b, flops) = probe::epoch_gemms(&layers, &heights, args.seed);
    let gather_rate = probe::gather_rows_per_s(&terms, &chunks);
    let epochs = cfg.epochs as f64;
    let gen = setup.median("setup_s");

    // The result holds the per-layer metrics every workload measures; the
    // layers only this workload has go on the detail line.
    ledger.detail("data.generate_sharded_s", gen, "s");
    ledger.detail("data.edges_per_s", sd.summary.nnz as f64 / gen, "1/s");
    ledger.detail("data.shard_mib", sd.summary.file_bytes as f64 / MIB, "MiB");
    ledger.detail("sparse.operator_s", sp.total("sparse.operator"), "s");
    ledger.detail("sparse.hop_ms", hop_s * 1e3, "ms");
    ledger.detail("sparse.hop_t_ms", hop_t_s * 1e3, "ms");
    ledger.detail(
        "sparse.nnz_cols_per_s",
        (rpm.nnz() * width) as f64 / hop_s,
        "1/s",
    );
    ledger.detail(
        "sparse.hop_mib",
        probe::hop_mib(rpm.n(), rpm.nnz(), width),
        "MiB",
    );
    ledger.detail(
        "sparse.shard_decode_mib_s",
        per_hop_mib / ((hop_s + hop_t_s) / 2.0),
        "MiB/s",
    );
    ledger.detail("core.basis_s", basis_s, "s");
    ledger.detail("core.hops", model.filter.filter().hops() as f64, "count");
    ledger.metric("dense.gemm_ms", (gemm_f + gemm_b) * 1e3, "ms");
    ledger.metric(
        "dense.gemm_gflops",
        flops / (gemm_f + gemm_b) / 1e9,
        "GFLOP/s",
    );
    ledger.metric("dense.gather_rows_per_s", gather_rate, "rows/s");
    ledger.detail(
        "autograd.forward_ms",
        sp.total("autograd.forward") / epochs * 1e3,
        "ms",
    );
    ledger.detail(
        "autograd.backward_ms",
        sp.total("autograd.backward") / epochs * 1e3,
        "ms",
    );
    // Mini-batch backward runs no propagation: only the gradient GEMMs are
    // probed out of it.
    ledger.detail(
        "autograd.backward_other_ms",
        (sp.total("autograd.backward") / epochs - gemm_b) * 1e3,
        "ms",
    );
    ledger.detail(
        "autograd.step_ms",
        sp.total("autograd.step") / epochs * 1e3,
        "ms",
    );
    ledger.detail("autograd.tape_mib", tape_bytes as f64 / MIB, "MiB");
    ledger.detail("models.precompute_s", sp.total("models.precompute"), "s");
    ledger.detail(
        "models.gather_ms",
        sp.total("models.gather") / epochs * 1e3,
        "ms",
    );
    ledger.metric(
        "models.terms_mib",
        FilterModule::precompute_bytes(&terms) as f64 / MIB,
        "MiB",
    );
    ledger.detail("train.epoch_other_ms", epoch_other / epochs * 1e3, "ms");
    ledger.metric("obs.overhead_pct", 100.0 * traced_s / untraced_s, "%");
    ledger.metric("obs.unattributed_pct", unattributed, "%");
}
