//! `serve-zipf`: `sgnn-serve` booted from a freshly trained mini-batch
//! bundle of ogbn-arxiv, driven over one connection by a closed loop with
//! a fixed window of Zipf-skewed multi-node queries.

use std::collections::HashMap;
use std::io::{Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

use sgnn_data::{dataset_spec, Dataset, GenScale};
use sgnn_dense::DMat;
use sgnn_serve::bundle::{CKPT_FILE, TERMS_FILE};
use sgnn_serve::wire::{self, Request, Response, MAX_BODY};
use sgnn_serve::{
    artifact, export, load_engine, serve, Client, ServeConfig, ServeEngine, ServerHandle,
};
use sgnn_train::memory::{ram_peak, ram_reset_peak};
use sgnn_train::{infer_mb, try_train_mini_batch_trained};

use crate::check::check_accuracy;
use crate::ledger::{rounds, timed, Ledger, Samples, Spans, MIB};
use crate::probe;
use crate::stats::{median, quantile, SplitMix64, Zipf};
use crate::{filter, host, train_config, Args};

pub const DATASET: &str = "ogbn-arxiv";
/// Epochs of the bundle's training run (outside every timed phase).
pub const BUNDLE_EPOCHS: usize = 5;
/// Nodes per query: the query size of the repository's own serving bench
/// (`crates/bench/benches/serve.rs`) and of `experiments serve-load`.
pub const NODES_PER_QUERY: usize = 4;
/// Queries kept in flight: the 64-client point that bench takes its
/// headline figures at, here as one pipelined connection. In runs where
/// other guests took up to a quarter of the host's CPU time, throughput
/// fell by up to 40% with 16 in flight and by about 15% with 64.
pub const WINDOW: usize = 64;
/// Zipf exponent of node popularity. A stand-in: no trace of which nodes
/// a served GNN is asked about is at hand, and s = 1 is the plain Zipf
/// law. The README records the cache hit ratio it yields.
pub const ZIPF_S: f64 = 1.0;
/// Queries per measured round, so that a round lasts about a second;
/// `serve_qps` is the median over rounds.
pub const ROUND_QUERIES: usize = 40_000;
/// Nodes per query of the test-split pass.
const TEST_CHUNK: usize = 64;
const SETUP_REPEATS: usize = 3;
const MIN_ROUNDS: usize = 5;

/// What the bundle's training run leaves for checking served replies.
struct Reference {
    labels: Vec<u32>,
    test: Vec<u32>,
    logits: DMat,
    test_metric: f64,
}

/// ogbn-arxiv at bench scale, generated from `seed`.
fn generate(seed: u64, ledger: &mut Ledger) -> Dataset {
    let spec = dataset_spec(DATASET).expect("ogbn-arxiv is registered");
    let data = spec.generate(GenScale::Bench, seed);
    ledger.op::<(), String>("generate", Ok(()));
    ledger.check(
        "arxiv shape",
        data.nodes() == 42_335 && data.features.cols() == 128 && data.num_classes == 40,
        format!(
            "{} nodes, {} directed edges, {} attributes, {} classes",
            data.nodes(),
            data.edges(),
            data.features.cols(),
            data.num_classes
        ),
    );
    data
}

/// Trains the bundle, exports it to `dir` and keeps the reference logits
/// of `infer_mb` on it; everything else is dropped before serving starts.
fn prepare(seed: u64, dir: &Path, ledger: &mut Ledger) -> Option<Reference> {
    let data = generate(seed, ledger);
    let cfg = train_config(seed, BUNDLE_EPOCHS);
    let trained = ledger.op(
        "bundle.train",
        try_train_mini_batch_trained(filter(), &data, &cfg),
    )?;
    let logits = infer_mb(
        &trained.model,
        &trained.terms,
        data.nodes(),
        cfg.batch_size,
        &trained.store,
    );
    ledger.op::<(), String>("infer", Ok(()));
    check_accuracy(
        "bundle test accuracy",
        &logits,
        &data,
        trained.report.test_metric,
        ledger,
    );
    ledger.op("bundle.export", export(dir, &trained, &cfg, &data))?;
    Some(Reference {
        labels: data.labels,
        test: data.splits.test,
        logits,
        test_metric: trained.report.test_metric,
    })
}

/// `serve()` until the first Ping is answered.
fn start(engine: ServeEngine) -> Result<ServerHandle, String> {
    let handle = serve(engine, ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| e.to_string())?;
    Ok(handle)
}

/// `load_engine`, then [`start`]; returns the server and both timings.
fn boot(dir: &Path, ledger: &mut Ledger) -> Option<(ServerHandle, f64, f64)> {
    let (engine, load_s) = timed(|| load_engine(dir));
    let engine = ledger.op("load", engine)?;
    let (handle, boot_s) = timed(|| start(engine));
    Some((ledger.op("boot", handle)?, load_s, boot_s))
}

/// Zipf-skewed node ids: rank `r` maps to a seeded random node.
struct QueryGen {
    zipf: Zipf,
    node_of_rank: Vec<u32>,
    rng: SplitMix64,
}

impl QueryGen {
    fn new(nodes: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5e7e);
        let node_of_rank = rng.permutation(nodes);
        Self {
            zipf: Zipf::new(nodes, ZIPF_S),
            node_of_rank,
            rng,
        }
    }

    fn ids(&mut self, k: usize) -> Vec<u32> {
        (0..k)
            .map(|_| self.node_of_rank[self.zipf.sample(&mut self.rng)])
            .collect()
    }

    /// The next round of queries.
    fn round(&mut self) -> Vec<Vec<u32>> {
        (0..ROUND_QUERIES)
            .map(|_| self.ids(NODES_PER_QUERY))
            .collect()
    }
}

/// The replies to a connection's queries, against the serving contract:
/// every query gets exactly one `Logits` reply with the requested rows,
/// and every served row equals the reference row bit for bit.
#[derive(Default)]
struct Tally {
    queries: usize,
    /// Well-shaped `Logits` replies.
    logits: usize,
    wrong_shape: usize,
    /// Served rows that differ from the reference.
    mismatched: usize,
    /// Replies to no query in flight.
    stray: usize,
}

impl Tally {
    /// Checks the reply to a query for `nodes`. Returns the served rows of
    /// a well-shaped `Logits` reply, or why the query failed.
    fn reply<'a>(
        &mut self,
        nodes: &[u32],
        resp: &'a Response,
        reference: &DMat,
    ) -> Result<&'a [f32], String> {
        let (rows, cols, data) = match resp {
            Response::Logits {
                rows, cols, data, ..
            } => (*rows as usize, *cols as usize, data),
            Response::Error { code, msg, .. } => return Err(format!("{code:?}: {msg}")),
            other => return Err(format!("unexpected reply {other:?}")),
        };
        let c = reference.cols();
        if rows != nodes.len() || cols != c || data.len() != rows * c {
            self.wrong_shape += 1;
            return Err("wrong reply shape".into());
        }
        self.logits += 1;
        for (got, &node) in data.chunks_exact(c).zip(nodes) {
            let want = reference.row(node as usize);
            if got
                .iter()
                .zip(want)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                self.mismatched += 1;
            }
        }
        Ok(data)
    }

    fn ok(&self) -> bool {
        self.logits == self.queries
            && self.wrong_shape == 0
            && self.mismatched == 0
            && self.stray == 0
    }
}

/// The reply code a reply is counted under.
fn reply_code(resp: &Response) -> String {
    match resp {
        Response::Logits { .. } => "logits".into(),
        Response::Error { code, .. } => format!("{code:?}"),
        _ => "unexpected".into(),
    }
}

/// One connection with a fixed window of queries in flight.
struct Conn {
    stream: TcpStream,
    nonce: u64,
    tally: Tally,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            nonce: 0,
            tally: Tally::default(),
        })
    }

    fn send(&mut self, nodes: &[u32]) -> std::io::Result<u64> {
        self.nonce += 1;
        let frame = wire::encode_request(&Request::Query {
            nonce: self.nonce,
            deadline_ms: 0,
            nodes: nodes.to_vec(),
        });
        self.stream.write_all(&frame)?;
        Ok(self.nonce)
    }

    fn recv(&mut self) -> Result<Response, String> {
        match wire::read_frame(&mut self.stream, MAX_BODY) {
            Ok(Some(body)) => wire::decode_response(&body).map_err(|e| e.to_string()),
            Ok(None) => Err("connection closed".into()),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// Sends every query of `queries` with at most `WINDOW` in flight and
    /// tallies each reply. Served rows land in `served` when given.
    /// Returns the latencies in seconds of the queries answered with
    /// `Logits`.
    fn run(
        &mut self,
        queries: &[Vec<u32>],
        reference: &DMat,
        mut served: Option<&mut DMat>,
        ledger: &mut Ledger,
    ) -> Vec<f64> {
        let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
        let mut latencies = Vec::with_capacity(queries.len());
        let (mut sent, mut done) = (0, 0);
        self.tally.queries += queries.len();
        while done < queries.len() {
            while sent < queries.len() && inflight.len() < WINDOW {
                match self.send(&queries[sent]) {
                    Ok(nonce) => {
                        inflight.insert(nonce, (sent, Instant::now()));
                    }
                    Err(e) => {
                        ledger.op::<(), _>("query", Err(e));
                        done += 1;
                    }
                }
                sent += 1;
            }
            if inflight.is_empty() {
                continue;
            }
            let resp = match self.recv() {
                Ok(r) => r,
                Err(e) => {
                    // The connection is unusable: every query in flight fails.
                    for _ in inflight.drain() {
                        ledger.op::<(), _>("query", Err(e.clone()));
                        done += 1;
                    }
                    done += queries.len() - sent;
                    for _ in sent..queries.len() {
                        ledger.op::<(), _>("query", Err("not sent: connection lost"));
                    }
                    sent = queries.len();
                    continue;
                }
            };
            let Some((q, t0)) = inflight.remove(&resp.nonce()) else {
                self.tally.stray += 1;
                continue;
            };
            let latency = t0.elapsed().as_secs_f64();
            done += 1;
            ledger.reply(&reply_code(&resp));
            match self.tally.reply(&queries[q], &resp, reference) {
                Ok(data) => {
                    if let Some(s) = served.as_deref_mut() {
                        for (got, &node) in data.chunks_exact(s.cols()).zip(&queries[q]) {
                            s.row_mut(node as usize).copy_from_slice(got);
                        }
                    }
                    ledger.op::<(), String>("query", Ok(()));
                    latencies.push(latency);
                }
                Err(e) => {
                    ledger.op::<(), _>("query", Err(e));
                }
            }
        }
        latencies
    }

    fn check(&self, ledger: &mut Ledger) {
        let t = &self.tally;
        ledger.check(
            "one Logits reply per query, requested rows, bit-identical to infer_mb",
            t.ok(),
            format!(
                "{} queries: {} Logits replies, {} wrong shape, {} rows differ, {} stray replies",
                t.queries, t.logits, t.wrong_shape, t.mismatched, t.stray
            ),
        );
    }
}

/// Queries every test node through the server and recomputes accuracy
/// from the served logits.
fn test_pass(conn: &mut Conn, r: &Reference, ledger: &mut Ledger) -> f64 {
    let queries: Vec<Vec<u32>> = r.test.chunks(TEST_CHUNK).map(<[u32]>::to_vec).collect();
    let mut served = DMat::zeros(r.logits.rows(), r.logits.cols());
    conn.run(&queries, &r.logits, Some(&mut served), ledger);
    let acc = crate::check::accuracy(&served, &r.labels, &r.test);
    ledger.check(
        "served test accuracy equals the trainer's",
        acc == r.test_metric,
        format!("served {acc}, trainer {}", r.test_metric),
    );
    acc
}

pub fn run(args: &Args, work: &Path, ledger: &mut Ledger) {
    let dir = work.join("bundle");
    let Some(reference) = prepare(args.seed, &dir, ledger) else {
        return;
    };
    if args.trace {
        traced(args, &dir, &reference, ledger);
        return;
    }
    let mut setup = Samples::default();
    let mut server: Option<ServerHandle> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(h) = server.take() {
            h.shutdown();
        }
        let booted = setup.run(|r| {
            let (h, load_s, boot_s) = boot(&dir, ledger)?;
            r.push("setup_s", load_s + boot_s);
            Some(h)
        });
        let Some(h) = booted else {
            return;
        };
        server = Some(h);
    }
    let server = server.expect("at least one boot");
    let Some(mut conn) = ledger.op("connect", Conn::open(server.addr())) else {
        return;
    };
    let mut gen = QueryGen::new(reference.logits.rows(), args.seed);
    conn.run(&gen.round(), &reference.logits, None, ledger);

    let mut s = Samples::default();
    rounds(args.seconds, MIN_ROUNDS, &mut s, |s| {
        let queries = gen.round();
        ram_reset_peak();
        let cpu0 = host::cpu_s();
        let (lat, wall) = timed(|| conn.run(&queries, &reference.logits, None, ledger));
        s.push("cpu_s", host::cpu_s() - cpu0);
        s.push("peak_ram_mib", ram_peak() as f64 / MIB);
        s.push("work_s", wall);
        s.push("serve_qps", lat.len() as f64 / wall);
        s.pooled = lat;
    });
    let test_metric = test_pass(&mut conn, &reference, ledger);
    conn.check(ledger);
    drop(conn);
    server.shutdown();

    let latencies = s.pooled();
    let p50 = quantile(&latencies, 0.5) * 1e3;
    let p99 = quantile(&latencies, 0.99) * 1e3;
    ledger.note(format!(
        "{{\"serve_latency\":{{\"p50_ms\":{p50},\"p99_ms\":{p99},\"samples\":{},\"window\":{WINDOW},\"nodes_per_query\":{NODES_PER_QUERY}}}}}",
        latencies.len()
    ));
    ledger.note(s.note("rounds"));
    ledger.metric("setup_s", setup.median("setup_s"), "s");
    ledger.metric("work_s", s.median("work_s"), "s");
    ledger.metric("infer_ms", p50, "ms");
    ledger.metric("cpu_s", s.median("cpu_s"), "s");
    ledger.metric("peak_ram_mib", s.median("peak_ram_mib"), "MiB");
    ledger.metric("test_metric", test_metric, "score");
    ledger.detail("serve_qps", s.median("serve_qps"), "1/s");
}

/// Client-side wire cost of one query: `encode_request`, then
/// `read_frame` + `decode_response` of a reply already in memory.
fn wire_us(classes: usize) -> f64 {
    let nodes: Vec<u32> = (0..NODES_PER_QUERY as u32).collect();
    let reply = wire::encode_response(&Response::Logits {
        nonce: 1,
        rows: NODES_PER_QUERY as u32,
        cols: classes as u32,
        data: vec![0.5; NODES_PER_QUERY * classes],
    });
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            timed(|| {
                let req = wire::encode_request(&Request::Query {
                    nonce: 1,
                    deadline_ms: 0,
                    nodes: nodes.clone(),
                });
                let body = wire::read_frame(&mut Cursor::new(&reply), MAX_BODY)
                    .ok()
                    .flatten()
                    .expect("in-memory frame");
                std::hint::black_box((req, wire::decode_response(&body)))
            })
            .1
        })
        .collect();
    median(&samples) * 1e6
}

fn traced(args: &Args, dir: &Path, reference: &Reference, ledger: &mut Ledger) {
    let n = reference.logits.rows();
    let mut gen = QueryGen::new(n, args.seed);
    let (warm, measured) = (gen.round(), gen.round());

    // Untraced reference: boot, warm the cache, one measured round.
    let Some((server, _, _)) = boot(dir, ledger) else {
        return;
    };
    let Some(mut conn) = ledger.op("connect", Conn::open(server.addr())) else {
        return;
    };
    conn.run(&warm, &reference.logits, None, ledger);
    let (_, untraced_s) = timed(|| conn.run(&measured, &reference.logits, None, ledger));
    conn.check(ledger);
    drop(conn);
    server.shutdown();

    // Traced: the same queries against a fresh server, with the program's
    // counters aggregating over the measured round.
    let mut sp = Spans::start();
    let Some(engine) = sp.time("serve.load", || ledger.op("load", load_engine(dir))) else {
        return;
    };
    let booted = sp.time("serve.boot", || start(engine));
    let Some(server) = ledger.op("boot", booted) else {
        return;
    };
    let Some(mut conn) = ledger.op("connect", Conn::open(server.addr())) else {
        return;
    };
    sp.time("serve.warmup", || {
        conn.run(&warm, &reference.logits, None, ledger)
    });
    sgnn_obs::enable_aggregation();
    sp.time("serve.queries", || {
        conn.run(&measured, &reference.logits, None, ledger)
    });
    let traced_s = sp.total("serve.queries");
    let obs = sgnn_obs::snapshot();
    sp.time("serve.test_pass", || {
        test_pass(&mut conn, reference, ledger)
    });
    conn.check(ledger);
    drop(conn);
    sp.time("serve.shutdown", || server.shutdown());
    let unattributed = sp.unattributed_pct();

    let batch = obs.hist("serve.batch_size").cloned().unwrap_or_default();
    let batch_rows = batch.mean();
    let hits = obs.counter("serve.cache.hit").unwrap_or(0) as f64;
    let misses = obs.counter("serve.cache.miss").unwrap_or(0) as f64;
    let queue_ns = obs.hist("serve.queue_ns").map_or(0, |h| h.p50);

    // Engine and gather probes on batches of the served mean size.
    let rows = batch_rows.round().max(1.0) as usize;
    let mut gen = QueryGen::new(n, args.seed ^ 0x9e);
    let batches: Vec<Vec<u32>> = (0..200).map(|_| gen.ids(rows)).collect();
    let art = ledger.op("load", artifact::load(&dir.join(TERMS_FILE)));
    let terms_bytes = art
        .as_ref()
        .map_or(0, |a| sgnn_core::FilterModule::precompute_bytes(&a.terms));
    let gather_rate = art
        .as_ref()
        .map_or(f64::NAN, |a| probe::gather_rows_per_s(&a.terms, &batches));
    // The engine's transform GEMMs on the same batches: forward only, as
    // serving runs no backward. The first layer takes every channel's
    // width (one channel for Chebyshev).
    let fan_in = art.map_or(0, |a| a.terms.iter().map(|c| c[0].cols()).sum());
    let layers = [
        probe::Layer {
            fan_in,
            fan_out: crate::HIDDEN,
            input_grad: false,
        },
        probe::Layer {
            fan_in: crate::HIDDEN,
            fan_out: reference.logits.cols(),
            input_grad: false,
        },
    ];
    let heights = vec![rows; batches.len()];
    let (gemm_s, _, _) = probe::epoch_gemms(&layers, &heights, args.seed);
    let gemm_flops: f64 = layers
        .iter()
        .map(|l| 2.0 * (rows * batches.len() * l.fan_in * l.fan_out) as f64)
        .sum();
    let engine_rate = ledger
        .op("load", load_engine(dir))
        .map_or(f64::NAN, |mut e| {
            e.logits(&batches[0]);
            let (_, t) = timed(|| {
                for b in &batches {
                    std::hint::black_box(e.logits(b));
                }
            });
            (batches.len() * rows) as f64 / t
        });
    let file_mib = [CKPT_FILE, TERMS_FILE]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()))
        .sum::<u64>() as f64
        / MIB;
    let load_s = sp.total("serve.load");

    ledger.metric("dense.gemm_ms", gemm_s * 1e3, "ms");
    ledger.metric("dense.gemm_gflops", gemm_flops / gemm_s / 1e9, "GFLOP/s");
    ledger.metric("dense.gather_rows_per_s", gather_rate, "rows/s");
    ledger.metric("models.terms_mib", terms_bytes as f64 / MIB, "MiB");
    // The serving layer's own figures go on the detail line: the result
    // holds the per-layer metrics every workload measures.
    ledger.detail("serve.load_s", load_s, "s");
    ledger.detail("serve.load_mib_s", file_mib / load_s, "MiB/s");
    ledger.detail("serve.boot_s", sp.total("serve.boot"), "s");
    ledger.detail("serve.engine_rows_per_s", engine_rate, "rows/s");
    ledger.detail("serve.batch_rows", batch_rows, "rows");
    ledger.detail("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
    ledger.detail("serve.queue_wait_ms", queue_ns as f64 / 1e6, "ms");
    ledger.detail("serve.wire_us", wire_us(reference.logits.cols()), "us");
    ledger.metric("obs.overhead_pct", 100.0 * traced_s / untraced_s, "%");
    ledger.metric("obs.unattributed_pct", unattributed, "%");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_serve::wire::ErrorCode;

    fn logits(data: Vec<f32>) -> Response {
        Response::Logits {
            nonce: 1,
            rows: (data.len() / 2) as u32,
            cols: 2,
            data,
        }
    }

    #[test]
    fn the_serving_check_needs_one_matching_logits_reply_per_query() {
        let reference = DMat::from_vec(3, 2, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let good = logits(vec![4.0, 5.0, 0.0, 1.0]);

        let mut t = Tally {
            queries: 1,
            ..Tally::default()
        };
        assert_eq!(
            t.reply(&[2, 0], &good, &reference),
            Ok(&[4.0, 5.0, 0.0, 1.0][..])
        );
        assert!(t.ok());

        // A query that got no reply.
        t.queries += 1;
        assert!(!t.ok());

        // An Error reply fails its query and the check.
        let error = Response::Error {
            nonce: 2,
            code: ErrorCode::Backpressure,
            retry_after_ms: 1,
            msg: "queue full".into(),
        };
        assert!(t.reply(&[1], &error, &reference).is_err());
        assert!(!t.ok(), "an Error reply must fail the check");

        // The wrong row count, or a row that differs in one bit.
        for (nodes, resp) in [
            (&[2u32][..], good.clone()),
            (
                &[2, 0][..],
                logits(vec![4.0, 5.0, 0.0, f32::from_bits(1.0f32.to_bits() + 1)]),
            ),
        ] {
            let mut t = Tally {
                queries: 1,
                ..Tally::default()
            };
            let _ = t.reply(nodes, &resp, &reference);
            assert!(!t.ok());
        }
    }
}
