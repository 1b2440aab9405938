//! Load generator for `uhscm-serve`: starts an in-process server on a
//! synthetic workload, drives it over real loopback TCP, and writes
//! `BENCH_serve.json` at the workspace root.
//!
//! Three phases:
//!
//! 1. **latency** — closed loop, one request in flight, default server:
//!    per-request RTT percentiles (p50/p95/p99) under no queueing.
//! 2. **throughput** — pipelined bursts: sustained requests/second and the
//!    batch-size distribution the coalescing actually achieved.
//! 3. **overload** — a one-slot admission queue drained one query per
//!    batch: a pipelined burst outruns the worker, which proves shedding
//!    engages (shed responses, zero hangs, clean drain).
//!
//! Usage: `loadgen [requests] [burst]` (defaults 200 and 32).

use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::Serialize;
use uhscm_obs::registry;
use uhscm_serve::{
    decode_response, encode_request, read_frame_blocking, synth, write_frame, Engine, FrameReader,
    QueryRequest, Reason, Request, Response, ServeConfig, Server,
};

const SEED: u64 = 2023;
const DIM: usize = 64;
const BITS: usize = 32;
const N_DB: usize = 4096;
const TOP_K: usize = 10;

struct Client {
    stream: TcpStream,
    frames: FrameReader,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect to loopback");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
        stream.set_nodelay(true).expect("set nodelay");
        Client { stream, frames: FrameReader::new() }
    }

    fn send(&mut self, req: &Request) {
        write_frame(&mut self.stream, &encode_request(req)).expect("loadgen write");
    }

    fn recv(&mut self) -> Response {
        let body = read_frame_blocking(&mut self.stream, &mut self.frames).expect("loadgen read");
        decode_response(&body).expect("loadgen decode")
    }
}

fn query(id: u64, features: &[f64]) -> Request {
    Request::Query(QueryRequest {
        id,
        features: features.to_vec(),
        top_k: TOP_K,
        deadline_ms: None,
    })
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[derive(Serialize)]
struct LatencyStats {
    requests: usize,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    max_us: f64,
}

#[derive(Serialize)]
struct ThroughputStats {
    requests: usize,
    burst: usize,
    elapsed_s: f64,
    requests_per_s: f64,
    batch_count: u64,
    batch_mean: f64,
    batch_max: f64,
}

#[derive(Serialize)]
struct OverloadStats {
    offered: usize,
    answered: usize,
    shed: usize,
    shed_rate: f64,
    drained_cleanly: bool,
}

#[derive(Serialize)]
struct ServeBench {
    seed: u64,
    dim: usize,
    bits: usize,
    db_size: usize,
    top_k: usize,
    shards: usize,
    latency: LatencyStats,
    throughput: ThroughputStats,
    overload: OverloadStats,
}

fn start_server(w: &synth::SynthWorkload, config: &ServeConfig, shards: usize) -> Server {
    let engine = Engine::new(w.model.clone(), &w.db, shards).expect("engine config");
    Server::start(engine, config).expect("server start")
}

fn latency_phase(w: &synth::SynthWorkload, requests: usize, shards: usize) -> LatencyStats {
    let server = start_server(w, &ServeConfig::default(), shards);
    let mut client = Client::connect(&server);
    let n_queries = w.queries.rows();
    let mut rtts_us = Vec::with_capacity(requests);
    for i in 0..requests {
        let row = w.queries.row(i % n_queries);
        let t0 = Instant::now();
        client.send(&query(i as u64, row));
        match client.recv() {
            Response::Hits { .. } => {}
            other => panic!("latency phase: unexpected {other:?}"),
        }
        rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    server.shutdown();
    rtts_us.sort_by(f64::total_cmp);
    LatencyStats {
        requests,
        p50_us: percentile(&rtts_us, 50.0),
        p95_us: percentile(&rtts_us, 95.0),
        p99_us: percentile(&rtts_us, 99.0),
        max_us: rtts_us.last().copied().unwrap_or(0.0),
    }
}

fn throughput_phase(
    w: &synth::SynthWorkload,
    requests: usize,
    burst: usize,
    shards: usize,
) -> ThroughputStats {
    registry::reset();
    let config = ServeConfig {
        max_batch: burst.max(1),
        queue_cap: 4 * burst.max(1),
        ..ServeConfig::default()
    };
    let server = start_server(w, &config, shards);
    let mut client = Client::connect(&server);
    let n_queries = w.queries.rows();
    let t0 = Instant::now();
    let mut sent = 0usize;
    while sent < requests {
        let this_burst = burst.min(requests - sent);
        for b in 0..this_burst {
            let i = sent + b;
            client.send(&query(i as u64, w.queries.row(i % n_queries)));
        }
        for _ in 0..this_burst {
            match client.recv() {
                Response::Hits { .. } => {}
                other => panic!("throughput phase: unexpected {other:?}"),
            }
        }
        sent += this_burst;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();
    let snap = registry::snapshot();
    let (batch_count, batch_mean, batch_max) = snap
        .histograms
        .get("serve.batch.size")
        .map_or((0, 0.0, 0.0), |h| (h.count, h.mean(), h.max));
    ThroughputStats {
        requests,
        burst,
        elapsed_s: elapsed,
        requests_per_s: if elapsed > 0.0 { requests as f64 / elapsed } else { 0.0 },
        batch_count,
        batch_mean,
        batch_max,
    }
}

fn overload_phase(w: &synth::SynthWorkload, offered: usize, shards: usize) -> OverloadStats {
    registry::reset();
    // One slot, one query per batch: the connection thread admits a burst
    // faster than the worker encodes and searches, so part of it must
    // bounce off admission control.
    let config = ServeConfig { queue_cap: 1, max_batch: 1, ..ServeConfig::default() };
    let server = start_server(w, &config, shards);
    let mut client = Client::connect(&server);
    let n_queries = w.queries.rows();
    for i in 0..offered {
        client.send(&query(i as u64, w.queries.row(i % n_queries)));
    }
    let mut answered = 0usize;
    let mut shed = 0usize;
    for _ in 0..offered {
        match client.recv() {
            Response::Hits { .. } => answered += 1,
            Response::Error { reason: Reason::Overloaded, .. } => shed += 1,
            other => panic!("overload phase: unexpected {other:?}"),
        }
    }
    server.shutdown();
    OverloadStats {
        offered,
        answered,
        shed,
        shed_rate: shed as f64 / offered as f64,
        // Every offered request got exactly one reply and shutdown joined
        // every thread without panicking — that is the clean-drain claim.
        drained_cleanly: answered + shed == offered,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let requests: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let burst: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let shards = 2;

    // Metrics on, trace stream discarded: loadgen only reads the registry.
    uhscm_obs::enable_with_writer(Box::new(std::io::sink()));

    eprintln!("loadgen: synthesizing workload (dim={DIM}, bits={BITS}, db={N_DB})");
    let w = synth::workload(SEED, DIM, BITS, N_DB, 64);

    eprintln!("loadgen: latency phase ({requests} closed-loop requests)");
    let latency = latency_phase(&w, requests, shards);
    eprintln!("loadgen: throughput phase ({requests} requests, bursts of {burst})");
    let throughput = throughput_phase(&w, requests, burst, shards);
    eprintln!("loadgen: overload phase (burst of {} into a 1-slot queue)", 4 * burst);
    let overload = overload_phase(&w, 4 * burst, shards);

    let report = ServeBench {
        seed: SEED,
        dim: DIM,
        bits: BITS,
        db_size: N_DB,
        top_k: TOP_K,
        shards,
        latency,
        throughput,
        overload,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(|root| root.join("BENCH_serve.json"));
    match path {
        Some(path) => match std::fs::write(&path, json + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        },
        None => eprintln!("warning: cannot locate the workspace root"),
    }
    println!(
        "p50 {:.0}us  p95 {:.0}us  p99 {:.0}us | {:.0} req/s (mean batch {:.1}) | shed rate {:.2}",
        report.latency.p50_us,
        report.latency.p95_us,
        report.latency.p99_us,
        report.throughput.requests_per_s,
        report.throughput.batch_mean,
        report.overload.shed_rate,
    );
}
