//! The two serve workloads: `serve-small-rw` and `serve-1m-read`.
//!
//! Set-up is the shipped store path: `uhscm db build` (stream-generate,
//! encode, write segments) in this process, then `uhscm serve --bundle D
//! --db-store D` in a child process with every other setting at its
//! default, until the server prints its address. Traffic goes over one
//! loopback connection in two phases:
//!
//! 1. **open loop** — seeded Poisson arrivals at a fixed rate; each frame is
//!    timed from its due time to its fully read reply, so a stall delays
//!    the frames behind it. A sender (this thread) and a receiver (one
//!    `WorkerPool` thread) share the connection.
//! 2. **saturation** — `WINDOW` queries kept outstanding; answered
//!    queries per second.
//!
//! Every frame is generated from the seed before the first is sent. Checks
//! run after the timed phases: insert/remove receipts must be gapless and
//! match the generator's predictions, and every `hits` reply (or a seeded
//! sample of them) must equal `HammingRanker::rank_top_n_with_dist` over the
//! live codes at the reply's reported generation, rebuilt from the store
//! and the receipts alone.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use uhscm::data::{DatasetConfig, DatasetKind, LatentStream};
use uhscm::eval::bitcode::hamming_scan;
use uhscm::eval::{BitCodes, HammingRanker};
use uhscm::linalg::Matrix;
use uhscm::nn::Mlp;
use uhscm::obs::trace::Json;
use uhscm::serve::pool::WorkerPool;
use uhscm::serve::{
    decode_request, decode_response, encode_frame, encode_request, encode_response,
    read_frame_blocking, Engine, FrameReader, GenesisBuilder, QueryRequest, Request, Response,
};
use uhscm::store::{store_path, StoreReader, StoreWriter};

use crate::report::{mean, median, percentile, Clock, Report, SplitMix};
use crate::{ensure_untraced, Args};

const BITS: usize = 64;
const DIM: usize = 64;
const KIND: DatasetKind = DatasetKind::Cifar10Like;
/// `db build`'s default chunk: one store segment per chunk.
const CHUNK: usize = 65_536;
const QUERY_SALT: u64 = 0x7175_6572_7900_0001;
const INSERT_SALT: u64 = 0x696e_7365_7274_0002;
const MIX_SALT: u64 = 0x6d69_7800_0000_0003;
const SAMPLE_SALT: u64 = 0x6f72_6163_6c65_0004;
/// Queries kept outstanding in the saturation phase: twice the default
/// `max_batch` of 16.
const WINDOW: usize = 32;
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Queries replayed through the scan and rank kernels in a traced run.
const KERNEL_QUERIES: usize = 256;
/// Consecutive windows the open-loop queries are split into. Percentiles
/// are taken per window and the run reports the median window, so a host
/// slowdown covering a few windows moves none of the reported figures.
const LAT_WINDOWS: usize = 10;

/// One serve workload's shape.
pub struct Spec {
    pub name: &'static str,
    /// Genesis codes built through `db build`.
    pub items: usize,
    pub top_k: usize,
    /// Open-loop Poisson arrival rate, frames per second.
    pub open_rate: f64,
    /// Share of the measured seconds given to the open-loop phase; the
    /// rest is the saturation phase.
    pub open_share: f64,
    /// Every `write_every`-th open-loop frame is a write (0 = read-only).
    pub write_every: usize,
    /// Feature rows per insert frame.
    pub insert_rows: usize,
    /// Saturation-phase queries generated up front (each vector distinct).
    pub sat_cap: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Replies checked against the oracle; `None` checks every reply.
    pub oracle_sample: Option<usize>,
}

impl Spec {
    pub fn small_rw(tiny: bool) -> Spec {
        Spec {
            name: "serve-small-rw",
            items: if tiny { 512 } else { 4096 },
            top_k: 10,
            open_rate: if tiny { 300.0 } else { 1000.0 },
            open_share: 0.6,
            write_every: 20,
            insert_rows: 8,
            sat_cap: if tiny { 2_000 } else { 50_000 },
            setups: 5,
            oracle_sample: None,
        }
    }

    pub fn one_m_read(tiny: bool) -> Spec {
        Spec {
            name: "serve-1m-read",
            items: if tiny { 20_000 } else { 1_000_000 },
            top_k: 100,
            open_rate: if tiny { 100.0 } else { 10.0 },
            open_share: 0.8,
            write_every: 0,
            insert_rows: 0,
            sat_cap: if tiny { 2_000 } else { 4_000 },
            setups: if tiny { 2 } else { 3 },
            oracle_sample: Some(if tiny { 64 } else { 400 }),
        }
    }
}

// ---------------------------------------------------------------- child ---

/// An in-memory trace sink: every write becomes one message, collected
/// once tracing is disabled and the sink dropped.
pub struct ChannelSink(pub mpsc::Sender<Vec<u8>>);

impl Write for ChannelSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let _ = self.0.send(data.to_vec());
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The `serve-child` role: `perfbench serve-child STORE_DIR [TRACE_FILE]`.
/// Runs `uhscm serve --bundle STORE_DIR --db-store STORE_DIR` through the
/// CLI code path until stdin closes. With `TRACE_FILE`, `uhscm-obs` records
/// into memory and the trace is written there after the drain; without
/// it, the child refuses to serve if tracing is on.
pub fn child_main(args: &[String]) -> ExitCode {
    let Some(store) = args.first() else {
        eprintln!("usage: perfbench serve-child STORE_DIR [TRACE_FILE]");
        return ExitCode::from(2);
    };
    let trace_out = args.get(1).map(PathBuf::from);
    let trace_rx = match &trace_out {
        Some(_) => {
            let (tx, rx) = mpsc::channel();
            uhscm::obs::enable_with_writer(Box::new(ChannelSink(tx)));
            Some(rx)
        }
        None => {
            if let Err(e) = ensure_untraced() {
                eprintln!("perfbench-child: {e}");
                return ExitCode::from(2);
            }
            None
        }
    };
    println!("perfbench-child tracing {}", if trace_rx.is_some() { "on" } else { "off" });
    let _ = std::io::stdout().flush();
    let argv: Vec<String> =
        ["serve", "--bundle", store, "--db-store", store].iter().map(|s| s.to_string()).collect();
    let result =
        uhscm::cli::parse_invocation(&argv).and_then(|inv| uhscm::cli::run_invocation(&inv));
    if let (Some(rx), Some(path)) = (trace_rx, &trace_out) {
        uhscm::obs::disable();
        let bytes: Vec<u8> = rx.try_iter().flatten().collect();
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("perfbench-child: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-child: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running server child. Dropping it kills and reaps the process.
struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerChild {
    /// Spawn the child with `UHSCM_OBS` removed and wait until it prints
    /// its address. The child's first line states its tracing gate, which
    /// must match `trace_out`.
    fn start(store: &Path, trace_out: Option<&Path>) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve-child").arg(store);
        if let Some(p) = trace_out {
            cmd.arg(p);
        }
        cmd.env_remove("UHSCM_OBS").stdin(Stdio::piped()).stdout(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| format!("spawn server child: {e}"))?;
        let stdout = child.stdout.take().ok_or("server child has no stdout")?;
        let mut server = ServerChild { child, stdout: BufReader::new(stdout), addr: String::new() };
        let want = if trace_out.is_some() { "on" } else { "off" };
        let mut gate = None;
        loop {
            let mut line = String::new();
            let n = server.stdout.read_line(&mut line).map_err(|e| format!("read banner: {e}"))?;
            if n == 0 {
                return Err("server child exited before it was ready".to_string());
            }
            if let Some(state) = line.trim().strip_prefix("perfbench-child tracing ") {
                gate = Some(state.to_string());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest.split_whitespace().next().unwrap_or_default().to_string();
                break;
            }
        }
        if gate.as_deref() != Some(want) {
            return Err(format!("server child tracing gate is {gate:?}, expected {want}"));
        }
        Ok(server)
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        crate::report::vmhwm_mib(&self.child.id().to_string())
    }

    /// Close stdin (the CLI's drain trigger) and wait for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server child exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server child did not drain within 30 s".to_string()),
                Err(e) => return Err(format!("wait for server child: {e}")),
            }
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// -------------------------------------------------------------- traffic ---

enum Op {
    /// Query with row `.0` of the query pool.
    Query(usize),
    /// Insert rows `first_row..first_row + insert_rows` of the insert pool;
    /// the generator predicts the global index they land at.
    Insert {
        first_row: usize,
        first_index: u32,
    },
    Remove(u32),
}

struct Frame {
    id: u64,
    /// Due time, seconds after the open-loop start (saturation: unused).
    due_s: f64,
    op: Op,
    bytes: Vec<u8>,
}

/// Every frame of a run, generated from the seed before anything is sent.
struct Traffic {
    open: Vec<Frame>,
    sat: Vec<Frame>,
    queries: Matrix,
    inserts: Matrix,
}

fn stream_rows(n: usize, seed: u64) -> Matrix {
    let config = DatasetConfig { latent_dim: DIM, ..DatasetConfig::default() };
    match LatentStream::new(KIND, &config, n, seed).next_chunk(n) {
        Some(chunk) => chunk.latents,
        None => Matrix::from_vec(0, DIM, Vec::new()),
    }
}

fn make_traffic(spec: &Spec, seed: u64, open_secs: f64) -> Result<Traffic, String> {
    let mut rng = SplitMix::new(seed ^ MIX_SALT);
    let mut live: Vec<u32> = (0..spec.items as u32).collect();
    let mut total = spec.items as u32;
    let mut ops = Vec::new();
    let (mut n_query, mut n_insert) = (0usize, 0usize);
    let mut t = 0.0;
    loop {
        t += rng.exp(spec.open_rate);
        if t >= open_secs {
            break;
        }
        // Every `write_every`-th frame is a write, and every
        // `1 + insert_rows`-th write an insert: one insert of `insert_rows`
        // rows per `insert_rows` removes keeps the live count at the
        // genesis size, and the segment count depends only on the number
        // of arrivals, not on the draw.
        let position = ops.len() + 1;
        let op = if spec.write_every > 0 && position % spec.write_every == 0 {
            let nth_write = position / spec.write_every - 1;
            if nth_write.is_multiple_of(1 + spec.insert_rows) || live.is_empty() {
                let op = Op::Insert { first_row: n_insert * spec.insert_rows, first_index: total };
                live.extend(total..total + spec.insert_rows as u32);
                total += spec.insert_rows as u32;
                n_insert += 1;
                op
            } else {
                Op::Remove(live.swap_remove(rng.below(live.len())))
            }
        } else {
            n_query += 1;
            Op::Query(n_query - 1)
        };
        ops.push((t, op));
    }
    let queries = stream_rows(n_query + spec.sat_cap, seed ^ QUERY_SALT);
    let inserts = stream_rows(n_insert * spec.insert_rows, seed ^ INSERT_SALT);
    let frame = |id: u64, due_s: f64, op: Op| -> Result<Frame, String> {
        let req = match &op {
            Op::Query(row) => Request::Query(QueryRequest {
                id,
                features: queries.row(*row).to_vec(),
                top_k: spec.top_k,
                deadline_ms: None,
            }),
            Op::Insert { first_row, .. } => Request::Insert {
                id,
                rows: (0..spec.insert_rows).map(|k| inserts.row(first_row + k).to_vec()).collect(),
            },
            Op::Remove(index) => Request::Remove { id, index: u64::from(*index) },
        };
        let bytes = encode_frame(&encode_request(&req)).map_err(|e| format!("frame {id}: {e}"))?;
        Ok(Frame { id, due_s, op, bytes })
    };
    let mut open = Vec::with_capacity(ops.len());
    for (i, (due_s, op)) in ops.into_iter().enumerate() {
        open.push(frame(i as u64 + 1, due_s, op)?);
    }
    let mut sat = Vec::with_capacity(spec.sat_cap);
    for k in 0..spec.sat_cap {
        sat.push(frame((open.len() + k) as u64 + 1, 0.0, Op::Query(n_query + k))?);
    }
    Ok(Traffic { open, sat, queries, inserts })
}

/// Raw replies of one pass, with their timing.
struct Pass {
    /// `(receive time after the open-loop start, body)` per reply.
    open_replies: Vec<(f64, String)>,
    /// Per open-loop frame sent: send time minus due time, seconds.
    lags_s: Vec<f64>,
    sat_replies: Vec<String>,
    sat_sent: usize,
    /// Answered saturation queries per second.
    sat_rate: f64,
}

fn drive(addr: &str, traffic: &Traffic, sat_secs: f64) -> Result<Pass, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;

    // Phase 1: open loop. The receiver stamps each reply as it completes.
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let expected = traffic.open.len();
    let (tx, rx) = mpsc::channel();
    let mut pool = WorkerPool::new();
    pool.spawn("bench-recv", move || {
        let mut frames = FrameReader::new();
        let mut got = Vec::with_capacity(expected);
        while got.len() < expected {
            match read_frame_blocking(&mut reader, &mut frames) {
                Ok(body) => got.push((Instant::now(), body)),
                Err(_) => break,
            }
        }
        let _ = tx.send(got);
    })
    .map_err(|e| format!("spawn receiver: {e}"))?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut lags_s = Vec::with_capacity(expected);
    for f in &traffic.open {
        let due = t0 + Duration::from_secs_f64(f.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if stream.write_all(&f.bytes).is_err() {
            break;
        }
        lags_s.push(sent.saturating_duration_since(due).as_secs_f64());
    }
    pool.join_all();
    let got = rx.recv().map_err(|_| "receiver thread vanished".to_string())?;
    let open_replies =
        got.into_iter().map(|(at, body)| (at.saturating_duration_since(t0).as_secs_f64(), body));
    let open_replies: Vec<(f64, String)> = open_replies.collect();

    // Phase 2: saturation, `WINDOW` queries outstanding.
    let mut frames = FrameReader::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(sat_secs);
    let (mut next, mut outstanding) = (0usize, 0usize);
    let mut sat_replies = Vec::new();
    let mut stamps = Vec::new();
    while outstanding < WINDOW && next < traffic.sat.len() {
        stream.write_all(&traffic.sat[next].bytes).map_err(|e| format!("send: {e}"))?;
        next += 1;
        outstanding += 1;
    }
    while outstanding > 0 {
        let Ok(body) = read_frame_blocking(&mut stream, &mut frames) else { break };
        let now = Instant::now();
        outstanding -= 1;
        sat_replies.push(body);
        if now <= deadline {
            stamps.push((now - start).as_secs_f64());
        }
        if now < deadline && next < traffic.sat.len() {
            if stream.write_all(&traffic.sat[next].bytes).is_err() {
                break;
            }
            next += 1;
            outstanding += 1;
        }
    }
    if next == traffic.sat.len() && Instant::now() < deadline {
        eprintln!("perfbench: saturation pool of {next} queries ran out before the deadline");
    }
    // Answered queries per second over the whole phase: the batching
    // regime can change within a phase, and the mean weighs each by its
    // duration.
    let span = stamps.last().copied().filter(|_| next == traffic.sat.len()).unwrap_or(sat_secs);
    let sat_rate = stamps.len() as f64 / span.max(1e-9);
    Ok(Pass { open_replies, lags_s, sat_replies, sat_sent: next, sat_rate })
}

// --------------------------------------------------------------- oracle ---

/// A checked `hits` reply.
struct Hit {
    id: u64,
    row: usize,
    generation: u64,
    hits: Vec<(u32, u32)>,
}

/// One pass, decoded and checked.
struct Outcome {
    query_lat_us: Vec<f64>,
    /// Per answered open-loop query: round trip from the actual send.
    query_rtt_us: Vec<f64>,
    write_lat_us: Vec<f64>,
    lag_us: Vec<f64>,
    sat_rate: f64,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    hits: Vec<Hit>,
    /// Server receipts: committed generation per mutation frame id.
    receipts: BTreeMap<u64, u64>,
    /// Decoded replies (for the protocol replay) and request/reply bytes.
    replies: Vec<Response>,
    reply_bytes: Vec<usize>,
    /// Codes (live or not) scanned at each generation.
    codes_at_gen: Vec<usize>,
    /// The database at the last generation: every code, and the dead ones.
    final_codes: BitCodes,
    query_codes: BitCodes,
}

/// Decode one pass, match replies to frames, check receipts and hits.
fn check(
    spec: &Spec,
    traffic: &Traffic,
    pass: Pass,
    genesis: &BitCodes,
    model: &Mlp,
    seed: u64,
) -> Outcome {
    let mut violations = Vec::new();
    let mut failed = 0u64;
    let mut replies = Vec::new();
    let mut reply_bytes = Vec::new();
    let mut by_id: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    let all_bodies = pass
        .open_replies
        .iter()
        .map(|(t, b)| (*t, b))
        .chain(pass.sat_replies.iter().map(|b| (f64::NAN, b)));
    for (t, body) in all_bodies {
        match decode_response(body) {
            Ok(resp) => {
                let id = match &resp {
                    Response::Hits { id, .. }
                    | Response::Inserted { id, .. }
                    | Response::Removed { id, .. }
                    | Response::Flushed { id, .. }
                    | Response::Reloaded { id, .. }
                    | Response::Error { id, .. } => *id,
                    Response::Pong => 0,
                };
                by_id.insert(id, (t, replies.len()));
                replies.push(resp);
                reply_bytes.push(body.len() + 4);
            }
            Err(e) => violations.push(format!("undecodable reply: {e}")),
        }
    }

    let mut query_lat_us = Vec::new();
    let mut query_rtt_us = Vec::new();
    let mut write_lat_us = Vec::new();
    let mut hits = Vec::new();
    let mut receipts = BTreeMap::new();
    let mut events: BTreeMap<u64, &Op> = BTreeMap::new();
    let sent_open = pass.lags_s.len();
    for (i, f) in traffic.open.iter().enumerate() {
        let reply = if i < sent_open { by_id.get(&f.id) } else { None };
        let lat = reply.map(|&(t, _)| (t - f.due_s) * 1e6);
        let resp = reply.map(|&(_, k)| &replies[k]);
        let ok = match (&f.op, resp) {
            (Op::Query(row), Some(Response::Hits { hits: h, generation, .. })) => {
                hits.push(Hit { id: f.id, row: *row, generation: *generation, hits: h.clone() });
                true
            }
            (
                Op::Insert { first_index, .. },
                Some(Response::Inserted { generation, first_index: got, count, .. }),
            ) => {
                if *got != u64::from(*first_index) || *count != spec.insert_rows as u64 {
                    violations.push(format!(
                        "insert {} landed at {got} x{count}, predicted {first_index} x{}",
                        f.id, spec.insert_rows
                    ));
                }
                receipts.insert(f.id, *generation);
                events.insert(*generation, &f.op).is_none()
            }
            (Op::Remove(_), Some(Response::Removed { generation, removed: true, .. })) => {
                receipts.insert(f.id, *generation);
                events.insert(*generation, &f.op).is_none()
            }
            _ => false,
        };
        let lat = if ok { lat.unwrap_or(f64::INFINITY) } else { f64::INFINITY };
        if !ok {
            failed += 1;
            if failed <= 3 {
                eprintln!("perfbench: frame {} failed: {:?}", f.id, resp);
            }
        }
        match f.op {
            Op::Query(_) => {
                query_lat_us.push(lat);
                if ok {
                    query_rtt_us.push(lat - pass.lags_s[i] * 1e6);
                }
            }
            _ => write_lat_us.push(lat),
        }
    }
    for f in &traffic.sat[..pass.sat_sent] {
        match (by_id.get(&f.id).map(|&(_, k)| &replies[k]), &f.op) {
            (Some(Response::Hits { hits: h, generation, .. }), Op::Query(row)) => {
                hits.push(Hit { id: f.id, row: *row, generation: *generation, hits: h.clone() })
            }
            _ => failed += 1,
        }
    }
    let max_gen = events.keys().next_back().copied().unwrap_or(0);
    if events.len() as u64 != max_gen {
        violations.push(format!("{} mutations claim generations up to {max_gen}", events.len()));
    }

    // Rebuild the database at every generation from the receipts alone.
    let query_codes = BitCodes::from_real(&model.infer(&traffic.queries));
    let mut all = genesis.clone();
    let mut dead: BTreeSet<u32> = BTreeSet::new();
    let mut codes_at_gen = vec![all.len()];
    let mut order: Vec<usize> = (0..hits.len()).collect();
    if let Some(n) = spec.oracle_sample {
        let mut rng = SplitMix::new(seed ^ SAMPLE_SALT);
        for i in 0..order.len().min(n) {
            let j = i + rng.below(order.len() - i);
            order.swap(i, j);
        }
        order.truncate(n);
    }
    order.sort_by_key(|&i| (hits[i].generation, i));
    let mut at = 0;
    for g in 0..=max_gen {
        if g > 0 {
            match events.get(&g) {
                Some(Op::Insert { first_row, .. }) => {
                    let rows: Vec<f64> = (0..spec.insert_rows)
                        .flat_map(|k| traffic.inserts.row(first_row + k).to_vec())
                        .collect();
                    let m = Matrix::from_vec(spec.insert_rows, DIM, rows);
                    all.extend(&BitCodes::from_real(&model.infer(&m)));
                }
                Some(Op::Remove(index)) => {
                    dead.extend([*index]);
                }
                _ => {}
            }
            codes_at_gen.push(all.len());
        }
        let first = at;
        while at < order.len() && hits[order[at]].generation == g {
            at += 1;
        }
        if first == at {
            continue;
        }
        let ranker = HammingRanker::new(all.clone());
        for &i in &order[first..at] {
            let h = &hits[i];
            let want: Vec<(u32, u32)> = ranker
                .rank_top_n_with_dist(&query_codes, h.row, spec.top_k + dead.len())
                .into_iter()
                .filter(|(_, j)| !dead.contains(j))
                .take(spec.top_k)
                .collect();
            if h.hits != want {
                failed += 1;
                if failed <= 3 {
                    eprintln!(
                        "perfbench: reply {} at generation {g} differs from the oracle",
                        h.id
                    );
                }
            }
        }
    }
    if at < order.len() {
        failed += (order.len() - at) as u64;
        violations.push(format!("{} replies name a generation past {max_gen}", order.len() - at));
    }
    Outcome {
        query_lat_us,
        query_rtt_us,
        write_lat_us,
        lag_us: pass.lags_s.iter().map(|s| s * 1e6).collect(),
        sat_rate: pass.sat_rate,
        attempted: (sent_open + pass.sat_sent) as u64,
        failed,
        violations,
        hits,
        receipts,
        replies,
        reply_bytes,
        codes_at_gen,
        final_codes: all,
        query_codes,
    }
}

// --------------------------------------------------------------- set-up ---

fn db_build(dir: &Path, items: usize, seed: u64) -> Result<(), String> {
    let argv: Vec<String> = [
        "db",
        "build",
        "--out",
        &dir.to_string_lossy(),
        "--items",
        &items.to_string(),
        "--bits",
        &BITS.to_string(),
        "--dim",
        &DIM.to_string(),
        "--seed",
        &seed.to_string(),
        "--dataset",
        "cifar",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    uhscm::cli::parse_invocation(&argv)
        .and_then(|inv| uhscm::cli::run_invocation(&inv))
        .map(|_| ())
        .map_err(|e| format!("db build: {e}"))
}

/// One set-up: build the store, start the server, wait until it listens.
fn setup(dir: &Path, spec: &Spec, seed: u64) -> Result<(ServerChild, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    db_build(dir, spec.items, seed)?;
    let server = ServerChild::start(dir, None)?;
    Ok((server, t.elapsed().as_secs_f64()))
}

fn load_model(dir: &Path) -> Result<Mlp, String> {
    let mut f = std::fs::File::open(dir.join("model.nn")).map_err(|e| format!("model.nn: {e}"))?;
    Mlp::load(&mut f).map_err(|e| format!("model.nn: {e}"))
}

fn load_genesis(dir: &Path) -> Result<BitCodes, String> {
    StoreReader::open(&store_path(dir))
        .and_then(|r| r.read_all())
        .map_err(|e| format!("read store: {e}"))
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

// ------------------------------------------------------------------ run ---

pub fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let work = WorkDir::new(spec.name)?;
    let open_secs = args.seconds * spec.open_share;
    let sat_secs = args.seconds - open_secs;
    let traffic = make_traffic(spec, args.seed, open_secs)?;
    let store = work.0.join("store");
    let mut report = Report::default();

    if !args.trace {
        // Set up `setups` times (each from scratch); serve from the last.
        let mut times = Vec::new();
        let mut server = None;
        for _ in 0..spec.setups {
            ensure_untraced()?;
            if let Some(old) = server.take() {
                ServerChild::stop(old)?;
            }
            let (s, secs) = setup(&store, spec, args.seed)?;
            times.push(secs);
            server = Some(s);
        }
        let server = server.ok_or("no set-up ran")?;
        ensure_untraced()?;
        let pass = drive(&server.addr, &traffic, sat_secs)?;
        let rss = server.peak_rss_mib().ok_or("cannot read the server's VmHWM")?;
        server.stop()?;
        let genesis = load_genesis(&store)?;
        let model = load_model(&store)?;
        let out = check(spec, &traffic, pass, &genesis, &model, args.seed);
        end_to_end(spec, &out, median(&times), rss, &mut report);
        absorb(&mut report, out);
        return Ok(report);
    }

    // Traced: one set-up, an untraced pass, then the same traffic against a
    // fresh server with `uhscm-obs` recording into memory.
    let (server, setup_s) = setup(&store, spec, args.seed)?;
    ensure_untraced()?;
    let plain = drive(&server.addr, &traffic, sat_secs)?;
    server.stop()?;
    let child_trace = work.0.join("server.trace.jsonl");
    let server = ServerChild::start(&store, Some(&child_trace))?;
    let traced = drive(&server.addr, &traffic, sat_secs)?;
    server.stop()?;
    let genesis = load_genesis(&store)?;
    let model = load_model(&store)?;
    let plain = check(spec, &traffic, plain, &genesis, &model, args.seed);
    let traced = check(spec, &traffic, traced, &genesis, &model, args.seed);
    let trace_text = std::fs::read_to_string(&child_trace)
        .map_err(|e| format!("read {}: {e}", child_trace.display()))?;
    report.named.push(("setup_s", setup_s, "s"));
    layers(spec, args, &traffic, &plain, &traced, &trace_text, &work.0, &mut report)?;
    absorb(&mut report, plain);
    absorb(&mut report, traced);
    Ok(report)
}

fn absorb(report: &mut Report, out: Outcome) {
    report.attempted += out.attempted;
    report.failed += out.failed;
    report.violations.extend(out.violations);
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median over `LAT_WINDOWS` consecutive windows of each window's `p`-th
/// percentile.
fn windowed(samples: &[f64], p: f64) -> f64 {
    let windows = if samples.len() >= LAT_WINDOWS { LAT_WINDOWS } else { 1 };
    let per: Vec<f64> = (0..windows)
        .map(|w| {
            let (lo, hi) = (w * samples.len() / windows, (w + 1) * samples.len() / windows);
            percentile(&sorted(&samples[lo..hi]), p)
        })
        .collect();
    median(&per)
}

fn end_to_end(spec: &Spec, out: &Outcome, setup_s: f64, rss: f64, report: &mut Report) {
    let lat = &out.query_lat_us;
    let (p50, p90, p99) = (windowed(lat, 50.0), windowed(lat, 90.0), windowed(lat, 99.0));
    report.set("setup_s", setup_s);
    report.set("latency_p50_us", p50);
    report.set("latency_p90_us", p90);
    report.set("throughput_per_s", out.sat_rate);
    report.set("peak_rss_mb", rss);
    report.named.push(("query_p50_us", p50, "us"));
    report.named.push(("query_p90_us", p90, "us"));
    report.named.push(("query_p99_us", p99, "us"));
    report.named.push(("query_rps", out.sat_rate, "queries/s"));
    if spec.write_every > 0 {
        let w = sorted(&out.write_lat_us);
        report.named.push(("write_p50_us", percentile(&w, 50.0), "us"));
    }
    report.named.push(("open_loop_queries", lat.len() as f64, "count"));
    report.named.push(("gen.lag_p99_us", percentile(&sorted(&out.lag_us), 99.0), "us"));
}

// --------------------------------------------------------------- layers ---

/// Mean duration (µs) and count of the server's spans with `path`.
fn span_stats(events: &[Json], path: &str) -> (f64, u64) {
    let durs: Vec<f64> = events
        .iter()
        .filter(|e| e.get("type").and_then(Json::as_str) == Some("span"))
        .filter(|e| e.get("path").and_then(Json::as_str) == Some(path))
        .filter_map(|e| e.get("dur_ns").and_then(Json::as_f64))
        .collect();
    (mean(&durs) / 1e3, durs.len() as u64)
}

#[allow(clippy::too_many_arguments)]
fn layers(
    spec: &Spec,
    args: &Args,
    traffic: &Traffic,
    plain: &Outcome,
    traced: &Outcome,
    trace_text: &str,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let events = uhscm::obs::trace::parse_lines(trace_text)
        .map_err(|(line, e)| format!("server trace line {line}: {e}"))?;
    let summary =
        events.iter().rev().find(|e| e.get("type").and_then(Json::as_str) == Some("summary"));
    let registry = |kind: &str, name: &str, field: Option<&str>| -> f64 {
        let v = summary.and_then(|s| s.get(kind)).and_then(|m| m.get(name));
        let v = match field {
            Some(f) => v.and_then(|h| h.get(f)),
            None => v,
        };
        v.and_then(Json::as_f64).unwrap_or(0.0)
    };

    // Server-side layers from the spans and registry the program emits.
    let (batch_us, n_batch) = span_stats(&events, "serve_batch");
    let (encode_batch_us, n_encode) = span_stats(&events, "serve_batch/serve_encode");
    let (search_us, n_search) = span_stats(&events, "serve_batch/serve_search");
    let batches = registry("histograms", "serve.batch.size", Some("count"));
    let size_mean = registry("histograms", "serve.batch.size", Some("sum")) / batches.max(1.0);
    report.set("batch.size_mean", size_mean);
    report.set("batch.count", batches);
    report.set("batch.shed", registry("counters", "serve.shed", None));
    report.set("server.batch_us", batch_us);
    report.counts.insert("server.batch_us", n_batch);
    report.set("nn.encode_batch_us", encode_batch_us);
    report.counts.insert("nn.encode_batch_us", n_encode);
    let encode_query_us = if size_mean > 0.0 { encode_batch_us / size_mean } else { 0.0 };
    report.set("nn.encode_query_us", encode_query_us);
    report.set("shard.search_us", search_us);
    report.counts.insert("shard.search_us", n_search);
    let fanout = registry("counters", "par.plan.fanout", None);
    let serial = registry("counters", "par.plan.serial", None);
    report.set("par.fanout_frac", fanout / (fanout + serial).max(1.0));

    // The benchmark's own spans, replayed in-process on the run's inputs.
    let (tx, rx) = mpsc::channel();
    uhscm::obs::enable_with_writer(Box::new(ChannelSink(tx)));
    let mut clock = Clock::default();
    let mut req_bytes = Vec::new();
    let sent = traffic.open.iter().take(traced.lag_us.len());
    let sent = sent.chain(traffic.sat.iter().take(traced.attempted as usize - traced.lag_us.len()));
    for f in sent {
        let body = String::from_utf8_lossy(&f.bytes[4..]);
        let decoded = clock.time("protocol.decode_us", f.id, || decode_request(&body));
        if decoded.is_err() {
            report.violations.push(format!("frame {} does not decode", f.id));
        }
        req_bytes.push(f.bytes.len() as f64);
    }
    for resp in &traced.replies {
        let id = match resp {
            Response::Hits { id, .. } => *id,
            _ => 0,
        };
        let _ = clock.time("protocol.encode_us", id, || encode_frame(&encode_response(resp)));
    }
    let rb: Vec<f64> = traced.reply_bytes.iter().map(|&b| b as f64).collect();
    report.set_timed("protocol.decode_us", &clock);
    report.set_timed("protocol.encode_us", &clock);
    report.set("protocol.request_bytes", mean(&req_bytes));
    report.set("protocol.response_bytes", mean(&rb));

    // Write path: the run's exact mutation sequence from genesis.
    let store = work.join("store");
    let model = load_model(&store)?;
    let engine = {
        let mut reader = StoreReader::open(&store_path(&store)).map_err(|e| e.to_string())?;
        let mut genesis = GenesisBuilder::new(reader.bits());
        while let Some(segment) = reader.next_segment().map_err(|e| e.to_string())? {
            genesis.push(segment);
        }
        Engine::with_vocab_index(model.clone(), Vec::new(), genesis.finish())
            .map_err(|e| e.to_string())?
    };
    for f in &traffic.open {
        let generation = match &f.op {
            Op::Insert { first_row, .. } => {
                let rows: Vec<Vec<f64>> = (0..spec.insert_rows)
                    .map(|k| traffic.inserts.row(first_row + k).to_vec())
                    .collect();
                clock
                    .time("write.insert_us", f.id, || engine.insert_rows(&rows))
                    .map(|(c, _)| c.generation)
            }
            Op::Remove(index) => clock
                .time("write.remove_us", f.id, || engine.remove_index(u64::from(*index)))
                .map(|c| c.generation),
            Op::Query(_) => continue,
        };
        if generation.ok() != traced.receipts.get(&f.id).copied() {
            report.violations.push(format!("replayed mutation {} committed elsewhere", f.id));
        }
    }
    report.set_timed("write.insert_us", &clock);
    report.set_timed("write.remove_us", &clock);
    let last = engine.snapshot().generation;
    report.set("shard.segments", last.num_segments() as f64);
    report.set("shard.tombstones", (last.total_len() - last.live_len()) as f64);
    let scanned: Vec<f64> = traced
        .hits
        .iter()
        .filter_map(|h| traced.codes_at_gen.get(h.generation as usize))
        .map(|&n| n as f64)
        .collect();
    let codes_per_query = mean(&scanned);
    report.set("shard.codes_per_query", codes_per_query);
    report.set("shard.hits_per_code", spec.top_k as f64 / codes_per_query.max(1.0));

    // Kernels: serial scan and rank over the final codes, the run's queries.
    let db = &traced.final_codes;
    let mut dists = vec![0u32; db.len()];
    let ranker = HammingRanker::new(db.clone());
    for h in traced.hits.iter().take(KERNEL_QUERIES) {
        clock.time("scan.query_us", h.id, || {
            hamming_scan::scan_into(&traced.query_codes, h.row, db, &mut dists);
            std::hint::black_box(&dists);
        });
        clock.time("rank.query_us", h.id, || {
            ranker.rank_top_n_with_dist(&traced.query_codes, h.row, spec.top_k)
        });
    }
    report.set_timed("scan.query_us", &clock);
    report.set_timed("rank.query_us", &clock);
    report.set("scan.gcodes_per_s", db.len() as f64 / clock.mean_us("scan.query_us").0 / 1e3);

    // Ingest and store: the `db build` + `serve --db-store` steps, replayed.
    let replay = work.join("replay");
    std::fs::create_dir_all(&replay).map_err(|e| e.to_string())?;
    let config = DatasetConfig { latent_dim: DIM, ..DatasetConfig::default() };
    let mut stream = LatentStream::new(KIND, &config, spec.items, args.seed);
    let mut writer = StoreWriter::create(&store_path(&replay), BITS).map_err(|e| e.to_string())?;
    let mut chunk_id = 0u64;
    loop {
        let codes = clock.time("ingest", chunk_id, || {
            stream.next_chunk(CHUNK).map(|c| BitCodes::from_real(&model.infer(&c.latents)))
        });
        let Some(codes) = codes else { break };
        clock.time("store.write", chunk_id, || writer.append(&codes)).map_err(|e| e.to_string())?;
        chunk_id += 1;
    }
    let summary =
        clock.time("store.write", chunk_id, || writer.finish()).map_err(|e| e.to_string())?;
    let loaded = clock.time("store.load", 0, || -> Result<usize, String> {
        let mut reader = StoreReader::open(&store_path(&replay)).map_err(|e| e.to_string())?;
        let mut genesis = GenesisBuilder::new(reader.bits());
        while let Some(segment) = reader.next_segment().map_err(|e| e.to_string())? {
            genesis.push(segment);
        }
        Ok(genesis.total_len())
    })?;
    if loaded != spec.items {
        report.violations.push(format!("replayed store holds {loaded} codes"));
    }
    let items = spec.items as f64;
    report.set("ingest.items_per_s", items / clock.total_s("ingest").max(1e-9));
    report.set("store.write_items_per_s", items / clock.total_s("store.write").max(1e-9));
    report.set("store.load_items_per_s", items / clock.total_s("store.load").max(1e-9));
    report.set("store.bytes", summary.bytes as f64);

    // Harness: generator lateness and what tracing cost the headline.
    let p50 = |v: &[f64]| windowed(v, 50.0);
    report.set("gen.lag_p99_us", percentile(&sorted(&plain.lag_us), 99.0));
    report.set("trace.overhead_frac", p50(&traced.query_lat_us) / p50(&plain.query_lat_us) - 1.0);
    let attributed = report.metrics["protocol.decode_us"]
        + report.metrics["protocol.encode_us"]
        + encode_query_us
        + search_us;
    report.set("server.unattributed_us", mean(&traced.query_rtt_us) - attributed);
    report.named.push(("query_p50_us", p50(&plain.query_lat_us), "us"));
    report.named.push(("query_p50_us.traced", p50(&traced.query_lat_us), "us"));
    report.named.push(("query_rtt_mean_us.traced", mean(&traced.query_rtt_us), "us"));

    uhscm::obs::disable();
    let mine: Vec<u8> = rx.try_iter().flatten().collect();
    write_trace(args, trace_text.as_bytes(), &mine)
}

/// Write the server's trace and the benchmark's own records to
/// `.perfbench-out/<workload>-seed<N>.trace.jsonl`.
pub fn write_trace(args: &Args, server: &[u8], bench: &[u8]) -> Result<(), String> {
    let dir = Path::new(".perfbench-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed));
    let mut all = server.to_vec();
    all.extend_from_slice(bench);
    std::fs::write(&path, all).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {}", path.display());
    Ok(())
}
