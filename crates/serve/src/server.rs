//! The TCP front-end: accepts connections, admits queries, and runs the
//! batch worker that coalesces them into single forward passes.
//!
//! Thread layout (all threads via [`crate::pool::WorkerPool`]):
//!
//! ```text
//! accept ──┬── conn #1 ──┬─┐        submit          ┌── batch worker
//!          ├── conn #2 …│ ├──▶ AdmissionQueue ─────▶┤  (encode + search,
//!          │             │ │   (bounded, shedding)  └─┐ replies as frames)
//!          │  conn-write ◀┴───────────────────────────┘
//!          └─ (one per conn: sole owner of the write half)
//! ```
//!
//! Each connection thread checks the drain flag before every read, and
//! reads with a short socket timeout so an idle connection still sees it.
//! Replies are serialized to frame bytes by whichever thread produced them
//! (connection thread for protocol errors, batch worker for answers) and
//! queued to a per-connection writer thread that owns the socket's write
//! half outright — responses stay well-framed under pipelining without
//! ever holding a lock across a socket write, and a reply can still land
//! after the read loop has exited. The writer exits once every sender (the read loop plus any
//! in-flight reply closures) is gone. Shutdown: set the drain flag, close
//! the queue (new submits answer `draining`, admitted work still runs),
//! poke the acceptor awake, then join every thread.
//!
//! Mutations (`insert`/`remove`/`reload`) do not ride the batch queue:
//! they execute synchronously on the connection thread through the
//! engine's copy-on-write commit path, so a mutation receipt on the wire
//! means the commit is durable-in-memory before the next frame is read
//! from that connection. They share the queue's drain gate: once the queue
//! closes, mutation frames are answered `draining` — an admitted mutation
//! always commits, a refused one is explicit, nothing is silently dropped.
//! Queries take one [`EngineSnapshot`] per batch, so every answer in a
//! batch reports the exact `(generation, bundle)` pair it was evaluated at.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use uhscm_eval::BitCodes;
use uhscm_linalg::Matrix;
use uhscm_nn::Mlp;
use uhscm_obs::{obs_count, obs_gauge, obs_span, registry};

use crate::batch::{AdmissionQueue, PendingQuery, SubmitError};
use crate::bundle::Bundle;
use crate::pool::WorkerPool;
use crate::protocol::{
    decode_request, encode_frame, encode_response, FrameReader, Reason, Request, Response,
    MAX_FRAME,
};
use crate::shard::{Generation, InsertCommit, RemoveCommit, ShardedIndex};

/// How often a connection thread wakes from a blocking read to poll the
/// drain flag.
const READ_TICK: Duration = Duration::from_millis(25);

/// Everything that can go wrong bringing the service up.
#[derive(Debug)]
pub enum ServeError {
    Io(io::Error),
    /// Inconsistent configuration (e.g. model width vs. database width).
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Config(msg) => write!(f, "serve config error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Server tunables. `Default` binds an ephemeral loopback port; the CLI
/// overrides from flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Most queries coalesced into one forward pass.
    pub max_batch: usize,
    /// Admission queue bound; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Whether mutation frames (insert/remove/reload) are accepted; a
    /// read-only server answers them `bad_request`.
    pub writable: bool,
    /// Largest `top_k` a query frame may request; anything above it is
    /// refused `bad_request` before the query is admitted, so a hostile
    /// client cannot size per-query heaps and result buffers at will.
    pub max_top_k: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 16,
            queue_cap: 256,
            writable: true,
            max_top_k: 1024,
        }
    }
}

/// One coherent view of the engine for a batch of work: exactly one bundle
/// and exactly one generation. Later commits and reloads never touch a
/// taken snapshot, so everything computed through it is reproducible
/// offline at the `(generation, bundle)` pair it reports.
pub struct EngineSnapshot {
    /// The pinned serving bundle (model + vocab).
    pub bundle: Arc<Bundle>,
    /// The pinned committed generation of the code index.
    pub generation: Arc<Generation>,
}

impl EngineSnapshot {
    /// One batched forward pass + sign quantization with the pinned model.
    /// Row `i` of the result is bitwise-identical to encoding row `i`
    /// alone: inference computes each output row from its input row only,
    /// in fixed k-order.
    pub fn encode(&self, batch: &Matrix) -> BitCodes {
        obs_span!("serve_encode");
        BitCodes::from_real(&self.bundle.model.infer(batch))
    }
}

/// The query engine: the hot-swappable serving [`Bundle`] (hashing model +
/// vocabulary) plus the generation-swapped code index. Shared across worker
/// threads; readers pin snapshots, mutations commit via atomic swaps.
///
/// Lock discipline (checked by `xtask lint`'s lock passes): `reload` is a
/// plain writer-serialization mutex for bundle installs; `bundle` is the
/// published pointer. Installers take `reload`, read `bundle` for one line
/// to pick the next version, build the new bundle off-lock, and write
/// `bundle` for one line to swap. Readers touch `bundle` for one line only.
pub struct Engine {
    /// Current serving bundle; swapped whole by [`Engine::install_bundle`].
    bundle: RwLock<Arc<Bundle>>,
    /// Serializes bundle installs: one version assignment at a time.
    reload: Mutex<()>,
    index: ShardedIndex,
}

/// `bundle` poisoning requires an installer panicking mid-swap; the stored
/// value is a plain `Arc` (intact after any partial operation), so recover
/// the guard instead of cascading the panic into every query.
fn read_bundle(lock: &RwLock<Arc<Bundle>>) -> RwLockReadGuard<'_, Arc<Bundle>> {
    match lock.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Write-side twin of [`read_bundle`]; same poisoning argument.
fn write_bundle(lock: &RwLock<Arc<Bundle>>) -> RwLockWriteGuard<'_, Arc<Bundle>> {
    match lock.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Reload-gate recovery: the gate protects no data (it only serializes
/// version assignment), so a poisoned gate is always safe to reuse.
fn lock_reload(lock: &Mutex<()>) -> MutexGuard<'_, ()> {
    match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Engine {
    /// Pair a model (with no vocabulary) with a code database.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] if the model's output width differs from the
    /// database's code width.
    pub fn new(model: Mlp, db: &BitCodes, shards: usize) -> Result<Self, ServeError> {
        Self::with_vocab_index(model, Vec::new(), ShardedIndex::new(db, shards))
    }

    /// Pair a full bundle (model + concept vocabulary) with an
    /// already-built index; the bundle starts at version 0. The
    /// store-backed path feeds a `GenesisBuilder` segment by segment from
    /// an on-disk store, so the database is never concatenated in memory
    /// (the serve crate stays independent of the store format).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] if the model's output width differs from the
    /// index's code width.
    pub fn with_vocab_index(
        model: Mlp,
        vocab: Vec<String>,
        index: ShardedIndex,
    ) -> Result<Self, ServeError> {
        if model.output_dim() != index.bits() {
            return Err(ServeError::Config(format!(
                "model emits {}-bit codes but the database stores {}-bit codes",
                model.output_dim(),
                index.bits()
            )));
        }
        Ok(Self {
            bundle: RwLock::new(Arc::new(Bundle::initial(model, vocab))),
            reload: Mutex::new(()),
            index,
        })
    }

    /// The current serving bundle, pinned.
    pub fn bundle(&self) -> Arc<Bundle> {
        Arc::clone(&read_bundle(&self.bundle))
    }

    /// Pin one coherent `(bundle, generation)` pair.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot { bundle: self.bundle(), generation: self.index.snapshot() }
    }

    /// Feature dimension a query must supply *right now* (advisory: a
    /// reload can change it between this check and batching; the batch
    /// worker re-validates against its own pinned snapshot).
    pub fn input_dim(&self) -> usize {
        self.bundle().model.input_dim()
    }

    /// Code width in bits (fixed for the server's lifetime: bundle installs
    /// are rejected unless they emit this width).
    pub fn bits(&self) -> usize {
        self.index.bits()
    }

    /// Number of live database codes.
    pub fn db_len(&self) -> usize {
        self.index.len()
    }

    /// Number of index segments actually in use.
    pub fn num_shards(&self) -> usize {
        self.index.num_shards()
    }

    /// Encode with the current bundle (see [`EngineSnapshot::encode`]).
    pub fn encode(&self, batch: &Matrix) -> BitCodes {
        self.snapshot().encode(batch)
    }

    /// Encode `rows` with one pinned bundle and append the codes as one
    /// committed generation. Returns the commit receipt plus the version of
    /// the bundle that encoded the rows, so a client (or the swap-boundary
    /// harness) can reproduce the inserted codes offline bit-for-bit.
    ///
    /// # Errors
    ///
    /// A human-readable `bad_request` detail if any row's width differs
    /// from the pinned bundle's input dimension.
    pub fn insert_rows(&self, rows: &[Vec<f64>]) -> Result<(InsertCommit, u64), String> {
        let bundle = self.bundle();
        let dim = bundle.model.input_dim();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(format!("row {i}: expected {dim} features, got {}", row.len()));
            }
        }
        if rows.is_empty() {
            // Nothing to commit; report the current state as a receipt.
            let generation = self.index.snapshot();
            let commit = InsertCommit {
                generation: generation.seq(),
                first_index: generation.total_len() as u32,
                count: 0,
                live: generation.live_len(),
            };
            return Ok((commit, bundle.version));
        }
        // Both factors arrive from outside (wire rows x bundle dim), so the
        // flat-buffer size is computed checked: overflow is a refused
        // request, not a wrapped allocation.
        let Some(flat_len) = rows.len().checked_mul(dim) else {
            return Err(format!("insert of {} rows x {dim} features overflows", rows.len()));
        };
        let mut flat = Vec::with_capacity(flat_len);
        for row in rows {
            flat.extend_from_slice(row);
        }
        let codes = {
            obs_span!("serve_encode");
            BitCodes::from_real(&bundle.model.infer(&Matrix::from_vec(rows.len(), dim, flat)))
        };
        let commit = self.index.insert(&codes);
        obs_count!("serve.mutations.insert", 1);
        obs_count!("serve.swaps.generation", 1);
        obs_gauge!("serve.generation", commit.generation as f64);
        Ok((commit, bundle.version))
    }

    /// Tombstone global index `index` (see [`ShardedIndex::remove`]).
    ///
    /// # Errors
    ///
    /// A human-readable `bad_request` detail if `index` is out of range.
    /// The total length never shrinks, so the range check cannot go stale
    /// between validation and commit.
    pub fn remove_index(&self, index: u64) -> Result<RemoveCommit, String> {
        let total = self.index.total_len();
        // `try_from` + range check replace the old `as` casts in both
        // directions: a wire index survives to the commit only as a value
        // proven to fit `usize` and to name an existing slot.
        let valid = usize::try_from(index).ok().filter(|&i| i < total);
        let Some(checked) = valid else {
            return Err(format!("index {index} out of range (total {total})"));
        };
        let commit = self.index.remove(checked);
        if commit.removed {
            obs_count!("serve.mutations.remove", 1);
            obs_count!("serve.swaps.generation", 1);
            obs_gauge!("serve.generation", commit.generation as f64);
        }
        Ok(commit)
    }

    /// Atomically install a new serving bundle; its version is the current
    /// version plus one. Returns `(version, vocabulary size)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] if the model's output width differs from the
    /// index's code width; the serving bundle is left untouched.
    pub fn install_bundle(
        &self,
        model: Mlp,
        vocab: Vec<String>,
    ) -> Result<(u64, usize), ServeError> {
        if model.output_dim() != self.index.bits() {
            return Err(ServeError::Config(format!(
                "bundle model emits {}-bit codes but the index stores {}-bit codes",
                model.output_dim(),
                self.index.bits()
            )));
        }
        let vocab_len = vocab.len();
        let version = {
            let _installer = lock_reload(&self.reload);
            let version = self.bundle().version + 1;
            *write_bundle(&self.bundle) = Arc::new(Bundle { version, model, vocab });
            version
        };
        // Telemetry off the installer gate: nothing blocks behind a reload
        // for a registry write.
        obs_count!("serve.swaps.bundle", 1);
        obs_gauge!("serve.bundle.version", version as f64);
        Ok((version, vocab_len))
    }

    /// Load a bundle directory and hot-swap it in. All I/O happens before
    /// any lock is taken; a failed load leaves the serving bundle
    /// untouched.
    ///
    /// # Errors
    ///
    /// I/O and validation failures (see [`Bundle::load_dir`] and
    /// [`Engine::install_bundle`]).
    pub fn reload_from_dir(&self, dir: &Path) -> Result<(u64, usize), ServeError> {
        obs_span!("serve_reload");
        let (model, vocab) = Bundle::load_dir(dir)?;
        self.install_bundle(model, vocab)
    }
}

/// A running service; dropping it without [`Server::shutdown`] detaches the
/// worker threads (they keep serving until the process exits).
pub struct Server {
    addr: SocketAddr,
    queue: Arc<AdmissionQueue>,
    draining: Arc<AtomicBool>,
    pool: WorkerPool,
}

impl Server {
    /// Bind, spawn the batch worker and acceptor, and start serving.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures; a partially-started server is torn
    /// back down before the error is returned.
    pub fn start(engine: Engine, config: &ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(engine);
        let queue = Arc::new(AdmissionQueue::new(config.queue_cap));
        let draining = Arc::new(AtomicBool::new(false));

        let mut pool = WorkerPool::new();
        {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            let max_batch = config.max_batch;
            pool.spawn("batch", move || batch_worker(&engine, &queue, max_batch))?;
        }
        {
            let accept_queue = Arc::clone(&queue);
            let draining = Arc::clone(&draining);
            let writable = config.writable;
            let max_top_k = config.max_top_k;
            if let Err(e) = pool.spawn("accept", move || {
                accept_loop(&listener, &engine, &accept_queue, &draining, writable, max_top_k)
            }) {
                // Unwind the batch worker we already started.
                queue.close();
                pool.join_all();
                return Err(ServeError::Io(e));
            }
        }
        Ok(Server { addr, queue, draining, pool })
    }

    /// The actually-bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queries currently waiting for the batch worker (diagnostic).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Graceful drain: stop admitting, serve everything already admitted,
    /// then join every worker thread. Returns once the last reply is out.
    pub fn shutdown(mut self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
        // The acceptor blocks in `accept`; a throwaway connection wakes it
        // so it can observe the drain flag and exit.
        let _ = TcpStream::connect(self.addr);
        self.pool.join_all();
    }
}

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    queue: &Arc<AdmissionQueue>,
    draining: &Arc<AtomicBool>,
    writable: bool,
    max_top_k: usize,
) {
    let mut conns = WorkerPool::new();
    for stream in listener.incoming() {
        if draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        obs_count!("serve.connections", 1);
        let engine = Arc::clone(engine);
        let queue = Arc::clone(queue);
        let draining = Arc::clone(draining);
        // A failed spawn just drops this connection; the service lives on.
        let _ = conns.spawn("conn", move || {
            handle_conn(stream, &engine, &queue, &draining, writable, max_top_k)
        });
    }
    conns.join_all();
}

/// Serialize a response and queue its frame bytes to the connection's
/// writer thread. Encoding happens on the producing thread; the actual
/// socket write happens on the writer thread, so no lock is ever held
/// across a blocking write. A reply too large for one frame (`hits` for a
/// large `top_k`) is answered `bad_request` under the same id instead, so
/// no request goes unanswered. Send errors are ignored: the writer is gone
/// only when the client is, and the read loop will notice on its own.
fn send(out: &mpsc::Sender<Vec<u8>>, resp: &Response) {
    let body = encode_response(resp);
    let frame = encode_frame(&body).or_else(|_| {
        let refusal = Response::Error {
            id: reply_id(resp),
            reason: Reason::BadRequest,
            detail: format!("reply of {} bytes exceeds the {MAX_FRAME}-byte cap", body.len()),
        };
        encode_frame(&encode_response(&refusal))
    });
    if let Ok(frame) = frame {
        let _ = out.send(frame);
    }
}

/// The request id a response answers; `pong` carries none.
fn reply_id(resp: &Response) -> u64 {
    match resp {
        Response::Hits { id, .. }
        | Response::Inserted { id, .. }
        | Response::Removed { id, .. }
        | Response::Flushed { id, .. }
        | Response::Reloaded { id, .. }
        | Response::Error { id, .. } => *id,
        Response::Pong => 0,
    }
}

/// The per-connection writer: sole owner of the socket's write half.
/// Frames arrive whole, so interleaved producers (connection thread and
/// batch worker) can never tear each other's frames. Runs until every
/// sender has dropped; after a write error it keeps draining so producers
/// are never left with a wedged channel.
fn writer_loop(mut write_half: TcpStream, rx: &mpsc::Receiver<Vec<u8>>) {
    let mut broken = false;
    while let Ok(frame) = rx.recv() {
        if broken {
            continue;
        }
        if write_half.write_all(&frame).and_then(|()| write_half.flush()).is_err() {
            broken = true; // client is gone; swallow the backlog
        }
    }
}

fn handle_conn(
    stream: TcpStream,
    engine: &Engine,
    queue: &AdmissionQueue,
    draining: &AtomicBool,
    writable: bool,
    max_top_k: usize,
) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let (out, rx) = mpsc::channel::<Vec<u8>>();
    let mut writers = WorkerPool::new();
    if writers.spawn("conn-write", move || writer_loop(write_half, &rx)).is_err() {
        return;
    }
    read_loop(stream, engine, queue, draining, writable, max_top_k, &out);
    // Drop our sender so the writer exits once every in-flight reply
    // closure (each holds a clone) has landed, then wait for it: the last
    // byte is on the wire before the connection thread retires.
    drop(out);
    writers.join_all();
}

fn read_loop(
    mut reader: TcpStream,
    engine: &Engine,
    queue: &AdmissionQueue,
    draining: &AtomicBool,
    writable: bool,
    max_top_k: usize,
    out: &mpsc::Sender<Vec<u8>>,
) {
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        // Checked before every read, not only on a timeout, so a client that
        // keeps sending cannot hold shutdown open.
        if draining.load(Ordering::SeqCst) {
            return;
        }
        match reader.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => frames.push_bytes(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
        loop {
            match frames.next_frame() {
                Ok(Some(body)) => handle_frame(&body, engine, queue, out, writable, max_top_k),
                Ok(None) => break,
                Err(e) => {
                    // Framing is lost; report and hang up.
                    send(
                        out,
                        &Response::Error {
                            id: 0,
                            reason: Reason::BadRequest,
                            detail: e.to_string(),
                        },
                    );
                    return;
                }
            }
        }
    }
}

/// Why a mutation frame is refused before touching the engine. A read-only
/// server never mutates; a draining server refuses explicitly rather than
/// racing shutdown — an admitted mutation always commits before its
/// receipt is sent, a refused one gets `draining`, nothing is silently
/// dropped.
fn refuse_mutation(id: u64, queue: &AdmissionQueue, writable: bool) -> Option<Response> {
    if !writable {
        return Some(Response::Error {
            id,
            reason: Reason::BadRequest,
            detail: "server is read-only".to_string(),
        });
    }
    if !queue.is_open() {
        return Some(Response::Error {
            id,
            reason: Reason::Draining,
            detail: "server is draining".to_string(),
        });
    }
    None
}

fn handle_frame(
    body: &str,
    engine: &Engine,
    queue: &AdmissionQueue,
    out: &mpsc::Sender<Vec<u8>>,
    writable: bool,
    max_top_k: usize,
) {
    let req = match decode_request(body) {
        Ok(r) => r,
        Err(detail) => {
            send(out, &Response::Error { id: 0, reason: Reason::BadRequest, detail });
            return;
        }
    };
    let q = match req {
        Request::Ping => {
            send(out, &Response::Pong);
            return;
        }
        Request::Insert { id, rows } => {
            if let Some(refusal) = refuse_mutation(id, queue, writable) {
                send(out, &refusal);
                return;
            }
            match engine.insert_rows(&rows) {
                Ok((commit, bundle)) => send(
                    out,
                    &Response::Inserted {
                        id,
                        generation: commit.generation,
                        first_index: u64::from(commit.first_index),
                        count: commit.count as u64,
                        live: commit.live as u64,
                        bundle,
                    },
                ),
                Err(detail) => {
                    send(out, &Response::Error { id, reason: Reason::BadRequest, detail });
                }
            }
            return;
        }
        Request::Remove { id, index } => {
            if let Some(refusal) = refuse_mutation(id, queue, writable) {
                send(out, &refusal);
                return;
            }
            match engine.remove_index(index) {
                Ok(commit) => send(
                    out,
                    &Response::Removed {
                        id,
                        generation: commit.generation,
                        removed: commit.removed,
                        live: commit.live as u64,
                    },
                ),
                Err(detail) => {
                    send(out, &Response::Error { id, reason: Reason::BadRequest, detail });
                }
            }
            return;
        }
        Request::Flush { id } => {
            // Read-only state readback: answered even while draining or
            // read-only, so clients can always learn the committed state.
            let snap = engine.snapshot();
            send(
                out,
                &Response::Flushed {
                    id,
                    generation: snap.generation.seq(),
                    live: snap.generation.live_len() as u64,
                    total: snap.generation.total_len() as u64,
                    bundle: snap.bundle.version,
                },
            );
            return;
        }
        Request::Reload { id, path } => {
            if let Some(refusal) = refuse_mutation(id, queue, writable) {
                send(out, &refusal);
                return;
            }
            match engine.reload_from_dir(Path::new(&path)) {
                Ok((bundle, vocab)) => {
                    send(out, &Response::Reloaded { id, bundle, vocab: vocab as u64 });
                }
                Err(e) => send(
                    out,
                    &Response::Error { id, reason: Reason::BadRequest, detail: e.to_string() },
                ),
            }
            return;
        }
        Request::Query(q) => q,
    };
    obs_count!("serve.requests", 1);
    if q.features.len() != engine.input_dim() {
        send(
            out,
            &Response::Error {
                id: q.id,
                reason: Reason::BadRequest,
                detail: format!(
                    "expected {} features, got {}",
                    engine.input_dim(),
                    q.features.len()
                ),
            },
        );
        return;
    }
    if q.top_k == 0 {
        send(
            out,
            &Response::Error {
                id: q.id,
                reason: Reason::BadRequest,
                detail: "top_k must be at least 1".to_string(),
            },
        );
        return;
    }
    if q.top_k > max_top_k {
        // Capping here — before admission — keeps the wire value out of
        // every downstream heap- and buffer-sizing position.
        send(
            out,
            &Response::Error {
                id: q.id,
                reason: Reason::BadRequest,
                detail: format!("top_k {} exceeds the cap {max_top_k}", q.top_k),
            },
        );
        return;
    }
    let deadline = q.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let w = out.clone();
    let pending = PendingQuery {
        id: q.id,
        features: q.features,
        top_k: q.top_k,
        deadline,
        reply: Box::new(move |resp| send(&w, &resp)),
    };
    match queue.submit(pending) {
        Ok(()) => {}
        Err((shed, SubmitError::Overloaded)) => {
            obs_count!("serve.shed", 1);
            send(
                out,
                &Response::Error {
                    id: shed.id,
                    reason: Reason::Overloaded,
                    detail: "admission queue full".to_string(),
                },
            );
        }
        Err((shed, SubmitError::Draining)) => {
            send(
                out,
                &Response::Error {
                    id: shed.id,
                    reason: Reason::Draining,
                    detail: "server is draining".to_string(),
                },
            );
        }
    }
}

fn batch_worker(engine: &Engine, queue: &AdmissionQueue, max_batch: usize) {
    while let Some(batch) = queue.next_batch(max_batch) {
        run_batch(engine, batch);
    }
}

fn run_batch(engine: &Engine, batch: Vec<PendingQuery>) {
    obs_span!("serve_batch");
    registry::histogram_record("serve.batch.size", batch.len() as f64);
    // One coherent snapshot per batch: every query in it is encoded by the
    // same bundle and searched against the same generation, and every reply
    // reports exactly that `(generation, bundle)` pair. Commits and reloads
    // that land mid-batch take effect from the next batch on.
    let snap = engine.snapshot();
    let cols = snap.bundle.model.input_dim();
    // Expire at dequeue time: a deadline that passed while queued means the
    // client has given up; encoding it would only delay live queries.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for p in batch {
        if p.deadline.is_some_and(|d| d <= now) {
            obs_count!("serve.deadline_exceeded", 1);
            let id = p.id;
            (p.reply)(Response::Error {
                id,
                reason: Reason::DeadlineExceeded,
                detail: "deadline passed while queued".to_string(),
            });
        } else if p.features.len() != cols {
            // The admission-time width check ran against an older bundle; a
            // reload swapped input dimensions while this query was queued.
            let id = p.id;
            let got = p.features.len();
            (p.reply)(Response::Error {
                id,
                reason: Reason::BadRequest,
                detail: format!("expected {cols} features, got {got} (bundle reloaded)"),
            });
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }
    let mut flat = Vec::with_capacity(live.len() * cols);
    for p in &live {
        flat.extend_from_slice(&p.features);
    }
    let codes = snap.encode(&Matrix::from_vec(live.len(), cols, flat));
    let top_ks: Vec<usize> = live.iter().map(|p| p.top_k).collect();
    let answers = snap.generation.search_batch(&codes, &top_ks);
    for (p, hits) in live.into_iter().zip(answers) {
        obs_count!("serve.answered", 1);
        (p.reply)(Response::Hits {
            id: p.id,
            hits,
            generation: snap.generation.seq(),
            bundle: snap.bundle.version,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_response;
    use uhscm_linalg::rng::seeded;

    fn test_engine() -> Engine {
        let mut rng = seeded(21);
        let model = Mlp::hashing_network(4, &[3], 8, &mut rng);
        let db_input = uhscm_linalg::rng::gauss_matrix(&mut rng, 12, 4, 1.0);
        let db = BitCodes::from_real(&model.infer(&db_input));
        Engine::new(model, &db, 2).expect("widths match")
    }

    /// Run one frame through `handle_frame` and decode the reply it queued.
    fn one_frame(
        engine: &Engine,
        queue: &AdmissionQueue,
        body: &str,
        writable: bool,
        max_top_k: usize,
    ) -> Response {
        let (out, rx) = mpsc::channel::<Vec<u8>>();
        handle_frame(body, engine, queue, &out, writable, max_top_k);
        decode_frame(&rx.try_recv().expect("a reply was queued"))
    }

    /// Decode one queued reply frame.
    fn decode_frame(frame: &[u8]) -> Response {
        let body = std::str::from_utf8(&frame[4..]).expect("utf8 payload");
        decode_response(body).expect("decodable reply")
    }

    #[test]
    fn oversize_reply_is_answered_bad_request_under_the_same_id() {
        let (out, rx) = mpsc::channel::<Vec<u8>>();
        // 100,000 hits encode to ~1.2 MB, over the 1 MiB frame cap.
        let hits: Vec<(u32, u32)> = (0..100_000u32).map(|j| (j % 65, j)).collect();
        let big = Response::Hits { id: 9, hits, generation: 3, bundle: 1 };
        let size = encode_response(&big).len();
        assert!(size > MAX_FRAME, "{size}");
        send(&out, &big);
        match decode_frame(&rx.try_recv().expect("an error reply was queued")) {
            Response::Error { id: 9, reason: Reason::BadRequest, detail } => {
                assert!(detail.contains(&format!("{size} bytes")), "{detail}");
                assert!(detail.contains(&MAX_FRAME.to_string()), "{detail}");
            }
            other => panic!("expected a bad_request error for id 9, got {other:?}"),
        }

        // A reply under the cap still arrives as `hits`.
        let small = Response::Hits { id: 10, hits: vec![(0, 4), (2, 1)], generation: 3, bundle: 1 };
        send(&out, &small);
        assert_eq!(decode_frame(&rx.try_recv().expect("a hits reply was queued")), small);
        assert!(rx.try_recv().is_err(), "one frame per reply");
    }

    #[test]
    fn full_queue_answers_overloaded_under_the_query_id() {
        let engine = test_engine();
        // One slot and no batch worker: the first query fills it for good.
        let queue = AdmissionQueue::new(1);
        let (out, rx) = mpsc::channel::<Vec<u8>>();
        let first = r#"{"type":"query","id":1,"features":[0.1,0.2,0.3,0.4],"top_k":3}"#;
        handle_frame(first, &engine, &queue, &out, true, 1024);
        assert!(rx.try_recv().is_err(), "an admitted query is answered by the worker");
        assert_eq!(queue.depth(), 1);

        let second = r#"{"type":"query","id":2,"features":[0.4,0.3,0.2,0.1],"top_k":3}"#;
        match one_frame(&engine, &queue, second, true, 1024) {
            Response::Error { id: 2, reason: Reason::Overloaded, detail } => {
                assert!(detail.contains("queue"), "{detail}");
            }
            other => panic!("expected overloaded for id 2, got {other:?}"),
        }
        assert_eq!(queue.depth(), 1, "a shed query takes no slot");
    }

    #[test]
    fn one_batch_of_sixteen_answers_like_sixteen_batches_of_one() {
        // Tie-dense codes (6 bits, 48 items) and depths from one hit to
        // more than the database holds: batch composition must not leak
        // into any reply.
        let w = crate::synth::workload(42, 8, 6, 48, 16);
        let engine = Engine::new(w.model.clone(), &w.db, 4).expect("widths match");
        let top_k = |qi: usize| [1, 7, 48, 60][qi % 4];
        let (out, rx) = mpsc::channel::<Vec<u8>>();
        let pending = |qi: usize| {
            let to = out.clone();
            PendingQuery {
                id: qi as u64,
                features: w.queries.row(qi).to_vec(),
                top_k: top_k(qi),
                deadline: None,
                reply: Box::new(move |resp| send(&to, &resp)),
            }
        };
        run_batch(&engine, (0..16).map(pending).collect());
        let batched: Vec<Response> = rx.try_iter().map(|f| decode_frame(&f)).collect();
        for qi in 0..16 {
            run_batch(&engine, vec![pending(qi)]);
        }
        let singles: Vec<Response> = rx.try_iter().map(|f| decode_frame(&f)).collect();
        assert_eq!(batched.len(), 16);
        for (qi, reply) in batched.iter().enumerate() {
            match reply {
                Response::Hits { id, hits, .. } => {
                    assert_eq!(*id, qi as u64);
                    assert_eq!(hits.len(), top_k(qi).min(48), "query {qi}");
                }
                other => panic!("expected hits for query {qi}, got {other:?}"),
            }
        }
        assert_eq!(batched, singles);
    }

    #[test]
    fn engine_rejects_width_mismatch() {
        let mut rng = seeded(3);
        let model = Mlp::hashing_network(4, &[], 8, &mut rng);
        let db = BitCodes::from_bools(&[vec![true; 6]]);
        match Engine::new(model, &db, 2) {
            Err(ServeError::Config(msg)) => {
                assert!(msg.contains("8-bit") && msg.contains("6-bit"), "{msg}");
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("mismatched widths accepted"),
        }
    }

    #[test]
    fn batched_encode_rows_match_single_row_encodes() {
        let mut rng = seeded(11);
        let model = Mlp::hashing_network(6, &[5], 16, &mut rng);
        let db_input = uhscm_linalg::rng::gauss_matrix(&mut rng, 20, 6, 1.0);
        let db = BitCodes::from_real(&model.infer(&db_input));
        let engine = Engine::new(model, &db, 3).expect("widths match");

        let queries = uhscm_linalg::rng::gauss_matrix(&mut rng, 7, 6, 1.0);
        let batched = engine.encode(&queries);
        for i in 0..queries.rows() {
            let single = engine.encode(&Matrix::from_vec(1, 6, queries.row(i).to_vec()));
            assert_eq!(single.code(0), batched.code(i), "row {i}");
        }
    }

    #[test]
    fn mutations_after_drain_are_rejected_not_dropped() {
        let engine = test_engine();
        let queue = AdmissionQueue::new(4);
        queue.close();

        let gen_before = engine.index.generation();
        for body in [
            r#"{"type":"insert","id":1,"rows":[[0.1,0.2,0.3,0.4]]}"#,
            r#"{"type":"remove","id":2,"index":0}"#,
            r#"{"type":"reload","id":3,"path":"/nowhere"}"#,
        ] {
            match one_frame(&engine, &queue, body, true, 1024) {
                Response::Error { reason: Reason::Draining, .. } => {}
                other => panic!("expected draining refusal for {body}, got {other:?}"),
            }
        }
        // Refused means refused: nothing committed behind the client's back.
        assert_eq!(engine.index.generation(), gen_before);

        // Flush is read-only state readback and still answers while
        // draining, so a client can confirm what did commit.
        match one_frame(&engine, &queue, r#"{"type":"flush","id":4}"#, true, 1024) {
            Response::Flushed { id: 4, generation, live, total, bundle } => {
                assert_eq!((generation, live, total, bundle), (0, 12, 12, 0));
            }
            other => panic!("expected flushed, got {other:?}"),
        }
    }

    #[test]
    fn readonly_server_refuses_mutations_but_answers_reads() {
        let engine = test_engine();
        let queue = AdmissionQueue::new(4);

        match one_frame(&engine, &queue, r#"{"type":"remove","id":7,"index":0}"#, false, 1024) {
            Response::Error { id: 7, reason: Reason::BadRequest, detail } => {
                assert!(detail.contains("read-only"), "{detail}");
            }
            other => panic!("expected read-only refusal, got {other:?}"),
        }
        match one_frame(&engine, &queue, r#"{"type":"flush","id":8}"#, false, 1024) {
            Response::Flushed { id: 8, .. } => {}
            other => panic!("expected flushed, got {other:?}"),
        }
    }

    #[test]
    fn insert_receipt_reports_the_encoding_bundle_and_commit() {
        let engine = test_engine();
        let (commit, bundle) =
            engine.insert_rows(&[vec![0.5, -0.5, 1.0, -1.0]]).expect("widths ok");
        assert_eq!(bundle, 0);
        assert_eq!(commit.generation, 1);
        assert_eq!(u64::from(commit.first_index), 12);
        assert_eq!(commit.count, 1);
        assert_eq!(commit.live, 13);

        // Width mismatch is a client error, not a panic.
        let err = engine.insert_rows(&[vec![0.5; 3]]).expect_err("wrong width");
        assert!(err.contains("expected 4 features"), "{err}");

        // Empty insert: a receipt of the current state, no commit.
        let (noop, _) = engine.insert_rows(&[]).expect("empty ok");
        assert_eq!((noop.generation, noop.count), (1, 0));
        assert_eq!(engine.index.generation(), 1);
    }

    #[test]
    fn remove_out_of_range_is_an_error_not_a_panic() {
        let engine = test_engine();
        let err = engine.remove_index(99).expect_err("out of range");
        assert!(err.contains("out of range"), "{err}");
        let commit = engine.remove_index(0).expect("in range");
        assert!(commit.removed);
        assert_eq!(commit.generation, 1);
    }

    #[test]
    fn install_bundle_bumps_version_and_rejects_width_mismatch() {
        let engine = test_engine();
        let mut rng = seeded(22);

        // Wrong output width: refused, serving bundle untouched.
        let narrow = Mlp::hashing_network(4, &[], 5, &mut rng);
        assert!(engine.install_bundle(narrow, Vec::new()).is_err());
        assert_eq!(engine.bundle().version, 0);

        // A compatible model installs as version 1 and serves immediately.
        let next = Mlp::hashing_network(4, &[2], 8, &mut rng);
        let next_params = next.flat_params();
        let (version, vocab) =
            engine.install_bundle(next, vec!["sky".into(), "sea".into()]).expect("compatible");
        assert_eq!((version, vocab), (1, 2));
        let bundle = engine.bundle();
        assert_eq!(bundle.version, 1);
        assert_eq!(bundle.model.flat_params(), next_params);
        assert_eq!(bundle.vocab, vec!["sky".to_string(), "sea".to_string()]);
    }
}
