//! The swap-boundary harness: the PR's headline test. Queriers and a
//! mutator drive one live server across many generation commits and a
//! mid-traffic bundle reload; **every** query response must be
//! bitwise-identical to an offline oracle evaluated at exactly the
//! `(generation, bundle)` pair the response reports, for shard counts
//! {1, 2, 4}, with zero failed or torn responses.
//!
//! Concurrency comes from *pipelining across connections*, not client
//! threads (the `raw-thread` lint allows OS threads only inside
//! `linalg::par` and the serve worker pool): three querier connections
//! pipeline bursts of unread queries while the mutator connection commits
//! inserts, removes, and one reload between bursts. Server-side, the batch
//! worker answers the queriers' backlog concurrently with the mutator's
//! synchronous commits, so batches genuinely land on both sides of every
//! swap — and each response self-reports which side it saw.
//!
//! The oracle never peeks at server state: it reconstructs the database at
//! every generation purely from the wire — mutation receipts name their
//! `committed_generation`, insert receipts name the bundle that encoded
//! their rows — then replays a linear scan over the reconstruction. A
//! torn swap (query encoded by one bundle but reported as another, a
//! search overlapping two generations, a lost or duplicated commit) has
//! nowhere to hide: generation numbers must be gapless and every ranking
//! must match bit-for-bit.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use uhscm_eval::BitCodes;
use uhscm_linalg::Matrix;
use uhscm_nn::Mlp;
use uhscm_serve::{
    encode_request, read_frame_blocking, synth, write_frame, Engine, FrameReader, QueryRequest,
    Request, Response, ServeConfig, Server, ShardedIndex,
};

/// Few bits + many codes = dense distance ties, the regime where a sloppy
/// merge or a torn swap would first diverge from the oracle's tie-break.
const SEED: u64 = 42;
const DIM: usize = 8;
const BITS: usize = 6;
const N_DB: usize = 48;
const N_QUERIES: usize = 12;
/// Mutation rounds per shard count: each commits one insert + one remove.
const ROUNDS: usize = 8;
/// Querier connections pipelining concurrently with the mutator.
const N_QUERIERS: usize = 3;
/// Queries pipelined per querier per round.
const QPR: usize = 4;
const TOP_K: usize = 10;

/// A blocking test client over one connection.
struct Client {
    stream: TcpStream,
    frames: FrameReader,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect to loopback");
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("set client read timeout");
        stream.set_nodelay(true).expect("set nodelay");
        Client { stream, frames: FrameReader::new() }
    }

    fn send(&mut self, req: &Request) {
        write_frame(&mut self.stream, &encode_request(req)).expect("client write");
    }

    fn recv(&mut self) -> Response {
        let body =
            read_frame_blocking(&mut self.stream, &mut self.frames).expect("client read frame");
        uhscm_serve::decode_response(&body).expect("client decode response")
    }
}

/// One committed state change, reconstructed from its wire receipt.
#[derive(Debug)]
enum Event {
    Insert { first_index: usize, row: usize, bundle: u64 },
    Remove { index: usize },
}

#[test]
fn every_response_matches_the_oracle_at_its_reported_generation() {
    // One reload bundle on disk, shared by all three shard-count runs.
    let dir = std::env::temp_dir().join(format!("uhscm-swap-boundary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bundle dir");
    let alt = synth::alt_model(SEED, DIM, BITS);
    let mut f = std::fs::File::create(dir.join("model.nn")).expect("create model.nn");
    alt.save(&mut f).expect("save alt model");
    std::fs::write(dir.join("vocab.txt"), "alpha\nbeta\n").expect("write vocab");

    for shards in [1usize, 2, 4] {
        run_swap_boundary(shards, &dir, &alt);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_swap_boundary(shards: usize, bundle_dir: &Path, alt: &Mlp) {
    let w = synth::workload(SEED, DIM, BITS, N_DB, N_QUERIES);
    let index = ShardedIndex::new(&w.db, shards);
    let engine = Engine::with_vocab_index(w.model.clone(), vec!["seed-term".to_string()], index)
        .expect("widths match");
    // Batches form from whatever queued while the worker was busy, so the
    // pipelined bursts below still yield multi-query batches while
    // mutations commit between them.
    let server = Server::start(engine, &ServeConfig::default()).expect("server starts");
    let mut mutator = Client::connect(&server);
    let mut queriers: Vec<Client> = (0..N_QUERIERS).map(|_| Client::connect(&server)).collect();

    let ins_rows = synth::insert_rows(SEED, ROUNDS, DIM);
    let mut next_id = 0u64;
    // Per-querier (id, query row) bookkeeping for the drain phase.
    let mut sent: Vec<Vec<(u64, usize)>> = (0..N_QUERIERS).map(|_| Vec::new()).collect();
    // committed_generation → the state change that produced it.
    let mut events: BTreeMap<u64, Event> = BTreeMap::new();

    for round in 0..ROUNDS {
        // Pipeline a burst of queries on every querier — all unread, so
        // they stay in flight server-side while the mutations below commit.
        for (c, querier) in queriers.iter_mut().enumerate() {
            for k in 0..QPR {
                let qi = (round * QPR + k + c) % N_QUERIES;
                let id = next_id;
                next_id += 1;
                sent[c].push((id, qi));
                querier.send(&Request::Query(QueryRequest {
                    id,
                    features: w.queries.row(qi).to_vec(),
                    top_k: TOP_K,
                    deadline_ms: None,
                }));
            }
        }

        // One insert + one remove, receipts read immediately: the commits
        // land while this round's query burst is still being batched.
        let iid = next_id;
        next_id += 1;
        mutator.send(&Request::Insert { id: iid, rows: vec![ins_rows.row(round).to_vec()] });
        match mutator.recv() {
            Response::Inserted { id, generation, first_index, count, live: _, bundle } => {
                assert_eq!((id, count), (iid, 1), "shards={shards} round={round}");
                let prev = events.insert(
                    generation,
                    Event::Insert { first_index: first_index as usize, row: round, bundle },
                );
                assert!(prev.is_none(), "two mutations claimed generation {generation}");
            }
            other => panic!("shards={shards} round={round}: unexpected {other:?}"),
        }

        let victim = (round * 3) % N_DB; // distinct genesis indices: always live
        let rid = next_id;
        next_id += 1;
        mutator.send(&Request::Remove { id: rid, index: victim as u64 });
        match mutator.recv() {
            Response::Removed { id, generation, removed, .. } => {
                assert_eq!(id, rid);
                assert!(removed, "shards={shards}: victim {victim} was live");
                let prev = events.insert(generation, Event::Remove { index: victim });
                assert!(prev.is_none(), "two mutations claimed generation {generation}");
            }
            other => panic!("shards={shards} round={round}: unexpected {other:?}"),
        }

        // Mid-traffic bundle reload: everything before keeps encoding with
        // bundle 0, everything after with bundle 1 — and each response says
        // which one it got.
        if round == ROUNDS / 2 {
            let id = next_id;
            next_id += 1;
            mutator.send(&Request::Reload { id, path: bundle_dir.to_string_lossy().into_owned() });
            match mutator.recv() {
                Response::Reloaded { bundle, vocab, .. } => {
                    assert_eq!((bundle, vocab), (1, 2), "shards={shards}");
                }
                other => panic!("shards={shards}: unexpected {other:?}"),
            }
        }
    }

    // Commit barrier: the flush readback must agree with the receipt log.
    let fid = next_id;
    mutator.send(&Request::Flush { id: fid });
    let (max_gen, final_live, final_total) = match mutator.recv() {
        Response::Flushed { id, generation, live, total, bundle } => {
            assert_eq!((id, bundle), (fid, 1), "shards={shards}");
            (generation, live, total)
        }
        other => panic!("shards={shards}: unexpected {other:?}"),
    };

    // Generation numbers must be gapless: every commit is accounted for,
    // none duplicated, none lost.
    assert_eq!(max_gen, 2 * ROUNDS as u64, "shards={shards}");
    let got_gens: Vec<u64> = events.keys().copied().collect();
    let want_gens: Vec<u64> = (1..=max_gen).collect();
    assert_eq!(got_gens, want_gens, "shards={shards}: generation gap or duplicate");

    // Replay the receipt log into the exact database state at every
    // generation: codes are append-only (a growing BitCodes), liveness is a
    // per-generation tombstone snapshot.
    let models: [&Mlp; 2] = [&w.model, alt];
    let mut all = w.db.clone();
    let mut dead: BTreeSet<u32> = BTreeSet::new();
    let mut states: Vec<(usize, BTreeSet<u32>)> = vec![(all.len(), dead.clone())];
    for g in 1..=max_gen {
        match &events[&g] {
            Event::Insert { first_index, row, bundle } => {
                assert_eq!(*first_index, all.len(), "shards={shards} gen={g}: insert offset");
                assert!(*bundle <= 1, "unknown bundle version {bundle}");
                let feats = Matrix::from_vec(1, DIM, ins_rows.row(*row).to_vec());
                all.extend(&BitCodes::from_real(&models[*bundle as usize].infer(&feats)));
            }
            Event::Remove { index } => {
                assert!(dead.insert(*index as u32), "shards={shards} gen={g}: double tombstone");
            }
        }
        states.push((all.len(), dead.clone()));
    }
    assert_eq!(final_total as usize, all.len(), "shards={shards}");
    assert_eq!(final_live as usize, all.len() - dead.len(), "shards={shards}");

    // Drain every querier. Every single response must be a well-formed
    // `hits` (zero failed responses) matching the offline oracle evaluated
    // at exactly the generation and bundle the response reports.
    for (c, querier) in queriers.iter_mut().enumerate() {
        let routed: BTreeMap<u64, usize> = sent[c].iter().copied().collect();
        for _ in 0..sent[c].len() {
            match querier.recv() {
                Response::Hits { id, hits, generation, bundle } => {
                    let qi = routed[&id];
                    assert!(generation <= max_gen, "shards={shards}: generation from the future");
                    assert!(bundle <= 1, "shards={shards}: unknown bundle {bundle}");
                    let (len_at, dead_at) = &states[generation as usize];
                    let feats = Matrix::from_vec(1, DIM, w.queries.row(qi).to_vec());
                    let qcode = BitCodes::from_real(&models[bundle as usize].infer(&feats));
                    let mut want: Vec<(u32, u32)> = (0..*len_at)
                        .filter(|&j| !dead_at.contains(&(j as u32)))
                        .map(|j| (qcode.hamming(0, &all, j), j as u32))
                        .collect();
                    want.sort_unstable();
                    want.truncate(TOP_K);
                    assert_eq!(
                        hits, want,
                        "shards={shards} id={id} qi={qi} generation={generation} bundle={bundle}"
                    );
                }
                other => panic!("shards={shards}: failed response {other:?}"),
            }
        }
    }
    server.shutdown();
}
