//! End-to-end loopback tests: a real server on an ephemeral port, a real
//! TCP client, and the offline evaluation pipeline as the oracle.
//!
//! Concurrency on the client side comes from *pipelining* — writing many
//! frames before reading any responses — rather than client threads, so the
//! batch worker genuinely coalesces queries while the test itself stays
//! single-threaded (the `raw-thread` lint allows OS threads only inside
//! `linalg::par` and the serve worker pool).

use std::net::TcpStream;
use std::time::Duration;

use uhscm_eval::{BitCodes, HammingRanker};
use uhscm_serve::{
    encode_request, read_frame_blocking, synth, write_frame, Engine, FrameReader, QueryRequest,
    Reason, Request, Response, ServeConfig, Server,
};

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

fn query(id: u64, features: &[f64], top_k: usize, deadline_ms: Option<u64>) -> Request {
    Request::Query(QueryRequest { id, features: features.to_vec(), top_k, deadline_ms })
}

/// Few bits + many database codes = dense distance ties, including across
/// shard boundaries: exactly the regime where a sloppy merge would diverge
/// from the offline tie-break order.
const SEED: u64 = 42;
const DIM: usize = 8;
const BITS: usize = 6;
const N_DB: usize = 48;
const N_QUERIES: usize = 12;

#[test]
fn online_hits_are_bitwise_identical_to_the_offline_oracle_at_every_shard_count() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, N_QUERIES);

    // Offline oracle: encode all queries in one batch, rank on one shard.
    let oracle_codes = BitCodes::from_real(&w.model.infer(&w.queries));
    let oracle = HammingRanker::new(w.db.clone());
    let top_k = 10;

    for shards in [1usize, 2, 4] {
        let engine = Engine::new(w.model.clone(), &w.db, shards).expect("widths match");
        assert_eq!(engine.num_shards(), shards);
        assert_eq!(engine.db_len(), N_DB);
        assert_eq!(engine.bits(), BITS);
        let config = ServeConfig {
            shards,
            // Generous straggler window: the pipelined burst below lands in
            // few (usually one) genuinely multi-query batches.
            max_wait: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let server = Server::start(engine, &config).expect("server starts");
        let mut client = Client::connect(&server);

        // Pipeline every query before reading anything.
        for qi in 0..N_QUERIES {
            client.send(&query(qi as u64, w.queries.row(qi), top_k, None));
        }
        for _ in 0..N_QUERIES {
            match client.recv() {
                Response::Hits { id, hits, .. } => {
                    let qi = id as usize;
                    let want = oracle.rank_top_n_with_dist(&oracle_codes, qi, top_k);
                    assert_eq!(hits, want, "shards={shards} query={qi}");
                }
                other => panic!("shards={shards}: unexpected response {other:?}"),
            }
        }
        server.shutdown();
    }
}

#[test]
fn ping_pong_and_structured_bad_requests() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, 1);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    let server = Server::start(engine, &ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(&server);

    client.send(&Request::Ping);
    assert_eq!(client.recv(), Response::Pong);
    assert_eq!(server.queue_depth(), 0, "ping must not occupy a queue slot");

    // Wrong feature dimension: rejected with a reason, connection survives.
    client.send(&query(5, &[1.0, 2.0], 3, None));
    match client.recv() {
        Response::Error { id, reason, detail } => {
            assert_eq!(id, 5);
            assert_eq!(reason, Reason::BadRequest);
            assert!(detail.contains("features"), "unhelpful detail: {detail}");
        }
        other => panic!("unexpected {other:?}"),
    }

    // top_k == 0 is meaningless: also a structured rejection.
    client.send(&query(6, w.queries.row(0), 0, None));
    match client.recv() {
        Response::Error { id, reason, .. } => {
            assert_eq!((id, reason), (6, Reason::BadRequest));
        }
        other => panic!("unexpected {other:?}"),
    }

    // Malformed JSON in a well-formed frame: structured reject too.
    write_frame(&mut client.stream, "{not json").expect("client write");
    match client.recv() {
        Response::Error { reason, detail, .. } => {
            assert_eq!(reason, Reason::BadRequest);
            assert!(detail.contains("bad JSON"), "unhelpful detail: {detail}");
        }
        other => panic!("unexpected {other:?}"),
    }

    // The connection is still usable after all those rejections.
    client.send(&Request::Ping);
    assert_eq!(client.recv(), Response::Pong);
    server.shutdown();
}

#[test]
fn wire_integer_validation_rejects_oversized_top_k_and_count_mismatches() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, 1);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    let config = ServeConfig { max_top_k: 8, ..ServeConfig::default() };
    let server = Server::start(engine, &config).expect("server starts");
    let mut client = Client::connect(&server);

    // top_k above the configured cap: refused before admission, with the
    // limit spelled out, and the connection survives.
    client.send(&query(1, w.queries.row(0), 9, None));
    match client.recv() {
        Response::Error { id, reason, detail } => {
            assert_eq!((id, reason), (1, Reason::BadRequest));
            assert!(detail.contains("exceeds the cap 8"), "unhelpful detail: {detail}");
        }
        other => panic!("unexpected {other:?}"),
    }

    // Exactly at the cap is still a served query.
    client.send(&query(2, w.queries.row(0), 8, None));
    match client.recv() {
        Response::Hits { id, hits, .. } => {
            assert_eq!(id, 2);
            assert_eq!(hits.len(), 8);
        }
        other => panic!("unexpected {other:?}"),
    }

    // An insert whose declared row count disagrees with its payload is a
    // truncated or forged frame: structured rejection (decode-level, so the
    // reply carries id 0), and nothing commits behind the client's back.
    let features = vec!["0.0"; DIM].join(",");
    let forged = format!(r#"{{"type":"insert","id":3,"count":2,"rows":[[{features}]]}}"#);
    write_frame(&mut client.stream, &forged).expect("client write");
    match client.recv() {
        Response::Error { id, reason, detail } => {
            assert_eq!((id, reason), (0, Reason::BadRequest));
            assert!(
                detail.contains("declared 2 rows but the payload has 1"),
                "unhelpful detail: {detail}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // A well-formed insert (the encoder stamps the count itself) commits.
    client.send(&Request::Insert { id: 4, rows: vec![vec![0.25; DIM]] });
    match client.recv() {
        Response::Inserted { id, count, .. } => assert_eq!((id, count), (4, 1)),
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

#[test]
fn deadline_already_expired_is_rejected_without_encoding() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, 2);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    let server = Server::start(engine, &ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(&server);

    // deadline_ms = 0: the deadline passes the instant the query is
    // admitted, so dequeue must observe it as expired — deterministically.
    client.send(&query(1, w.queries.row(0), 5, Some(0)));
    match client.recv() {
        Response::Error { id, reason, .. } => {
            assert_eq!((id, reason), (1, Reason::DeadlineExceeded));
        }
        other => panic!("unexpected {other:?}"),
    }

    // A sibling query with a roomy deadline still gets answered.
    client.send(&query(2, w.queries.row(1), 5, Some(10_000)));
    match client.recv() {
        Response::Hits { id, hits, .. } => {
            assert_eq!(id, 2);
            assert_eq!(hits.len(), 5);
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

#[test]
fn overload_sheds_with_an_explicit_reason() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, 2);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    // One queue slot, and a straggler window long enough that the first
    // query is still occupying that slot when the second arrives (the batch
    // worker keeps queries queued while it waits for the batch to fill).
    let config = ServeConfig {
        queue_cap: 1,
        max_batch: 8,
        max_wait: Duration::from_millis(400),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, &config).expect("server starts");
    let mut client = Client::connect(&server);

    client.send(&query(1, w.queries.row(0), 3, None));
    client.send(&query(2, w.queries.row(1), 3, None));

    // The shed reply is written immediately by the connection thread; the
    // admitted query's hits follow once the straggler window closes.
    match client.recv() {
        Response::Error { id, reason, detail } => {
            assert_eq!((id, reason), (2, Reason::Overloaded));
            assert!(detail.contains("queue"), "unhelpful detail: {detail}");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.recv() {
        Response::Hits { id, .. } => assert_eq!(id, 1),
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

#[test]
fn graceful_drain_answers_admitted_queries_then_stops_listening() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, 4);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    let config = ServeConfig { max_wait: Duration::from_millis(200), ..ServeConfig::default() };
    let server = Server::start(engine, &config).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::connect(&server);

    for qi in 0..4u64 {
        client.send(&query(qi, w.queries.row(qi as usize), 4, None));
    }
    // The connection thread answers frames in order, so the pong proves all
    // four queries were admitted before we start draining (queries landing
    // after the drain flag would legitimately be rejected instead).
    client.send(&Request::Ping);
    assert_eq!(client.recv(), Response::Pong);
    // Shutdown while the straggler window is still open: every admitted
    // query must be answered before shutdown() returns.
    server.shutdown();

    let mut answered = 0;
    for _ in 0..4 {
        match client.recv() {
            Response::Hits { .. } => answered += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(answered, 4);

    // The listener is gone: nobody is accepting anymore.
    assert!(TcpStream::connect(addr).is_err(), "listener survived shutdown");
}

#[test]
fn pipelined_mixed_valid_and_invalid_requests_stay_well_framed() {
    // Rejections are produced by the connection thread, hits by the batch
    // worker; with both racing onto one socket, every response must still
    // arrive as a complete, decodable frame (the per-connection writer
    // thread is the serialization point — nothing writes under a lock).
    let w = synth::workload(SEED, DIM, BITS, N_DB, N_QUERIES);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    let config = ServeConfig { max_wait: Duration::from_millis(20), ..ServeConfig::default() };
    let server = Server::start(engine, &config).expect("server starts");
    let mut client = Client::connect(&server);

    // Pipeline the whole burst before reading anything: even ids are valid
    // queries, odd ids carry the wrong feature dimension.
    const BURST: u64 = 24;
    for i in 0..BURST {
        if i % 2 == 0 {
            client.send(&query(i, w.queries.row((i as usize / 2) % N_QUERIES), 5, None));
        } else {
            client.send(&query(i, &[0.5], 5, None));
        }
    }
    let mut hit_ids = std::collections::BTreeSet::new();
    let mut err_ids = std::collections::BTreeSet::new();
    // Client::recv decodes each frame; a torn or interleaved frame would
    // fail right here as a framing/decode panic.
    for _ in 0..BURST {
        match client.recv() {
            Response::Hits { id, hits, .. } => {
                assert_eq!(id % 2, 0, "hits for an invalid query {id}");
                assert_eq!(hits.len(), 5);
                assert!(hit_ids.insert(id), "duplicate hits for {id}");
            }
            Response::Error { id, reason, .. } => {
                assert_eq!((id % 2, reason), (1, Reason::BadRequest), "id={id}");
                assert!(err_ids.insert(id), "duplicate error for {id}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(hit_ids.len() as u64, BURST / 2);
    assert_eq!(err_ids.len() as u64, BURST / 2);
    server.shutdown();
}

#[test]
fn batched_and_sequential_queries_agree_with_each_other() {
    // The same queries sent one-at-a-time (sequential batches of 1) and in
    // one pipelined burst of a full default batch (coalesced into one
    // batched search) must produce identical hits at mixed depths, from
    // one hit to more than the database holds: batch composition must not
    // leak into results.
    const BURST: usize = 16;
    assert_eq!(ServeConfig::default().max_batch, BURST);
    let w = synth::workload(SEED, DIM, BITS, N_DB, BURST);
    let top_k = |qi: usize| [1, 7, N_DB, N_DB + 12][qi % 4];

    let run = |max_wait: Duration, pipelined: bool| -> Vec<Vec<(u32, u32)>> {
        let engine = Engine::new(w.model.clone(), &w.db, 4).expect("widths match");
        let config = ServeConfig { max_wait, ..ServeConfig::default() };
        let server = Server::start(engine, &config).expect("server starts");
        let mut client = Client::connect(&server);
        let mut out = vec![Vec::new(); BURST];
        let mut recv_into = |client: &mut Client| match client.recv() {
            Response::Hits { id, hits, .. } => out[id as usize] = hits,
            other => panic!("unexpected {other:?}"),
        };
        if pipelined {
            for qi in 0..BURST {
                client.send(&query(qi as u64, w.queries.row(qi), top_k(qi), None));
            }
            for _ in 0..BURST {
                recv_into(&mut client);
            }
        } else {
            for qi in 0..BURST {
                client.send(&query(qi as u64, w.queries.row(qi), top_k(qi), None));
                recv_into(&mut client);
            }
        }
        server.shutdown();
        out
    };

    let sequential = run(Duration::ZERO, false);
    let coalesced = run(Duration::from_millis(50), true);
    for (qi, hits) in sequential.iter().enumerate() {
        assert_eq!(hits.len(), top_k(qi).min(N_DB), "query {qi}");
    }
    assert_eq!(sequential, coalesced);
}

#[test]
fn live_mutations_and_reload_answer_over_the_wire() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, 2);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    let server = Server::start(engine, &ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(&server);

    // Insert two rows: the receipt reports the commit and where they landed.
    let rows = synth::insert_rows(SEED, 2, DIM);
    client.send(&Request::Insert { id: 1, rows: (0..2).map(|i| rows.row(i).to_vec()).collect() });
    match client.recv() {
        Response::Inserted { id, generation, first_index, count, live, bundle } => {
            assert_eq!(
                (id, generation, first_index, count, live, bundle),
                (1, 1, N_DB as u64, 2, N_DB as u64 + 2, 0)
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // Query with the first inserted row's features: the same bundle encodes
    // it to the same code, so the inserted item comes back at distance 0.
    client.send(&query(2, rows.row(0), N_DB + 2, None));
    match client.recv() {
        Response::Hits { id, hits, generation, bundle } => {
            assert_eq!((id, generation, bundle), (2, 1, 0));
            assert!(
                hits.iter().any(|&(d, j)| d == 0 && j == N_DB as u32),
                "inserted item not found at distance 0: {hits:?}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // Remove it; a full-depth query no longer returns it.
    client.send(&Request::Remove { id: 3, index: N_DB as u64 });
    match client.recv() {
        Response::Removed { id, generation, removed, live } => {
            assert_eq!((id, generation, removed, live), (3, 2, true, N_DB as u64 + 1));
        }
        other => panic!("unexpected {other:?}"),
    }
    client.send(&query(4, rows.row(0), N_DB + 2, None));
    match client.recv() {
        Response::Hits { id, hits, generation, .. } => {
            assert_eq!((id, generation), (4, 2));
            assert!(hits.iter().all(|&(_, j)| j != N_DB as u32), "tombstoned item returned");
        }
        other => panic!("unexpected {other:?}"),
    }

    // Removing it again: explicit no-op, no new generation.
    client.send(&Request::Remove { id: 5, index: N_DB as u64 });
    match client.recv() {
        Response::Removed { id, generation, removed, .. } => {
            assert_eq!((id, generation, removed), (5, 2, false));
        }
        other => panic!("unexpected {other:?}"),
    }

    // Hot-reload a retrained bundle from disk mid-connection.
    let dir = std::env::temp_dir().join(format!("uhscm-loopback-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bundle dir");
    let alt = synth::alt_model(SEED, DIM, BITS);
    let mut f = std::fs::File::create(dir.join("model.nn")).expect("create model.nn");
    alt.save(&mut f).expect("save alt model");
    std::fs::write(dir.join("vocab.txt"), "alpha\nbeta\n").expect("write vocab");

    client.send(&Request::Reload { id: 6, path: dir.to_string_lossy().into_owned() });
    match client.recv() {
        Response::Reloaded { id, bundle, vocab } => assert_eq!((id, bundle, vocab), (6, 1, 2)),
        other => panic!("unexpected {other:?}"),
    }

    // Queries still answer, now reporting the new bundle, and match the
    // offline oracle evaluated with the reloaded model over the live set.
    client.send(&query(7, w.queries.row(0), 5, None));
    match client.recv() {
        Response::Hits { id, hits, generation, bundle } => {
            assert_eq!((id, generation, bundle), (7, 2, 1));
            // Database codes are immutable: the genesis codes and the rows
            // inserted under bundle 0 keep their bundle-0 encodings. Only
            // the query is encoded by the reloaded model.
            let mut db = w.db.clone();
            db.extend(&BitCodes::from_real(&w.model.infer(&rows)).slice(0..2));
            let q = BitCodes::from_real(&alt.infer(&uhscm_linalg::Matrix::from_vec(
                1,
                DIM,
                w.queries.row(0).to_vec(),
            )));
            let mut want: Vec<(u32, u32)> = (0..db.len())
                .filter(|&j| j != N_DB) // the tombstoned insert
                .map(|j| (q.hamming(0, &db, j), j as u32))
                .collect();
            want.sort_unstable();
            want.truncate(5);
            assert_eq!(hits, want, "post-reload hits diverge from the offline oracle");
        }
        other => panic!("unexpected {other:?}"),
    }

    // A flush readback agrees with everything above.
    client.send(&Request::Flush { id: 8 });
    match client.recv() {
        Response::Flushed { id, generation, live, total, bundle } => {
            assert_eq!(
                (id, generation, live, total, bundle),
                (8, 2, N_DB as u64 + 1, N_DB as u64 + 2, 1)
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_commits_admitted_mutations_before_returning() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, 1);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    let server = Server::start(engine, &ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(&server);

    // Pipeline a burst of inserts plus a trailing flush, then a ping. The
    // connection thread handles frames in order and mutations commit
    // synchronously, so the pong proves every mutation above it was already
    // admitted AND committed — not parked in a queue shutdown could drop.
    let rows = synth::insert_rows(SEED, 4, DIM);
    for i in 0..4u64 {
        client.send(&Request::Insert { id: i, rows: vec![rows.row(i as usize).to_vec()] });
    }
    client.send(&Request::Flush { id: 90 });
    client.send(&Request::Ping);

    let mut receipts = 0u64;
    loop {
        match client.recv() {
            Response::Inserted { id, generation, first_index, .. } => {
                // Single-connection writes commit in frame order: generation
                // i+1 holds row i at global index N_DB + i.
                assert_eq!(generation, id + 1, "insert {id} committed out of order");
                assert_eq!(first_index, N_DB as u64 + id);
                receipts += 1;
            }
            Response::Flushed { id, generation, live, total, .. } => {
                assert_eq!(id, 90);
                assert_eq!(generation, 4);
                assert_eq!(live, N_DB as u64 + 4);
                assert_eq!(total, N_DB as u64 + 4);
            }
            Response::Pong => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(receipts, 4, "an admitted insert went unanswered");

    // Drain with those commits in the log: shutdown returns cleanly, and
    // the receipts above are the durable record — every write the server
    // acknowledged had already committed before the drain began.
    server.shutdown();
}

#[test]
fn readonly_server_refuses_writes_over_the_wire() {
    let w = synth::workload(SEED, DIM, BITS, N_DB, 1);
    let engine = Engine::new(w.model.clone(), &w.db, 2).expect("widths match");
    let config = ServeConfig { writable: false, ..ServeConfig::default() };
    let server = Server::start(engine, &config).expect("server starts");
    let mut client = Client::connect(&server);

    client.send(&Request::Insert { id: 1, rows: vec![vec![0.0; DIM]] });
    match client.recv() {
        Response::Error { id, reason, detail } => {
            assert_eq!((id, reason), (1, Reason::BadRequest));
            assert!(detail.contains("read-only"), "unhelpful detail: {detail}");
        }
        other => panic!("unexpected {other:?}"),
    }

    // Reads are unaffected.
    client.send(&query(2, w.queries.row(0), 3, None));
    match client.recv() {
        Response::Hits { id, generation, bundle, .. } => {
            assert_eq!((id, generation, bundle), (2, 0, 0));
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}
