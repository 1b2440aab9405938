//! Wire protocol of the retrieval service: length-prefixed JSON frames.
//!
//! Every message is one frame: a 4-byte little-endian payload length
//! followed by that many bytes of UTF-8 JSON. JSON keeps the protocol
//! debuggable (`nc` + eyes) and reuses workspace machinery on both sides —
//! the vendored `serde_json` shim encodes, [`uhscm_obs::trace`]'s JSON
//! parser decodes — while the length prefix makes framing trivial and
//! caps hostile input at [`MAX_FRAME`] before anything is buffered.
//!
//! Requests:
//!
//! ```text
//! {"type":"query","id":7,"top_k":10,"features":[0.25,-1.5,...],"deadline_ms":50}
//! {"type":"insert","id":8,"rows":[[0.25,-1.5,...],...]}    // feature rows
//! {"type":"remove","id":9,"index":412}
//! {"type":"flush","id":10}                                  // commit barrier/readback
//! {"type":"reload","id":11,"path":"/bundles/v2"}            // hot model+vocab swap
//! {"type":"ping"}
//! ```
//!
//! Responses:
//!
//! ```text
//! {"type":"hits","id":7,"hits":[[0,412],[1,9],...],         // [distance,index]
//!  "generation":3,"bundle":1}                               // state answered at
//! {"type":"inserted","id":8,"committed_generation":4,
//!  "first_index":1200,"count":2,"live":1198,"bundle":1}
//! {"type":"removed","id":9,"committed_generation":5,"removed":true,"live":1197}
//! {"type":"flushed","id":10,"committed_generation":5,"live":1197,"total":1202,"bundle":1}
//! {"type":"reloaded","id":11,"bundle":2,"vocab":4096}
//! {"type":"error","id":7,"reason":"overloaded","detail":"queue full (cap 256)"}
//! {"type":"pong"}
//! ```
//!
//! Mutation responses carry the explicit `committed_generation` the
//! operation landed as (a remove of an already-dead item echoes the current
//! generation with `removed:false` — no state change, no new generation),
//! and `hits` responses carry the generation and bundle version the query
//! was actually evaluated at, so a client — or the swap-boundary test
//! harness — can reconstruct the exact database state behind any answer.
//!
//! `features` are `f64`s; both the encoder (shortest round-trip formatting)
//! and the decoder (`f64` parsing) are exact for finite values, so a feature
//! vector survives the wire bit-for-bit and the online encoding is
//! bitwise-identical to encoding the same vector offline. Error responses
//! always carry a machine-readable `reason` from the closed [`Reason`] set
//! plus a human-readable `detail`.

use std::io::{self, Read, Write};
use uhscm_obs::trace::{self, Json};

/// Largest accepted frame payload (1 MiB — a 4096-dim query is ~100 KiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame stream stopped being parseable. Protocol errors are
/// connection-fatal: framing is lost, so the peer must reconnect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Declared payload length exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Payload is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::BadUtf8 => write!(f, "frame payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Serialize one frame (length prefix + payload) to bytes without touching
/// any transport. Separating serialization from transmission lets callers
/// build the frame wherever is convenient and hand the bytes to whichever
/// thread owns the socket — no socket write ever needs to happen under a
/// lock.
///
/// # Errors
///
/// A body over [`MAX_FRAME`] is `InvalidInput`.
pub fn encode_frame(body: &str) -> io::Result<Vec<u8>> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame body too large"));
    }
    // One contiguous buffer for prefix + payload: two small writes on a TCP
    // stream invite the Nagle / delayed-ACK stall (~40 ms per frame).
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body.as_bytes());
    Ok(frame)
}

/// Write one frame (length prefix + payload).
///
/// # Errors
///
/// Propagates I/O errors; a body over [`MAX_FRAME`] is `InvalidInput`.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let frame = encode_frame(body)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Incremental frame assembly over a byte stream. Feed whatever the socket
/// yields with [`FrameReader::push_bytes`]; [`FrameReader::next_frame`]
/// returns complete payloads as they materialize. Reading this way (rather
/// than `read_exact` on the socket) keeps partial frames intact across read
/// timeouts, which the server uses to poll its drain flag mid-connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes from the transport.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, `Ok(None)` while one is still partial.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on an oversized declared length or non-UTF-8
    /// payload; the stream is unrecoverable after that.
    pub fn next_frame(&mut self) -> Result<Option<String>, ProtocolError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(ProtocolError::FrameTooLarge(len));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
        match String::from_utf8(payload) {
            Ok(s) => Ok(Some(s)),
            Err(_) => Err(ProtocolError::BadUtf8),
        }
    }
}

/// One retrieval query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Raw feature vector; must match the model's input dimension.
    pub features: Vec<f64>,
    /// How many neighbours to return.
    pub top_k: usize,
    /// Optional admission deadline: if the query is still queued this many
    /// milliseconds after arrival, it is answered `deadline_exceeded`
    /// instead of being encoded.
    pub deadline_ms: Option<u64>,
}

/// A parsed client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Query(QueryRequest),
    /// Encode `rows` with the current bundle and append them to the index
    /// as one committed generation.
    Insert {
        id: u64,
        rows: Vec<Vec<f64>>,
    },
    /// Tombstone one database index.
    Remove {
        id: u64,
        index: u64,
    },
    /// Commit barrier / state readback: answers with the current committed
    /// generation, live/total counts and bundle version. Read-only.
    Flush {
        id: u64,
    },
    /// Hot-swap the serving bundle (model + vocab) from a directory.
    Reload {
        id: u64,
        path: String,
    },
    Ping,
}

/// Machine-readable failure reasons carried by error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// The admission queue was full; the request was shed, not queued.
    Overloaded,
    /// The request's deadline passed while it waited in the queue.
    DeadlineExceeded,
    /// The server is draining and no longer admits new work.
    Draining,
    /// The request was malformed (bad JSON, wrong dimensions, zero `top_k`).
    BadRequest,
}

impl Reason {
    pub fn as_str(self) -> &'static str {
        match self {
            Reason::Overloaded => "overloaded",
            Reason::DeadlineExceeded => "deadline_exceeded",
            Reason::Draining => "draining",
            Reason::BadRequest => "bad_request",
        }
    }

    pub fn from_str(s: &str) -> Option<Reason> {
        match s {
            "overloaded" => Some(Reason::Overloaded),
            "deadline_exceeded" => Some(Reason::DeadlineExceeded),
            "draining" => Some(Reason::Draining),
            "bad_request" => Some(Reason::BadRequest),
            _ => None,
        }
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful retrieval: `(distance, database_index)` pairs in the exact
    /// `(distance, index)`-ascending order of the offline ranker, tagged
    /// with the generation and bundle version the query was evaluated at.
    Hits {
        id: u64,
        hits: Vec<(u32, u32)>,
        /// Generation sequence number the search ran against.
        generation: u64,
        /// Bundle version the features were encoded with.
        bundle: u64,
    },
    /// An insert committed as `generation`; the new codes occupy global
    /// indices `first_index..first_index + count`.
    Inserted {
        id: u64,
        generation: u64,
        first_index: u64,
        count: u64,
        live: u64,
        /// Bundle version that encoded the inserted rows.
        bundle: u64,
    },
    /// A remove receipt; `removed: false` means the item was already dead
    /// and `generation` echoes the unchanged current generation.
    Removed {
        id: u64,
        generation: u64,
        removed: bool,
        live: u64,
    },
    /// Flush/readback receipt: the committed state at the time the frame
    /// was handled.
    Flushed {
        id: u64,
        generation: u64,
        live: u64,
        total: u64,
        bundle: u64,
    },
    /// A bundle reload committed as version `bundle` with `vocab` terms.
    Reloaded {
        id: u64,
        bundle: u64,
        vocab: u64,
    },
    Error {
        id: u64,
        reason: Reason,
        detail: String,
    },
    Pong,
}

fn obj(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn encode(value: &serde::Value) -> String {
    // The value-tree encoder is total; the Result exists for upstream
    // source compatibility only.
    serde_json::to_string(value).unwrap_or_default()
}

/// Encode a request frame body.
pub fn encode_request(req: &Request) -> String {
    use serde::Value;
    let v = match req {
        Request::Ping => obj(vec![("type", Value::Str("ping".into()))]),
        Request::Query(q) => {
            let mut fields = vec![
                ("type", Value::Str("query".into())),
                ("id", Value::UInt(q.id)),
                ("top_k", Value::UInt(q.top_k as u64)),
                ("features", Value::Seq(q.features.iter().map(|&f| Value::Float(f)).collect())),
            ];
            if let Some(ms) = q.deadline_ms {
                fields.push(("deadline_ms", Value::UInt(ms)));
            }
            obj(fields)
        }
        Request::Insert { id, rows } => obj(vec![
            ("type", Value::Str("insert".into())),
            ("id", Value::UInt(*id)),
            // Declared row count: lets the decoder reject frames whose
            // claimed batch size disagrees with the payload they carry.
            ("count", Value::UInt(rows.len() as u64)),
            (
                "rows",
                Value::Seq(
                    rows.iter()
                        .map(|row| Value::Seq(row.iter().map(|&f| Value::Float(f)).collect()))
                        .collect(),
                ),
            ),
        ]),
        Request::Remove { id, index } => obj(vec![
            ("type", Value::Str("remove".into())),
            ("id", Value::UInt(*id)),
            ("index", Value::UInt(*index)),
        ]),
        Request::Flush { id } => {
            obj(vec![("type", Value::Str("flush".into())), ("id", Value::UInt(*id))])
        }
        Request::Reload { id, path } => obj(vec![
            ("type", Value::Str("reload".into())),
            ("id", Value::UInt(*id)),
            ("path", Value::Str(path.clone())),
        ]),
    };
    encode(&v)
}

/// Encode a response frame body.
pub fn encode_response(resp: &Response) -> String {
    use serde::Value;
    let v = match resp {
        Response::Pong => obj(vec![("type", Value::Str("pong".into()))]),
        Response::Hits { id, hits, generation, bundle } => obj(vec![
            ("type", Value::Str("hits".into())),
            ("id", Value::UInt(*id)),
            (
                "hits",
                Value::Seq(
                    hits.iter()
                        .map(|&(d, i)| {
                            Value::Seq(vec![Value::UInt(u64::from(d)), Value::UInt(u64::from(i))])
                        })
                        .collect(),
                ),
            ),
            ("generation", Value::UInt(*generation)),
            ("bundle", Value::UInt(*bundle)),
        ]),
        Response::Inserted { id, generation, first_index, count, live, bundle } => obj(vec![
            ("type", Value::Str("inserted".into())),
            ("id", Value::UInt(*id)),
            ("committed_generation", Value::UInt(*generation)),
            ("first_index", Value::UInt(*first_index)),
            ("count", Value::UInt(*count)),
            ("live", Value::UInt(*live)),
            ("bundle", Value::UInt(*bundle)),
        ]),
        Response::Removed { id, generation, removed, live } => obj(vec![
            ("type", Value::Str("removed".into())),
            ("id", Value::UInt(*id)),
            ("committed_generation", Value::UInt(*generation)),
            ("removed", Value::Bool(*removed)),
            ("live", Value::UInt(*live)),
        ]),
        Response::Flushed { id, generation, live, total, bundle } => obj(vec![
            ("type", Value::Str("flushed".into())),
            ("id", Value::UInt(*id)),
            ("committed_generation", Value::UInt(*generation)),
            ("live", Value::UInt(*live)),
            ("total", Value::UInt(*total)),
            ("bundle", Value::UInt(*bundle)),
        ]),
        Response::Reloaded { id, bundle, vocab } => obj(vec![
            ("type", Value::Str("reloaded".into())),
            ("id", Value::UInt(*id)),
            ("bundle", Value::UInt(*bundle)),
            ("vocab", Value::UInt(*vocab)),
        ]),
        Response::Error { id, reason, detail } => obj(vec![
            ("type", Value::Str("error".into())),
            ("id", Value::UInt(*id)),
            ("reason", Value::Str(reason.as_str().into())),
            ("detail", Value::Str(detail.clone())),
        ]),
    };
    encode(&v)
}

fn parse_json(body: &str) -> Result<Json, String> {
    trace::parse(body).map_err(|e| format!("bad JSON: {e}"))
}

fn msg_type(v: &Json) -> Result<&str, String> {
    v.get("type").and_then(Json::as_str).ok_or_else(|| "missing 'type' field".to_string())
}

/// Member `field` of `v` as an integer in [`Json::as_u64`]'s exact range:
/// a larger id would come back rounded onto another request's.
fn uint(v: &Json, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("'{field}' must be an integer from 0 to 2^53 - 1"))
}

/// Decode a request frame body; the error string is a human-readable
/// `detail` the server echoes back in a `bad_request` response.
///
/// # Errors
///
/// Returns a description of the malformation.
pub fn decode_request(body: &str) -> Result<Request, String> {
    let v = parse_json(body)?;
    match msg_type(&v)? {
        "ping" => Ok(Request::Ping),
        "query" => {
            let id = uint(&v, "id")?;
            let top_k = uint(&v, "top_k")? as usize;
            let features = v
                .get("features")
                .and_then(Json::as_arr)
                .ok_or("missing 'features' array")?
                .iter()
                .map(|f| f.as_f64().ok_or("non-numeric feature"))
                .collect::<Result<Vec<f64>, &str>>()?;
            let deadline_ms = match v.get("deadline_ms") {
                None => None,
                Some(_) => Some(uint(&v, "deadline_ms")?),
            };
            Ok(Request::Query(QueryRequest { id, features, top_k, deadline_ms }))
        }
        "insert" => {
            let id = uint(&v, "id")?;
            let rows = v
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or("missing 'rows' array")?
                .iter()
                .map(|row| {
                    row.as_arr()
                        .ok_or("non-array row")?
                        .iter()
                        .map(|f| f.as_f64().ok_or("non-numeric feature"))
                        .collect::<Result<Vec<f64>, &str>>()
                })
                .collect::<Result<Vec<Vec<f64>>, &str>>()?;
            // `count` is optional for wire compatibility with pre-count
            // clients, but when present it must match the payload: a
            // disagreement means the frame was truncated or forged, and
            // silently trusting either number would commit the wrong
            // batch under the client's id.
            if v.get("count").is_some() {
                let declared = uint(&v, "count")?;
                if u64::try_from(rows.len()).ok() != Some(declared) {
                    return Err(format!(
                        "insert declared {declared} rows but the payload has {}",
                        rows.len()
                    ));
                }
            }
            Ok(Request::Insert { id, rows })
        }
        "remove" => {
            let id = uint(&v, "id")?;
            let index = uint(&v, "index")?;
            Ok(Request::Remove { id, index })
        }
        "flush" => {
            let id = uint(&v, "id")?;
            Ok(Request::Flush { id })
        }
        "reload" => {
            let id = uint(&v, "id")?;
            let path =
                v.get("path").and_then(Json::as_str).ok_or("missing 'path' string")?.to_string();
            Ok(Request::Reload { id, path })
        }
        other => Err(format!("unknown request type '{other}'")),
    }
}

/// Decode a response frame body (the client side of the protocol).
///
/// # Errors
///
/// Returns a description of the malformation.
pub fn decode_response(body: &str) -> Result<Response, String> {
    let v = parse_json(body)?;
    match msg_type(&v)? {
        "pong" => Ok(Response::Pong),
        "hits" => {
            let id = v.get("id").and_then(Json::as_u64).ok_or("missing numeric 'id'")?;
            let hits = v
                .get("hits")
                .and_then(Json::as_arr)
                .ok_or("missing 'hits' array")?
                .iter()
                .map(|pair| {
                    let arr = pair.as_arr().filter(|a| a.len() == 2).ok_or("bad hit pair")?;
                    let u32_at = |k: usize| arr[k].as_u64().and_then(|x| u32::try_from(x).ok());
                    let d =
                        u32_at(0).ok_or("hit distance must be an integer from 0 to 2^32 - 1")?;
                    let i = u32_at(1).ok_or("hit index must be an integer from 0 to 2^32 - 1")?;
                    Ok((d, i))
                })
                .collect::<Result<Vec<(u32, u32)>, &str>>()?;
            let generation =
                v.get("generation").and_then(Json::as_u64).ok_or("missing numeric 'generation'")?;
            let bundle =
                v.get("bundle").and_then(Json::as_u64).ok_or("missing numeric 'bundle'")?;
            Ok(Response::Hits { id, hits, generation, bundle })
        }
        "inserted" => {
            let id = v.get("id").and_then(Json::as_u64).ok_or("missing numeric 'id'")?;
            let generation = v
                .get("committed_generation")
                .and_then(Json::as_u64)
                .ok_or("missing numeric 'committed_generation'")?;
            let first_index = v
                .get("first_index")
                .and_then(Json::as_u64)
                .ok_or("missing numeric 'first_index'")?;
            let count = v.get("count").and_then(Json::as_u64).ok_or("missing numeric 'count'")?;
            let live = v.get("live").and_then(Json::as_u64).ok_or("missing numeric 'live'")?;
            let bundle =
                v.get("bundle").and_then(Json::as_u64).ok_or("missing numeric 'bundle'")?;
            Ok(Response::Inserted { id, generation, first_index, count, live, bundle })
        }
        "removed" => {
            let id = v.get("id").and_then(Json::as_u64).ok_or("missing numeric 'id'")?;
            let generation = v
                .get("committed_generation")
                .and_then(Json::as_u64)
                .ok_or("missing numeric 'committed_generation'")?;
            let removed =
                v.get("removed").and_then(Json::as_bool).ok_or("missing boolean 'removed'")?;
            let live = v.get("live").and_then(Json::as_u64).ok_or("missing numeric 'live'")?;
            Ok(Response::Removed { id, generation, removed, live })
        }
        "flushed" => {
            let id = v.get("id").and_then(Json::as_u64).ok_or("missing numeric 'id'")?;
            let generation = v
                .get("committed_generation")
                .and_then(Json::as_u64)
                .ok_or("missing numeric 'committed_generation'")?;
            let live = v.get("live").and_then(Json::as_u64).ok_or("missing numeric 'live'")?;
            let total = v.get("total").and_then(Json::as_u64).ok_or("missing numeric 'total'")?;
            let bundle =
                v.get("bundle").and_then(Json::as_u64).ok_or("missing numeric 'bundle'")?;
            Ok(Response::Flushed { id, generation, live, total, bundle })
        }
        "reloaded" => {
            let id = v.get("id").and_then(Json::as_u64).ok_or("missing numeric 'id'")?;
            let bundle =
                v.get("bundle").and_then(Json::as_u64).ok_or("missing numeric 'bundle'")?;
            let vocab = v.get("vocab").and_then(Json::as_u64).ok_or("missing numeric 'vocab'")?;
            Ok(Response::Reloaded { id, bundle, vocab })
        }
        "error" => {
            let id = v.get("id").and_then(Json::as_u64).ok_or("missing numeric 'id'")?;
            let reason = v
                .get("reason")
                .and_then(Json::as_str)
                .and_then(Reason::from_str)
                .ok_or("missing or unknown 'reason'")?;
            let detail =
                v.get("detail").and_then(Json::as_str).ok_or("missing 'detail'")?.to_string();
            Ok(Response::Error { id, reason, detail })
        }
        other => Err(format!("unknown response type '{other}'")),
    }
}

/// Read frames from a blocking reader until one complete frame is
/// available (the synchronous client path: loadgen, tests, CLI probes).
///
/// # Errors
///
/// I/O errors propagate; protocol violations surface as `InvalidData`.
pub fn read_frame_blocking(r: &mut impl Read, frames: &mut FrameReader) -> io::Result<String> {
    let mut chunk = [0u8; 4096];
    loop {
        match frames.next_frame() {
            Ok(Some(body)) => return Ok(body),
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        frames.push_bytes(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request::Query(QueryRequest {
            id: 42,
            features: vec![0.5, -1.25, 3.0e-7, 1234.5],
            top_k: 10,
            deadline_ms: Some(50),
        });
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).expect("round trip"), req);
        let ping = encode_request(&Request::Ping);
        assert_eq!(decode_request(&ping).expect("ping"), Request::Ping);
    }

    #[test]
    fn mutation_requests_round_trip() {
        for req in [
            Request::Insert { id: 3, rows: vec![vec![0.5, -1.25], vec![2.0, 0.125]] },
            Request::Insert { id: 4, rows: vec![] },
            Request::Remove { id: 5, index: 412 },
            Request::Flush { id: 6 },
            Request::Reload { id: 7, path: "/bundles/v2".into() },
        ] {
            let body = encode_request(&req);
            assert_eq!(decode_request(&body).expect("round trip"), req);
        }
    }

    #[test]
    fn mutation_responses_round_trip() {
        for resp in [
            Response::Inserted {
                id: 3,
                generation: 4,
                first_index: 1200,
                count: 2,
                live: 1198,
                bundle: 1,
            },
            Response::Removed { id: 5, generation: 5, removed: true, live: 1197 },
            Response::Removed { id: 5, generation: 5, removed: false, live: 1197 },
            Response::Flushed { id: 6, generation: 5, live: 1197, total: 1202, bundle: 1 },
            Response::Reloaded { id: 7, bundle: 2, vocab: 4096 },
        ] {
            let body = encode_response(&resp);
            assert_eq!(decode_response(&body).expect("round trip"), resp);
        }
    }

    #[test]
    fn features_survive_the_wire_bit_for_bit() {
        // Awkward values: subnormal-ish, negative zero, long mantissas.
        let feats = vec![0.1 + 0.2, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, -987654.321];
        let req = Request::Query(QueryRequest {
            id: 1,
            features: feats.clone(),
            top_k: 1,
            deadline_ms: None,
        });
        let decoded = match decode_request(&encode_request(&req)).expect("decodes") {
            Request::Query(q) => q.features,
            other => panic!("unexpected {other:?}"),
        };
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&feats));
    }

    #[test]
    fn response_round_trip() {
        let ok =
            Response::Hits { id: 9, hits: vec![(0, 3), (1, 0), (1, 7)], generation: 2, bundle: 1 };
        assert_eq!(decode_response(&encode_response(&ok)).expect("hits"), ok);
        let err = Response::Error {
            id: 9,
            reason: Reason::Overloaded,
            detail: "queue full (cap 8)".into(),
        };
        assert_eq!(decode_response(&encode_response(&err)).expect("error"), err);
        assert_eq!(
            decode_response(&encode_response(&Response::Pong)).expect("pong"),
            Response::Pong
        );
    }

    #[test]
    fn hit_values_past_u32_are_refused() {
        // 2^32 would narrow to 0: both fields refuse it, naming themselves.
        let hits = |pair: &str| {
            format!(r#"{{"type":"hits","id":1,"hits":[{pair}],"generation":0,"bundle":0}}"#)
        };
        for (field, pair) in [("distance", "[4294967296,1]"), ("index", "[1,4294967296]")] {
            let detail = decode_response(&hits(pair)).expect_err("past u32");
            assert!(detail.contains(field) && detail.contains("2^32"), "{detail}");
        }
        let max = decode_response(&hits("[4294967295,4294967295]")).expect("u32::MAX fits");
        let expected =
            Response::Hits { id: 1, hits: vec![(u32::MAX, u32::MAX)], generation: 0, bundle: 0 };
        assert_eq!(max, expected);
    }

    #[test]
    fn every_reason_round_trips() {
        for r in
            [Reason::Overloaded, Reason::DeadlineExceeded, Reason::Draining, Reason::BadRequest]
        {
            assert_eq!(Reason::from_str(r.as_str()), Some(r));
        }
        assert_eq!(Reason::from_str("nope"), None);
    }

    #[test]
    fn frame_reader_reassembles_split_and_batched_frames() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, "\"first\"").expect("vec write");
        write_frame(&mut bytes, "\"second\"").expect("vec write");
        let mut fr = FrameReader::new();
        // Feed one byte at a time: frames must pop exactly when complete.
        let mut seen = Vec::new();
        for &b in &bytes {
            fr.push_bytes(&[b]);
            while let Some(frame) = fr.next_frame().expect("valid stream") {
                seen.push(frame);
            }
        }
        assert_eq!(seen, vec!["\"first\"".to_string(), "\"second\"".to_string()]);
    }

    #[test]
    fn encode_frame_matches_write_frame_bytes() {
        let mut written = Vec::new();
        write_frame(&mut written, "{\"type\":\"pong\"}").expect("vec write");
        let encoded = encode_frame("{\"type\":\"pong\"}").expect("under cap");
        assert_eq!(encoded, written);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut fr = FrameReader::new();
        fr.push_bytes(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(fr.next_frame(), Err(ProtocolError::FrameTooLarge(MAX_FRAME + 1)));
        let mut sink = Vec::new();
        let huge = "x".repeat(MAX_FRAME + 1);
        assert!(write_frame(&mut sink, &huge).is_err());
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(decode_request("{").expect_err("bad json").contains("bad JSON"));
        assert!(decode_request("{\"type\":\"nope\"}").expect_err("type").contains("nope"));
        let missing = decode_request("{\"type\":\"query\",\"id\":1,\"top_k\":3}");
        assert!(missing.expect_err("features").contains("features"));
        // 2^53 + 1 would parse as 2^53 and 2^64 would saturate: both are
        // refused, naming the field and the limit.
        for (field, body) in [
            ("'id'", r#"{"type":"query","id":9007199254740993,"top_k":3,"features":[0.5]}"#),
            ("'top_k'", r#"{"type":"query","id":1,"top_k":18446744073709551616,"features":[0.5]}"#),
        ] {
            let detail = decode_request(body).expect_err("past 2^53");
            assert!(detail.contains(field) && detail.contains("2^53"), "{detail}");
        }
    }
}
