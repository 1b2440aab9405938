//! CI smoke tests driven against the real `uhscm` binary: a full
//! cross-process start → query → insert → remove → reload → drain cycle
//! for the online retrieval service ([`serve_smoke`]), and an out-of-core
//! build → info → verify cycle for the segment store ([`scale_smoke`]).
//!
//! The smoke stays std-only by speaking the wire protocol by hand (it is
//! four length bytes plus JSON) and discovering the model's input
//! dimension from the server's own structured `bad_request` response —
//! which conveniently also proves the error path carries machine-usable
//! detail.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Run the smoke; returns a human-readable error on any failure.
pub fn serve_smoke(root: &Path) -> Result<(), String> {
    let bundle = root.join("target/serve-smoke-bundle");
    // Keyed on the code store, so a bundle that predates it is retrained.
    if !bundle.join("segments.uhss").exists() {
        let status = Command::new("cargo")
            .args(["run", "-q", "--release", "-p", "uhscm", "--bin", "uhscm", "--"])
            .args(["train", "--out"])
            .arg(&bundle)
            .args(["--bits", "16", "--epochs", "2"])
            .args(["--train", "60", "--query", "15", "--database", "150"])
            .current_dir(root)
            .status()
            .map_err(|e| format!("cannot run `uhscm train`: {e}"))?;
        if !status.success() {
            return Err(format!("`uhscm train` failed: {status}"));
        }
    }

    let mut child = Command::new("cargo")
        .args(["run", "-q", "--release", "-p", "uhscm", "--bin", "uhscm", "--"])
        .args(["serve", "--bundle"])
        .arg(&bundle)
        .args(["--addr", "127.0.0.1:0"])
        .current_dir(root)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn `uhscm serve`: {e}"))?;

    let result = drive(&mut child, &bundle);
    if result.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    result
}

fn drive(child: &mut Child, bundle: &Path) -> Result<(), String> {
    let stdout = child.stdout.take().ok_or("child stdout not captured")?;
    let mut lines = BufReader::new(stdout);

    // The server prints `uhscm-serve listening on HOST:PORT (...)` once up.
    let mut banner = String::new();
    lines.read_line(&mut banner).map_err(|e| format!("reading serve banner: {e}"))?;
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| format!("no address in serve banner: {banner:?}"))?;

    let mut stream = TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to served address {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;

    // 1. Liveness.
    write_frame(&mut stream, "{\"type\":\"ping\"}")?;
    expect_contains(&read_frame(&mut stream)?, "\"pong\"", "ping")?;

    // 2. A wrong-dimension query must come back as a structured
    //    bad_request whose detail names the expected dimension.
    write_frame(&mut stream, "{\"type\":\"query\",\"id\":1,\"top_k\":3,\"features\":[0.5]}")?;
    let reject = read_frame(&mut stream)?;
    expect_contains(&reject, "\"bad_request\"", "wrong-dim query")?;
    let dim: usize = reject
        .split("expected ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no expected-dimension hint in rejection: {reject}"))?;

    // 3. A well-formed query returns hits.
    let features = vec!["0.25"; dim].join(",");
    write_frame(
        &mut stream,
        &format!("{{\"type\":\"query\",\"id\":2,\"top_k\":3,\"features\":[{features}]}}"),
    )?;
    let hits = read_frame(&mut stream)?;
    expect_contains(&hits, "\"hits\"", "well-formed query")?;

    // 4. Write path: the training database holds 150 codes (indices
    //    0..149), so the first insert must land at global index 150.
    write_frame(
        &mut stream,
        &format!("{{\"type\":\"insert\",\"id\":10,\"rows\":[[{features}]]}}"),
    )?;
    let receipt = read_frame(&mut stream)?;
    expect_contains(&receipt, "\"inserted\"", "insert receipt")?;
    expect_contains(&receipt, "\"committed_generation\":1", "insert commit")?;
    expect_contains(&receipt, "\"first_index\":150", "insert offset")?;

    // 5. The inserted row encodes the same features as the query, so a
    //    deep re-query must find item 150 at Hamming distance 0.
    write_frame(
        &mut stream,
        &format!("{{\"type\":\"query\",\"id\":11,\"top_k\":200,\"features\":[{features}]}}"),
    )?;
    let hits = read_frame(&mut stream)?;
    expect_contains(&hits, "[0,150]", "inserted item retrievable at distance 0")?;
    expect_contains(&hits, "\"generation\":1", "query pinned the committed generation")?;

    // 6. Remove it again: the receipt commits a new generation, and the
    //    same deep query no longer returns the tombstoned index.
    write_frame(&mut stream, "{\"type\":\"remove\",\"id\":12,\"index\":150}")?;
    let receipt = read_frame(&mut stream)?;
    expect_contains(&receipt, "\"removed\":true", "remove receipt")?;
    expect_contains(&receipt, "\"committed_generation\":2", "remove commit")?;
    write_frame(
        &mut stream,
        &format!("{{\"type\":\"query\",\"id\":13,\"top_k\":200,\"features\":[{features}]}}"),
    )?;
    let hits = read_frame(&mut stream)?;
    expect_contains(&hits, "\"hits\"", "post-remove query")?;
    expect_absent(&hits, ",150]", "tombstoned item must not be returned")?;

    // 7. Flush readback: 150 live of 151 total, still on bundle 0.
    write_frame(&mut stream, "{\"type\":\"flush\",\"id\":14}")?;
    let readback = read_frame(&mut stream)?;
    expect_contains(&readback, "\"flushed\"", "flush readback")?;
    expect_contains(&readback, "\"live\":150", "flush live count")?;
    expect_contains(&readback, "\"total\":151", "flush total count")?;

    // 8. Hot reload (the training bundle doubles as the reload source):
    //    version bumps to 1 and queries still answer afterwards.
    write_frame(
        &mut stream,
        &format!(
            "{{\"type\":\"reload\",\"id\":15,\"path\":\"{}\"}}",
            bundle.display().to_string().replace('\\', "/")
        ),
    )?;
    let reloaded = read_frame(&mut stream)?;
    expect_contains(&reloaded, "\"reloaded\"", "reload receipt")?;
    expect_contains(&reloaded, "\"bundle\":1", "reload version bump")?;
    write_frame(
        &mut stream,
        &format!("{{\"type\":\"query\",\"id\":16,\"top_k\":3,\"features\":[{features}]}}"),
    )?;
    let hits = read_frame(&mut stream)?;
    expect_contains(&hits, "\"hits\"", "post-reload query")?;
    expect_contains(&hits, "\"bundle\":1", "post-reload query reports the new bundle")?;

    // 9. Drain: closing stdin asks the server to shut down gracefully.
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => break,
            Ok(Some(status)) => return Err(format!("serve exited uncleanly: {status}")),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(None) => return Err("serve did not drain within 30s of stdin closing".into()),
            Err(e) => return Err(format!("waiting for serve: {e}")),
        }
    }
    let mut rest = String::new();
    lines.read_to_string(&mut rest).map_err(|e| format!("reading serve output: {e}"))?;
    expect_contains(&rest, "drained cleanly", "drain message")?;
    Ok(())
}

/// Out-of-core scale smoke: stream-build a 10k-item segment store with
/// the real `uhscm` binary (chunked so it lands in several segments),
/// verify and summarize it with `db info`, then let `db verify` prove the
/// store-backed index answers bitwise-identically to the in-memory index
/// at shard counts {1, 2, 4}.
pub fn scale_smoke(root: &Path) -> Result<(), String> {
    let store = root.join("target/scale-smoke-store");
    let _ = std::fs::remove_dir_all(&store);

    let uhscm = ["run", "-q", "--release", "-p", "uhscm", "--bin", "uhscm", "--"];
    let build = Command::new("cargo")
        .args(uhscm)
        .args(["db", "build", "--out"])
        .arg(&store)
        .args(["--items", "10000", "--bits", "32", "--dim", "32", "--chunk", "2500"])
        .args(["--seed", "7"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run `uhscm db build`: {e}"))?;
    if !build.status.success() {
        return Err(format!("`uhscm db build` failed: {}", String::from_utf8_lossy(&build.stderr)));
    }
    let built = String::from_utf8_lossy(&build.stdout);
    if !built.contains("10000 codes in 4 segments") {
        return Err(format!("db build: expected 10000 codes in 4 segments, got: {built}"));
    }

    let info = Command::new("cargo")
        .args(uhscm)
        .args(["db", "info", "--store"])
        .arg(&store)
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run `uhscm db info`: {e}"))?;
    let summary = String::from_utf8_lossy(&info.stdout);
    if !info.status.success() || !summary.contains("10000") || !summary.contains("checksums ok") {
        return Err(format!("db info: expected a verified 10000-code summary, got: {summary}"));
    }

    let verify = Command::new("cargo")
        .args(uhscm)
        .args(["db", "verify", "--store"])
        .arg(&store)
        .args(["--queries", "50", "--top", "10"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run `uhscm db verify`: {e}"))?;
    let verdict = String::from_utf8_lossy(&verify.stdout);
    if !verify.status.success() || !verdict.contains("bitwise-identical") {
        return Err(format!(
            "db verify: expected a bitwise-identical verdict, got: {verdict}{}",
            String::from_utf8_lossy(&verify.stderr)
        ));
    }

    let _ = std::fs::remove_dir_all(&store);
    Ok(())
}

fn write_frame(stream: &mut TcpStream, body: &str) -> Result<(), String> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body.as_bytes());
    stream.write_all(&frame).map_err(|e| format!("writing frame: {e}"))
}

fn read_frame(stream: &mut TcpStream) -> Result<String, String> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).map_err(|e| format!("reading frame length: {e}"))?;
    let len = u32::from_le_bytes(len) as usize;
    if len > (1 << 20) {
        return Err(format!("oversized frame ({len} bytes)"));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).map_err(|e| format!("reading frame body: {e}"))?;
    String::from_utf8(body).map_err(|_| "frame body is not UTF-8".into())
}

fn expect_contains(frame: &str, needle: &str, what: &str) -> Result<(), String> {
    if frame.contains(needle) {
        Ok(())
    } else {
        Err(format!("{what}: expected {needle} in response, got: {frame}"))
    }
}

fn expect_absent(frame: &str, needle: &str, what: &str) -> Result<(), String> {
    if frame.contains(needle) {
        Err(format!("{what}: unexpected {needle} in response: {frame}"))
    } else {
        Ok(())
    }
}
