//! The `uhscm` command-line tool: train, evaluate and query hashing models
//! over persisted artifacts.
//!
//! Because every dataset in this reproduction is synthesized
//! deterministically from a seed, a "model bundle" is three small files in
//! a directory:
//!
//! * `model.nn` — the hashing network ([`crate::nn::Mlp`] format),
//! * `db.codes` — bit-packed database codes ([`crate::eval::BitCodes`]),
//! * `meta.txt` — `key=value` lines recording the dataset recipe.
//!
//! Subcommands:
//!
//! ```text
//! uhscm train   --out DIR [--dataset cifar|nus|flickr] [--bits K]
//!               [--epochs N] [--seed S] [--train N --query N --database N]
//! uhscm eval    --bundle DIR          # MAP over the bundle's query split
//! uhscm query   --bundle DIR --id Q [--top K]
//! uhscm info    --bundle DIR
//! uhscm serve   --bundle DIR [--db-store DIR] [--addr HOST:PORT] [--shards N]
//!               [--max-batch N] [--queue-cap N]
//!               [--readonly true|false] [--max-top-k N]
//! uhscm db build  --out DIR [--items N] [--bits K] [--dim D] [--seed S]
//!                 [--chunk N] [--dataset cifar|nus|flickr]
//! uhscm db info   --store DIR
//! uhscm db verify --store DIR [--queries N] [--top K]
//! ```
//!
//! `serve` puts the bundle behind the `uhscm-serve` TCP front-end (sharded
//! Hamming index, batched encoding, admission control, and — unless
//! `--readonly true` — live `insert`/`remove`/`reload` mutations). It
//! prints the bound address, then drains gracefully when stdin closes —
//! which lets scripts and the CI smoke test drive a full start → mutate →
//! query → drain cycle without signals.
//!
//! The `db` family manages **out-of-core** code databases in the
//! `uhscm-store` segment format, sized beyond what a bundle's `db.codes`
//! comfortably holds: `db build` streams a synthetic database through a
//! randomly-initialized hashing network into `DIR/segments.uhss` in
//! bounded memory (one `--chunk` of latents at a time), `db info` verifies
//! and summarizes a store, and `db verify` proves the store-backed index
//! returns top-k hits bitwise-identical to the in-memory index. `serve
//! --db-store DIR` then serves straight from the store, one index band per
//! segment, without ever concatenating the database in memory.

use crate::core::pipeline::{Pipeline, SimilaritySource};
use crate::core::UhscmConfig;
use crate::data::{Dataset, DatasetConfig, DatasetKind, LatentStream};
use crate::eval::{mean_average_precision, top_k, BitCodes, HammingRanker};
use crate::nn::Mlp;
use crate::store::{store_path, StoreError, StoreReader, StoreWriter};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Train(TrainArgs),
    Eval { bundle: PathBuf },
    Query { bundle: PathBuf, id: usize, top: usize },
    Info { bundle: PathBuf },
    Serve(ServeArgs),
    DbBuild(DbBuildArgs),
    DbInfo { store: PathBuf },
    DbVerify { store: PathBuf, queries: usize, top: usize },
    Help,
}

/// Arguments of `uhscm serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    pub bundle: PathBuf,
    /// Serve the database from an `uhscm-store` segment store directory
    /// instead of the bundle's `db.codes` (the bundle still provides the
    /// model). One index band per on-disk segment.
    pub db_store: Option<PathBuf>,
    pub addr: String,
    pub shards: usize,
    pub max_batch: usize,
    pub queue_cap: usize,
    /// Refuse the write path (`insert`/`remove`/`reload`) at the protocol
    /// layer while still answering queries.
    pub readonly: bool,
    /// Largest `top_k` a query frame may request before it is refused
    /// `bad_request` (see [`uhscm_serve::ServeConfig::max_top_k`]).
    pub max_top_k: usize,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let config = uhscm_serve::ServeConfig::default();
        Self {
            bundle: PathBuf::from("uhscm-bundle"),
            db_store: None,
            addr: config.addr,
            shards: 2,
            max_batch: config.max_batch,
            queue_cap: config.queue_cap,
            readonly: !config.writable,
            max_top_k: config.max_top_k,
        }
    }
}

/// Arguments of `uhscm train`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    pub out: PathBuf,
    pub dataset: DatasetKind,
    pub bits: usize,
    pub epochs: usize,
    pub seed: u64,
    pub n_train: usize,
    pub n_query: usize,
    pub n_database: usize,
}

impl Default for TrainArgs {
    fn default() -> Self {
        Self {
            out: PathBuf::from("uhscm-bundle"),
            dataset: DatasetKind::Cifar10Like,
            bits: 64,
            epochs: 30,
            seed: 42,
            n_train: 800,
            n_query: 200,
            n_database: 2_400,
        }
    }
}

/// Arguments of `uhscm db build`.
#[derive(Debug, Clone, PartialEq)]
pub struct DbBuildArgs {
    /// Output directory; receives `model.nn`, `segments.uhss`, `store.meta`.
    pub out: PathBuf,
    pub dataset: DatasetKind,
    /// Database items to generate, encode, and store.
    pub items: usize,
    pub bits: usize,
    /// Latent feature dimension (the hashing network's input width).
    pub dim: usize,
    pub seed: u64,
    /// Items generated and encoded per streaming chunk — the memory
    /// high-water mark, independent of `items`.
    pub chunk: usize,
}

impl Default for DbBuildArgs {
    fn default() -> Self {
        Self {
            out: PathBuf::from("uhscm-db"),
            dataset: DatasetKind::Cifar10Like,
            items: 10_000,
            bits: 64,
            dim: 64,
            seed: 42,
            chunk: 65_536,
        }
    }
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Io(std::io::Error),
    Corrupt(String),
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Corrupt(msg) => write!(f, "artifact error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The help text.
pub const USAGE: &str = "\
uhscm — unsupervised hashing with semantic concept mining

USAGE:
  uhscm train --out DIR [--dataset cifar|nus|flickr] [--bits K]
              [--epochs N] [--seed S] [--train N --query N --database N]
  uhscm eval  --bundle DIR
  uhscm query --bundle DIR --id QUERY_INDEX [--top K]
  uhscm info  --bundle DIR
  uhscm serve --bundle DIR [--db-store DIR] [--addr HOST:PORT] [--shards N]
              [--max-batch N] [--queue-cap N]
              [--readonly true|false] [--max-top-k N]
  uhscm db build  --out DIR [--items N] [--bits K] [--dim D] [--seed S]
                  [--chunk N] [--dataset cifar|nus|flickr]
  uhscm db info   --store DIR
  uhscm db verify --store DIR [--queries N] [--top K]

`db build` streams an `--items`-sized synthetic database through a seeded
hashing network into the checksummed `uhscm-store` segment format, holding
only `--chunk` items in memory at a time; `serve --db-store DIR` serves it
with one index band per segment, and `db verify` proves the store-backed
top-k matches the in-memory index bit for bit.

GLOBAL FLAGS:
  --trace-out FILE   write a JSON-lines telemetry trace to FILE and print a
                     metric summary (equivalent to UHSCM_OBS=FILE)
";

/// A full CLI invocation: the subcommand plus global flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    pub command: Command,
    /// `--trace-out FILE`: enable `uhscm-obs` tracing to `FILE`.
    pub trace_out: Option<PathBuf>,
}

/// Parse argv, extracting the global `--trace-out FILE` flag (accepted
/// anywhere on the command line) and parsing the rest as a [`Command`].
pub fn parse_invocation(args: &[String]) -> Result<Invocation, CliError> {
    let mut trace_out = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace-out" {
            let v = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage("--trace-out needs a file path".into()))?;
            trace_out = Some(PathBuf::from(v));
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    Ok(Invocation { command: parse(&rest)?, trace_out })
}

/// Execute a full invocation: enable tracing if requested, run the command,
/// and append the telemetry summary when tracing was active (whether via
/// `--trace-out` or the `UHSCM_OBS` environment variable).
pub fn run_invocation(inv: &Invocation) -> Result<String, CliError> {
    if let Some(path) = &inv.trace_out {
        uhscm_obs::enable_to_file(path)?;
    }
    let mut out = run(&inv.command)?;
    if let Some(summary) = uhscm_obs::finish() {
        out.push_str(&summary);
    }
    Ok(out)
}

/// Parse a CLI argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut rest: Vec<&String> = it.collect();
    // `db` takes a nested action as a second positional before the flags.
    let mut db_action = "";
    if sub == "db" {
        match rest.first() {
            Some(a) if !a.starts_with("--") => db_action = rest.remove(0).as_str(),
            _ => {
                return Err(CliError::Usage(
                    "db needs an action: db build|info|verify [--flags]".into(),
                ))
            }
        }
    }
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError::Usage(format!("expected --flag, got '{}'", rest[i])))?;
        let value =
            rest.get(i + 1).ok_or_else(|| CliError::Usage(format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), value.to_string());
        i += 2;
    }
    let bundle = |flags: &BTreeMap<String, String>| -> Result<PathBuf, CliError> {
        flags
            .get("bundle")
            .map(PathBuf::from)
            .ok_or_else(|| CliError::Usage("--bundle DIR is required".into()))
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "train" => {
            let mut t = TrainArgs::default();
            for (k, v) in &flags {
                match k.as_str() {
                    "out" => t.out = PathBuf::from(v),
                    "dataset" => t.dataset = parse_dataset(v)?,
                    "bits" => t.bits = parse_num(k, v)?,
                    "epochs" => t.epochs = parse_num(k, v)?,
                    "seed" => t.seed = parse_num(k, v)? as u64,
                    "train" => t.n_train = parse_num(k, v)?,
                    "query" => t.n_query = parse_num(k, v)?,
                    "database" => t.n_database = parse_num(k, v)?,
                    other => return Err(CliError::Usage(format!("unknown flag --{other}"))),
                }
            }
            Ok(Command::Train(t))
        }
        "eval" => Ok(Command::Eval { bundle: bundle(&flags)? }),
        "query" => {
            let id = flags
                .get("id")
                .ok_or_else(|| CliError::Usage("--id QUERY_INDEX is required".into()))
                .and_then(|v| parse_num("id", v))?;
            let top = match flags.get("top") {
                Some(v) => parse_num("top", v)?,
                None => 10,
            };
            Ok(Command::Query { bundle: bundle(&flags)?, id, top })
        }
        "info" => Ok(Command::Info { bundle: bundle(&flags)? }),
        "serve" => {
            let mut s = ServeArgs { bundle: bundle(&flags)?, ..ServeArgs::default() };
            for (k, v) in &flags {
                match k.as_str() {
                    "bundle" => {}
                    "db-store" => s.db_store = Some(PathBuf::from(v)),
                    "addr" => s.addr = v.clone(),
                    "shards" => s.shards = parse_num(k, v)?,
                    "max-batch" => s.max_batch = parse_num(k, v)?,
                    "queue-cap" => s.queue_cap = parse_num(k, v)?,
                    "readonly" => s.readonly = parse_bool(k, v)?,
                    "max-top-k" => s.max_top_k = parse_num(k, v)?,
                    other => return Err(CliError::Usage(format!("unknown flag --{other}"))),
                }
            }
            Ok(Command::Serve(s))
        }
        "db" => {
            let store = |flags: &BTreeMap<String, String>| -> Result<PathBuf, CliError> {
                flags
                    .get("store")
                    .map(PathBuf::from)
                    .ok_or_else(|| CliError::Usage("--store DIR is required".into()))
            };
            match db_action {
                "build" => {
                    let mut b = DbBuildArgs::default();
                    for (k, v) in &flags {
                        match k.as_str() {
                            "out" => b.out = PathBuf::from(v),
                            "dataset" => b.dataset = parse_dataset(v)?,
                            "items" => b.items = parse_num(k, v)?,
                            "bits" => b.bits = parse_num(k, v)?,
                            "dim" => b.dim = parse_num(k, v)?,
                            "seed" => b.seed = parse_num(k, v)? as u64,
                            "chunk" => b.chunk = parse_num(k, v)?,
                            other => {
                                return Err(CliError::Usage(format!("unknown flag --{other}")))
                            }
                        }
                    }
                    Ok(Command::DbBuild(b))
                }
                "info" => {
                    for k in flags.keys() {
                        if k != "store" {
                            return Err(CliError::Usage(format!("unknown flag --{k}")));
                        }
                    }
                    Ok(Command::DbInfo { store: store(&flags)? })
                }
                "verify" => {
                    let mut queries = 25;
                    let mut top = 10;
                    for (k, v) in &flags {
                        match k.as_str() {
                            "store" => {}
                            "queries" => queries = parse_num(k, v)?,
                            "top" => top = parse_num(k, v)?,
                            other => {
                                return Err(CliError::Usage(format!("unknown flag --{other}")))
                            }
                        }
                    }
                    Ok(Command::DbVerify { store: store(&flags)?, queries, top })
                }
                other => Err(CliError::Usage(format!(
                    "unknown db action '{other}' (expected build|info|verify)"
                ))),
            }
        }
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}

fn parse_dataset(v: &str) -> Result<DatasetKind, CliError> {
    match v.to_lowercase().as_str() {
        "cifar" | "cifar10" => Ok(DatasetKind::Cifar10Like),
        "nus" | "nuswide" | "nus-wide" => Ok(DatasetKind::NusWideLike),
        "flickr" | "mirflickr" => Ok(DatasetKind::FlickrLike),
        other => {
            Err(CliError::Usage(format!("unknown dataset '{other}' (expected cifar|nus|flickr)")))
        }
    }
}

fn parse_num(key: &str, v: &str) -> Result<usize, CliError> {
    v.parse::<usize>().map_err(|_| CliError::Usage(format!("--{key} expects a number, got '{v}'")))
}

/// Every flag takes a value, so booleans are spelled out explicitly
/// (`--readonly true`) rather than by bare presence.
fn parse_bool(key: &str, v: &str) -> Result<bool, CliError> {
    match v {
        "true" | "1" | "yes" => Ok(true),
        "false" | "0" | "no" => Ok(false),
        other => Err(CliError::Usage(format!("--{key} expects true|false, got '{other}'"))),
    }
}

/// Execute a command, writing human-readable output into a string
/// (separated from `main` so the logic is unit-testable).
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Train(args) => run_train(args),
        Command::Eval { bundle } => run_eval(bundle),
        Command::Query { bundle, id, top } => run_query(bundle, *id, *top),
        Command::Info { bundle } => run_info(bundle),
        Command::Serve(args) => run_serve(args),
        Command::DbBuild(args) => run_db_build(args),
        Command::DbInfo { store } => run_db_info(store),
        Command::DbVerify { store, queries, top } => run_db_verify(store, *queries, *top),
    }
}

/// Store errors keep their i/o flavor; format violations surface as
/// corruption (same split `Mlp::load` failures get via [`CliError`]).
fn store_err(e: StoreError) -> CliError {
    match e {
        StoreError::Io(io) => CliError::Io(io),
        other => CliError::Corrupt(other.to_string()),
    }
}

fn dataset_from_meta(meta: &BTreeMap<String, String>) -> Result<(Dataset, u64), CliError> {
    let get =
        |k: &str| meta.get(k).ok_or_else(|| CliError::Corrupt(format!("meta.txt missing '{k}'")));
    let kind = parse_dataset(get("dataset")?)?;
    let parse_field = |k: &str| -> Result<usize, CliError> {
        get(k)?
            .parse::<usize>()
            .map_err(|_| CliError::Corrupt(format!("meta.txt field '{k}' is not a number")))
    };
    let seed = parse_field("seed")? as u64;
    let config = DatasetConfig {
        n_train: parse_field("n_train")?,
        n_query: parse_field("n_query")?,
        n_database: parse_field("n_database")?,
        ..DatasetConfig::default()
    };
    Ok((Dataset::generate(kind, &config, seed), seed))
}

fn run_train(args: &TrainArgs) -> Result<String, CliError> {
    let config = DatasetConfig {
        n_train: args.n_train,
        n_query: args.n_query,
        n_database: args.n_database,
        ..DatasetConfig::default()
    };
    let dataset = Dataset::generate(args.dataset, &config, args.seed);
    let pipeline = Pipeline::new(&dataset, args.seed);
    let uhscm = UhscmConfig {
        bits: args.bits,
        epochs: args.epochs,
        ..UhscmConfig::for_dataset(args.dataset)
    };
    let model = pipeline.train(&SimilaritySource::default(), &uhscm);
    let db_codes = pipeline.encode_items(&model, &dataset.split.database);

    fs::create_dir_all(&args.out)?;
    let mut net_file = fs::File::create(args.out.join("model.nn"))?;
    model.network().save(&mut net_file).map_err(CliError::Io)?;
    let mut codes_file = fs::File::create(args.out.join("db.codes"))?;
    db_codes.save(&mut codes_file)?;
    let meta = format!(
        "dataset={}\nbits={}\nepochs={}\nseed={}\nn_train={}\nn_query={}\nn_database={}\n",
        match args.dataset {
            DatasetKind::Cifar10Like => "cifar",
            DatasetKind::NusWideLike => "nus",
            DatasetKind::FlickrLike => "flickr",
        },
        args.bits,
        args.epochs,
        args.seed,
        args.n_train,
        args.n_query,
        args.n_database
    );
    fs::write(args.out.join("meta.txt"), meta)?;
    Ok(format!(
        "trained {}-bit UHSCM on {} ({} train items), bundle written to {}\n",
        args.bits,
        args.dataset.name(),
        args.n_train,
        args.out.display()
    ))
}

fn read_meta(bundle: &Path) -> Result<BTreeMap<String, String>, CliError> {
    let raw = fs::read_to_string(bundle.join("meta.txt"))?;
    let mut meta = BTreeMap::new();
    for line in raw.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| CliError::Corrupt(format!("bad meta line '{line}'")))?;
        meta.insert(k.to_string(), v.to_string());
    }
    Ok(meta)
}

struct Bundle {
    dataset: Dataset,
    network: Mlp,
    db_codes: BitCodes,
    seed: u64,
}

fn load_bundle(bundle: &Path) -> Result<Bundle, CliError> {
    let meta = read_meta(bundle)?;
    let (dataset, seed) = dataset_from_meta(&meta)?;
    let mut net_file = fs::File::open(bundle.join("model.nn"))?;
    let network =
        Mlp::load(&mut net_file).map_err(|e| CliError::Corrupt(format!("model.nn: {e}")))?;
    let mut codes_file = fs::File::open(bundle.join("db.codes"))?;
    let db_codes = BitCodes::load(&mut codes_file)?;
    if db_codes.len() != dataset.split.database.len() {
        return Err(CliError::Corrupt(format!(
            "db.codes has {} codes but the dataset recipe yields {} database items",
            db_codes.len(),
            dataset.split.database.len()
        )));
    }
    Ok(Bundle { dataset, network, db_codes, seed })
}

fn query_codes(bundle: &Bundle) -> BitCodes {
    let pipeline = Pipeline::new(&bundle.dataset, bundle.seed);
    BitCodes::from_real(&bundle.network.infer(&pipeline.features_of(&bundle.dataset.split.query)))
}

fn run_eval(path: &Path) -> Result<String, CliError> {
    let bundle = load_bundle(path)?;
    let queries = query_codes(&bundle);
    let ranker = HammingRanker::new(bundle.db_codes.clone());
    let ds = &bundle.dataset;
    let rel = |qi: usize, di: usize| {
        crate::data::share_label(&ds.labels[ds.split.query[qi]], &ds.labels[ds.split.database[di]])
    };
    let map = mean_average_precision(&ranker, &queries, &rel, ds.split.database.len());
    Ok(format!(
        "{} | {} bits | {} queries vs {} database items | MAP {:.4}\n",
        ds.kind.name(),
        bundle.db_codes.bits(),
        queries.len(),
        bundle.db_codes.len(),
        map
    ))
}

fn run_query(path: &Path, id: usize, top: usize) -> Result<String, CliError> {
    let bundle = load_bundle(path)?;
    let queries = query_codes(&bundle);
    if id >= queries.len() {
        return Err(CliError::Usage(format!(
            "query index {id} out of range (bundle has {} queries)",
            queries.len()
        )));
    }
    let ds = &bundle.dataset;
    let ranker = HammingRanker::new(bundle.db_codes.clone());
    let rel = |qi: usize, di: usize| {
        crate::data::share_label(&ds.labels[ds.split.query[qi]], &ds.labels[ds.split.database[di]])
    };
    let labels_of = |item: usize| -> String {
        ds.labels[item].iter().map(|&c| ds.class_names[c].clone()).collect::<Vec<_>>().join("+")
    };
    let mut out =
        format!("query {id} labels [{}], top-{top} neighbours:\n", labels_of(ds.split.query[id]));
    for hit in top_k(&ranker, &queries, id, &rel, top) {
        writeln!(
            out,
            "  d={:>3}  db[{:>6}]  [{}] {}",
            hit.distance,
            hit.index,
            labels_of(ds.split.database[hit.index]),
            if hit.relevant { "✓" } else { "✗" }
        )
        .expect("writing to string cannot fail");
    }
    Ok(out)
}

/// Serve a bundle over TCP until stdin closes, then drain gracefully.
///
/// Unlike the offline subcommands this one only needs `model.nn` and the
/// code database — `db.codes`, or with `--db-store DIR` an `uhscm-store`
/// segment store streamed in segment by segment. The dataset recipe is not
/// regenerated, so startup is fast even for large databases. The bound address is printed (and flushed)
/// immediately so scripts driving a piped child can discover the ephemeral
/// port; the quiescent "close stdin to stop" loop doubles as the drain
/// trigger for the CI smoke test.
fn run_serve(args: &ServeArgs) -> Result<String, CliError> {
    use std::io::Write as _;

    let mut net_file = fs::File::open(args.bundle.join("model.nn"))?;
    let network =
        Mlp::load(&mut net_file).map_err(|e| CliError::Corrupt(format!("model.nn: {e}")))?;
    let engine = match &args.db_store {
        // Store-backed: stream segments straight into index bands (one
        // band per segment) without concatenating the database in memory.
        Some(dir) => {
            let mut reader = StoreReader::open(&store_path(dir)).map_err(store_err)?;
            let mut genesis = uhscm_serve::GenesisBuilder::new(reader.bits());
            while let Some(segment) = reader.next_segment().map_err(store_err)? {
                genesis.push(segment);
            }
            uhscm_serve::Engine::with_vocab_index(network, Vec::new(), genesis.finish())
                .map_err(|e| CliError::Corrupt(e.to_string()))?
        }
        None => {
            let mut codes_file = fs::File::open(args.bundle.join("db.codes"))?;
            let db_codes = BitCodes::load(&mut codes_file)?;
            uhscm_serve::Engine::new(network, &db_codes, args.shards)
                .map_err(|e| CliError::Corrupt(e.to_string()))?
        }
    };
    let (num_shards, db_len, db_bits) = (engine.num_shards(), engine.db_len(), engine.bits());
    let config = uhscm_serve::ServeConfig {
        addr: args.addr.clone(),
        max_batch: args.max_batch,
        queue_cap: args.queue_cap,
        writable: !args.readonly,
        max_top_k: args.max_top_k,
    };
    let server = uhscm_serve::Server::start(engine, &config).map_err(|e| match e {
        uhscm_serve::ServeError::Io(io) => CliError::Io(io),
        other => CliError::Corrupt(other.to_string()),
    })?;

    // Printed (not returned) so a parent process can read the ephemeral
    // port while the server is still running; flush because a piped stdout
    // is block-buffered.
    println!(
        "uhscm-serve listening on {} ({} shards, {} codes, {} bits, {}; close stdin to drain)",
        server.local_addr(),
        num_shards,
        db_len,
        db_bits,
        if args.readonly { "read-only" } else { "writable" }
    );
    std::io::stdout().flush()?;

    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    server.shutdown();
    Ok("uhscm-serve: drained cleanly\n".to_string())
}

fn run_info(path: &Path) -> Result<String, CliError> {
    let bundle = load_bundle(path)?;
    Ok(format!(
        "bundle: {}\n  dataset   : {}\n  bits      : {}\n  database  : {} codes\n  queries   : {}\n  network   : {} parameters\n",
        path.display(),
        bundle.dataset.kind.name(),
        bundle.db_codes.bits(),
        bundle.db_codes.len(),
        bundle.dataset.split.query.len(),
        bundle.network.param_count()
    ))
}

/// `db build`: stream-generate an `items`-sized database and encode it
/// into a segment store, never holding more than one `chunk` of latents
/// (plus one chunk's codes) in memory. The model is freshly initialized
/// from the seed and saved alongside the store so `serve --db-store` and
/// future queries encode with the exact network that built the database.
fn run_db_build(args: &DbBuildArgs) -> Result<String, CliError> {
    for (flag, v) in [("items", args.items), ("bits", args.bits), ("dim", args.dim)] {
        if v == 0 {
            return Err(CliError::Usage(format!("--{flag} must be at least 1")));
        }
    }
    let chunk = args.chunk.max(1);
    let started = std::time::Instant::now();

    let mut rng = crate::linalg::rng::seeded(args.seed);
    let hidden = [args.dim.div_ceil(2).max(1)];
    let model = Mlp::hashing_network(args.dim, &hidden, args.bits, &mut rng);
    fs::create_dir_all(&args.out)?;
    let mut net_file = fs::File::create(args.out.join("model.nn"))?;
    model.save(&mut net_file)?;

    let config = DatasetConfig { latent_dim: args.dim, ..DatasetConfig::default() };
    let mut stream = LatentStream::new(args.dataset, &config, args.items, args.seed);
    let mut writer = StoreWriter::create(&store_path(&args.out), args.bits).map_err(store_err)?;
    while let Some(batch) = stream.next_chunk(chunk) {
        writer.append(&BitCodes::from_real(&model.infer(&batch.latents))).map_err(store_err)?;
    }
    let summary = writer.finish().map_err(store_err)?;

    let meta = format!(
        "dataset={}\nitems={}\nbits={}\ndim={}\nseed={}\nchunk={}\n",
        args.dataset.name(),
        args.items,
        args.bits,
        args.dim,
        args.seed,
        chunk
    );
    fs::write(args.out.join("store.meta"), meta)?;

    let rate = summary.codes as f64 / started.elapsed().as_secs_f64().max(1e-9);
    Ok(format!(
        "built {}-bit store: {} codes in {} segments ({} payload bytes, {:.0} items/sec) -> {}\n",
        args.bits,
        summary.codes,
        summary.segments,
        summary.bytes,
        rate,
        args.out.display()
    ))
}

/// `db info`: verify every checksum by streaming the whole store through
/// the bounded-memory reader, then summarize it (with the build recipe
/// when a `store.meta` sits next to the segments).
fn run_db_info(store: &Path) -> Result<String, CliError> {
    let path = store_path(store);
    let mut reader = StoreReader::open(&path).map_err(store_err)?;
    let mut out = format!(
        "store: {}\n  bits      : {}\n  codes     : {}\n  segments  : {}\n",
        path.display(),
        reader.bits(),
        reader.len(),
        reader.segment_count()
    );
    let mut codes = 0usize;
    let mut largest = 0usize;
    while let Some(segment) = reader.next_segment().map_err(store_err)? {
        codes += segment.len();
        largest = largest.max(segment.len());
    }
    let _ =
        writeln!(out, "  verified  : {codes} codes, all checksums ok (largest segment {largest})");
    if let Ok(meta) = fs::read_to_string(store.join("store.meta")) {
        let recipe: Vec<&str> = meta.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        let _ = writeln!(out, "  recipe    : {}", recipe.join(" "));
    }
    Ok(out)
}

/// `db verify`: prove the store-backed genesis index (one band per on-disk
/// segment) returns hits bitwise-identical to an in-memory
/// [`uhscm_serve::ShardedIndex`] over the concatenated codes, at shard
/// counts 1, 2 and 4, using the store's own first codes as self-queries.
fn run_db_verify(store: &Path, queries: usize, top: usize) -> Result<String, CliError> {
    let path = store_path(store);
    let mut reader = StoreReader::open(&path).map_err(store_err)?;
    let mut genesis = uhscm_serve::GenesisBuilder::new(reader.bits());
    while let Some(segment) = reader.next_segment().map_err(store_err)? {
        genesis.push(segment);
    }
    let segments = genesis.num_segments();
    let store_index = genesis.finish();

    // Second pass: the oracle — everything concatenated in memory.
    let reader = StoreReader::open(&path).map_err(store_err)?;
    let full = reader.read_all().map_err(store_err)?;
    if full.is_empty() {
        return Ok(format!("store {} is empty; nothing to verify\n", path.display()));
    }
    let nq = queries.clamp(1, full.len());
    let top = top.clamp(1, full.len());
    let probes = full.slice(0..nq);
    for shards in [1usize, 2, 4] {
        let mem_index = uhscm_serve::ShardedIndex::new(&full, shards);
        for qi in 0..nq {
            let got = store_index.search(&probes, qi, top);
            let want = mem_index.search(&probes, qi, top);
            if got != want {
                return Err(CliError::Corrupt(format!(
                    "store-backed top-{top} diverges from the in-memory index at \
                     query {qi} with {shards} shards ({} segments)",
                    segments
                )));
            }
        }
    }
    Ok(format!(
        "store {}: {} codes in {} segments; store-backed top-{top} bitwise-identical \
         to the in-memory index (shards 1/2/4, {nq} self-queries)\n",
        path.display(),
        full.len(),
        segments
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_train_with_defaults_and_overrides() {
        let cmd = parse(&argv(&["train", "--out", "/tmp/x", "--bits", "32", "--dataset", "nus"]))
            .unwrap();
        match cmd {
            Command::Train(t) => {
                assert_eq!(t.out, PathBuf::from("/tmp/x"));
                assert_eq!(t.bits, 32);
                assert_eq!(t.dataset, DatasetKind::NusWideLike);
                assert_eq!(t.epochs, TrainArgs::default().epochs);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_unknown_flags_and_commands() {
        assert!(matches!(parse(&argv(&["train", "--nope", "1"])), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv(&["frobnicate"])), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv(&["train", "--bits", "lots"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv(&["query", "--bundle", "x"])), // missing --id
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_serve_with_defaults_and_overrides() {
        let cmd = parse(&argv(&[
            "serve",
            "--bundle",
            "/tmp/b",
            "--addr",
            "127.0.0.1:9000",
            "--shards",
            "4",
            "--max-batch",
            "3",
            "--readonly",
            "true",
            "--max-top-k",
            "64",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.bundle, PathBuf::from("/tmp/b"));
                assert_eq!(s.addr, "127.0.0.1:9000");
                assert_eq!(s.shards, 4);
                assert_eq!(s.max_batch, 3);
                assert_eq!(s.queue_cap, ServeArgs::default().queue_cap);
                assert!(s.readonly);
                assert_eq!(s.max_top_k, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Writable is the default; booleans must be spelled out.
        assert!(!ServeArgs::default().readonly);
        assert!(matches!(
            parse(&argv(&["serve", "--bundle", "b", "--readonly", "maybe"])),
            Err(CliError::Usage(_))
        ));
        // --bundle is mandatory; unknown flags are rejected, including
        // --max-wait-ms (batching has no window to set).
        assert!(matches!(parse(&argv(&["serve"])), Err(CliError::Usage(_))));
        for flag in ["--nope", "--max-wait-ms"] {
            assert!(matches!(
                parse(&argv(&["serve", "--bundle", "b", flag, "1"])),
                Err(CliError::Usage(_))
            ));
        }
    }

    #[test]
    fn parse_db_actions_with_defaults_and_overrides() {
        let cmd = parse(&argv(&[
            "db", "build", "--out", "/tmp/s", "--items", "500", "--bits", "16", "--dim", "8",
            "--chunk", "200", "--seed", "7",
        ]))
        .unwrap();
        match cmd {
            Command::DbBuild(b) => {
                assert_eq!(b.out, PathBuf::from("/tmp/s"));
                assert_eq!((b.items, b.bits, b.dim, b.chunk, b.seed), (500, 16, 8, 200, 7));
                assert_eq!(b.dataset, DbBuildArgs::default().dataset);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&argv(&["db", "info", "--store", "/tmp/s"])).unwrap(),
            Command::DbInfo { store: PathBuf::from("/tmp/s") }
        );
        assert_eq!(
            parse(&argv(&["db", "verify", "--store", "/tmp/s", "--queries", "9"])).unwrap(),
            Command::DbVerify { store: PathBuf::from("/tmp/s"), queries: 9, top: 10 }
        );
        // The action is a mandatory positional; flags and stores are checked.
        assert!(matches!(parse(&argv(&["db"])), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv(&["db", "--store", "x"])), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv(&["db", "shrink"])), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv(&["db", "info"])), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv(&["db", "build", "--nope", "1"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_serve_db_store_flag() {
        let cmd = parse(&argv(&["serve", "--bundle", "b", "--db-store", "/tmp/s"])).unwrap();
        match cmd {
            Command::Serve(s) => assert_eq!(s.db_store, Some(PathBuf::from("/tmp/s"))),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ServeArgs::default().db_store, None);
    }

    #[test]
    fn db_build_info_verify_round_trip() {
        let dir = std::env::temp_dir().join(format!("uhscm-cli-db-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let args = DbBuildArgs {
            out: dir.clone(),
            items: 600,
            bits: 16,
            dim: 8,
            chunk: 250, // 600 items -> segments of 250/250/100
            ..DbBuildArgs::default()
        };
        let msg = run(&Command::DbBuild(args)).unwrap();
        assert!(msg.contains("600 codes in 3 segments"), "{msg}");
        assert!(dir.join("model.nn").exists() && dir.join("store.meta").exists());

        let info = run(&Command::DbInfo { store: dir.clone() }).unwrap();
        assert!(info.contains("codes     : 600"), "{info}");
        assert!(info.contains("all checksums ok"), "{info}");
        assert!(info.contains("items=600"), "{info}");

        let verify = run(&Command::DbVerify { store: dir.clone(), queries: 40, top: 12 }).unwrap();
        assert!(verify.contains("bitwise-identical"), "{verify}");
        assert!(verify.contains("3 segments"), "{verify}");

        // Rebuilding with the same recipe is byte-identical (stream +
        // model are both seed-deterministic).
        let dir2 = std::env::temp_dir().join(format!("uhscm-cli-db2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir2);
        let args2 = DbBuildArgs {
            out: dir2.clone(),
            items: 600,
            bits: 16,
            dim: 8,
            chunk: 250,
            ..DbBuildArgs::default()
        };
        run(&Command::DbBuild(args2)).unwrap();
        assert_eq!(
            fs::read(store_path(&dir)).unwrap(),
            fs::read(store_path(&dir2)).unwrap(),
            "db build must be deterministic in its recipe"
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn db_info_on_missing_store_is_io_error() {
        let missing = PathBuf::from("/definitely/not/here");
        assert!(matches!(run(&Command::DbInfo { store: missing }), Err(CliError::Io(_))));
    }

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse(&argv(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&argv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&argv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn train_eval_query_info_round_trip() {
        let dir = std::env::temp_dir().join(format!("uhscm-cli-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let args = TrainArgs {
            out: dir.clone(),
            bits: 16,
            epochs: 3,
            n_train: 80,
            n_query: 20,
            n_database: 200,
            ..TrainArgs::default()
        };
        let msg = run(&Command::Train(args)).unwrap();
        assert!(msg.contains("bundle written"));

        let info = run(&Command::Info { bundle: dir.clone() }).unwrap();
        assert!(info.contains("16"), "{info}");
        assert!(info.contains("200 codes"), "{info}");

        let eval = run(&Command::Eval { bundle: dir.clone() }).unwrap();
        assert!(eval.contains("MAP"), "{eval}");

        let query = run(&Command::Query { bundle: dir.clone(), id: 0, top: 5 }).unwrap();
        assert_eq!(query.matches("d=").count(), 5, "{query}");

        // Out-of-range query id is a usage error.
        assert!(matches!(
            run(&Command::Query { bundle: dir.clone(), id: 999, top: 5 }),
            Err(CliError::Usage(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_on_missing_bundle_is_io_error() {
        let missing = PathBuf::from("/definitely/not/here");
        assert!(matches!(run(&Command::Eval { bundle: missing }), Err(CliError::Io(_))));
    }

    #[test]
    fn corrupt_meta_is_detected() {
        let dir = std::env::temp_dir().join(format!("uhscm-cli-meta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.txt"), "this is not key value\n").unwrap();
        assert!(matches!(run(&Command::Info { bundle: dir.clone() }), Err(CliError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
