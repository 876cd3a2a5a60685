//! Owner round-trip load generator for the `proteus-serve` daemon.
//!
//! One process plays every model owner: it trains the sentinel generator,
//! saves the `PRTA` artifact, starts the real daemon binary on it and
//! drives closed-loop requests over loopback. One request is everything
//! the owner waits for: `obfuscate_session`, every `next_frame` and
//! `to_mux_bytes`, `NetClient::connect` and `run_request`, every
//! `accept_mux_bytes` and `DeobfuscationSession::finish`.
//!
//! ```text
//! perfbench-load --workload structure-zoo --seed 1 --seconds 8 --trace 0 \
//!     --serve-bin PATH --work-dir DIR [--part K/N]
//! ```
//!
//! `--part K/N` makes this process part K of a run split over N
//! processes, each serving its own stretch of the request streams.
//!
//! Before the window an untimed warm-up fills the daemon's
//! `OptimizedCache` to capacity, so the window measures a daemon in its
//! steady state: cache full, FIFO eviction running.
//!
//! The last line of stdout is one JSON object of raw measurements
//! (latency samples per class, counters, per-layer sums); `run.py` turns
//! it into the benchmark's metrics. The correctness gate runs after the
//! measured window; any mismatch exits nonzero.
//!
//! With `--trace 1` the window is split: the first half times every
//! layer call from the outside and replays
//! the daemon's server-side layers (decode, cache, optimize, re-encode)
//! on the same frames after each request, outside its timed span; the
//! second half runs untraced, for the tracing overhead.

use bytes::Bytes;
use proteus::{
    derive_member_seed, splitmix64, Bucket, BucketMember, DeobfuscationSession, ObfuscationSecrets,
    OptimizedCache, PartitionSpec, Proteus, ProteusBuilder, ProteusConfig, SealedBucket,
};
use proteus_graph::{infer_shapes, Executor, Graph, Op, Tensor, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, zoo, ModelKind};
use proteus_net::{NetClient, NetError};
use proteus_opt::{Optimizer, Profile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The tenant credential the daemon is started with.
const TOKEN: &str = "bench";
/// Daemon worker threads: one per core of the 2-core machine the
/// benchmark is sized for.
const SERVE_WORKERS: &str = "2";
/// The daemon's `OptimizedCache` capacity (`--cache`), the same for every
/// workload; the traced replay uses the same so its hit ratio mirrors the
/// daemon's. The warm-up fills the cache before the window, so the
/// window sees eviction; the daemon's default of 4096 would take about
/// 3000 structure requests or 230 weighted ones (about 8 GB) to fill,
/// more than a run's budget.
const SERVE_CACHE: usize = 256;
/// Set-ups per process, each a full train, save, daemon start and warm
/// inventory; setup_s is their median. The last one serves.
const SETUPS: usize = 2;
/// Sentinel topologies sampled at training time. Sets the warm
/// inventory size (pool x 2 regimes x 4 variants) and most of setup.
const TOPOLOGY_POOL: usize = 60;
/// Largest relative deviation allowed between the protected model's
/// outputs and the reassembled optimized model's outputs.
const OUTPUT_TOLERANCE: f32 = 1e-3;

/// Request-id namespaces: measured, warm-up and gate requests never
/// share an id, so no measured request finds its own pieces in the
/// daemon cache.
const PHASE_MEASURED: u64 = 1;
const PHASE_WARMUP: u64 = 2;
const PHASE_GATE: u64 = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// A zoo model with no weights: the architecture is the secret.
    Structure,
    /// The 3-conv protected model with real weights.
    Weighted,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Structure => "structure",
            Class::Weighted => "weighted",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    StructureZoo,
    SentinelWeights,
    TenantMix,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "structure-zoo" => Ok(Workload::StructureZoo),
            "sentinel-weights" => Ok(Workload::SentinelWeights),
            "tenant-mix" => Ok(Workload::TenantMix),
            other => Err(format!(
                "unknown workload `{other}` (structure-zoo|sentinel-weights|tenant-mix)"
            )),
        }
    }

    /// One closed-loop client per entry, all running at once.
    fn clients(self) -> &'static [Class] {
        match self {
            Workload::StructureZoo => &[Class::Structure],
            Workload::SentinelWeights => &[Class::Weighted],
            Workload::TenantMix => &[Class::Structure, Class::Weighted],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
    /// This process's share of the run: part `part` of `parts`.
    part: u64,
    parts: u64,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let need = |name: &str| flag(&args, name).ok_or(format!("missing {name}"));
    let num = |name: &str| -> Result<f64, String> {
        need(name)?
            .parse::<f64>()
            .map_err(|_| format!("{name} expects a number"))
    };
    let seconds = num("--seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let (part, parts) = flag(&args, "--part")
        .unwrap_or("0/1")
        .split_once('/')
        .and_then(|(k, n)| Some((k.parse::<u64>().ok()?, n.parse::<u64>().ok()?)))
        .filter(|&(k, n)| k < n)
        .ok_or("--part expects K/N with K < N")?;
    Ok(Args {
        workload: Workload::parse(need("--workload")?)?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed expects an unsigned integer".to_string())?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
        serve_bin: PathBuf::from(need("--serve-bin")?),
        work_dir: PathBuf::from(need("--work-dir")?),
        part,
        parts,
    })
}

/// Request id `n` of a phase/class stream. The top byte names the phase
/// and class, so streams are disjoint by construction; the rest is a
/// seeded hash, so ids (and thus sentinel draws) change with the seed.
fn request_id(seed: u64, phase: u64, class: Class, n: u64) -> u64 {
    let tag = (phase << 4) | class as u64;
    let h = splitmix64(splitmix64(seed ^ (tag << 40)) ^ n);
    (tag << 56) | (h & ((1 << 56) - 1))
}

/// A seeded permutation of `0..len`: a Fisher-Yates shuffle driven by
/// splitmix64.
fn permutation(seed: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// The perf harness's 3-conv protected model with real weights.
fn small_protected_model() -> (Graph, TensorMap) {
    use proteus_graph::{Activation, ConvAttrs};
    let mut g = Graph::new("e2e");
    let x = g.input([1, 3, 16, 16]);
    let c1 = g.add(Op::Conv(ConvAttrs::new(3, 16, 3).padding(1)), [x]);
    let r1 = g.add(Op::Activation(Activation::Relu), [c1]);
    let c2 = g.add(Op::Conv(ConvAttrs::new(16, 16, 3).padding(1)), [r1]);
    let a = g.add(Op::Add, [c2, r1]);
    let r2 = g.add(Op::Activation(Activation::Relu), [a]);
    let c3 = g.add(
        Op::Conv(ConvAttrs::new(16, 32, 3).stride(2).padding(1)),
        [r2],
    );
    let r3 = g.add(Op::Activation(Activation::Relu), [c3]);
    let gap = g.add(Op::GlobalAveragePool, [r3]);
    g.set_outputs([gap]);
    let params = TensorMap::init_random(&g, 7);
    (g, params)
}

/// Measured weighted requests first walk a fixed catalogue of request
/// ids in seeded order, then continue with fresh seeded ids. A weighted
/// request's cost depends on the sentinel widths its id draws (a few
/// hundred KB to tens of MB), and a run serves only ~60 of them, so fresh
/// ids alone make per-run medians differ by ~20% between seeds; with the
/// catalogue every run serves nearly the same widths. Ids never repeat
/// within a run, so the daemon cache never answers a real piece. The
/// catalogue is one sample of width draws: a change that re-draws
/// sentinels swaps it, which alone can move the weighted figures by up
/// to the seed-to-seed spread NOISE.md records.
const WEIGHTED_CATALOGUE: u64 = 64;
const CATALOGUE_SEED: u64 = 0xCA7A_1060;

/// The protected models requests draw from, and the request ids.
struct Models {
    seed: u64,
    zoo: Vec<(&'static str, Graph)>,
    /// The seeded order structure requests cycle through the zoo in.
    rotation: Vec<usize>,
    /// The seeded order weighted requests walk the catalogue in.
    catalogue: Vec<usize>,
    weighted: (Graph, TensorMap),
    no_params: TensorMap,
}

impl Models {
    fn new(seed: u64) -> Models {
        let zoo: Vec<(&'static str, Graph)> =
            zoo::all().iter().map(|e| (e.name, (e.build)())).collect();
        let rotation = permutation(seed, zoo.len());
        Models {
            seed,
            zoo,
            rotation,
            catalogue: permutation(seed ^ CATALOGUE_SEED, WEIGHTED_CATALOGUE as usize),
            weighted: small_protected_model(),
            no_params: TensorMap::new(),
        }
    }

    /// The id of the `n`th request of a phase/class stream.
    fn request_id(&self, phase: u64, class: Class, n: u64) -> u64 {
        match self.catalogue.get(n as usize) {
            Some(&entry) if phase == PHASE_MEASURED && class == Class::Weighted => {
                request_id(CATALOGUE_SEED, phase, class, entry as u64)
            }
            _ => request_id(self.seed, phase, class, n),
        }
    }

    /// The `n`th request of a class stream: its model and parameters.
    fn request(&self, class: Class, n: u64) -> (&Graph, &TensorMap) {
        match class {
            Class::Structure => {
                let idx = self.rotation[(n % self.rotation.len() as u64) as usize];
                (&self.zoo[idx].1, &self.no_params)
            }
            Class::Weighted => (&self.weighted.0, &self.weighted.1),
        }
    }
}

fn config() -> ProteusConfig {
    ProteusConfig {
        k: 8,
        partitions: PartitionSpec::Count(3),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 24,
            ..Default::default()
        },
        topology_pool: TOPOLOGY_POOL,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// The daemon

struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `proteus-serve` and waits for its listening line.
    fn start(bin: &Path, artifact: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--artifact")
            .arg(artifact)
            .args(["--addr", "127.0.0.1:0", "--workers", SERVE_WORKERS])
            .args(["--cache", &SERVE_CACHE.to_string()])
            .args(["--token", &format!("{TOKEN}:{TOKEN}")])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().ok_or("daemon stderr not captured")?;
        let mut lines = BufReader::new(stderr).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("reading daemon stderr: {e}"))?;
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon exited before listening".into());
        };
        // keep draining so the daemon never blocks on a full pipe
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        Ok(Daemon {
            child,
            addr,
            stderr: Some(drain),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stop(mut self) -> Result<(), String> {
        self.child
            .kill()
            .map_err(|e| format!("stopping daemon: {e}"))?;
        self.child
            .wait()
            .map_err(|e| format!("waiting for daemon: {e}"))?;
        if let Some(drain) = self.stderr.take() {
            drain.join().map_err(|_| "daemon stderr reader panicked")?;
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // error paths: never leave the daemon running
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// /proc readings

fn proc_stat_ticks(pid: &str) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("stat field {i} missing"))
    };
    Ok(num(11)? + num(12)?)
}

fn proc_hwm_kb(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "VmHWM missing".to_string())
}

/// Resets the peak-RSS watermark of a process (`clear_refs` mode 5), so
/// VmHWM covers only what follows. Returns whether the kernel allowed it.
fn reset_hwm(pid: &str) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

// ---------------------------------------------------------------------
// Setup

struct Setup {
    total_s: f64,
    train_s: f64,
    artifact_bytes: u64,
    daemon_ready_s: f64,
    warm_s: f64,
    sentinels_built: usize,
}

fn setup(args: &Args) -> Result<(Proteus, Daemon, Setup), String> {
    let t0 = Instant::now();
    let proteus = ProteusBuilder::new()
        .config(config())
        .corpus_model(build(ModelKind::ResNet))
        .train()
        .map_err(|e| e.to_string())?;
    let train_s = t0.elapsed().as_secs_f64();
    let artifact = args.work_dir.join("bench.prta");
    proteus
        .save_artifact(&artifact)
        .map_err(|e| e.to_string())?;
    let artifact_bytes = std::fs::metadata(&artifact)
        .map_err(|e| e.to_string())?
        .len();
    let t1 = Instant::now();
    let daemon = Daemon::start(&args.serve_bin, &artifact)?;
    let daemon_ready_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let sentinels_built = proteus.warm_inventory();
    let warm_s = t2.elapsed().as_secs_f64();
    let total_s = t0.elapsed().as_secs_f64();
    Ok((
        proteus,
        daemon,
        Setup {
            total_s,
            train_s,
            artifact_bytes,
            daemon_ready_s,
            warm_s,
            sentinels_built,
        },
    ))
}

// ---------------------------------------------------------------------
// One owner request

/// Per-request layer timings, taken from the outside around each call.
#[derive(Default, Clone)]
struct Spans {
    partition_ns: u64,
    frame_ns: u64,
    encode_ns: u64,
    connect_ns: u64,
    round_trip_ns: u64,
    decode_ns: u64,
    reassemble_ns: u64,
    pieces: u64,
    members: u64,
}

/// What the owner kept of a traced request for the server-side replay.
struct Kept {
    request_seed: u64,
    frames: Vec<SealedBucket>,
    up: Vec<Bytes>,
    down: Vec<Bytes>,
    secrets: ObfuscationSecrets,
}

struct Done {
    latency_ns: u64,
    up_bytes: u64,
    down_bytes: u64,
    graph: Graph,
    params: TensorMap,
    spans: Option<Spans>,
    kept: Option<Kept>,
}

/// A failed request, with the typed `PRTE` code when the daemon sent one.
struct Failed {
    code: String,
    detail: String,
}

fn failed(e: impl std::fmt::Display, code: &str) -> Failed {
    Failed {
        code: code.to_string(),
        detail: e.to_string(),
    }
}

fn net_failed(e: NetError) -> Failed {
    let code = match &e {
        NetError::Remote(frame) => format!("PRTE:{:?}", frame.code),
        NetError::Io { .. } => "io".to_string(),
        NetError::Wire(_) => "wire".to_string(),
        NetError::Proteus(_) => "proteus".to_string(),
        NetError::Handshake { .. } => "handshake".to_string(),
        NetError::VersionMismatch { .. } => "version".to_string(),
        NetError::FingerprintMismatch { .. } => "fingerprint".to_string(),
        NetError::Protocol { .. } => "protocol".to_string(),
    };
    Failed {
        code,
        detail: e.to_string(),
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs one owner request end to end. With `traced`, times each layer
/// call and keeps what the server-side replay needs.
fn round_trip(
    proteus: &Proteus,
    addr: &str,
    graph: &Graph,
    params: &TensorMap,
    rid: u64,
    traced: bool,
) -> Result<Done, Failed> {
    let start = Instant::now();
    let mut sp = Spans::default();

    let t = Instant::now();
    let mut session = proteus
        .obfuscate_session(graph, params, rid)
        .map_err(|e| failed(e, "session"))?;
    sp.partition_ns = ns(t);
    let request_seed = session.request_seed();
    let mut up = Vec::with_capacity(session.num_buckets());
    let mut frames = Vec::new();
    loop {
        let t = Instant::now();
        let Some(frame) = session.next_frame() else {
            break;
        };
        sp.frame_ns += ns(t);
        let t = Instant::now();
        up.push(frame.to_mux_bytes(rid));
        sp.encode_ns += ns(t);
        sp.members += frame.bucket.members.len() as u64;
        if traced {
            frames.push(frame);
        }
    }
    let secrets = session.finish().map_err(|e| failed(e, "session"))?;
    sp.pieces = secrets.plan.pieces.len() as u64;
    let up_bytes: u64 = up.iter().map(|b| b.len() as u64).sum();

    let t = Instant::now();
    let client =
        NetClient::connect(addr, TOKEN, proteus.config_fingerprint()).map_err(net_failed)?;
    sp.connect_ns = ns(t);
    let t = Instant::now();
    // the untraced path hands the frames over, so they are freed as soon
    // as the daemon has answered
    let sent = if traced {
        up.clone()
    } else {
        std::mem::take(&mut up)
    };
    let down = client.run_request(rid, sent).map_err(net_failed)?;
    sp.round_trip_ns = ns(t);
    let down_bytes: u64 = down.iter().map(|b| b.len() as u64).sum();

    let t = Instant::now();
    let mut reassembly = DeobfuscationSession::new(&secrets);
    for raw in &down {
        reassembly
            .accept_mux_bytes(raw.clone())
            .map_err(|e| failed(e, "accept"))?;
    }
    sp.decode_ns = ns(t);
    let t = Instant::now();
    let (out_graph, out_params) = reassembly.finish().map_err(|e| failed(e, "reassemble"))?;
    sp.reassemble_ns = ns(t);
    let latency_ns = ns(start);

    let (spans, kept) = if traced {
        (
            Some(sp),
            Some(Kept {
                request_seed,
                frames,
                up,
                down,
                secrets,
            }),
        )
    } else {
        (None, None)
    };
    Ok(Done {
        latency_ns,
        up_bytes,
        down_bytes,
        graph: out_graph,
        params: out_params,
        spans,
        kept,
    })
}

// ---------------------------------------------------------------------
// Server-side replay (traced run only, outside the request's timing)

#[derive(Default, Clone)]
struct Replay {
    /// `next_frame` of a second, identical session, and the weight
    /// synthesis inside it; their ratio splits the request's own
    /// `next_frame` time between the sentinel and weights layers.
    frame_ns: u64,
    synth_ns: u64,
    sentinel_bytes: u64,
    real_bytes: u64,
    server_decode_ns: u64,
    server_encode_ns: u64,
    key_ns: u64,
    lookup_insert_ns: u64,
    lookups: u64,
    hits: u64,
    optimize_ns: u64,
    rewrites: u64,
    nodes_removed: u64,
}

fn param_bytes(graph: &Graph, params: &TensorMap) -> u64 {
    graph
        .iter()
        .filter_map(|(id, _)| params.get(id))
        .flat_map(|ts| ts.iter())
        .map(|t| 4 * t.data().len() as u64)
        .sum()
}

/// Replays the layers a request passed through that the owner cannot
/// time from the outside: sentinel weight synthesis (owner side, inside
/// `next_frame`), and the daemon's decode, cache, optimize and re-encode.
/// The re-encoded frames must equal the daemon's answer byte for byte.
fn replay(
    ctx: &Ctx,
    graph: &Graph,
    params: &TensorMap,
    kept: &Kept,
    rid: u64,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let mut session = ctx
        .proteus
        .obfuscate_session(graph, params, rid)
        .map_err(|e| e.to_string())?;
    loop {
        let t = Instant::now();
        let Some(frame) = session.next_frame() else {
            break;
        };
        r.frame_ns += ns(t);
        std::hint::black_box(frame);
    }
    for (i, frame) in kept.frames.iter().enumerate() {
        let real = kept.secrets.real_positions[i];
        // sentinels carry weights exactly when the real piece does
        let weighted = !frame.bucket.members[real].params.is_empty();
        for (pos, m) in frame.bucket.members.iter().enumerate() {
            let bytes = param_bytes(&m.graph, &m.params);
            if pos == real {
                r.real_bytes += bytes;
            } else if weighted {
                let t = Instant::now();
                let synth = TensorMap::init_random(
                    &m.graph,
                    derive_member_seed(kept.request_seed, i, pos + 1),
                );
                r.synth_ns += ns(t);
                let replayed = param_bytes(&m.graph, std::hint::black_box(&synth));
                if replayed != bytes {
                    return Err(format!(
                        "weight replay of bucket {i} member {pos}: {replayed} B, frame holds {bytes} B"
                    ));
                }
                r.sentinel_bytes += bytes;
            }
        }
    }
    let (cache, optimizer) = (&ctx.cache, &ctx.optimizer);
    let profile = optimizer.profile();
    let mut want: Vec<Bytes> = Vec::with_capacity(kept.up.len());
    for raw in &kept.up {
        let t = Instant::now();
        let (frame_rid, sealed) =
            SealedBucket::from_mux_bytes(raw.clone()).map_err(|e| e.to_string())?;
        r.server_decode_ns += ns(t);
        if frame_rid != rid {
            return Err(format!("replayed frame carries request {frame_rid:#x}"));
        }
        let mut members = Vec::with_capacity(sealed.bucket.members.len());
        for m in sealed.bucket.members {
            let t = Instant::now();
            let key = OptimizedCache::key_for(profile, &m.graph, &m.params);
            r.key_ns += ns(t);
            let t = Instant::now();
            let hit = cache.lookup(&key);
            r.lookup_insert_ns += ns(t);
            r.lookups += 1;
            if let Some(member) = hit {
                r.hits += 1;
                members.push(member);
                continue;
            }
            let t = Instant::now();
            let (graph, params, stats) = optimizer.optimize(&m.graph, &m.params);
            r.optimize_ns += ns(t);
            r.rewrites += stats.rewrites.iter().map(|(_, n)| *n as u64).sum::<u64>();
            r.nodes_removed += stats.nodes_before.saturating_sub(stats.nodes_after) as u64;
            let t = Instant::now();
            cache.insert(key, graph.clone(), params.clone());
            r.lookup_insert_ns += ns(t);
            members.push(BucketMember { graph, params });
        }
        let out = SealedBucket {
            bucket: Bucket { members },
            ..sealed
        };
        let t = Instant::now();
        want.push(out.to_mux_bytes(rid));
        r.server_encode_ns += ns(t);
    }
    let mut want: Vec<&[u8]> = want.iter().map(|b| &b[..]).collect();
    let mut got: Vec<&[u8]> = kept.down.iter().map(|b| &b[..]).collect();
    want.sort();
    got.sort();
    if want != got {
        return Err(format!(
            "request {rid:#x}: replayed server frames differ from the daemon's answer"
        ));
    }
    Ok(r)
}

// ---------------------------------------------------------------------
// Clients

#[derive(Default)]
struct ClassLog {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: BTreeMap<String, u64>,
    up_bytes: u64,
    down_bytes: u64,
    spans: Vec<(f64, Spans)>,
    replays: Vec<Replay>,
}

struct Ctx<'a> {
    proteus: &'a Proteus,
    models: &'a Models,
    addr: &'a str,
    optimizer: Optimizer,
    /// The traced run's stand-in for the daemon's cache.
    cache: OptimizedCache,
}

/// Runs requests `n = first, first+1, ...` of one class stream in a
/// closed loop until `keep_going` says stop.
fn client(
    ctx: &Ctx,
    class: Class,
    phase: u64,
    first: u64,
    traced: bool,
    keep_going: &dyn Fn() -> bool,
) -> Result<(ClassLog, u64), String> {
    let mut log = ClassLog::default();
    let mut n = first;
    while keep_going() {
        let rid = ctx.models.request_id(phase, class, n);
        let (graph, params) = ctx.models.request(class, n);
        n += 1;
        log.attempted += 1;
        match round_trip(ctx.proteus, ctx.addr, graph, params, rid, traced) {
            Ok(done) => {
                let ms = done.latency_ns as f64 / 1e6;
                log.latencies_ms.push(ms);
                log.up_bytes += done.up_bytes;
                log.down_bytes += done.down_bytes;
                if let (Some(spans), Some(kept)) = (done.spans, done.kept) {
                    log.spans.push((ms, spans));
                    log.replays.push(replay(ctx, graph, params, &kept, rid)?);
                }
            }
            Err(f) => {
                log.failed += 1;
                *log.errors.entry(f.code).or_default() += 1;
                eprintln!("request {rid:#x} ({}) failed: {}", class.name(), f.detail);
            }
        }
    }
    Ok((log, n))
}

struct Window {
    wall_s: f64,
    logs: BTreeMap<&'static str, ClassLog>,
}

/// One measured window: every client of the workload at once, closed
/// loop. A single client stops at the deadline. In the two-client mix the
/// weighted client stops at the deadline and the structure client keeps
/// sending until the weighted one is done, so the two share the whole
/// window.
fn window(
    ctx: &Ctx,
    workload: Workload,
    seconds: f64,
    first: &mut BTreeMap<&'static str, u64>,
    traced: bool,
) -> Result<Window, String> {
    let clients = workload.clients();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let bulk_done = AtomicBool::new(!clients.contains(&Class::Weighted));
    let results: Vec<Result<(ClassLog, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|&class| {
                let start_n = first.get(class.name()).copied().unwrap_or(0);
                let bulk_done = &bulk_done;
                scope.spawn(move || {
                    let before_deadline = || Instant::now() < deadline;
                    let out = if class == Class::Structure && clients.len() > 1 {
                        let until_bulk = || !bulk_done.load(Ordering::SeqCst);
                        client(ctx, class, PHASE_MEASURED, start_n, traced, &until_bulk)
                    } else {
                        client(
                            ctx,
                            class,
                            PHASE_MEASURED,
                            start_n,
                            traced,
                            &before_deadline,
                        )
                    };
                    if class == Class::Weighted {
                        bulk_done.store(true, Ordering::SeqCst);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut logs = BTreeMap::new();
    for (class, result) in clients.iter().zip(results) {
        let (log, next) = result?;
        first.insert(class.name(), next);
        logs.insert(class.name(), log);
    }
    Ok(Window { wall_s, logs })
}

/// Untimed warm-up: every client of the workload runs its own request
/// stream at once, with ids disjoint from the measured ones, until the
/// members sent carry `SERVE_CACHE` distinct cache keys. The daemon
/// caches every member it has not seen, so its cache is then full, and
/// its FIFO order has been set by the workload's own traffic: the window
/// sees the long-running daemon's steady state, eviction of recurring
/// sentinels included, and the daemon's memory at the cache's capacity.
/// Each client sends at least one request. Returns the requests sent.
fn warm_up(ctx: &Ctx, workload: Workload, traced: bool) -> Result<u64, String> {
    let profile = ctx.optimizer.profile();
    let seen = Mutex::new(HashSet::new());
    let full = AtomicBool::new(false);
    let results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .clients()
            .iter()
            .map(|&class| {
                let (seen, full) = (&seen, &full);
                scope.spawn(move || -> Result<u64, String> {
                    let mut n = 0;
                    loop {
                        let rid = ctx.models.request_id(PHASE_WARMUP, class, n);
                        let (graph, params) = ctx.models.request(class, n);
                        n += 1;
                        // kept frames name the members the daemon cached
                        let done = round_trip(ctx.proteus, ctx.addr, graph, params, rid, true)
                            .map_err(|f| {
                                format!(
                                    "warm-up request {rid:#x} failed: {} ({})",
                                    f.code, f.detail
                                )
                            })?;
                        let kept = done.kept.ok_or("warm-up request kept no frames")?;
                        if traced {
                            replay(ctx, graph, params, &kept, rid)?;
                        }
                        let keys: Vec<u64> = kept
                            .frames
                            .iter()
                            .flat_map(|f| &f.bucket.members)
                            .map(|m| {
                                let key = OptimizedCache::key_for(profile, &m.graph, &m.params);
                                let mut h = DefaultHasher::new();
                                key[..].hash(&mut h);
                                h.finish()
                            })
                            .collect();
                        let mut seen = seen.lock().map_err(|_| "warm-up key set poisoned")?;
                        seen.extend(keys);
                        if seen.len() >= SERVE_CACHE {
                            full.store(true, Ordering::SeqCst);
                        }
                        if full.load(Ordering::SeqCst) {
                            return Ok(n);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".into()))
            })
            .collect()
    });
    results.into_iter().sum()
}

// ---------------------------------------------------------------------
// Correctness gate

fn interface(g: &Graph) -> Result<(Vec<String>, Vec<String>), String> {
    let shapes = infer_shapes(g).map_err(|e| e.to_string())?;
    let inputs = g
        .iter()
        .filter_map(|(_, n)| match &n.op {
            Op::Input { shape } => Some(format!("{shape:?}")),
            _ => None,
        })
        .collect();
    let outputs = g
        .outputs()
        .iter()
        .map(|id| format!("{:?}", shapes.get(id)))
        .collect();
    Ok((inputs, outputs))
}

/// The serial in-process path for the same request id: same session,
/// every frame optimized in this process on one thread, reassembled.
fn in_process(
    proteus: &Proteus,
    optimizer: &Optimizer,
    graph: &Graph,
    params: &TensorMap,
    rid: u64,
) -> Result<(Graph, TensorMap), String> {
    let mut session = proteus
        .obfuscate_session(graph, params, rid)
        .map_err(|e| e.to_string())?;
    let mut optimized = Vec::new();
    while let Some(frame) = session.next_frame() {
        optimized.push(frame.optimize(optimizer, Some(1)));
    }
    let secrets = session.finish().map_err(|e| e.to_string())?;
    let mut reassembly = DeobfuscationSession::new(&secrets);
    for frame in optimized {
        reassembly.accept(frame).map_err(|e| e.to_string())?;
    }
    reassembly.finish().map_err(|e| e.to_string())
}

/// Checks served results against independent references, outside any
/// timed window. Structure: every zoo model once; the reassembled graph
/// validates, keeps the original's input and output interface, and is
/// bit-identical to the serial in-process path. Weighted: the reassembled
/// model computes the original's outputs on a seeded input under the
/// reference interpreter. Returns the number of requests checked.
fn gate(ctx: &Ctx, workload: Workload) -> Result<u64, String> {
    let mut checked = 0;
    let classes = workload.clients();
    if classes.contains(&Class::Structure) {
        for n in 0..ctx.models.zoo.len() as u64 {
            let rid = ctx.models.request_id(PHASE_GATE, Class::Structure, n);
            let (graph, params) = ctx.models.request(Class::Structure, n);
            let name = ctx.models.zoo[ctx.models.rotation[n as usize]].0;
            let done = round_trip(ctx.proteus, ctx.addr, graph, params, rid, false)
                .map_err(|f| format!("gate request {name}: {} ({})", f.code, f.detail))?;
            done.graph
                .validate()
                .map_err(|e| format!("gate {name}: reassembled graph invalid: {e}"))?;
            if interface(&done.graph)? != interface(graph)? {
                return Err(format!("gate {name}: input/output interface changed"));
            }
            let (want_g, want_p) = in_process(ctx.proteus, &ctx.optimizer, graph, params, rid)?;
            if done.graph != want_g || done.params != want_p {
                return Err(format!(
                    "gate {name}: served result differs from the serial in-process path"
                ));
            }
            checked += 1;
        }
    }
    if classes.contains(&Class::Weighted) {
        let (graph, params) = ctx.models.request(Class::Weighted, 0);
        let input_shape = match &graph
            .iter()
            .find(|(_, n)| matches!(n.op, Op::Input { .. }))
            .ok_or("weighted model has no input")?
            .1
            .op
        {
            Op::Input { shape } => shape.clone(),
            _ => unreachable!("filtered to inputs"),
        };
        for n in 0..2 {
            let rid = ctx.models.request_id(PHASE_GATE, Class::Weighted, n);
            let done = round_trip(ctx.proteus, ctx.addr, graph, params, rid, false)
                .map_err(|f| format!("gate weighted request: {} ({})", f.code, f.detail))?;
            let mut rng = StdRng::seed_from_u64(ctx.models.seed ^ rid);
            let input = Tensor::random(input_shape.clone(), 1.0, &mut rng);
            let want = Executor::new(graph, params)
                .run(std::slice::from_ref(&input))
                .map_err(|e| format!("reference run: {e}"))?;
            let got = Executor::new(&done.graph, &done.params)
                .run(std::slice::from_ref(&input))
                .map_err(|e| format!("gate weighted: reassembled model fails to run: {e}"))?;
            if want.len() != got.len() {
                return Err("gate weighted: output count changed".into());
            }
            for (w, g) in want.iter().zip(&got) {
                let scale = w.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
                if w.shape() != g.shape() || w.max_abs_diff(g) > OUTPUT_TOLERANCE * scale {
                    return Err(format!(
                        "gate weighted: outputs differ by {} (tolerance {})",
                        w.max_abs_diff(g),
                        OUTPUT_TOLERANCE * scale
                    ));
                }
            }
            checked += 1;
        }
    }
    Ok(checked)
}

// ---------------------------------------------------------------------
// Output

fn json_f64s(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", parts.join(","))
}

fn class_json(log: &ClassLog) -> String {
    let errors: Vec<String> = log
        .errors
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"latencies_ms\":{},\"attempted\":{},\"failed\":{},\"errors\":{{{}}},\"up_bytes\":{},\"down_bytes\":{}}}",
        json_f64s(&log.latencies_ms),
        log.attempted,
        log.failed,
        errors.join(","),
        log.up_bytes,
        log.down_bytes
    )
}

/// Sums of the traced window's spans and replays, per the per-layer
/// metric names `run.py` reports.
fn trace_json(w: &Window, inventory: (usize, usize), cache_entries: usize) -> String {
    let mut s = Spans::default();
    let mut r = Replay::default();
    let mut wall_ns = 0u64;
    let mut requests = 0u64;
    let mut failed = 0u64;
    for log in w.logs.values() {
        failed += log.failed;
        for (ms, sp) in &log.spans {
            requests += 1;
            wall_ns += (ms * 1e6) as u64;
            s.partition_ns += sp.partition_ns;
            s.frame_ns += sp.frame_ns;
            s.encode_ns += sp.encode_ns;
            s.connect_ns += sp.connect_ns;
            s.round_trip_ns += sp.round_trip_ns;
            s.decode_ns += sp.decode_ns;
            s.reassemble_ns += sp.reassemble_ns;
            s.pieces += sp.pieces;
            s.members += sp.members;
        }
        for rp in &log.replays {
            r.frame_ns += rp.frame_ns;
            r.synth_ns += rp.synth_ns;
            r.sentinel_bytes += rp.sentinel_bytes;
            r.real_bytes += rp.real_bytes;
            r.server_decode_ns += rp.server_decode_ns;
            r.server_encode_ns += rp.server_encode_ns;
            r.key_ns += rp.key_ns;
            r.lookup_insert_ns += rp.lookup_insert_ns;
            r.lookups += rp.lookups;
            r.hits += rp.hits;
            r.optimize_ns += rp.optimize_ns;
            r.rewrites += rp.rewrites;
            r.nodes_removed += rp.nodes_removed;
        }
    }
    let mut out = String::from("{");
    let mut put = |k: &str, v: u64| {
        let _ = write!(out, "\"{k}\":{v},");
    };
    put("requests", requests);
    put("failed", failed);
    put("wall_ns", wall_ns);
    put("partition_ns", s.partition_ns);
    put("frame_ns", s.frame_ns);
    put("encode_ns", s.encode_ns);
    put("connect_ns", s.connect_ns);
    put("round_trip_ns", s.round_trip_ns);
    put("decode_ns", s.decode_ns);
    put("reassemble_ns", s.reassemble_ns);
    put("pieces", s.pieces);
    put("members", s.members);
    put("replay_frame_ns", r.frame_ns);
    put("replay_synth_ns", r.synth_ns);
    put("sentinel_bytes", r.sentinel_bytes);
    put("real_bytes", r.real_bytes);
    put("server_decode_ns", r.server_decode_ns);
    put("server_encode_ns", r.server_encode_ns);
    put("key_ns", r.key_ns);
    put("lookup_insert_ns", r.lookup_insert_ns);
    put("lookups", r.lookups);
    put("hits", r.hits);
    put("optimize_ns", r.optimize_ns);
    put("rewrites", r.rewrites);
    put("nodes_removed", r.nodes_removed);
    put("inventory_hits", inventory.0 as u64);
    put("inventory_misses", inventory.1 as u64);
    put("cache_entries", cache_entries as u64);
    out.pop();
    out.push('}');
    out
}

fn window_json(w: &Window) -> String {
    let classes: Vec<String> = w
        .logs
        .iter()
        .map(|(k, log)| format!("\"{k}\":{}", class_json(log)))
        .collect();
    format!(
        "{{\"wall_s\":{:.6},\"classes\":{{{}}}}}",
        w.wall_s,
        classes.join(",")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let self_pid = std::process::id().to_string();
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("creating {}: {e}", args.work_dir.display()))?;

    // setup, repeated; the last instance serves
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let (proteus, daemon, s) = setup(args)?;
        setups.push(s);
        if i + 1 == SETUPS {
            live = Some((proteus, daemon));
        } else {
            daemon.stop()?;
        }
    }
    let (proteus, daemon) = live.ok_or("no setup ran")?;
    let serve_pid = daemon.pid().to_string();
    let addr = daemon.addr.clone();

    let models = Models::new(args.seed);
    let ctx = Ctx {
        proteus: &proteus,
        models: &models,
        addr: &addr,
        optimizer: Optimizer::new(Profile::OrtLike),
        cache: OptimizedCache::new(SERVE_CACHE),
    };
    let warm_requests = warm_up(&ctx, args.workload, args.trace)?;

    let hwm_reset = reset_hwm(&self_pid) && reset_hwm(&serve_pid);
    let owner_ticks0 = proc_stat_ticks(&self_pid)?;
    let serve_ticks0 = proc_stat_ticks(&serve_pid)?;
    // parts of one run serve disjoint stretches of the request streams:
    // structure requests far apart, weighted ones in successive slices of
    // the catalogue
    let mut first = BTreeMap::from([
        (Class::Structure.name(), args.part << 32),
        (
            Class::Weighted.name(),
            args.part * WEIGHTED_CATALOGUE / args.parts,
        ),
    ]);
    let (untraced, traced) = if args.trace {
        // traced half first, right after the replayed warm-up, so the
        // replay cache has seen exactly what the daemon's cache has
        let inv0 = proteus.inventory().stats();
        let traced = window(&ctx, args.workload, args.seconds / 2.0, &mut first, true)?;
        let inv1 = proteus.inventory().stats();
        let inventory = (inv1.hits - inv0.hits, inv1.misses - inv0.misses);
        let untraced = window(&ctx, args.workload, args.seconds / 2.0, &mut first, false)?;
        (untraced, Some((traced, inventory)))
    } else {
        (
            window(&ctx, args.workload, args.seconds, &mut first, false)?,
            None,
        )
    };
    let owner_ticks = proc_stat_ticks(&self_pid)? - owner_ticks0;
    let serve_ticks = proc_stat_ticks(&serve_pid)? - serve_ticks0;
    let owner_hwm_kb = proc_hwm_kb(&self_pid)?;
    let serve_hwm_kb = proc_hwm_kb(&serve_pid)?;

    // one gate per run is enough: every part runs the same code
    let gate_checked = if args.part == 0 {
        gate(&ctx, args.workload)?
    } else {
        0
    };
    daemon.stop()?;

    let mut out = String::from("{");
    let setup_list =
        |f: &dyn Fn(&Setup) -> f64| json_f64s(&setups.iter().map(f).collect::<Vec<_>>());
    let _ = write!(
        out,
        "\"setup_s\":{},\"train_s\":{},\"daemon_ready_s\":{},\"warm_s\":{},\
         \"artifact_bytes\":{},\"sentinels_built\":{},",
        setup_list(&|s| s.total_s),
        setup_list(&|s| s.train_s),
        setup_list(&|s| s.daemon_ready_s),
        setup_list(&|s| s.warm_s),
        setups[0].artifact_bytes,
        setups[0].sentinels_built,
    );
    let _ = write!(
        out,
        "\"owner_cpu_ticks\":{owner_ticks},\"serve_cpu_ticks\":{serve_ticks},\
         \"owner_hwm_kb\":{owner_hwm_kb},\"serve_hwm_kb\":{serve_hwm_kb},\
         \"hwm_reset\":{hwm_reset},\"gate_checked\":{gate_checked},\
         \"warm_requests\":{warm_requests},\
         \"window\":{}",
        window_json(&untraced)
    );
    if let Some((traced, inventory)) = &traced {
        let _ = write!(
            out,
            ",\"traced_window\":{},\"trace\":{}",
            window_json(traced),
            trace_json(traced, *inventory, ctx.cache.len())
        );
    }
    out.push('}');
    Ok(out)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
