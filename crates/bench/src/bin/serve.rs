//! Multi-tenant serving load generator: drives the shared-pool
//! [`ServeRuntime`] with an open-loop stream of concurrent obfuscation
//! requests across the model zoo and writes `BENCH_serve.json`
//! (throughput, p50/p95/p99 latency-to-last-frame, peak concurrency,
//! queue depths, and the per-phase time breakdown).
//!
//! Before the load starts, the trained instance's sentinel inventory is
//! warmed ([`SentinelPool`]) so sessions draw pre-built sentinels, and
//! the runtime's [`proteus::OptimizedCache`] replays optimizer outputs for
//! sentinels repeating across requests — `--no-cache` disables the cache
//! to measure its contribution.
//!
//! Every run also *asserts* concurrency parity: each request's optimized
//! frames and reassembled model must be bit-identical to the serial
//! single-session path, so the binary doubles as a regression gate. CI
//! runs it in smoke mode (`--smoke`, one 8-request wave) where the parity
//! assertions still hold even though the timings are noisy.
//!
//! `--net` switches the binary into the *network* loadgen: the same
//! open-loop request mix is driven twice — once against a fresh
//! in-process [`ServeRuntime`], once over real loopback TCP sockets
//! through `proteus-net` (one connection per tenant request, full
//! handshake, wire-v2 frames both ways) — and `BENCH_net.json` records
//! both latency distributions plus the socket overhead. The two waves
//! must produce bit-identical optimized wire bytes, asserted per
//! request.
//!
//! Usage: `cargo run --release -p proteus-bench --bin serve [-- --smoke] [-- --no-cache] [-- --net] [-- --out PATH]`

use proteus::serve::{SentinelPool, ServeRuntime};
use proteus::{
    DeobfuscationSession, PartitionSpec, PhaseBreakdown, Proteus, ProteusConfig, SealedBucket,
    ServeConfig,
};
use proteus_graph::{Graph, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The full-mode request mix: a rotation over the zoo's CNN family (the
/// transformer models partition into same-sized pieces; the rotation
/// keeps per-request cost bounded while varying shapes and loads).
const ZOO: [ModelKind; 6] = [
    ModelKind::AlexNet,
    ModelKind::MobileNet,
    ModelKind::ResNet,
    ModelKind::DenseNet,
    ModelKind::GoogleNet,
    ModelKind::MnasNet,
];

/// Smoke mode trims the rotation to the two cheapest models — the job
/// exists to keep the binary and its parity assertions from rotting, not
/// to produce meaningful timings on shared runners.
const ZOO_SMOKE: [ModelKind; 2] = [ModelKind::AlexNet, ModelKind::ResNet];

fn request_model(rid: u64, smoke: bool) -> Graph {
    if smoke {
        build(ZOO_SMOKE[rid as usize % ZOO_SMOKE.len()])
    } else {
        build(ZOO[rid as usize % ZOO.len()])
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct RequestResult {
    rid: u64,
    latency_to_last_frame_ms: f64,
    /// Owner-session phases merged with the handle's optimizer-side
    /// phases: where this request's instrumented time went.
    phases: PhaseBreakdown,
    /// The sealed input frames this request submitted (captured so the
    /// serial parity reference re-optimizes the *same* frames without
    /// paying generation twice).
    input_frames: Vec<SealedBucket>,
    secrets: proteus::ObfuscationSecrets,
    optimized_frames: Vec<SealedBucket>,
    reassembled: (Graph, TensorMap),
}

/// One pre-generated tenant request for the network loadgen: wire-v2
/// frames ready to submit, plus the owner's reassembly secrets.
struct PreparedRequest {
    rid: u64,
    frames: Vec<bytes::Bytes>,
    secrets: proteus::ObfuscationSecrets,
}

/// Latency distribution of one measured wave.
struct WaveStats {
    throughput_rps: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

fn wave_stats(mut latencies: Vec<f64>, wall: Duration) -> WaveStats {
    let n = latencies.len();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    WaveStats {
        throughput_rps: n as f64 / wall.as_secs_f64(),
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
    }
}

/// The `--net` loadgen: the same open-loop wave measured against an
/// in-process runtime and over loopback TCP, with per-request byte
/// parity between the two asserted.
fn run_net_bench(proteus: &Arc<Proteus>, smoke: bool, serve_config: ServeConfig, out_path: &str) {
    use proteus_net::{NetClient, NetServer, NetServerConfig, TenantAuth};

    let requests: u64 = if smoke { 6 } else { 16 };
    let interval = if smoke {
        Duration::ZERO
    } else {
        Duration::from_millis(50)
    };

    // pre-generate every request outside the measured region: generation
    // cost is the owner's and identical for both transports
    println!("== pre-generating {requests} obfuscated requests ==");
    let prepared: Vec<PreparedRequest> = (0..requests)
        .map(|rid| {
            let graph = request_model(rid, smoke);
            let mut session = proteus
                .obfuscate_session(&graph, &TensorMap::new(), rid)
                .expect("session");
            let mut frames = Vec::with_capacity(session.num_buckets());
            while let Some(frame) = session.next_frame() {
                frames.push(frame.to_mux_bytes(rid));
            }
            let secrets = session.finish().expect("secrets");
            PreparedRequest {
                rid,
                frames,
                secrets,
            }
        })
        .collect();

    // wave 1: in-process — a fresh runtime, frames submitted directly
    println!(
        "== in-process wave: {requests} requests, {:.1}ms inter-arrival ==",
        interval.as_secs_f64() * 1e3
    );
    let runtime =
        ServeRuntime::new(Optimizer::new(Profile::OrtLike), serve_config).expect("runtime");
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut inproc: Vec<(u64, f64, Vec<bytes::Bytes>)> = std::thread::scope(|scope| {
        let joins: Vec<_> = prepared
            .iter()
            .map(|req| {
                let runtime = &runtime;
                scope.spawn(move || {
                    let arrival = t0 + interval * req.rid as u32;
                    while Instant::now() < arrival {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    let submitted = Instant::now();
                    let handle = runtime.handle(req.rid);
                    for wire in &req.frames {
                        handle.submit_bytes(wire.clone()).expect("submit");
                    }
                    let mut got = Vec::with_capacity(req.frames.len());
                    while got.len() < req.frames.len() {
                        got.push(handle.recv_bytes().expect("recv"));
                    }
                    (req.rid, submitted.elapsed().as_secs_f64() * 1e3, got)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let inproc_wall = t0.elapsed();
    drop(runtime);

    // wave 2: loopback TCP — a fresh runtime behind the daemon, one
    // connection per request, full handshake, frames both directions on
    // real sockets. Latency starts after connect: it measures the same
    // submit-to-last-frame quantity as the in-process wave.
    println!("== loopback socket wave: {requests} connections ==");
    let server = NetServer::bind(
        ServeRuntime::new(Optimizer::new(Profile::OrtLike), serve_config).expect("runtime"),
        proteus.config_fingerprint(),
        NetServerConfig {
            auth: vec![TenantAuth::new("loadgen", "loadgen")],
            ..Default::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr();
    let fingerprint = proteus.config_fingerprint();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut net: Vec<(u64, f64, Vec<bytes::Bytes>)> = std::thread::scope(|scope| {
        let joins: Vec<_> = prepared
            .iter()
            .map(|req| {
                scope.spawn(move || {
                    let arrival = t0 + interval * req.rid as u32;
                    while Instant::now() < arrival {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    let client = NetClient::connect(addr, "loadgen", fingerprint).expect("connect");
                    let submitted = Instant::now();
                    let got = client
                        .run_request(req.rid, req.frames.clone())
                        .expect("request completes");
                    (req.rid, submitted.elapsed().as_secs_f64() * 1e3, got)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let net_wall = t0.elapsed();
    let server_stats = server.shutdown(Duration::from_secs(30));
    assert_eq!(server_stats.requests_completed as u64, requests);
    assert_eq!(server_stats.requests_failed, 0);

    // parity gate: for every request, the bytes that crossed the socket
    // are bit-identical to the in-process runtime's output, and they
    // reassemble into a valid model under the owner's secrets
    println!("== verifying socket-vs-in-process byte parity ==");
    inproc.sort_by_key(|(rid, _, _)| *rid);
    net.sort_by_key(|(rid, _, _)| *rid);
    for (req, ((rid_a, _, got_inproc), (rid_b, _, got_net))) in
        prepared.iter().zip(inproc.iter().zip(&net))
    {
        assert_eq!(*rid_a, req.rid);
        assert_eq!(*rid_b, req.rid);
        let mut a: Vec<Vec<u8>> = got_inproc.iter().map(|b| b.to_vec()).collect();
        let mut b: Vec<Vec<u8>> = got_net.iter().map(|b| b.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "request {}: socket bytes diverged from the in-process path",
            req.rid
        );
        let mut reassembly = DeobfuscationSession::new(&req.secrets);
        for raw in got_net {
            reassembly.accept_mux_bytes(raw.clone()).expect("accept");
        }
        let (graph, _params) = reassembly.finish().expect("finish");
        graph.validate().expect("reassembled model validates");
    }
    println!("   all {requests} requests bit-identical across transports");

    let inproc_stats = wave_stats(inproc.iter().map(|(_, l, _)| *l).collect(), inproc_wall);
    let net_stats = wave_stats(net.iter().map(|(_, l, _)| *l).collect(), net_wall);
    println!(
        "\nin-process   p50 {:7.1}ms  p95 {:7.1}ms  p99 {:7.1}ms  {:7.1} req/s",
        inproc_stats.p50, inproc_stats.p95, inproc_stats.p99, inproc_stats.throughput_rps
    );
    println!(
        "loopback     p50 {:7.1}ms  p95 {:7.1}ms  p99 {:7.1}ms  {:7.1} req/s",
        net_stats.p50, net_stats.p95, net_stats.p99, net_stats.throughput_rps
    );
    println!(
        "socket tax   p50 {:+.1}ms ({:.2}x)",
        net_stats.p50 - inproc_stats.p50,
        net_stats.p50 / inproc_stats.p50
    );

    let json = format!(
        "{{\n  \"bench\": \"BENCH_net\",\n  \"mode\": \"{}\",\n  \"requests\": {},\n  \
         \"open_loop_interval_ms\": {:.1},\n  \
         \"transport\": {{\"kind\": \"loopback TCP, one connection per request\", \
         \"handshake\": \"outside the latency window\", \"workers\": {}, \"window\": {}}},\n  \
         \"in_process\": {{\"throughput_rps\": {:.1}, \"latency_to_last_frame_ms\": \
         {{\"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2}}}}},\n  \
         \"loopback_socket\": {{\"throughput_rps\": {:.1}, \"latency_to_last_frame_ms\": \
         {{\"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2}}}}},\n  \
         \"socket_overhead\": {{\"p50_ms\": {:.2}, \"p50_ratio\": {:.3}}},\n  \
         \"parity\": \"per-request optimized wire bytes bit-identical across transports (asserted)\"\n}}\n",
        if smoke { "smoke" } else { "full" },
        requests,
        interval.as_secs_f64() * 1e3,
        serve_config.workers,
        serve_config.window,
        inproc_stats.throughput_rps,
        inproc_stats.p50,
        inproc_stats.p95,
        inproc_stats.p99,
        net_stats.throughput_rps,
        net_stats.p50,
        net_stats.p95,
        net_stats.p99,
        net_stats.p50 - inproc_stats.p50,
        net_stats.p50 / inproc_stats.p50,
    );
    std::fs::write(out_path, json).expect("write BENCH_net.json");
    println!("\nwrote {out_path}");
    println!("parity assertions passed");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let net_mode = args.iter().any(|a| a == "--net");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if net_mode {
                "BENCH_net.json".to_string()
            } else {
                "BENCH_serve.json".to_string()
            }
        });
    let requests: u64 = if smoke { 8 } else { 24 };
    let interval = if smoke {
        Duration::ZERO
    } else {
        Duration::from_millis(100)
    };
    let serve_config = ServeConfig {
        workers: 4,
        window: 2,
        cache_capacity: if no_cache {
            0
        } else {
            ServeConfig::default().cache_capacity
        },
        ..Default::default()
    };

    println!("== training shared Proteus instance ==");
    let proteus = Proteus::builder()
        .config(ProteusConfig {
            k: 3,
            // the paper's subgraph-size sweet spot: pieces stay near the
            // generator's topology sizes, so per-frame cost is bounded
            // and bucket counts scale with model size
            partitions: PartitionSpec::TargetSize(8),
            graphrnn: GraphRnnConfig {
                epochs: 3,
                max_nodes: 20,
                ..Default::default()
            },
            topology_pool: 40,
            ..Default::default()
        })
        .corpus(
            [
                ModelKind::ResNeXt,
                ModelKind::Inception,
                ModelKind::SEResNet,
            ]
            .iter()
            .map(|&k| build(k)),
        )
        .train_shared()
        .expect("train");

    // warm the sentinel inventory before any request arrives: sentinels
    // are pure functions of the trained state, so this work happens once
    // per process instead of inline on every request's critical path
    println!("== warming sentinel inventory ==");
    let warm_start = Instant::now();
    let warmer = SentinelPool::spawn(Arc::clone(&proteus));
    let warmed = warmer.join();
    let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "   {warmed} sentinels built in {warm_ms:.0}ms ({} inventory keys)",
        proteus.inventory().len()
    );

    if net_mode {
        run_net_bench(&proteus, smoke, serve_config, &out_path);
        return;
    }

    let runtime =
        ServeRuntime::new(Optimizer::new(Profile::OrtLike), serve_config).expect("runtime");
    println!(
        "== open-loop load: {requests} requests, {:.1}ms inter-arrival, {} workers, window {}, cache {} ==",
        interval.as_secs_f64() * 1e3,
        runtime.stats().workers,
        serve_config.window,
        if no_cache { "off" } else { "on" },
    );

    // open-loop generator: request i arrives at t0 + i*interval whether or
    // not earlier requests finished — the pool must absorb the burst
    let active = AtomicUsize::new(0);
    let max_active = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut results: Vec<RequestResult> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..requests)
            .map(|rid| {
                let proteus = &proteus;
                let runtime = &runtime;
                let active = &active;
                let max_active = &max_active;
                scope.spawn(move || {
                    let arrival = t0 + interval * rid as u32;
                    while Instant::now() < arrival {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    // latency is measured from the *actual* submit
                    // timestamp: on an oversubscribed box the spin-wait
                    // overshoots its tick, and charging that scheduling
                    // delay to the runtime misstated per-request latency
                    let submitted = Instant::now();
                    let now_active = active.fetch_add(1, Ordering::SeqCst) + 1;
                    max_active.fetch_max(now_active, Ordering::SeqCst);

                    let graph = request_model(rid, smoke);
                    let mut session = proteus
                        .obfuscate_session(&graph, &TensorMap::new(), rid)
                        .expect("session");
                    let handle = runtime.handle(rid);
                    let n = session.num_buckets();
                    let mut input_frames: Vec<SealedBucket> = Vec::with_capacity(n);
                    let mut optimized: Vec<SealedBucket> = Vec::with_capacity(n);
                    // the v2 multiplexed byte stream is the deployment
                    // shape, and it keeps the handle's wire phase honest
                    while let Some(frame) = session.next_frame() {
                        input_frames.push(frame.clone());
                        handle
                            .submit_bytes(frame.to_mux_bytes(rid))
                            .expect("submit");
                        while let Some(done) = handle.try_recv() {
                            optimized.push(done);
                        }
                    }
                    while optimized.len() < n {
                        let bytes = handle.recv_bytes().expect("recv");
                        let (_, frame) = SealedBucket::from_mux_bytes(bytes).expect("decode");
                        optimized.push(frame);
                    }
                    // the measured quantity: submit -> last optimized
                    // frame received (includes queueing behind tenants)
                    let latency_to_last_frame_ms = submitted.elapsed().as_secs_f64() * 1e3;
                    active.fetch_sub(1, Ordering::SeqCst);
                    let phases = session.phases().merged(handle.phases());

                    let secrets = session.finish().expect("secrets");
                    let mut reassembly = DeobfuscationSession::new(&secrets);
                    optimized.sort_by_key(|f| f.bucket_index);
                    for f in &optimized {
                        reassembly.accept(f.clone()).expect("accept");
                    }
                    let reassembled = reassembly.finish().expect("finish");
                    RequestResult {
                        rid,
                        latency_to_last_frame_ms,
                        phases,
                        input_frames,
                        secrets,
                        optimized_frames: optimized,
                        reassembled,
                    }
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    let stats = runtime.stats();
    let peak_concurrency = max_active.load(Ordering::SeqCst);

    // parity gate: every request bit-identical to the serial path —
    // the captured input frames re-optimized one member at a time,
    // with no pool, no cache, and no warm inventory involved
    println!("== verifying parity against the serial session path ==");
    let optimizer = Optimizer::new(Profile::OrtLike);
    for r in &results {
        let want_frames: Vec<SealedBucket> = r
            .input_frames
            .iter()
            .map(|f| f.optimize(&optimizer, Some(1)))
            .collect();
        assert_eq!(
            r.optimized_frames.len(),
            want_frames.len(),
            "request {}: frame count diverged",
            r.rid
        );
        for (got, want) in r.optimized_frames.iter().zip(&want_frames) {
            assert_eq!(
                got.to_bytes().to_vec(),
                want.to_bytes().to_vec(),
                "request {}: optimized frame {} diverged from serial path",
                r.rid,
                want.bucket_index
            );
        }
        let mut reassembly = DeobfuscationSession::new(&r.secrets);
        for f in want_frames {
            reassembly.accept(f).expect("accept");
        }
        let (want_graph, want_params) = reassembly.finish().expect("finish");
        assert_eq!(
            r.reassembled.0, want_graph,
            "request {}: reassembled graph diverged",
            r.rid
        );
        assert_eq!(
            r.reassembled.1, want_params,
            "request {}: reassembled tensors diverged",
            r.rid
        );
    }
    println!(
        "   all {} requests bit-identical to the serial path",
        results.len()
    );

    let phase_total = results
        .iter()
        .fold(PhaseBreakdown::default(), |acc, r| acc.merged(r.phases));
    results.sort_by(|a, b| {
        a.latency_to_last_frame_ms
            .partial_cmp(&b.latency_to_last_frame_ms)
            .expect("finite latencies")
    });
    let latencies: Vec<f64> = results.iter().map(|r| r.latency_to_last_frame_ms).collect();
    let throughput = requests as f64 / wall.as_secs_f64();
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    println!(
        "\nthroughput        {throughput:8.1} req/s ({requests} requests in {:.1}ms)",
        wall.as_secs_f64() * 1e3
    );
    println!("latency to last   p50 {p50:7.1}ms  p95 {p95:7.1}ms  p99 {p99:7.1}ms");
    println!("peak concurrency  {peak_concurrency} requests in flight");
    println!(
        "pool              {} workers, {} member tasks, max queue depth {}",
        stats.workers, stats.tasks_executed, stats.max_queue_depth
    );
    println!(
        "cache             {} hits, {} misses, {} resident entries",
        stats.cache_hits, stats.cache_misses, stats.cache_entries
    );
    println!(
        "phases (total)    generation {:.1}ms, semantic {:.1}ms, optimization {:.1}ms, wire {:.1}ms",
        PhaseBreakdown::ms(phase_total.generation_ns),
        PhaseBreakdown::ms(phase_total.semantic_ns),
        PhaseBreakdown::ms(phase_total.optimization_ns),
        PhaseBreakdown::ms(phase_total.wire_ns),
    );

    if !smoke {
        // the warm path must actually be warm: with the inventory built
        // ahead of traffic and the cache replaying repeated sentinels,
        // the pool executes far fewer tasks than total members, and p50
        // sits an order of magnitude under the inline-generation
        // baseline (PR 4 measured p50 = 175115ms at this exact load)
        if !no_cache {
            assert!(
                stats.cache_hits > 0,
                "full run with cache on produced no cache hits"
            );
            assert!(
                p50 < 17_511.0,
                "p50 {p50:.0}ms is not >= 10x under the 175115ms inline baseline"
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"BENCH_serve\",\n  \"mode\": \"{}\",\n  \"requests\": {},\n  \
         \"open_loop_interval_ms\": {:.1},\n  \"latency_clock\": \"actual submit timestamp\",\n  \
         \"workers\": {},\n  \"window\": {},\n  \"cache_capacity\": {},\n  \
         \"warm\": {{\"sentinels_built\": {}, \"inventory_keys\": {}, \"warm_ms\": {:.1}}},\n  \
         \"throughput_rps\": {:.1},\n  \"latency_to_last_frame_ms\": \
         {{\"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2}}},\n  \
         \"phase_breakdown_ms\": {{\"generation\": {:.2}, \"semantic\": {:.2}, \
         \"optimization\": {:.2}, \"wire\": {:.2}}},\n  \
         \"peak_concurrent_requests\": {},\n  \"max_queue_depth\": {},\n  \
         \"tasks_executed\": {},\n  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},\n  \
         \"parity\": \"per-request outputs bit-identical to the serial session path (asserted)\"\n}}\n",
        if smoke { "smoke" } else { "full" },
        requests,
        interval.as_secs_f64() * 1e3,
        stats.workers,
        serve_config.window,
        serve_config.cache_capacity,
        warmed,
        proteus.inventory().len(),
        warm_ms,
        throughput,
        p50,
        p95,
        p99,
        PhaseBreakdown::ms(phase_total.generation_ns),
        PhaseBreakdown::ms(phase_total.semantic_ns),
        PhaseBreakdown::ms(phase_total.optimization_ns),
        PhaseBreakdown::ms(phase_total.wire_ns),
        peak_concurrency,
        stats.max_queue_depth,
        stats.tasks_executed,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_entries,
    );
    std::fs::write(&out_path, json).expect("write BENCH_serve.json");
    println!("\nwrote {out_path}");
    println!("parity assertions passed");
}
