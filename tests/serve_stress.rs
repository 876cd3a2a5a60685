//! Concurrency parity stress suite for the multi-tenant serving runtime:
//! many client threads, each juggling several in-flight requests against
//! ONE shared [`ServeRuntime`], must end up with per-request deobfuscated
//! graphs and tensors **bit-identical** to the serial single-session path
//! — no matter how the work-stealing pool interleaves their frames.
//!
//! The chaos tests at the end arm the runtime's deterministic
//! [`FaultPlan`]: every request must end either bit-identical to the
//! serial path or in a typed [`ProteusError::WorkerCrashed`], and no
//! fault may leak a partial frame.
//!
//! CI runs this suite in release mode (the `serve-stress` job);
//! `PROTEUS_CHAOS_SEEDS` overrides the chaos storm's seed list.

use proteus::serve::ServeRuntime;
use proteus::{
    DeobfuscationSession, FaultPlan, PartitionSpec, Proteus, ProteusConfig, ProteusError,
    SealedBucket, ServeConfig,
};
use proteus_graph::{Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, Graph, Op, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::collections::HashMap;
use std::sync::{Arc, Once, OnceLock};

fn quick_config(k: usize, n: usize) -> ProteusConfig {
    ProteusConfig {
        k,
        partitions: PartitionSpec::Count(n),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 20,
            ..Default::default()
        },
        topology_pool: 30,
        ..Default::default()
    }
}

/// An executable CNN with parameters, so parity also covers sentinel
/// parameter streams and tensor reassembly.
fn executable_cnn() -> (Graph, TensorMap) {
    let mut g = Graph::new("stress-cnn");
    let x = g.input([1, 3, 12, 12]);
    let c1 = g.add(
        Op::Conv(ConvAttrs::new(3, 8, 3).padding(1).bias(false)),
        [x],
    );
    let b1 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [c1]);
    let r1 = g.add(Op::Activation(Activation::Relu), [b1]);
    let c2 = g.add(
        Op::Conv(ConvAttrs::new(8, 8, 3).padding(1).bias(false)),
        [r1],
    );
    let a = g.add(Op::Add, [c2, r1]);
    let r2 = g.add(Op::Activation(Activation::Relu), [a]);
    let f = g.add(Op::Flatten, [r2]);
    let fc = g.add(Op::Gemm(GemmAttrs::new(8 * 12 * 12, 10)), [f]);
    g.set_outputs([fc]);
    let params = TensorMap::init_random(&g, 99);
    (g, params)
}

/// The protected model of request `rid` — a rotation so concurrent
/// requests carry different shapes and parameter loads.
fn request_model(rid: u64) -> (Graph, TensorMap) {
    match rid % 3 {
        0 => executable_cnn(),
        1 => (build(ModelKind::AlexNet), TensorMap::new()),
        _ => (build(ModelKind::MobileNet), TensorMap::new()),
    }
}

/// The serial single-session reference: one request, frames optimized
/// inline one member at a time, reassembled in order.
fn serial_reference(
    proteus: &Proteus,
    optimizer: &Optimizer,
    rid: u64,
    graph: &Graph,
    params: &TensorMap,
) -> (Graph, TensorMap) {
    let mut session = proteus
        .obfuscate_session(graph, params, rid)
        .expect("session");
    let frames: Vec<SealedBucket> = session
        .by_ref()
        .map(|f| f.optimize(optimizer, Some(1)))
        .collect();
    let secrets = session.finish().expect("secrets");
    let mut reassembly = DeobfuscationSession::new(&secrets);
    for f in frames {
        reassembly.accept(f).expect("accept");
    }
    reassembly.finish().expect("finish")
}

#[test]
fn concurrent_clients_are_bit_identical_to_serial_path() {
    const CLIENTS: usize = 3; // N client threads
    const IN_FLIGHT: usize = 3; // M concurrently driven requests per thread

    let proteus = Proteus::builder()
        .config(quick_config(2, 3))
        .corpus_model(build(ModelKind::ResNet))
        .train_shared()
        .expect("train");
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 4,
            window: 2,
            // cache off: this test pins the pool's exact task accounting
            // (one task per member); cache semantics are pinned by
            // tests/serve_latency.rs
            cache_capacity: 0,
            ..Default::default()
        },
    )
    .expect("runtime");
    let optimizer = Optimizer::new(Profile::OrtLike);

    let results: Vec<(u64, Graph, TensorMap)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for client in 0..CLIENTS as u64 {
            let proteus = Arc::clone(&proteus);
            let runtime = &runtime;
            joins.push(scope.spawn(move || {
                // M requests driven concurrently by one client thread:
                // round-robin one frame per request per round, so frames
                // of this client's requests interleave at the pool too
                let rids: Vec<u64> = (0..IN_FLIGHT as u64).map(|j| 100 * client + j).collect();
                let models: Vec<(Graph, TensorMap)> =
                    rids.iter().map(|&rid| request_model(rid)).collect();
                let mut sessions: Vec<_> = rids
                    .iter()
                    .zip(&models)
                    .map(|(&rid, (g, p))| proteus.obfuscate_session(g, p, rid).expect("session"))
                    .collect();
                let handles: Vec<_> = rids.iter().map(|&rid| runtime.handle(rid)).collect();
                let mut open = sessions.len();
                while open > 0 {
                    open = 0;
                    for (session, handle) in sessions.iter_mut().zip(&handles) {
                        if let Some(frame) = session.next_frame() {
                            handle.submit(frame).expect("submit");
                            open += 1;
                        }
                    }
                }
                let mut out = Vec::new();
                for ((session, handle), rid) in sessions.into_iter().zip(&handles).zip(&rids) {
                    let secrets = session.finish().expect("secrets");
                    let mut reassembly = DeobfuscationSession::new(&secrets);
                    while !reassembly.is_complete() {
                        reassembly
                            .accept(handle.recv().expect("recv"))
                            .expect("accept");
                    }
                    let (g, p) = reassembly.finish().expect("finish");
                    out.push((*rid, g, p));
                }
                out
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });

    assert_eq!(results.len(), CLIENTS * IN_FLIGHT);
    let expected_tasks: usize = results.len() * 3 * 3; // n=3 buckets x (k+1)=3 members
    assert_eq!(
        runtime.stats().tasks_executed,
        expected_tasks,
        "every member optimized exactly once through the shared pool"
    );
    for (rid, graph, params) in results {
        let (model_graph, model_params) = request_model(rid);
        let (want_graph, want_params) =
            serial_reference(&proteus, &optimizer, rid, &model_graph, &model_params);
        assert_eq!(graph, want_graph, "request {rid:#x}: graphs diverge");
        assert_eq!(params, want_params, "request {rid:#x}: tensors diverge");
    }
}

#[test]
fn multiplexed_byte_stream_serves_interleaved_requests() {
    // One byte stream, many requests: every frame of every request is
    // encoded as a v2 multiplexed frame, the streams are interleaved
    // round-robin, a demultiplexing service loop routes them by request
    // id into one shared runtime, and the interleaved response stream is
    // demultiplexed back — each request must reassemble bit-identically
    // to its serial path.
    const REQUESTS: u64 = 4;

    let proteus = Proteus::builder()
        .config(quick_config(2, 2))
        .corpus_model(build(ModelKind::ResNet))
        .train_shared()
        .expect("train");
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 2,
            window: 4,
            ..Default::default()
        },
    )
    .expect("runtime");
    let optimizer = Optimizer::new(Profile::OrtLike);

    // owner side: generate every request's frames, interleave round-robin
    let mut secrets = HashMap::new();
    let mut per_request_frames: Vec<Vec<bytes::Bytes>> = Vec::new();
    for rid in 0..REQUESTS {
        let (g, p) = request_model(rid);
        let mut session = proteus.obfuscate_session(&g, &p, rid).expect("session");
        let frames: Vec<bytes::Bytes> = session.by_ref().map(|f| f.to_mux_bytes(rid)).collect();
        secrets.insert(rid, session.finish().expect("secrets"));
        per_request_frames.push(frames);
    }
    let max_len = per_request_frames.iter().map(Vec::len).max().unwrap();
    let mut wire_in: Vec<bytes::Bytes> = Vec::new();
    for round in 0..max_len {
        for frames in &per_request_frames {
            if let Some(frame) = frames.get(round) {
                wire_in.push(frame.clone());
            }
        }
    }

    // service loop: demultiplex by request id, one handle per request
    let mut handles: HashMap<u64, proteus::RequestHandle> = HashMap::new();
    for wire in wire_in {
        let rid = proteus_graph::peek_frame_request_id(&wire).expect("peek");
        handles
            .entry(rid)
            .or_insert_with(|| runtime.handle(rid))
            .submit_bytes(wire)
            .expect("routed submit");
    }

    // interleaved response stream: drain one frame per request per round
    let mut wire_out: Vec<bytes::Bytes> = Vec::new();
    let mut outstanding: HashMap<u64, usize> = secrets
        .iter()
        .map(|(&rid, s)| (rid, s.real_positions.len()))
        .collect();
    while outstanding.values().any(|&n| n > 0) {
        for rid in 0..REQUESTS {
            if outstanding[&rid] > 0 {
                wire_out.push(handles[&rid].recv_bytes().expect("recv"));
                *outstanding.get_mut(&rid).unwrap() -= 1;
            }
        }
    }

    // owner side: demultiplex responses into per-request reassembly
    let mut reassembly: HashMap<u64, DeobfuscationSession> = secrets
        .iter()
        .map(|(&rid, s)| (rid, DeobfuscationSession::new(s)))
        .collect();
    for wire in wire_out {
        let rid = proteus_graph::peek_frame_request_id(&wire).expect("peek");
        reassembly
            .get_mut(&rid)
            .expect("known request")
            .accept_mux_bytes(wire)
            .expect("accept");
    }
    for rid in 0..REQUESTS {
        let (got_graph, got_params) = reassembly.remove(&rid).unwrap().finish().expect("complete");
        let (g, p) = request_model(rid);
        let (want_graph, want_params) = serial_reference(&proteus, &optimizer, rid, &g, &p);
        assert_eq!(got_graph, want_graph, "request {rid}: graphs diverge");
        assert_eq!(got_params, want_params, "request {rid}: tensors diverge");
    }
}

#[test]
fn window_one_under_contention_still_converges() {
    // The tightest backpressure setting with more clients than workers:
    // every submit waits for the previous frame, nothing deadlocks, and
    // results stay correct.
    let proteus = Proteus::builder()
        .config(quick_config(1, 2))
        .corpus_model(build(ModelKind::ResNet))
        .train_shared()
        .expect("train");
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 1,
            window: 1,
            ..Default::default()
        },
    )
    .expect("runtime");
    let optimizer = Optimizer::new(Profile::OrtLike);

    let results: Vec<(u64, Graph, TensorMap)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..4u64)
            .map(|rid| {
                let proteus = Arc::clone(&proteus);
                let runtime = &runtime;
                scope.spawn(move || {
                    let (g, p) = request_model(rid);
                    let (graph, params) =
                        runtime.serve_request(&proteus, &g, &p, rid).expect("serve");
                    (rid, graph, params)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .collect()
    });
    for (rid, graph, params) in results {
        let (g, p) = request_model(rid);
        let (want_graph, want_params) = serial_reference(&proteus, &optimizer, rid, &g, &p);
        assert_eq!(graph, want_graph, "request {rid}: graphs diverge");
        assert_eq!(params, want_params, "request {rid}: tensors diverge");
    }
}

/// Injected faults panic on purpose (contained by the runtime's
/// `catch_unwind`); suppress their backtrace spew so real test failures
/// stay readable. Non-fault panics still print via the previous hook.
fn quiet_fault_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("fault injection") {
                prev(info);
            }
        }));
    });
}

/// One shared trained instance for the chaos tests (training is
/// model-independent; every test keys its requests by distinct ids).
fn shared_proteus() -> &'static Arc<Proteus> {
    static SHARED: OnceLock<Arc<Proteus>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Proteus::builder()
            .config(quick_config(2, 2))
            .corpus_model(build(ModelKind::ResNet))
            .train_shared()
            .expect("train")
    })
}

/// No fault may leak a partial frame: every frame a faulted runtime
/// delivers carries all `k + 1` members, and fully-delivered requests
/// reassemble bit-identically to the serial path.
#[test]
fn no_fault_leaks_a_partial_frame() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let k = 2; // quick_config(2, 2)
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 2,
            window: 4,
            cache_capacity: 0,
            faults: FaultPlan {
                seed: 0xF00D,
                panic_one_in: 3,
                ..Default::default()
            },
        },
    )
    .expect("runtime");
    let mut crashed = 0usize;
    let mut completed = 0usize;
    for rid in 400..412u64 {
        let (graph, params) = request_model(rid);
        let mut session = proteus
            .obfuscate_session(&graph, &params, rid)
            .expect("session");
        let n = session.num_buckets();
        let handle = runtime.handle(rid);
        let mut frames = Vec::new();
        let mut failure = None;
        while let Some(frame) = session.next_frame() {
            if let Err(e) = handle.submit(frame) {
                failure = Some(e);
                break;
            }
        }
        let secrets = session.finish().expect("secrets");
        while failure.is_none() && frames.len() < n {
            match handle.recv() {
                Ok(frame) => frames.push(frame),
                Err(e) => failure = Some(e),
            }
        }
        // the invariant under test: every delivered frame is whole
        for frame in &frames {
            assert_eq!(
                frame.bucket.members.len(),
                k + 1,
                "rid {rid}: a fault leaked a partial frame"
            );
        }
        match failure {
            Some(ProteusError::WorkerCrashed { request_id, .. }) => {
                assert_eq!(request_id, rid);
                crashed += 1;
            }
            Some(other) => panic!("rid {rid}: untyped chaos escape {other:?}"),
            None => {
                let mut reassembly = DeobfuscationSession::new(&secrets);
                for frame in frames {
                    reassembly.accept(frame).expect("accept");
                }
                let (got_g, got_p) = reassembly.finish().expect("finish");
                let (want_g, want_p) = serial_reference(proteus, &optimizer, rid, &graph, &params);
                assert_eq!(got_g, want_g, "rid {rid}");
                assert_eq!(got_p, want_p, "rid {rid}");
                completed += 1;
            }
        }
    }
    assert!(
        crashed > 0,
        "the 1-in-3 panic rate never fired in 12 requests"
    );
    assert!(completed > 0, "every request crashed; parity never checked");
    let stats = runtime.stats();
    assert_eq!(stats.lanes_crashed, crashed, "one lane failure per crash");
    // two tasks of one lane may both panic on the two workers before the
    // first failure detaches the rest
    assert!(stats.tasks_crashed >= crashed, "{stats:?}");
}

/// Seeded chaos storm against one runtime: crash-prone tasks plus a
/// poisoned optimized-member cache. Every request must end in either a
/// bit-identical success or a typed [`ProteusError::WorkerCrashed`] —
/// across every seed in the battery.
#[test]
fn seeded_chaos_storm_yields_only_parity_or_typed_errors() {
    const REQUESTS: u64 = 12;
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let seeds: Vec<u64> = std::env::var("PROTEUS_CHAOS_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("PROTEUS_CHAOS_SEEDS: u64 list"))
                .collect()
        })
        .unwrap_or_else(|| vec![0x5EED_0001, 0x5EED_0002, 0x5EED_0003]);
    let mut succeeded_total = 0usize;
    for seed in seeds {
        let runtime = ServeRuntime::new(
            Optimizer::new(Profile::OrtLike),
            ServeConfig {
                workers: 2,
                window: 4,
                faults: FaultPlan {
                    seed,
                    panic_one_in: 6,
                    poison_cache_at: 1 + (seed % 3) as u32,
                    ..Default::default()
                },
                ..Default::default() // cache ON for the poison fault
            },
        )
        .expect("runtime");
        let (mut succeeded, mut crashed) = (0usize, 0usize);
        for i in 0..REQUESTS {
            let rid = seed.wrapping_mul(131).wrapping_add(i * 17);
            let (graph, params) = request_model(rid);
            match runtime.serve_request(proteus, &graph, &params, rid) {
                Ok((got_g, got_p)) => {
                    let (want_g, want_p) =
                        serial_reference(proteus, &optimizer, rid, &graph, &params);
                    assert_eq!(got_g, want_g, "seed {seed:#x} rid {rid:#x}");
                    assert_eq!(got_p, want_p, "seed {seed:#x} rid {rid:#x}");
                    succeeded += 1;
                }
                Err(ProteusError::WorkerCrashed { request_id, .. }) => {
                    assert_eq!(request_id, rid, "seed {seed:#x}");
                    crashed += 1;
                }
                Err(other) => panic!("seed {seed:#x} rid {rid:#x}: untyped escape {other:?}"),
            }
        }
        let stats = runtime.stats();
        assert_eq!(stats.lanes_crashed, crashed, "seed {seed:#x}: {stats:?}");
        assert!(stats.tasks_crashed >= crashed, "seed {seed:#x}: {stats:?}");
        assert!(
            stats.cache_poison_heals >= 1,
            "seed {seed:#x}: the poisoned cache insert never ran: {stats:?}"
        );
        succeeded_total += succeeded;
    }
    assert!(
        succeeded_total > 0,
        "every request crashed; parity never checked"
    );
}
