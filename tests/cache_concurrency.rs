//! Concurrent-mutation property test for the optimized-member cache
//! ([`OptimizedCache`]): threads racing `insert`/`lookup` against a
//! capacity-bounded cache under constant FIFO eviction must preserve
//! three properties at **every** observation point:
//!
//! 1. a hit is byte-identical to a fresh optimization of that member
//!    (the cache may only ever memoize, never corrupt);
//! 2. `len() <= capacity()` — eviction keeps the bound under races;
//! 3. hit/miss accounting stays consistent (`hits + misses` equals the
//!    number of lookups issued).
//!
//! Runs on the workspace proptest shim: deterministic seeds, no
//! shrinking. CI exercises this suite in release in the `serve-stress`
//! job alongside the runtime's chaos tests.

use proptest::{proptest, ProptestConfig};
use proteus::serve::OptimizedCache;
use proteus::splitmix64;
use proteus_graph::{Activation, ConvAttrs, Graph, Op, TensorMap};
use proteus_opt::{Optimizer, Profile};
use std::sync::{Arc, OnceLock};

/// One cacheable member: its key plus the canonical optimization result
/// every hit must be identical to.
struct Expected {
    key: bytes::Bytes,
    graph: Graph,
    params: TensorMap,
}

/// A small sentinel-sized member, distinct per `variant` (cached members
/// in production are single bucket pieces, not whole models — keeping
/// them small also keeps the race loop dense enough to actually contend).
fn member_graph(variant: usize) -> (Graph, TensorMap) {
    let channels = 2 + variant;
    let mut g = Graph::new("cache-member");
    let x = g.input([1, 3, 6, 6]);
    let c = g.add(
        Op::Conv(ConvAttrs::new(3, channels, 3).padding(1).bias(false)),
        [x],
    );
    let r = g.add(Op::Activation(Activation::Relu), [c]);
    g.set_outputs([r]);
    let params = TensorMap::init_random(&g, 1000 + variant as u64);
    (g, params)
}

/// A fixed zoo of distinct members with their fresh-optimization
/// results, computed once (optimization is deterministic, so this *is*
/// the canon every cached hit is checked against).
fn expectations() -> &'static Vec<Expected> {
    static TABLE: OnceLock<Vec<Expected>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let optimizer = Optimizer::new(Profile::OrtLike);
        (0..6)
            .map(|variant| {
                let (graph, params) = member_graph(variant);
                let key = OptimizedCache::key_for(Profile::OrtLike, &graph, &params);
                let (opt_graph, opt_params, _) = optimizer.optimize(&graph, &params);
                Expected {
                    key,
                    graph: opt_graph,
                    params: opt_params,
                }
            })
            .collect()
    })
}

/// Deterministic FIFO pin: with a full cache, each insert evicts exactly
/// the *oldest* resident entry, in insertion order. This is the
/// eviction sequence the cache has always had; the bucket storage moving
/// from `Vec::remove(0)` to `VecDeque::pop_front` must not change it.
#[test]
fn eviction_order_is_exactly_fifo() {
    let table = expectations();
    for capacity in 1..=4usize {
        let cache = OptimizedCache::new(capacity);
        for (i, item) in table.iter().enumerate() {
            cache.insert(item.key.clone(), item.graph.clone(), item.params.clone());
            assert_eq!(cache.len(), capacity.min(i + 1));
            // exactly the last `capacity` inserts are resident — the
            // prefix was evicted oldest-first
            for (j, probe) in table.iter().enumerate() {
                let resident = cache.lookup(&probe.key).is_some();
                let expected = j <= i && j + capacity > i;
                assert_eq!(
                    resident, expected,
                    "capacity {capacity}: after inserting 0..={i}, member {j} \
                     residency diverged from FIFO order"
                );
            }
        }
        // re-inserting a resident key is a no-op: it must neither evict
        // nor change the order (member 5-capacity..6 are resident here)
        let oldest = &table[table.len() - capacity];
        cache.insert(
            oldest.key.clone(),
            oldest.graph.clone(),
            oldest.params.clone(),
        );
        assert_eq!(cache.len(), capacity);
        assert!(cache.lookup(&oldest.key).is_some());
        if capacity > 1 {
            let newest = &table[table.len() - 1];
            assert!(
                cache.lookup(&newest.key).is_some(),
                "capacity {capacity}: duplicate insert evicted the newest entry"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn racing_inserts_and_lookups_stay_canonical_and_bounded(
        seed in proptest::num::u64::ANY,
        capacity in 1usize..=4,
        threads in 2usize..=4,
    ) {
        const OPS_PER_THREAD: usize = 150;
        let table = expectations();
        let cache = Arc::new(OptimizedCache::new(capacity));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let table = expectations();
                    for i in 0..OPS_PER_THREAD {
                        let draw = splitmix64(
                            seed ^ ((t as u64) << 32) ^ (i as u64).wrapping_mul(0x9E37),
                        );
                        let item = &table[(draw as usize >> 8) % table.len()];
                        if draw & 1 == 0 {
                            // more members than capacity: inserts race
                            // each other and the FIFO evictor constantly
                            cache.insert(
                                item.key.clone(),
                                item.graph.clone(),
                                item.params.clone(),
                            );
                        } else if let Some(hit) = cache.lookup(&item.key) {
                            // property 1: a hit is the fresh optimization
                            assert_eq!(
                                hit.graph, item.graph,
                                "cache hit diverged from fresh optimization"
                            );
                            assert_eq!(hit.params, item.params);
                        }
                        // property 2, at every observation point
                        let len = cache.len();
                        assert!(
                            len <= cache.capacity(),
                            "len {len} exceeded capacity {} mid-race",
                            cache.capacity()
                        );
                    }
                })
            })
            .collect();
        let mut lookups = 0usize;
        for w in workers {
            w.join().expect("cache race thread");
        }
        // reconstruct how many lookups the threads issued (same draws)
        for t in 0..threads {
            for i in 0..OPS_PER_THREAD {
                let draw = splitmix64(
                    seed ^ ((t as u64) << 32) ^ (i as u64).wrapping_mul(0x9E37),
                );
                if draw & 1 == 1 {
                    lookups += 1;
                }
            }
        }
        // property 3: accounting is exact even under contention
        assert_eq!(cache.hits() + cache.misses(), lookups);
        assert!(cache.len() <= cache.capacity());
        assert_eq!(cache.poison_heals(), 0, "no fault armed, no heal");
        // settled state: whatever survived eviction still hits canonically
        for item in table {
            if let Some(hit) = cache.lookup(&item.key) {
                assert_eq!(hit.graph, item.graph);
                assert_eq!(hit.params, item.params);
            }
        }
    }

    #[test]
    fn disabled_cache_stays_empty_under_races(seed in proptest::num::u64::ANY) {
        let cache = Arc::new(OptimizedCache::new(0));
        let workers: Vec<_> = (0..3)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let table = expectations();
                    for i in 0..40usize {
                        let draw = splitmix64(seed ^ (t as u64) ^ ((i as u64) << 16));
                        let item = &table[(draw as usize >> 8) % table.len()];
                        cache.insert(
                            item.key.clone(),
                            item.graph.clone(),
                            item.params.clone(),
                        );
                        assert!(cache.lookup(&item.key).is_none());
                        assert_eq!(cache.len(), 0);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("cache race thread");
        }
        assert_eq!(cache.hits(), 0);
    }
}
