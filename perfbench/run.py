#!/usr/bin/env python3
"""Owner round-trip benchmark for proteus-serve.

Builds the `proteus-serve` daemon and the load generator in this
directory from source, runs one workload and prints the metrics named in
BENCHMARK.json. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload structure-zoo --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
window and reports the per-layer metrics. The exit code is nonzero when
the build fails, a served result fails the correctness gate, or the
traced layers leave more than 10% of request time unattributed.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("structure-zoo", "sentinel-weights", "tenant-mix")

# A run is split over PARTS load-generator processes, one after the
# other, each with its own daemon, set-up and warm-up, serving its own
# stretch of the request streams; their samples are pooled. Speed
# differs by ~10% from one process to the next on a shared 2-core host,
# and pooling narrows the run-to-run spread (see NOISE.md).
PARTS = 2
# The request class whose latency each workload reports, and the tail
# percentile it reports: the highest that leaves at least ten samples
# beyond it at the benchmark's run length. tenant-mix reports the small
# (structure) client, the one that queues behind bulk requests.
FOCUS = {
    "structure-zoo": ("structure", 0.99),
    "sentinel-weights": ("weighted", 0.75),
    "tenant-mix": ("structure", 0.99),
}
# ROADMAP bound on request time the traced layers may leave unexplained.
MAX_UNATTRIBUTED_SHARE = 0.10
# Time one part may take beyond its measured seconds (set-up, warm-up
# that fills the daemon cache, gate); with 24 s a run then ends within
# 144 s, under the 180 s limit.
PART_OVERHEAD_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cargo_build(args, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        raise SystemExit(f"build failed: {' '.join(cmd)}")


def build():
    """Builds the daemon (root workspace) and the load generator (its
    own workspace) into one target directory; returns their paths."""
    for needed in ("Cargo.toml", os.path.join("crates", "net"), os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"not a Proteus source tree: {needed} is missing under {ROOT}")
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    cargo_build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                 "-p", "proteus-net", "--bin", "proteus-serve"], target_dir)
    cargo_build(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    return (os.path.join(release, "proteus-serve"),
            os.path.join(release, "perfbench-load"),
            os.path.join(target_dir, "perfbench-work"))


def run_load(load_bin, serve_bin, work_dir, a, part):
    cmd = [load_bin, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds / PARTS), "--trace", str(a.trace),
           "--serve-bin", serve_bin, "--work-dir", work_dir,
           "--part", f"{part}/{PARTS}"]
    timeout = a.seconds / PARTS + PART_OVERHEAD_S
    # own process group, so a timeout or a signal to this script also
    # takes down the daemon the load generator started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True, text=True)

    def stop(signum=None, frame=None):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if signum is not None:
            raise SystemExit(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        raise SystemExit(f"load generator exceeded {timeout:.0f} s")
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    if proc.returncode != 0:
        raise SystemExit(f"load generator failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def merge_windows(windows):
    """Pools the windows of a run's parts: samples and counts add up."""
    classes = {}
    for w in windows:
        for name, c in w["classes"].items():
            m = classes.setdefault(name, {"latencies_ms": [], "attempted": 0, "failed": 0,
                                          "errors": {}, "up_bytes": 0, "down_bytes": 0})
            m["latencies_ms"] += c["latencies_ms"]
            for k in ("attempted", "failed", "up_bytes", "down_bytes"):
                m[k] += c[k]
            for code, n in c["errors"].items():
                m["errors"][code] = m["errors"].get(code, 0) + n
    return {"wall_s": sum(w["wall_s"] for w in windows), "classes": classes}


def merge_parts(parts):
    """One run's measurements from its parts: set-up samples and window
    samples pool, CPU ticks add up, peak RSS is the largest part's."""
    raw = {k: [v for p in parts for v in p[k]]
           for k in ("setup_s", "train_s", "daemon_ready_s", "warm_s")}
    raw.update({k: parts[0][k] for k in ("artifact_bytes", "sentinels_built")})
    raw.update({k: sum(p[k] for p in parts)
                for k in ("owner_cpu_ticks", "serve_cpu_ticks", "gate_checked", "warm_requests")})
    if not all(p["hwm_reset"] for p in parts):
        log("warning: the kernel refused to reset VmHWM; peak RSS includes set-up")
    for k in ("owner_hwm", "serve_hwm"):
        raw[f"{k}_parts"] = [p[f"{k}_kb"] for p in parts]
        raw[f"{k}_kb"] = max(raw[f"{k}_parts"])
    raw["window"] = merge_windows([p["window"] for p in parts])
    if "trace" in parts[0]:
        raw["traced_window"] = merge_windows([p["traced_window"] for p in parts])
        raw["trace"] = {k: sum(p["trace"][k] for p in parts) for k in parts[0]["trace"]}
        raw["trace"]["cache_entries"] = statistics.median(
            p["trace"]["cache_entries"] for p in parts)
    return raw


def percentile(sorted_ms, failed, q):
    """Nearest-rank percentile; failed requests count as slower than
    every completed one. Returns (value, samples beyond it)."""
    n = len(sorted_ms) + failed
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if rank > len(sorted_ms):
        return math.inf, beyond
    return sorted_ms[rank - 1], beyond


def class_summary(window):
    """Per-class counts and latency percentiles, printed for the reader."""
    lines = []
    for name, c in sorted(window["classes"].items()):
        lat = sorted(c["latencies_ms"])
        p50, _ = percentile(lat, c["failed"], 0.50)
        p99, beyond = percentile(lat, c["failed"], 0.99)
        lines.append(
            f"  {name:<10} sent {c['attempted']:>5}  ok {len(lat):>5}  failed {c['failed']:>3}"
            f"  p50 {p50:8.2f} ms  p99 {p99:8.2f} ms ({beyond} beyond)"
            + (f"  errors {c['errors']}" if c["errors"] else ""))
    return "\n".join(lines)


def totals(window):
    classes = window["classes"].values()
    attempted = sum(c["attempted"] for c in classes)
    failed = sum(c["failed"] for c in classes)
    wire = sum(c["up_bytes"] + c["down_bytes"] for c in classes)
    return attempted, failed, attempted - failed, wire


def end_to_end(raw, workload):
    w = raw["window"]
    attempted, failed, completed, wire = totals(w)
    if completed == 0:
        raise SystemExit("no request completed")
    focus, tail_q = FOCUS[workload]
    c = w["classes"][focus]
    lat = sorted(c["latencies_ms"])
    p50, _ = percentile(lat, c["failed"], 0.50)
    tail, beyond = percentile(lat, c["failed"], tail_q)
    if beyond < 10:
        log(f"warning: p{round(tail_q * 100)} of {focus} requests has only {beyond} samples beyond it")
    tick_ms = 1000.0 / os.sysconf("SC_CLK_TCK")
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "throughput_rps": (completed / w["wall_s"], "1/s"),
        "wire_mb_per_s": (wire / 1e6 / w["wall_s"], "MB/s"),
        "wire_mb_per_request": (wire / 1e6 / completed, "MB"),
        "owner_cpu_ms_per_request": (raw["owner_cpu_ticks"] * tick_ms / completed, "ms"),
        "serve_cpu_ms_per_request": (raw["serve_cpu_ticks"] * tick_ms / completed, "ms"),
        "owner_peak_rss_mb": (raw["owner_hwm_kb"] / 1024.0, "MB"),
        "serve_peak_rss_mb": (raw["serve_hwm_kb"] / 1024.0, "MB"),
    }
    return attempted, failed, metrics


def reconcile_server(server_ns, round_trip_ns):
    """Checks the replayed server layers against the round trips they
    sit inside. The daemon spreads a request's frames over its threads,
    so its layers may add up to more than the round trip (a negative
    residual), but never to more than every core busy for all of it."""
    cores = len(os.sched_getaffinity(0))
    if server_ns > cores * round_trip_ns:
        log(f"error: replayed server layers take {server_ns / round_trip_ns:.2f} round trips, "
            f"more than {cores} cores can do inside them; the server attribution is wrong")
        sys.exit(1)
    if server_ns > round_trip_ns:
        log(f"warning: replayed server layers exceed the round trip by "
            f"{(server_ns - round_trip_ns) / round_trip_ns:.1%} (the daemon overlaps frames); "
            f"serve.residual_ms_per_request is negative")


def per_layer(raw, workload):
    t = raw["trace"]
    n = t["requests"]
    if n == 0:
        raise SystemExit("traced window completed no request")
    per = lambda ns: ns / 1e6 / n
    mb = lambda b: b / 1e6 / n
    attributed = sum(t[k] for k in ("partition_ns", "frame_ns", "encode_ns", "connect_ns",
                                    "round_trip_ns", "decode_ns", "reassemble_ns"))
    unattributed = t["wall_ns"] - attributed
    server = sum(t[k] for k in ("server_decode_ns", "key_ns", "lookup_insert_ns",
                                "optimize_ns", "server_encode_ns"))
    reconcile_server(server, t["round_trip_ns"])
    inv = t["inventory_hits"] + t["inventory_misses"]
    up = sum(c["up_bytes"] for c in raw["traced_window"]["classes"].values())
    down = sum(c["down_bytes"] for c in raw["traced_window"]["classes"].values())
    # next_frame's own time, split between sentinel draw and weight
    # synthesis in the proportion a replay of the same session shows
    synth_ns = t["frame_ns"] * min(1.0, t["replay_synth_ns"] / t["replay_frame_ns"])
    focus, _ = FOCUS[workload]
    mean = lambda win: statistics.fmean(win["classes"][focus]["latencies_ms"])
    metrics = {
        "partition.ms_per_request": (per(t["partition_ns"]), "ms"),
        "partition.pieces_per_request": (t["pieces"] / n, "count"),
        "sentinel.frame_ms_per_request": (per(t["frame_ns"] - synth_ns), "ms"),
        "sentinel.inventory_hit_ratio": (t["inventory_hits"] / inv if inv else 0.0, "ratio"),
        "sentinel.members_per_request": (t["members"] / n, "count"),
        "setup.warm_s": (statistics.median(raw["warm_s"]), "s"),
        "setup.sentinels_built": (raw["sentinels_built"], "count"),
        "weights.synth_ms_per_request": (per(synth_ns), "ms"),
        "weights.sentinel_mb_per_request": (mb(t["sentinel_bytes"]), "MB"),
        "weights.real_mb_per_request": (mb(t["real_bytes"]), "MB"),
        "wire.encode_ms_per_request": (per(t["encode_ns"]), "ms"),
        "wire.encode_mb_per_s": (up / 1e6 / (t["encode_ns"] / 1e9) if t["encode_ns"] else 0.0, "MB/s"),
        "wire.decode_ms_per_request": (per(t["decode_ns"]), "ms"),
        "wire.server_decode_ms_per_request": (per(t["server_decode_ns"]), "ms"),
        "wire.server_encode_ms_per_request": (per(t["server_encode_ns"]), "ms"),
        "net.connect_ms": (per(t["connect_ns"]), "ms"),
        "net.round_trip_ms_per_request": (per(t["round_trip_ns"]), "ms"),
        "net.upload_mb_per_request": (mb(up), "MB"),
        "net.download_mb_per_request": (mb(down), "MB"),
        "net.requests_failed": (t["failed"], "count"),
        "cache.key_ms_per_request": (per(t["key_ns"]), "ms"),
        "cache.lookup_ms_per_request": (per(t["lookup_insert_ns"]), "ms"),
        "cache.hit_ratio": (t["hits"] / t["lookups"] if t["lookups"] else 0.0, "ratio"),
        "cache.entries": (t["cache_entries"], "count"),
        "opt.optimize_ms_per_request": (per(t["optimize_ns"]), "ms"),
        "opt.rewrites_per_request": (t["rewrites"] / n, "count"),
        "opt.nodes_removed_per_request": (t["nodes_removed"] / n, "count"),
        "serve.residual_ms_per_request": (per(t["round_trip_ns"] - server), "ms"),
        "reassemble.ms_per_request": (per(t["reassemble_ns"]), "ms"),
        "setup.train_s": (statistics.median(raw["train_s"]), "s"),
        "setup.artifact_mb": (raw["artifact_bytes"] / 1e6, "MB"),
        "setup.daemon_ready_s": (statistics.median(raw["daemon_ready_s"]), "s"),
        "unattributed_ms_per_request": (per(unattributed), "ms"),
        "unattributed_share": (unattributed / t["wall_ns"], "ratio"),
        "trace.overhead_ms_per_request": (mean(raw["traced_window"]) - mean(raw["window"]), "ms"),
    }
    attempted, failed, _, _ = totals(raw["traced_window"])
    return attempted, failed, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds <= 0 or a.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")

    serve_bin, load_bin, work_dir = build()
    raw = merge_parts([run_load(load_bin, serve_bin, work_dir, a, part)
                       for part in range(PARTS)])

    print(f"{a.workload} seed {a.seed}, {PARTS} parts: setup median "
          f"{statistics.median(raw['setup_s']):.3f} s over {len(raw['setup_s'])}, "
          f"{raw['warm_requests']} warm-up request(s) to fill the daemon cache, "
          f"gate checked {raw['gate_checked']} request(s), peak RSS per part: owner "
          + " ".join(f"{kb / 1024:.0f}" for kb in raw["owner_hwm_parts"]) + " MB, daemon "
          + " ".join(f"{kb / 1024:.0f}" for kb in raw["serve_hwm_parts"]) + " MB")
    if a.trace:
        print(f"traced window (first half), {raw['traced_window']['wall_s']:.2f} s:\n"
              + class_summary(raw["traced_window"]))
    print("untraced window" + (" (second half)" if a.trace else "")
          + f", {raw['window']['wall_s']:.2f} s:\n" + class_summary(raw["window"]))
    if a.trace:
        attempted, failed, metrics = per_layer(raw, a.workload)
    else:
        attempted, failed, metrics = end_to_end(raw, a.workload)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.4f} {unit}")

    if not all(math.isfinite(v) for v, _ in metrics.values()):
        log("error: a metric is not finite (more requests failed than the percentile allows)")
        sys.exit(1)
    if a.trace and metrics["unattributed_share"][0] > MAX_UNATTRIBUTED_SHARE:
        log(f"error: traced layers leave {metrics['unattributed_share'][0]:.1%} of request "
            f"time unattributed (bound {MAX_UNATTRIBUTED_SHARE:.0%})")
        sys.exit(1)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
