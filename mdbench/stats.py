"""Pure logic of the metadata-op benchmark: percentiles, slicing, span self
time, digest comparison and the metric tables. No I/O beyond the digest
store; tested by test_stats.py."""

import json
import math
import os
import statistics

MIN_TAIL = 10  # samples a reported percentile must have beyond it

# Host CPU of one reference chunk (mdbench_sim.cc RefKernel) on the
# reference machine: the fastest it ran on the shared 4-vCPU Intel Xeon VM
# the baseline was taken on. Host times are reported as they would read on
# a core running the chunk that fast.
REF_CHUNK_MS = 1.3


class BenchError(Exception):
    """A correctness or sufficiency check failed."""


def percentile(values, q, min_tail=MIN_TAIL):
    """Nearest-rank q-quantile (0 < q < 1) of `values`.

    Refuses (BenchError) when fewer than `min_tail` samples lie beyond the
    rank, so a reported tail percentile always rests on at least that many
    slower samples."""
    n = len(values)
    if n == 0:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < min_tail:
        raise BenchError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it "
            f"(need {min_tail})")
    return sorted(values)[rank - 1]


def slice_cpu_ms(clock_ns):
    """Per-slice host CPU (ms) of equal sim-time slices from the CPU clock
    read at each slice's start and end: [start0, end0, start1, end1, ...].
    Work between one slice's end and the next's start is not counted."""
    if not clock_ns or len(clock_ns) % 2:
        raise BenchError("slice clock readings must come in start/end pairs")
    out = []
    prev_end = None
    for start, end in zip(clock_ns[0::2], clock_ns[1::2]):
        if end < start or (prev_end is not None and start < prev_end):
            raise BenchError("CPU clock went backwards between slices")
        out.append((end - start) / 1e6)
        prev_end = end
    return out


def speed_factor(ref_ns):
    """Scale from host CPU measured now to host CPU on the reference
    machine: REF_CHUNK_MS over the median reference chunk of `ref_ns`."""
    if not ref_ns:
        raise BenchError("no reference chunk ran")
    return REF_CHUNK_MS * 1e6 / statistics.median(ref_ns)


def self_times(rows):
    """Self time per span name: each span's duration minus the part of its
    interval that its child spans cover.

    `rows` are [name, parent_index, start_ns, end_ns] with parent -1 for a
    root; children may overlap each other, so their union is subtracted."""
    children = {}
    for i, (_, parent, _, _) in enumerate(rows):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = {}
    for i, (name, _, start, end) in enumerate(rows):
        if end < start:
            raise BenchError(f"span {i} ends before it starts")
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda k: rows[k][2]):
            s, e = max(rows[c][2], start), min(rows[c][3], end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[name] = out.get(name, 0) + (end - start - covered)
    return out


def digest_mismatches(windows):
    """Windows that repeat a sub-run must reproduce its digest. Returns a
    list of human-readable mismatches (empty when all agree)."""
    first = {}
    bad = []
    for i, w in enumerate(windows):
        ref = first.setdefault(w["subrun"], (i, w["digest"]))
        if w["digest"] != ref[1]:
            bad.append(f"window {i} digest {w['digest']} != window {ref[0]} "
                       f"digest {ref[1]} (sub-run {w['subrun']})")
    return bad


class DigestStore:
    """Digests seen per (binary, workload, seed), kept across runs in one
    build directory: a later run of the same build and seed must simulate
    the same run."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path) as f:
                self.seen = json.load(f)
        except (OSError, ValueError):
            self.seen = {}

    def check_and_record(self, key, digest):
        """Returns a mismatch message, or None (and records the digest)."""
        prev = self.seen.get(key)
        if prev is not None and prev != digest:
            return f"digest {digest} differs from an earlier run's {prev}"
        self.seen[key] = digest
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.seen, f, sort_keys=True)
        os.replace(tmp, self.path)
        return None


# ---- metric tables ----------------------------------------------------------

def sim_runs(raw):
    """The windows that carry simulated data (one per sub-run)."""
    return [w for w in raw["windows"] if "latency_ns" in w]


def end_to_end(raw):
    """Every end-to-end metric of an untraced run: {name: (value, unit)}."""
    runs = sim_runs(raw)
    ok = sum(w["ok"] for w in runs)
    attempted = ok + sum(w["failed"] for w in runs)
    # Host times of a window scale by the speed the reference chunks run in
    # it measured; set-up scales by the whole run's.
    cpu_by_sub = {}
    slices = []
    for w in raw["windows"]:
        f = speed_factor(w["ref_ns"])
        cpu_by_sub.setdefault(w["subrun"], []).append(w["cpu_s"] * f)
        slices += [s * f for s in slice_cpu_ms(w["slice_clock_ns"])]
    all_ref = [x for w in raw["windows"] for x in w["ref_ns"]]
    pre_ns, fault_ns, post_ns = raw["phase_ns"]
    phase = [sum(w["phase_ok"][p] for w in runs) for p in range(3)]
    pre_rate = phase[0] / pre_ns
    if ok == 0 or pre_rate == 0:
        raise BenchError("no operation completed in the measured window")
    latencies = [x for w in runs for x in w["latency_ns"]]
    return {
        "setup_s": (statistics.median(raw["setup_cpu_s"])
                    * speed_factor(all_ref), "s"),
        # Median window CPU of each sub-run, pooled over the sub-runs.
        "sim_ops_per_cpu_s": (ok / sum(statistics.median(v)
                                       for v in cpu_by_sub.values()), "1/s"),
        "slice_cpu_ms.p50": (percentile(slices, 0.50), "ms"),
        "slice_cpu_ms.p95": (percentile(slices, 0.95), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "sim_ops_per_s": (ok / (raw["window_s"] * len(runs)), "1/s"),
        "sim_lat_p50_ms": (percentile(latencies, 0.50) / 1e6, "ms"),
        "sim_lat_p99_ms": (percentile(latencies, 0.99) / 1e6, "ms"),
        "ok_op_ratio": (ok / attempted, "ratio"),
        "fault_goodput_ratio": (phase[1] / fault_ns / pre_rate, "ratio"),
        "post_heal_goodput_ratio": (phase[2] / post_ns / pre_rate, "ratio"),
    }


READ_OPS = {"listDir", "stat", "readFile"}
CRIT_LAYERS = ("client", "namenode", "ndb")
CRIT_CAUSES = ("cpu", "cpu_queue", "disk", "lock_wait", "net_intra_az",
               "net_inter_az", "retry", "work")

# Zone-name prefix -> per-layer bucket (first match wins).
ZONE_LAYERS = (
    ("nn.", "hopsfs.nn"),
    ("ndb.tc.sweep", "ndb.background"),
    ("ndb.gcp.", "ndb.background"),
    ("ndb.heartbeat.", "ndb.background"),
    ("ndb.tc.", "ndb.tc"),
    ("ndb.ldm.", "ndb.ldm"),
    ("ndb.redo.", "ndb.redo"),
    ("ndb.recovery.", "ndb.recovery"),
    ("blocks.", "blocks"),
)


def zone_layer(name):
    for prefix, layer in ZONE_LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


def per_layer(raw):
    """Every per-layer metric of a traced run: {name: (value, unit)}.

    Window 0 is the untraced sliced window, window 1 the same simulated run
    traced; the counters are exact and come from window 0. Host timings
    here are raw (not scaled by the reference chunk): they are shares of
    one run, and host.ref_chunk_ms says how fast the machine was."""
    base, traced = raw["windows"][0], raw["windows"][1]
    ops = base["ok"]
    if ops == 0:
        raise BenchError("no operation completed in the traced window")
    c = base["counters"]
    run_ns = traced["cpu_s"] * 1e9

    zone_cpu, zone_allocs = {}, {}
    for z in raw["zones"]:
        layer = zone_layer(z["name"])
        zone_cpu[layer] = zone_cpu.get(layer, 0) + z["self_cpu_ns"]
        zone_allocs[layer] = zone_allocs.get(layer, 0) + z["self_allocs"]
    names = raw["spans"]["names"]
    span_self = {names[k]: v for k, v in
                 self_times(raw["spans"]["rows"]).items()}
    attributed = sum(zone_cpu.values()) + sum(span_self.values())

    def us_per_op(ns):
        return ns / 1e3 / ops

    m = {
        "sim.events_per_op": (c["events"] / ops, "count"),
        "net.msgs_per_op": (c["msgs"] / ops, "count"),
        "sim.cpu_ns_per_event": (base["cpu_s"] * 1e9 / c["events"], "ns"),
        "net.bytes_per_op": (c["bytes"] / ops, "B"),
        "net.inter_az_bytes_per_op": (c["inter_az_bytes"] / ops, "B"),
        "net.dropped": (c["dropped"], "count"),
        "hopsfs.nn.cpu_us_per_op": (us_per_op(zone_cpu.get("hopsfs.nn", 0)),
                                    "us"),
        "hopsfs.nn.allocs_per_op": (zone_allocs.get("hopsfs.nn", 0) / ops,
                                    "count"),
        "hopsfs.client.submit_us_per_op": (
            us_per_op(span_self.get("hopsfs.client.submit", 0)), "us"),
        "hopsfs.nn.txn_retries_per_op": (c["nn_txn_retries"] / ops, "count"),
        "hopsfs.nn.commit_yield": (
            c["nn_served"] / max(1, c["nn_served"] + c["nn_txn_retries"]),
            "ratio"),
        "nn.cpu_util": (c["nn_cpu_util"], "ratio"),
        "ndb.cpu_util": (c["ndb_cpu_util"], "ratio"),
        "ndb.allocs_per_op": (sum(v for k, v in zone_allocs.items()
                                  if k.startswith("ndb.")) / ops, "count"),
        "ndb.lock_waits_per_op": (c["lock_waits"] / ops, "count"),
        "ndb.lock_wait_ms_avg": (
            c["lock_wait_ns"] / 1e6 / c["lock_waits"] if c["lock_waits"]
            else 0.0, "ms"),
        "ndb.lock_timeouts": (c["lock_timeouts"], "count"),
        "ndb.disk_write_bytes_per_op": (c["disk_write_bytes"] / ops, "B"),
        "ndb.recovery.replay_entries": (
            sum(r["replay_entries"] for r in base["recoveries"]), "count"),
        "ndb.recovery.max_s": (
            max([r["serving_s"] for r in base["recoveries"]], default=0.0),
            "s"),
        "ndb.recovery.cpu_us": (zone_cpu.get("ndb.recovery", 0) / 1e3, "us"),
        "resilience.retries_per_op": (c["retries"] / ops, "count"),
        "resilience.hedges_per_op": (c["hedges"] / ops, "count"),
        "resilience.sheds": (c["sheds"], "count"),
        "resilience.breaker_transitions": (c["breaker_transitions"], "count"),
        "workload.gen_us_per_op": (
            us_per_op(span_self.get("workload.gen", 0)), "us"),
        "workload.complete_us_per_op": (
            us_per_op(span_self.get("workload.complete", 0)), "us"),
        "host.ref_chunk_ms": (statistics.median(base["ref_ns"]) / 1e6, "ms"),
        "host.unattributed_us_per_op": (us_per_op(run_ns - attributed), "us"),
        "prof.coverage": (attributed / run_ns, "ratio"),
        "trace_overhead": (traced["cpu_s"] / base["cpu_s"] - 1, "ratio"),
    }
    for layer in ("tc", "ldm", "redo", "background"):
        m[f"ndb.{layer}.cpu_us_per_op"] = (
            us_per_op(zone_cpu.get(f"ndb.{layer}", 0)), "us")

    # Sampled critical path, averaged per sampled op of each kind.
    for kind in ("read", "write"):
        sel = [b for op, b in raw["crit"].items()
               if (op in READ_OPS) == (kind == "read")]
        n = sum(b["ops"] for b in sel)
        for key, parts in (("layer", CRIT_LAYERS), ("cause", CRIT_CAUSES)):
            for part in parts:
                total = sum(b[key].get(part, 0) for b in sel)
                m[f"crit.{kind}.{part}_ms"] = (
                    total / 1e6 / n if n else 0.0, "ms")
    return m
