"""Arithmetic of the simulator benchmark: span self times, the tail
percentile rule, metric names, the result-line schema, and the metrics
derived from one simbench run (the JSON document simbench.cc writes).

Pure functions only; run.py does the building, running and printing.
"""

import hashlib
import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Gated end-to-end metrics: defined (and never 0) on every workload.
# name -> unit. Must match BENCHMARK.json's end_to_end list. wall_norm
# is the pass time in units of the host-speed probe timed inside the
# same pass (README.md); raw seconds are printed beside it.
END_TO_END = {
    "wall_norm": "probes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: name -> unit. Must match
# BENCHMARK.json's per_layer list. See README.md for what each means
# and which end-to-end metric it should move on which workload.
PER_LAYER = {
    "protocols.make_s": "s",
    "workloads.make_s": "s",
    "workloads.program_s": "s",
    "workloads.next_calls": "count",
    "workloads.next_s": "s",
    "gpu.construct_s": "s",
    "gpu.run_s": "s",
    "gpu.run_ns_per_cycle": "ns",
    "gpu.sim_cycles": "cycles",
    "gpu.sm_ticks": "count",
    "gpu.issue_utilization": "ratio",
    "gpu.ff_cycles": "cycles",
    "gpu.ff_share": "ratio",
    "gpu.activity_sm": "ratio",
    "gpu.activity_l1": "ratio",
    "gpu.activity_l2": "ratio",
    "gpu.activity_noc": "ratio",
    "gpu.activity_dram": "ratio",
    "gpu.instructions": "count",
    "gpu.mem_stall_cycles": "cycles",
    "core.l1_accepted": "count",
    "core.l1_rejects_mshr_full": "count",
    "core.l1_accept_ratio": "ratio",
    "core.l2_accesses": "count",
    "core.l2_stall_mshr_full": "count",
    "core.l1_renewals_sent": "count",
    "core.l1_miss_expired": "count",
    "core.ts_resets": "count",
    "protocols.l1_accepted": "count",
    "protocols.l1_rejects_mshr_full": "count",
    "protocols.l1_accept_ratio": "ratio",
    "protocols.l2_accesses": "count",
    "protocols.l2_stall_mshr_full": "count",
    "noc.packets": "count",
    "noc.bytes": "bytes",
    "noc.ticks": "count",
    "noc.pops_per_tick": "1/tick",
    "noc.latency_p99": "cycles",
    "mem.dram_accesses": "count",
    "harness.checker_s": "s",
    "harness.checker_calls": "count",
    "harness.verify_s": "s",
    "energy.compute_s": "s",
    "serve.lookup_s": "s",
    "serve.insert_s": "s",
    "serve.readback_s": "s",
    "serve.bytes_written": "bytes",
    "verify.setup_s": "s",
    "verify.explore_s": "s",
    "verify.states": "count",
    "verify.transitions": "count",
    "verify.dedup_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# Per-layer host times: metric -> (span or leaf name, self time?).
SPAN_METRICS = {
    "protocols.make_s": ("protocols.makeProtocol", True),
    "workloads.make_s": ("workloads.makeWorkload", True),
    "workloads.program_s": ("workloads.makeProgram", False),
    "workloads.next_s": ("workloads.next", False),
    "gpu.construct_s": ("gpu.construct", True),
    "gpu.run_s": ("gpu.run", True),
    "harness.checker_s": ("harness.checker", False),
    "harness.verify_s": ("harness.verify", True),
    "energy.compute_s": ("energy.compute", True),
    "serve.lookup_s": ("serve.lookup", True),
    "serve.insert_s": ("serve.insert", True),
    "serve.readback_s": ("serve.readback", True),
    "verify.setup_s": ("verify.setup", True),
    "verify.explore_s": ("verify.explore", True),
}


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def self_times(spans, leaves):
    """Self time in seconds of each span: its duration minus the part
    of its interval covered by its child spans and leaf records.

    spans: [name, parent, start_ns, end_ns] with parent an index into
    spans or -1. leaves: [name, parent, count, total_ns]; a leaf's
    calls are sequential on one thread inside the parent, so they
    cover exactly total_ns of it.
    """
    children = [[] for _ in spans]
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    covered_by_leaves = [0] * len(spans)
    for name, parent, count, total in leaves:
        if parent >= 0:
            covered_by_leaves[parent] += total
    out = []
    for i, (name, parent, start, end) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for s, e in sorted(children[i]):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(max(0, end - start - covered - covered_by_leaves[i]) * 1e-9)
    return out


def tail(values):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples) or None when fewer than 11
    samples exist. The value is the 11th largest sample; the share of
    samples at or below it is the percentile.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def ratio(num, den):
    return num / den if den else 0.0


def validate_result(obj, expected_metrics):
    """Schema of the result line. Returns a list of problems."""
    problems = []
    if not isinstance(obj, dict):
        return ["result is not an object"]
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(obj))
        return problems
    if not isinstance(obj["correct"], bool):
        problems.append("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool):
            problems.append("%s is not a whole number" % k)
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(expected_metrics):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(expected_metrics) - set(metrics)),
            sorted(set(metrics) - set(expected_metrics))))
    for name, m in metrics.items():
        if not valid_name(name):
            problems.append("bad metric name %r" % name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("%s: not {value, unit}" % name)
            continue
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            problems.append("%s: value %r is not a finite number" % (name, v))
        if not isinstance(m["unit"], str) or not UNIT_RE.fullmatch(m["unit"]):
            problems.append("%s: bad unit %r" % (name, m["unit"]))
        elif name in expected_metrics and m["unit"] != expected_metrics[name]:
            problems.append("%s: unit %s, expected %s" % (
                name, m["unit"], expected_metrics[name]))
    return problems


def workload_digest(pass_):
    text = "".join("%s %s\n" % (c["label"], c["digest"])
                   for c in pass_["cells"])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def determinism_problems(passes):
    """Every pass of one run must produce the same cell digests, cycle
    counts and work counts, traced or not; traced passes must also
    agree on the wrapper call counts."""
    problems = []
    ref = passes[0]
    ref_cells = [(c["label"], c["digest"], c["cycles"]) for c in ref["cells"]]
    ref_leaf = None
    for k, p in enumerate(passes):
        cells = [(c["label"], c["digest"], c["cycles"]) for c in p["cells"]]
        if cells != ref_cells:
            problems.append("pass %d: cell digests differ from pass 0" % k)
        if p["counts"] != ref["counts"]:
            keys = sorted(key for key in set(p["counts"]) | set(ref["counts"])
                          if p["counts"].get(key) != ref["counts"].get(key))
            problems.append("pass %d: work counts differ from pass 0: %s"
                            % (k, ", ".join(keys[:5])))
        if p["traced"]:
            leaf = leaf_counts(p)
            if ref_leaf is None:
                ref_leaf = leaf
            elif leaf != ref_leaf:
                problems.append("pass %d: wrapper call counts differ" % k)
    return problems


def leaf_counts(pass_):
    counts = {}
    for name, parent, count, total in pass_["leaves"]:
        counts[name] = counts.get(name, 0) + count
    return counts


def layer_times(pass_):
    """Per-layer host seconds of one traced pass (SPAN_METRICS)."""
    selfs = self_times(pass_["spans"], pass_["leaves"])
    by_span, by_leaf = {}, {}
    for (name, *_), st in zip(pass_["spans"], selfs):
        by_span[name] = by_span.get(name, 0.0) + st
    for name, parent, count, total in pass_["leaves"]:
        by_leaf[name] = by_leaf.get(name, 0.0) + total * 1e-9
    return {metric: (by_span if is_span else by_leaf).get(name, 0.0)
            for metric, (name, is_span) in SPAN_METRICS.items()}


def end_to_end(doc):
    """Every end-to-end figure of one run, from its untraced passes.

    Values that do not apply to the workload are None.
    """
    passes = [p for p in doc["passes"] if not p["traced"]]
    cells = [c for p in passes for c in p["cells"]]
    explore = doc["workload"] == "explore_sc"
    out = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "wall_norm": statistics.median(p["wall_s"] / p["probe_s"]
                                       for p in passes),
        "probe_s": statistics.median(p["probe_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "failed_frac": ratio(doc["failed"], doc["attempted"]),
        "cell_s_p50": statistics.median(c["secs"] for c in cells),
        "cell_s_tail": tail([c["secs"] for c in cells]),
        "mcyc_per_s": None,
        "kinstr_per_s": None,
        "sim_cycles": None,
        "states_per_s": None,
        "passes": len(passes),
    }
    if explore:
        out["states_per_s"] = statistics.median(
            p["counts"]["verify.states"] / p["cells"][0]["secs"]
            for p in passes)
    else:
        out["mcyc_per_s"] = statistics.median(
            geomean([c["cycles"] / c["secs"] * 1e-6 for c in p["cells"]])
            for p in passes)
        out["kinstr_per_s"] = statistics.median(
            sum(c["instructions"] for c in p["cells"])
            / sum(c["secs"] for c in p["cells"]) * 1e-3 for p in passes)
        out["sim_cycles"] = passes[0]["counts"]["gpu.sim_cycles"]
    return out


def per_layer(doc):
    """Every PER_LAYER metric of one traced run."""
    traced = [p for p in doc["passes"] if p["traced"]]
    untraced = [p for p in doc["passes"] if not p["traced"]]
    c = dict(traced[0]["counts"])
    leaf = leaf_counts(traced[0])
    get = lambda k: c.get(k, 0.0)
    times = [layer_times(p) for p in traced]
    out = {m: statistics.median(t[m] for t in times) for m in SPAN_METRICS}

    cycles = get("gpu.sim_cycles")
    out["workloads.next_calls"] = leaf.get("workloads.next", 0)
    out["harness.checker_calls"] = leaf.get("harness.checker", 0)
    out["gpu.sim_cycles"] = cycles
    out["gpu.run_ns_per_cycle"] = ratio(out["gpu.run_s"] * 1e9, cycles)
    out["gpu.sm_ticks"] = get("gpu.sm_ticks")
    out["gpu.issue_utilization"] = ratio(get("gpu.issue_slots_used"),
                                         get("gpu.sm_ticks"))
    out["gpu.ff_cycles"] = get("gpu.ff_cycles")
    out["gpu.ff_share"] = ratio(get("gpu.ff_cycles"), cycles)
    for fam in ("sm", "l1", "l2", "noc", "dram"):
        out["gpu.activity_" + fam] = ratio(
            get("gpu.activity_%s_cycles" % fam), cycles)
    out["gpu.instructions"] = get("gpu.instructions")
    out["gpu.mem_stall_cycles"] = get("gpu.mem_stall_cycles")
    for layer in ("core", "protocols"):
        tags = get(layer + ".l1_tag_accesses")
        rejects = get(layer + ".l1_rejects_mshr_full")
        accepted = tags - rejects - get(layer + ".l1_wb_full_rejects")
        out[layer + ".l1_accepted"] = accepted
        out[layer + ".l1_rejects_mshr_full"] = rejects
        out[layer + ".l1_accept_ratio"] = ratio(accepted, tags)
        out[layer + ".l2_accesses"] = get(layer + ".l2_accesses")
        out[layer + ".l2_stall_mshr_full"] = get(layer + ".l2_stall_mshr_full")
    for k in ("core.l1_renewals_sent", "core.l1_miss_expired",
              "core.ts_resets", "noc.packets", "noc.bytes", "noc.ticks",
              "noc.latency_p99", "mem.dram_accesses", "serve.bytes_written",
              "verify.states", "verify.transitions"):
        out[k] = get(k)
    out["noc.pops_per_tick"] = ratio(get("noc.packets"), get("noc.ticks"))
    out["verify.dedup_ratio"] = ratio(get("verify.deduped"),
                                      get("verify.transitions"))
    # Compared in probe units, so host drift between the traced and
    # untraced passes cancels; seconds are that share of the untraced
    # pass time.
    norm_t = statistics.median(p["wall_s"] / p["probe_s"] for p in traced)
    norm_u = statistics.median(p["wall_s"] / p["probe_s"] for p in untraced)
    out["trace.overhead_share"] = ratio(norm_t - norm_u, norm_u)
    out["trace.overhead_s"] = out["trace.overhead_share"] * statistics.median(
        p["wall_s"] for p in untraced)
    return out


def spread(values):
    """Distance between the first and third quartile, as a share of
    the median (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
