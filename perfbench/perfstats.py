"""Turns what tdm_perfbench measured into the benchmark's named metrics.

The benchmark binary, tdm_perfbench, prints raw sample series, check
accounting and notes (and, in traced runs, writes spans as JSON
lines). This module holds the metric definitions, the statistics
(median, percentiles and the ten-samples-beyond rule) and the
per-layer aggregation of spans, so they can be tested without running
the simulator.
"""

import math
import re
import statistics

WORKLOADS = ("paper_figs", "design_sweep", "service_replay")

# End-to-end metrics, measured with tracing off: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "submit_ms_p50": "ms",
    "submit_ms_p90": "ms",
    "max_rss_mb": "MB",
    "paper_err_pct": "%",
}

_SIM_RUNTIMES = ("sw", "tdm", "carbon", "tss")
_SIM_CORES = (8, 16, 32, 64)

# Per-layer metrics, from the traced run: name -> unit.
PER_LAYER = {
    "spec.build_ms": "ms",
    "spec.fingerprint_ms": "ms",
    "graph.build_ms": "ms",
    "graph.builds": "count",
    "sim.cold_ms": "ms",
    "sim.cold_legs": "count",
    "sim.point_ms_p50": "ms",
    "sim.point_ms_p90": "ms",
    "sim.host_ns_per_task": "ns/task",
    **{f"sim.{rt}_ms": "ms" for rt in _SIM_RUNTIMES},
    **{f"sim.c{n}_ms": "ms" for n in _SIM_CORES},
    "work.tasks": "count",
    "work.dmu_ops": "count",
    "work.mesh_messages": "count",
    "work.mesh_flit_hops": "count",
    "work.mem_l1_line_accesses": "count",
    "fork.leader_ms": "ms",
    "fork.capture_overhead_ms": "ms",
    "fork.warm_legs": "count",
    "fork.warm_ms": "ms",
    "fork.final_legs": "count",
    "fork.final_ms": "ms",
    "fork.declined": "count",
    "engine.busy_frac": "frac",
    "engine.simulated": "count",
    "engine.forked": "count",
    "engine.memory_hits": "count",
    "engine.disk_hits": "count",
    "engine.inflight_attaches": "count",
    "store.open_ms": "ms",
    "store.blobs": "count",
    "store.fetch_us_p50": "us",
    "store.fetch_us_p90": "us",
    "store.fetches": "count",
    "store.publish_us_p50": "us",
    "store.publishes": "count",
    "store.corrupt": "count",
    "protocol.encode_us_per_point": "us",
    "protocol.decode_us_per_point": "us",
    "sse.events": "count",
    "sse.dropped": "count",
    "report.json_ms": "ms",
    "report.json_bytes": "count",
    "report.csv_ms": "ms",
    "trace.overhead_frac": "frac",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Linear interpolation between closest ranks (NumPy's default):
    rank q*(n-1) of the sorted values, 0 <= q <= 1."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def samples_beyond(values, q):
    """How many samples lie strictly above the q-th percentile."""
    p = percentile(values, q)
    return sum(1 for x in values if x > p)


class Checks:
    """Failure accounting: every checked operation is attempted once and
    fails at most once."""

    def __init__(self, attempted=0, failed=0, messages=None):
        self.attempted = attempted
        self.failed = failed
        self.messages = list(messages or [])

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0


def _dur_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.reps = sorted({s["rep"] for s in spans if s["name"] == "rep"})

    def select(self, name, **attrs):
        return [s for s in self.spans if s["name"] == name and
                all(s.get(k) == v for k, v in attrs.items())]

    def per_rep_ms(self, name, keep=lambda s: True):
        """Median over traced repetitions of the summed span time."""
        if not self.reps:
            return 0.0
        total = {r: 0.0 for r in self.reps}
        for s in self.spans:
            if s["name"] == name and s["rep"] in total and keep(s):
                total[s["rep"]] += _dur_ms(s)
        return median(list(total.values()))

    def per_rep_count(self, name, keep=lambda s: True):
        if not self.reps:
            return 0.0
        count = {r: 0 for r in self.reps}
        for s in self.spans:
            if s["name"] == name and s["rep"] in count and keep(s):
                count[s["rep"]] += 1
        return median(list(count.values()))


def _is_cold(s):
    return s.get("source") == "simulated"


def _is_run(s):
    return s.get("source") in ("simulated", "forked")


def end_to_end_metrics(raw, checks):
    """The end-to-end metrics of an untraced run."""
    series = raw["series"]
    lat = series.get("submit_ms", [])
    checks.check(samples_beyond(lat, 0.9) >= MIN_TAIL_SAMPLES,
                 f"only {samples_beyond(lat, 0.9)} of {len(lat)} latency "
                 f"samples lie beyond p90")
    return {
        "setup_s": median(series.get("setup_s", [])),
        "campaign_s": median(series.get("campaign_s", [])),
        "submit_ms_p50": percentile(lat, 0.5),
        "submit_ms_p90": percentile(lat, 0.9),
        "max_rss_mb": median(series.get("max_rss_mb", [])),
        "paper_err_pct": median(series.get("paper_err_pct", [])),
    }


def per_layer_metrics(raw, spans):
    """The per-layer metrics of a traced run: span times from the traced
    repetitions and passes, counters from every repetition."""
    series = raw["series"]
    sp = _Spans(spans)
    m = {name: 0.0 for name in PER_LAYER}

    def med(name):
        return median(series.get(name, []))

    m["spec.build_ms"] = sp.per_rep_ms("campaign.build")
    m["spec.fingerprint_ms"] = sp.per_rep_ms("fingerprint")
    m["graph.build_ms"] = sp.per_rep_ms("graph.obtain")
    m["graph.builds"] = med("graph.builds")

    cold = [s for s in sp.select("sim.point") if _is_cold(s)]
    cold_ms = [_dur_ms(s) for s in cold]
    m["sim.cold_ms"] = sp.per_rep_ms("sim.point", _is_cold)
    m["sim.cold_legs"] = sp.per_rep_count("sim.point", _is_cold)
    m["sim.point_ms_p50"] = percentile(cold_ms, 0.5)
    m["sim.point_ms_p90"] = percentile(cold_ms, 0.9)
    tasks = sum(s.get("tasks", 0) for s in cold)
    m["sim.host_ns_per_task"] = sum(cold_ms) * 1e6 / tasks if tasks else 0.0
    for rt in _SIM_RUNTIMES:
        m[f"sim.{rt}_ms"] = sp.per_rep_ms(
            "sim.point", lambda s, rt=rt: _is_run(s) and s.get("runtime") == rt)
    for n in _SIM_CORES:
        m[f"sim.c{n}_ms"] = sp.per_rep_ms(
            "sim.point", lambda s, n=n: _is_run(s) and s.get("cores") == n)
    for key in ("tasks", "dmu_ops", "mesh_messages", "mesh_flit_hops",
                "mem_l1_line_accesses"):
        m[f"work.{key}"] = med(f"work.{key}")

    legs = {k: [_dur_ms(s) for s in sp.select("fork.run", kind=k)]
            for k in ("leader", "warm", "final", "declined")}
    baseline = [_dur_ms(s) for s in sp.select("driver.run",
                                              kind="capture_baseline")]
    m["fork.leader_ms"] = sum(legs["leader"])
    m["fork.capture_overhead_ms"] = (sum(legs["leader"]) - sum(baseline)
                                     if baseline else 0.0)
    m["fork.warm_legs"] = len(legs["warm"])
    m["fork.warm_ms"] = sum(legs["warm"])
    m["fork.final_legs"] = len(legs["final"])
    m["fork.final_ms"] = sum(legs["final"])
    m["fork.declined"] = len(legs["declined"])

    for key in ("busy_frac", "simulated", "forked", "memory_hits",
                "disk_hits", "inflight_attaches"):
        m[f"engine.{key}"] = med(f"engine.{key}")

    fetch_us = [1e3 * _dur_ms(s) for s in sp.select("store.fetch")]
    publish_us = [1e3 * _dur_ms(s) for s in sp.select("store.publish")]
    m["store.open_ms"] = sum(_dur_ms(s) for s in sp.select("store.open"))
    m["store.blobs"] = med("store.blobs")
    m["store.fetch_us_p50"] = percentile(fetch_us, 0.5)
    m["store.fetch_us_p90"] = percentile(fetch_us, 0.9)
    m["store.fetches"] = len(fetch_us)
    m["store.publish_us_p50"] = percentile(publish_us, 0.5)
    m["store.publishes"] = len(publish_us)
    m["store.corrupt"] = med("store.corrupt")

    for op in ("encode", "decode"):
        us = [1e3 * _dur_ms(s) for s in sp.select(f"protocol.{op}")]
        m[f"protocol.{op}_us_per_point"] = sum(us) / len(us) if us else 0.0

    m["sse.events"] = med("sse.events")
    m["sse.dropped"] = sum(series.get("sse.dropped", []))

    m["report.json_ms"] = sp.per_rep_ms("report.json")
    m["report.json_bytes"] = med("report.json_bytes")
    m["report.csv_ms"] = sp.per_rep_ms("report.csv")

    traced = med("traced_campaign_s")
    untraced = med("campaign_s")
    m["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    return m


def source_split(raw):
    """Median per repetition of where points came from."""
    series = raw["series"]
    return {key: median(series.get(f"engine.{name}", []))
            for key, name in (("simulated", "simulated"),
                              ("forked", "forked"),
                              ("memory", "memory_hits"),
                              ("disk", "disk_hits"),
                              ("inflight", "inflight_attaches"))}


def result_line(checks, metrics, units):
    """The benchmark's last output line."""
    return {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
