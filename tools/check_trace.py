#!/usr/bin/env python3
"""Validates the obs output formats: UV_TRACE traces, UV_METRICS logs,
perf ledgers (obs::Report), and the UV_EXPORT live exporter files.

Trace files (Chrome trace-event JSON, as written by src/obs/trace.cc):
  * the file parses as JSON with a "traceEvents" array;
  * every duration-begin event ("ph": "B") has a matching end ("ph": "E")
    on the same (pid, tid), properly nested (LIFO) per thread;
  * timestamps are non-negative and each E is at or after its B;
  * optionally, --require asserts that specific span names are present.

Metrics files (JSONL, as written by src/obs/metrics_log.cc):
  * every line parses as a JSON object with a "kind" field;
  * "epoch" records carry numeric "epoch" and "loss" fields;
  * ts_us is non-decreasing per (run, fold, stage) epoch series;
  * "quality" records (QualityMonitor::Publish) carry the full drift/
    calibration schema: numeric feature_rows/scores/labels counts,
    feature_psi_max/feature_psi_mean/score_psi/score_kl/ece/precision/
    recall all >= 0, and a 0/1 alert flag;
  * the final record is the "registry" dump.

Perf ledgers (uv-perf-ledger-v1 JSON, as written by src/obs/report.cc):
  * schema tag, env fingerprint, config, and a non-empty benchmarks map;
  * per benchmark: repeats with non-negative seconds and monotone ts_us,
    or scalar metrics with a valid direction (or both);
  * stats consistency: min <= p50 <= p95 <= max, mad >= 0, and the
    repeat count matches the serialized repeats array;
  * null where a number is required fails (obs::Report serializes a
    non-finite measurement as null rather than masking it as 0).

Exporter files (src/obs/exporter.cc):
  * --prom: Prometheus text format — every sample belongs to a family
    declared by a preceding # TYPE line, histogram bucket counts are
    cumulative/monotone with le="+Inf" equal to _count, _sum and _count
    are present per histogram, and the file ends with "# EOF" (so a
    torn/partial rewrite is caught);
  * --export-json: the "uv-metrics-export-v1" snapshot — schema tag,
    ts_us, all four sections, p50 <= p95 <= p99 per (windowed) histogram,
    and bucket arrays that sum to their count.

Usage:
  tools/check_trace.py --trace trace.json --require fold,epoch,gemm
  tools/check_trace.py --metrics metrics.jsonl
  tools/check_trace.py --ledger BENCH_core.json
  tools/check_trace.py --prom export.prom --export-json export.prom.json
  tools/check_trace.py --export-json export.prom.json \
      --require-export drift.alert,quality.score_e6

Exits 0 when every check passes, 1 otherwise (so CI can gate on it).
"""

import argparse
import json
import re
import sys


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path, required_names):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing 'traceEvents' array")

    stacks = {}  # (pid, tid) -> [name, ...] of open B events.
    seen_names = set()
    durations = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"{path}: event #{i} is not an object")
        ph = ev.get("ph")
        if ph == "M":  # Metadata (process/thread names): no pairing rules.
            continue
        if ph not in ("B", "E"):
            fail(f"{path}: event #{i} has unexpected ph={ph!r}")
        key = (ev.get("pid"), ev.get("tid"))
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: event #{i} has bad ts={ts!r}")
        if ph == "B":
            seen_names.add(ev.get("name"))
            stacks.setdefault(key, []).append((ev.get("name"), ts))
        else:
            stack = stacks.get(key)
            if not stack:
                fail(f"{path}: event #{i}: E with no open B on tid {key}")
            name, begin_ts = stack.pop()
            if ev.get("name") not in (None, name):
                fail(
                    f"{path}: event #{i}: E named {ev.get('name')!r} closes "
                    f"B named {name!r} on tid {key} (bad nesting)"
                )
            if ts < begin_ts:
                fail(f"{path}: event #{i}: span {name!r} ends before it begins")
            durations += 1
    for key, stack in stacks.items():
        if stack:
            fail(f"{path}: {len(stack)} unclosed B events on tid {key}: "
                 f"{[name for name, _ in stack]}")
    if durations == 0:
        fail(f"{path}: no duration spans recorded")

    missing = [n for n in required_names if n not in seen_names]
    if missing:
        fail(f"{path}: required span names absent: {missing}; "
             f"present: {sorted(n for n in seen_names if n)}")
    print(f"check_trace: {path}: OK ({durations} spans, "
          f"{len(seen_names)} distinct names)")


# Numeric fields every {"kind": "quality"} record must carry; all are
# non-negative, and "alert" must be exactly 0 or 1. Keep in sync with
# QualityMonitor::Publish in src/obs/quality.cc.
QUALITY_FIELDS = (
    "feature_rows",
    "scores",
    "labels",
    "feature_psi_max",
    "feature_psi_mean",
    "score_psi",
    "score_kl",
    "ece",
    "precision",
    "recall",
)


def check_quality_record(path, rec):
    for field in QUALITY_FIELDS:
        val = rec.get(field)
        if not isinstance(val, (int, float)) or val < 0:
            fail(f"{path}: quality record has bad {field}={val!r}: {rec}")
    if rec.get("alert") not in (0, 1):
        fail(f"{path}: quality record alert is not 0/1: {rec}")
    if rec.get("alert") == 1 and (
        rec["feature_psi_max"] == 0 and rec["score_psi"] == 0
    ):
        fail(f"{path}: quality record alerts with zero PSI: {rec}")


def check_metrics(path):
    records = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{path}:{lineno}: not valid JSON: {e}")
                if not isinstance(rec, dict) or "kind" not in rec:
                    fail(f"{path}:{lineno}: record without a 'kind' field")
                records.append(rec)
    except OSError as e:
        fail(f"{path}: {e}")
    if not records:
        fail(f"{path}: empty metrics log")

    epochs = 0
    quality = 0
    last_ts = {}  # (run, fold, stage) -> last ts_us of its epoch series.
    for rec in records:
        if rec["kind"] == "quality":
            check_quality_record(path, rec)
            quality += 1
        if rec["kind"] != "epoch":
            continue
        epochs += 1
        for field in ("epoch", "loss"):
            if not isinstance(rec.get(field), (int, float)):
                fail(f"{path}: epoch record missing numeric {field!r}: {rec}")
        key = (rec.get("run"), rec.get("fold"), rec.get("stage"))
        ts = rec.get("ts_us")
        if not isinstance(ts, (int, float)):
            fail(f"{path}: epoch record missing ts_us: {rec}")
        if key in last_ts and ts < last_ts[key]:
            fail(f"{path}: ts_us went backwards within series {key}")
        last_ts[key] = ts
    if epochs == 0:
        fail(f"{path}: no per-epoch records")
    if records[-1]["kind"] != "registry":
        fail(f"{path}: last record is {records[-1]['kind']!r}, "
             "expected the closing 'registry' dump")
    reg = records[-1].get("registry")
    if not isinstance(reg, dict) or "counters" not in reg:
        fail(f"{path}: registry dump lacks a 'counters' object")
    print(f"check_trace: {path}: OK ({len(records)} records, "
          f"{epochs} epoch records, {quality} quality records)")


LEDGER_SCHEMA = "uv-perf-ledger-v1"
LEDGER_ENV_KEYS = (
    "hardware_threads",
    "compiler",
    "build_type",
    "git_sha",
    "uv_threads",
    "uv_pool",
    "simd",
)
LEDGER_DIRECTIONS = ("lower", "higher", "info")


def check_ledger_benchmark(path, name, bench):
    if not isinstance(bench, dict):
        fail(f"{path}: benchmark {name!r} is not an object")
    repeats = bench.get("repeats", [])
    metrics = bench.get("metrics", {})
    if not isinstance(repeats, list) or not isinstance(metrics, dict):
        fail(f"{path}: benchmark {name!r}: bad repeats/metrics types")
    if not repeats and not metrics:
        fail(f"{path}: benchmark {name!r} has neither repeats nor metrics")

    last_ts = None
    for i, rep in enumerate(repeats):
        if not isinstance(rep, dict):
            fail(f"{path}: {name!r} repeat #{i} is not an object")
        ts = rep.get("ts_us")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: {name!r} repeat #{i} has bad ts_us={ts!r}")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: {name!r} repeat timestamps go backwards "
                 f"(#{i}: {ts} < {last_ts})")
        last_ts = ts
        seconds = rep.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            fail(f"{path}: {name!r} repeat #{i} has bad seconds={seconds!r}")
        for cname, cval in rep.get("counters", {}).items():
            if not isinstance(cval, int) or cval < 0:
                fail(f"{path}: {name!r} repeat #{i} counter {cname!r} "
                     f"is not a non-negative integer: {cval!r}")

    stats = bench.get("stats")
    if repeats:
        if not isinstance(stats, dict):
            fail(f"{path}: benchmark {name!r} has repeats but no stats")
        for key in ("min", "p50", "p95", "max", "mean", "mad"):
            if not isinstance(stats.get(key), (int, float)):
                fail(f"{path}: {name!r} stats missing numeric {key!r}")
        if not (stats["min"] <= stats["p50"] <= stats["p95"] <= stats["max"]):
            fail(f"{path}: {name!r} stats not ordered: "
                 f"min <= p50 <= p95 <= max violated: {stats}")
        if stats["mad"] < 0:
            fail(f"{path}: {name!r} stats has negative mad")
        seconds = [r["seconds"] for r in repeats]
        if not (min(seconds) == stats["min"] and max(seconds) == stats["max"]):
            fail(f"{path}: {name!r} stats min/max disagree with repeats")

    for mname, metric in metrics.items():
        if not isinstance(metric, dict) or not isinstance(
            metric.get("value"), (int, float)
        ):
            fail(f"{path}: {name!r} metric {mname!r} lacks a numeric value")
        if metric.get("direction") not in LEDGER_DIRECTIONS:
            fail(f"{path}: {name!r} metric {mname!r} has bad direction "
                 f"{metric.get('direction')!r}")

    histograms = bench.get("histograms", {})
    if not isinstance(histograms, dict):
        fail(f"{path}: benchmark {name!r}: bad histograms type")
    for hname, hist in histograms.items():
        if not isinstance(hist, dict):
            fail(f"{path}: {name!r} histogram {hname!r} is not an object")
        for key in ("count", "sum", "p50", "p95"):
            val = hist.get(key)
            if not isinstance(val, (int, float)) or val < 0:
                fail(f"{path}: {name!r} histogram {hname!r} has bad "
                     f"{key}={val!r}")
        if hist["p50"] > hist["p95"]:
            fail(f"{path}: {name!r} histogram {hname!r} has p50 > p95")
    return len(repeats), len(metrics)


# Required metrics (name -> direction) per city_scale.* entry kind, matching
# what bench_suite's RunCityScaleSuite records. Entries are named
# city_scale.<kind>_<tag> with tag one of the --city-scale presets.
CITY_SCALE_KINDS = {
    "urg_build": {
        "regions_per_sec": "higher",
        "mem.pool_bytes_peak": "lower",
        "num_regions": "info",
        "num_edges": "info",
    },
    "sampler": {
        "subgraphs_per_sec": "higher",
        "edges_per_subgraph": "info",
    },
    "train_step_cmsf": {
        "train_step_ms": "lower",
        "mem.pool_bytes_peak": "lower",
        "mem.pool_peak_delta": "info",
        "batches_per_epoch": "info",
    },
    "train_step_gcn": {
        "train_step_ms": "lower",
        "mem.pool_bytes_peak": "lower",
        "mem.pool_peak_delta": "info",
        "batches_per_epoch": "info",
    },
}


# Required metrics per serve.* entry kind, matching what bench_suite's
# RunServeSuite records. Entries are named serve.<kind>_<tag>; the engine
# entry must also carry the serving histograms captured from the final
# timed repeat.
SERVE_KINDS = {
    "autograd": {
        "regions_per_sec": "higher",
        "request_size": "info",
        "requests": "info",
    },
    "engine": {
        "regions_per_sec": "higher",
        "speedup_vs_autograd": "higher",
        "num_regions": "info",
        "clients": "info",
        "request_size": "info",
    },
    # Same load with a QualityMonitor attached to the engine, timed as
    # interleaved plain/monitored pairs; throughput_vs_plain is the median
    # per-pair ratio and throughput_vs_plain_mad its dispersion. Ledger
    # validation gates it against MONITORED_THROUGHPUT_FLOOR.
    "engine_monitored": {
        "regions_per_sec": "higher",
        "throughput_vs_plain": "higher",
        "throughput_vs_plain_mad": "info",
        "pairs": "info",
        "num_regions": "info",
        "clients": "info",
        "request_size": "info",
    },
}
# Monitored serving must keep >= 0.9x of plain throughput. The per-pair
# ratio is noisy on a shared host, so a ledger fails only when the median
# ratio sits below the floor by more than MONITORED_TOLERANCE_MADS MADs.
MONITORED_THROUGHPUT_FLOOR = 0.9
MONITORED_TOLERANCE_MADS = 3.0
SERVE_ENGINE_HISTOGRAMS = (
    "serve.queue_wait_us",
    "serve.batch_size",
    "serve.latency_us",
)
SERVE_MONITORED_HISTOGRAMS = SERVE_ENGINE_HISTOGRAMS + ("quality.score_e6",)


def check_serve_entry(path, name, bench):
    rest = name[len("serve."):]
    kind, _, tag = rest.rpartition("_")
    if kind not in SERVE_KINDS or not tag:
        fail(f"{path}: benchmark {name!r} does not match "
             f"serve.<kind>_<tag> with kind in {sorted(SERVE_KINDS)}")
    if not bench.get("repeats"):
        fail(f"{path}: serve benchmark {name!r} has no timed repeats")
    metrics = bench.get("metrics", {})
    for mname, direction in SERVE_KINDS[kind].items():
        metric = metrics.get(mname)
        if metric is None:
            fail(f"{path}: serve benchmark {name!r} lacks required "
                 f"metric {mname!r}")
        if metric.get("direction") != direction:
            fail(f"{path}: serve benchmark {name!r} metric {mname!r} "
                 f"has direction {metric.get('direction')!r}, "
                 f"expected {direction!r}")
    if kind == "engine_monitored":
        ratio = metrics["throughput_vs_plain"].get("value")
        mad = metrics["throughput_vs_plain_mad"].get("value")
        if not isinstance(ratio, (int, float)) or not isinstance(
            mad, (int, float)
        ):
            fail(f"{path}: serve benchmark {name!r} throughput_vs_plain "
                 f"or its MAD is not a number")
        if ratio + MONITORED_TOLERANCE_MADS * mad < MONITORED_THROUGHPUT_FLOOR:
            fail(f"{path}: serve benchmark {name!r} throughput_vs_plain "
                 f"{ratio:.3f} (MAD {mad:.3f}) is below the "
                 f"{MONITORED_THROUGHPUT_FLOOR}x budget by more than "
                 f"{MONITORED_TOLERANCE_MADS:g} MADs")
    required_histograms = ()
    if kind == "engine":
        required_histograms = SERVE_ENGINE_HISTOGRAMS
    elif kind == "engine_monitored":
        required_histograms = SERVE_MONITORED_HISTOGRAMS
    histograms = bench.get("histograms", {})
    for hname in required_histograms:
        if hname not in histograms:
            fail(f"{path}: serve benchmark {name!r} lacks required "
                 f"histogram {hname!r}")


def check_city_scale_entry(path, name, bench):
    rest = name[len("city_scale."):]
    kind, _, tag = rest.rpartition("_")
    if kind not in CITY_SCALE_KINDS or not tag:
        fail(f"{path}: benchmark {name!r} does not match "
             f"city_scale.<kind>_<tag> with kind in "
             f"{sorted(CITY_SCALE_KINDS)}")
    if not bench.get("repeats"):
        fail(f"{path}: city-scale benchmark {name!r} has no timed repeats")
    metrics = bench.get("metrics", {})
    for mname, direction in CITY_SCALE_KINDS[kind].items():
        metric = metrics.get(mname)
        if metric is None:
            fail(f"{path}: city-scale benchmark {name!r} lacks required "
                 f"metric {mname!r}")
        if metric.get("direction") != direction:
            fail(f"{path}: city-scale benchmark {name!r} metric {mname!r} "
                 f"has direction {metric.get('direction')!r}, "
                 f"expected {direction!r}")


def check_ledger(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != LEDGER_SCHEMA:
        fail(f"{path}: schema tag is {doc.get('schema')!r}, "
             f"expected {LEDGER_SCHEMA!r}")
    if not isinstance(doc.get("suite"), str) or not doc["suite"]:
        fail(f"{path}: missing 'suite' name")
    env = doc.get("env")
    if not isinstance(env, dict):
        fail(f"{path}: missing 'env' fingerprint")
    for key in LEDGER_ENV_KEYS:
        if key not in env:
            fail(f"{path}: env fingerprint lacks {key!r}")
    if not isinstance(doc.get("config"), dict):
        fail(f"{path}: missing 'config' object")
    benches = doc.get("benchmarks")
    if not isinstance(benches, dict) or not benches:
        fail(f"{path}: missing or empty 'benchmarks' map")
    total_repeats = total_metrics = city_scale = serve = 0
    for name, bench in benches.items():
        nrep, nmet = check_ledger_benchmark(path, name, bench)
        total_repeats += nrep
        total_metrics += nmet
        if name.startswith("city_scale."):
            check_city_scale_entry(path, name, bench)
            city_scale += 1
        elif name.startswith("serve."):
            check_serve_entry(path, name, bench)
            serve += 1
    print(f"check_trace: {path}: OK ({len(benches)} benchmarks, "
          f"{total_repeats} repeats, {total_metrics} metrics, "
          f"{city_scale} city-scale entries, {serve} serve entries)")


PROM_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"      # metric name
    r"(\{[^{}]*\})?"                    # optional {label="value",...}
    r" (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$"
)
PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def prom_family(name, types):
    """Maps a sample name to its declared family, honoring the histogram
    child suffixes (_bucket/_sum/_count)."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def prom_labels(label_blob):
    if not label_blob:
        return {}
    out = {}
    for part in label_blob[1:-1].split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        out[key] = val.strip('"')
    return out


def check_prom(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")
    if not lines or lines[-1] != "# EOF":
        fail(f"{path}: does not end with '# EOF' (torn or partial write?)")

    types = {}  # family -> declared type.
    hists = {}  # family -> {"buckets": [(le, v)], "sum": v, "count": v}.
    samples = 0
    for lineno, line in enumerate(lines[:-1], 1):
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in PROM_TYPES:
                fail(f"{path}:{lineno}: malformed TYPE line: {line!r}")
            if parts[2] in types:
                fail(f"{path}:{lineno}: family {parts[2]!r} declared twice")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # Other comments are legal.
        m = PROM_SAMPLE_RE.match(line)
        if m is None:
            fail(f"{path}:{lineno}: unparseable sample line: {line!r}")
        name, label_blob, value = m.group(1), m.group(2), m.group(3)
        family = prom_family(name, types)
        if family is None:
            fail(f"{path}:{lineno}: sample {name!r} has no preceding "
                 f"# TYPE declaration")
        samples += 1
        if types[family] != "histogram":
            continue
        hist = hists.setdefault(family, {"buckets": [], "sum": None,
                                         "count": None})
        if name.endswith("_bucket"):
            le = prom_labels(label_blob).get("le")
            if le is None:
                fail(f"{path}:{lineno}: histogram bucket without 'le' label")
            hist["buckets"].append((le, float(value)))
        elif name.endswith("_sum"):
            hist["sum"] = float(value)
        elif name.endswith("_count"):
            hist["count"] = float(value)

    if samples == 0:
        fail(f"{path}: no samples")
    for family, hist in hists.items():
        if hist["sum"] is None or hist["count"] is None:
            fail(f"{path}: histogram {family!r} lacks _sum or _count")
        buckets = hist["buckets"]
        if not buckets or buckets[-1][0] != "+Inf":
            fail(f"{path}: histogram {family!r} lacks a trailing "
                 f"le=\"+Inf\" bucket")
        values = [v for _, v in buckets]
        if any(b > a for b, a in zip(values, values[1:])):
            fail(f"{path}: histogram {family!r} bucket counts are not "
                 f"cumulative/monotone: {values}")
        if values[-1] != hist["count"]:
            fail(f"{path}: histogram {family!r}: le=\"+Inf\" bucket "
                 f"({values[-1]}) != _count ({hist['count']})")
    print(f"check_trace: {path}: OK ({len(types)} families, {samples} "
          f"samples, {len(hists)} histograms)")


EXPORT_SCHEMA = "uv-metrics-export-v1"


def check_export_json(path, required_names=()):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != EXPORT_SCHEMA:
        fail(f"{path}: schema tag is {doc.get('schema')!r}, "
             f"expected {EXPORT_SCHEMA!r}")
    ts = doc.get("ts_us")
    if not isinstance(ts, (int, float)) or ts < 0:
        fail(f"{path}: bad ts_us={ts!r}")
    for section in ("counters", "gauges", "histograms", "windowed"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing {section!r} object")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} is not a non-negative "
                 f"integer: {value!r}")
    for name, value in doc["gauges"].items():
        if not isinstance(value, int):
            fail(f"{path}: gauge {name!r} is not an integer: {value!r}")
    for name, hist in doc["histograms"].items():
        for key in ("count", "sum", "p50", "p95", "p99"):
            val = hist.get(key)
            if not isinstance(val, (int, float)) or val < 0:
                fail(f"{path}: histogram {name!r} has bad {key}={val!r}")
        if not hist["p50"] <= hist["p95"] <= hist["p99"]:
            fail(f"{path}: histogram {name!r} percentiles not ordered")
        buckets = hist.get("buckets")
        if not isinstance(buckets, list) or len(buckets) != 28:
            fail(f"{path}: histogram {name!r} bucket array is not "
                 f"28 entries: {buckets!r}")
        if sum(buckets) != hist["count"]:
            fail(f"{path}: histogram {name!r}: buckets sum to "
                 f"{sum(buckets)}, count says {hist['count']}")
    for name, win in doc["windowed"].items():
        for key in ("window_us", "count", "sum", "p50", "p95", "p99"):
            val = win.get(key)
            if not isinstance(val, (int, float)) or val < 0:
                fail(f"{path}: windowed {name!r} has bad {key}={val!r}")
        if win["window_us"] == 0:
            fail(f"{path}: windowed {name!r} has zero window_us")
        if not win["p50"] <= win["p95"] <= win["p99"]:
            fail(f"{path}: windowed {name!r} percentiles not ordered")
    exported = set()
    for section in ("counters", "gauges", "histograms", "windowed"):
        exported.update(doc[section])
    missing = [n for n in required_names if n not in exported]
    if missing:
        fail(f"{path}: required exported metrics absent: {missing}; "
             f"present: {sorted(exported)}")
    print(f"check_trace: {path}: OK ({len(doc['counters'])} counters, "
          f"{len(doc['gauges'])} gauges, {len(doc['histograms'])} "
          f"histograms, {len(doc['windowed'])} windowed)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace-event JSON file")
    parser.add_argument("--metrics", help="JSONL metrics log file")
    parser.add_argument("--ledger", help="perf ledger JSON file (obs::Report)")
    parser.add_argument("--prom",
                        help="Prometheus text file (UV_EXPORT output)")
    parser.add_argument("--export-json",
                        help="JSON export snapshot (UV_EXPORT .json sibling)")
    parser.add_argument(
        "--require",
        default="",
        help="comma-separated span names that must appear in the trace",
    )
    parser.add_argument(
        "--require-export",
        default="",
        help="comma-separated metric names that must appear in any "
             "section of the --export-json snapshot",
    )
    args = parser.parse_args()
    if not (args.trace or args.metrics or args.ledger or args.prom
            or args.export_json):
        parser.error("pass --trace, --metrics, --ledger, --prom, "
                     "and/or --export-json")
    required = [n for n in args.require.split(",") if n]
    if required and not args.trace:
        parser.error("--require needs --trace")
    required_export = [n for n in args.require_export.split(",") if n]
    if required_export and not args.export_json:
        parser.error("--require-export needs --export-json")
    if args.trace:
        check_trace(args.trace, required)
    if args.metrics:
        check_metrics(args.metrics)
    if args.ledger:
        check_ledger(args.ledger)
    if args.prom:
        check_prom(args.prom)
    if args.export_json:
        check_export_json(args.export_json, required_export)


if __name__ == "__main__":
    main()
