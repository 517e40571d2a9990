#!/usr/bin/env python3
"""Prints the paper-scale city table of EXPERIMENTS.md from a perf ledger.

Reads the `city_scale.*` entries that `bench_suite --city-scale=<tag>`
writes (uv-perf-ledger-v1) and renders one markdown row per preset, plus
the 354k/93k growth ratios the surrounding prose quotes. Regenerate the
table with this script instead of editing the numbers by hand:

  tools/city_scale_table.py BENCH_core.json

Exit codes: 0 = table printed, 2 = no city-scale entries or bad input.
"""

import argparse
import json
import sys

PRESETS = ("93k", "175k", "354k")
GB = 1e9


def fail(message):
    print(f"city_scale_table: {message}", file=sys.stderr)
    sys.exit(2)


def metric(bench, name):
    value = bench.get("metrics", {}).get(name, {}).get("value")
    if not isinstance(value, (int, float)):
        fail(f"metric {name!r} missing")
    return value


def p50(bench):
    return bench["stats"]["p50"]


def preset_row(benchmarks, tag):
    names = {
        "build": f"city_scale.urg_build_{tag}",
        "sampler": f"city_scale.sampler_{tag}",
        "cmsf": f"city_scale.train_step_cmsf_{tag}",
        "gcn": f"city_scale.train_step_gcn_{tag}",
    }
    if not all(n in benchmarks for n in names.values()):
        return None
    build, sampler = benchmarks[names["build"]], benchmarks[names["sampler"]]
    cmsf, gcn = benchmarks[names["cmsf"]], benchmarks[names["gcn"]]
    return {
        "tag": tag,
        "regions": metric(build, "num_regions"),
        "edges": metric(build, "num_edges"),
        "build_s": p50(build),
        "build_rps": metric(build, "regions_per_sec"),
        "subgraphs_per_s": metric(sampler, "subgraphs_per_sec"),
        "cmsf_ms": metric(cmsf, "train_step_ms"),
        "gcn_ms": metric(gcn, "train_step_ms"),
        "batches": metric(cmsf, "batches_per_epoch"),
        "cmsf_peak": metric(cmsf, "mem.pool_bytes_peak"),
        "cmsf_delta": metric(cmsf, "mem.pool_peak_delta"),
        "gcn_peak": metric(gcn, "mem.pool_bytes_peak"),
        "gcn_delta": metric(gcn, "mem.pool_peak_delta"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ledger", help="perf ledger JSON (e.g. BENCH_core.json)")
    args = parser.parse_args()
    try:
        with open(args.ledger) as f:
            ledger = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.ledger}: {e}")
    benchmarks = ledger.get("benchmarks", {})
    rows = [r for r in (preset_row(benchmarks, t) for t in PRESETS) if r]
    if not rows:
        fail(f"{args.ledger} has no complete city_scale.* preset")

    env = ledger.get("env", {})
    flags = env.get("build_flags") or "none"
    print(f"Ledger env: {env.get('build_type', '?')} build, build flags: "
          f"{flags}, {env.get('hardware_threads', '?')} hardware thread(s), "
          f"UV_THREADS={env.get('uv_threads') or 'unset'}, "
          f"simd {env.get('simd', '?')}.")
    print()
    print("| preset | regions | URG edges | build s (regions/s) | sampler "
          "subg/s | CMSF step ms | GCN step ms | batches/epoch | CMSF pool "
          "peak / step delta (GB) | GCN pool peak / step delta (GB) |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['tag']} | {r['regions']:,.0f} | {r['edges']:,.0f} | "
              f"{r['build_s']:.2f} ({r['build_rps'] / 1e3:.1f}k) | "
              f"{r['subgraphs_per_s']:.0f} | {r['cmsf_ms']:,.0f} | "
              f"{r['gcn_ms']:,.0f} | {r['batches']:.0f} | "
              f"{r['cmsf_peak'] / GB:.2f} / {r['cmsf_delta'] / GB:.2f} | "
              f"{r['gcn_peak'] / GB:.2f} / {r['gcn_delta'] / GB:.2f} |")
    if len(rows) > 1:
        lo, hi = rows[0], rows[-1]
        print()
        print(f"{hi['tag']}/{lo['tag']} growth: regions "
              f"{hi['regions'] / lo['regions']:.2f}x; step time CMSF "
              f"{hi['cmsf_ms'] / lo['cmsf_ms']:.2f}x, GCN "
              f"{hi['gcn_ms'] / lo['gcn_ms']:.2f}x; step delta CMSF "
              f"{hi['cmsf_delta'] / lo['cmsf_delta']:.2f}x, GCN "
              f"{hi['gcn_delta'] / lo['gcn_delta']:.2f}x; pool peak CMSF "
              f"{hi['cmsf_peak'] / lo['cmsf_peak']:.2f}x, GCN "
              f"{hi['gcn_peak'] / lo['gcn_peak']:.2f}x.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
