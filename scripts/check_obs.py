#!/usr/bin/env python3
"""Schema checks for the observability artifacts (CI determinism job).

Usage:
    check_obs.py trace FILE [--expect-discovery N]
    check_obs.py metrics FILE [--require NAME ...]

`trace` validates a Chrome trace-event JSON written by `mt4g --trace`:
well-formed JSON, the traceEvents shape ("X" complete events with
name/cat/ph/ts/dur/pid/tid), proper span nesting within each thread, and —
when stage and discovery spans are present — that the per-stage spans plus
the graph setup/teardown spans (`graph.`) sum to within 5% of the enclosing
discovery spans' total wall time (computed over the whole file, so large
models dominate rather than per-model jitter).

`metrics` validates a Prometheus text file written by `--metrics`: every
non-comment line is `mt4g_<sanitised_name> <number>`, and each --require
name is present.
"""

import argparse
import json
import re
import sys


def fail(message):
    print(f"check_obs: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path, expect_discovery):
    with open(path, encoding="utf-8") as handle:
        try:
            trace = json.load(handle)
        except json.JSONDecodeError as error:
            fail(f"{path}: invalid JSON: {error}")

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    required = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
    for i, event in enumerate(events):
        missing = required - event.keys()
        if missing:
            fail(f"{path}: event {i} missing keys {sorted(missing)}")
        if event["ph"] != "X":
            fail(f"{path}: event {i} has ph={event['ph']!r}, expected 'X'")
        if event["ts"] < 0 or event["dur"] < 0:
            fail(f"{path}: event {i} has negative ts/dur")

    # Spans must nest within each thread: sweep sorted by (start, -end); a
    # span starting inside an open span must also end inside it.
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event)
    for tid, spans in by_tid.items():
        spans.sort(key=lambda e: (e["ts"], -(e["ts"] + e["dur"])))
        stack = []
        for span in spans:
            end = span["ts"] + span["dur"]
            while stack and stack[-1][1] <= span["ts"]:
                stack.pop()
            if stack and end > stack[-1][1] + 1e-3:  # 1 us tolerance
                fail(
                    f"{path}: tid {tid}: span {span['name']!r} "
                    f"[{span['ts']:.3f}, {end:.3f}] escapes enclosing "
                    f"{stack[-1][0]!r} ending at {stack[-1][1]:.3f}"
                )
            stack.append((span["name"], end))

    discovery = [e for e in events if e["name"].startswith("discovery:")]
    stages = [e for e in events if e["name"].startswith("stage:")]
    graph = [e for e in events if e["name"].startswith("graph.")]
    if expect_discovery is not None and len(discovery) != expect_discovery:
        fail(
            f"{path}: {len(discovery)} discovery spans, "
            f"expected {expect_discovery}"
        )
    if discovery and not stages:
        fail(f"{path}: discovery spans present but no stage spans")
    if discovery and stages:
        # Stages run inside discoveries (serial per discovery when
        # bench_threads=1), between the graph's setup and teardown spans, so
        # together they must account for nearly all discovery wall time; the
        # gap is untraced glue. 5% band per the acceptance criterion,
        # measured over the whole file.
        discovery_total = sum(e["dur"] for e in discovery)
        covered_total = sum(e["dur"] for e in stages + graph)
        if discovery_total <= 0:
            fail(f"{path}: zero total discovery duration")
        ratio = covered_total / discovery_total
        if not 0.95 <= ratio <= 1.05:
            fail(
                f"{path}: stage + graph spans sum to {covered_total:.1f} us vs "
                f"{discovery_total:.1f} us of discovery spans "
                f"(ratio {ratio:.3f}, expected within [0.95, 1.05])"
            )
        print(
            f"check_obs: {path}: {len(events)} events, "
            f"{len(discovery)} discoveries, {len(stages)} stages, "
            f"(stage + graph)/discovery wall ratio {ratio:.3f}"
        )
    else:
        print(f"check_obs: {path}: {len(events)} events")


METRIC_LINE = re.compile(
    r"^mt4g_[A-Za-z0-9_]+ -?(\d+(\.\d+)?([eE][+-]?\d+)?|inf|nan)$"
)
TYPE_LINE = re.compile(r"^# TYPE mt4g_[A-Za-z0-9_]+ (counter|gauge|summary)$")


def check_metrics(path, require):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not any(line and not line.startswith("#") for line in lines):
        fail(f"{path}: no metric samples")
    names = set()
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE") and not TYPE_LINE.match(line):
                fail(f"{path}:{i}: malformed TYPE line: {line!r}")
            continue
        if not METRIC_LINE.match(line):
            fail(f"{path}:{i}: malformed sample line: {line!r}")
        names.add(line.split(" ", 1)[0])
    for name in require:
        if name not in names:
            fail(f"{path}: required metric {name!r} missing (have {sorted(names)})")
    print(f"check_obs: {path}: {len(names)} metric series ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    trace = sub.add_parser("trace")
    trace.add_argument("file")
    trace.add_argument("--expect-discovery", type=int, default=None)
    metrics = sub.add_parser("metrics")
    metrics.add_argument("file")
    metrics.add_argument("--require", nargs="*", default=[])
    args = parser.parse_args()
    if args.mode == "trace":
        check_trace(args.file, args.expect_discovery)
    else:
        check_metrics(args.file, args.require)


if __name__ == "__main__":
    main()
