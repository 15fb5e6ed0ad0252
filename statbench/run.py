"""The statement benchmark: one command, one workload, every metric by name.

Run from the repository root::

    python3 statbench/run.py --workload point-lookup --seed 1 --seconds 40 --trace 0

Workloads (see ``statbench/workloads.py`` for the exact mix):

- ``point-lookup``: one client, in-memory star schema several times the
  64-page buffer pool; Zipf point reads, 6-way star lookups keyed on
  FACT, short ORDER BY ranges, 15% single-row writes.  sql and optimizer
  do most of the work.
- ``join-report``: one client, in-memory, about twice the pool; 3-5 way
  star and chain joins, GROUP BY / ORDER BY through external sort, a
  correlated subquery, INSERT ... SELECT rollups.  engine and rss do
  most of the work.
- ``serving-mixed``: two client threads with one ``Session`` each on a
  durable database with group commit and an fsync per commit; 70% point
  reads, 25% increments, 5% inserts.

``--seconds`` fixes the statement count: the workload's nominal rate on a
2-CPU host with Python 3.11, times the seconds, shared among the untraced
replicas.  The database runs in its default configuration (fused engine,
every ``REPRO_*`` variable cleared).  Each run sets the workload up on six
untraced replicas (and one traced replica with ``--trace 1``), one after
another, and runs the same statement sequence on each.  Each statement's
fastest untraced time gives the end-to-end metrics, the traced replica's
spans the per-layer ones.  Then every result is checked (sqlite3 replay
and a counter/checksum gate between replicas on the single-client
workloads, invariants and a re-open on ``serving-mixed``).

``BENCHMARK.json`` names join-report and serving-mixed.  point-lookup runs
the same way on request: the timings of its sub-millisecond statements,
like every tail, follow the host's speed too closely for a bound (see
``UNGATED`` below).

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
benchmark cannot run (for instance outside a repository checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: durable databases during a run, and
#: the span files the traced pass writes out.
WORKDIR = ROOT / ".statbench_work"
WORKLOAD_NAMES = ("point-lookup", "join-report", "serving-mixed")
#: End-to-end metrics printed in the report but left out of its JSON
#: summary.  Over whole minutes the host's speed drifts, and the tails move
#: with it by up to half again as much as the medians do, so a bound on
#: them would flag unchanged code.
UNGATED = ("read_tail_ms", "write_tail_ms")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="statbench/run.py",
        description="statement latency, throughput and per-layer benchmark",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=40.0,
        help="statement count, as seconds at the workload's nominal rate",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="0: print end-to-end metrics as JSON; 1: per-layer metrics",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def clear_repro_env() -> dict[str, str]:
    """Unset every ``REPRO_*`` variable; return the ones that were set."""
    found = {
        name: value for name, value in os.environ.items() if name.startswith("REPRO_")
    }
    for name in found:
        del os.environ[name]
    return found


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(repro_env: dict[str, str]) -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "repro_env_found": repro_env,
    }


def write_spans(path: Path, tracers) -> None:
    """One JSON array per span: name, start, end, parent, statement, client."""
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for name, start, end, parent, statement in tracer.spans:
                handle.write(
                    json.dumps([name, start, end, parent, statement, tracer.client])
                    + "\n"
                )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    repro_env = clear_repro_env()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"statbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from statbench import bench
    from statbench.workloads import build

    # Every untraced replica runs the whole sequence, so the sequence is
    # the measured time divided among them.
    workload = build(args.workload, args.seed, args.seconds / bench.UNTRACED)
    print(
        f"statbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print("host: " + json.dumps(host_fingerprint(repro_env), sort_keys=True))
    report = measure(workload, bool(args.trace), f"seed{args.seed}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def measure(workload, traced: bool, label: str) -> dict:
    """Run ``workload``, print the report and return its JSON summary."""
    from statbench import bench

    scratch = WORKDIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = bench.run(workload, str(scratch), traced=traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    e2e = bench.end_to_end(result)
    attempted = result.attempted

    print(
        f"clients={workload.clients}, {attempted} statements on each of "
        f"{len(result.passes)} replicas ({bench.UNTRACED} untraced)"
    )
    pages, capacity = result.data_pages, result.buffer_pages
    print(
        f"data: {pages} data pages, buffer pool {capacity} pages "
        f"({'fits in' if pages <= capacity else f'{pages / capacity:.1f}x'} the pool)"
    )
    probes = ", ".join(f"{probe:.2f}" for probe in result.probes_ms)
    print(f"host speed probe before each replica's pass: {probes} ms")
    print("workload as run:")
    for name, (value, unit) in bench.workload_properties(result).items():
        print(f"  {name:<30} {value:>14.4f} {unit}")
    print("end-to-end (untraced replicas, each statement's fastest):")
    tails = bench.tail_choices(result)
    for name, (value, unit) in e2e.items():
        note = f"  ({tails[name]})" if name in tails else ""
        print(f"  {name:<30} {value:>14.4f} {unit}{note}")
    print(
        f"  {'error_rate':<30} {result.failed / attempted:>14.4f} share  "
        f"({result.failed} of {attempted} failed, refused or wrong)"
    )
    metrics = {name: value for name, value in e2e.items() if name not in UNGATED}
    if traced:
        metrics = bench.per_layer(result)
        print("per-layer (times from the traced replica, counts from replica 0):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:>14.4f} {unit}")
        spans = WORKDIR / f"spans-{workload.name}-{label}.jsonl"
        write_spans(spans, result.passes[-1].tracers)
        print(f"spans: {spans.relative_to(ROOT)}")
    for problem in result.problems[:50]:
        print(f"FAIL {problem}")
    if len(result.problems) > 50:
        print(f"FAIL ... {len(result.problems) - 50} more")
    correct = not result.problems
    print(
        "checks: "
        + ("all passed" if correct else f"{len(result.problems)} failed")
        + (
            " (sqlite3 oracle, counter/checksum gate)"
            if not workload.durable
            else " (serving invariants, verify_storage, re-open)"
        )
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
