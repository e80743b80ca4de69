"""One workload in one fresh process: set-up, timed passes, checks, trace.

Started by run.py with the checkout's ``src`` on PYTHONPATH. Writes one JSON
result file; prints nothing of its own on standard output.

Set-up ends at the first operation: it covers the interpreter, ``import
twotone.cli``, making the inputs from the seed and parsing the first
operation's arguments with the CLI's own parser. A block of reference units
(calibrate.py) runs right after it and gives the speed that scales the set-up
time. Then passes of the workload run back to back (closed loop): at least
three, and more while they fit in ``--seconds``. Reference units sampled
through each pass give its scale; their time is not counted in the pass's
wall time. Peak resident memory is read after the last timed pass, before any
check runs. With ``--trace 1`` one more pass runs with every public function
wrapped and no reference units, and the spans are written out when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibrate

MIN_PASSES = 3
SETUP_REF_S = 0.1  # seconds of reference units after set-up


def _run_pass(cli, ops, tracer=None) -> tuple[float, list]:
    """One pass; returns its wall seconds and (exit code, stdout) per operation."""
    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.operation = op.label
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
        results.append((code, buf.getvalue()))
    return time.perf_counter() - start, results


def _run_timed_pass(cli, ops) -> tuple[float, float, list]:
    """One pass with reference units sampled through it; returns its wall
    seconds without the units, its scale and (exit code, stdout) per operation."""
    with calibrate.Sampler() as sampler:
        wall, results = _run_pass(cli, ops)
    return wall - sampler.seconds, sampler.scale(), results


def _check_pass(ops, results, rng, last: bool) -> list:
    """Failure messages per operation of one pass (empty list when correct)."""
    from twotone.errors import TwoToneError  # e.g. an inconclusive oracle count

    out = []
    for op, (code, stdout) in zip(ops, results):
        fails = []
        if code != op.expected_code:
            fails.append(f"{op.label}: exit code {code}, expected {op.expected_code}")
        elif last or not op.writes_files:
            try:
                fails += op.check(stdout, rng)
            except (OSError, ValueError, KeyError, IndexError, TwoToneError) as exc:
                fails.append(f"{op.label}: output could not be checked: {exc!r}")
        out.append(fails)
    return out


def _versions() -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--out", required=True, help="scratch directory for CLI outputs")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    import twotone
    from twotone import cli

    src = Path(args.src).resolve()
    if src not in Path(twotone.__file__).resolve().parents:
        raise SystemExit(f"imported twotone from {twotone.__file__}, not from {src}")
    import workloads

    ops = workloads.operations(args.workload, args.seed, Path(args.out))
    cli.make_parser().parse_known_args(ops[0].argv)
    first_op = time.monotonic()
    units, seconds = calibrate.block(SETUP_REF_S)
    result = {"first_op_monotonic": first_op, "setup_unit_s": seconds / units,
              "setup_scale": calibrate.UNIT_S * units / seconds}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    walls, scales, passes = [], [], []
    # at least MIN_PASSES, so the median can drop one disturbed pass; then
    # only passes that fit in the measuring time, so runs end on time
    elapsed = last_pass = 0.0
    while len(walls) < MIN_PASSES or elapsed + last_pass <= args.seconds:
        start = time.perf_counter()
        wall, scale, results = _run_timed_pass(cli, ops)
        last_pass = time.perf_counter() - start
        elapsed += last_pass
        walls.append(wall)
        scales.append(scale)
        passes.append(results)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = None
    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        try:
            traced_wall, results = _run_pass(cli, ops, tr)
        finally:
            tr.uninstall()
        passes.append(results)
        traced = {
            "metrics": tracing.per_layer_metrics(tr, traced_wall, statistics.median(walls),
                                                 result["setup_unit_s"]),
            "shares": tracing.layer_shares(tr, traced_wall),
        }
        Path(args.spans).write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "fields": ["name", "start", "end", "parent", "operation"],
            "spans": tr.spans,
        }))

    rng = np.random.default_rng([args.seed, 1])
    failures = []
    failed = 0
    for k, results in enumerate(passes):
        for fails in _check_pass(ops, results, rng, last=k == len(passes) - 1):
            failed += bool(fails)
            failures += fails
    result.update({
        "walls": walls,
        "scales": scales,
        "peak_rss_mb": peak_kib / 1024.0,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "failures": failures[:20],
        "traced": traced,
        "versions": _versions(),
        "nproc": os.cpu_count(),
    })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
