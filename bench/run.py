#!/usr/bin/env python3
"""twotone benchmark: four closed-loop workloads driven through twotone.cli.main.

    python3 bench/run.py --workload export --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                # table for every workload

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. Each workload runs in its own fresh child process, one at
a time, with BLAS and OpenMP held to one thread; CLI outputs go to a temporary
directory under ``.bench_runs/`` that is removed after the run.

With ``--trace 0`` the result reports the end-to-end metrics (median pass wall
time, median set-up time, peak resident memory). Pass and set-up times are
scaled to the reference speed of calibrate.py, measured while they run, so
that the drift of a shared machine's CPU speed cancels. With ``--trace 1``
the timed passes run as usual, then one more pass runs traced and gives the
per-layer metrics; its spans are kept in
``.bench_runs/spans-<workload>-seed<n>.json``.
The last line of standard output is one JSON object. The exit code is 0 when
every output passed its check, 1 when one did not, 2 when the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("export", "squeeze", "scan", "validate")
DEFAULT_SEED = 1
SETUP_PROBES = 8      # set-up-only processes per run, besides the workload's own
RUN_LIMIT_S = 170.0   # a run must end within 180 s


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _child(workload: str, seed: int, seconds: float, trace: int, tmp: Path, deadline: float,
           setup_only: bool = False) -> tuple[float, dict]:
    """Run one child process; returns its set-up seconds and its result."""
    result_path = tmp / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--src", str(SRC),
           "--out", str(tmp / "out"), "--result", str(result_path),
           "--spans", str(RUNS / f"spans-{workload}-seed{seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=_child_env(), stdout=sys.stderr, timeout=deadline - spawned)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    return result["first_op_monotonic"] - spawned, result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    RUNS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    try:
        # probes before and after the workload sample set-up across the run
        probes = 0 if trace else SETUP_PROBES // 2
        probe = [_child(workload, seed, 0, 0, tmp, deadline, setup_only=True)
                 for _ in range(probes)]
        probe.append(_child(workload, seed, seconds, trace, tmp, deadline))
        result = probe[-1][1]
        probe += [_child(workload, seed, 0, 0, tmp, deadline, setup_only=True)
                  for _ in range(probes)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["setups"] = [setup for setup, _ in probe]
    result["setup_scales"] = [r["setup_scale"] for _, r in probe]
    return result


def end_to_end(result: dict) -> dict:
    return {
        "wall_s": {"value": statistics.median(w * k for w, k in zip(result["walls"],
                                                                     result["scales"])),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(s * k for s, k in zip(result["setups"],
                                                                      result["setup_scales"])),
                    "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    import tracer  # beside this file; imports numpy, which only traced runs need here

    values = result["traced"]["metrics"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracer.per_layer_names()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time: timed passes run while they fit in it "
                             "(at least three run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "twotone" / "cli.py").is_file():
        print(f"benchmark: no twotone sources under {SRC}", file=sys.stderr)
        return 2

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    print(f"{'workload':<9} {'wall_s':>9} {'setup_s':>9} {'peak_rss_mb':>12} {'fail_frac':>10}"
          f" {'passes':>7}  unscaled: {'wall':>7} {'setup':>6}")
    for workload in selected:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"benchmark: {workload} did not run: {exc}", file=sys.stderr)
            return 2
        attempted += result["attempted"]
        failed += result["failed"]
        for message in result["failures"]:
            print(f"FAILED {workload}: {message}", file=sys.stderr)
        e2e = end_to_end(result)
        wall = e2e["wall_s"]["value"]
        print(f"{workload:<9} {wall:>8.3f}s {e2e['setup_s']['value']:>8.3f}s "
              f"{e2e['peak_rss_mb']['value']:>10.1f}MB {result['failed'] / result['attempted']:>10.4f}"
              f" {len(result['walls']):>7} {statistics.median(result['walls']):>17.3f}s"
              f" {statistics.median(result['setups']):>5.3f}s")
        if args.trace:
            shares = result["traced"]["shares"]
            print("  layer shares of the traced pass (self time): " + ", ".join(
                f"{layer} {share:.3f}" for layer, share in sorted(shares.items(),
                                                                  key=lambda kv: -kv[1])))
            found = per_layer(result)
        else:
            found = e2e
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in found.items()})
    env = result["versions"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {result['nproc']}, cpu {_cpu_model()}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
