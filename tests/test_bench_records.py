"""Layout of the committed benchmark records BENCH_pr<N>_{parent,change}.json.

From N = 13 on each record has a top-level label, tree, command, pairing and
workloads. Each workload has runs equal to the number of its result lines,
and a summary with median, min, q1, q3 and unit for each of wall_s, setup_s
and peak_rss_mb; the median and min match the result lines to the rounding of
their file. A workload whose name ends in _trace holds one traced run a side
(--trace 1), whose result lines carry the per-layer metrics and whose summary
is empty. Both sides of a pair name the same workloads. The environment,
and each workload's attempted and failed totals, are required too, except in
the BENCH_pr19 pair, which was written without them.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIRST_LAYOUT = 13
WITHOUT_TOTALS = {19}  # no environment, attempted or failed
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
DECIMALS = 5
DECIMALS_BY_METRIC = {(21, "peak_rss_mb"): 3}  # the BENCH_pr21 pair rounds peak_rss_mb to 3


def _pairs():
    numbers = set()
    for path in ROOT.glob("BENCH_pr*_*.json"):
        match = re.fullmatch(r"BENCH_pr(\d+)_(parent|change)\.json", path.name)
        assert match, f"unexpected benchmark record name {path.name}"
        if int(match.group(1)) >= FIRST_LAYOUT:
            numbers.add(int(match.group(1)))
    return sorted(numbers)


def _load(number, side):
    path = ROOT / f"BENCH_pr{number}_{side}.json"
    assert path.is_file(), f"{path.name} is missing its pair"
    return json.loads(path.read_text())


def test_records_exist():
    assert _pairs(), "no benchmark records found"


@pytest.mark.parametrize("number", _pairs())
def test_pair_layout(number):
    records = {side: _load(number, side) for side in ("parent", "change")}
    assert records["parent"]["workloads"].keys() == records["change"]["workloads"].keys()
    totals = number not in WITHOUT_TOTALS
    for side, record in records.items():
        where = f"BENCH_pr{number}_{side}.json"
        required = {"label", "tree", "command", "pairing", "workloads"}
        if totals:
            required.add("environment")
        assert required <= record.keys(), f"{where} lacks {sorted(required - record.keys())}"
        assert record["workloads"], f"{where} has no workloads"
        for name, workload in record["workloads"].items():
            lines = workload["result_lines"]
            assert workload["runs"] == len(lines) > 0, f"{where} {name}"
            if totals:
                assert workload["attempted"] == sum(line["attempted"] for line in lines)
                assert workload["failed"] == sum(line["failed"] for line in lines)
            if name.endswith("_trace"):
                assert workload["summary"] == {}, f"{where} {name}"
                continue
            for metric in METRICS:
                summary = workload["summary"][metric]
                assert {"median", "min", "q1", "q3", "unit"} <= summary.keys()
                values = [line["metrics"][metric]["value"] for line in lines]
                assert {line["metrics"][metric]["unit"] for line in lines} == {summary["unit"]}
                decimals = DECIMALS_BY_METRIC.get((number, metric), DECIMALS)
                assert summary["median"] == round(statistics.median(values), decimals), \
                    f"{where} {name} {metric} median"
                assert summary["min"] == round(min(values), decimals), \
                    f"{where} {name} {metric} min"
