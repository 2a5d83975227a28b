"""The behaviour contract in tier-1: every output that
tests/contract_digests.py hashes keeps the bytes recorded in
tests/contract_digests.json, and tests/production_lines.py finds the
same functions with lines that only tests run.

A change that alters one of those outputs on purpose re-records the file
with ``python3 tests/contract_digests.py > tests/contract_digests.json``
and names each changed key and why.
"""

import importlib.util
import json
from pathlib import Path

import contract_digests
import parkrank
import production_lines
from parkrank import cli

RECORDED = Path(__file__).with_name("contract_digests.json")
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_outputs_keep_recorded_digests(tmp_path):
    want = json.loads(RECORDED.read_text())
    got = contract_digests.digests(cli, tmp_path)
    assert sorted(got) == sorted(want)
    changed = sorted(key for key in want if got[key] != want[key])
    assert changed == []


# Each function that the production flows of tests/production_lines.py
# leave lines of unrun (ROADMAP aim 2: no production function only tests
# call). A change that alters this set updates it in the same diff.
TESTS_ONLY = (
    "errors.DataError.in_file",
    "errors.ParseError.__init__",
    "evaluate.QueryResults.__len__",
    "evaluate.QueryResults.__post_init__",
    "evaluate._concat",
    "evaluate._pack_rows",
    "evaluate._pack_rows.<locals>.spread",
    "evaluate._row_metric",
    "evaluate.awtp_rnwtr",
    "evaluate.make_result",
    "evaluate.map_at",
    "evaluate.ndcg_at",
    "evaluate.rank_metrics",
    "evaluate.slice_scenarios",
    "evaluate.summarize",
    "ingest.OccupancyMatrix.equals",
    "ingest.SpatialGraph.all_hop_distances",
    "ingest._records",
    "tensor.backward",
    "tensor.masked_fill",
    "tensor.masked_fill.<locals>.bw",
    "tensor.reduce_sum",
    "tensor.reduce_sum.<locals>.bw",
    "train.make_labels",
    "train.train_loop",
)


def test_tests_only_functions_stay_listed():
    assert sorted(production_lines.unrun_lines(cli)) == list(TESTS_ONLY)


def test_benchmark_trace_targets_resolve():
    # the benchmark's tracer looks up every name of its TARGETS at the
    # start of each run, so deleting or renaming one breaks every workload
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    found = tracer.snapshot(parkrank)
    want = [tracer.span_name(*target) for target in tracer.TARGETS]
    assert sorted(found) == sorted(want)
    assert all(callable(obj) for obj in found.values())
