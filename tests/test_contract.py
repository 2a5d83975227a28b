"""The behaviour contract in tier-1: every output that
tests/contract_digests.py hashes keeps the bytes recorded in
tests/contract_digests.json.

A change that alters one of those outputs on purpose re-records the file
with ``python3 tests/contract_digests.py > tests/contract_digests.json``
and names each changed key and why.
"""

import json
from pathlib import Path

import contract_digests
from parkrank import cli

RECORDED = Path(__file__).with_name("contract_digests.json")


def test_outputs_keep_recorded_digests(tmp_path):
    want = json.loads(RECORDED.read_text())
    got = contract_digests.digests(cli, tmp_path)
    assert sorted(got) == sorted(want)
    changed = sorted(key for key in want if got[key] != want[key])
    assert changed == []
