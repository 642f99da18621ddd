"""Behaviour lock at paper scale: two cells of the paper-sweep benchmark
must reproduce the simulated-statistics digests committed in
``paperbench/expected.json``.

``Radix/64/BulkSC`` is the heaviest cell on the engine and NoC path (about
300k events and 200k messages, most of them bulk-invalidation resends);
``Canneal/64/ScalableBulk`` adds conflict squashes and commit retries.
The test only reads ``expected.json``; regenerate it with
``python3 paperbench/run.py --regenerate`` when a change is meant to move
simulated behaviour.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PAPERBENCH = Path(__file__).resolve().parent.parent / "paperbench"

LOCKED = {
    "commit-storm": "Radix/64/BulkSC/64",
    "contended": "Canneal/64/ScalableBulk/64",
}


def _load_cells():
    spec = importlib.util.spec_from_file_location(
        "paperbench_cells", PAPERBENCH / "cells.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(LOCKED))
def test_default_seed_cell_matches_expected_digest(workload):
    cells = _load_cells()
    expected = json.loads((PAPERBENCH / "expected.json").read_text())
    key = LOCKED[workload]
    app = key.split("/")[0]
    task = dict(cells.slice_cells(app))[key]
    cell = cells.run_cell(key, task, cells.DEFAULT_SEED)
    assert cell.error is None
    want = expected[workload][str(cells.DEFAULT_SEED)][key]
    assert cell.record == want["record"]
    assert cell.digest == want["digest"]
