"""The published results are what the figure functions render from the
committed sweep records (no simulation runs here)."""

import json
from pathlib import Path

import pytest

from repro.harness import figures
from repro.workloads.profiles import PARSEC_APPS, SPLASH2_APPS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def published():
    records = json.loads((ROOT / "results" / "sweep.json").read_text())
    return figures.render_markdown(
        records, list(SPLASH2_APPS) + list(PARSEC_APPS), [32, 64], 3)


class TestPublishedSweep:
    def test_renders_experiments_md_byte_for_byte(self, published):
        assert published == (ROOT / "results" / "experiments.md").read_text()

    def test_experiments_doc_embeds_the_rendering(self, published):
        doc = (ROOT / "EXPERIMENTS.md").read_text()
        _, tables = doc.split("<!-- SWEEP RESULTS BELOW -->", 1)
        assert tables.strip() == published.strip()
