"""Shared configuration for the figure shape checks.

Every figure test reads one session-wide set of sweep records (the
``records`` fixture) through :mod:`repro.harness.figures`, the same
functions that render EXPERIMENTS.md's tables.  By default the sweep is
*shape-preserving* and small (16-core machine, a representative
application subset, short runs) so the suite finishes in about half a
minute.  Set ``REPRO_BENCH_FULL=1`` to check the paper's matrix instead:
all applications at 32 and 64 cores, the same cells ``results/sweep.json``
holds (slow).
"""

import os

import pytest

from repro.harness import sweep

FULL = os.environ.get("REPRO_BENCH_FULL") == "1"

#: machine sizes standing in for the paper's 32/64
SMALL_CORES = 16
LARGE_CORES = 64 if FULL else 16
CORE_COUNTS = (32, 64) if FULL else (16,)
CHUNKS = 3 if FULL else 2

#: representative app subsets (full suites under REPRO_BENCH_FULL)
if FULL:
    from repro.workloads.profiles import PARSEC_APPS, SPLASH2_APPS
    SPLASH2_SUBSET = list(SPLASH2_APPS)
    PARSEC_SUBSET = list(PARSEC_APPS)
else:
    SPLASH2_SUBSET = ["Radix", "LU", "Barnes", "Ocean"]
    PARSEC_SUBSET = ["Blackscholes", "Canneal", "Swaptions"]


@pytest.fixture(scope="session")
def records():
    """One sweep of every figure's matrix, run once per session."""
    return sweep.collect(SPLASH2_SUBSET + PARSEC_SUBSET, CORE_COUNTS, CHUNKS,
                         log=lambda _msg: None)
