"""Figure 17: chunk queue lengths, PARSEC (TCC and SEQ only)."""

from repro.config import ProtocolKind
from repro.harness import figures

from conftest import LARGE_CORES, PARSEC_SUBSET


def test_fig17_queue_parsec(records):
    data = {app: figures.queue_lengths(records, app, LARGE_CORES)
            for app in PARSEC_SUBSET}

    for per in data.values():
        for v in per.values():
            assert v >= 0.0

    # the high-commit-pressure app queues more than the parallel one
    assert data["Canneal"][ProtocolKind.SEQ] >= \
        data["Swaptions"][ProtocolKind.SEQ]
