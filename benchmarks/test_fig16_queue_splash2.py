"""Figure 16: chunk queue lengths, SPLASH-2 (TCC and SEQ only).

ScalableBulk chunks never queue (full overlap); TCC and SEQ queue chunks
behind earlier commits at shared directories.
"""

from repro.config import ProtocolKind
from repro.harness import figures

from conftest import LARGE_CORES, SPLASH2_SUBSET


def test_fig16_queue_splash2(records):
    data = {app: figures.queue_lengths(records, app, LARGE_CORES)
            for app in SPLASH2_SUBSET}

    # queues exist somewhere for both serializing protocols
    assert any(per[ProtocolKind.SEQ] > 0.5 for per in data.values())
    # Radix queues hardest under SEQ (large write groups)
    assert data["Radix"][ProtocolKind.SEQ] >= \
        max(per[ProtocolKind.SEQ] for app, per in data.items()
            if app != "Radix") * 0.8


def test_scalablebulk_queues_nothing(records):
    data = figures.queue_lengths(records, "Radix", LARGE_CORES)
    assert data[ProtocolKind.SCALABLEBULK] == 0.0
