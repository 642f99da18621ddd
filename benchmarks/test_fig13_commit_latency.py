"""Figure 13: chunk-commit latency distribution per protocol.

Shape (paper, 64p): ScalableBulk has the lowest mean latency; BulkSC's
centralized arbiter queues catastrophically at scale; SEQ pays sequential
occupation on large-group applications.
"""

from repro.config import ProtocolKind
from repro.harness import figures
from repro.harness.sweep import PROTOCOLS

from conftest import CHUNKS, LARGE_CORES, PARSEC_SUBSET, SPLASH2_SUBSET

APPS = SPLASH2_SUBSET[:3] + PARSEC_SUBSET[:1]


def test_fig13_commit_latency(records):
    latency = {p: figures.commit_latency(records, APPS, LARGE_CORES, p)
               for p in PROTOCOLS}

    means = {p: mean for p, (mean, _) in latency.items()}
    sb = means[ProtocolKind.SCALABLEBULK]
    assert sb > 0
    # the serializing protocols pay more than ScalableBulk
    assert means[ProtocolKind.SEQ] > sb
    # latency distributions are non-degenerate
    for proto, (_, samples) in latency.items():
        assert samples == len(APPS) * LARGE_CORES * CHUNKS, proto
