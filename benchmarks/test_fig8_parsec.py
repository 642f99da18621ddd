"""Figure 8: PARSEC execution-time breakdowns across the four protocols."""

from repro.config import ProtocolKind
from repro.harness import figures

from conftest import CORE_COUNTS, PARSEC_SUBSET


def test_fig8_parsec_breakdown(records):
    big = max(CORE_COUNTS)

    def bar(app, proto):
        return figures.breakdown(records, app, big, proto)

    sb = figures.average_speedup(records, PARSEC_SUBSET, big,
                                 ProtocolKind.SCALABLEBULK)
    seq = figures.average_speedup(records, PARSEC_SUBSET, big,
                                  ProtocolKind.SEQ)
    assert sb > 0 and sb >= seq * 0.95

    # ScalableBulk: no commit stalls on PARSEC either
    assert figures.average_commit_fraction(
        records, PARSEC_SUBSET, big, ProtocolKind.SCALABLEBULK) < 0.05

    # Canneal's scattered shared writes produce large groups -> SEQ pays
    canneal_seq = bar("Canneal", ProtocolKind.SEQ)
    canneal_sb = bar("Canneal", ProtocolKind.SCALABLEBULK)
    assert canneal_seq["norm"] >= canneal_sb["norm"]

    # the embarrassingly parallel app is insensitive to the protocol
    swap = [bar("Swaptions", p)["norm"]
            for p in (ProtocolKind.SCALABLEBULK, ProtocolKind.TCC)]
    assert max(swap) / min(swap) < 1.6
