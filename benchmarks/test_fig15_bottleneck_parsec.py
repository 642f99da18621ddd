"""Figure 15: bottleneck ratio, PARSEC (ScalableBulk / TCC / SEQ)."""

from repro.config import ProtocolKind
from repro.harness import figures

from conftest import LARGE_CORES, PARSEC_SUBSET


def test_fig15_bottleneck_parsec(records):
    data = {app: figures.bottleneck_ratios(records, app, LARGE_CORES)
            for app in PARSEC_SUBSET}

    for per_proto in data.values():
        for ratio in per_proto.values():
            assert ratio >= 0.0

    # the large-group app pays more in SEQ than the parallel one
    assert data["Canneal"][ProtocolKind.SEQ] >= \
        data["Swaptions"][ProtocolKind.SEQ] * 0.5
