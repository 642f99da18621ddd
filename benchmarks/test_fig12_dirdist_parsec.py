"""Figure 12: distribution of directories per commit, PARSEC at scale."""

from repro.harness import figures

from conftest import LARGE_CORES, PARSEC_SUBSET


def test_fig12_distribution_parsec(records):
    dist = {app: figures.dirs_distribution(records, app, LARGE_CORES)
            for app in PARSEC_SUBSET}

    for pct in dist.values():
        assert abs(sum(pct.values()) - 100.0) < 1e-6

    # Canneal has the significant tail of large groups (Section 6.2)
    canneal_high = sum(v for k, v in dist["Canneal"].items()
                       if k == "more" or (isinstance(k, int) and k >= 5))
    swaptions_high = sum(v for k, v in dist["Swaptions"].items()
                         if k == "more" or (isinstance(k, int) and k >= 5))
    assert canneal_high > swaptions_high
