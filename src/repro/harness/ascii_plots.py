"""Terminal charts for the paper's figures (no plotting libraries needed).

Three chart shapes cover every figure in the evaluation:

* :func:`stacked_bars` — the Figs. 7/8 execution-time breakdowns
  (Useful / Cache Miss / Commit / Squash as distinct fill characters);
* :func:`grouped_bars` — Figs. 9/10 (write group vs read group) and the
  per-protocol comparisons of Figs. 14-17;
* :func:`distribution_plot` — Figs. 11-13 (percentage vs bucket).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

#: fill characters for stacked segments, in legend order
SEGMENT_CHARS = ("#", "=", "+", "x", "o", "*")


def _scale(value: float, vmax: float, width: int) -> int:
    if vmax <= 0:
        return 0
    return max(0, min(width, round(value / vmax * width)))


def hbar_chart(items: Mapping[str, float], width: int = 50,
               title: str = "", unit: str = "") -> str:
    """One horizontal bar per item, annotated with its value."""
    lines: List[str] = [title] if title else []
    if not items:
        return "\n".join(lines + ["(no data)"])
    vmax = max(items.values()) or 1.0
    label_w = max(len(k) for k in items)
    for label, value in items.items():
        bar = "#" * _scale(value, vmax, width)
        lines.append(f"{label:>{label_w}s} |{bar:<{width}s}| "
                     f"{value:g}{unit}")
    return "\n".join(lines)


def stacked_bars(labels: Sequence[str],
                 segments: Mapping[str, Sequence[float]],
                 width: int = 50, title: str = "") -> str:
    """Stacked horizontal bars: one row per label, one fill char per segment.

    ``segments`` maps segment name -> per-label values (all equal length).
    """
    lines: List[str] = [title] if title else []
    names = list(segments)
    for name, values in segments.items():
        if len(values) != len(labels):
            raise ValueError(f"segment {name!r} has {len(values)} values "
                             f"for {len(labels)} labels")
    totals = [sum(segments[name][i] for name in names)
              for i in range(len(labels))]
    vmax = max(totals, default=0) or 1.0
    label_w = max((len(l) for l in labels), default=1)

    legend = "  ".join(f"{SEGMENT_CHARS[i % len(SEGMENT_CHARS)]}={name}"
                       for i, name in enumerate(names))
    lines.append(legend)
    for i, label in enumerate(labels):
        bar = ""
        for j, name in enumerate(names):
            bar += SEGMENT_CHARS[j % len(SEGMENT_CHARS)] * _scale(
                segments[name][i], vmax, width)
        lines.append(f"{label:>{label_w}s} |{bar:<{width}s}| "
                     f"{totals[i]:.3g}")
    return "\n".join(lines)


def grouped_bars(labels: Sequence[str],
                 groups: Mapping[str, Sequence[float]],
                 width: int = 40, title: str = "", unit: str = "") -> str:
    """Adjacent bars per label, one row per (label, group)."""
    lines: List[str] = [title] if title else []
    vmax = max((v for vs in groups.values() for v in vs), default=0) or 1.0
    label_w = max((len(l) for l in labels), default=1)
    group_w = max((len(g) for g in groups), default=1)
    for i, label in enumerate(labels):
        for gname, values in groups.items():
            bar = "#" * _scale(values[i], vmax, width)
            lines.append(f"{label:>{label_w}s} {gname:<{group_w}s} "
                         f"|{bar:<{width}s}| {values[i]:g}{unit}")
        lines.append("")
    return "\n".join(lines).rstrip()


def distribution_plot(buckets: Mapping[object, float], width: int = 40,
                      title: str = "", unit: str = "%") -> str:
    """Bucketed distribution: one bar per bucket, in key order."""
    lines: List[str] = [title] if title else []
    if not buckets:
        return "\n".join(lines + ["(no data)"])
    vmax = max(buckets.values()) or 1.0
    for key, value in buckets.items():
        bar = "#" * _scale(value, vmax, width)
        lines.append(f"{key!s:>6s} |{bar:<{width}s}| {value:.1f}{unit}")
    return "\n".join(lines)


__all__ = ["SEGMENT_CHARS", "distribution_plot", "grouped_bars", "hbar_chart",
           "stacked_bars"]
