"""Small histogram utilities for the distribution figures (11, 12, 13)."""

from __future__ import annotations

from collections import Counter
from typing import Dict


class Histogram:
    """Integer-valued histogram with percentage and percentile views."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self.n = 0

    def add(self, value: int) -> None:
        self._counts[int(value)] += 1
        self.n += 1

    def counts(self) -> Dict[int, int]:
        return dict(self._counts)

    def mean(self) -> float:
        if not self.n:
            return 0.0
        return sum(v * c for v, c in self._counts.items()) / self.n

    def percentile(self, p: float) -> int:
        """Smallest value v such that at least p% of samples are <= v."""
        if not self.n:
            return 0
        target = self.n * p / 100.0
        cum = 0
        for v in sorted(self._counts):
            cum += self._counts[v]
            if cum >= target:
                return v
        return max(self._counts)

    def percentages(self, upper: int, overflow_label: str = "more"
                    ) -> Dict[object, float]:
        """Percent of samples at each value 0..upper, rest under ``overflow_label``.

        Matches the x-axes of Figures 11/12 (0..14 plus "more").
        """
        out: Dict[object, float] = {}
        overflow = 0
        for v, c in self._counts.items():
            if v <= upper:
                out[v] = out.get(v, 0.0) + c
            else:
                overflow += c
        result: Dict[object, float] = {
            v: (100.0 * out.get(v, 0.0) / self.n if self.n else 0.0)
            for v in range(upper + 1)
        }
        result[overflow_label] = 100.0 * overflow / self.n if self.n else 0.0
        return result

    def __len__(self) -> int:
        return self.n


__all__ = ["Histogram"]
