"""Exact cut-weight arithmetic.

A cut weight is ``base + eps/unit`` where ``base`` counts edges, ``eps``
counts perturbation units, and ``unit`` is the per-graph denominator fixed
when the graph was perturbed.  Within one graph the sum of all perturbation
units stays strictly below ``unit``, so the eps part of any cut weight is
below one whole edge and componentwise (base, eps) comparison is the exact
integer comparison of ``base * unit + eps``.  All comparisons in the library
happen between weights of one graph, or against whole-integer thresholds,
where this holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True, slots=True)
class Weight:
    """Cut weight: an edge count plus a sub-unit perturbation residue."""

    base: int
    eps: int = 0

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.base + other.base, self.eps + other.eps)

    def __radd__(self, other):
        if other == 0:  # allow sum()
            return self
        return NotImplemented

    def __lt__(self, other: "Weight") -> bool:
        return (self.base, self.eps) < (other.base, other.eps)

    def scaled(self, unit: int) -> int:
        return self.base * unit + self.eps

    def __str__(self) -> str:
        return f"{self.base}.{self.eps}"

    @staticmethod
    def parse(text: str) -> "Weight":
        """Parse ``str(weight)``; raises ValueError on malformed or
        negative parts (no cut weighs less than zero)."""
        if "-" in text:
            # checked on the text: "-0.5" would parse to a positive 0.5
            raise ValueError(f"negative weight {text!r}")
        if "." in text:
            b, e = text.split(".", 1)
            return Weight(int(b), int(e))
        return Weight(int(text))


ZERO = Weight(0, 0)


def from_scaled(scaled: int, unit: int) -> Weight:
    """Split a scaled integer back into (base, eps) parts."""
    if unit == 1:
        return Weight(scaled, 0)
    return Weight(scaled // unit, scaled % unit)
