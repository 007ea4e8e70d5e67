"""The five-point evidence lattice and the weakest-link combination law.

Beliefs in this model are graded by the source of the evidence supporting
them.  The grades form a total order from easiest to hardest to defeat:

    hypothesis < default < inference < linguistic < physical

A belief resting on several assumptions is only as strong as its weakest
assumption, so strengths combine by MIN and can be replaced (never lowered)
by stronger evidence for the same assumption.
"""

from __future__ import annotations

from enum import IntEnum


class Strength(IntEnum):
    """Ordered evidence grade.  Integer values are ranks, not weights.

    ``PHYSICAL`` completes the lattice, but no operation in this package
    produces it: copresence upgrades stop at linguistic."""

    HYPOTHESIS = 1
    DEFAULT = 2
    INFERENCE = 3
    LINGUISTIC = 4
    PHYSICAL = 5

    label: str  # the lowercase name, set once per member below

    def __str__(self) -> str:  # traces render the lowercase lattice names
        return self.label


for _member in Strength:
    _member.label = _member.name.lower()

# Function bodies read the members through these names, bound once: on
# Python 3.11 the enum metaclass defines ``__getattr__``, so every
# ``Strength.X`` read takes the slow attribute hook, at about five times the
# cost of a module global.
HYPOTHESIS = Strength.HYPOTHESIS
DEFAULT = Strength.DEFAULT
INFERENCE = Strength.INFERENCE
LINGUISTIC = Strength.LINGUISTIC
PHYSICAL = Strength.PHYSICAL

#: Derived (never-uttered) content is capped at inference grade.
DERIVED_CAP = Strength.INFERENCE


def defeats(a: Strength, b: Strength) -> bool:
    """True iff evidence of strength ``a`` can defeat a belief held at ``b``."""
    return a > b
