"""Majorization and LOCC convertibility of bipartite pure states.

Nielsen's criterion: a source state converts to a target under LOCC
exactly when the source Schmidt spectrum is majorized by the target's.
The hierarchy comparison is the weaker necessary condition that every
concurrence level of the source bounds the target's from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import sub

from .measures import hierarchy
from .states import PureState, schmidt_spectrum

PREFIX_TOL = 1e-12
SLACK_TOL = 1e-12

COMPARABLE = "comparable"
INCOMPARABLE_MIXED = "incomparable-mixed-dominance"
INCOMPARABLE_FULL = "incomparable-full-dominance"


class Verdict(Enum):
    FORWARD_ONLY = "forward-only"
    BACKWARD_ONLY = "backward-only"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ConvertibilityVerdict:
    """Outcome of the majorization comparison, with the prefix sums used."""

    verdict: Verdict
    source_prefix_sums: tuple[float, ...]
    target_prefix_sums: tuple[float, ...]


@dataclass(frozen=True)
class DominanceReport:
    """Per-level hierarchy slack C_k(source) - C_k(target), k = 1..d."""

    slacks: tuple[float, ...]
    source_dominates: bool
    target_dominates: bool

    @property
    def mixed(self) -> bool:
        return not (self.source_dominates or self.target_dominates)


# (forward, backward) prefix dominance -> verdict
_VERDICTS = {
    (True, True): Verdict.EQUIVALENT,
    (True, False): Verdict.FORWARD_ONLY,
    (False, True): Verdict.BACKWARD_ONLY,
    (False, False): Verdict.INCOMPARABLE,
}


def nielsen_verdict(source: PureState, target: PureState) -> ConvertibilityVerdict:
    """LOCC convertibility between two pure states.

    Forward means source -> target is possible; spectra of unequal length
    are zero-padded, so the shorter prefix sums repeat their last value.
    Both spectra are descending with unit sum, so only the prefix sums need
    comparing. Comparisons at the tolerance boundary resolve toward
    convertibility. The sums are sequential double-precision additions, as
    ``cumsum`` forms them.
    """
    ps = list(accumulate(schmidt_spectrum(source).tolist()))
    pt = list(accumulate(schmidt_spectrum(target).tolist()))
    if len(ps) != len(pt):
        n = max(len(ps), len(pt))
        ps += ps[-1:] * (n - len(ps))
        pt += pt[-1:] * (n - len(pt))
    forward = backward = True
    for s, t in zip(ps, pt):  # both directions in one pass, which ends once both have failed
        forward = forward and s <= t + PREFIX_TOL
        backward = backward and t <= s + PREFIX_TOL
        if not (forward or backward):
            break
    return ConvertibilityVerdict(_VERDICTS[forward, backward], tuple(ps), tuple(pt))


def hierarchy_dominance(source: PureState, target: PureState) -> DominanceReport:
    """Compare the concurrence hierarchies level by level; the shorter
    hierarchy is padded with zero levels.

    Source dominance (all slacks >= -1e-12) is necessary for
    source -> target convertibility, but not sufficient.
    """
    cs = hierarchy(source).tolist()
    ct = hierarchy(target).tolist()
    if len(cs) != len(ct):
        n = max(len(cs), len(ct))
        cs += [0.0] * (n - len(cs))
        ct += [0.0] * (n - len(ct))
    slacks = tuple(map(sub, cs, ct))
    return DominanceReport(
        slacks=slacks,
        source_dominates=min(slacks) >= -SLACK_TOL,
        target_dominates=max(slacks) <= SLACK_TOL,
    )


def conversion_class(
    source: PureState,
    target: PureState,
    verdict: ConvertibilityVerdict | None = None,
    dominance: DominanceReport | None = None,
) -> str:
    """Classify a pair: comparable under Nielsen, or incomparable with
    mixed / one-sided hierarchy dominance.

    A caller that has already taken the pair's ``verdict`` or ``dominance``
    passes it in, and it is not taken again; the dominance is taken only
    for an incomparable pair.
    """
    if verdict is None:
        verdict = nielsen_verdict(source, target)
    if verdict.verdict is not Verdict.INCOMPARABLE:
        return COMPARABLE
    if dominance is None:
        dominance = hierarchy_dominance(source, target)
    return INCOMPARABLE_MIXED if dominance.mixed else INCOMPARABLE_FULL


__all__ = [
    "PREFIX_TOL",
    "SLACK_TOL",
    "COMPARABLE",
    "INCOMPARABLE_MIXED",
    "INCOMPARABLE_FULL",
    "Verdict",
    "ConvertibilityVerdict",
    "DominanceReport",
    "nielsen_verdict",
    "hierarchy_dominance",
    "conversion_class",
]
