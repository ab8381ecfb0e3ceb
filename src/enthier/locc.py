"""Majorization and LOCC convertibility of bipartite pure states.

Nielsen's criterion: a source state converts to a target under LOCC
exactly when the source Schmidt spectrum is majorized by the target's.
The hierarchy comparison is the weaker necessary condition that every
concurrence level of the source bounds the target's from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def _padded(values: np.ndarray, length: int) -> np.ndarray:
    """``values`` followed by zeros up to ``length`` entries."""
    if values.size == length:
        return values
    padded = np.zeros(length)
    padded[: values.size] = values
    return padded


def nielsen_verdict(source: PureState, target: PureState) -> ConvertibilityVerdict:
    """LOCC convertibility between two pure states.

    Forward means source -> target is possible; spectra of unequal length
    are zero-padded. Both spectra are descending with unit sum, so only
    the prefix sums need comparing. Comparisons at the tolerance boundary
    resolve toward convertibility.
    """
    lam_source = schmidt_spectrum(source)
    lam_target = schmidt_spectrum(target)
    n = max(lam_source.size, lam_target.size)
    ps = _padded(lam_source, n).cumsum()
    pt = _padded(lam_target, n).cumsum()
    forward = bool((ps <= pt + PREFIX_TOL).all())
    backward = bool((pt <= ps + PREFIX_TOL).all())
    return ConvertibilityVerdict(_VERDICTS[forward, backward], tuple(ps.tolist()), tuple(pt.tolist()))


def hierarchy_dominance(source: PureState, target: PureState) -> DominanceReport:
    """Compare the concurrence hierarchies level by level.

    Source dominance (all slacks >= -1e-12) is necessary for
    source -> target convertibility, but not sufficient.
    """
    cs = hierarchy(source)
    ct = hierarchy(target)
    n = max(cs.size, ct.size)
    slacks = _padded(cs, n) - _padded(ct, n)
    return DominanceReport(
        slacks=tuple(slacks.tolist()),
        source_dominates=bool((slacks >= -SLACK_TOL).all()),
        target_dominates=bool((slacks <= SLACK_TOL).all()),
    )


def t_transform_source(target, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Generate a spectrum majorized by ``target`` via random Robin-Hood
    transfers: each step moves mass from a larger entry toward a smaller
    one without letting them cross. Result is sorted descending."""
    if steps < 1:
        raise ValueError("need at least one transfer step")
    spectrum = np.sort(np.asarray(target, dtype=float))[::-1].copy()
    d = spectrum.size
    if d > 1:
        for _ in range(steps):
            i, j = rng.choice(d, size=2, replace=False)
            hi, lo = (i, j) if spectrum[i] >= spectrum[j] else (j, i)
            delta = 0.5 * (spectrum[hi] - spectrum[lo]) * rng.uniform()
            spectrum[hi] -= delta
            spectrum[lo] += delta
    return np.sort(spectrum)[::-1]


def conversion_class(source: PureState, target: PureState) -> str:
    """Classify a pair: comparable under Nielsen, or incomparable with
    mixed / one-sided hierarchy dominance."""
    if nielsen_verdict(source, target).verdict is not Verdict.INCOMPARABLE:
        return COMPARABLE
    report = hierarchy_dominance(source, target)
    return INCOMPARABLE_MIXED if report.mixed else INCOMPARABLE_FULL


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
    "t_transform_source",
    "conversion_class",
]
