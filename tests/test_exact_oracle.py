"""An exact oracle for everything ``scan`` does after the spectrum.

Every float is an exact rational, so the float spectra of ``scan``'s pairs,
renormalized with ``fractions.Fraction``, have exact prefix sums and exact
elementary symmetric polynomials e_k. Classifying each pair from those with
zero tolerance separates the rounding of the prefix sums and of the e_k
recurrence from the SVD's own error. Only the standard library is used past
the spectra.

For d = 3 to 6 the exact classes equal today's on every pair checked. From
d = 8 they do not: there a tolerance policy built on error bounds is still
due.
"""

import json
from fractions import Fraction
from itertools import accumulate

import pytest

from enthier.cli import main
from enthier.linalg import seeded_rng
from enthier.locc import COMPARABLE, INCOMPARABLE_FULL, INCOMPARABLE_MIXED, conversion_class
from enthier.states import random_pure, schmidt_spectra


def exact_spectrum(values):
    parts = [Fraction(float(value)) for value in values]
    total = sum(parts)
    return [part / total for part in parts]


def elementary_symmetric(values):
    e = [Fraction(1)] + [Fraction(0)] * len(values)
    for value in values:
        for k in range(len(values), 0, -1):
            e[k] += value * e[k - 1]
    return e[1:]


def bounded_by(low, high):
    return all(x <= y for x, y in zip(low, high))


def exact_class(source, target):
    """``locc.conversion_class`` of two descending spectra of one length, exactly."""
    ps, pt = list(accumulate(source)), list(accumulate(target))
    if bounded_by(ps, pt) or bounded_by(pt, ps):
        return COMPARABLE
    cs, ct = elementary_symmetric(source), elementary_symmetric(target)
    return INCOMPARABLE_FULL if bounded_by(ct, cs) or bounded_by(cs, ct) else INCOMPARABLE_MIXED


def scan_pairs(dims, samples, seed):
    pairs = []
    for index in range(samples):
        rng = seeded_rng((seed, index))  # the stream scan draws pair ``index`` from
        pairs.append((random_pure(dims, dims, rng), random_pure(dims, dims, rng)))
    return pairs


def check_scan_classes(capsys, dims, seed, expected):
    pairs = scan_pairs(dims, 1000, seed)
    spectra = [exact_spectrum(row) for row in schmidt_spectra([state for pair in pairs for state in pair])]
    exact = [exact_class(source, target) for source, target in zip(spectra[::2], spectra[1::2])]
    assert [conversion_class(source, target) for source, target in pairs] == exact
    counts = {key: exact.count(key) for key in (COMPARABLE, INCOMPARABLE_MIXED, INCOMPARABLE_FULL)}
    assert tuple(counts.values()) == expected
    argv = ["scan", "--dims", str(dims), "--samples", "1000", "--seed", str(seed), "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"]["counts"] == counts


@pytest.mark.parametrize(
    "seed, expected",
    [(0, (645, 238, 117)), (1, (648, 243, 109)), (2, (640, 230, 130))],
)
def test_scan_classes_at_d3_equal_the_exact_classes(capsys, seed, expected):
    check_scan_classes(capsys, 3, seed, expected)


@pytest.mark.parametrize(
    "dims, expected",
    [(4, (445, 350, 205)), (5, (422, 342, 236)), (6, (324, 376, 300))],
)
def test_scan_classes_at_d4_to_d6_equal_the_exact_classes(capsys, dims, expected):
    check_scan_classes(capsys, dims, 0, expected)
