"""Oracles for the benchmark: expected outputs computed from numpy LAPACK.

Nothing here imports enthier, so a defect in its numerics cannot hide in
the oracle. Each ``check_*`` function takes the text a CLI call printed
plus the inputs the benchmark generated, and returns a list of problems;
an empty list means the output is correct. Checks run outside the timed
interval.
"""

from __future__ import annotations

import json
import math

import numpy as np

HIERARCHY_TOL = 1e-8  # the triple-path agreement tolerance of the acceptance tests
SPECTRUM_TOL = 1e-10
WOOTTERS_TOL = 1e-9
# Same floor as measures.py: eigenvalues of rho rho~ below it are product dust.
LAMBDA_SQ_FLOOR = 1e-13
# Tolerances that the package documents for its own decisions.
RANK_TOL = 1e-10
PREFIX_TOL = 1e-12
TOTAL_TOL = 1e-9
SLACK_TOL = 1e-12
PPT_TOL = 1e-10

COMPARABLE = "comparable"
INCOMPARABLE_MIXED = "incomparable-mixed-dominance"
INCOMPARABLE_FULL = "incomparable-full-dominance"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str) -> dict:
    """Parse a --json output; NaN and Infinity are errors."""
    document = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(document, dict):
        raise ValueError("top level is not an object")
    return document


def _results(text: str, command: str) -> dict:
    document = strict_json(text)
    if document.get("command") != command:
        raise ValueError(f"command {document.get('command')!r}, expected {command!r}")
    return document["results"]


def human_fields(text: str) -> dict[str, str]:
    """Top-level ``key: value`` lines of a human-readable report."""
    fields = {}
    for line in text.splitlines()[1:]:
        if line == "provenance:":
            break
        if not line.startswith(" ") and ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields


def _human_numbers(fields: dict, key: str) -> np.ndarray:
    return np.array([float(part) for part in fields[key].split()])


def _close(got, want, tol) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def _printed_close(got, want) -> bool:
    """Agreement up to the six significant digits of human output."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= 1e-5 * np.abs(want) + 1e-9))


def spectrum(matrix) -> np.ndarray:
    """Descending Schmidt spectrum with unit sum, from LAPACK eigvalsh of the smaller Gram matrix."""
    a = np.asarray(matrix, dtype=complex)
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    values = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)
    return values / values.sum()


def elementary_symmetric(values) -> np.ndarray:
    """e_1..e_d of the values, from the coefficients of prod (x - v)."""
    coefficients = np.poly(np.asarray(values, dtype=float))
    signs = (-1.0) ** np.arange(coefficients.size)
    return (coefficients * signs)[1:]


def hierarchy(matrix) -> np.ndarray:
    return elementary_symmetric(spectrum(matrix))


def _prefix_dominated(px, py) -> bool:
    if abs(px[-1] - py[-1]) > TOTAL_TOL:
        return False
    return bool(np.all(px <= py + PREFIX_TOL))


def majorization(spec_a, spec_b) -> str:
    """Nielsen verdict for a -> b from zero-padded descending prefix sums."""
    n = max(spec_a.size, spec_b.size)
    pa = np.cumsum(np.pad(np.sort(spec_a)[::-1], (0, n - spec_a.size)))
    pb = np.cumsum(np.pad(np.sort(spec_b)[::-1], (0, n - spec_b.size)))
    forward, backward = _prefix_dominated(pa, pb), _prefix_dominated(pb, pa)
    if forward and backward:
        return "equivalent"
    if forward:
        return "forward-only"
    if backward:
        return "backward-only"
    return "incomparable"


def conversion_class(spec_a, spec_b) -> str:
    if majorization(spec_a, spec_b) != "incomparable":
        return COMPARABLE
    ha, hb = elementary_symmetric(spec_a), elementary_symmetric(spec_b)
    n = max(ha.size, hb.size)
    slacks = np.pad(ha, (0, n - ha.size)) - np.pad(hb, (0, n - hb.size))
    if np.all(slacks >= -SLACK_TOL) or np.all(slacks <= SLACK_TOL):
        return INCOMPARABLE_FULL
    return INCOMPARABLE_MIXED


def scan_pair(rng: np.random.Generator, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Replay of one scan sample: two Gaussian amplitude matrices, real part drawn first."""
    first = rng.standard_normal((dims, dims)) + 1j * rng.standard_normal((dims, dims))
    second = rng.standard_normal((dims, dims)) + 1j * rng.standard_normal((dims, dims))
    return first, second


def scan_counts(dims: int, samples: int, seed: int) -> dict[str, int]:
    """Class counts of ``scan`` replayed from the per-sample streams default_rng((seed, i))."""
    counts = {COMPARABLE: 0, INCOMPARABLE_MIXED: 0, INCOMPARABLE_FULL: 0}
    for index in range(samples):
        first, second = scan_pair(np.random.default_rng((seed, index)), dims)
        counts[conversion_class(spectrum(first), spectrum(second))] += 1
    return counts


def check_scan(text: str, dims: int, samples: int, seed: int, gate_split: bool) -> tuple[list[str], int]:
    """Problems, and the number of pairs on which the mixed/full split differs.

    The comparable count is always gated. The mixed/full split is gated
    only when ``gate_split``: at high d it hinges on the package's
    absolute slack tolerance, so it is recorded instead.
    """
    results = _results(text, "scan")
    if results["dims"] != dims or results["samples"] != samples:
        return [f"echoed dims/samples {results['dims']}/{results['samples']}"], 0
    got, want = results["counts"], scan_counts(dims, samples, seed)
    problems = []
    if got.get(COMPARABLE) != want[COMPARABLE]:
        problems.append(f"comparable {got.get(COMPARABLE)} != oracle {want[COMPARABLE]}")
    split_diff = abs(got.get(INCOMPARABLE_MIXED, 0) - want[INCOMPARABLE_MIXED])
    if gate_split and split_diff:
        problems.append(f"mixed/full split {got} != oracle {want}")
    return problems, split_diff


def check_measure(text: str, matrix, route: str, as_json: bool) -> list[str]:
    want = hierarchy(matrix)
    if not as_json:
        fields = human_fields(text)
        if not _printed_close(_human_numbers(fields, "hierarchy"), want):
            return [f"printed hierarchy {fields['hierarchy']} != oracle {want.tolist()}"]
        return []
    results = _results(text, "measure")
    problems = []
    if results["hierarchy_path"] != route:
        problems.append(f"route {results['hierarchy_path']!r} != {route!r}")
    if not _close(results["hierarchy"], want, HIERARCHY_TOL):
        problems.append(f"{route} hierarchy {results['hierarchy']} != oracle {want.tolist()}")
    if not _close(results["schmidt_spectrum"], spectrum(matrix), SPECTRUM_TOL):
        problems.append("schmidt_spectrum off the oracle")
    return problems


def check_schmidt(text: str, matrix, as_json: bool) -> list[str]:
    want = spectrum(matrix)
    if not as_json:
        fields = human_fields(text)
        if not _printed_close(_human_numbers(fields, "schmidt_spectrum"), want):
            return [f"printed spectrum {fields['schmidt_spectrum']} != oracle {want.tolist()}"]
        return []
    results = _results(text, "schmidt")
    problems = []
    if not _close(results["schmidt_spectrum"], want, SPECTRUM_TOL):
        problems.append(f"spectrum {results['schmidt_spectrum']} != oracle {want.tolist()}")
    if results["schmidt_rank"] != int(np.sum(want > RANK_TOL)):
        problems.append(f"rank {results['schmidt_rank']} != oracle {int(np.sum(want > RANK_TOL))}")
    return problems


def check_locc(text: str, source, target, as_json: bool) -> list[str]:
    spec_s, spec_t = spectrum(source), spectrum(target)
    want = {
        "verdict": majorization(spec_s, spec_t),
        "conversion_class": conversion_class(spec_s, spec_t),
    }
    got = human_fields(text) if not as_json else _results(text, "locc")
    return [f"{key} {got.get(key)!r} != oracle {value!r}" for key, value in want.items() if got.get(key) != value]


def spin_flip_lambdas(rho) -> np.ndarray:
    """Descending sqrt of the eigenvalues of rho rho~, floored like the package."""
    sigma_yy = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
    flipped = sigma_yy @ np.asarray(rho).conj() @ sigma_yy
    squares = np.clip(np.linalg.eigvals(rho @ flipped).real, 0.0, None)
    squares[squares < LAMBDA_SQ_FLOOR] = 0.0
    return np.sort(np.sqrt(squares))[::-1]


def ppt(rho) -> str:
    transposed = np.asarray(rho).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return "entangled" if np.linalg.eigvalsh(transposed)[0] < -PPT_TOL else "separable"


def check_wootters(text: str, rho, as_json: bool) -> list[str]:
    lambdas = spin_flip_lambdas(rho)
    concurrence = min(1.0, max(0.0, lambdas[0] - lambdas[1:].sum()))
    if not as_json:
        fields = human_fields(text)
        problems = []
        if not _printed_close(float(fields["concurrence"]), concurrence):
            problems.append(f"printed concurrence {fields['concurrence']} != oracle {concurrence}")
        if fields.get("ppt") != ppt(rho):
            problems.append(f"ppt {fields.get('ppt')!r} != oracle {ppt(rho)!r}")
        return problems
    results = _results(text, "wootters")
    problems = []
    if not _close(results["lambdas"], lambdas, WOOTTERS_TOL):
        problems.append(f"lambdas {results['lambdas']} != oracle {lambdas.tolist()}")
    if not _close(results["concurrence"], concurrence, WOOTTERS_TOL):
        problems.append(f"concurrence {results['concurrence']} != oracle {concurrence}")
    if results["ppt"] != ppt(rho):
        problems.append(f"ppt {results['ppt']!r} != oracle {ppt(rho)!r}")
    return problems


#: The pinned spectra of the paper-examples report, keyed as in its results.
PAPER_SPECTRA = {
    "spectrum_050_040_010": (0.5, 0.4, 0.1),
    "spectrum_060_020_020": (0.6, 0.2, 0.2),
    "spectrum_055_030_015": (0.55, 0.3, 0.15),
}


def _unit_entropy_root() -> float:
    """Root in (0, 1/2) of x^x (2(1-x))^(1-x) = 1, by bisection on the log."""

    def f(x):
        return x * math.log(x) + (1 - x) * math.log(2 * (1 - x))

    lo, hi = 0.01, 0.49
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (f(mid) > 0) == (f(lo) > 0) else (lo, mid)
    return 0.5 * (lo + hi)


def check_paper_examples(text: str, as_json: bool) -> list[str]:
    if not as_json:
        lines = text.splitlines()
        failed = [line.strip() for line in lines if "[FAIL]" in line]
        passed = sum("[PASS]" in line for line in lines)
        return failed or ([] if passed else ["no [PASS] lines"])
    results = _results(text, "paper-examples")
    problems = [f"check failed: {c['name']}" for c in results["checks"] if not c["passed"]]
    for key, spec in PAPER_SPECTRA.items():
        want = elementary_symmetric(np.array(spec))
        got = results["hierarchies"][key]
        if not _close([got["c2"], got["c3"]], want[1:], HIERARCHY_TOL):
            problems.append(f"{key} (c2, c3) {got} != oracle {want[1:].tolist()}")
    if not _close(results["three_level"]["gap"], 1.0 / 54.0, HIERARCHY_TOL):
        problems.append(f"three-level gap {results['three_level']['gap']} != 1/54")
    if not _close(results["unit_eof_root"]["x_star"], _unit_entropy_root(), 1e-9):
        problems.append(f"unit-entropy root {results['unit_eof_root']['x_star']} != oracle {_unit_entropy_root()}")
    return problems
