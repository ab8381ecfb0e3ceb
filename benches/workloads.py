"""The benchmark's workloads: inputs made from the workload seed, grouped in rounds.

A round is the smallest repeating group of CLI calls in a workload; a run
executes whole rounds, cycling through a pool of them, so every run does
the same mix of work. Every call comes with its oracle check.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Op:
    """One CLI call and the check of what it printed."""

    argv: list[str]
    check: Callable[[str], list[str]]
    inputs: tuple[Path, ...] = ()


@dataclass
class Round:
    ops: list[Op]
    units: int
    bytes_in: int = 0
    minor_count: int = 0  # sum_k C(m,k) C(n,k) over the states put through the minors route


@dataclass(frozen=True)
class Workload:
    name: str
    tail_percentile: float
    must_reach: tuple[str, ...]
    make_rounds: Callable[[int, Path, Counter], list[Round]]
    warmup: Callable[[list[Round], Counter], list[Op]]


def _write(path: Path, document: dict) -> int:
    text = json.dumps(document)
    path.write_text(text)
    return len(text.encode())


def _random_state(rng: np.random.Generator, rows: int, cols: int, schmidt: bool):
    """Amplitude matrix and its state document; Schmidt form puts coefficients on the diagonal."""
    if schmidt:
        coefficients = rng.uniform(0.05, 1.0, rows)
        coefficients /= np.linalg.norm(coefficients)
        return np.diag(coefficients).astype(complex), {"dims": [rows, rows], "schmidt": coefficients.tolist()}
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    z /= np.linalg.norm(z)
    entries = [
        {"i": i, "j": j, "re": float(z[i, j].real), "im": float(z[i, j].imag)}
        for i in range(rows)
        for j in range(cols)
    ]
    return z, {"dims": [rows, cols], "amplitudes": entries}


DENSITY_KINDS = ("rank-1", "rank-2", "rank-3", "rank-4", "werner-separable", "werner-entangled")


def _random_density(rng: np.random.Generator, kind: str) -> np.ndarray:
    """A two-qubit density; Werner weights stay 0.05 or more away from the PPT boundary p = 1/3."""
    if kind.startswith("werner"):
        p = rng.uniform(0.05, 0.28) if kind == "werner-separable" else rng.uniform(0.40, 0.95)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        rho = p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0
    else:
        rank = int(kind.split("-")[1])
        vectors = rng.standard_normal((rank, 4)) + 1j * rng.standard_normal((rank, 4))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        weights = rng.dirichlet(np.ones(rank))
        rho = np.einsum("r,ri,rj->ij", weights, vectors, vectors.conj())
    rho = (rho + rho.conj().T) / 2.0
    return (rho / np.trace(rho).real).astype(complex)


def _density_document(rho: np.ndarray) -> dict:
    return {"dims": [4], "matrix": [[float(v.real), float(v.imag)] for v in rho.reshape(-1)]}


def minor_count(rows: int, cols: int) -> int:
    """Determinants the minors route evaluates: sum_k C(m,k) C(n,k)."""
    return sum(math.comb(rows, k) * math.comb(cols, k) for k in range(1, min(rows, cols) + 1))


# --- scan ----------------------------------------------------------------------

_SCAN_POOL = 4096


def _scan_op(dims: int, samples: int, seed: int, notes: Counter) -> Op:
    gate_split = dims <= 3

    def check(text: str) -> list[str]:
        problems, split_diff = oracles.check_scan(text, dims, samples, seed, gate_split)
        notes["scan_split_diff"] += split_diff
        return problems

    argv = ["scan", "--dims", str(dims), "--samples", str(samples), "--seed", str(seed), "--json"]
    return Op(argv, check)


def _scan(dims: int, samples: int):
    def make_rounds(seed: int, workdir: Path, notes: Counter) -> list[Round]:
        seeds = np.random.default_rng(seed).integers(0, 2**31, size=_SCAN_POOL)
        return [Round([_scan_op(dims, samples, int(s), notes)], units=samples) for s in seeds]

    def warmup(rounds: list[Round], notes: Counter) -> list[Op]:
        return [_scan_op(dims, 1, 0, notes)]

    return make_rounds, warmup


# --- crosscheck ----------------------------------------------------------------

#: (rows, cols, Schmidt form): min dimension 5-8, one rectangular shape, and
#: diagonal documents whose zero minors take the early exit in the LU determinant.
CROSS_SHAPES = ((5, 5, False), (6, 6, True), (5, 8, False), (7, 7, True), (7, 7, False), (8, 8, False))
ROUTES = ("eig", "minors", "newton")
_CROSS_POOL = 16


def _crosscheck_rounds(seed: int, workdir: Path, notes: Counter) -> list[Round]:
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(_CROSS_POOL):
        ops, bytes_in, minors = [], 0, 0
        for position, (rows, cols, schmidt) in enumerate(CROSS_SHAPES):
            matrix, document = _random_state(rng, rows, cols, schmidt)
            path = workdir / f"cross-{r}-{position}.json"
            size = _write(path, document)
            for route in ROUTES:
                check = partial(oracles.check_measure, matrix=matrix, route=route, as_json=True)
                ops.append(Op(["measure", str(path), "--path", route, "--json"], check, (path,)))
            bytes_in += size * len(ROUTES)
            minors += minor_count(rows, cols)
        rounds.append(Round(ops, units=len(CROSS_SHAPES), bytes_in=bytes_in, minor_count=minors))
    return rounds


def _first_state(rounds: list[Round], notes: Counter) -> list[Op]:
    return rounds[0].ops[: len(ROUTES)]


# --- cli-mix -------------------------------------------------------------------

SMALL_SHAPES = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 2))
MIX_COMMANDS = ("schmidt", "measure", "locc", "wootters", "paper-examples")
_MIX_POOL = 24


def _cli_mix_rounds(seed: int, workdir: Path, notes: Counter) -> list[Round]:
    """Rounds of ten calls: every command once with --json and once without."""
    rng = np.random.default_rng(seed)
    documents = 0

    def state():
        nonlocal documents
        rows, cols = SMALL_SHAPES[documents % len(SMALL_SHAPES)]
        schmidt = rows == cols and (documents // len(SMALL_SHAPES)) % 2 == 1
        matrix, document = _random_state(rng, rows, cols, schmidt)
        path = workdir / f"mix-state-{documents}.json"
        documents += 1
        return matrix, path, _write(path, document)

    rounds = []
    for r in range(_MIX_POOL):
        ops, bytes_in = [], 0
        for j in range(2 * len(MIX_COMMANDS)):
            command, as_json = MIX_COMMANDS[j % len(MIX_COMMANDS)], j % 2 == 0
            flag = ["--json"] if as_json else []
            if command in ("schmidt", "measure"):
                matrix, path, size = state()
                if command == "schmidt":
                    check = partial(oracles.check_schmidt, matrix=matrix, as_json=as_json)
                else:
                    check = partial(oracles.check_measure, matrix=matrix, route="eig", as_json=as_json)
                ops.append(Op([command, str(path), *flag], check, (path,)))
                bytes_in += size
            elif command == "locc":
                source, source_path, source_size = state()
                target, target_path, target_size = state()
                check = partial(oracles.check_locc, source=source, target=target, as_json=as_json)
                ops.append(Op(["locc", str(source_path), str(target_path), *flag], check, (source_path, target_path)))
                bytes_in += source_size + target_size
            elif command == "wootters":
                kind = DENSITY_KINDS[(2 * r + j // len(MIX_COMMANDS)) % len(DENSITY_KINDS)]
                rho = _random_density(rng, kind)
                path = workdir / f"mix-density-{r}-{j}.json"
                bytes_in += _write(path, _density_document(rho))
                check = partial(oracles.check_wootters, rho=rho, as_json=as_json)
                ops.append(Op(["wootters", str(path), *flag], check, (path,)))
            else:
                check = partial(oracles.check_paper_examples, as_json=as_json)
                ops.append(Op(["paper-examples", *flag], check))
        rounds.append(Round(ops, units=len(ops), bytes_in=bytes_in))
    return rounds


def _whole_round(rounds: list[Round], notes: Counter) -> list[Op]:
    return rounds[0].ops


_SCAN_REACH = (
    "cli.main",
    "cli.build_parser",
    "states.random_pure",
    "states.schmidt_spectrum",
    "linalg.hermitian_eigensystem",
    "locc.conversion_class",
    "locc.nielsen_verdict",
    "locc.hierarchy_dominance",
    "measures.hierarchy",
    "linalg.elementary_symmetric",
    "report.ReportDocument.to_json",
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("scan-d3", 90.0, _SCAN_REACH, *_scan(dims=3, samples=50)),
        Workload("scan-d48", 60.0, _SCAN_REACH, *_scan(dims=48, samples=1)),
        Workload(
            "crosscheck",
            96.0,
            (
                "cli.main",
                "statefile.parse_state",
                "measures.hierarchy",
                "measures.hierarchy_via_minors",
                "measures.hierarchy_via_invariants",
                "linalg.minor_sum",
                "linalg.determinant",
                "report.ReportDocument.to_json",
            ),
            _crosscheck_rounds,
            _first_state,
        ),
        Workload(
            "cli-mix",
            98.0,
            (
                "cli.main",
                "cli.build_parser",
                "statefile.parse_state",
                "statefile.parse_density",
                "measures.hierarchy",
                "measures.spin_flip_lambdas",
                "measures.wootters_concurrence",
                "measures.ppt_check",
                "locc.nielsen_verdict",
                "locc.hierarchy_dominance",
                "locc.conversion_class",
                "reference.build_report",
                "report.ReportDocument.to_json",
                "report.ReportDocument.render",
            ),
            _cli_mix_rounds,
            _whole_round,
        ),
    )
}
