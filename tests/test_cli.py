import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enthier
from enthier import cli, linalg, locc, measures, statefile, states
from enthier.cli import build_parser, main
from enthier.linalg import seeded_rng
from enthier.locc import conversion_class, hierarchy_dominance
from enthier.measures import NEWTON_DIM_LIMIT
from enthier.statefile import write_state
from enthier.states import from_amplitudes, random_pure
from helpers import density_matrix

SNAPSHOTS = Path(__file__).parent / "snapshots"

MIXED_SOURCE_DOC = {"dims": [3, 3], "schmidt": [math.sqrt(0.5), math.sqrt(0.4), math.sqrt(0.1)]}
MIXED_TARGET_DOC = {"dims": [3, 3], "schmidt": [math.sqrt(0.6), math.sqrt(0.2), math.sqrt(0.2)]}
DOMINANT_SOURCE_DOC = {"dims": [3, 3], "schmidt": [math.sqrt(0.55), math.sqrt(0.3), math.sqrt(0.15)]}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def density_doc(rho):
    return {
        "dims": [4],
        "matrix": [[float(rho[i, j].real), float(rho[i, j].imag)] for i in range(4) for j in range(4)],
    }


def bell_projector():
    bell = from_amplitudes(2, 2, [(0, 0, math.sqrt(0.5)), (1, 1, math.sqrt(0.5))])
    return density_matrix(bell)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def uniform_schmidt_doc(d):
    return {"dims": [d, d], "schmidt": [1.0 / math.sqrt(d)] * d}


# ----------------------------------------------------------------- measure


def test_measure_human_table_contains_golden_values(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    assert main(["measure", path]) == 0
    out = capsys.readouterr().out
    assert "0.29" in out and "0.02" in out
    assert "schmidt_rank: 3" in out


def test_measure_json_matches_library(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    code, payload = run_json(capsys, ["measure", path])
    assert code == 0
    results = payload["results"]
    assert abs(results["hierarchy"][1] - 0.29) <= 1e-12
    assert abs(results["hierarchy"][2] - 0.020) <= 1e-12
    assert np.allclose(results["schmidt_spectrum"], [0.5, 0.4, 0.1], atol=1e-12)
    assert abs(results["invariants"][1] - 0.42) <= 1e-12
    assert set(results["renyi"]) == {"0.5", "1.0", "2.0"}
    assert payload["provenance"]["tool"] == "enthier"
    assert len(payload["provenance"]["input_digest"]) == 64


def test_measure_paths_agree(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    results = {}
    for route in ("eig", "minors", "newton"):
        code, payload = run_json(capsys, ["measure", path, "--path", route])
        assert code == 0
        results[route] = payload["results"]["hierarchy"]
    assert np.allclose(results["eig"], results["minors"], atol=1e-9)
    assert np.allclose(results["eig"], results["newton"], atol=1e-8)


def test_measure_minors_answers_above_twelve(tmp_path, capsys):
    coeffs = [1.0 / math.sqrt(13)] * 13
    path = write_json(tmp_path, "big.json", {"dims": [13, 13], "schmidt": coeffs})
    levels = {}
    for route in ("minors", "eig"):
        code, payload = run_json(capsys, ["measure", path, "--path", route])
        assert code == 0
        levels[route] = np.array(payload["results"]["hierarchy"])
    assert levels["minors"].shape == (13,)
    assert np.all(np.abs(levels["minors"] - levels["eig"]) <= 1e-9 * levels["eig"])


def test_measure_newton_guard_is_domain_error(tmp_path, capsys):
    at_limit = write_json(tmp_path, "at.json", uniform_schmidt_doc(NEWTON_DIM_LIMIT))
    code, payload = run_json(capsys, ["measure", at_limit, "--path", "newton"])
    assert code == 0
    assert len(payload["results"]["hierarchy"]) == NEWTON_DIM_LIMIT
    above = write_json(tmp_path, "above.json", uniform_schmidt_doc(NEWTON_DIM_LIMIT + 1))
    assert main(["measure", above, "--path", "newton"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: newton route: min dimension {NEWTON_DIM_LIMIT + 1} exceeds {NEWTON_DIM_LIMIT}\n"
    assert main(["measure", above, "--path", "eig"]) == 0


def test_measure_newton_levels_nonnegative_on_rank_deficient_state(tmp_path, capsys):
    doc = {"dims": [4, 4], "schmidt": [0.7071067811865476, 0.5, 0.5, 0.0]}
    path = write_json(tmp_path, "deficient.json", doc)
    code, payload = run_json(capsys, ["measure", path, "--path", "newton"])
    assert code == 0
    levels = payload["results"]["hierarchy"]
    assert all(level >= 0.0 for level in levels)
    assert levels[3] == 0.0


def test_measure_renyi_orders_flag(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    code, payload = run_json(capsys, ["measure", path, "--renyi", "1,3"])
    assert code == 0
    assert set(payload["results"]["renyi"]) == {"1.0", "3.0"}


def test_measure_renyi_nan_order_is_usage_error(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    assert main(["measure", path, "--renyi", "nan,inf", "--json"]) == 2
    assert capsys.readouterr().out == ""


def test_measure_renyi_zero_order_is_usage_error(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    for orders, message in [
        ("0", "orders must be positive"),
        ("abc", "argument --renyi: bad order list 'abc'"),
        (",", "argument --renyi: need at least one order"),
    ]:
        assert main(["measure", path, "--renyi", orders, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err


def test_measure_renyi_infinite_and_large_orders_are_strict_json(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    assert main(["measure", path, "--renyi", "inf,1e6", "--json"]) == 0
    renyi = json.loads(capsys.readouterr().out, parse_constant=reject_constant)["results"]["renyi"]
    assert renyi["inf"] == 1.0  # min-entropy -log2 0.5
    assert abs(renyi["1000000.0"] - 1e6 / (1e6 - 1.0)) <= 1e-12


def test_measure_not_normalized_exit_codes(tmp_path, capsys):
    path = write_json(tmp_path, "off.json", {"dims": [2, 2], "schmidt": [0.5, 0.5]})
    assert main(["measure", path]) == 1
    assert main(["measure", path, "--renormalize"]) == 0


def test_measure_nan_amplitude_is_parse_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"dims": [1, 1], "amplitudes": [{"i": 0, "j": 0, "re": NaN}]}')
    assert main(["measure", str(path)]) == 2
    err = capsys.readouterr().err
    assert "NaN" in err and len(err.strip().splitlines()) == 1


def test_measure_duplicate_field_is_parse_error(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"dims": [3, 3], "schmidt": [1, 0, 0], "schmidt": [0.6, 0.8, 0]}')
    assert main(["measure", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {path}: duplicate field 'schmidt'"]


@pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400], ids=["exponent", "integer"])
def test_measure_overflowing_schmidt_literal_is_parse_error(tmp_path, capsys, literal):
    path = tmp_path / "huge.json"
    path.write_text('{"dims": [2, 2], "schmidt": [%s, 0.5]}' % literal)
    assert main(["measure", str(path), "--renormalize"]) == 2
    err = capsys.readouterr().err
    assert literal[:30] in err and len(err.strip().splitlines()) == 1


def test_measure_renormalizes_huge_schmidt_coefficients(tmp_path, capsys):
    path = write_json(tmp_path, "huge.json", {"dims": [2, 2], "schmidt": [1e200, 1e200]})
    code, payload = run_json(capsys, ["measure", path, "--renormalize"])
    assert code == 0
    assert np.allclose(payload["results"]["schmidt_spectrum"], [0.5, 0.5], atol=1e-12)


def test_measure_renormalizes_huge_amplitudes(tmp_path, capsys):
    entries = [{"i": 0, "j": 0, "re": 1e200, "im": 0.0}, {"i": 1, "j": 1, "re": 0.0, "im": 1e200}]
    path = write_json(tmp_path, "huge.json", {"dims": [2, 2], "amplitudes": entries})
    code, payload = run_json(capsys, ["measure", path, "--renormalize"])
    assert code == 0
    assert np.allclose(payload["results"]["schmidt_spectrum"], [0.5, 0.5], atol=1e-12)


def test_measure_coefficients_near_float_max(tmp_path, capsys):
    path = write_json(tmp_path, "max.json", {"dims": [2, 2], "schmidt": [1.7e308, 1.7e308]})
    code, payload = run_json(capsys, ["measure", path, "--renormalize"])
    assert code == 0
    assert np.allclose(payload["results"]["schmidt_spectrum"], [0.5, 0.5], atol=1e-12)
    assert main(["measure", path]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_measure_renormalizes_subnormal_amplitude(tmp_path, capsys):
    doc = {"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 5e-324}]}
    path = write_json(tmp_path, "tiny.json", doc)
    code, payload = run_json(capsys, ["measure", path, "--renormalize"])
    assert code == 0
    assert payload["results"]["schmidt_spectrum"] == [1.0, 0.0]
    assert capsys.readouterr().err == ""
    assert main(["measure", path]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "norm 5e-324" in err[0]


def test_measure_missing_file_is_parse_error(capsys):
    assert main(["measure", "/nonexistent/state.json"]) == 2


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe{", "cannot read"), (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply")],
    ids=["non-utf8", "nested"],
)
def test_measure_undecodable_document_is_parse_error(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["measure", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def count_calls(monkeypatch, functions):
    """Count calls of each (module, name) function, wherever a module of the
    package refers to it, by name or from a module-level table."""
    counts = Counter()
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "enthier"]

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    for owner, name in functions:
        original = getattr(owner, name)
        wrapper = counted(f"{owner.__name__.split('.')[-1]}.{name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
                elif type(value) is dict:
                    for key in [key for key, inner in value.items() if inner is original]:
                        monkeypatch.setitem(value, key, wrapper)
    return counts


@pytest.mark.parametrize(
    "route, route_function",
    [("eig", "hierarchy"), ("minors", "hierarchy_via_minors"), ("newton", "hierarchy_via_invariants")],
)
def test_measure_takes_each_quantity_once(tmp_path, capsys, monkeypatch, route, route_function):
    path = tmp_path / "psi.json"
    write_state(random_pure(5, 8, seeded_rng(11)), path)
    # every measure takes the state alone and reads its memos, so a quantity is
    # formed once however many measures look it up: one SVD, one e_k pass and
    # one Gram power pass, the last counted as the calls that find no memo
    gram_passes = []
    entropy_passes = []
    original = measures.invariants
    original_entropy = measures.renyi_entropy

    def invariants(state):
        gram_passes.append(state._power_sums is None)
        return original(state)

    def renyi_entropy(state, order):
        entropy_passes.append(float(order) not in (state._entropies or {}))
        return original_entropy(state, order)

    monkeypatch.setattr(measures, "invariants", invariants)
    monkeypatch.setattr(cli, "invariants", invariants)
    monkeypatch.setattr(measures, "renyi_entropy", renyi_entropy)  # eof_pure's lookup
    monkeypatch.setattr(cli, "renyi_entropy", renyi_entropy)
    names = {"hierarchy", "invariants", route_function}  # eig's route function is hierarchy itself
    counts = count_calls(
        monkeypatch,
        [
            (linalg, "singular_values_squared"),
            (linalg, "elementary_symmetric"),
            (statefile, "parse_state"),
            *[(measures, name) for name in names],
        ],
    )
    assert main(["measure", str(path), "--path", route, "--json"]) == 0
    assert counts["linalg.singular_values_squared"] == 1
    assert counts["linalg.elementary_symmetric"] == 1
    assert sum(gram_passes) == 1
    # lookups: the route, then both two-level concurrences on the levels, and
    # the printed invariants; the benchmark's coverage check needs each reached
    assert counts["measures.hierarchy"] == 2 + (route == "eig")
    assert counts["measures.invariants"] == 1 + (route == "newton")
    assert counts[f"measures.{route_function}"] == (3 if route == "eig" else 1)
    assert counts["statefile.parse_state"] == 1
    # one entropy per listed order, and eof finds the order-1 one
    assert entropy_passes == [True, True, True, False]
    # the next route on the same document gets the same state, its entropies memoized
    routes = ["eig", "minors", "newton"]
    next_route = routes[(routes.index(route) + 1) % 3]
    assert main(["measure", str(path), "--path", next_route, "--json"]) == 0
    assert entropy_passes[4:] == [False] * 4


HAAR_5X8 = str(SNAPSHOTS / "state_haar_5x8.json")


GOLDEN_PAIR = [str(SNAPSHOTS / "state_050_040_010.json"), str(SNAPSHOTS / "state_060_020_020.json")]


@pytest.mark.parametrize(
    "argv, passes, svds",
    [
        (["scan", "--dims", "3", "--samples", "50"], 1, 1),
        (["locc", *GOLDEN_PAIR], 2, 2),
        *[(["measure", HAAR_5X8, "--path", route], 1, 1) for route in ("eig", "minors", "newton")],
        (["schmidt", HAAR_5X8], 0, 1),
        (["paper-examples"], 1, 1),
    ],
    ids=["scan", "locc", "measure-eig", "measure-minors", "measure-newton", "schmidt", "paper-examples"],
)
def test_each_state_takes_one_spectrum_and_one_level_pass(capsys, monkeypatch, argv, passes, svds):
    # scan stacks a chunk's spectra into one SVD call and its levels into one
    # e_k pass, and paper-examples its fixture states; every later lookup of
    # either is a cache hit
    counts = count_calls(monkeypatch, [(linalg, "elementary_symmetric"), (linalg, "singular_values_squared")])
    assert main(argv) == 0
    assert counts["linalg.elementary_symmetric"] == passes
    assert counts["linalg.singular_values_squared"] == svds


def test_paper_examples_fixture_states_hold_their_batch_of_one_values(monkeypatch):
    import enthier.reference

    batches = []

    def captured(batch):
        batches.append(list(batch))
        return measures.hierarchies(batch)

    monkeypatch.setattr(enthier.reference, "hierarchies", captured)
    enthier.reference.build_report()
    [batch] = batches
    # the three distinct pinned spectra, the two-term uniform state, x = 1/3 and the root member
    assert len(batch) == len({id(state) for state in batch}) == 6
    for state in batch:
        alone = states.PureState(state.amplitudes)
        assert state._spectrum.tobytes() == states.schmidt_spectrum(alone).tobytes()
        assert state._levels.tobytes() == measures.hierarchy(alone).tobytes()


def test_scan_still_classifies_each_pair_through_the_per_pair_verdicts(capsys, monkeypatch):
    counts = count_calls(
        monkeypatch,
        [
            (locc, "conversion_class"),
            (locc, "nielsen_verdict"),
            (locc, "hierarchy_dominance"),
            (measures, "hierarchy"),
            (states, "schmidt_spectrum"),
        ],
    )
    assert main(["scan", "--dims", "3", "--samples", "50"]) == 0
    # what the benchmark's coverage check needs this call to reach
    assert counts["locc.conversion_class"] == counts["locc.nielsen_verdict"] == 50
    assert counts["locc.hierarchy_dominance"] > 0
    assert counts["measures.hierarchy"] == 2 * counts["locc.hierarchy_dominance"]
    assert counts["states.schmidt_spectrum"] > 0


@pytest.mark.parametrize(
    "pair",
    [GOLDEN_PAIR, GOLDEN_PAIR[::-1], [GOLDEN_PAIR[0], GOLDEN_PAIR[0]], [HAAR_5X8, GOLDEN_PAIR[1]]],
    ids=["incomparable", "incomparable-swapped", "equivalent", "mixed-shapes"],
)
def test_locc_takes_each_verdict_once(capsys, monkeypatch, pair):
    counts = count_calls(
        monkeypatch, [(locc, "conversion_class"), (locc, "nielsen_verdict"), (locc, "hierarchy_dominance")]
    )
    assert main(["locc", *pair, "--json"]) == 0
    # conversion_class classifies from the two results locc has already taken
    assert counts["locc.nielsen_verdict"] == 1
    assert counts["locc.hierarchy_dominance"] == 1
    assert counts["locc.conversion_class"] == 1


@pytest.mark.parametrize(
    "argv, drawn, parsed",
    [
        (["scan", "--dims", "3", "--samples", "50"], 100, 0),
        *[(["measure", HAAR_5X8, "--path", route], 0, 1) for route in ("eig", "minors", "newton")],
        (["schmidt", str(SNAPSHOTS / "state_hand_3x4.json")], 0, 1),
        (["locc", str(SNAPSHOTS / "state_050_040_010.json"), str(SNAPSHOTS / "state_060_020_020.json")], 0, 2),
        (["emit-state", HAAR_5X8], 0, 1),
        (["paper-examples"], 0, 0),
    ],
    ids=["scan", "measure-eig", "measure-minors", "measure-newton", "schmidt", "locc", "emit-state", "paper-examples"],
)
def test_each_state_is_checked_once(capsys, monkeypatch, argv, drawn, parsed):
    # The package's own states are checked where they are built; the checks
    # of PureState(...) on an outside array must not run a second time.
    counts = count_calls(monkeypatch, [(states, "random_pure"), (statefile, "parse_state")])
    checked = states.PureState.__post_init__

    def counted(state):
        counts["PureState.__post_init__"] += 1
        checked(state)

    monkeypatch.setattr(states.PureState, "__post_init__", counted)
    assert main(argv) == 0
    assert counts["PureState.__post_init__"] == 0
    # what the benchmark's coverage check needs these calls to reach
    assert counts["states.random_pure"] == drawn
    assert counts["statefile.parse_state"] == parsed


def test_measure_product_state_table(tmp_path, capsys):
    path = write_json(
        tmp_path, "product.json", {"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1, "im": 0}]}
    )
    code, payload = run_json(capsys, ["measure", path])
    assert code == 0
    results = payload["results"]
    assert results["hierarchy"][1:] == [0.0]
    assert results["eof"] == 0.0
    assert results["schmidt_rank"] == 1


def test_measure_product_state_entropies_print_positive_zero(tmp_path, capsys):
    path = write_json(tmp_path, "product.json", {"dims": [2, 2], "schmidt": [1, 0]})
    assert main(["measure", path]) == 0
    out = capsys.readouterr().out
    assert "eof: 0\n" in out and "-0" not in out
    code, payload = run_json(capsys, ["measure", path])
    assert code == 0
    for value in [payload["results"]["eof"], *payload["results"]["renyi"].values()]:
        assert math.copysign(1.0, value) == 1.0


def test_measure_malformed_document_is_parse_error(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"dims": [2, 2]})
    assert main(["measure", path]) == 2


# -------------------------------------------------------------------- locc


def test_locc_mixed_pair(tmp_path, capsys):
    source = write_json(tmp_path, "source.json", MIXED_SOURCE_DOC)
    target = write_json(tmp_path, "target.json", MIXED_TARGET_DOC)
    code, payload = run_json(capsys, ["locc", source, target])
    assert code == 0
    results = payload["results"]
    assert results["verdict"] == "incomparable"
    assert results["dominance"]["mixed"] is True
    assert results["conversion_class"] == "incomparable-mixed-dominance"
    assert np.allclose(results["source_prefix_sums"], [0.5, 0.9, 1.0], atol=1e-9)
    assert np.allclose(results["target_prefix_sums"], [0.6, 0.8, 1.0], atol=1e-9)


def test_locc_dominant_pair(tmp_path, capsys):
    source = write_json(tmp_path, "source.json", DOMINANT_SOURCE_DOC)
    target = write_json(tmp_path, "target.json", MIXED_SOURCE_DOC)
    code, payload = run_json(capsys, ["locc", source, target])
    assert code == 0
    results = payload["results"]
    assert results["verdict"] == "incomparable"
    assert results["dominance"]["source_dominates"] is True
    assert results["conversion_class"] == "incomparable-full-dominance"


def test_locc_identical_files_equivalent(tmp_path, capsys):
    source = write_json(tmp_path, "source.json", MIXED_SOURCE_DOC)
    code, payload = run_json(capsys, ["locc", source, source])
    assert code == 0
    assert payload["results"]["verdict"] == "equivalent"


# ---------------------------------------------------------------- wootters


def test_wootters_bell_projector(tmp_path, capsys):
    path = write_json(tmp_path, "bell.json", density_doc(bell_projector()))
    code, payload = run_json(capsys, ["wootters", path])
    assert code == 0
    results = payload["results"]
    assert abs(results["concurrence"] - 1.0) <= 1e-9
    assert abs(results["eof"] - 1.0) <= 1e-9
    assert results["ppt"] == "entangled"
    assert len(results["lambdas"]) == 4


def test_wootters_maximally_mixed(tmp_path, capsys):
    path = write_json(tmp_path, "mixed.json", density_doc(np.eye(4, dtype=complex) / 4.0))
    code, payload = run_json(capsys, ["wootters", path])
    assert code == 0
    assert payload["results"]["concurrence"] == 0.0
    assert payload["results"]["eof"] == 0.0
    assert payload["results"]["ppt"] == "separable"


def test_wootters_werner_golden(tmp_path, capsys):
    rho = 0.9 * bell_projector() + 0.1 * np.eye(4) / 4.0
    path = write_json(tmp_path, "werner.json", density_doc(rho))
    code, payload = run_json(capsys, ["wootters", path])
    assert code == 0
    assert abs(payload["results"]["concurrence"] - 0.85) <= 1e-9


def test_wootters_validates_and_takes_the_lambdas_once_per_route(tmp_path, capsys, monkeypatch):
    rho = 0.9 * bell_projector() + 0.1 * np.eye(4) / 4.0
    path = write_json(tmp_path, "werner.json", density_doc(rho))
    counts = count_calls(monkeypatch, [(measures, "spin_flip_lambdas"), (linalg, "singular_values_squared")])
    check, eigvalsh, eigh = measures.TwoQubitDensity.__post_init__, np.linalg.eigvalsh, np.linalg.eigh
    monkeypatch.setattr(measures.TwoQubitDensity, "__post_init__", lambda self: counts.update(["check"]) or check(self))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: counts.update(["eigvalsh"]) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: counts.update(["eigh"]) or eigh(a))
    code, payload = run_json(capsys, ["wootters", path])
    assert code == 0
    assert abs(payload["results"]["concurrence"] - 0.85) <= 1e-9
    # one check as the document is read: its eigh is the positivity test and gives sqrt(rho);
    # the one eigvalsh is the partial transpose's
    assert counts["check"] == 1
    assert counts["eigh"] == 1
    assert counts["eigvalsh"] == 1
    # the concurrence fills the memo, the printed lambdas read it: one SVD
    assert counts["measures.spin_flip_lambdas"] == 2
    assert counts["linalg.singular_values_squared"] == 1


def test_wootters_invalid_density_is_domain_error(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", density_doc(np.eye(4, dtype=complex)))
    assert main(["wootters", path]) == 1


# -------------------------------------------------------------------- scan


@pytest.mark.parametrize(
    "seed, samples",
    [(3, 150), (2**32 + 3, 150), (3, linalg._HASHED_STREAMS_MIN - 1)],
    ids=["hashed-streams", "wide-seed", "few-samples"],
)
def test_scan_two_level_never_fully_dominant(capsys, seed, samples):
    # d = 2 gives only comparable pairs on every seed, on both stream paths:
    # the hashed one, and seeded_rng for a wide seed or a short range
    code, payload = run_json(capsys, ["scan", "--dims", "2", "--samples", str(samples), "--seed", str(seed)])
    assert code == 0
    counts = payload["results"]["counts"]
    assert counts["incomparable-full-dominance"] == 0
    assert counts["incomparable-mixed-dominance"] == 0
    assert counts["comparable"] == samples


def test_scan_seed_replay_identical(capsys):
    _, first = run_json(capsys, ["scan", "--dims", "3", "--samples", "60", "--seed", "11"])
    _, second = run_json(capsys, ["scan", "--dims", "3", "--samples", "60", "--seed", "11"])
    assert first == second


def test_scan_counts_total(capsys):
    code, payload = run_json(capsys, ["scan", "--dims", "3", "--samples", "80", "--seed", "4"])
    assert code == 0
    assert sum(payload["results"]["counts"].values()) == 80
    assert payload["provenance"]["seed"] == 4


def test_scan_three_level_all_classes_occur(capsys):
    code, payload = run_json(capsys, ["scan", "--dims", "3", "--samples", "300", "--seed", "5"])
    assert code == 0
    counts = payload["results"]["counts"]
    assert all(count > 0 for count in counts.values())


def test_scan_rejects_bad_samples(capsys):
    assert main(["scan", "--samples", "0"]) == 2


def test_scan_negative_seed_is_usage_error(capsys):
    for argv, message in [
        (["--seed", "-1", "--samples", "3"], "argument --seed: must be at least 0"),
        (["--dims", "x"], "argument --dims: invalid int value: 'x'"),
    ]:
        assert main(["scan", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err


def test_scan_out_of_memory_is_domain_error(monkeypatch, capsys):
    def exhausted(dim_a, dim_b, rng):
        raise MemoryError("cannot allocate the amplitudes")

    monkeypatch.setattr("enthier.cli.random_pure", exhausted)
    assert main(["scan", "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: cannot allocate the amplitudes\n"


# Shapes numpy refuses before allocating anything. Sizes between about 2^24
# entries and this limit may be allocated lazily, so they are never tried here.
UNADDRESSABLE_DIMS = [[10**20, 1], [2**62, 4]]


@pytest.mark.parametrize("dims", UNADDRESSABLE_DIMS)
@pytest.mark.parametrize("command", ["measure", "schmidt", "locc", "emit-state"])
def test_unaddressable_dimensions_end_in_one_line(tmp_path, capsys, command, dims):
    path = write_json(tmp_path, "huge.json", {"dims": dims, "amplitudes": [{"i": 0, "j": 0, "re": 1.0}]})
    assert main([command, path, path] if command == "locc" else [command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: out of memory: {dims[0]}x{dims[1]} amplitudes: ")
    assert captured.err.count("\n") == 1


def test_scan_unaddressable_dimension_ends_in_one_line(capsys):
    assert main(["scan", "--dims", "4000000000", "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: 4000000000x4000000000 amplitudes: ")
    assert captured.err.count("\n") == 1


def test_scan_counts_pinned_at_seed_zero(capsys):
    code, payload = run_json(capsys, ["scan", "--dims", "3", "--samples", "300", "--seed", "0"])
    assert code == 0
    assert payload["results"]["counts"] == {
        "comparable": 193,
        "incomparable-mixed-dominance": 74,
        "incomparable-full-dominance": 33,
    }


def reference_scan_counts(dims, samples, seed):
    """Scan's counts from one pair at a time, each on fresh states."""
    counts = {"comparable": 0, "incomparable-mixed-dominance": 0, "incomparable-full-dominance": 0}
    for index in range(samples):
        rng = seeded_rng((seed, index))
        first = random_pure(dims, dims, rng)
        second = random_pure(dims, dims, rng)
        counts[conversion_class(first, second)] += 1
    return counts


def replayed_scan_counts(dims, samples, seed):
    """Scan's counts replayed with numpy alone, none of the package's code:
    the seed-replay draws, spectra from np.linalg.svd, levels from np.poly,
    and the cumsum prefix and slack comparisons at the verdicts' 1e-12."""
    counts = {"comparable": 0, "incomparable-mixed-dominance": 0, "incomparable-full-dominance": 0}
    for index in range(samples):
        rng = np.random.default_rng((seed, index))
        spectra = []
        for _ in range(2):
            z = rng.standard_normal((dims, dims)) + 1j * rng.standard_normal((dims, dims))
            squares = np.linalg.svd(z / np.linalg.norm(z), compute_uv=False) ** 2
            spectra.append(squares / squares.sum())
        ps, pt = (spectrum.cumsum() for spectrum in spectra)
        if (ps <= pt + 1e-12).all() or (pt <= ps + 1e-12).all():
            counts["comparable"] += 1
            continue
        # np.poly gives the coefficients of prod(x - lambda_i): (-1)^k e_k
        signs = (-1.0) ** np.arange(1, dims + 1)
        slacks = (np.poly(spectra[0])[1:] - np.poly(spectra[1])[1:]) * signs
        one_sided = (slacks >= -1e-12).all() or (slacks <= 1e-12).all()
        counts["incomparable-full-dominance" if one_sided else "incomparable-mixed-dominance"] += 1
    return counts


@pytest.mark.parametrize("dims", [2, 3, 8])
def test_scan_pairs_states_across_chunk_boundaries(monkeypatch, capsys, dims):
    # Seven pairs per chunk: 53 samples make seven full chunks and one of four.
    monkeypatch.setattr(cli, "_SCAN_CHUNK_ENTRIES", 7 * 2 * dims * dims)
    for seed in (0, 1):
        code, payload = run_json(capsys, ["scan", "--dims", str(dims), "--samples", "53", "--seed", str(seed)])
        assert code == 0
        assert payload["results"]["counts"] == reference_scan_counts(dims, 53, seed)
        # independent of random_pure and the verdicts, which the reference shares with scan
        assert payload["results"]["counts"] == replayed_scan_counts(dims, 53, seed)


# Scan's streams, as linalg.seeded_streams builds them. Index ranges across
# scan's chunk edges (3640 pairs at d=3, 14 at d=48) and up to the last index
# one pool word holds, each with a dimension to draw.
HASHED_RANGES = [(0, 50, 48), (3630, 3650, 3), (7270, 7290, 3), (2**32 - 30, 2**32, 3)]


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1])
def test_scan_stream_words_are_seed_sequence_words(seed):
    # NEP 19 keeps SeedSequence's output stable across numpy releases; a
    # release that changed it would fail here before it moved scan's counts.
    for start, stop in [(0, 3700), (2**32 - 300, 2**32)]:
        words = linalg._stream_words(seed, start, stop)
        assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
        for index, row in zip(range(start, stop), words):
            assert row.tobytes() == np.random.SeedSequence((seed, index)).generate_state(4, np.uint64).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1])
def test_scan_streams_draw_as_default_rng(monkeypatch, seed):
    counts = count_calls(monkeypatch, [(linalg, "seeded_rng")])
    for start, stop, dims in HASHED_RANGES:
        streams = list(linalg.seeded_streams(seed, start, stop))
        assert len(streams) == stop - start
        for index, rng in zip(range(start, stop), streams):
            expected = np.random.default_rng((seed, index)).standard_normal((2, dims, dims))
            assert rng.standard_normal((2, dims, dims)).tobytes() == expected.tobytes()
    assert counts["linalg.seeded_rng"] == 0  # every range above took the hashed pass


@pytest.mark.parametrize(
    "seed, start, stop",
    [
        (2**32, 0, 20),  # a seed of two words
        (2**64 + 5, 3630, 3650),  # a seed of three words
        (7, 2**32 - 10, 2**32 + 10),  # indices past one word
        (7, 100, 100 + linalg._HASHED_STREAMS_MIN - 1),  # too few streams to hash
    ],
    ids=["seed-2^32", "seed-2^64+5", "index-2^32", "short"],
)
def test_scan_streams_fall_back_to_seeded_rng(monkeypatch, seed, start, stop):
    counts = count_calls(monkeypatch, [(linalg, "seeded_rng")])
    streams = list(linalg.seeded_streams(seed, start, stop))
    assert counts["linalg.seeded_rng"] == stop - start
    for index, rng in zip(range(start, stop), streams):
        expected = np.random.default_rng((seed, index)).standard_normal((2, 3, 3))
        assert rng.standard_normal((2, 3, 3)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dims", [2, 3])
def test_scan_replays_on_both_sides_of_the_hashed_stream_crossover(capsys, dims):
    for samples in range(1, linalg._HASHED_STREAMS_MIN + 3):
        for seed in (0, 2**32 + 1):
            code, payload = run_json(
                capsys, ["scan", "--dims", str(dims), "--samples", str(samples), "--seed", str(seed)]
            )
            assert code == 0
            assert payload["results"]["counts"] == replayed_scan_counts(dims, samples, seed)


# ---------------------------------------------------------- paper-examples


def test_paper_examples_exits_clean(capsys):
    code, payload = run_json(capsys, ["paper-examples"])
    assert code == 0
    checks = payload["results"]["checks"]
    assert checks and all(item["passed"] for item in checks)


def test_paper_examples_human_output_lists_checks(capsys):
    assert main(["paper-examples"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "0.29" in out and "0.28" in out


def test_paper_examples_failed_check_exits_three(capsys, monkeypatch):
    import enthier.cli

    def broken_report():
        return {"checks": [{"name": "stub", "passed": False, "detail": ""}]}, ["stub"]

    monkeypatch.setattr(enthier.cli, "build_report", broken_report)
    assert main(["paper-examples"]) == 3
    captured = capsys.readouterr()
    assert "self-check failed" in captured.err


GOLDEN_SOURCE = str(SNAPSHOTS / "state_050_040_010.json")
GOLDEN_TARGET = str(SNAPSHOTS / "state_060_020_020.json")


@pytest.mark.parametrize(
    "argv, snapshot",
    [
        (["paper-examples"], "paper_examples.txt"),
        (["paper-examples", "--json"], "paper_examples.json"),
        *[
            (["measure", GOLDEN_SOURCE, "--path", path, "--json"], f"measure_{path}.json")
            for path in ("eig", "minors", "newton")
        ],
        (["schmidt", GOLDEN_SOURCE, "--json"], "schmidt.json"),
        (["locc", GOLDEN_SOURCE, GOLDEN_TARGET, "--json"], "locc.json"),
        # Amplitude form: a Haar document as json.dumps writes it, and a hand-made
        # one with -0.0 parts, an omitted im, integer parts, entries out of
        # row-major order and a subnormal part.
        *[
            (argv, f"{name}_{snapshot}")
            for name in ("haar_5x8", "hand_3x4")
            for argv, snapshot in [
                *[
                    (["measure", str(SNAPSHOTS / f"state_{name}.json"), "--path", path, "--json"], f"measure_{path}.json")
                    for path in ("eig", "minors", "newton")
                ],
                (["schmidt", str(SNAPSHOTS / f"state_{name}.json"), "--json"], "schmidt.json"),
                (["emit-state", str(SNAPSHOTS / f"state_{name}.json")], "emit_state.json"),
            ]
        ],
        (["scan", "--dims", "3", "--samples", "300", "--seed", "0", "--json"], "scan_d3_seed0.json"),
        # The Werner state at p = 0.6, well away from the PPT boundary at p = 1/3.
        (["wootters", str(SNAPSHOTS / "werner_060.json"), "--json"], "werner_060_wootters.json"),
        # A seed of 2^32 spreads over two pool words, so every stream of this
        # scan comes from seeded_rng, not from the hashed pass seed 0 takes.
        (["scan", "--dims", "3", "--samples", "300", "--seed", str(2**32), "--json"], "scan_d3_seed4294967296.json"),
    ],
)
def test_paper_examples_output_matches_snapshot(capsys, argv, snapshot):
    assert main(argv) == 0
    assert capsys.readouterr().out == (SNAPSHOTS / snapshot).read_text()


def test_paper_examples_dominance_label_comes_from_the_report(monkeypatch):
    import enthier.reference
    from enthier.locc import DominanceReport

    def one_sided(source, target):
        slacks = hierarchy_dominance(source, target).slacks
        return DominanceReport(slacks, source_dominates=True, target_dominates=False)

    monkeypatch.setattr(enthier.reference, "hierarchy_dominance", one_sided)
    results, failures = enthier.reference.build_report()
    assert results["verdicts"]["mixed_pair"]["dominance"] != "mixed"
    assert failures == ["mixed pair dominance mixed"]


def nudged(original):
    return lambda *args: original(*args) * 1.01 + 1e-3


def forward_only(original):
    return lambda source, target: dataclasses.replace(original(source, target), verdict=locc.Verdict.FORWARD_ONLY)


@pytest.mark.parametrize(
    "name, perturb, failed",
    [
        (
            "hierarchy",
            nudged,
            [f"c{k} of {spectrum}" for spectrum in ((0.5, 0.4, 0.1), (0.6, 0.2, 0.2), (0.55, 0.3, 0.15)) for k in (2, 3)],
        ),
        (
            "hierarchy_via_minors",
            nudged,
            ["c3 of the two-term uniform state", "c3 of the x=1/3 family member", "c3 gap at x=1/3"],
        ),
        # the coincidence gap compares two concurrences nudged alike, so it still holds
        ("af_concurrence", nudged, ["two-level concurrence at x=1/3"]),
        ("eof_pure", nudged, ["eof at the root", "eof of the two-term uniform state"]),
        ("solve_unit_eof_x", nudged, ["unit-entropy root", "eof at the root"]),
        ("nielsen_verdict", forward_only, ["mixed pair incomparable", "dominant pair incomparable"]),
    ],
    ids=["hierarchy", "hierarchy_via_minors", "af_concurrence", "eof_pure", "solve_unit_eof_x", "nielsen_verdict"],
)
def test_paper_examples_each_check_follows_its_own_value(capsys, monkeypatch, name, perturb, failed):
    # one input of build_report perturbed: exactly the checks of the values it
    # feeds fail, in table order, on stderr, in the exit code and in the table
    import enthier.reference

    monkeypatch.setattr(enthier.reference, name, perturb(getattr(enthier.reference, name)))
    results, failures = enthier.reference.build_report()
    assert failures == failed
    assert failures == [check["name"] for check in results["checks"] if check["name"] in failed]
    assert main(["paper-examples"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"self-check failed: {', '.join(failed)}\n"
    marked = [line.strip() for line in captured.out.splitlines() if line.strip().startswith("[FAIL] ")]
    assert len(marked) == len(failed)
    for line, check in zip(marked, failed):
        if name == "nielsen_verdict":
            assert line == f"[FAIL] {check} (forward-only)"
        else:
            assert line.startswith(f"[FAIL] {check}: value=") and " expected=" in line and " tol=" in line


# ------------------------------------------------------- schmidt/emit-state


def test_schmidt_command(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    code, payload = run_json(capsys, ["schmidt", path])
    assert code == 0
    results = payload["results"]
    assert results["schmidt_rank"] == 3
    assert np.allclose(results["schmidt_spectrum"], [0.5, 0.4, 0.1], atol=1e-12)
    assert np.allclose(
        results["schmidt_coefficients"],
        [math.sqrt(0.5), math.sqrt(0.4), math.sqrt(0.1)],
        atol=1e-12,
    )


def test_emit_state_round_trip(tmp_path, capsys):
    source = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    emitted = str(tmp_path / "canonical.json")
    assert main(["emit-state", source, "-o", emitted]) == 0
    capsys.readouterr()
    first = json.loads((tmp_path / "canonical.json").read_text())
    # canonical form re-emits to the identical document
    assert main(["emit-state", emitted]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["dims"] == [3, 3]


def test_emit_state_unwritable_output_is_usage_error(tmp_path, capsys):
    source = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    target = tmp_path / "missing" / "out.json"
    assert main(["emit-state", source, "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


def test_json_values_match_human_table_source(tmp_path, capsys):
    # machine output and table come from one computation: spot-check agreement
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    _, payload = run_json(capsys, ["measure", path])
    assert main(["measure", path]) == 0
    table = capsys.readouterr().out
    c2 = payload["results"]["hierarchy"][1]
    assert format(c2, ".6g") in table


def child_env():
    """The environment for a child `python -m enthier`: this package's
    source directory on PYTHONPATH, so an uninstalled checkout runs too."""
    src = str(Path(enthier.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "enthier", "paper-examples", "--json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "paper-examples"


def test_emit_state_closed_pipe_exits_without_traceback(tmp_path):
    path = tmp_path / "state.json"
    write_state(random_pure(3, 3, seeded_rng(5)), path)
    # a pipe whose read end is closed before the child starts fails its first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "enthier", "emit-state", str(path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize(
    "argv, stdout, message",
    [
        pytest.param(argv, stdout, message, id="-".join([*prefix, sink]))
        for argv, prefix in [
            (["paper-examples"], []),  # report output, its ids the bare sink
            (["--help"], ["help"]),  # help and version text, which argparse writes
            (["--version"], ["version"]),
            (["scan", "--help"], ["scan-help"]),
        ]
        for stdout, message, sink in [
            (None, "standard output is closed", "closed"),
            ("/dev/full", "[Errno 28] No space left on device", "device-full"),
        ]
    ],
)
def test_unwritable_output_is_one_error_line(argv, stdout, message):
    # a closed stdout (`>&-`) is closed in the child; a full device fails the flush
    if stdout is not None and not os.path.exists(stdout):
        pytest.skip(f"no {stdout} on this system")
    with open(stdout or os.devnull, "wb") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "enthier", *argv],
            stdout=sink,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
            preexec_fn=None if stdout else lambda: os.close(1),
        )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: cannot write output: {message}"]


def test_piped_input_digest_is_the_digest_of_the_parsed_bytes(tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(MIXED_SOURCE_DOC))
    expected = hashlib.sha256(path.read_bytes()).hexdigest()

    def piped(*args):  # input= feeds a pipe, which can be read only once
        command = [sys.executable, "-m", "enthier", *args, "--json"]
        proc = subprocess.run(command, input=path.read_bytes(), capture_output=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["provenance"]

    assert piped("measure", "/dev/stdin")["input_digest"] == expected
    provenance = piped("locc", "/dev/stdin", str(path))
    assert provenance["source_digest"] == provenance["target_digest"] == expected


# ------------------------------------------------------------ parser reuse


def test_build_parser_returns_one_parser_per_process():
    assert build_parser() is build_parser()


def test_renyi_orders_do_not_carry_over_to_the_next_call(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    _, chosen = run_json(capsys, ["measure", path, "--renyi", "1,3"])
    assert set(chosen["results"]["renyi"]) == {"1.0", "3.0"}
    _, default = run_json(capsys, ["measure", path])
    assert set(default["results"]["renyi"]) == {"0.5", "1.0", "2.0"}


def test_version_twice(capsys):
    for _ in range(2):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"enthier {enthier.__version__}\n"
    assert enthier.__version__ == "0.1.0"


# ------------------------------------------------------------ dispatch

SCAN_ARGV = ["scan", "--dims", "3", "--samples", "20", "--seed", "0", "--json"]


@pytest.fixture
def corpus(tmp_path):
    """Argument lists that name their command first, and ones that do not."""
    state = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    density = write_json(tmp_path, "rho.json", density_doc(bell_projector()))
    out = str(tmp_path / "out.json")
    commands = [
        ["measure", state],
        ["locc", state, state],
        ["wootters", density],
        ["schmidt", state],
        ["scan", "--samples", "3"],
        ["paper-examples"],
        ["emit-state", state],  # takes no --json: unrecognized
    ]
    return [
        *commands,
        *[argv + ["--json"] for argv in commands],
        ["-h"],
        ["--help"],
        *[[argv[0], flag] for argv in commands for flag in ("-h", "--help")],
        ["measure", state, "--help"],
        ["-h", "measure"],
        ["--version"],
        ["--vers"],
        ["--version", "measure", state],
        ["measure", state, "--version"],
        ["measure", state, "--vers"],
        [],
        ["frobnicate"],
        ["meas", state],
        ["--json", "schmidt", state],
        ["measure", state, "extra"],
        ["locc", state, state, state],
        ["measure", state, "--pa", "newton"],
        ["measure", state, "--ren", "1,2"],
        ["scan", "--d", "3", "--samples", "2"],
        ["measure", state, "--path=minors"],
        ["scan", "--seed=3", "--samples", "2"],
        ["schmidt", state, "--json=1"],
        ["measure", "--", state],
        ["measure", state, "--"],
        ["locc", state, "--", state],
        ["--", "measure", state],
        ["scan", "--seed", "-1"],
        ["measure", state, "--path", "bad"],
        ["measure", state, "--renyi", "0"],
        ["measure", state, "--renyi", "nan"],
        ["measure"],
        ["locc", state],
        ["schmidt", state, "--json", "--json"],
        ["measure", state, "--=x"],  # ambiguous at the top level: --help or --version
        ["scan", "--=1"],
        ["measure", state, "--path"],
        ["measure", state, "--path", "eig", "--path", "minors"],  # the last one given wins
        ["scan", "--dims", "3", "--dims", "4", "--samples", "2"],
        ["measure", state, "--renyi", "-1"],
        ["measure", state, "--path", "EIG"],
        ["schmidt", "-"],
        ["schmidt", ""],
        ["schmidt", "-5"],
        ["measure", "--json", state],
        ["locc", "--renormalize", state, state, "--json"],
        ["emit-state", state, "-o", out],
        ["emit-state", state, "-oout"],
        ["scan", "--samples", "0"],
    ]


def parse_outcome(capsys, parse, argv):
    try:
        outcome = ("namespace", vars(parse(list(argv))))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


def test_dispatch_parses_as_the_full_parser(capsys, corpus):
    parser = build_parser()
    for argv in corpus:
        full = parse_outcome(capsys, parser.parse_args, argv)
        assert parse_outcome(capsys, lambda argv: cli._parse_args(parser, argv), argv) == full, argv


# every command with its options, as its usage line spells them
OPTIONS = {
    "measure": ["--path", "--renyi", "--renormalize", "--json"],
    "locc": ["--renormalize", "--json"],
    "wootters": ["--json"],
    "schmidt": ["--renormalize", "--json"],
    "scan": ["--dims", "--samples", "--seed", "--json"],
    "paper-examples": ["--json"],
    "emit-state": ["-o", "--output", "--renormalize"],
}
VALUES = [*sorted(cli._HIERARCHY_PATHS), "EIG", "0", "-1", "nan", "inf", "1,2", "3", "psi.json", "out.json"]
ARGV_WORDS = [
    *OPTIONS, "frobnicate", *sorted(set().union(*OPTIONS.values())), *VALUES,
    "--pa", "--ren", "--renorm", "--js", "--d", "--sam", "--out", "--vers",  # prefixes
    "--path=minors", "--renyi=2", "--json=1", "--dims=3", "--seed=-1", "--output=out.json", "-oout.json", "--=x",
    "--", "-", "-h", "--help", "--version",
]


def test_plainly_spelled_commands_parse_without_argparse(tmp_path, monkeypatch):
    # every option of every command given once, spelled exactly, never reaches argparse
    state = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    density = write_json(tmp_path, "rho.json", density_doc(bell_projector()))
    out = str(tmp_path / "out.json")
    plain = [
        ["measure", state, "--path", "newton", "--renyi", "3,inf", "--renormalize", "--json"],
        ["measure", "--json", state],
        ["locc", "--renormalize", state, "--json", state],
        ["wootters", density, "--json"],
        ["schmidt", state, "--renormalize", "--json"],
        ["scan", "--dims", "4", "--samples", "2", "--seed", "7", "--json"],
        ["scan"],
        ["paper-examples", "--json"],
        ["emit-state", state, "-o", out, "--renormalize"],
        ["emit-state", "--output", out, state],
    ]
    parser = build_parser()
    expected = [parser.parse_args(argv) for argv in plain]

    def refused(*args, **kwargs):
        raise AssertionError("argparse pass")

    for each in [parser, *cli._COMMANDS.values()]:
        monkeypatch.setattr(each, "parse_args", refused)
        monkeypatch.setattr(each, "parse_known_args", refused)
    for argv, args in zip(plain, expected):
        assert cli._parse_args(parser, list(argv)) == args, argv
    assert {argv[0] for argv in plain} == set(cli._COMMANDS) == set(OPTIONS)
    assert {word for argv in plain for word in argv if word.startswith("-")} == {
        option for command in cli._COMMANDS.values() for option in command.options
    }


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    argv=st.one_of(
        st.lists(st.sampled_from(ARGV_WORDS), max_size=6),
        st.tuples(st.sampled_from(list(OPTIONS)), st.lists(st.sampled_from(ARGV_WORDS), max_size=6)).map(
            lambda drawn: [drawn[0], *drawn[1]]
        ),
        # the command's own options, each alone or with a value, and values, so that
        # many lists are plainly spelled
        st.sampled_from(list(OPTIONS)).flatmap(
            lambda command: st.lists(
                st.one_of(
                    st.tuples(st.sampled_from(VALUES)),
                    st.tuples(st.sampled_from(OPTIONS[command])),
                    st.tuples(st.sampled_from(OPTIONS[command]), st.sampled_from(VALUES)),
                ),
                max_size=4,
                unique_by=lambda piece: piece[0],
            ).map(lambda pieces: [command, *(word for piece in pieces for word in piece)])
        ),
    )
)
def test_dispatch_parses_drawn_argv_as_the_full_parser(argv):
    # capsys is function-scoped, which hypothesis refuses, so the output is captured here
    parser = build_parser()

    def outcome(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = ("namespace", vars(parse(list(argv))))
            except SystemExit as exc:
                result = ("exit", exc.code)
        return result, out.getvalue(), err.getvalue()

    assert outcome(lambda argv: cli._parse_args(parser, argv)) == outcome(parser.parse_args)


def test_usage_error_leaves_the_next_scan_unchanged(capsys, corpus):
    # every refused argument list of the corpus, each followed by one valid scan
    assert main(SCAN_ARGV) == 0
    first = capsys.readouterr()
    refused = 0
    for argv in corpus:
        try:
            build_parser().parse_args(argv)
            continue
        except SystemExit:
            capsys.readouterr()
        refused += 1
        main(argv)
        capsys.readouterr()
        assert main(SCAN_ARGV) == 0
        assert capsys.readouterr() == first, argv
    assert refused > 30


def test_console_script_reads_sys_argv(capsys, monkeypatch, corpus):
    # the installed script calls main() with no arguments
    for argv in [SCAN_ARGV, ["paper-examples", "--json"], ["measure"], ["--version"], *corpus[:3]]:
        code = main(argv)
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["enthier", *argv])
        assert main() == code
        assert capsys.readouterr() == expected


def test_json_reports_never_take_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    import json.encoder

    def refused(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    source = write_json(tmp_path, "source.json", MIXED_SOURCE_DOC)
    target = write_json(tmp_path, "target.json", MIXED_TARGET_DOC)
    density = write_json(tmp_path, "rho.json", density_doc(bell_projector()))
    for argv in [
        *[["measure", source, "--path", path] for path in ("eig", "minors", "newton")],
        ["locc", source, target],
        ["wootters", density],
        ["schmidt", source],
        ["scan", "--samples", "5"],
        ["paper-examples"],
    ]:
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    with pytest.raises(AssertionError):  # the guard bites where the encoder runs
        json.dumps([1.0], indent=2)


# ----------------------------------------------------------- document memo


def test_measure_on_every_route_builds_the_document_once(capsys, monkeypatch):
    # the cross-check's three routes on one document in one process: one build,
    # one spectrum and one e_k pass, while each route's own kernel still runs
    counts = count_calls(
        monkeypatch,
        [
            (states, "from_amplitudes"),
            (linalg, "singular_values_squared"),
            (linalg, "elementary_symmetric"),
            (linalg, "minor_sum"),
        ],
    )
    for route in ("eig", "minors", "newton"):
        assert main(["measure", str(SNAPSHOTS / "state_hand_3x4.json"), "--path", route, "--json"]) == 0
        assert capsys.readouterr().out == (SNAPSHOTS / f"hand_3x4_measure_{route}.json").read_text()
    assert dict(counts) == {
        "states.from_amplitudes": 1,
        "linalg.singular_values_squared": 1,
        "linalg.elementary_symmetric": 1,
        "linalg.minor_sum": 1,
    }


def test_rewritten_document_is_built_afresh(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "psi.json", MIXED_SOURCE_DOC)
    counts = count_calls(monkeypatch, [(states, "from_schmidt")])
    _, first = run_json(capsys, ["measure", path])
    write_json(tmp_path, "psi.json", DOMINANT_SOURCE_DOC)
    _, second = run_json(capsys, ["measure", path])
    assert counts["states.from_schmidt"] == 2
    digest = second["provenance"]["input_digest"]
    assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest() != first["provenance"]["input_digest"]
    assert np.allclose(second["results"]["schmidt_spectrum"], [0.55, 0.3, 0.15], atol=1e-12)


def test_document_memo_is_keyed_by_the_arguments_too(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", {"dims": [1, 1], "schmidt": [1.001]})
    assert main(["measure", path, "--renormalize"]) == 0
    capsys.readouterr()
    assert main(["measure", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: norm 1.001 deviates from 1 beyond 1e-6; pass renormalize\n"


def test_refused_document_is_refused_again(tmp_path, capsys):
    # a refusal is never kept, so the strict re-parse names the literal each time
    path = tmp_path / "psi.json"
    path.write_text('{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1e999}]}')
    for _ in range(2):
        assert main(["measure", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: number 1e999 is not finite in double precision\n"


def test_wootters_twice_checks_the_density_once(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "werner.json", density_doc(0.9 * bell_projector() + 0.1 * np.eye(4) / 4.0))
    checks = []
    check = measures.TwoQubitDensity.__post_init__
    monkeypatch.setattr(measures.TwoQubitDensity, "__post_init__", lambda self: checks.append(1) or check(self))
    outputs = []
    for _ in range(2):
        assert main(["wootters", path, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(checks) == 1
    assert outputs[0] == outputs[1]
