import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import enthier
from enthier import cli, linalg, measures, statefile, states
from enthier.cli import build_parser, main
from enthier.linalg import seeded_rng
from enthier.locc import conversion_class, hierarchy_dominance
from enthier.measures import NEWTON_DIM_LIMIT
from enthier.statefile import write_state
from enthier.states import density_matrix, from_amplitudes, random_pure

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
    err = capsys.readouterr().err
    assert "newton" in err and str(NEWTON_DIM_LIMIT) in err
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
    names = {"hierarchy", "invariants", route_function}  # eig's route function is hierarchy itself
    counts = count_calls(
        monkeypatch,
        [(linalg, "elementary_symmetric"), (statefile, "parse_state"), *[(measures, name) for name in names]],
    )
    assert main(["measure", str(path), "--path", route, "--json"]) == 0
    assert counts["linalg.elementary_symmetric"] == 1
    assert counts["measures.invariants"] == 1
    # what the benchmark's coverage check needs this call to reach
    assert counts["measures.hierarchy"] == 1
    assert counts[f"measures.{route_function}"] == 1
    assert counts["statefile.parse_state"] == 1


HAAR_5X8 = str(SNAPSHOTS / "state_haar_5x8.json")


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


def test_wootters_invalid_density_is_domain_error(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", density_doc(np.eye(4, dtype=complex)))
    assert main(["wootters", path]) == 1


# -------------------------------------------------------------------- scan


def test_scan_two_level_never_fully_dominant(capsys):
    code, payload = run_json(capsys, ["scan", "--dims", "2", "--samples", "150", "--seed", "3"])
    assert code == 0
    counts = payload["results"]["counts"]
    assert counts["incomparable-full-dominance"] == 0
    assert counts["incomparable-mixed-dominance"] == 0
    assert counts["comparable"] == 150


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


@pytest.mark.parametrize("dims", [2, 3, 8])
def test_scan_pairs_states_across_chunk_boundaries(monkeypatch, capsys, dims):
    # Seven pairs per chunk: 53 samples make seven full chunks and one of four.
    monkeypatch.setattr(cli, "_SCAN_CHUNK_ENTRIES", 7 * 2 * dims * dims)
    for seed in (0, 1):
        code, payload = run_json(capsys, ["scan", "--dims", str(dims), "--samples", "53", "--seed", str(seed)])
        assert code == 0
        assert payload["results"]["counts"] == reference_scan_counts(dims, 53, seed)


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
    path = tmp_path / "big.json"
    write_state(random_pure(40, 40, seeded_rng(5)), path)  # ~180 kB, beyond a pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "enthier", "emit-state", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


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


def test_usage_error_leaves_the_next_scan_unchanged(capsys):
    argv = ["scan", "--dims", "3", "--samples", "20", "--seed", "0", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["scan", "--seed", "-1"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
