"""Tests of the benchmark itself: smoke runs, the tracer, and the oracles.

    python3 -m pytest benches -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer, installed  # noqa: E402

cli = run.import_enthier()
SPEC = json.loads(run.SPEC.read_text())


def _output(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _ops(name: str, workdir: Path, seed: int = 3) -> list:
    rounds = workloads.WORKLOADS[name].make_rounds(seed, workdir, Counter())
    return [op for current in rounds[:2] for op in current.ops]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_passes_a_short_run(name, trace):
    result = run.run_workload(name, seed=11, seconds=0.05, trace=trace, probes=1)
    assert result["failed"] == 0, result["detail"]["failures"]
    assert result["correct"], result["detail"].get("coverage_missing")
    kind = "per_layer" if trace else "end_to_end"
    assert {m["name"] for m in SPEC[kind]} <= set(result["values"])


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    def root():
        traced_middle()
        time.sleep(0.001)
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()
    calls, self_seconds, root_seconds = tracer.summary()
    assert calls == {"leaf": 3, "middle": 1, "root": 1}
    assert sum(self_seconds.values()) == pytest.approx(root_seconds, rel=1e-9)
    assert self_seconds["leaf"] >= 0.006
    assert 0.001 <= self_seconds["middle"] < self_seconds["leaf"]


def test_tracer_rebinds_imported_names_and_route_table():
    import enthier.cli
    import enthier.locc
    import enthier.measures

    minors, hierarchy = enthier.measures.hierarchy_via_minors, enthier.measures.hierarchy
    conversion_class = enthier.locc.conversion_class
    with installed(Tracer()) as names:
        assert "report.ReportDocument.render" in names
        assert enthier.cli._HIERARCHY_PATHS["minors"].__wrapped__ is minors
        assert enthier.locc.hierarchy.__wrapped__ is hierarchy
        assert enthier.cli.conversion_class.__wrapped__ is conversion_class
    assert enthier.cli._HIERARCHY_PATHS["minors"] is minors
    assert enthier.locc.hierarchy is hierarchy
    assert enthier.cli.conversion_class is conversion_class


def test_benchmark_lists_every_traced_function():
    with installed(Tracer()) as names:
        pass
    listed = {m["name"] for m in SPEC["per_layer"]}
    for name in names:
        assert {f"{name}.calls_per_unit", f"{name}.self_ms_per_unit"} <= listed
    assert len(SPEC["per_layer"]) <= 128


def _json_edit(text: str, edit) -> str:
    document = json.loads(text)
    edit(document["results"])
    return json.dumps(document)


def test_measure_oracle_rejects_a_perturbed_hierarchy(tmp_path):
    for op in _ops("crosscheck", tmp_path)[:3]:
        text = _output(op.argv)
        assert op.check(text) == []

        def nudge(results):
            results["hierarchy"][1] += 1e-6

        assert op.check(_json_edit(text, nudge))


def test_scan_oracle_rejects_a_moved_pair():
    argv = ["scan", "--dims", "3", "--samples", "40", "--seed", "5", "--json"]
    text = _output(argv)
    assert oracles.check_scan(text, 3, 40, 5, gate_split=True) == ([], 0)

    def move(results):
        counts = results["counts"]
        donor = next(key for key, value in counts.items() if value and key != oracles.COMPARABLE)
        counts[donor] -= 1
        counts[oracles.COMPARABLE] += 1

    problems, _ = oracles.check_scan(_json_edit(text, move), 3, 40, 5, gate_split=True)
    assert problems


def test_cli_mix_oracles_reject_perturbed_outputs(tmp_path):
    perturb = {
        "schmidt": lambda r: r["schmidt_spectrum"].__setitem__(0, r["schmidt_spectrum"][0] + 1e-6),
        "measure": lambda r: r["hierarchy"].__setitem__(1, r["hierarchy"][1] + 1e-6),
        "locc": lambda r: r.__setitem__("verdict", "equivalent" if r["verdict"] != "equivalent" else "incomparable"),
        "wootters": lambda r: r.__setitem__("ppt", "separable" if r["ppt"] == "entangled" else "entangled"),
        "paper-examples": lambda r: r["hierarchies"]["spectrum_050_040_010"].__setitem__("c2", 0.29 + 1e-6),
    }
    seen = set()
    for op in _ops("cli-mix", tmp_path):
        text = _output(op.argv)
        assert op.check(text) == [], op.argv
        if "--json" in op.argv:
            assert op.check(_json_edit(text, perturb[op.argv[0]])), op.argv
            seen.add(op.argv[0])
        elif op.argv[0] == "wootters":
            ppt_line = next(line for line in text.splitlines() if line.startswith("ppt: "))
            other = "ppt: separable" if ppt_line == "ppt: entangled" else "ppt: entangled"
            assert op.check(text.replace(ppt_line, other)), op.argv
    assert seen == set(perturb)


def test_wootters_oracle_rejects_a_shifted_concurrence(tmp_path):
    op = next(op for op in _ops("cli-mix", tmp_path) if op.argv[0] == "wootters" and "--json" in op.argv)
    text = _output(op.argv)

    def shift(results):
        results["concurrence"] += 1e-6

    assert op.check(_json_edit(text, shift))


def test_a_failed_call_is_reported_with_its_input(tmp_path):
    op = _ops("cli-mix", tmp_path)[0]
    runner = run.Runner(cli)
    runner.call(workloads.Op(op.argv, lambda text: ["flipped verdict"], op.inputs))
    runner.call(workloads.Op(["schmidt", str(tmp_path / "missing.json")], op.check))
    assert runner.attempted == 2
    assert [f["problems"][0][:14] for f in runner.failures] == ["flipped verdic", "exit code 2: e"]
    assert runner.failures[0]["inputs"] == {str(op.inputs[0]): op.inputs[0].read_text()}


def test_host_scale_is_the_median_of_neighbouring_samples():
    host = HostSpeed()
    host.samples = [1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0]
    scales = host.scales([0, 2, 6]) / hostspeed.REFERENCE_SECONDS
    assert scales.tolist() == [1.0, 1.0, 0.5]


def test_strict_json_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        oracles.strict_json('{"command": "measure", "results": {"eof": NaN}}')
    with pytest.raises(ValueError):
        oracles.strict_json('{"x": -Infinity}')


def test_crosscheck_counts_minors_exactly():
    assert workloads.minor_count(8, 8) == 12869
    assert workloads.minor_count(5, 8) == 1286


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    command = [sys.executable, f"{HERE.name}/run.py", "--workload", "scan-d3", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
