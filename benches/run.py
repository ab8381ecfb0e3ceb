"""Benchmark for enthier, timed from outside the package.

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ``src/``,
never from an installed copy, and a checkout without ``src/enthier``
is an error. Workloads are defined in ``workloads.py``, and metric names
and units are read from ``BENCHMARK.json``.

Every operation is one in-process call of ``enthier.cli.main(argv)`` with
stdout and stderr captured: one client thread, closed loop, each call
waiting for the previous one. Inputs come from ``--seed``. Each output is
checked against an oracle built on numpy LAPACK (``oracles.py``) after
the call's timed interval. An operation fails on a nonzero exit, an
exception, or an oracle mismatch.

With ``--trace 0`` the run reports the end-to-end metrics: work units
per second, median and tail latency of one call, set-up time (median of
several fresh processes, each timed from its start to the point where
its first timed call could begin) and peak resident memory. Call times
are scaled to a reference host speed (``hostspeed.py``), so that a shared
machine's slow spells do not read as a slower program; the unscaled
values are printed beside them. Set-up time is not scaled. The share of
failed calls is the result's ``failed`` over ``attempted``; it is printed
as ``fail_share`` but is not a metric of ``BENCHMARK.json``, whose
metrics must never be 0.

With ``--trace 1`` the run first measures a third of ``--seconds``
untraced, then the rest with every public function wrapped by
``tracer.py``. It reports calls and self time per work unit for each
function, the tracing slowdown, the share of wall time the spans do not
cover, and a coverage check that fails the run when a function the
workload must reach records no call.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
provenance, failures and the traced split, and a ``detail`` line with
the same in JSON for ``report.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed
from tracer import Tracer, installed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
_PER_FUNCTION = (".calls_per_unit", ".self_ms_per_unit")
TRACE_UNTRACED_SHARE = 1.0 / 3.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_enthier():
    """Import the package from this checkout's ``src/``."""
    if not (SRC / "enthier" / "__init__.py").is_file():
        raise SetupError(f"no enthier package under {SRC}; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import enthier.cli

    if not Path(enthier.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"enthier was imported from {enthier.cli.__file__}, not from {SRC}")
    return enthier.cli


@dataclass
class Phase:
    """Totals over the whole rounds of one measured phase."""

    latencies: list[float] = field(default_factory=list)
    references: list[int] = field(default_factory=list)  # host-speed sample index per call
    round_ends: list[int] = field(default_factory=list)  # calls made when each round ended
    round_units: list[int] = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0
    minor_count: int = 0

    @property
    def units(self) -> int:
        return sum(self.round_units)

    def scaled(self, host: HostSpeed) -> np.ndarray:
        """Call times at the reference host speed."""
        return np.asarray(self.latencies) * host.scales(self.references)


class Runner:
    """Executes and checks the calls of one workload, keeping score."""

    def __init__(self, cli):
        self.cli = cli
        self.host = HostSpeed()
        self.attempted = 0
        self.failures: list[dict] = []

    def call(self, op) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(op.argv)
            elapsed = time.perf_counter() - start
        except Exception:  # any escape from main is a failed operation, not a benchmark crash
            elapsed = time.perf_counter() - start
            code, problems = None, [traceback.format_exc()]
        text = out.getvalue()
        if code == 0:
            try:
                problems = op.check(text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        elif code is not None:
            problems = [f"exit code {code}: {err.getvalue().strip()}"]
        self.attempted += 1
        if problems:
            inputs = {str(path): path.read_text() for path in op.inputs}  # the work directory is removed later
            self.failures.append({"argv": op.argv, "problems": problems, "inputs": inputs})
        return elapsed, text

    def measure(self, rounds, first: int, seconds: float) -> tuple[Phase, int]:
        """Whole rounds from index ``first`` until ``seconds`` have passed."""
        phase = Phase()
        self.host.sample()
        deadline = time.perf_counter() + seconds
        index = first
        while True:
            current = rounds[index % len(rounds)]
            for op in current.ops:
                elapsed, text = self.call(op)
                phase.references.append(self.host.sample())
                phase.latencies.append(elapsed)
                phase.bytes_out += len(text.encode())
            phase.round_ends.append(len(phase.latencies))
            phase.round_units.append(current.units)
            phase.bytes_in += current.bytes_in
            phase.minor_count += current.minor_count
            index += 1
            if time.perf_counter() >= deadline:
                return phase, index


def _workdir() -> Path:
    path = WORK / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def set_up(workload, seed: int, workdir: Path, notes: Counter):
    """Everything before the first timed call: import, inputs, warm-up."""
    runner = Runner(import_enthier())
    rounds = workload.make_rounds(seed, workdir, notes)
    for op in workload.warmup(rounds, notes):
        runner.call(op)
    return runner, rounds


def setup_probe(workload, seed: int) -> int:
    workdir = _workdir()
    try:
        set_up(workload, seed, workdir, Counter())
        print("ready", flush=True)
    finally:
        _remove_workdir(workdir)
    return 0


def setup_seconds(name: str, seed: int, probes: int) -> list[float]:
    """Wall time from the start of a fresh process to the end of its set-up."""
    times = []
    for _ in range(probes):
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise SetupError("set-up probe did not exit after printing") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up probe printed {line!r}, exit {proc.returncode}: {err.strip()}")
        times.append(elapsed)
    return times


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "enthier").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints instead
        blas = "unavailable"
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _call_times(latencies, phase: Phase, percentile: float) -> dict:
    """Median over rounds of units per second, median and tail call latency."""
    latencies = np.asarray(latencies)
    round_seconds = np.add.reduceat(latencies, [0, *phase.round_ends[:-1]])
    tail = float(np.percentile(latencies, percentile))
    return {
        "units_per_s": float(np.median(np.asarray(phase.round_units) / round_seconds)),
        "latency_p50_ms": float(np.median(latencies)) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_samples_beyond": int(np.sum(latencies > tail)),
    }


def end_to_end(workload, phase: Phase, host: HostSpeed, setups: list[float]) -> tuple[dict, dict]:
    scaled = _call_times(phase.scaled(host), phase, workload.tail_percentile)
    values = {
        "units_per_s": scaled["units_per_s"],
        "latency_p50_ms": scaled["latency_p50_ms"],
        "latency_tail_ms": scaled["latency_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": scaled["tail_samples_beyond"],
        "operations": len(phase.latencies),
        "units": phase.units,
        "rounds": len(phase.round_ends),
        "setup_probes_s": setups,
        "unscaled": _call_times(phase.latencies, phase, workload.tail_percentile),
        "host_scale_median": float(np.median(host.scales(phase.references))),
    }
    return values, detail


def per_layer(wrapped: list[str], tracer, host: HostSpeed, untraced: Phase, traced: Phase) -> tuple[dict, dict]:
    """Per-function counts and self times per unit; self times are unscaled wall time."""
    calls, self_seconds, root_seconds = tracer.summary()
    units = traced.units
    untraced_per_s = untraced.units / float(np.sum(untraced.scaled(host)))
    traced_per_s = units / float(np.sum(traced.scaled(host)))
    values = {}
    for name in wrapped:
        values[f"{name}.calls_per_unit"] = calls.get(name, 0) / units
        values[f"{name}.self_ms_per_unit"] = self_seconds.get(name, 0.0) * 1e3 / units
    spectrum_calls = calls.get("states.schmidt_spectrum", 0)
    verdicts = calls.get("locc.conversion_class", 0)
    values.update(
        {
            "states.schmidt_spectrum.cache_hit_ratio": (
                (spectrum_calls - calls.get("linalg.singular_values_squared", 0)) / spectrum_calls
                if spectrum_calls
                else 0.0
            ),
            "locc.dominance_share": calls.get("locc.hierarchy_dominance", 0) / verdicts if verdicts else 0.0,
            "statefile.bytes_in_per_unit": traced.bytes_in / units,
            "report.bytes_out_per_unit": traced.bytes_out / units,
            "linalg.determinant.expected_calls_per_unit": traced.minor_count / units,
            "trace.slowdown_ratio": untraced_per_s / traced_per_s,
            "trace.residual_share": 1.0 - root_seconds / sum(traced.latencies),
            "trace.spans_per_unit": tracer.span_count() / units,
        }
    )
    total_self = sum(self_seconds.values())
    detail = {
        "units": units,
        "operations": len(traced.latencies),
        "traced_wall_s": sum(traced.latencies),
        "spans": tracer.span_count(),
        "self_share": {
            name: seconds / total_self
            for name, seconds in sorted(self_seconds.items(), key=lambda item: -item[1])
            if seconds > 0
        },
        "untraced_units_per_s": untraced_per_s,
        "traced_units_per_s": traced_per_s,
    }
    return values, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result, the metric values and details."""
    workload = WORKLOADS[name]
    setups = None if trace else setup_seconds(name, seed, probes)
    notes: Counter = Counter()
    workdir = _workdir()
    try:
        runner, rounds = set_up(workload, seed, workdir, notes)
        detail = {"provenance": provenance(name, seed)}
        if not trace:
            phase, _ = runner.measure(rounds, 0, seconds)
            values, detail["end_to_end"] = end_to_end(workload, phase, runner.host, setups)
            coverage_missing = []
        else:
            untraced, index = runner.measure(rounds, 0, seconds * TRACE_UNTRACED_SHARE)
            tracer = Tracer()
            with installed(tracer) as wrapped:
                traced, _ = runner.measure(rounds, index, seconds * (1.0 - TRACE_UNTRACED_SHARE))
            values, detail["per_layer"] = per_layer(wrapped, tracer, runner.host, untraced, traced)
            coverage_missing = [
                f for f in workload.must_reach if f in wrapped and values[f"{f}.calls_per_unit"] == 0
            ]
            detail["coverage_missing"] = coverage_missing
    finally:
        _remove_workdir(workdir)
    failed = len(runner.failures)
    detail["fail_share"] = failed / runner.attempted
    detail["failures"] = runner.failures[:20]
    detail["scan_split_diff"] = notes["scan_split_diff"]
    return {
        "correct": failed == 0 and not coverage_missing,
        "attempted": runner.attempted,
        "failed": failed,
        "values": values,
        "detail": detail,
    }


def _print_human(name: str, run: dict, metrics: dict) -> None:
    detail = run["detail"]
    print(f"provenance {json.dumps(detail['provenance'], default=str)}")
    unscaled = detail.get("end_to_end", {}).get("unscaled", {})
    for metric, entry in metrics.items():
        if entry["value"] or metric in unscaled:
            raw = f" (unscaled {unscaled[metric]:.6g})" if metric in unscaled else ""
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}{raw}")
    print(f"{name} fail_share = {detail['fail_share']:.6g} ratio ({run['failed']} of {run['attempted']} operations)")
    if "end_to_end" in detail:
        e2e = detail["end_to_end"]
        print(
            f"{name} latency_tail_ms is p{e2e['tail_percentile']:g} of {e2e['operations']} operations"
            f" ({e2e['tail_samples_beyond']} beyond it); setup_s is the median of {len(e2e['setup_probes_s'])} processes"
        )
    if "per_layer" in detail:
        layer = detail["per_layer"]
        print(f"{name} traced {layer['units']} units in {layer['operations']} operations, {layer['spans']} spans")
        for span, share in list(layer["self_share"].items())[:12]:
            print(f"{name}   self {share:7.2%}  {span}")
        print(f"{name} coverage: {'ok' if not detail['coverage_missing'] else 'MISSING ' + ', '.join(detail['coverage_missing'])}")
    if detail["scan_split_diff"]:
        print(f"{name} mixed/full split differs from the oracle by {detail['scan_split_diff']} pairs (recorded, not gated)")
    for failure in detail["failures"]:
        print(f"{name} FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
        for path, text in failure["inputs"].items():
            print(f"{name}   input {path}: {text}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="enthier benchmark: one workload, one run.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import_enthier()
        if args.workload not in WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        if args.setup_probe:
            return setup_probe(WORKLOADS[args.workload], args.seed)
        spec = json.loads(SPEC.read_text())
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # A function a later change removes still has its metrics: it makes no calls.
    values = {
        name: run["values"].get(name, 0.0 if name.endswith(_PER_FUNCTION) else None)
        for name in (m["name"] for m in wanted)
    }
    unknown = [name for name, value in values.items() if value is None]
    if unknown:
        print(f"error: the run measured no value for {unknown}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    _print_human(args.workload, run, metrics)
    print("detail " + json.dumps(run["detail"], default=str))
    result = {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
