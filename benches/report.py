"""Run every workload untraced and traced, and print one summary.

    python3 benches/report.py [--seed N] [--seconds S] [--workloads a,b]

Prints, for each workload, the end-to-end metrics by name and unit
(``fail_share`` included), the tail percentile and its sample count, the
traced split of self time, the tracing slowdown and residual, the
coverage check, and whether the workload stresses the layer claimed for
it. Each run is a separate ``run.py`` process, so set-up time and peak
memory are measured per process, as a single run measures them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The layer each workload is meant to stress, checked on the traced split.
CLAIMS = {
    "scan-d3": ("linalg.hermitian_eigensystem is the largest self time", ("linalg.hermitian_eigensystem",), "largest"),
    "scan-d48": ("linalg.hermitian_eigensystem is the largest self time", ("linalg.hermitian_eigensystem",), "largest"),
    "crosscheck": (
        "linalg.determinant + linalg.minor_sum hold most of the self time",
        ("linalg.determinant", "linalg.minor_sum"),
        "majority",
    ),
    "cli-mix": ("cli.build_parser is the largest self time", ("cli.build_parser",), "largest"),
}


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    detail = next(json.loads(line[len("detail ") :]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def _claim(workload: str, shares: dict) -> str:
    text, names, kind = CLAIMS[workload]
    share = sum(shares.get(name, 0.0) for name in names)
    top = next(iter(shares), "none")
    holds = share > 0.5 if kind == "majority" else top == names[0]
    split = ", ".join(f"{name} {value:.1%}" for name, value in list(shares.items())[:4])
    return f"{'holds' if holds else 'DIFFERS'}: {text} ({share:.1%}); measured split: {split}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workloads", default=",".join(CLAIMS))
    args = parser.parse_args(argv)

    for workload in args.workloads.split(","):
        result, detail = _run(workload, args.seed, args.seconds, trace=0)
        traced, traced_detail = _run(workload, args.seed, args.seconds, trace=1)
        e2e, layer = detail["end_to_end"], traced_detail["per_layer"]
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        for name, entry in result["metrics"].items():
            raw = f"  (unscaled {e2e['unscaled'][name]:.6g})" if name in e2e["unscaled"] else ""
            print(f"  {name:<16} {entry['value']:>12.6g} {entry['unit']}{raw}")
        print(f"  {'fail_share':<16} {detail['fail_share']:>12.6g} ratio  ({result['failed']} of {result['attempted']} operations)")
        print(
            f"  latency_tail_ms is p{e2e['tail_percentile']:g} of {e2e['operations']} operations,"
            f" {e2e['tail_samples_beyond']} beyond it"
        )
        for failure in detail["failures"] + traced_detail["failures"]:
            print(f"  FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
        metrics = traced["metrics"]
        print(
            f"  traced: {layer['units']} units, {layer['spans']} spans;"
            f" slowdown x{metrics['trace.slowdown_ratio']['value']:.3f}"
            f" ({layer['untraced_units_per_s']:.4g} -> {layer['traced_units_per_s']:.4g} units/s);"
            f" spans cover the traced wall time up to a residual of {metrics['trace.residual_share']['value']:.3%}"
        )
        missing = traced_detail["coverage_missing"]
        print(f"  coverage: {'ok' if not missing else 'MISSING ' + ', '.join(missing)}")
        print(f"  claim {_claim(workload, layer['self_share'])}")
        if workload == "crosscheck":
            print(
                "  counts: determinant calls per unit, computed sum_k C(m,k) C(n,k) ="
                f" {metrics['linalg.determinant.expected_calls_per_unit']['value']:g},"
                f" measured = {metrics['linalg.determinant.calls_per_unit']['value']:g}"
            )
        if detail["scan_split_diff"] or traced_detail["scan_split_diff"]:
            print(f"  mixed/full split differs from the oracle on {detail['scan_split_diff']} pairs (recorded, not gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
