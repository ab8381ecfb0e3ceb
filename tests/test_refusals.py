"""Every refusal of a state or density document, pinned byte for byte.

Each case runs one command through ``main`` on a document and compares the
exit code and the whole of stderr with the pinned line. A document is
refused for its first offence in reading order: a literal that is not
finite in double precision wins over any structural or domain problem of
the document that holds it, as when every literal is checked as it is read.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import enthier
from enthier.cli import main

BIG = "1" + "0" * 399  # an exact int that float() cannot convert
HUGE = "1" + "0" * 4999  # beyond the 4300 digits an int literal may have
ONE = '{"i": 0, "j": 0, "re": 1}'


def density_document(first_pair):
    return '{"dims": [4], "matrix": [%s]}' % ", ".join([first_pair] + ["[0, 0]"] * 15)


def not_finite(shown):
    return "{path}: number %s is not finite in double precision" % shown


LONG = "1000000000000000000000000000000000000..."  # a long literal, cut to 40 characters

CASES = [
    ("nan", "measure", '{"dims": [1, 1], "amplitudes": [{"i": 0, "j": 0, "re": NaN}]}', 2, not_finite("NaN")),
    (
        "infinity",
        "measure",
        '{"dims": [1, 1], "amplitudes": [{"i": 0, "j": 0, "re": Infinity}]}',
        2,
        not_finite("Infinity"),
    ),
    ("minus-infinity", "measure", '{"dims": [2, 2], "schmidt": [-Infinity, 1]}', 2, not_finite("-Infinity")),
    (
        "overflow-re",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1e999}]}',
        2,
        not_finite("1e999"),
    ),
    (
        "overflow-re-renormalize",
        "measure --renormalize",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1e999}]}',
        2,
        not_finite("1e999"),
    ),
    (
        "overflow-im",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1, "im": -1e999}]}',
        2,
        not_finite("-1e999"),
    ),
    ("overflow-schmidt", "measure", '{"dims": [2, 2], "schmidt": [1e999, 0.5]}', 2, not_finite("1e999")),
    (
        "overflow-schmidt-renormalize",
        "schmidt --renormalize",
        '{"dims": [2, 2], "schmidt": [1e999, 0.5]}',
        2,
        not_finite("1e999"),
    ),
    ("overflow-dims", "measure", '{"dims": [1e999, 2], "amplitudes": [%s]}' % ONE, 2, not_finite("1e999")),
    ("overflow-density", "wootters", density_document("[1e999, 0]"), 2, not_finite("1e999")),
    ("overflow-unknown-field", "measure", '{"dims": [2, 2], "schmidt": [1, 0], "note": 1e999}', 2, not_finite("1e999")),
    (
        "overflow-before-duplicate-field",
        "measure",
        '{"dims": [2, 2], "schmidt": [1e999, 0], "schmidt": [1, 0]}',
        2,
        not_finite("1e999"),
    ),
    ("overflow-before-syntax-error", "measure", '{"dims": [2, 2], "schmidt": [1e999, 0]', 2, not_finite("1e999")),
    ("overflow-nested-in-wrong-place", "measure", '{"dims": [2, 2], "amplitudes": [[1e999]]}', 2, not_finite("1e999")),
    (
        "digits-400-i",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": %s, "j": 0, "re": 1}]}' % BIG,
        2,
        not_finite(LONG),
    ),
    (
        "digits-400-j-after-bad-entry",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "re": 1}, {"i": 0, "j": -%s, "re": 1}]}' % BIG,
        2,
        not_finite("-" + LONG[:-4] + "..."),
    ),
    ("digits-400-dims", "measure", '{"dims": [%s, 2], "amplitudes": [%s]}' % (BIG, ONE), 2, not_finite(LONG)),
    (
        "digits-400-re",
        "measure --renormalize",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": %s}]}' % BIG,
        2,
        not_finite(LONG),
    ),
    ("digits-400-schmidt", "measure --renormalize", '{"dims": [2, 2], "schmidt": [%s, 1]}' % BIG, 2, not_finite(LONG)),
    (
        "digits-5000-re",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": %s}]}' % HUGE,
        2,
        not_finite(LONG),
    ),
    (
        "digits-5000-unknown-field",
        "schmidt",
        '{"dims": [2, 2], "schmidt": [1, 0], "note": %s}' % HUGE,
        2,
        not_finite(LONG),
    ),
    (
        "index-two-to-64",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 18446744073709551616, "j": 0, "re": 1}]}',
        1,
        "index (18446744073709551616, 0) outside 2x2",
    ),
    (
        "index-negative",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 1, "j": 1, "re": 0.6}, {"i": -1, "j": 0, "re": 0.8}]}',
        1,
        "index (-1, 0) outside 2x2",
    ),
    (
        "index-negative-column",
        "schmidt",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": -2, "re": 1}]}',
        1,
        "index (0, -2) outside 2x2",
    ),
    (
        "out-of-range-after-duplicate",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 1, "re": 0.6}, {"i": 0, "j": 1, "re": 0.8}, {"i": 2, "j": 0, "re": 0}]}',
        1,
        "amplitude (0, 1) supplied twice",
    ),
    (
        "duplicate-after-out-of-range",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 1, "re": 0.6}, {"i": 0, "j": 2, "re": 0}, {"i": 0, "j": 1, "re": 0.8}]}',
        1,
        "index (0, 2) outside 2x2",
    ),
    (
        "bad-entry-after-out-of-range",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 5, "j": 0, "re": 1}, {"i": 0, "j": 0, "re": "x"}]}',
        2,
        "{path}: amplitudes[1].re must be a number",
    ),
    (
        "true-as-re",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": true}]}',
        2,
        "{path}: amplitudes[0].re must be a number",
    ),
    (
        "true-as-index",
        "emit-state",
        '{"dims": [2, 2], "amplitudes": [{"i": true, "j": 0, "re": 1}]}',
        2,
        "{path}: amplitudes[0].i must be an integer",
    ),
    (
        "float-index",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0.0, "j": 0, "re": 1}]}',
        2,
        "{path}: amplitudes[0].i must be an integer",
    ),
    (
        "zero-state",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 0, "im": -0.0}]}',
        1,
        "all amplitudes are zero",
    ),
    (
        "not-normalized",
        "measure",
        '{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 0.5}]}',
        1,
        "norm 0.5 deviates from 1 beyond 1e-6; pass renormalize",
    ),
    ("top-level-list", "measure", "[1e999]", 2, not_finite("1e999")),
    ("density-dims", "wootters", '{"dims": [2], "matrix": []}', 2, "{path}: density 'dims' must be [4]"),
]


@pytest.mark.parametrize(
    "command, document, code, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_refusal_is_one_pinned_line(tmp_path, capsys, command, document, code, message):
    path = tmp_path / "doc.json"
    path.write_text(document)
    name, *flags = command.split()
    assert main([name, str(path), *flags]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.replace("{path}", str(path)) + "\n"


def test_piped_overflowing_literal_is_named_from_the_bytes_already_read():
    src = str(Path(enthier.__file__).parents[1])  # so an uninstalled checkout runs too
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # A pipe can be read only once, so the refusal must come from the same bytes.
    proc = subprocess.run(
        [sys.executable, "-m", "enthier", "measure", "/dev/stdin"],
        input=b'{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1e999}]}',
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: /dev/stdin: number 1e999 is not finite in double precision\n"
