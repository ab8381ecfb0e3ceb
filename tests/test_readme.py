"""The README's "Library use" block runs, and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

from enthier.locc import Verdict

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_use_block_states_true_values():
    namespace = {}
    exec(library_use_block(), namespace)  # fails on any name the package lacks
    psi, phi = namespace["psi"], namespace["phi"]
    hierarchy = namespace["hierarchy"]
    assert np.allclose(hierarchy(psi), [1.0, 0.29, 0.02], rtol=0.0, atol=1e-12)
    assert hierarchy(psi) is hierarchy(psi)  # cached on psi
    assert np.allclose(hierarchy(phi), [1.0, 0.28, 0.024], rtol=0.0, atol=1e-12)
    assert namespace["nielsen_verdict"](psi, phi).verdict is Verdict.INCOMPARABLE
    dominance = namespace["hierarchy_dominance"](psi, phi)
    assert dominance.mixed is True
    assert dominance.slacks[1] > 0.0 > dominance.slacks[2]  # C_2 favors psi, C_3 favors phi
