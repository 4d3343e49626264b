"""The answers of the stock studies, checked against ``answers.json``.

The file was written once from the solver before any change that moves
results at the roundoff level.  Counts must match exactly and floats to
1e-10 relative.  An entry is changed only on purpose, with its old and new
values and the reason recorded in CHANGES.md; the file is never regenerated
to make this test pass.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from olmfsi.verification import flap2d, run_convergence, run_stokes_convergence

ANSWERS = json.loads(Path(__file__).with_name("answers.json").read_text())
RTOL = 1e-10


def flap(angle):
    state, _ = flap2d(angle, res=1)
    return {"outer_iters": state.iterations,
            "newton_iters": list(state.solid_newton_iters),
            "max_disp": float(np.abs(state.solid_displacement).max())}


def manufactured():
    rep = run_convergence(levels=2)
    return {"outer_iters": rep.iters, "err_u": rep.err_u, "err_p": rep.err_p,
            "err_s": rep.err_s}


def stokes_patch():
    rep = run_stokes_convergence(levels=3)
    return {"err_u": rep.err_u, "err_p": rep.err_p,
            "eoc_u": rep.eoc_u[1:], "eoc_p": rep.eoc_p[1:]}


STUDIES = {
    "flap_0_res1": lambda: flap(0.0),
    "flap_65_res1": lambda: flap(65.0),
    "manufactured_2_levels": manufactured,
    "stokes_patch_3_levels": stokes_patch,
}


@pytest.mark.parametrize("name", STUDIES)
def test_answers_unchanged(name):
    expected = ANSWERS[name]
    got = STUDIES[name]()
    assert sorted(got) == sorted(expected)
    for key, want in expected.items():
        if key.endswith("_iters"):
            assert got[key] == want, key
        else:
            np.testing.assert_allclose(got[key], want, rtol=RTOL, atol=0.0,
                                       err_msg=key)
