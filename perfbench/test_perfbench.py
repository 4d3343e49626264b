"""Self-test of the benchmark at a small size: the traced run must measure the
program without changing it.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload is solved once untraced and once traced (flap at res 1, two
levels of each study); answers, iteration counts and every output file must
be bitwise identical, and the wrappers must be gone afterwards.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import tracing  # noqa: E402
from olmfsi import geometry, solid  # noqa: E402
from workloads import FlapRes2, ManufacturedFsi, StokesPatch, output_digest  # noqa: E402

SMALL = {"flap-res1": FlapRes2(res=1),
         "manufactured-2": ManufacturedFsi(levels=2),
         "stokes-2": StokesPatch(levels=2)}


@pytest.mark.parametrize("name", SMALL)
def test_traced_run_is_bitwise_identical(name, tmp_path):
    workload = SMALL[name]
    clip, assemble = geometry.intersect_convex, solid.assemble_solid
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()

    plain = workload.run(workload.prepare(), str(plain_dir))
    inputs = workload.prepare()
    with tracing.traced() as tracer:
        t0 = time.perf_counter()
        traced = workload.run(inputs, str(traced_dir))
        wall = time.perf_counter() - t0

    assert traced == plain
    assert output_digest(traced_dir) == output_digest(plain_dir)
    assert geometry.intersect_convex is clip and solid.assemble_solid is assemble

    layers = tracer.layer_metrics(wall)
    assert layers["geometry.clip_calls"] > 0
    assert layers["linalg.lu_calls.fluid"] > 0
    assert 0.9 <= layers["trace.coverage"] <= 1.0 + 1e-9
    if name == "flap-res1":
        assert layers["coupling.outer_iters"] == plain["outer_iters"]
        assert layers["solid.newton_iters"] == sum(plain["newton_iters"])
    if name == "manufactured-2":
        assert layers["coupling.outer_iters"] == sum(plain["outer_iters"])
