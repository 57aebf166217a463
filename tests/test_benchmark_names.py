"""Every name the benchmark reads still exists in sparsekit.

perfbench/layers.py lists the functions and methods a traced run patches,
and perfbench/workloads.py calls the parser, the whitening and the solvers
with keyword sets of its own.  Renaming or deleting one of them breaks the
benchmark at import, at wrap time or at its first solve, which tier-1
would otherwise not notice.
"""

from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD_NAMES = ["sparsify-dense", "sparsify-sparse", "ks-afn", "expdesign-aipe"]


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import layers

        yield layers


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads

        yield workloads


def test_every_traced_site_resolves(layers):
    sites = layers.SETUP_SITES + layers.SOLVE_SITES
    assert sites
    for site in sites:
        # the tracer patches a class's own __dict__ entry, a module's attribute
        if isinstance(site.owner, type):
            assert site.attr in vars(site.owner), site.name
        assert callable(getattr(site.owner, site.attr)), site.name


def test_every_workload_is_exercised(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_generates_loads_solves_and_checks(workloads, name, tmp_path):
    """One seeded input per workload through the benchmark's own calls."""
    wl = workloads.WORKLOADS[name]
    path = str(tmp_path / "input.mtx")
    wl.generate(np.random.default_rng(7), path)
    inst = workloads.Instance(wl.load(path), seed=7)
    for path_kind in workloads.PATHS:
        verdict = wl.check(inst, path_kind, wl.solve(inst, path_kind))
        assert verdict.ok, (name, path_kind, verdict.facts)
