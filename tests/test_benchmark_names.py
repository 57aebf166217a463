"""Every name the benchmark's tracer wraps still exists in sparsekit.

perfbench/layers.py lists the functions and methods a traced run patches.
Renaming or deleting one of them breaks the benchmark at import or at wrap
time, which tier-1 would otherwise not notice.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import layers

        yield layers


def test_every_traced_site_resolves(layers):
    sites = layers.SETUP_SITES + layers.SOLVE_SITES
    assert sites
    for site in sites:
        # the tracer patches a class's own __dict__ entry, a module's attribute
        if isinstance(site.owner, type):
            assert site.attr in vars(site.owner), site.name
        assert callable(getattr(site.owner, site.attr)), site.name
