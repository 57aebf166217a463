import sys
import types

import pytest

from tracer import Site, Tracer


class FakeClock:
    """A clock that moves only when the code under trace says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def pkg():
    """A two-module package whose second module imported a function by name."""
    clock = FakeClock()
    top = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def inner(x):
        clock.advance(2.0)
        return x * 10

    def boom():
        clock.advance(0.25)
        raise KeyError("boom")

    class Thing:
        def outer(self, x):
            clock.advance(1.0)
            y = sub.inner(x)
            clock.advance(3.0)
            return y + 1

        def hot(self):
            return "hot"

    top.inner = inner
    top.boom = boom
    sub.inner = inner
    sub.Thing = Thing
    sys.modules["fakepkg"], sys.modules["fakepkg.sub"] = top, sub
    yield types.SimpleNamespace(clock=clock, top=top, sub=sub, Thing=Thing, inner=inner, boom=boom)
    del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


def sites(p, after=None):
    return [
        Site("pkg.inner", p.top, "inner", after=after),
        Site("pkg.boom", p.top, "boom"),
        Site("pkg.outer", p.Thing, "outer"),
        Site("pkg.hot", p.Thing, "hot", timed=False),
    ]


def test_self_times_and_unattributed_sum_to_window(pkg):
    tracer = Tracer(clock=pkg.clock, package="fakepkg")
    with tracer.installed(sites(pkg)), tracer.window():
        assert pkg.Thing().outer(4) == 41
        pkg.clock.advance(0.5)  # loop work outside any span
        with tracer.span("bench.check"):
            pkg.clock.advance(0.125)
            assert pkg.sub.inner(1) == 10
    summary = tracer.summary()
    assert summary["pkg.outer"] == {"calls": 1, "total_s": 6.0, "self_s": 4.0}
    assert summary["pkg.inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert summary["bench.check"]["self_s"] == 0.125
    assert tracer.unattributed_s() == 0.5
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self + tracer.unattributed_s() == tracer.window_s == 8.625


def test_wrappers_pass_arguments_results_and_exceptions(pkg):
    seen = []
    tracer = Tracer(clock=pkg.clock, package="fakepkg")
    with tracer.installed(sites(pkg, after=lambda t, args, result: seen.append((args, result)))):
        assert pkg.sub.inner(x=3) == 30
        with pytest.raises(KeyError, match="boom"):
            pkg.top.boom()
        assert pkg.Thing().hot() == "hot"
    assert seen == [((), 30)]
    assert tracer.summary()["pkg.boom"]["total_s"] == 0.25
    assert tracer.counts["pkg.hot"] == 1
    assert "pkg.hot" not in tracer.summary()  # count-only sites record no span


def test_uninstall_restores_every_reference(pkg):
    original_outer = pkg.Thing.__dict__["outer"]
    tracer = Tracer(clock=pkg.clock, package="fakepkg")
    with tracer.installed(sites(pkg)):
        assert pkg.top.inner is not pkg.inner and pkg.sub.inner is pkg.top.inner
        assert pkg.Thing.__dict__["outer"] is not original_outer
    assert pkg.top.inner is pkg.inner and pkg.sub.inner is pkg.inner
    assert pkg.top.boom is pkg.boom
    assert pkg.Thing.__dict__["outer"] is original_outer
    assert tracer.dump()["spans"] == []
