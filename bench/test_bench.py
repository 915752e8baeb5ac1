"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest bench"""

from __future__ import annotations

import importlib
import sys
import textwrap

import pytest

from metrics import OpResult, SpeedProbe, median, percentile, tally
from spans import Span, Tracer, install, layer_totals, self_times, uninstall


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # job [0, 10] > op [1, 9] > f [2, 5] > g [3, 4]; op also calls h [6, 8]
    spans = [
        Span("job", 0.0, 10.0, None, None),
        Span("op", 1.0, 9.0, 0, "a"),
        Span("f", 2.0, 5.0, 1, "a"),
        Span("g", 3.0, 4.0, 2, "a"),
        Span("h", 6.0, 8.0, 1, "a"),
    ]
    assert self_times(spans) == [2.0, 3.0, 2.0, 1.0, 2.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, None, None), Span("c", 1.0, 6.0, 0, None),
             Span("c", 4.0, 12.0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_ops_and_clock():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0]))
    tracer.op = "op-1"
    outer = tracer.enter("outer")
    tracer.exit(tracer.enter("inner"))
    tracer.exit(outer)
    assert [(s.name, s.start, s.end, s.parent, s.op) for s in tracer.spans] == [
        ("outer", 0.0, 4.0, None, "op-1"),
        ("inner", 1.0, 3.0, 0, "op-1"),
    ]
    assert self_times(tracer.spans) == [2.0, 2.0]


def test_layer_totals_group_and_count_entries():
    spans = [
        Span("job", 0.0, 10.0, None, None),
        Span("max_cycle", 1.0, 4.0, 0, None),   # delegates to min_cycle
        Span("min_cycle", 1.5, 3.5, 1, None),
        Span("min_cycle", 5.0, 6.0, 0, None),
    ]
    groups = {"max_cycle": "cycle", "min_cycle": "cycle"}
    totals = layer_totals(spans, groups)
    assert totals["cycle"][0] == 2
    assert totals["cycle"][1] == pytest.approx(4.0)
    assert totals["job"] == (1, pytest.approx(6.0))
    assert sum(t for _, t in totals.values()) == pytest.approx(10.0)


@pytest.mark.parametrize(
    "values, q, expected",
    [
        ([5.0], 50, 5.0),
        ([5.0], 90, 5.0),
        ([3.0, 1.0, 2.0], 50, 2.0),
        ([3.0, 1.0, 2.0], 90, 3.0),
        (list(range(1, 11)), 50, 5),
        (list(range(1, 11)), 90, 9),
        (list(range(1, 11)), 91, 10),
        (list(range(1, 101)), 90, 90),
        (list(range(1, 170)), 90, 153),
    ],
)
def test_percentile_is_nearest_rank(values, q, expected):
    assert percentile(values, q) == expected


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_tally_counts_failures_and_wrong_outputs():
    results = [
        OpResult("w", 0, "a", 1.0),
        OpResult("w", 0, "b", 1.0, failure="refused zeta: too far", wrong=False),
        OpResult("w", 1, "a", 1.0),
        OpResult("w", 1, "b", 1.0, failure="refused zeta: too far", wrong=False),
    ]
    t = tally(results)
    assert (t["attempted"], t["failed"], t["fail_frac"], t["correct"]) == (4, 2, 0.5, True)
    assert t["failures"] == ["w job0 b: refused zeta: too far", "w job1 b: refused zeta: too far"]
    results.append(OpResult("w", 1, "c", 1.0, failure="mean off by 1e-3", wrong=True))
    t = tally(results)
    assert (t["failed"], t["fail_frac"], t["correct"]) == (3, 0.6, False)


def test_speed_probe_scales_by_nearby_reference_times():
    probe = SpeedProbe(work=lambda: None, nominal=1.0, window=2.0, min_samples=2)
    # reference took 1 s around t=0..5 (nominal speed), 2 s around t=20..25 (half speed)
    probe.samples = [(0.0, 1.0), (5.0, 1.0), (20.0, 2.0), (25.0, 2.0), (26.0, 2.0)]
    assert probe.scale(1.0, 4.0) == 1.0
    assert probe.scale(21.0, 24.0) == 0.5
    # no sample within the window: the two nearest ones decide
    assert probe.scale(12.0, 13.0) == pytest.approx(2.0 / 3.0)
    # a 10 s op reaches 10 s beyond each end, so all five samples count
    assert probe.scale(6.0, 16.0) == 0.5


def test_speed_probe_samples_with_its_clock():
    probe = SpeedProbe(work=lambda: None, nominal=3.0, clock=FakeClock([10.0, 13.0, 20.0, 26.0]))
    probe.sample(2)
    assert probe.samples == [(11.5, 3.0), (23.0, 6.0)]
    assert probe.scale(0.0, 100.0) == pytest.approx(3.0 / 4.5)


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import f, Thing\nfrom .b import g\n")
    (pkg / "a.py").write_text(textwrap.dedent("""
        def f(x):
            return x + 1

        def _private(x):
            return x

        class Thing:
            def __init__(self, v):
                self.v = v

            def get(self):
                return self.v

            @classmethod
            def make(cls, v):
                return cls(v)

            @property
            def doubled(self):
                return 2 * self.v
    """))
    (pkg / "b.py").write_text(textwrap.dedent("""
        from .a import f, _private

        def g(x):
            return f(_private(x)) * 2
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    mod = importlib.import_module("fakepkg")
    yield mod
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_install_rebinds_names_imported_from_other_modules(fake_package):
    a, b = sys.modules["fakepkg.a"], sys.modules["fakepkg.b"]
    originals = (a.f, b.f, fake_package.f, b._private, a.Thing.__init__, a.Thing.get)
    tracer = Tracer()
    undo = install(tracer, "fakepkg")
    try:
        assert b.f is a.f is fake_package.f is not originals[0]
        assert b._private is originals[3]  # private names stay untraced
        assert fake_package.g(1) == 4
        thing = a.Thing.make(3)
        assert (thing.get(), thing.doubled) == (3, 6)
    finally:
        uninstall(undo)
    names = [(s.name, None if s.parent is None else tracer.spans[s.parent].name) for s in tracer.spans]
    assert names == [
        ("b.g", None),
        ("a.f", "b.g"),  # reached through b's own binding of f
        ("a.Thing.make", None),
        ("a.Thing", "a.Thing.make"),
        ("a.Thing.get", None),
    ]
    assert (a.f, b.f, fake_package.f, b._private, a.Thing.__init__, a.Thing.get) == originals


def test_job_count_fits_nominal_jobs_into_the_run():
    import run

    class W:
        job_s = 7.5

    assert [run.job_count(W, s) for s in (1.0, 7.5, 14.9, 15.0, 20.0)] == [1, 1, 1, 2, 2]


def test_artifact_mismatches_names_the_op(tmp_path):
    import run

    ref, new = tmp_path / "ref", tmp_path / "new"
    ref.mkdir()
    new.mkdir()
    for d in (ref, new):
        (d / "req-01.witness.json").write_bytes(b"same")
    (ref / "req-02.witness.json").write_bytes(b"one")
    (new / "req-02.witness.json").write_bytes(b"two")
    (ref / "req-03.verify.json").write_bytes(b"only here")
    assert sorted(run.artifact_mismatches(ref, new)) == ["req-02", "req-03"]
