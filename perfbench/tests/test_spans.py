import json
import sys
import types

import pytest

from perfbench.spans import HOOK, STEP, Span, Tracer, self_times, step_balance


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [Span("a.parent", -1, 0.0, 10.0),
             Span("a.first", 0, 1.0, 3.0),
             Span("a.overlap", 0, 2.0, 5.0),
             Span("a.late", 0, 8.0, 12.0),
             Span("a.grandchild", 1, 1.5, 2.5)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2:] == pytest.approx([3.0, 4.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("a.x", -1, 2.0, 2.5)]) == [0.5]


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def numbers(n):
        yield from range(n)

    class Box:
        def twice(self, x):
            return 2 * x

    mod.inner, mod.outer, mod.numbers, mod.Box = inner, outer, numbers, Box
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_records_nested_spans_and_restores_every_site(fake_module, tmp_path):
    originals = {name: fake_module.__dict__[name] for name in ("inner", "outer", "numbers")}
    method = fake_module.Box.__dict__["twice"]
    tracer = Tracer()
    tracer.install([("perfbench_fake", "inner", "fake.inner", None),
                    ("perfbench_fake", "outer", "fake.outer", lambda args, out: {"out": out}),
                    ("perfbench_fake", "numbers", "fake.numbers", None),
                    ("perfbench_fake.Box", "twice", "fake.twice", None)])
    try:
        assert fake_module.outer(1) == 4
        assert fake_module.numbers(3) == [0, 1, 2]
        assert fake_module.Box().twice(5) == 10
    finally:
        assert tracer.uninstall()
    assert all(fake_module.__dict__[n] is f for n, f in originals.items())
    assert fake_module.Box.__dict__["twice"] is method

    names = [s.name for s in tracer.spans]
    assert names == ["fake.outer", "fake.inner", HOOK, "fake.numbers", "fake.twice"]
    outer, inner, hook = tracer.spans[:3]
    assert (outer.parent, inner.parent, hook.parent) == (-1, 0, -1)
    assert outer.attrs == {"out": 4}
    # a wrapper's cost is its time outside the call, so it takes in its hook
    assert outer.cost >= hook.end - hook.start and inner.cost >= 0.0
    assert outer.start <= inner.start <= inner.end <= outer.end <= hook.start

    path = tmp_path / "spans.jsonl"
    tracer.write(str(path), 0)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["trace"] for r in rows] == [0, 0, 2, 3, 4]
    assert rows[0]["out"] == 4


def test_sampled_steps_leave_only_their_step_span(fake_module):
    """Inside `sampled`, each STEP call opens step k; calls in an untraced
    step go straight through, and tracing resumes when the block ends."""
    def step(k):
        return k

    def run(n):
        for k in range(n):
            fake_module.step(k)
            fake_module.inner(k)

    fake_module.step, fake_module.run = step, run
    tracer = Tracer()
    tracer.install([("perfbench_fake", "run", "train.pretrain", None),
                    ("perfbench_fake", "step", STEP, None),
                    ("perfbench_fake", "inner", "fake.inner", None)])
    try:
        with tracer.sampled(lambda k: k % 2 == 0):
            fake_module.run(4)
        fake_module.inner(0)
    finally:
        assert tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["train.pretrain", STEP, "fake.inner", STEP, STEP, "fake.inner", STEP,
                     "fake.inner"]
    assert [s.attrs["traced"] for s in tracer.spans if s.name == STEP] == [True, False,
                                                                          True, False]


def _step_spans(traced_ms, untraced_ms, hook_ms, cost_ms):
    """A pretraining span whose steps alternate traced, untraced, traced, ...;
    each traced step holds one hook span and one child whose cost is given."""
    spans = [Span("train.pretrain", -1, 0.0)]
    t = 0.0
    for a, b in zip(traced_ms, untraced_ms):
        spans.append(Span(STEP, 0, t, t, {"traced": True}))
        spans.append(Span("fake.child", 0, t, t + (a - hook_ms) / 1e3, cost=cost_ms / 1e3))
        spans.append(Span(HOOK, 0, t + (a - hook_ms) / 1e3, t + a / 1e3))
        t += a / 1e3
        spans.append(Span(STEP, 0, t, t, {"traced": False}))
        t += b / 1e3
    spans[0].end = t
    return spans


def test_step_balance_sets_traced_phases_against_untraced_steps():
    traced = [60.0, 62.0, 61.0, 70.0, 59.0]
    untraced = [58.0, 64.0, 60.0, 61.0, 90.0]
    b = step_balance(_step_spans(traced, untraced, hook_ms=0.5, cost_ms=0.25))
    assert b["traced_steps"] == b["untraced_steps"] == 5
    assert b["phase_sum_ms"] == pytest.approx(61.0 - 0.5)
    assert b["untraced_ms"] == pytest.approx(61.0)
    assert b["cost_ms"] == pytest.approx(0.25)
    assert b["se_ms"] > 0.0
