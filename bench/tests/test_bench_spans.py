"""The span recorder patches from outside and leaves no trace behind."""

import sys
import types

import pytest

import spans


@pytest.fixture
def fake_modules():
    """``repro.benchfake_a`` defines two entry points; ``_b`` imported one by name."""
    import repro  # noqa: F401  (the parent package must be importable)

    definer = types.ModuleType("repro.benchfake_a")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "class Box:\n    def method(self, x):\n        return outer(x)\n",
        definer.__dict__,
    )
    importer = types.ModuleType("repro.benchfake_b")
    importer.aliased = definer.outer
    importer.call = lambda x: importer.aliased(x)
    sys.modules[definer.__name__] = definer
    sys.modules[importer.__name__] = importer
    yield definer, importer
    del sys.modules[definer.__name__], sys.modules[importer.__name__]


ENTRY_POINTS = {
    "fake.inner": ("fake", "repro.benchfake_a.inner"),
    "fake.outer": ("fake", "repro.benchfake_a.outer"),
    "fake.method": ("fake", "repro.benchfake_a.Box.method"),
    "fake.gone": ("fake", "repro.benchfake_a.no_such_function"),
    "fake.nowhere": ("fake", "repro.no_such_module.function"),
}


def test_patches_definer_and_importers_then_restores_everything(fake_modules, capsys):
    definer, importer = fake_modules
    before = (definer.inner, definer.outer, definer.Box.__dict__["method"], importer.aliased)
    recorder = spans.SpanRecorder(ENTRY_POINTS)
    with recorder:
        assert importer.aliased is not before[3], "a by-name import must be rebound too"
        recorder.op_id = 7
        assert importer.call(1) == 4
        assert definer.Box().method(2) == 6
    after = (definer.inner, definer.outer, definer.Box.__dict__["method"], importer.aliased)
    assert after == before
    assert sorted(recorder.unresolved) == ["fake.gone", "fake.nowhere"]
    assert "no longer resolves" in capsys.readouterr().err

    names = [span.name for span in recorder.spans]
    assert names.count("fake.outer") == 2 and names.count("fake.inner") == 2
    assert names.count("fake.method") == 1
    assert {span.op_id for span in recorder.spans} == {7}
    by_id = {span.span_id: span for span in recorder.spans}
    for span in recorder.spans:
        if span.name == "fake.inner":
            assert by_id[span.parent_id].name == "fake.outer"
    # Nothing is recorded once the pass is over.
    count = len(recorder.spans)
    importer.call(1)
    assert len(recorder.spans) == count


def test_self_time_is_duration_minus_children():
    table = spans.summarize([
        spans.Span(2, 1, 1, "l", "child", 1.0, 3.0),
        spans.Span(3, 1, 1, "l", "child", 4.0, 5.0),
        spans.Span(1, 0, 1, "l", "parent", 0.0, 10.0),
    ])
    assert table["parent"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert table["child"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_every_declared_entry_point_resolves_and_is_restored():
    originals = {name: spans.resolve(dotted) for name, (_, dotted) in spans.ENTRY_POINTS.items()}
    assert all(found is not None for found in originals.values()), originals
    recorder = spans.SpanRecorder()
    with recorder:
        pass
    assert recorder.unresolved == []
    for name, (_, dotted) in spans.ENTRY_POINTS.items():
        assert spans.resolve(dotted)[2] is originals[name][2]
