"""Array footprints: the interval box of each access's image.

The iteration domain is a box and the indices are affine, so interval
arithmetic bounds each image dim exactly.  The box must equal the one a
brute-force enumeration of the domain gives, for every access of every
registry workload and dataflow stage.
"""

import itertools

import pytest

from repro import workloads
from repro.depgraph.footprint import access_footprint
from repro.workloads import dnn


def _enumerated_box(compute, access):
    names = compute.iter_names
    ranges = [range(it.lo, it.hi) for it in compute.iters]
    indices = access.affine_indices()
    seen = [[] for _ in indices]
    for point in itertools.product(*ranges):
        values = dict(zip(names, point))
        for dim, index in enumerate(indices):
            seen[dim].append(index.evaluate(values))
    return tuple((min(values), max(values)) for values in seen)


def _functions():
    """Every registry entry at size 8, the DNNs at size 2 with 5% of their
    channels (their index forms, at a point count enumeration affords)."""
    for name in workloads.names(kind="function"):
        if name in ("vgg16", "resnet18"):
            function = getattr(dnn, name)(2, channel_scale=0.05)
        else:
            function = workloads.get(name, 8)
        yield pytest.param(function, id=name)
    for design in workloads.names(kind="dataflow"):
        for stage, node in workloads.get(design, 8).stages.items():
            yield pytest.param(node.function, id=f"{design}.{stage}")


@pytest.mark.parametrize("function", list(_functions()))
def test_interval_box_equals_enumeration(function):
    for compute in function.computes:
        for access in compute.loads() + [compute.store()]:
            assert access_footprint(compute, access).box == _enumerated_box(compute, access), (
                compute.name, access,
            )


class TestFootprint:
    def test_tile_footprint_much_smaller_than_array(self):
        from repro.dsl import Function, compute, placeholder, var
        from repro.depgraph.footprint import access_footprint

        with Function("tile") as f:
            i = var("i", 0, 8)
            j = var("j", 0, 8)
            A = placeholder("A", (1024, 1024))
            s = compute("s", [i, j], A(i + 100, j + 200) * 2.0, A(i + 100, j + 200))
        fp = access_footprint(s, s.store())
        # i, j range over [0, 8) -> offsets reach 107/207 inclusive
        assert fp.box == ((100, 107), (200, 207))

    def test_strided_footprint_box(self):
        from repro.dsl import Function, compute, placeholder, var
        from repro.depgraph.footprint import access_footprint

        with Function("stride") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (32,))
            B = placeholder("B", (8,))
            s = compute("s", [i], A(i * 4) + 1.0, B(i))
        fp = access_footprint(s, s.loads()[0])
        assert fp.box == ((0, 28),)  # i in [0, 8) -> 4i in [0, 28]
