"""Seeded property test of the box count by runs against the set oracle.

Kept apart from test_boxcount.py so that a missing hypothesis fails this module
alone and leaves the other box-count tests running.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberdim import boxcount
from oracles import set_occupancy


@st.composite
def _edge_clouds(draw):
    """(points, run split gap, scales, grids per scale): the gap is a quarter of a
    scale, as in box_dimension, and also a scale itself; the points sit on box
    edges, on multiples of the gap, at signed zeros and on duplicates, with one
    optional run whose Im rises and falls: a vertical segment when its Re step is 0."""
    small = draw(st.sampled_from([1.0, 1.0 / 3.0, 0.1, 1e-3]))
    gap = small / 4.0
    scales = [100.0 * small, 10.0 * small, small, gap]
    unit = st.floats(0.0, 1.0, exclude_max=True)
    grids = [[(draw(st.sampled_from([0.0, eps * draw(unit)])),
               draw(st.sampled_from([0.0, eps * draw(unit)]))) for _ in range(4)]
             for eps in scales]
    edges = [o + k * eps for eps, g in zip(scales, grids) for o in g[0] for k in (-2, -1, 0, 1)]
    pool = edges + [j * gap for j in range(-6, 7)] + [-0.0, 0.0]
    value = st.one_of(st.sampled_from(pool), st.floats(-1.0, 1.0))
    points = draw(st.lists(st.tuples(value, value), min_size=1, max_size=40))
    points += draw(st.lists(st.sampled_from(points), max_size=10))  # duplicates
    if draw(st.booleans()):  # a tent: its Im extremes are not at its ends
        x, y, dx = draw(value), draw(value), draw(st.sampled_from([0.0, gap / 2, gap]))
        size = draw(st.integers(2, 30))
        points += [(x + m * dx, y + min(m, size - m) * gap) for m in range(size)]
    return [complex(x, y) for x, y in points], gap, scales, grids


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_edge_clouds())
@example(([complex(0.3, -0.7)], 0.25, [100.0, 10.0, 1.0, 0.25], [[(0.0, 0.0)] * 4] * 4))
@example(([complex(-0.0, 0.25 * m) for m in range(-9, 9)], 0.25, [100.0, 10.0, 1.0, 0.25],
          [[(0.0, 0.0), (-0.0, 0.5), (0.5, 0.0), (0.7, 0.7)]] * 4))
def test_grid_counts_equal_the_set_oracle(case):
    points, gap, scales, grids = case
    raw = np.array(points, dtype=np.complex128)
    pts = boxcount._distinct(raw)
    runs = boxcount._runs(pts, gap)
    for eps, offsets in zip(scales, grids):
        want = [set_occupancy(raw, eps, offset) for offset in offsets]
        assert boxcount._grid_counts(pts, runs, eps, offsets).tolist() == want
