"""Hypothesis strategies that push a parameter to an edge of its domain.

The edge suites draw each parameter from these, so that one of them sits
within 1e-12 of an edge while the others range over the whole domain.
The ``_or_at`` forms reach the edge itself as well.
"""

from hypothesis import strategies as st


def _unit(near):
    """Any value in [0, 1], often ``near`` either end, so that edges combine."""
    return st.one_of(st.floats(0.0, 1.0), near, near.map(lambda d: 1.0 - d))


# A distance to an edge: within 1e-12 of it (subnormals included), or
# log-uniform from 1e-30 to 1e-1; never 0.
near = st.one_of(
    st.floats(0.0, 1e-12, exclude_min=True),
    st.floats(-30.0, -1.0).map(lambda e: 10.0**e),
)
# The same, with 0 included.
near_or_at = st.one_of(
    st.floats(0.0, 1e-12),
    st.floats(-30.0, -1.0).map(lambda e: 10.0**e),
)
unit = _unit(near)
unit_or_at = _unit(near_or_at)
# An initial overlap anywhere in (0, 1), often next to either end.
overlap = unit.filter(lambda s: 0.0 < s < 1.0)
# Sample counts of a sweep: its two smallest, and two common ones.
samples = st.sampled_from([2, 3, 24, 512])
