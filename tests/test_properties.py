"""Derandomized hypothesis properties of the exact minimizer and the MM step."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from unipol.metrics import UnimodularSequence, isl_time
from unipol.quartic import _TIE_GAP, minimize_batch
from unipol.solver import unipol_step

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)

GRID = np.linspace(0.0, 2 * np.pi, 200_001)[:-1]

phase = st.floats(0.0, 2 * np.pi, exclude_max=True)
magnitude = st.floats(-9.0, 6.0).map(lambda e: 10.0**e)


def objective(a, b, theta):
    return (a * np.exp(2j * theta) - b * np.exp(1j * theta)).real


@st.composite
def subproblem_rows(draw):
    """(a, b) with |a| and |b| log-uniform in 10^[-9, 6] and random phases:
    generic rows, and rows whose stationarity quartic drops to degree 2 or 1."""
    kind = draw(st.sampled_from(["generic", "degree_two", "degree_one"]))
    a = draw(magnitude) * np.exp(1j * draw(phase))
    if kind == "generic":
        b = draw(magnitude) * np.exp(1j * draw(phase))
    elif kind == "degree_two":
        b = -4.0 * a.real - 2j * a.imag  # p4 = p3 = 0
    else:
        a = complex(a.real)
        b = -4.0 * a  # only p1 survives
    return complex(a), complex(b)


@PROPERTY
@given(subproblem_rows())
def test_minimize_batch_against_dense_grid(row):
    a, b = row
    theta = minimize_batch(np.array([a]), np.array([b]))[0]
    assert 0.0 <= theta < 2 * np.pi
    scale = abs(a) + abs(b)
    excess = objective(a, b, theta) - objective(a, b, GRID).min()
    assert excess <= _TIE_GAP * min(1.0, scale) + 1e-13 * scale


@PROPERTY
@given(st.lists(phase, min_size=2, max_size=64))
def test_unipol_step_never_raises_isl(phases):
    x = UnimodularSequence.from_phases(np.array(phases))
    before, after = isl_time(x), isl_time(unipol_step(x))
    # criterion 3's slack
    assert after <= before * (1 + 1e-9) + 1e-9
