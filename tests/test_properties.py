"""Derandomized hypothesis properties of the surrogate, the exact minimizer,
the MM step, the accelerated run and the sequence-file reader."""

import contextlib
import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import unipol.quartic as quartic
from unipol.cli import main
from unipol.io import SequenceFileError, read_sequence_file
from unipol.metrics import UnimodularSequence, isl_time
from unipol.quartic import minimize_batch
from unipol.solver import SolverConfig, run, unipol_step
from unipol.surrogate import ab_all_direct, ab_all_fast

from test_quartic import _TIE_GAP, anchor, theta_of

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
    theta = theta_of(np.array([a]), np.array([b]))[0]
    assert 0.0 <= theta < 2 * np.pi
    scale = abs(a) + abs(b)
    excess = objective(a, b, theta) - objective(a, b, GRID).min()
    assert excess <= _TIE_GAP * min(1.0, scale) + 1e-13 * scale


@st.composite
def triple_point_rows(draw):
    """a = r e^{2j gamma}, b = -4r e^{j gamma}: the minimum at theta = pi - gamma
    is a triple stationary point."""
    r, gamma = draw(magnitude), draw(phase)
    return complex(r * np.exp(2j * gamma)), complex(-4.0 * r * np.exp(1j * gamma))


@PROPERTY
@given(subproblem_rows() | triple_point_rows())
def test_anchor_keeps_the_leading_coefficient(row):
    # the quartic oracle's anchor: theta = pi is never stationary after it
    a, b = (np.array([v]) for v in row)
    _, coeffs = anchor(a, b)
    assert abs(coeffs[0, 0]) >= np.max(np.abs(coeffs)) / 9


@PROPERTY
@given(subproblem_rows() | triple_point_rows())
def test_secular_root_solves_its_equation(row):
    # s rose from the left end of its bracket to the root, or is the hard case,
    # where that left end max(q, p - t) is 0 or subnormal
    a, b = (np.array([v]) for v in row)
    with mock.patch.object(quartic, "_real_roots_batch", wraps=quartic._real_roots_batch) as roots:
        minimize_batch(a, b)
    p, q, t = roots.call_args.args
    s = quartic._real_roots_batch(p, q, t)
    if s[0] == 0.0:
        assert max(q[0], p[0] - t[0]) < np.finfo(float).tiny
    else:
        assert s[0] >= max(q[0], p[0] - t[0])
        assert abs((p[0] / (s[0] + t[0])) ** 2 + (q[0] / s[0]) ** 2 - 1.0) <= 1e-14


@PROPERTY
@given(st.lists(phase, min_size=2, max_size=64))
def test_unipol_step_never_raises_isl(phases):
    x = UnimodularSequence.from_phases(np.array(phases))
    before, after = isl_time(x), isl_time(unipol_step(x))
    # criterion 3's slack
    assert after <= before * (1 + 1e-9) + 1e-9


@PROPERTY
@given(st.lists(phase, min_size=1, max_size=64))
def test_ab_all_fast_matches_direct_oracle(phases):
    x = np.exp(1j * np.array(phases))
    af, bf = ab_all_fast(x)
    ad, bd = ab_all_direct(x)
    # criterion 5's bound
    assert np.all(np.abs(af - ad) <= 1e-8 * np.maximum(1.0, np.abs(ad)))
    assert np.all(np.abs(bf - bd) <= 1e-8 * np.maximum(1.0, np.abs(bd)))


HOSTILE_CELLS = ["", "nan", "NaN", "inf", "-inf", "1e999", "-1e999", "1e-400",
                 "0x1p-3", "1_0", "\uff11", "\uff10.\uff15", " ", "--1"]


@st.composite
def sequence_files(draw):
    """Text of a sequence table: valid rows with some cells swapped for hostile
    ones, under a plain or BOM-prefixed header, joined by LF, CRLF or CR."""
    rows = []
    for i, theta in enumerate(draw(st.lists(phase, min_size=1, max_size=4))):
        cells = [str(i), repr(theta), repr(math.cos(theta)), repr(math.sin(theta))]
        for col in draw(st.sets(st.integers(0, 3), max_size=2)):
            cells[col] = draw(st.sampled_from(HOSTILE_CELLS) | st.text(max_size=8))
        rows.append(",".join(cells))
    header = draw(st.sampled_from(["index,phase,re,im", "\ufeffindex,phase,re,im"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header] + rows) + newline


@PROPERTY
@given(text=sequence_files())
def test_hostile_sequence_files_fail_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "hostile.seq.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        assert isinstance(read_sequence_file(path), UnimodularSequence)
    except SequenceFileError:
        pass
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["metrics", str(path)]) in (0, 1)


@PROPERTY
@given(n=st.integers(2, 64), seed=st.integers(0, 2**64 - 1), budget=st.integers(1, 40))
def test_accelerated_run_descends_on_the_unit_circle(n, seed, budget):
    trace = run(SolverConfig(n=n, max_iterations=budget, seed=seed))
    isl = trace.isl_per_iteration
    assert isl.shape == (budget + 1,)
    # criterion 3's slack
    assert np.all(isl[1:] <= isl[:-1] * (1 + 1e-9) + 1e-9)
    assert np.max(np.abs(np.abs(trace.final_sequence.values) - 1.0)) <= 1e-12
