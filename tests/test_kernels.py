import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_games import kernels

SBM_Q = [[0.8, 0.1], [0.1, 0.8]]
SBM_W = [0.75, 0.25]


def all_specs():
    return [
        kernels.erdos_renyi(0.5),
        kernels.sbm(SBM_Q, SBM_W),
        kernels.minmax(),
        kernels.grid_kernel([[0.0, 1.0], [1.0, 0.0]]),
    ]


# --- evaluation -------------------------------------------------------------

def test_minmax_center():
    assert kernels.evaluate(kernels.minmax(), 0.5, 0.5) == pytest.approx(0.25, abs=0)


def test_minmax_zero_edge():
    spec = kernels.minmax()
    for y in (0.0, 0.3, 1.0):
        assert kernels.evaluate(spec, 0.0, y) == 0.0


def test_sbm_same_community():
    spec = kernels.sbm(SBM_Q, SBM_W)
    assert kernels.evaluate(spec, 0.1, 0.5) == 0.8
    assert kernels.evaluate(spec, 0.1, 0.9) == 0.1
    assert kernels.evaluate(spec, 0.8, 0.9) == 0.8


def test_sbm_boundary_convention():
    # Cells are right-open, so 0.75 falls in the second community; 1.0 in the last.
    spec = kernels.sbm(SBM_Q, SBM_W)
    assert kernels.evaluate(spec, 0.75, 0.9) == 0.8
    assert kernels.evaluate(spec, 0.75, 0.5) == 0.1
    assert kernels.evaluate(spec, 1.0, 0.8) == 0.8


def test_er_constant():
    spec = kernels.erdos_renyi(0.3)
    xs = np.linspace(0, 1, 7)
    assert np.all(kernels.evaluate(spec, xs[:, None], xs[None, :]) == 0.3)


def test_out_of_range_coordinate():
    with pytest.raises(ValueError):
        kernels.evaluate(kernels.minmax(), -0.1, 0.5)
    with pytest.raises(ValueError):
        kernels.evaluate(kernels.minmax(), 0.5, 1.1)


@given(x=st.floats(0, 1), y=st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_symmetry_and_range(x, y):
    for spec in all_specs():
        vxy = kernels.evaluate(spec, x, y)
        vyx = kernels.evaluate(spec, y, x)
        assert vxy == vyx
        assert 0.0 <= vxy <= 1.0


def test_minmax_lipschitz_on_grid():
    spec = kernels.minmax()
    g = np.linspace(0, 1, 21)
    vals = kernels.evaluate(spec, g[:, None], g[None, :])
    for i, x in enumerate(g):
        for j, y in enumerate(g):
            for k, xp in enumerate(g):
                diff = abs(vals[i, j] - vals[k, j])
                assert diff <= 2.0 * (abs(x - xp)) + 1e-12
    # mixed moves on a coarser grid
    c = np.linspace(0, 1, 6)
    for x in c:
        for y in c:
            for xp in c:
                for yp in c:
                    d = abs(kernels.evaluate(spec, x, y) - kernels.evaluate(spec, xp, yp))
                    assert d <= 2.0 * (abs(x - xp) + abs(y - yp)) + 1e-12


def test_sbm_piecewise_constant():
    spec = kernels.sbm(SBM_Q, SBM_W)
    inner1 = np.linspace(0.01, 0.74, 9)
    vals = kernels.evaluate(spec, inner1[:, None], inner1[None, :])
    assert np.all(vals == 0.8)
    inner2 = np.linspace(0.76, 1.0, 9)
    cross = kernels.evaluate(spec, inner1[:, None], inner2[None, :])
    assert np.all(cross == 0.1)


# --- step graphon from a matrix ---------------------------------------------

def test_step_graphon_block_lookup():
    spec = kernels.step_graphon_from_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert kernels.evaluate(spec, 0.1, 0.9) == 1.0
    assert kernels.evaluate(spec, 0.1, 0.2) == 0.0


def test_step_graphon_zero_and_constant():
    zero = kernels.step_graphon_from_matrix(np.zeros((3, 3)))
    const = kernels.step_graphon_from_matrix(np.full((3, 3), 0.4))
    xs = np.linspace(0, 1, 11)
    assert np.all(kernels.evaluate(zero, xs[:, None], xs[None, :]) == 0.0)
    assert np.all(kernels.evaluate(const, xs[:, None], xs[None, :]) == 0.4)


def test_step_graphon_rejects_bad_matrices():
    with pytest.raises(ValueError):
        kernels.step_graphon_from_matrix([[0.0, 0.5], [0.4, 0.0]])
    with pytest.raises(ValueError):
        kernels.step_graphon_from_matrix([[0.0, 1.5], [1.5, 0.0]])


# --- specs keep their own arrays ----------------------------------------------

def test_grid_kernel_ignores_later_changes_to_its_input():
    V = np.full((3, 3), 0.5)
    spec = kernels.grid_kernel(V)
    V[0, 0] = 7.0
    assert kernels.evaluate(spec, 0.1, 0.1) == 0.5


def test_sbm_ignores_later_changes_to_its_inputs():
    Q = np.array(SBM_Q)
    w = np.array(SBM_W)
    spec = kernels.sbm(Q, w)
    Q[0, 0] = 7.0
    w[:] = [0.25, 0.75]
    assert kernels.evaluate(spec, 0.1, 0.1) == 0.8
    assert kernels.evaluate(spec, 0.5, 0.1) == 0.8


@pytest.mark.parametrize("spec,field", [
    (kernels.grid_kernel(np.full((3, 3), 0.5)), "values"),
    (kernels.sbm(SBM_Q, SBM_W), "Q"),
    (kernels.sbm(SBM_Q, SBM_W), "w"),
])
def test_spec_arrays_are_read_only(spec, field):
    with pytest.raises(ValueError):
        getattr(spec, field)[0] = 0.0


@pytest.mark.parametrize("spec,field", [
    (kernels.grid_kernel(np.full((3, 3), 0.5)), "values"),
    (kernels.sbm(SBM_Q, SBM_W), "Q"),
    (kernels.sbm(SBM_Q, SBM_W), "w"),
])
def test_spec_arrays_stay_read_only_through_pickle(spec, field):
    # An unpickled spec is as immutable as the original: caches keyed on a
    # spec's identity rely on its arrays staying fixed.
    copy = pickle.loads(pickle.dumps(spec))
    assert np.array_equal(getattr(copy, field), getattr(spec, field))
    with pytest.raises(ValueError):
        getattr(copy, field)[0] = 0.0


ALL_KINDS = {"er": kernels.erdos_renyi(0.3), "sbm": kernels.sbm(SBM_Q, SBM_W),
             "minmax": kernels.minmax(), "grid": kernels.grid_kernel([[0.2, 0.6], [0.6, 0.9]])}


@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_an_unpickled_spec_reads_the_kernel_bit_for_bit(kind):
    spec = ALL_KINDS[kind]
    copy = pickle.loads(pickle.dumps(spec))
    x = np.random.default_rng(0).random((40, 1))
    assert repr(copy) == repr(spec)
    assert np.array_equal(kernels.evaluate(copy, x, x.T), kernels.evaluate(spec, x, x.T))
    assert kernels.lipschitz_metadata(copy) == kernels.lipschitz_metadata(spec)


def test_an_unknown_kind_is_rejected_where_the_spec_is_built():
    with pytest.raises(ValueError, match="unknown graphon kind 'foo'"):
        kernels.GraphonSpec("foo")


@pytest.mark.parametrize("kind,fields,missing", [
    ("sbm", {}, "Q, w"), ("sbm", {"Q": np.eye(2)}, "w"), ("grid", {}, "values"), ("er", {}, "p")])
def test_a_kind_without_its_fields_is_rejected_naming_them(kind, fields, missing):
    with pytest.raises(ValueError, match=f"graphon kind '{kind}' requires {missing}$"):
        kernels.GraphonSpec(kind, **fields)


# --- metadata ---------------------------------------------------------------

@pytest.mark.parametrize("spec,expected", [
    (kernels.minmax(), (2.0, 0)),
    (kernels.sbm(SBM_Q, SBM_W), (0.0, 1)),
    (kernels.erdos_renyi(0.7), (0.0, 0)),
    (kernels.grid_kernel(np.zeros((5, 5))), (0.0, 4)),
])
def test_lipschitz_metadata(spec, expected):
    assert kernels.lipschitz_metadata(spec) == expected


# --- validation -------------------------------------------------------------

def test_sbm_invariants_enforced():
    with pytest.raises(ValueError):
        kernels.sbm([[0.8, 0.2], [0.1, 0.8]], SBM_W)  # asymmetric
    with pytest.raises(ValueError):
        kernels.sbm(SBM_Q, [0.75, 0.35])  # masses do not sum to 1
    with pytest.raises(ValueError):
        kernels.sbm(SBM_Q, [1.0, 0.0])  # zero mass
    with pytest.raises(ValueError):
        kernels.sbm([[1.2, 0.1], [0.1, 0.8]], SBM_W)  # out of range


@pytest.mark.parametrize("w", [[1.0], [0.5, 0.25, 0.25], [[0.75, 0.25]]])
def test_sbm_rejects_masses_that_do_not_match_the_blocks(w):
    with pytest.raises(ValueError, match="w must be a vector matching the block count"):
        kernels.sbm(SBM_Q, w)


@pytest.mark.parametrize("spec, text", [
    (kernels.minmax(), "GraphonSpec(minmax)"),
    (kernels.erdos_renyi(0.3), "GraphonSpec(er, p=0.3)"),
    (kernels.sbm(SBM_Q, SBM_W), "GraphonSpec(sbm, K=2)"),
    (kernels.grid_kernel(np.full((3, 3), 0.5)), "GraphonSpec(grid, K=3)"),
], ids=["minmax", "er", "sbm", "grid"])
def test_graphon_spec_repr_names_its_kind(spec, text):
    assert repr(spec) == text


@pytest.mark.parametrize("w", [[math.nan, math.nan], [math.nan, 0.5], [math.inf, 0.5]])
def test_sbm_rejects_nan_or_infinite_masses(w):
    # NaN fails both the positivity and the unit-sum comparison, so it must
    # be caught on its own.
    with pytest.raises(ValueError, match="finite and positive"):
        kernels.sbm(SBM_Q, w)


def test_grid_kernel_rejects_zero_cells():
    with pytest.raises(ValueError, match="nonempty square matrix"):
        kernels.grid_kernel(np.zeros((0, 0)))


def test_er_probability_range():
    with pytest.raises(ValueError):
        kernels.erdos_renyi(1.5)


# --- serialization ----------------------------------------------------------

@pytest.mark.parametrize("spec", all_specs())
def test_json_round_trip(spec):
    doc = json.loads(json.dumps(kernels.to_json(spec)))
    back = kernels.from_json(doc)
    xs = np.linspace(0, 1, 13)
    orig = kernels.evaluate(spec, xs[:, None], xs[None, :])
    again = kernels.evaluate(back, xs[:, None], xs[None, :])
    assert np.array_equal(np.asarray(orig), np.asarray(again))


@pytest.mark.parametrize("x,y", [(np.nan, 0.5), (0.5, np.nan),
                                 (np.array([0.1, np.nan]), np.array([0.2, 0.3]))])
def test_evaluate_rejects_nan_coordinates(x, y):
    with pytest.raises(ValueError):
        kernels.evaluate(kernels.minmax(), x, y)


@pytest.mark.parametrize("doc", [{"kind": "er"}, {"kind": "sbm", "Q": SBM_Q},
                                 {"kind": "minmax", "p": 0.5},
                                 {"kind": "er", "p": 0.5, "w": [1.0]}, {"kind": "star"}, {},
                                 {"kind": ["er"]}, ["er", 0.5]])
def test_from_json_rejects_missing_or_extra_fields(doc):
    with pytest.raises(ValueError):
        kernels.from_json(doc)
