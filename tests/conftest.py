"""Shared game builders and reference formulas for the test suite."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from ordnash.model import (
    ContourRow,
    GameSpec,
    HalfspaceContour,
    PlayerSpec,
    SharedLinear,
    UtilityPreference,
    _dot,
)

UNIT_BOX = ((-1.0, 1.0),)
UNIT_INTERVAL = ((0.0, 1.0),)


def pytest_report_header(config):
    """Name the kernel that numpy's bundled OpenBLAS picked for this CPU (or
    that ``OPENBLAS_CORETYPE`` chose): the reductions route around BLAS so
    that no pinned bit depends on it, and a failing log then says which
    kernel ran."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    name = "unknown"
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        name = corename().decode()
        break
    return f"OpenBLAS kernel: {name}"


def ref_dot(u, v):
    """The sum of ``u[k] * v[k]`` over Python floats, left to right from the
    first product, and +0.0 when empty: the reference for ``model._dot``."""
    pairs = [(float(a), float(b)) for a, b in zip(u, v, strict=True)]
    if not pairs:
        return 0.0
    total = pairs[0][0] * pairs[0][1]
    for a, b in pairs[1:]:
        total += a * b
    return total


def formula_contains(region, points, tol=1e-9):
    """``FeasibleRegion.contains_many`` written out: shifted box, then rows,
    whose products are ``model._dot``'s index-order sums (``TestDot`` checks
    those against :func:`ref_dot`)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if region.forced_empty:
        return np.zeros(pts.shape[0], dtype=bool)
    mask = np.all((pts >= region.lo - tol) & (pts <= region.hi + tol), axis=1)
    if region.normals.size:
        slack = _dot(pts[:, None, :], region.normals) - region.offsets
        mask &= np.all(slack <= tol * np.maximum(1.0, np.abs(region.offsets)), axis=1)
    return mask


def formula_linear_min(region, c):
    """``FeasibleRegion.linear_min`` written out, vertices rebuilt on every call."""
    lo, hi, normals, offsets = region.lo, region.hi, region.normals, region.offsets
    if region.forced_empty or np.any(lo > hi):
        return None
    if normals.shape[0] == 0:
        return np.where(c > 0, lo, hi)
    dim = lo.size
    if dim <= 3 and normals.shape[0] <= 4:
        a_all = np.vstack([np.eye(dim), -np.eye(dim), normals])
        b_all = np.concatenate([hi, -lo, offsets])
        bases = np.array(list(itertools.combinations(range(a_all.shape[0]), dim)))
        a_sq = a_all[bases]
        regular = np.abs(np.linalg.det(a_sq)) >= 1e-12
        points = np.linalg.solve(a_sq[regular], b_all[bases[regular]][..., None])[..., 0]
        vertices = points[formula_contains(region, points)]
        if vertices.shape[0]:
            return vertices[int(np.argmin(_dot(vertices, c)))]
    result = linprog(
        c=c, A_ub=normals, b_ub=offsets, bounds=list(zip(lo, hi)), method="highs"
    )
    return result.x if result.status == 0 else None


def make_pull_to_half_rival():
    """Two scalar players, each pulled toward half the rival's value.

    Unique equilibrium at the origin; best responses are x1 = 0.5*x2 and
    x2 = 0.5*x1.
    """
    return GameSpec(
        players=(
            PlayerSpec(1, UNIT_BOX, UtilityPreference("-(x1-0.5*x2)^2")),
            PlayerSpec(1, UNIT_BOX, UtilityPreference("-(x2-0.5*x1)^2")),
        )
    )


def make_halfspace_orthant():
    """Scalar two-player game whose contour sets are open rays above the rival."""
    rows = (ContourRow(coeffs=("-1",), offset="-x2"),)
    rows_other = (ContourRow(coeffs=("-1",), offset="-x1"),)
    return GameSpec(
        players=(
            PlayerSpec(1, UNIT_BOX, HalfspaceContour(rows)),
            PlayerSpec(1, UNIT_BOX, HalfspaceContour(rows_other)),
        )
    )


def make_budget_pair():
    """Two scalar players sharing the budget row x1 + x2 <= 1 on [0, 1]^2."""
    return GameSpec(
        players=(
            PlayerSpec(1, ((0.0, 1.0),), UtilityPreference("-(x1-0.9)^2")),
            PlayerSpec(1, ((0.0, 1.0),), UtilityPreference("-(x2-0.8)^2")),
        ),
        constraints=SharedLinear(a=((1.0, 1.0),), b=(1.0,)),
    )


def shared_three_player_game():
    """Three players under two shared rows; player 0 holds two coordinates and
    player 2 has a rival-dependent HalfspaceContour ("more is better")."""
    return GameSpec(
        players=(
            PlayerSpec(
                2, UNIT_INTERVAL * 2, UtilityPreference("-(x1-0.8)^2-(x2-0.3*x4-0.6)^2")
            ),
            PlayerSpec(1, UNIT_INTERVAL, UtilityPreference("-(x3-0.9+0.2*x1)^2")),
            PlayerSpec(
                1,
                UNIT_INTERVAL,
                HalfspaceContour((ContourRow(("-(1+0.5*x1)",), "-(1+0.5*x1)*x4"),)),
            ),
        ),
        constraints=SharedLinear(
            a=((1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0)), b=(1.8, 0.9)
        ),
    )


@pytest.fixture
def pull_game():
    return make_pull_to_half_rival()


@pytest.fixture
def budget_game():
    return make_budget_pair()
