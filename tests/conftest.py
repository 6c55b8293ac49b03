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
)

UNIT_BOX = ((-1.0, 1.0),)


def formula_contains(region, points, tol=1e-9):
    """``FeasibleRegion.contains_many`` written out: shifted box, then rows."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if region.forced_empty:
        return np.zeros(pts.shape[0], dtype=bool)
    mask = np.all((pts >= region.lo - tol) & (pts <= region.hi + tol), axis=1)
    if region.normals.size:
        slack = pts @ region.normals.T - region.offsets
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
            return vertices[int(np.argmin(vertices @ c))]
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


@pytest.fixture
def pull_game():
    return make_pull_to_half_rival()


@pytest.fixture
def budget_game():
    return make_budget_pair()
