"""Bundled example games and seeded random instance families.

The fixed examples exercise each preference variant and the known edge
cases (trivial preferences, the lower-hemicontinuity remark).  The random
families generate well-conditioned instances for the statistical test
drivers: concave quadratic games with a spectral bound on the coupling,
scalar strictly monotone games, and a small shared-budget economy.
"""

from __future__ import annotations

import numpy as np

from .model import (
    BoxOnly,
    CoordinateOrder,
    GameSpec,
    PlayerSpec,
    SharedLinear,
    ThresholdBand,
    TrivialZero,
    UtilityPreference,
    _dot,
)

__all__ = [
    "example_trivial_pref",
    "example_coordinate_pref",
    "example_lhc_remark",
    "random_concave_quadratic",
    "quadratic_equilibrium",
    "monotone_concave_instance",
    "arrow_debreu_instance",
    "EXAMPLES",
]

_MAX_PLAYERS = 3
_MAX_DIMS = 2
# random_concave_quadratic: bliss points are drawn from [-this, this].
_TARGET_SCALE = 0.9
# quadratic_equilibrium: best-response iterations, and the move that ends them.
_BR_ITERS = 100_000
_BR_TOL = 1e-14


def example_trivial_pref() -> GameSpec:
    """Two players on [-1, 1] who never strictly prefer anything.

    Every feasible profile is an equilibrium, yet no profile solves the
    variational inequality with a nonzero operator value: the strict upper
    contour sets are empty everywhere, so no separating direction exists.
    """
    players = (
        PlayerSpec(dim=1, box=((-1.0, 1.0),), preference=TrivialZero()),
        PlayerSpec(dim=1, box=((-1.0, 1.0),), preference=TrivialZero()),
    )
    return GameSpec(players=players, constraints=BoxOnly())


def example_coordinate_pref() -> GameSpec:
    """Two players on [-1, 1] with componentwise-order preferences.

    Each player strictly prefers any strictly larger own value, so the unique
    equilibrium sits at the top corner (1, 1) and the normal directions of
    the upper contour sets are constant (-1, -1) on the open box.
    """
    players = (
        PlayerSpec(dim=1, box=((-1.0, 1.0),), preference=CoordinateOrder()),
        PlayerSpec(dim=1, box=((-1.0, 1.0),), preference=CoordinateOrder()),
    )
    return GameSpec(players=players, constraints=BoxOnly())


def example_lhc_remark():
    """The boundary-sensitive interval maps plus a two-player band game.

    Returns ``(lhc_map, non_lhc_map, game)``.  Both maps send a scalar x to
    an interval (or None for empty).  The first is empty exactly on x >= 0
    and lower hemicontinuous; the second keeps a nonempty value at the
    boundary x = 0 and loses lower hemicontinuity there.  The game pairs two
    scalar threshold-band players on [-1, 1]; the first player's strict upper
    contour set is exactly the first map evaluated at the own coordinate.
    """

    def lhc_map(x: float):
        return (0.0, np.inf) if x < 0.0 else None

    def non_lhc_map(x: float):
        return (0.0, np.inf) if x <= 0.0 else None

    players = (
        PlayerSpec(dim=1, box=((-1.0, 1.0),), preference=ThresholdBand()),
        PlayerSpec(dim=1, box=((-1.0, 1.0),), preference=ThresholdBand()),
    )
    game = GameSpec(players=players, constraints=BoxOnly())
    return lhc_map, non_lhc_map, game


def _float_expr(value: float) -> str:
    return repr(float(value))


def _check_family_bounds(players: int, dims: int) -> None:
    if not 1 <= players <= _MAX_PLAYERS:
        raise ValueError(f"players must be in [1, {_MAX_PLAYERS}], got {players}")
    if not 1 <= dims <= _MAX_DIMS:
        raise ValueError(f"dims must be in [1, {_MAX_DIMS}], got {dims}")


def _quadratic_params(
    rng: np.random.Generator,
    players: int,
    dims: int,
    max_coupling: float,
    nonnegative_coupling: bool,
):
    """Seeded bliss points and per-player coupling blocks, spectral-capped.

    Returns ``(targets, weights)`` where ``weights`` is the stacked coupling
    matrix with zero own-player blocks and every per-player block scaled to
    spectral norm at most ``max_coupling``.
    """
    total = players * dims
    targets = rng.uniform(-_TARGET_SCALE, _TARGET_SCALE, size=total)
    weights = np.zeros((total, total))
    low = 0.0 if nonnegative_coupling else -1.0
    for player in range(players):
        own = slice(player * dims, (player + 1) * dims)
        rival_cols = [j for j in range(total) if not own.start <= j < own.stop]
        raw = rng.uniform(low, 1.0, size=(dims, len(rival_cols)))
        strength = max_coupling * rng.uniform(0.3, 1.0)
        # The spectral norm of the one or two rows u (and v) of raw: the root
        # of the largest eigenvalue (p + r + sqrt((p - r)^2 + 4 q^2)) / 2 of
        # the Gram matrix [[p, q], [q, r]] (q = 0 and r = p for one row), by
        # index-order sums, so the bits do not depend on the LAPACK build.
        p, r = _dot(raw[0], raw[0]), _dot(raw[-1], raw[-1])
        q = _dot(raw[0], raw[1]) if dims == 2 else 0.0
        norm = np.sqrt((p + r + np.sqrt((p - r) * (p - r) + 4.0 * q * q)) / 2.0)
        if norm > 0:
            raw = raw * (strength / norm)
        weights[own, rival_cols] = raw
    return targets, weights


def random_concave_quadratic(
    seed: int,
    players: int = 2,
    dims: int = 1,
    *,
    max_coupling: float = 0.5,
    nonnegative_coupling: bool = False,
) -> GameSpec:
    """Seeded strictly concave quadratic game on [-1, 1] per coordinate.

    Player nu maximizes -||x_own - M x_rivals - c||^2 where the coupling
    block M is seeded with spectral norm at most ``max_coupling`` and the
    bliss point c is seeded within ``_TARGET_SCALE``.  The clamped
    best-response map is a contraction, so the equilibrium is unique and
    :func:`quadratic_equilibrium` computes it with the same parameters.
    """
    _check_family_bounds(players, dims)
    rng = np.random.default_rng(seed)
    targets, weights = _quadratic_params(
        rng, players, dims, max_coupling, nonnegative_coupling
    )
    total = players * dims

    specs = []
    for player in range(players):
        terms = []
        for i in range(player * dims, (player + 1) * dims):
            inner = [f"x{i + 1}", f"-{_float_expr(targets[i])}"]
            for j in range(total):
                w = weights[i, j]
                if w == 0.0:
                    continue
                inner.append(f"-{_float_expr(w)}*x{j + 1}")
            shifted = "(" + "+".join(inner).replace("+-", "-") + ")"
            terms.append(f"-{shifted}^2")
        expr = "+".join(terms).replace("+-", "-")
        specs.append(
            PlayerSpec(
                dim=dims,
                box=tuple((-1.0, 1.0) for _ in range(dims)),
                preference=UtilityPreference(expr),
            )
        )
    return GameSpec(players=tuple(specs), constraints=BoxOnly())


def quadratic_equilibrium(
    seed: int,
    players: int = 2,
    dims: int = 1,
    *,
    max_coupling: float = 0.5,
    nonnegative_coupling: bool = False,
) -> np.ndarray:
    """Unique equilibrium of the matching quadratic game, to high precision.

    Iterates the clamped best-response map x <- clip(c + W x, -1, 1) from the
    origin, at most ``_BR_ITERS`` times, until no coordinate moves by more than
    ``_BR_TOL``; the spectral cap makes this a contraction.  Uses the same
    generator consumption order as :func:`random_concave_quadratic`, so
    identical arguments describe the same game.
    """
    _check_family_bounds(players, dims)
    rng = np.random.default_rng(seed)
    targets, weights = _quadratic_params(
        rng, players, dims, max_coupling, nonnegative_coupling
    )
    x = np.zeros(players * dims)
    for _ in range(_BR_ITERS):
        new = np.clip(targets + _dot(weights, x), -1.0, 1.0)
        if np.max(np.abs(new - x)) <= _BR_TOL:
            return new
        x = new
    return x


def monotone_concave_instance(seed: int, players: int = 2) -> GameSpec:
    """Scalar players with strictly monotone strictly concave utilities.

    Each utility is -(x - m)^2 with |m| drawn from [4, 6] and a random sign,
    so on [-1, 1] it is strictly monotone and the strict upper contour sets
    are open half-lines: convex, with the current point on their closure.
    """
    _check_family_bounds(players, 1)
    rng = np.random.default_rng(seed)
    specs = []
    for player in range(players):
        magnitude = rng.uniform(4.0, 6.0)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        m = sign * magnitude
        expr = f"-(x{player + 1}-{_float_expr(m)})^2".replace("--", "+")
        specs.append(
            PlayerSpec(
                dim=1,
                box=((-1.0, 1.0),),
                preference=UtilityPreference(expr),
            )
        )
    return GameSpec(players=tuple(specs), constraints=BoxOnly())


def arrow_debreu_instance(seed: int) -> GameSpec:
    """Two scalar players sharing the budget x1 + x2 <= 1 on [0, 1]^2.

    Each player has a concave bliss-point utility with target at least 1, so
    the individually optimal pair is infeasible, the budget line binds at
    every equilibrium, and the feasible set of each player genuinely moves
    with the rival's choice.
    """
    rng = np.random.default_rng(seed)
    targets = 1.0 + 0.25 * rng.uniform(0.0, 1.0, size=2)
    specs = []
    for player in range(2):
        expr = f"-(x{player + 1}-{_float_expr(targets[player])})^2"
        specs.append(
            PlayerSpec(
                dim=1,
                box=((0.0, 1.0),),
                preference=UtilityPreference(expr),
            )
        )
    constraints = SharedLinear(a=((1.0, 1.0),), b=(1.0,))
    return GameSpec(players=tuple(specs), constraints=constraints)


def _example_quadratic() -> GameSpec:
    return random_concave_quadratic(seed=42)


def _example_arrow_debreu() -> GameSpec:
    return arrow_debreu_instance(seed=42)


def _example_lhc_game() -> GameSpec:
    return example_lhc_remark()[2]


EXAMPLES = {
    "trivial-pref": example_trivial_pref,
    "coordinate-pref": example_coordinate_pref,
    "lhc-remark": _example_lhc_game,
    "quadratic": _example_quadratic,
    "arrow-debreu": _example_arrow_debreu,
}
