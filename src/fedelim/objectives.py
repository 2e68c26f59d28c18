"""Synthetic objective suite with per-client shifts and bounded noise.

Five named benchmark objectives are normalized so their values lie in [0, 1]
with a maximum of 1 at the certified optimizer.  A suite holds M shifted
copies ``f_m(x) = base(clip(x - s_m))``, a symmetric bounded noise model,
and brute-force optimum certificates of each copy and of their average,
both the mean of copies over shift rows (one row, or all M): the grid
oracle below on domains of up to two dimensions, and, for rastrigin in any
dimension, the same oracle run one coordinate at a time on its separable
sum.  The near-optimality census counts, at each depth of the protocol's
own partition, the cells whose center value lies within ``6 * nu1 * rho**h``
of the optimum: the counts that define the near-optimality dimension.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .partition import BoxDomain, NodeId, PartitionSpec, representative
from .seeding import PURPOSE_SHIFTS, substream

ORIENT_VALUE = "value"  # f = raw / normalization_max  (raw is a reward surface)
ORIENT_COST = "cost"    # f = 1 - raw / normalization_max  (raw is a loss surface)


class OracleFailure(RuntimeError):
    """The optimum search exhausted its budget without converging."""


# ---------------------------------------------------------------------------
# Raw closed forms (batched: X has shape (n, d), result shape (n,))
# ---------------------------------------------------------------------------

def _garland_raw(X: np.ndarray) -> np.ndarray:
    x = X[:, 0]
    return 4.0 * x * (1.0 - x) * (0.75 + 0.25 * (1.0 - np.sqrt(np.abs(np.sin(60.0 * x)))))


def _doublesine_raw(X: np.ndarray) -> np.ndarray:
    x = X[:, 0]
    return 0.5 * (np.sin(13.0 * x) * np.sin(27.0 * x) + 1.0)


def _himmelblau_raw(X: np.ndarray) -> np.ndarray:
    x, y = X[:, 0], X[:, 1]
    return (x * x + y - 11.0) ** 2 + (x + y * y - 7.0) ** 2


def _rastrigin_term(U: np.ndarray) -> np.ndarray:
    """Rastrigin's per-coordinate term, elementwise."""
    return U * U - 10.0 * np.cos(2.0 * math.pi * U)


def _rastrigin_raw(X: np.ndarray) -> np.ndarray:
    return 10.0 * X.shape[1] + _rastrigin_term(X).sum(axis=1)


def _ackley_raw(X: np.ndarray) -> np.ndarray:
    x, y = X[:, 0], X[:, 1]
    quad = np.sqrt((x * x + y * y) / 2.0)
    cosm = (np.cos(2.0 * math.pi * x) + np.cos(2.0 * math.pi * y)) / 2.0
    return -20.0 * np.exp(-0.2 * quad) - np.exp(cosm) + 20.0 + math.e


# ---------------------------------------------------------------------------
# Lipschitz bounds of the raw forms: max ||grad raw|| over boxes (lo, hi) of shape (k, d)
# ---------------------------------------------------------------------------

def _himmelblau_partial_max(xlo, xhi, ylo, yhi, a, b) -> np.ndarray:
    """max |d/dx [(x^2 + y - a)^2 + (x + y^2 - b)^2]| over each box [xlo, xhi] x [ylo, yhi].

    The partial g = 4x^3 + 4xy - (4a - 2)x + 2y^2 - 2b is a polynomial, so
    its extremes lie at a corner or where its restriction to an edge or to
    the interior is stationary: where 12x^2 = 4a - 2 - 4y on a horizontal
    edge (dg/dx = 0), at y = -x on a vertical edge (dg/dy = 0), and at both
    inside.  Those twelve points, clipped into the box, hold every extreme.
    """
    r = [np.sqrt(np.maximum(0.0, (4.0 * a - 2.0 - 4.0 * c) / 12.0)) for c in (ylo, yhi)]
    disc = math.sqrt(16.0 + 48.0 * (4.0 * a - 2.0))
    inner = [(4.0 + disc) / 24.0, (4.0 - disc) / 24.0]
    x = np.array(np.broadcast_arrays(xlo, xlo, xhi, xhi, r[0], -r[0], r[1], -r[1],
                                     xlo, xhi, *inner))
    y = np.array(np.broadcast_arrays(ylo, yhi, ylo, yhi, ylo, ylo, yhi, yhi,
                                     -xlo, -xhi, *[-v for v in inner]))
    x, y = np.minimum(np.maximum(x, xlo), xhi), np.minimum(np.maximum(y, ylo), yhi)
    g = 4.0 * x * (x * x + y - a) + 2.0 * (x + y * y - b)
    return np.abs(g).max(axis=0)


def _himmelblau_lipschitz(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # d/dy of himmelblau is d/dx with the axes and the constants (11, 7) swapped
    (xlo, ylo), (xhi, yhi) = lo.T, hi.T
    return np.hypot(_himmelblau_partial_max(xlo, xhi, ylo, yhi, 11.0, 7.0),
                    _himmelblau_partial_max(ylo, yhi, xlo, xhi, 7.0, 11.0))


def _rastrigin_lipschitz(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # |d/dx_j| = |2 x_j + 20 pi sin(2 pi x_j)| <= 2 max|x_j| + 20 pi
    slopes = 2.0 * np.maximum(np.abs(lo), np.abs(hi)) + 20.0 * math.pi
    return np.sqrt((slopes ** 2).sum(axis=1))


def _ackley_lipschitz(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # the exp(-0.2 ||x|| / sqrt(d)) term moves at most 4 / sqrt(d) per unit
    # step, the exp(mean cos) term at most e * 2 pi / sqrt(d)
    return np.full(len(lo), (4.0 + 2.0 * math.pi * math.e) / math.sqrt(lo.shape[1]))


# name: (raw form, orientation, default box, fixed dimension, Lipschitz bound)
# The 1-D forms have no bound: garland's sqrt|sin 60x| cusp admits none, and
# a 1-D grid is scanned whole anyway.
_CATALOG = {
    "garland": (_garland_raw, ORIENT_VALUE, ([0.0], [1.0]), 1, None),
    "doublesine": (_doublesine_raw, ORIENT_VALUE, ([0.0], [1.0]), 1, None),
    "himmelblau": (_himmelblau_raw, ORIENT_COST, ([-5.0, -5.0], [5.0, 5.0]), 2,
                   _himmelblau_lipschitz),
    "rastrigin": (_rastrigin_raw, ORIENT_COST, ([-1.0] * 10, [1.0] * 10), None,
                  _rastrigin_lipschitz),
    "ackley": (_ackley_raw, ORIENT_COST, ([-1.0, -1.0], [1.0, 1.0]), 2, _ackley_lipschitz),
}

OBJECTIVE_NAMES = tuple(sorted(_CATALOG))


# ---------------------------------------------------------------------------
# Optimum oracle
# ---------------------------------------------------------------------------

# Resolution of the optimum search.
ORACLE_GRID_POINTS = 4096          # per dimension, exhaustive grid (dim <= 2)
ORACLE_ZOOM_POINTS = 65            # per dimension per refinement round
ORACLE_ZOOM_ROUNDS = 3             # minimum refinement rounds
ORACLE_MAX_ZOOM_ROUNDS = 48
ORACLE_SHRINK = 10.0
ORACLE_TOP_CANDIDATES = 16
ORACLE_TOL = 1e-9
ORACLE_TILE_POINTS = 8             # grid points per tile side in the 2-D screen
ORACLE_SUPER_TILE = 8              # tiles per super-tile side in the 2-D screen
ORACLE_PRUNE_MARGIN = 1e-12        # relative slack before a tile bound rules a tile out


@dataclass
class OptimumCertificate:
    """Certified optimum: best probed point, its value, and search metadata.

    ``probes`` counts the points the value dominates: every grid point
    screened, whether evaluated or ruled out by a Lipschitz bound, plus
    refinement probes; a separable certificate counts the probes of its
    coordinate searches.  ``gap``, where a bound applies, bounds how far the
    objective's supremum can lie above ``value``.
    """

    x: np.ndarray
    value: float
    method: str
    probes: int = 0
    gap: float | None = None


def _grid_screen(fn, domain: BoxDomain, keep: int, lipschitz, zoom_width):
    """Two-level screen of the 2-D grid: (kept points, their values, largest tile bound).

    A square's bound is its middle grid point's value plus its gradient
    bound times its reach: to its far edge, plus the farthest a zoom of
    first half-width ``zoom_width``, shrinking by ``ORACLE_SHRINK``, can
    travel.  Super-tiles of ``ORACLE_SUPER_TILE`` tiles per side take
    ``lipschitz(lo, hi)`` over their reach clipped to the domain, and are
    skipped whole below the best probe.  The ``ORACLE_TILE_POINTS``-wide
    tiles of the rest use their super-tile's bound against the best probe
    of both levels.  No skipped point, nor a zoom from one, can beat that
    probe; a NaN or an infinity in a comparison keeps the square.  The
    surviving tiles' points are evaluated in row-major grid order, in bands
    of whole tile rows of about 2M points, each keeping its ``keep`` best.
    Without a bound every tile survives and the bound is None.
    """
    n, t, s = ORACLE_GRID_POINTS, ORACLE_TILE_POINTS, ORACLE_SUPER_TILE  # t * s divides n
    spacing = domain.widths / (n - 1)
    axes = [np.linspace(domain.lower[j], domain.upper[j], n) for j in range(2)]
    point = lambda i, j: np.stack([axes[0][i], axes[1][j]], axis=1)
    alive = np.ones((n // t, n // t), dtype=bool)
    top_bound = None
    if lipschitz is not None:
        travel = zoom_width * ORACLE_SHRINK / (ORACLE_SHRINK - 1.0)
        u = t * s  # grid points per super-tile side
        half = (u - u // 2) * spacing + travel  # a super-tile's reach per axis
        si, sj = np.divmod(np.arange((n // u) ** 2), n // u)
        centers = point(si * u + u // 2, sj * u + u // 2)
        vals = fn(centers)
        slopes = lipschitz(domain.clip(centers - half), domain.clip(centers + half))
        best = float(np.max(vals))
        kept = lambda bounds, best: ~(bounds < best - ORACLE_PRUNE_MARGIN * max(1.0, abs(best)))
        live = kept(vals + slopes * math.hypot(*half), best)
        ti = (si[live, None] * s + np.arange(s * s) // s).ravel()  # their tiles
        tj = (sj[live, None] * s + np.arange(s * s) % s).ravel()
        vals = fn(point(ti * t + t // 2, tj * t + t // 2))
        reach = math.hypot(*((t - t // 2) * spacing + travel))
        bounds = vals + np.repeat(slopes[live], s * s) * reach
        best = float(np.max(np.append(vals, best)))
        alive[:] = False
        alive[ti, tj] = kept(bounds, best)
        top_bound = float(np.max(bounds))

    kept_pts, kept_vals = [], []
    band = max(1, 2_000_000 // (n * t))  # tile rows per block
    tile = (np.arange(t)[:, None] * n + np.arange(t)).ravel()  # a tile's flat offsets
    for start in range(0, n // t, band):
        ti, tj = np.nonzero(alive[start:start + band])
        if len(ti):
            corners = (start + ti) * (t * n) + tj * t
            pts = point(*np.divmod(np.sort((corners[:, None] + tile).ravel()), n))
            vals = fn(pts)
            top = np.argsort(vals)[-keep:]
            kept_pts.append(pts[top])
            kept_vals.append(vals[top])
    return np.concatenate(kept_pts), np.concatenate(kept_vals), top_bound


def _top_separated(points: np.ndarray, values: np.ndarray, count: int, min_sep: np.ndarray):
    """Greedily keep the highest-value points pairwise separated per dimension."""
    order = np.argsort(values)[::-1]
    kept: list[int] = []
    for idx in order:
        p = points[idx]
        if all(np.any(np.abs(p - points[j]) > min_sep) for j in kept):
            kept.append(idx)
        if len(kept) >= count:
            break
    return [(points[i].copy(), float(values[i])) for i in kept]


def _zoom_refine(fn, domain, x0, v0, half_width):
    """Repeated local grid zoom around an incumbent, shrinking each round.

    Returns (x, value, probes, converged); convergence means the
    incumbent value moved by at most ``ORACLE_TOL`` in the last round after
    the mandatory minimum number of rounds.
    """
    x, v = np.array(x0, dtype=float), float(v0)
    w = np.array(half_width, dtype=float)
    probes = 0
    rounds = 0
    quiet = 0  # consecutive sub-tolerance rounds; one alone can be a grid
    converged = False  # alignment artifact near a cusp, two are conclusive
    while rounds < ORACLE_MAX_ZOOM_ROUNDS:
        axes = [
            np.linspace(max(domain.lower[j], x[j] - w[j]),
                        min(domain.upper[j], x[j] + w[j]),
                        ORACLE_ZOOM_POINTS)
            for j in range(domain.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = fn(pts)
        probes += len(pts)
        k = int(np.argmax(vals))
        improvement = float(vals[k]) - v
        if improvement > 0:
            x, v = pts[k].copy(), float(vals[k])
        w /= ORACLE_SHRINK
        rounds += 1
        quiet = quiet + 1 if abs(improvement) <= ORACLE_TOL else 0
        if rounds >= ORACLE_ZOOM_ROUNDS and quiet >= 2:
            converged = True
            break
    return x, v, probes, converged


def oracle_optimum(
    fn: Callable[[np.ndarray], np.ndarray],
    domain: BoxDomain,
    lipschitz: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> OptimumCertificate:
    """Certified maximum of a batched objective over a box of at most two dimensions.

    The domain gets a uniform grid (endpoints included) with local zoom
    refinement around the top candidates.  ``lipschitz(lo, hi)``, a bound
    on the gradient norm of ``fn`` over each box (corners of shape (k, d)),
    yields a ``gap``: in one dimension every point lies within half a
    spacing of a grid point, and in two the grid skips the super-tiles and
    tiles that their bounds rule out (``_grid_screen``).  The returned
    value is the maximum over every probed point, so the certificate
    dominates all probes by construction, and skipped grid points by the
    bound.  Raises ``ValueError`` above two
    dimensions, and ``OracleFailure`` when the incumbent has not converged
    to ``ORACLE_TOL`` within ``ORACLE_MAX_ZOOM_ROUNDS`` rounds.
    """
    d = domain.dim
    if d > 2:
        raise ValueError(f"the grid oracle covers at most 2 dimensions, not {d}")
    spacing = domain.widths / (ORACLE_GRID_POINTS - 1)
    if d == 1:
        pts = np.linspace(domain.lower[0], domain.upper[0], ORACLE_GRID_POINTS)[:, None]
        vals = fn(pts)
        top_bound = None if lipschitz is None else float(np.max(vals)) + float(
            lipschitz(domain.lower[None], domain.upper[None])[0]) * float(spacing[0]) / 2.0
    else:
        pts, vals, top_bound = _grid_screen(fn, domain, 4 * ORACLE_TOP_CANDIDATES, lipschitz,
                                            2 * spacing)
    probes = ORACLE_GRID_POINTS ** d
    best_x, best_v, best_converged = None, -math.inf, False
    for x0, v0 in _top_separated(pts, vals, ORACLE_TOP_CANDIDATES, 2 * spacing):
        x, v, p, ok = _zoom_refine(fn, domain, x0, v0, 2 * spacing)
        probes += p
        if v > best_v:
            best_x, best_v, best_converged = x, v, ok
    if not best_converged:
        raise OracleFailure(
            f"optimum search did not converge to {ORACLE_TOL:g} within "
            f"{ORACLE_MAX_ZOOM_ROUNDS} refinement rounds"
        )
    gap = None if top_bound is None else top_bound - best_v
    return OptimumCertificate(x=best_x, value=best_v, method="grid-zoom", probes=probes, gap=gap)


def _certify_separable(fn, domain: BoxDomain, shifts: np.ndarray,
                       scale: float) -> OptimumCertificate:
    """Certificate of ``fn(x) = c + scale * sum_j mean_m t(clip(x_j - shifts[m, j]))``.

    ``t(u) = u^2 - 10 cos(2 pi u)`` is rastrigin's term, and every rastrigin
    local objective, their mean and the raw form itself take this form.  So
    each coordinate's scaled mean term is certified on its own by the 1-D
    grid oracle, with the bound ``|scale| (2 max|x_j| + 20 pi)`` on its
    slope, and the coordinate optima assemble ``x*``.  The value is
    ``fn(x*)`` itself, not the sum of the 1-D values, which can differ from
    it in the last bits; ``gap`` is the sum of the 1-D gaps, so that
    ``value + gap`` bounds the supremum of ``fn`` up to rounding.
    """
    slope = lambda lo, hi: abs(scale) * _rastrigin_lipschitz(lo, hi)
    xs, probes, gap = [], 0, 0.0
    for j, (lo, hi) in enumerate(zip(domain.lower, domain.upper)):
        s = shifts[:, j]
        term = lambda X: scale * _rastrigin_term(np.clip(X - s, lo, hi)).mean(axis=1)
        cert = oracle_optimum(term, BoxDomain([lo], [hi]), lipschitz=slope)
        xs.append(cert.x[0])
        probes += cert.probes
        gap += cert.gap
    x = np.array(xs)
    return OptimumCertificate(x=x, value=float(fn(x[None, :])[0]), method="separable",
                              probes=probes, gap=gap)


# ---------------------------------------------------------------------------
# Base objectives
# ---------------------------------------------------------------------------

@dataclass
class BaseObjective:
    """A normalized benchmark surface on a box domain.

    ``normalization_max`` is the grid-certified extreme of the raw form;
    value-oriented surfaces map to ``raw / max`` and cost-oriented ones to
    ``1 - raw / max``, so values land in [0, 1] with the peak at 1.
    ``known_optimum`` is the analytically known argmax of the normalized
    form where one exists (used for translation shortcuts on shifted copies).
    ``raw_lipschitz(lo, hi)`` bounds the raw form's gradient norm over each
    of a batch of boxes, where an analytic bound exists; the grid oracle
    prunes with it.
    """

    name: str
    domain: BoxDomain
    normalization_max: float
    orientation: str
    raw_fn: Callable[[np.ndarray], np.ndarray]
    known_optimum: np.ndarray | None = None
    raw_lipschitz: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def shifted_lipschitz(self, shifts: np.ndarray):
        """Box bound for the mean of the copies ``f(clip(x - s))``, ``s`` a ``shifts`` row.

        Clipping is monotone and 1-Lipschitz per coordinate, so on a box ``B``
        a copy moves no faster than the raw form on ``clip(B - s)``, scaled by
        ``1 / normalization_max``; a mean, than the mean of its copies' bounds.
        """
        if self.raw_lipschitz is None:
            return None
        moved = lambda c: self.domain.clip(c[None] - shifts[:, None]).reshape(-1, c.shape[1])
        return lambda lo, hi: self.raw_lipschitz(moved(lo), moved(hi)).reshape(
            len(shifts), -1).mean(axis=0) / self.normalization_max

    def eval_shifted(self, X, shifts: np.ndarray) -> np.ndarray:
        """Values at ``clip(x - s)``: a row per point ``x``, a column per ``shifts`` row ``s``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows = self.domain.clip(X[:, None, :] - shifts).reshape(-1, X.shape[1])
        return self.evaluate_batch(rows).reshape(len(X), len(shifts))

    def shifted_mean(self, shifts: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The mean of the copies ``f(clip(x - s))``, ``s`` a ``shifts`` row, as a batch function.

        The copies are summed in row order from zero and divided by their
        count, so one row gives that copy's values bit for bit.
        """
        def mean(X):
            acc = np.zeros(len(np.atleast_2d(X)))
            for s in shifts:
                acc += self.eval_shifted(X, s[None])[:, 0]
            return acc / len(shifts)
        return mean

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        raw = self.raw_fn(np.atleast_2d(np.asarray(X, dtype=float)))
        if self.orientation == ORIENT_VALUE:
            return raw / self.normalization_max
        return 1.0 - raw / self.normalization_max

    @functools.cached_property
    def known_value(self) -> float:
        """The value at ``known_optimum``, evaluated once for every shifted copy's certificate."""
        return float(self.evaluate_batch(self.known_optimum[None, :])[0])

    def evaluate(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.domain.contains(x, atol=1e-12):
            raise ValueError(f"point {x} lies outside the {self.name} domain")
        return float(self.evaluate_batch(x[None, :])[0])


_BASE_CACHE: dict[tuple, BaseObjective] = {}


def make_base(name: str, domain: BoxDomain | None = None) -> BaseObjective:
    """Build a named objective, certifying its normalization constant.

    The raw extreme is certified by the grid oracle, pruned by the
    objective's Lipschitz bounds, or for rastrigin one coordinate at a time
    (``_certify_separable``).  A domain on which its bound times its
    diameter is not finite, where the raw form can overflow, is rejected,
    and so is one whose certified extreme is not positive and finite, which
    cannot normalize.  Results are cached per (name, domain).
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown objective {name!r}; expected one of {OBJECTIVE_NAMES}")
    raw_fn, orientation, (dlo, dup), rigid_dim, lipschitz_fn = _CATALOG[name]
    domain = domain or BoxDomain(dlo, dup)
    if rigid_dim is not None and domain.dim != rigid_dim:
        raise ValueError(f"{name} is defined on a {rigid_dim}-dimensional domain")
    key = (name, domain.bounds_key())
    if key in _BASE_CACHE:
        return _BASE_CACHE[key]
    box = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(domain.lower, domain.upper))
    if lipschitz_fn is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            lipschitz = lipschitz_fn(domain.lower[None], domain.upper[None])[0]
        # raw varies by at most L * diameter over the box
        if not math.isfinite(lipschitz * math.hypot(*domain.widths)):
            raise ValueError(f"{name} overflows on the domain {box}")

    if name == "rastrigin":
        # the raw form summed in coordinate order: its pairwise sum can round
        # differently, and this constant's last bit reaches every value
        in_order = lambda X: functools.reduce(np.add, _rastrigin_term(X).T, 10.0 * domain.dim)
        res = _certify_separable(in_order, domain, np.zeros((1, domain.dim)), 1.0)
    else:
        res = oracle_optimum(raw_fn, domain, lipschitz=lipschitz_fn)
    norm_max = res.value
    if not 0.0 < norm_max < math.inf:
        raise ValueError(f"{name} has no positive maximum on the domain {box}")
    if orientation == ORIENT_VALUE:
        known = res.x
    elif name == "himmelblau":
        known = np.array([3.0, 2.0]) if domain.contains(np.array([3.0, 2.0])) else None
    else:  # ackley and rastrigin: raw minimum 0 at the origin
        known = np.zeros(domain.dim) if domain.contains(np.zeros(domain.dim)) else None

    obj = BaseObjective(name=name, domain=domain, normalization_max=norm_max,
                        orientation=orientation, raw_fn=raw_fn, known_optimum=known,
                        raw_lipschitz=lipschitz_fn)
    _BASE_CACHE[key] = obj
    return obj


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean noise uniform on [-halfwidth, +halfwidth].

    A draw is ``rng.uniform(-h, h, n)`` bit for bit: the same ``low + range * u`` on the
    same doubles of ``rng.random``, computed in place without ``uniform``'s per-element call.
    """

    halfwidth: float

    def __post_init__(self):
        # the range 2 * h of a draw overflows unless it is finite
        if not 0 <= 2 * self.halfwidth < math.inf:
            raise ValueError("noise halfwidth must be nonnegative, with 2 * halfwidth finite")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        h = self.halfwidth
        if h == 0.0:  # the only path for -0.0: numpy rejects uniform(0.0, -0.0)
            return np.zeros(n)
        out = rng.random(n)
        out *= h - -h
        out += -h
        return out


def _certify_shifted(base: BaseObjective, shifts: np.ndarray) -> OptimumCertificate:
    """Certificate of the mean of the base's copies over ``shifts`` rows: a client, or the average.

    For one row whose shifted known base optimum stays inside the domain,
    the clip is the identity there and translation preserves the maximum:
    the image is certified without search, provided it evaluates to at least
    the base's own value at its optimum (``x + s - s`` can round off by an
    ulp).  Where every row carries the whole domain past a corner of the
    box, ``clip(x - s)`` is that corner for every ``x``, and the constant is
    certified at one probe.  Otherwise the search runs: one coordinate at a
    time for rastrigin, the grid oracle for the rest.
    """
    fn = base.shifted_mean(shifts)
    domain = base.domain
    if np.array_equal(domain.clip(domain.lower - shifts), domain.clip(domain.upper - shifts)):
        x = domain.upper.copy()
        return OptimumCertificate(x=x, value=float(fn(x[None, :])[0]), method="constant",
                                  probes=1, gap=0.0)
    known = base.known_optimum
    if len(shifts) == 1 and known is not None:
        cand = known + shifts[0]
        if domain.contains(cand, atol=0.0):
            val = float(fn(cand[None, :])[0])
            if val >= base.known_value:
                return OptimumCertificate(x=cand, value=val, method="shift-translation", probes=1)
    if base.name == "rastrigin":
        return _certify_separable(fn, domain, shifts, -1.0 / base.normalization_max)
    return oracle_optimum(fn, domain, lipschitz=base.shifted_lipschitz(shifts))


class ObjectiveSuite:
    """M shifted local objectives, their average, noise, and certificates.

    Local objective m evaluates the base at ``clip(x - s_m)`` so shifted
    copies stay defined and bounded on the original domain; the global
    objective is their mean.  Each is ``BaseObjective.shifted_mean`` of
    shift rows, one for a client and all for the average, and is certified
    by ``_certify_shifted``: the locals at construction, the global on
    first read, which a run never makes.  ``eval_clients_batch`` gives every
    client's value at each of a batch of in-domain points; the protocol's
    cell values come from it, and so does ``eval_local`` at one point.
    """

    def __init__(self, base: BaseObjective, shifts: np.ndarray, noise: NoiseModel):
        self.base = base
        self.shifts = np.asarray(shifts, dtype=float)
        self.noise = noise
        if self.shifts.ndim != 2 or len(self.shifts) < 1 or self.shifts.shape[1] != base.domain.dim:
            raise ValueError("shifts must have shape (clients, dim) with at least one client")
        self.local_optima = [_certify_shifted(base, row[None]) for row in self.shifts]

    @functools.cached_property
    def global_optimum(self) -> OptimumCertificate:
        """Certificate of the average, searched on first read; for one client, that client's."""
        if self.clients == 1:
            return self.local_optima[0]
        return _certify_shifted(self.base, self.shifts)

    @property
    def clients(self) -> int:
        return int(self.shifts.shape[0])

    @property
    def domain(self) -> BoxDomain:
        return self.base.domain

    def eval_clients_batch(self, X) -> np.ndarray:
        """Every client's value at each in-domain point: one row per point, in client order."""
        if not self.domain.contains(X, atol=1e-12):
            raise ValueError("evaluation point lies outside the domain")
        return self.base.eval_shifted(X, self.shifts)

    def eval_local(self, m: int, x) -> float:
        if not 1 <= m <= self.clients:
            raise ValueError(f"client index {m} out of range 1..{self.clients}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.eval_clients_batch(x[None])[0, m - 1])


def make_suite(base: BaseObjective, clients: int, shift_std: float | np.ndarray,
               noise_halfwidth: float, seed: int) -> ObjectiveSuite:
    """Draw per-client shifts and build the suite, which certifies the local optima.

    Shifts are N(0, shift_std^2) per client per dimension, drawn from the
    dedicated substream of the master seed.  ``shift_std`` is one scale, or
    one per dimension; equal scales draw the same shifts as their scalar.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    scales = np.broadcast_to(np.asarray(shift_std, dtype=float), (base.domain.dim,))
    if not np.all((0 <= scales) & (scales < math.inf)):
        raise ValueError("shift_std must be finite and nonnegative")
    shape = (clients, base.domain.dim)
    if not scales.any():  # the only path for -0.0: numpy rejects normal(0.0, -0.0)
        shifts = np.zeros(shape)
    else:
        shifts = substream(seed, PURPOSE_SHIFTS).normal(0.0, scales, size=shape)
    return ObjectiveSuite(base, shifts, NoiseModel(halfwidth=noise_halfwidth))


# ---------------------------------------------------------------------------
# Near-optimality census
# ---------------------------------------------------------------------------

def near_optimal_census(fn: Callable[[np.ndarray], np.ndarray], domain: BoxDomain,
                        spec: PartitionSpec, nu1: float,
                        rho: float) -> list[tuple[int, float, int, int]]:
    """``(h, eps, near, cells)`` for each depth h = 0..6 of ``spec``'s partition of ``domain``.

    ``cells`` is the number of depth-h cells, and ``near`` the number whose
    ``representative`` has an ``fn`` value within ``eps = 6 * nu1 * rho**h``
    of the certified value 1.0.  The near-optimality dimension of HOO and
    POO is defined on these counts.
    """
    if not (0 < nu1 < math.inf and 0 < rho < 1):
        raise ValueError("nu1 must be finite and positive, and rho in (0, 1)")
    rows = []
    for h in range(7):
        cells = spec.arity ** h
        X = np.array([representative(domain, NodeId(h, i), spec) for i in range(1, cells + 1)])
        eps = 6.0 * (nu1 * rho ** h)  # the slack first, so that 6 * nu1 cannot overflow
        rows.append((h, eps, int((fn(X) >= 1.0 - eps).sum()), cells))
    return rows
