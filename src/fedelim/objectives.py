"""Synthetic objective suite with per-client shifts and bounded noise.

Five named benchmark objectives are normalized so their values lie in [0, 1]
with a maximum of 1 at the certified optimizer.  A suite holds M shifted
copies ``f_m(x) = base(clip(x - s_m))`` plus their average, a symmetric
bounded noise model, and brute-force optimum certificates computed by the
grid / random-search oracle below.  The near-optimality profiler counts
grid cells whose center clears a value threshold, a diagnostic proxy for
covering numbers of near-optimal sets.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .partition import BoxDomain
from .seeding import PURPOSE_ORACLE, PURPOSE_SHIFTS, substream

ORIENT_VALUE = "value"  # f = raw / normalization_max  (raw is a reward surface)
ORIENT_COST = "cost"    # f = 1 - raw / normalization_max  (raw is a loss surface)

PROFILE_CELL_LIMIT = 50_000_000


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


def _rastrigin_raw(X: np.ndarray) -> np.ndarray:
    d = X.shape[1]
    return 10.0 * d + (X * X - 10.0 * np.cos(2.0 * math.pi * X)).sum(axis=1)


def _ackley_raw(X: np.ndarray) -> np.ndarray:
    quad = np.sqrt((X * X).mean(axis=1))
    cosm = np.cos(2.0 * math.pi * X).mean(axis=1)
    return -20.0 * np.exp(-0.2 * quad) - np.exp(cosm) + 20.0 + math.e


# ---------------------------------------------------------------------------
# Lipschitz bounds of the raw forms: max ||grad raw|| over a box domain
# ---------------------------------------------------------------------------

def _himmelblau_partial_max(xlo, xhi, ylo, yhi, a, b) -> float:
    """max |d/dx [(x^2 + y - a)^2 + (x + y^2 - b)^2]| over [xlo, xhi] x [ylo, yhi].

    The partial g = 4x^3 + 4xy - (4a - 2)x + 2y^2 - 2b is a polynomial, so
    its extremes lie at a corner or where its restriction to an edge or to
    the interior is stationary: on y = -x (dg/dy = 0) or where
    12x^2 = 4a - 2 - 4y (dg/dx = 0).  The grid of those coordinates, clipped
    into the box, holds every such point.
    """
    xs = [xlo, xhi]
    for c in (ylo, yhi):
        r = math.sqrt(max(0.0, (4.0 * a - 2.0 - 4.0 * c) / 12.0))
        xs += [r, -r]
    disc = math.sqrt(16.0 + 48.0 * (4.0 * a - 2.0))
    xs += [(4.0 + disc) / 24.0, (4.0 - disc) / 24.0]
    ys = [ylo, yhi] + [-v for v in xs]
    x = np.clip(np.array(xs), xlo, xhi)[:, None]
    y = np.clip(np.array(ys), ylo, yhi)[None, :]
    g = 4.0 * x * (x * x + y - a) + 2.0 * (x + y * y - b)
    return float(np.max(np.abs(g)))


def _himmelblau_lipschitz(domain: BoxDomain) -> float:
    # d/dy of himmelblau is d/dx with the axes and the constants (11, 7) swapped
    (xlo, ylo), (xhi, yhi) = domain.lower, domain.upper
    return math.hypot(_himmelblau_partial_max(xlo, xhi, ylo, yhi, 11.0, 7.0),
                      _himmelblau_partial_max(ylo, yhi, xlo, xhi, 7.0, 11.0))


def _rastrigin_lipschitz(domain: BoxDomain) -> float:
    # |d/dx_j| = |2 x_j + 20 pi sin(2 pi x_j)| <= 2 max|x_j| + 20 pi
    reach = np.maximum(np.abs(domain.lower), np.abs(domain.upper))
    return float(np.sqrt(((2.0 * reach + 20.0 * math.pi) ** 2).sum()))


def _ackley_lipschitz(domain: BoxDomain) -> float:
    # the exp(-0.2 ||x|| / sqrt(d)) term moves at most 4 / sqrt(d) per unit
    # step, the exp(mean cos) term at most e * 2 pi / sqrt(d)
    return (4.0 + 2.0 * math.pi * math.e) / math.sqrt(domain.dim)


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
    "ackley": (_ackley_raw, ORIENT_COST, ([-1.0, -1.0], [1.0, 1.0]), None, _ackley_lipschitz),
}

OBJECTIVE_NAMES = tuple(sorted(_CATALOG))


# ---------------------------------------------------------------------------
# Optimum oracle
# ---------------------------------------------------------------------------

# Resolution of the optimum search.
ORACLE_GRID_POINTS = 4096          # per dimension, exhaustive grid (dim <= 2)
ORACLE_RANDOM_SAMPLES = 1_000_000  # uniform probes (dim > 2)
ORACLE_ZOOM_POINTS = 65            # per dimension per refinement round
ORACLE_ZOOM_ROUNDS = 3             # minimum refinement rounds
ORACLE_MAX_ZOOM_ROUNDS = 48
ORACLE_SHRINK = 10.0
ORACLE_TOP_CANDIDATES = 16
ORACLE_TOL = 1e-9
ORACLE_TILE_POINTS = 8             # grid points per tile side in the 2-D screen
ORACLE_PRUNE_MARGIN = 1e-12        # relative slack before a tile bound rules a tile out


@dataclass
class OptimumCertificate:
    """Certified optimum: best probed point, its value, and search metadata.

    ``probes`` counts the points the value dominates: every grid or random
    point screened, whether evaluated or ruled out by a Lipschitz bound,
    plus hints and refinement probes.  ``gap``, where a bound applies,
    bounds how far the objective's supremum can lie above ``value``.
    """

    x: np.ndarray
    value: float
    method: str
    probes: int = 0
    rounds: int = 0
    gap: float | None = None


def _screen(fn, blocks, keep: int):
    """Evaluate point blocks, keeping the ``keep`` best rows of each block.

    Returns (kept points, their values, number of points evaluated).
    """
    rows, vals, probes = [], [], 0
    for pts in blocks:
        v = fn(pts)
        probes += len(pts)
        top = np.argsort(v)[-keep:]
        rows.append(pts[top])
        vals.append(v[top])
    return np.concatenate(rows), np.concatenate(vals), probes


def _grid_screen(fn, domain: BoxDomain, keep: int, lipschitz: float | None, zoom_width):
    """Tiled screen of the 2-D grid: (kept points, their values, largest tile bound).

    With a ``lipschitz`` bound, the middle grid point of each tile of
    ``ORACLE_TILE_POINTS`` per side is probed first.  A tile's bound is that
    value plus ``lipschitz`` times the tile's reach: from the representative
    to the tile's far edge, plus the farthest a zoom refinement of first
    half-width ``zoom_width``, shrinking by ``ORACLE_SHRINK``, can travel.
    A tile whose bound lies below the best representative is skipped, so no
    skipped point, and no zoom started at one, can beat it; a NaN or an
    infinity in the comparison keeps the tile.  The surviving points are
    screened in row blocks of about 2M points, keeping each block's ``keep``
    best.  Without a bound every tile survives and the bound is None.
    """
    n, t = ORACLE_GRID_POINTS, ORACLE_TILE_POINTS  # t divides n
    spacing = domain.widths / (n - 1)
    axes = [np.linspace(domain.lower[j], domain.upper[j], n) for j in range(2)]
    alive = np.ones((n // t, n // t), dtype=bool)
    top_bound = None
    if lipschitz is not None:
        mid = np.arange(t // 2, n, t)
        reps = np.stack([g.ravel() for g in np.meshgrid(axes[0][mid], axes[1][mid],
                                                        indexing="ij")], axis=1)
        rep_vals = fn(reps)
        travel = zoom_width * ORACLE_SHRINK / (ORACLE_SHRINK - 1.0)
        reach = math.hypot(*((t - t // 2) * spacing + travel))
        bounds = rep_vals + lipschitz * reach
        best = float(np.max(rep_vals))
        alive = ~(bounds < best - ORACLE_PRUNE_MARGIN * max(1.0, abs(best))).reshape(alive.shape)
        top_bound = float(np.max(bounds))

    def blocks():
        step = max(1, 2_000_000 // n)
        tile_of_col = np.arange(n) // t
        for start in range(0, n, step):
            rows = np.arange(start, min(start + step, n))
            i, j = np.nonzero(alive[rows // t][:, tile_of_col])
            if len(i):
                yield np.stack([axes[0][rows[i]], axes[1][j]], axis=1)

    pts, vals, _ = _screen(fn, blocks(), keep)
    return pts, vals, top_bound


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
    if not kept:
        kept = [order[0]]
    return [(points[i].copy(), float(values[i])) for i in kept]


def _zoom_refine(fn, domain, x0, v0, half_width):
    """Repeated local grid zoom around an incumbent, shrinking each round.

    Returns (x, value, probes, rounds, converged); convergence means the
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
    return x, v, probes, rounds, converged


def _coordinate_refine(fn, domain, x0, v0):
    """Cyclic per-dimension line searches for dim > 2 incumbents.

    The first sweep scans each full coordinate range (so a random-search
    incumbent can escape a wrong basin); later sweeps zoom in around the
    incumbent with the usual shrink factor.  Exact for separable surfaces.
    """
    x, v = np.array(x0, dtype=float), float(v0)
    w = domain.widths / 2.0
    probes = 0
    sweeps = 0
    quiet = 0
    converged = False
    while sweeps < ORACLE_MAX_ZOOM_ROUNDS:
        start = v
        for j in range(domain.dim):
            grid = np.linspace(max(domain.lower[j], x[j] - w[j]),
                               min(domain.upper[j], x[j] + w[j]),
                               ORACLE_ZOOM_POINTS)
            rows = np.tile(x, (len(grid), 1))
            rows[:, j] = grid
            vals = fn(rows)
            probes += len(rows)
            k = int(np.argmax(vals))
            if vals[k] > v:
                x, v = rows[k].copy(), float(vals[k])
        w /= ORACLE_SHRINK
        sweeps += 1
        quiet = quiet + 1 if v - start <= ORACLE_TOL else 0
        if sweeps >= ORACLE_ZOOM_ROUNDS and quiet >= 2:
            converged = True
            break
    return x, v, probes, sweeps, converged


def oracle_optimum(
    fn: Callable[[np.ndarray], np.ndarray],
    domain: BoxDomain,
    rng: np.random.Generator | None = None,
    hints: Sequence[np.ndarray] = (),
    lipschitz: float | None = None,
) -> OptimumCertificate:
    """Certified maximum of a batched objective over a box domain.

    Dimensions up to 2 get a uniform grid (endpoints included) with local
    zoom refinement around the top candidates; in two dimensions the grid
    skips the tiles that ``lipschitz``, a bound on the gradient norm of
    ``fn`` over the domain, rules out (``_grid_screen``).  Higher dimensions
    get uniform random search plus coordinate-descent refinement.  In-domain
    ``hints`` join the candidates.  The returned value is the maximum over
    every probed point, so the certificate dominates all probes by
    construction, and skipped grid points by the bound.  Raises
    ``OracleFailure`` when the incumbent has not converged to ``ORACLE_TOL``
    within ``ORACLE_MAX_ZOOM_ROUNDS`` rounds.
    """
    d = domain.dim
    keep = 4 * ORACLE_TOP_CANDIDATES
    top_bound = None
    if d <= 2:
        spacing = domain.widths / (ORACLE_GRID_POINTS - 1)
        if d == 1:
            pts = np.linspace(domain.lower[0], domain.upper[0], ORACLE_GRID_POINTS)[:, None]
            vals = fn(pts)
        else:
            pts, vals, top_bound = _grid_screen(fn, domain, keep, lipschitz, 2 * spacing)
        probes = ORACLE_GRID_POINTS ** d
        candidates = _top_separated(pts, vals, ORACLE_TOP_CANDIDATES, 2 * spacing)
        method = "grid-zoom"
        refine = lambda x0, v0: _zoom_refine(fn, domain, x0, v0, 2 * spacing)
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        n, step = ORACLE_RANDOM_SAMPLES, 250_000
        blocks = (rng.uniform(domain.lower, domain.upper, size=(min(step, n - i), d))
                  for i in range(0, n, step))
        pts, vals, probes = _screen(fn, blocks, keep)
        candidates = _top_separated(pts, vals, ORACLE_TOP_CANDIDATES, domain.widths / 16)
        method = "random-zoom"
        refine = lambda x0, v0: _coordinate_refine(fn, domain, x0, v0)

    for h in hints:
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if domain.contains(h, atol=0.0):
            candidates.append((h, float(fn(h[None, :])[0])))
            probes += 1

    best_x, best_v, best_converged, rounds = None, -math.inf, False, 0
    for x0, v0 in candidates:
        x, v, p, r, ok = refine(x0, v0)
        probes += p
        rounds += r
        if v > best_v:
            best_x, best_v, best_converged = x, v, ok
    if not best_converged:
        raise OracleFailure(
            f"optimum search did not converge to {ORACLE_TOL:g} within "
            f"{ORACLE_MAX_ZOOM_ROUNDS} refinement rounds"
        )
    gap = None if top_bound is None else top_bound - best_v
    return OptimumCertificate(x=best_x, value=best_v, method=method, probes=probes, rounds=rounds,
                              gap=gap)


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
    ``lipschitz`` bounds the raw form's gradient norm over the domain, where
    an analytic bound exists; the grid oracle prunes with it.
    """

    name: str
    domain: BoxDomain
    normalization_max: float
    orientation: str
    raw_fn: Callable[[np.ndarray], np.ndarray]
    known_optimum: np.ndarray | None = None
    lipschitz: float | None = None

    @property
    def value_lipschitz(self) -> float | None:
        """Bound for the normalized form; clipped shifts and their mean keep it."""
        return None if self.lipschitz is None else self.lipschitz / self.normalization_max

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        raw = self.raw_fn(np.atleast_2d(np.asarray(X, dtype=float)))
        if self.orientation == ORIENT_VALUE:
            return raw / self.normalization_max
        return 1.0 - raw / self.normalization_max

    def evaluate(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.domain.contains(x, atol=1e-12):
            raise ValueError(f"point {x} lies outside the {self.name} domain")
        return float(self.evaluate_batch(x[None, :])[0])


_BASE_CACHE: dict[tuple, BaseObjective] = {}


def _rastrigin_term(X: np.ndarray) -> np.ndarray:
    return X[:, 0] ** 2 - 10.0 * np.cos(2.0 * math.pi * X[:, 0])


def make_base(name: str, domain: BoxDomain | None = None) -> BaseObjective:
    """Build a named objective, certifying its normalization constant.

    The raw extreme is certified by the grid oracle (per dimension for the
    separable rastrigin sum, jointly otherwise), pruned by the objective's
    Lipschitz bound.  A domain on which that bound times the diameter is not
    finite, where the raw form can overflow, is rejected.  Results are
    cached per (name, domain).
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
    lipschitz = None
    if lipschitz_fn is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            lipschitz = lipschitz_fn(domain)
        # raw varies by at most L * diameter over the box
        if not math.isfinite(lipschitz * math.hypot(*domain.widths)):
            box = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(domain.lower, domain.upper))
            raise ValueError(f"{name} overflows on the domain {box}")

    if name == "rastrigin":
        # 10*d + sum_j g(x_j) is separable: certify max(g) one dimension at a time.
        norm_max = 10.0 * domain.dim
        for j in range(domain.dim):
            line = BoxDomain([domain.lower[j]], [domain.upper[j]])
            norm_max += oracle_optimum(_rastrigin_term, line).value
        known = np.zeros(domain.dim) if domain.contains(np.zeros(domain.dim)) else None
    else:
        res = oracle_optimum(raw_fn, domain, lipschitz=lipschitz)
        norm_max = res.value
        if orientation == ORIENT_VALUE:
            known = res.x
        elif name == "himmelblau":
            known = np.array([3.0, 2.0]) if domain.contains(np.array([3.0, 2.0])) else None
        else:  # ackley: raw minimum 0 at the origin
            known = np.zeros(domain.dim) if domain.contains(np.zeros(domain.dim)) else None

    obj = BaseObjective(name=name, domain=domain, normalization_max=norm_max,
                        orientation=orientation, raw_fn=raw_fn, known_optimum=known,
                        lipschitz=lipschitz)
    _BASE_CACHE[key] = obj
    return obj


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean noise uniform on [-halfwidth, +halfwidth]."""

    halfwidth: float

    def __post_init__(self):
        # rng.uniform(-h, h) overflows unless its range 2 * h is finite
        if not 0 <= 2 * self.halfwidth < math.inf:
            raise ValueError("noise halfwidth must be nonnegative, with 2 * halfwidth finite")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.halfwidth == 0.0:
            return np.zeros(n)
        return rng.uniform(-self.halfwidth, self.halfwidth, size=n)


def _certify_shifted(base: BaseObjective, shift: np.ndarray, fn,
                     rng: np.random.Generator) -> OptimumCertificate:
    """Optimum certificate for one shifted local objective ``fn``.

    When the base optimum is known and its shifted image stays inside the
    domain, the clip is the identity there and translation preserves the
    maximum: the image is certified without any search, provided it
    evaluates to at least the base's own value at its optimum (rounding in
    ``x + s - s`` can move it off by an ulp).  Otherwise the grid or random
    search oracle runs, with the shifted image as a hint above two dimensions.
    """
    known = base.known_optimum
    if known is not None:
        cand = known + shift
        if base.domain.contains(cand, atol=0.0):
            val = float(fn(cand[None, :])[0])
            if val >= float(base.evaluate_batch(known[None, :])[0]):
                return OptimumCertificate(x=cand, value=val, method="shift-translation", probes=1)
    hints = [known + shift] if known is not None and base.domain.dim > 2 else []
    return oracle_optimum(fn, base.domain, rng=rng, hints=hints, lipschitz=base.value_lipschitz)


class ObjectiveSuite:
    """M shifted local objectives, their average, noise, and certificates.

    Local objective m evaluates the base at ``clip(x - s_m)`` so shifted
    copies stay defined and bounded on the original domain; the global
    objective is the arithmetic mean of the locals, accumulated in client
    order.  ``eval_clients`` gives every client's value at one in-domain
    point; the single-point evaluator and the protocol's cell values both
    come from it.  The constructor certifies each local optimum; the global
    optimum is certified on first read, which a run never makes.  Both are
    certified on the batch evaluators themselves.
    """

    def __init__(self, base: BaseObjective, shifts: np.ndarray, noise: NoiseModel, seed: int):
        self.base = base
        self.shifts = np.asarray(shifts, dtype=float)
        self.noise = noise
        self.seed = int(seed)
        if self.shifts.ndim != 2 or len(self.shifts) < 1 or self.shifts.shape[1] != base.domain.dim:
            raise ValueError("shifts must have shape (clients, dim) with at least one client")
        self.local_optima = [
            _certify_shifted(base, self.shifts[m - 1], functools.partial(self.eval_local_batch, m),
                             substream(self.seed, PURPOSE_ORACLE, m))
            for m in range(1, self.clients + 1)
        ]

    @functools.cached_property
    def global_optimum(self) -> OptimumCertificate:
        """Certificate of the average, searched on first read; for one client, that client's."""
        if self.clients == 1:
            return self.local_optima[0]
        known = self.base.known_optimum
        hints = []
        if known is not None and self.domain.dim > 2:
            hints = [self.domain.clip(known + self.shifts.mean(axis=0))]
        return oracle_optimum(self.eval_global_batch, self.domain,
                              rng=substream(self.seed, PURPOSE_ORACLE, 0), hints=hints,
                              lipschitz=self.base.value_lipschitz)

    @property
    def clients(self) -> int:
        return int(self.shifts.shape[0])

    @property
    def domain(self) -> BoxDomain:
        return self.base.domain

    def _check_client(self, m: int) -> None:
        if not 1 <= m <= self.clients:
            raise ValueError(f"client index {m} out of range 1..{self.clients}")

    def eval_local_batch(self, m: int, X: np.ndarray) -> np.ndarray:
        self._check_client(m)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.base.evaluate_batch(self.domain.clip(X - self.shifts[m - 1]))

    def eval_clients(self, x) -> np.ndarray:
        """Every client's value at one in-domain point, in client order."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.domain.contains(x, atol=1e-12):
            raise ValueError("evaluation point lies outside the domain")
        return self.base.evaluate_batch(self.domain.clip(x - self.shifts))

    def eval_local(self, m: int, x) -> float:
        self._check_client(m)
        return float(self.eval_clients(x)[m - 1])

    def eval_global_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        acc = np.zeros(len(X))
        for shift in self.shifts:  # eval_local_batch's arithmetic, without its per-call checks
            acc += self.base.evaluate_batch(self.domain.clip(X - shift))
        return acc / self.clients

    def local_star(self, m: int) -> float:
        self._check_client(m)
        return self.local_optima[m - 1].value


def make_suite(base: BaseObjective, clients: int, shift_std: float,
               noise_halfwidth: float, seed: int) -> ObjectiveSuite:
    """Draw per-client shifts and build the suite, which certifies the local optima.

    Shifts are N(0, shift_std^2) per client per dimension, drawn from the
    dedicated substream of the master seed.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    if not 0 <= shift_std < math.inf:
        raise ValueError("shift_std must be finite and nonnegative")
    shape = (clients, base.domain.dim)
    if shift_std == 0.0:
        shifts = np.zeros(shape)
    else:
        shifts = substream(seed, PURPOSE_SHIFTS).normal(0.0, shift_std, size=shape)
    return ObjectiveSuite(base, shifts, NoiseModel(halfwidth=noise_halfwidth), seed)


# ---------------------------------------------------------------------------
# Near-optimality profiling
# ---------------------------------------------------------------------------

def _profile_counts(domain: BoxDomain, grid_step: float) -> list[int] | None:
    """ceil(width / grid_step) cells per dimension; None past ``PROFILE_CELL_LIMIT`` cells."""
    # a ratio capped just past the limit still fails it, and never reaches ceil as inf
    ratios = [min(float(w) / grid_step, PROFILE_CELL_LIMIT + 1) for w in domain.widths]
    counts = [max(1, math.ceil(r - 1e-12)) for r in ratios]
    return counts if math.prod(counts) <= PROFILE_CELL_LIMIT else None


def _profile_centers(domain: BoxDomain, grid_step: float):
    """Cell centers of the profile grid, in blocks of at most a million points."""
    counts = _profile_counts(domain, grid_step)
    if counts is None:
        raise ValueError(f"profile grid step {grid_step:g} exceeds the {PROFILE_CELL_LIMIT}-cell cap")
    total = math.prod(counts)
    chunk = 1_000_000
    for start in range(0, total, chunk):
        coords = np.unravel_index(np.arange(start, min(start + chunk, total)), counts)
        X = np.empty((len(coords[0]), domain.dim))
        for j in range(domain.dim):
            cw = domain.widths[j] / counts[j]
            X[:, j] = domain.lower[j] + (coords[j] + 0.5) * cw
        yield X


def near_optimality_profile(fn: Callable[[np.ndarray], np.ndarray], domain: BoxDomain,
                            f_star: float, eps: float, grid_step: float) -> int:
    """Number of grid cells whose center value reaches ``f_star - eps``.

    The count is a proxy for the covering number of the eps-optimal set.
    """
    if eps <= 0 or grid_step <= 0:
        raise ValueError("eps and grid_step must be positive")
    return sum(int((fn(X) >= f_star - eps).sum()) for X in _profile_centers(domain, grid_step))


def profile_ladder(fn, domain: BoxDomain, f_star: float, nu1: float,
                   rho: float) -> list[tuple[int, float, float, int | None]]:
    """Near-optimality counts along the ladder eps=6*nu1*rho^h, step=rho^h, h = 0..6.

    The first depth whose grid exceeds the cell cap ends the ladder, with count None.
    """
    rows = []
    for h in range(7):
        eps = 6.0 * nu1 * rho ** h
        step = rho ** h
        if _profile_counts(domain, step) is None:
            rows.append((h, eps, step, None))
            break
        rows.append((h, eps, step, near_optimality_profile(fn, domain, f_star, eps, step)))
    return rows
