"""Inputs, execution and referee of the solver-sweep workload.

Queries are plain tuples so the referee can be written against the
defining formulas without the package's types:

* ``("qmin_at", eta1, s, s_prime)``
* ``("max_separation", eta1, s, budget)``
* ``("tradeoff_at", eta1, s, budget)``
* ``("max_clones", eta1, s, budget)``
* ``("qmin_curve", s, s_prime)`` and ``("tradeoff_curve", eta1, s)``, each
  at ``SWEEP_SAMPLES`` samples.

The call mix is that of the demos: running ``demos/*.py`` calls the six
functions ``CALL_MIX`` times (calls one solver makes to another not
counted), so a batch is ``MIX_UNITS`` copies of that mix.  Most point
queries come from the interior of the documented domain (``eta1`` in
[0, 1], ``0 <= s' <= s < 1``); a fixed share ``EDGE_SHARE`` moves one or
more parameters log-uniformly to between ``EDGE_MIN`` and ``EDGE_MAX`` of
a domain edge, the region where the package is known to fail today.
"""

from __future__ import annotations

import math

import numpy as np

# Calls per run of the five demos.
CALL_MIX = {
    "qmin_at": 44,
    "max_separation": 10,
    "tradeoff_at": 2,
    "max_clones": 4,
    "qmin_curve": 1,
    "tradeoff_curve": 2,
}
POINT_KINDS = ("qmin_at", "max_separation", "tradeoff_at", "max_clones")
SWEEP_KINDS = ("qmin_curve", "tradeoff_curve")
MIX_UNITS = 300
SWEEP_SAMPLES = 512
EDGE_EVERY = 5
EDGE_SHARE = 1.0 / EDGE_EVERY
EDGE_MIN = 1e-10
EDGE_MAX = 1e-1

# Referee tolerances: round trips through the minimum failure, and
# residuals, objective identities and optimality of a returned point.
ROUND_TRIP_TOL = 1e-6
RESIDUAL_TOL = 1e-9


# ---------------------------------------------------------------------------
# inputs


_LOG_MIN, _LOG_MAX = math.log10(EDGE_MIN), math.log10(EDGE_MAX)
# Key of the stratum pairing shared by all seeds (see _latin).
_DESIGN_KEY = 20150626
# Edges of each parameter, as (anchor, direction into the domain).
_ETA1_EDGES = ((0.0, 1.0), (0.5, -1.0), (0.5, 1.0), (1.0, -1.0))
_UNIT_EDGES = ((0.0, 1.0), (1.0, -1.0))


def _edge_value(u: float, edges) -> float:
    """Map u in [0, 1) to an edge and a log-uniform distance from it."""
    side = min(int(u * len(edges)), len(edges) - 1)
    v = u * len(edges) - side
    anchor, direction = edges[side]
    return anchor + direction * 10.0 ** (_LOG_MIN + v * (_LOG_MAX - _LOG_MIN))


def _params(u: np.ndarray, edge_mask: int) -> tuple[float, float, float, float]:
    """(eta1, s, s'/s, budget/q_ud) from four coordinates in [0, 1).

    Parameters whose bit is set in ``edge_mask`` sit near an edge of the
    domain; the others are drawn from its interior.
    """
    eta1 = 0.02 + 0.96 * u[0]
    s = 0.05 + 0.90 * u[1]
    frac = 0.02 + 0.96 * u[2]
    budget_frac = 0.05 + 0.90 * u[3]
    if edge_mask & 1:
        eta1 = _edge_value(u[0], _ETA1_EDGES)
    if edge_mask & 2:
        s = _edge_value(u[1], _UNIT_EDGES)
    if edge_mask & 4:
        frac = _edge_value(u[2], _UNIT_EDGES)
    if edge_mask & 8:
        budget_frac = _edge_value(u[3], _UNIT_EDGES)
    return float(eta1), float(s), float(frac), float(budget_frac)


def _latin(design: np.random.Generator, rng: np.random.Generator, n: int, dim: int = 4) -> np.ndarray:
    """n points in [0, 1)^dim, one per stratum of width 1/n along each axis.

    ``design`` pairs up the strata of the axes and ``rng`` places each point
    within its cell.  Stratifying a group of like queries fixes how many
    of them land in any band of a coordinate, such as the last decades
    before s = 1, and a design shared by all seeds also fixes how bands of
    different axes combine; so the share of queries that hit a slow or
    failing region, and with it the cost of a batch, barely depends on the
    seed.
    """
    strata = design.permuted(np.tile(np.arange(n), (dim, 1)), axis=1).T
    return (strata + rng.random((n, dim))) / n


def q_ud_formula(eta1: float, s: float) -> float:
    """Unambiguous-discrimination cost, straight from its three regimes."""
    lo_, hi_ = min(eta1, 1.0 - eta1), max(eta1, 1.0 - eta1)
    if lo_ <= s * s / (1.0 + s * s):
        return lo_ + s * s * hi_
    return 2.0 * math.sqrt(eta1 * (1.0 - eta1)) * s


def make_batch(seed: int) -> list[tuple]:
    """The seeded queries of one solver-sweep batch, in the order run.

    The queries of each kind are spread evenly over the batch, so any
    stretch of it has the call mix.  Every ``EDGE_EVERY``-th query of each
    point kind is an edge query, so the edge share is exactly
    ``EDGE_SHARE``.  Which parameters of an edge query sit at an edge
    cycles through all 15 nonempty subsets; the edge and the log-uniform
    distance to it come from the query's coordinates.  The edge queries
    of a kind draw their coordinates as one Latin hypercube, and so do its
    interior queries.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    design = np.random.Generator(np.random.Philox(key=_DESIGN_KEY))
    slots = []
    for kind in POINT_KINDS + SWEEP_KINDS:
        n = CALL_MIX[kind] * MIX_UNITS
        for j in range(n):
            edge = kind in POINT_KINDS and j % EDGE_EVERY == 0
            # The j-th of n queries of a kind sits at the fraction (j + 1/2) / n.
            slots.append(((j + 0.5) / n, kind, 1 + (j // EDGE_EVERY) % 15 if edge else 0))
    slots.sort()
    coords = {}
    for group in sorted({(kind, mask > 0) for _, kind, mask in slots}):
        n = sum((kind, mask > 0) == group for _, kind, mask in slots)
        coords[group] = iter(_latin(design, rng, n))
    batch = []
    for _, kind, mask in slots:
        eta1, s, frac, budget_frac = _params(next(coords[kind, mask > 0]), mask)
        if kind == "qmin_at":
            batch.append((kind, eta1, s, frac * s))
        elif kind == "qmin_curve":
            batch.append((kind, s, frac * s))
        elif kind == "tradeoff_curve":
            batch.append((kind, eta1, s))
        else:
            batch.append((kind, eta1, s, budget_frac * q_ud_formula(eta1, s)))
    return batch


# ---------------------------------------------------------------------------
# execution


def call(statesep, query: tuple):
    """Run one query through the package; returns a plain, comparable result.

    Looks every function up on its module at call time, so wrappers
    installed by the tracer see the call.  A sweep comes back as the bytes
    of a float64 array with one row per sample.
    """
    solvers = statesep.solvers
    kind = query[0]
    if kind == "qmin_at":
        _, eta1, s, sp = query
        q, pt = solvers.qmin_at(statesep.Priors.of(eta1), statesep.OverlapSpec(s, sp))
        return (float(q), pt.q1, pt.q2)
    if kind == "max_separation":
        _, eta1, s, budget = query
        sp, theta = solvers.max_separation(statesep.Priors.of(eta1), s, budget)
        return (float(sp), float(theta))
    if kind == "tradeoff_at":
        _, eta1, s, budget = query
        smp = solvers.tradeoff_at(statesep.Priors.of(eta1), s, budget)
        return (float(smp.s_prime), float(smp.q))
    if kind == "max_clones":
        _, eta1, s, budget = query
        return (float(solvers.max_clones(s, budget, statesep.Priors.of(eta1))),)
    if kind == "qmin_curve":
        _, s, sp = query
        samples = solvers.qmin_curve(statesep.OverlapSpec(s, sp), SWEEP_SAMPLES)
        return np.array([(m.eta1, m.q_min, m.point.q1, m.point.q2) for m in samples]).tobytes()
    if kind == "tradeoff_curve":
        _, eta1, s = query
        samples = solvers.tradeoff_curve(statesep.Priors.of(eta1), s, SWEEP_SAMPLES)
        return np.array([(float(m.q), m.s_prime) for m in samples]).tobytes()
    raise ValueError(f"unknown query kind {kind!r}")


def outcome(statesep, query: tuple):
    """``("ok", result)`` or ``("raised", exception class name)``."""
    try:
        return ("ok", call(statesep, query))
    except Exception as exc:  # every failure mode is data for the referee
        return ("raised", type(exc).__name__)


# ---------------------------------------------------------------------------
# referee
#
# The minimum failure Q_min(eta1, s, s') is computed here from the
# constraint alone: the region sqrt(p1 p2) s' + sqrt(q1 q2) >= s is
# convex, so on its lower boundary q2(q1), q1 in [vertex, 1], the objective
# eta1 q1 + eta2 q2 (eta1 <= 1/2, by the swap symmetry) is unimodal and a
# golden-section search finds its minimum.  Every point the search visits
# lies on the curve, so the result never undercuts the true minimum.


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 64


def _residual(q1, q2, s, beta):
    """Unitarity residual sqrt(p1 p2) beta + sqrt(q1 q2) - s, from its definition."""
    return beta * np.sqrt(np.maximum((1.0 - q1) * (1.0 - q2), 0.0)) + np.sqrt(np.maximum(q1 * q2, 0.0)) - s


def lower_q2(q1, s, beta):
    """The lower-boundary q2 of the constraint at q1, in closed form.

    With q2 = sin(psi)**2 the constraint reads A cos(psi) + B sin(psi) = s,
    A = beta sqrt(1 - q1), B = sqrt(q1); the smaller root is
    psi = atan2(B, A) - arccos(s / R), R = hypot(A, B).  The arccos is
    taken as 2 arcsin(sqrt((R - s) / 2R)) with R**2 - s**2 expanded, which
    keeps it accurate where s / R is close to 1.
    """
    a, b = beta * np.sqrt(1.0 - q1), np.sqrt(q1)
    r = np.hypot(a, b)
    r2_minus_s2 = q1 * (1.0 - beta) * (1.0 + beta) - (s - beta) * (s + beta)
    half = np.sqrt(np.clip(r2_minus_s2 / ((r + s) * 2.0 * r), 0.0, 1.0))
    psi = np.arctan2(b, a) - 2.0 * np.arcsin(half)
    return np.sin(np.maximum(psi, 0.0)) ** 2


def qmin_ref(eta1, s, sp) -> np.ndarray:
    """Minimum of eta1 q1 + eta2 q2 over the constraint curve, elementwise."""
    eta1, s, sp = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (eta1, s, sp)))
    e = np.minimum(eta1, 1.0 - eta1)

    def objective(q1):
        return e * q1 + (1.0 - e) * lower_q2(q1, s, sp)

    with np.errstate(all="ignore"):  # NaN answers give NaN and are rejected
        lo = (s - sp) / (1.0 - sp)  # the vertex, where q1 = q2
        hi = np.ones_like(lo)
        best = np.minimum(objective(lo), objective(hi))
        c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        fc, fd = objective(c), objective(d)
        for _ in range(_GOLDEN_STEPS):
            best = np.minimum(best, np.minimum(fc, fd))
            left = fc < fd
            lo, hi = np.where(left, lo, c), np.where(left, d, hi)
            probe = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
            fp = objective(probe)
            c, d = np.where(left, probe, d), np.where(left, c, probe)
            fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        return np.minimum(best, np.minimum(fc, fd))


def _rows(res: bytes, width: int) -> np.ndarray:
    return np.frombuffer(res, dtype=float).reshape(-1, width)


def _monotone(values: np.ndarray, direction: float, tol: float) -> bool:
    return bool(np.all(direction * np.diff(values) >= -tol))


def _minima_needed(query: tuple, res) -> list[tuple[float, float, float]]:
    """The (eta1, s, s') whose minimum failure the checks of an answer use."""
    kind = query[0]
    if kind == "qmin_at":
        return [query[1:]]
    if kind in ("max_separation", "tradeoff_at"):
        _, eta1, s, _ = query
        return [(eta1, s, res[0])] if 0.0 < res[0] <= s else []
    if kind == "max_clones":
        _, eta1, s, _ = query
        n = res[0]
        return [(eta1, s, s**n), (eta1, s, s ** (n + 1))] if 1 <= n < math.inf else []
    if kind == "qmin_curve":
        _, s, sp = query
        return [(e, s, sp) for e in _rows(res, 4)[:, 0]]
    if kind == "tradeoff_curve":
        _, eta1, s = query
        return [(eta1, s, sp) for sp in _rows(res, 2)[:, 1]]
    raise ValueError(f"unknown query kind {kind!r}")


def _accepted(query: tuple, res, qmin: np.ndarray) -> bool:
    """Whether an answer passes the referee, given the minima it asked for."""
    kind = query[0]
    if kind == "qmin_at":
        _, eta1, s, sp = query
        q, q1, q2 = res
        if not (0.0 <= q1 <= 1.0 and 0.0 <= q2 <= 1.0):
            return False
        if abs(eta1 * q1 + (1.0 - eta1) * q2 - q) > RESIDUAL_TOL:
            return False
        if sp == s:
            return q == 0.0
        # On the curve, and no higher than its minimum.
        return abs(_residual(q1, q2, s, sp)) <= RESIDUAL_TOL and q <= qmin[0] + RESIDUAL_TOL
    if kind == "max_separation":
        # The minimum failure decreases in s', so s' > 0 must spend the
        # budget exactly, and s' = 0 must fit in it.
        _, eta1, s, budget = query
        sp = res[0]
        if sp == 0.0:
            return q_ud_formula(eta1, s) <= budget + ROUND_TRIP_TOL
        return 0.0 < sp <= s and abs(qmin[0] - budget) <= ROUND_TRIP_TOL
    if kind == "tradeoff_at":
        _, eta1, s, budget = query
        sp, q_found = res
        # Budgets beyond the discrimination cost are not spent.
        if abs(q_found - min(budget, q_ud_formula(eta1, s))) > ROUND_TRIP_TOL:
            return False
        if sp == 0.0:
            return q_ud_formula(eta1, s) <= q_found + ROUND_TRIP_TOL
        return 0.0 < sp <= s and abs(qmin[0] - q_found) <= ROUND_TRIP_TOL
    if kind == "max_clones":
        # n clones fit iff Q_min at s**n fits the budget; n + 1 must not.
        _, eta1, s, budget = query
        n = res[0]
        if math.isinf(n):
            return q_ud_formula(eta1, s) <= budget + RESIDUAL_TOL
        return n >= 1 and n == int(n) and qmin[0] <= budget + RESIDUAL_TOL and qmin[1] > budget - RESIDUAL_TOL
    if kind == "qmin_curve":
        # eta1 and Q_min nonincreasing, each sample on the curve, its
        # objective consistent, and no higher than the minimum at its eta1.
        _, s, sp = query
        e, q, q1, q2 = _rows(res, 4).T
        return (
            _monotone(e, -1.0, 1e-10)
            and _monotone(q, -1.0, 1e-12)
            and bool(np.all(np.abs(_residual(q1, q2, s, sp)) <= RESIDUAL_TOL))
            and bool(np.all(np.abs(e * q1 + (1.0 - e) * q2 - q) <= RESIDUAL_TOL))
            and bool(np.all(q <= qmin + RESIDUAL_TOL))
        )
    if kind == "tradeoff_curve":
        # From s' = s at no cost down to s' = 0 at the discrimination cost,
        # every sample at the minimum failure of its s'.
        _, eta1, s = query
        q, sp = _rows(res, 2).T
        return (
            _monotone(q, 1.0, 1e-12)
            and _monotone(sp, -1.0, 1e-12)
            and sp[0] == s
            and sp[-1] == 0.0
            and abs(q[-1] - q_ud_formula(eta1, s)) <= RESIDUAL_TOL
            and bool(np.all(np.abs(q - qmin) <= ROUND_TRIP_TOL))
        )
    raise ValueError(f"unknown query kind {kind!r}")


def judge(queries: list[tuple], outs: list[tuple]) -> list[str]:
    """Classify each query as ``answered``, ``refused`` or ``failed``.

    A ``NumericError`` is a refusal, which the package's correctness aim
    allows; any other exception, or an answer the referee rejects, is a
    failure.  An answer the referee cannot even read (wrong shape, NaN
    where a number belongs) is rejected.  The referee calls nothing in the
    package: the minima its checks need are computed in one vectorized
    pass of :func:`qmin_ref`.
    """
    needed: list[tuple[float, float, float]] = []
    spans: list[tuple[int, int] | None] = []
    for query, (status, res) in zip(queries, outs):
        try:
            triples = _minima_needed(query, res) if status == "ok" else []
        except Exception:  # unreadable answer
            spans.append(None)
            continue
        spans.append((len(needed), len(triples)))
        needed.extend(triples)
    qmin = qmin_ref(*np.array(needed, dtype=float).reshape(-1, 3).T)
    verdicts = []
    for query, (status, res), span in zip(queries, outs, spans):
        if status == "raised":
            verdicts.append("refused" if res == "NumericError" else "failed")
            continue
        try:
            ok = span is not None and _accepted(query, res, qmin[span[0] : span[0] + span[1]])
        except Exception:  # the answer could not be confirmed
            ok = False
        verdicts.append("answered" if ok else "failed")
    return verdicts
