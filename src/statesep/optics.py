"""Six-port linear-optics realization of equal-prior state separation.

A single photon in three modes carries a dual-rail qubit plus a failure
port: the basis states |1>, |2>, |3> put the photon in the matching input
port, and a click of the detector on output port 3' signals failure.  The
protocol unitary maps

    |1>                          -> sqrt(p)|1'> + sqrt(q)|3'>
    s|1> + sqrt(1-s^2)|2>        -> sqrt(p)(s'|1'> + sqrt(1-s'^2)|2'>) + sqrt(q)|3'>

with q = (s - s')/(1 - s'), the equal-prior optimum, and factors into two
beam splitters (a 1-3 mixer followed by a 2-3 mixer) whose matrix entries
are the transmission/reflection coefficients.

The matrices are real; mode amplitudes are kept complex for forward
compatibility and for negative-control tests.  Photodetection is sampled
with a counter-based Philox generator keyed by the caller's seed, so
counts are reproducible and independent streams are available by keying
disjoint integers.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, _Value, sqrt_clamped

__all__ = [
    "ModeState",
    "Interferometer",
    "ShotCounts",
    "protocol_input",
    "build_interferometer",
    "apply",
    "simulate",
    "certify_separation",
]

_MATRIX_TOL = 1e-12


class _ArrayValue(_Value):
    """``_Value`` over NumPy array fields: ``==`` compares them whole, and no hash.

    A tuple ``==`` over arrays would ask an elementwise array for its truth
    value, and an array is mutable, so these values are unhashable.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return all(map(np.array_equal, self._values(), other._values()))
        return NotImplemented

    __hash__ = None


class ModeState(_ArrayValue):
    """Single-photon state over the three ports, as complex amplitudes."""

    __slots__ = ("amplitudes",)
    amplitudes: np.ndarray

    def __init__(self, amplitudes: np.ndarray) -> None:
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (3,):
            raise DomainError(f"expected 3 mode amplitudes, got shape {amps.shape}")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > 1e-12:
            raise DomainError(f"mode state must be normalized, |amps|^2 = {norm2!r}")
        self._fill(amps)


class Interferometer(_ArrayValue):
    """Protocol unitary with its two beam-splitter factors.

    Instances produced by :func:`build_interferometer` satisfy
    u = bs1 @ bs2 and unitarity to 1e-12.  The fields are deliberately not
    revalidated here so that corrupted devices can be constructed as
    negative controls; :func:`certify_separation` is what checks them.
    """

    __slots__ = ("u", "bs1", "bs2", "s", "s_prime")
    u: np.ndarray
    bs1: np.ndarray
    bs2: np.ndarray
    s: float
    s_prime: float

    def __init__(
        self, u: np.ndarray, bs1: np.ndarray, bs2: np.ndarray, s: float, s_prime: float
    ) -> None:
        self._fill(u, bs1, bs2, s, s_prime)

    @property
    def q_expected(self) -> float:
        """Equal-prior failure probability the device is built for."""
        return (self.s - self.s_prime) / (1.0 - self.s_prime)


class ShotCounts(_Value):
    """Detector tallies of a photon-counting run."""

    __slots__ = ("n1", "n2", "n3", "shots", "seed")
    n1: int
    n2: int
    n3: int
    shots: int
    seed: int

    def __init__(self, n1: int, n2: int, n3: int, shots: int, seed: int) -> None:
        if n1 + n2 + n3 != shots:
            raise DomainError("detector counts must sum to the number of shots")
        self._fill(n1, n2, n3, shots, seed)

    @property
    def empirical_q(self) -> float:
        """Failure-rate estimate n3/shots."""
        return self.n3 / self.shots


def protocol_input(s: float, input_index: int) -> ModeState:
    """The two protocol input states: |1> and s|1> + sqrt(1-s^2)|2>."""
    if input_index == 1:
        return ModeState(np.array([1.0, 0.0, 0.0], dtype=complex))
    if input_index == 2:
        return ModeState(np.array([s, math.sqrt(1.0 - s * s), 0.0], dtype=complex))
    raise DomainError(f"input_index must be 1 or 2, got {input_index!r}")


def build_interferometer(s: float, s_prime: float) -> Interferometer:
    """Construct the separation unitary and its beam-splitter factors.

    Requires 0 <= s_prime <= s < 1; at s_prime = s every radical collapses
    and the device is the identity (nothing to separate, nothing fails).
    """
    if not 0.0 <= s < 1.0:
        raise DomainError(f"s must lie in [0, 1), got {s!r}")
    if not 0.0 <= s_prime <= s:
        raise DomainError(f"s_prime must lie in [0, s], got {s_prime!r} (s={s!r})")

    d = s - s_prime
    m1 = np.array(
        [
            [math.sqrt((1.0 - s) / (1.0 - s_prime)), 0.0, -math.sqrt(d / (1.0 - s_prime))],
            [0.0, 1.0, 0.0],
            [math.sqrt(d / (1.0 - s_prime)), 0.0, math.sqrt((1.0 - s) / (1.0 - s_prime))],
        ]
    )
    m2 = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.sqrt((1.0 + s_prime) / (1.0 + s)), -math.sqrt(d / (1.0 + s))],
            [0.0, math.sqrt(d / (1.0 + s)), math.sqrt((1.0 + s_prime) / (1.0 + s))],
        ]
    )
    u = np.array(
        [
            [
                math.sqrt((1.0 - s) / (1.0 - s_prime)),
                -d / math.sqrt((1.0 - s_prime) * (1.0 + s)),
                -math.sqrt((1.0 + s_prime) * d / ((1.0 - s_prime) * (1.0 + s))),
            ],
            [
                0.0,
                math.sqrt((1.0 + s_prime) / (1.0 + s)),
                -math.sqrt(d / (1.0 + s)),
            ],
            [
                math.sqrt(d / (1.0 - s_prime)),
                math.sqrt((1.0 - s) * d / ((1.0 + s) * (1.0 - s_prime))),
                math.sqrt((1.0 - s) * (1.0 + s_prime) / ((1.0 - s_prime) * (1.0 + s))),
            ],
        ]
    )
    return Interferometer(u=u, bs1=m1, bs2=m2, s=s, s_prime=s_prime)


def apply(itf: Interferometer, st: ModeState) -> ModeState:
    """Propagate a single-photon state through the interferometer."""
    return ModeState(itf.u @ st.amplitudes)


def _output_intensities(itf: Interferometer, input_index: int) -> np.ndarray:
    """Per-port detection probabilities, tolerant of non-unitary devices.

    Skips ModeState validation and renormalizes, the way real detectors
    report relative intensities; certification needs this to keep running
    on corrupted devices it is about to flag.  An intensity at or below
    ``_MATRIX_TOL**2`` is rounding residue of a zero amplitude, as the
    exact checks count it, so it is set to exactly zero.
    """
    out = itf.u @ protocol_input(itf.s, input_index).amplitudes
    probs = np.abs(out) ** 2
    probs = np.where(probs <= _MATRIX_TOL**2, 0.0, probs)
    return probs / probs.sum()


def simulate(itf: Interferometer, input_index: int, shots: int, seed: int) -> ShotCounts:
    """Photon-counting run: i.i.d. detector outcomes for one input state.

    Outcome probabilities are the exact output-port intensities; sampling
    uses one multinomial draw from Philox keyed by ``seed``, so the counts
    are deterministic for a given seed.
    """
    if shots < 1:
        raise DomainError(f"shots must be at least 1, got {shots!r}")
    probs = _output_intensities(itf, input_index)
    rng = np.random.Generator(np.random.Philox(key=seed))
    n1, n2, n3 = (int(c) for c in rng.multinomial(shots, probs))
    return ShotCounts(n1=n1, n2=n2, n3=n3, shots=shots, seed=seed)


def _chi2_pvalue(counts: np.ndarray, probs: np.ndarray, shots: int) -> float:
    """Goodness-of-fit p-value across detectors, zero-probability cells dropped."""
    keep = probs > 0.0
    expected = probs[keep] * shots
    observed = counts[keep].astype(float)
    # chisquare requires matching totals; renormalize expected onto the
    # observed total (off only when a zero-probability cell fired, which
    # the count check catches separately).
    expected *= observed.sum() / expected.sum()
    stat = float(np.sum((observed - expected) ** 2 / expected))
    # Three detectors leave at most two degrees of freedom, where the
    # chi-square survival function has closed forms.  A single live cell
    # (no degree of freedom) has probability 1.0 and every count, so its
    # statistic is exactly 0 and the last line gives p = 1.
    if observed.size == 2:
        return math.erfc(math.sqrt(stat / 2.0))
    return math.exp(-stat / 2.0)


def _exact_deviations(
    itf: Interferometer,
) -> tuple[tuple[float, float, float], tuple[np.ndarray, np.ndarray]]:
    """The device's exact checks, as largest absolute deviations.

    Returns (unitarity, factorization, output amplitudes) deviations, and
    the two protocol outputs the amplitudes were read from.  The outputs
    are the bare products u @ input, not ``apply``'s validated states, so
    a corrupted device is measured rather than refused.
    """
    q = itf.q_expected
    p = 1.0 - q
    sp = itf.s_prime
    unitarity_dev = float(np.max(np.abs(itf.u.T.conj() @ itf.u - np.eye(3))))
    factorization_dev = float(np.max(np.abs(itf.bs1 @ itf.bs2 - itf.u)))
    out1 = itf.u @ protocol_input(itf.s, 1).amplitudes
    out2 = itf.u @ protocol_input(itf.s, 2).amplitudes
    expected1 = np.array([math.sqrt(p), 0.0, math.sqrt(q)], dtype=complex)
    expected2 = np.array(
        [math.sqrt(p) * sp, math.sqrt(p) * math.sqrt(1.0 - sp * sp), math.sqrt(q)],
        dtype=complex,
    )
    amplitude_dev = float(
        max(np.max(np.abs(out1 - expected1)), np.max(np.abs(out2 - expected2)))
    )
    return (unitarity_dev, factorization_dev, amplitude_dev), (out1, out2)


def certify_separation(itf: Interferometer, shots: int, seed: int) -> dict:
    """Certify a device: exact matrix checks plus photon-count statistics.

    Runs both protocol inputs through the device (with seeds ``seed`` and
    ``seed + 1``), and reports a JSON-compatible tree with the exact
    checks (unitarity, beam-splitter factorization, output amplitudes,
    overlap of the renormalized success components) at 1e-12 and the
    empirical checks (failure rate within three binomial sigmas,
    chi-square across detectors at the 1% level).  Next to s = 1 the
    success components are short, and renormalizing them amplifies the
    amplitudes' deviation; the overlap's tolerance is then that amplified
    deviation instead of 1e-12.  The overall ``passed`` flag requires every
    check to hold, so a corrupted device fails.
    """
    if shots < 10_000:
        raise DomainError(f"certification needs at least 10^4 shots, got {shots!r}")
    s, sp = itf.s, itf.s_prime
    q = itf.q_expected

    (unitarity_dev, factorization_dev, amplitude_dev), (out1, out2) = _exact_deviations(itf)
    matrix_passed = unitarity_dev <= _MATRIX_TOL and factorization_dev <= _MATRIX_TOL
    succ1, succ2 = out1[:2], out2[:2]
    norm1 = sqrt_clamped(float(np.vdot(succ1, succ1).real))
    norm2 = sqrt_clamped(float(np.vdot(succ2, succ2).real))
    s_prime_tol = _MATRIX_TOL
    if norm1 > 0.0 and norm2 > 0.0:
        s_prime_measured = float(abs(np.vdot(succ1, succ2)) / (norm1 * norm2))
        # Renormalizing a branch of norm n moves it by up to 2*|d|/n for a
        # deviation d, and each branch deviates by at most
        # sqrt(2)*amplitude_dev, so the overlap of the renormalized
        # branches may be off by this much.  It exceeds _MATRIX_TOL only
        # where the branches are short: their norm is sqrt(p), small next
        # to s = 1.
        amplified = 2.0 * math.sqrt(2.0) * amplitude_dev * (1.0 / norm1 + 1.0 / norm2)
        s_prime_tol = max(_MATRIX_TOL, amplified)
    else:
        s_prime_measured = math.nan
    protocol_passed = (
        amplitude_dev <= _MATRIX_TOL and abs(s_prime_measured - sp) <= s_prime_tol
    )

    runs = []
    stats_passed = True
    for input_index, run_seed in ((1, seed), (2, seed + 1)):
        probs = _output_intensities(itf, input_index)
        counts = simulate(itf, input_index, shots, run_seed)
        tallies = np.array([counts.n1, counts.n2, counts.n3])
        sigma = math.sqrt(q * (1.0 - q) / shots)
        within = abs(counts.empirical_q - q) <= 3.0 * sigma
        pvalue = _chi2_pvalue(tallies, probs, shots)
        # A click in a zero-probability port is an exact-model violation.
        no_ghost_clicks = bool(np.all(tallies[probs == 0.0] == 0))
        chi2_ok = pvalue >= 0.01 and no_ghost_clicks
        stats_passed = stats_passed and within and chi2_ok
        runs.append(
            {
                "input_index": input_index,
                "seed": run_seed,
                "shots": shots,
                "counts": [counts.n1, counts.n2, counts.n3],
                "probabilities": [float(x) for x in probs],
                "empirical_q": counts.empirical_q,
                "expected_q": q,
                "three_sigma": 3.0 * sigma,
                "within_three_sigma": bool(within),
                "chi2_pvalue": pvalue,
                "chi2_passed": bool(chi2_ok),
            }
        )

    return {
        "s": s,
        "s_prime_target": sp,
        "q_expected": q,
        "matrix": {
            "unitarity_max_abs_dev": unitarity_dev,
            "factorization_max_abs_dev": factorization_dev,
            "tolerance": _MATRIX_TOL,
            "passed": bool(matrix_passed),
        },
        "protocol": {
            "max_amplitude_dev": amplitude_dev,
            "s_prime_from_amplitudes": s_prime_measured,
            "tolerance": _MATRIX_TOL,
            "passed": bool(protocol_passed),
        },
        "runs": runs,
        "passed": bool(matrix_passed and protocol_passed and stats_passed),
    }
