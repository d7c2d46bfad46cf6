"""Numeric cross-validation of exact results.

The oracle never overrides the exact engine: it samples the map along
computed windows at growing radii and reports whether the values converge
to the exact limits, and it probes for bounded images at large arguments.
Fractional powers are avoided entirely by parameterizing x = t^mult with
integer t.  Branch-limit samples are evaluated in exact rational arithmetic
at those integer points and only the final comparison is floated: at radius
1e8 the monomials of a degree-4 map reach 1e16 while the residual signal is
1e-8, far below double precision, so a plain floating evaluation would
report cancellation noise instead of the limit.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from .algebra import MapPair, Scalar
from .errors import PreconditionFailed
from .puiseux import ParamSeries

DEFAULT_RADII = (1e3, 1e5, 1e8)
DEFAULT_TOL = 1e-6
PROBE_BOUND = 1e3  # an image value below this in modulus counts as bounded
DEFAULT_SEED = 20101


class SampleReport(NamedTuple):
    radii: List[float]
    errors: List[float]
    converged: bool
    target: Tuple[complex, complex]


def _map_along_window(
    f: MapPair, phi: ParamSeries, c: Scalar, radius: float
) -> Tuple[complex, complex]:
    """The map at x = t^mult, y = phi(x, c), for the integer t >= 2 nearest
    radius^(1/mult): computed exactly, floated only at the end."""
    m = phi.mult
    t = Fraction(max(2, round(radius ** (1.0 / m))))
    yv = Scalar.of(0)
    for k, coeff in phi.steps:
        yv = yv + coeff * Scalar.of(t ** (m - k))
    yv = yv + c * Scalar.of(t ** (m - phi.param_index))
    xv = Scalar.of(t ** m)
    return f.p.evaluate(xv, yv).to_complex(), f.q.evaluate(xv, yv).to_complex()


def branch_limit_sample(
    f: MapPair,
    phi: ParamSeries,
    c: Scalar,
    target: Tuple[complex, complex],
    radii: Sequence[float] = DEFAULT_RADII,
    tol: float = DEFAULT_TOL,
) -> SampleReport:
    """Evaluate the map along the window at growing radii against a target.

    Each radius r picks the integer t nearest r^(1/mult), the sample point
    is x = t^mult exactly, and the map value there is computed in exact
    rational arithmetic before floating the comparison.  The error at each
    radius is the larger of the two coordinates' errors, relative when the
    target coordinate is large.  Convergence requires monotone decrease
    over the last three radii and a final error below the tolerance.
    """
    if not radii or list(radii) != sorted(radii):
        raise PreconditionFailed("radii must be nonempty and increase")
    errors: List[float] = []
    for r in radii:
        pv, qv = _map_along_window(f, phi, c, r)
        err = max(
            abs(pv - target[0]) / max(1.0, abs(target[0])),
            abs(qv - target[1]) / max(1.0, abs(target[1])),
        )
        errors.append(err)
    tail = errors[-3:]
    monotone = all(a >= b for a, b in zip(tail, tail[1:]))
    converged = monotone and errors[-1] <= tol
    return SampleReport(list(radii), errors, converged, target)


class ProbeReport(NamedTuple):
    bounded_fraction: float
    clusters: List[Tuple[complex, complex]]


def properness_probe(
    f: MapPair,
    n_samples: int,
    radius: float,
    aligned: Sequence[Tuple[ParamSeries, Scalar]] = (),
    seed: int = DEFAULT_SEED,
) -> ProbeReport:
    """Sample large source points and look for bounded image values.

    Random directions almost never hit a bounded-image branch, so the probe
    also walks directions aligned to the supplied windows.  The report lists
    the image values found below ``PROBE_BOUND``; an empty exact value set
    should produce no clusters as the radius grows.
    """
    if n_samples <= 0:
        raise PreconditionFailed("need a positive sample count")
    rng = random.Random(seed)
    bounded = 0
    clusters: List[Tuple[complex, complex]] = []
    total = 0
    for _ in range(n_samples):
        ang1 = 2 * math.pi * rng.random()
        ang2 = 2 * math.pi * rng.random()
        split = rng.random()
        xv = radius * split * cmath.exp(1j * ang1)
        yv = radius * (1 - split) * cmath.exp(1j * ang2)
        total += 1
        try:
            pv = f.p.evaluate_complex(xv, yv)
            qv = f.q.evaluate_complex(xv, yv)
        except OverflowError:
            continue
        if max(abs(pv), abs(qv)) < PROBE_BOUND:
            bounded += 1
            clusters.append((pv, qv))
    for phi, c in aligned:
        total += 1
        pv, qv = _map_along_window(f, phi, c, radius)
        if max(abs(pv), abs(qv)) < PROBE_BOUND:
            bounded += 1
            clusters.append((pv, qv))
    return ProbeReport(bounded / total, clusters)
