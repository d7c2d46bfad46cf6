"""Classification of windows from their leading data, and the delta form.

A window is horizontal for a map component when that component tends to a
nonconstant finite limit function of the parameter (exponent zero, leading
polynomial of positive degree); dicritical when horizontal for one component
while neither exponent is positive; singular when the Jacobian's leading
polynomial has positive degree.  ``is_dicritical`` reads only P and Q.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .algebra import ZERO, Scalar, UniPoly
from .puiseux import LeadingData


class SeriesClass(NamedTuple):
    horizontal_p: bool
    horizontal_q: bool
    dicritical: bool
    singular: bool


def _horizontal(lead: LeadingData) -> Tuple[bool, bool]:
    hp = lead.p_exp == 0 and lead.p_lead.degree > 0
    return hp, lead.q_exp == 0 and lead.q_lead.degree > 0


def is_dicritical(lead: LeadingData) -> bool:
    """The dicritical flag, read off the P and Q fields alone (no Jacobian)."""
    return any(_horizontal(lead)) and max(lead.p_exp, lead.q_exp) == 0


def classify(lead: LeadingData) -> SeriesClass:
    """Flags computed literally from exponents and leading-degree data.

    A constant leading polynomial never qualifies as horizontal: the limit
    must genuinely vary with the parameter.
    """
    hp, hq = _horizontal(lead)
    return SeriesClass(hp, hq, is_dicritical(lead), lead.jac_lead.degree > 0)


class DeltaData(NamedTuple):
    """The combination a*p*q' - b*p'*q and its exponent balance.

    ``scaled_jac`` is mult times the Jacobian leading polynomial;
    ``exponent_lhs`` is p_exp + q_exp and ``exponent_rhs`` is
    2*mult - param_index + jac_exp.  When the two sides agree the delta form
    reproduces the scaled Jacobian lead up to one global sign.
    """

    delta: UniPoly
    scaled_jac: UniPoly
    exponent_lhs: int
    exponent_rhs: int


def delta(lead: LeadingData, param_index: int) -> DeltaData:
    """Compute the delta form of a window; judgment is left to the verifiers.

    With p = sum p_i s^i and q = sum q_j s^j, a*p*q' - b*p'*q is the sum of
    (a*j - b*i) * p_i * q_j * s^(i+j-1) over the coefficient pairs, one pass.
    """
    a, b = lead.p_exp, lead.q_exp
    pc, qc = lead.p_lead.coeffs, lead.q_lead.coeffs
    out = [ZERO] * max(len(pc) + len(qc) - 2, 0)
    for i, p_i in enumerate(pc):
        if p_i.is_zero():
            continue
        for j, q_j in enumerate(qc):
            w = a * j - b * i  # zero at i = j = 0, so i + j - 1 >= 0 below
            if w and not q_j.is_zero():
                out[i + j - 1] += p_i * q_j * Scalar.of(w)
    d = UniPoly.make(out)
    mj = lead.jac_lead.scale(Scalar.of(lead.mult))
    lhs = lead.p_exp + lead.q_exp
    rhs = 2 * lead.mult - param_index + lead.jac_exp
    return DeltaData(d, mj, lhs, rhs)
