"""Exact degrees-of-freedom accounting for supersymbol constructions.

Everything here is integer or Fraction arithmetic; floats only appear in
rendering helpers.  Rank predictions are per receiver and per interferer so
that numerical measurements can be checked term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .patterns import GroupingConfig, grouped_length

__all__ = [
    "ReceiverPrediction",
    "ReductionRatio",
    "rank_predictions",
    "sum_dof_flat",
    "sum_dof_grouped",
    "config_sum_dof",
    "per_user_dof",
    "reduction_ratio",
    "render_rational",
    "render_decimal",
]


# ======================================================================
# Rank predictions
# ======================================================================

@dataclass(frozen=True)
class ReceiverPrediction:
    """Predicted effective-matrix ranks at one receiver.

    ``per_interferer`` maps a 1-based (position, group) transmitter label to
    its predicted interference rank; ``kinds`` flags each entry as "IUI"
    (same group) or "IGI" (other group).  The slot accounting identity
    desired + iui_total + igi_total == length holds for every receiver.
    """

    label: tuple[int, int]
    desired: int
    iui_total: int
    igi_total: int
    per_interferer: dict[tuple[int, int], int]
    kinds: dict[tuple[int, int], str]
    length: int


def rank_predictions(config: GroupingConfig) -> list[ReceiverPrediction]:
    """Predicted ranks of desired and interfering signal spaces per receiver.

    For receiver (k, i), with E_k = prod over p != k of (M_E_p - 1) and
    G_i = prod over q != i of (M_G_q - 1):

    * desired: M'_{k,i} * E_k * G_i  (all own streams stay separable),
    * an in-group interferer (k', i) aligns to M_G_i * E_k' * G_i,
    * the same-position user of another group (k, i') to M_E_k * E_k * G_i',
    * any other user (k', i') to E_k' * G_i'.
    """
    elem = config.element_counts
    grp = config.group_mode_counts
    ke = config.users_per_group
    kg = config.num_groups
    length = grouped_length(config)

    def e_others(k: int) -> int:
        return prod(elem[p] - 1 for p in range(ke) if p != k)

    def g_others(i: int) -> int:
        return prod(grp[q] - 1 for q in range(kg) if q != i)

    out = []
    for i in range(kg):
        for k in range(ke):
            used = elem[k] * grp[i]
            desired = used * e_others(k) * g_others(i)
            per: dict[tuple[int, int], int] = {}
            kinds: dict[tuple[int, int], str] = {}
            for i2 in range(kg):
                for k2 in range(ke):
                    if (k2, i2) == (k, i):
                        continue
                    lab = (k2 + 1, i2 + 1)
                    if i2 == i:
                        per[lab] = grp[i] * e_others(k2) * g_others(i)
                        kinds[lab] = "IUI"
                    elif k2 == k:
                        per[lab] = elem[k] * e_others(k) * g_others(i2)
                        kinds[lab] = "IGI"
                    else:
                        per[lab] = e_others(k2) * g_others(i2)
                        kinds[lab] = "IGI"
            iui = sum(r for lab, r in per.items() if kinds[lab] == "IUI")
            igi = sum(r for lab, r in per.items() if kinds[lab] == "IGI")
            out.append(
                ReceiverPrediction(
                    label=(k + 1, i + 1),
                    desired=desired,
                    iui_total=iui,
                    igi_total=igi,
                    per_interferer=per,
                    kinds=kinds,
                    length=length,
                )
            )
    return out


# ======================================================================
# Sum DoF
# ======================================================================

def sum_dof_flat(mode_counts) -> Fraction:
    """Sum DoF of the flat construction over the given mode counts.

    Equals (sum of M_k / (M_k - 1)) / (1 + sum of 1 / (M_k - 1)), computed
    in integers scaled by P = prod(M_k - 1): desired dimensions over slots.
    """
    counts = tuple(int(m) for m in mode_counts)
    if any(m < 2 for m in counts):
        raise ValueError("every mode count must be >= 2")
    block = prod(m - 1 for m in counts)
    shares = [block // (m - 1) for m in counts]
    return Fraction(sum(m * s for m, s in zip(counts, shares)), block + sum(shares))


def sum_dof_grouped(element_counts, group_mode_counts) -> Fraction:
    """Sum DoF of the two-level construction.

    The product of the flat sum DoF of the element counts and of the group
    counts.  A single group (group count list (1,)) has no group level and
    contributes a factor of 1.
    """
    elem = tuple(int(m) for m in element_counts)
    grp = tuple(int(m) for m in group_mode_counts)
    if any(m < 2 for m in elem):
        raise ValueError("every element mode count must be >= 2")
    if grp == (1,):
        return sum_dof_flat(elem)
    if any(m < 2 for m in grp):
        raise ValueError("group mode counts must be >= 2 when grouping")
    return sum_dof_flat(elem) * sum_dof_flat(grp)


def config_sum_dof(config: GroupingConfig) -> Fraction:
    """Sum DoF of a validated config."""
    return sum_dof_grouped(config.element_counts, config.group_mode_counts)


def per_user_dof(config: GroupingConfig) -> list[Fraction]:
    """Per-user DoF, group-major order: desired rank over supersymbol length."""
    return [
        Fraction(p.desired, p.length) for p in rank_predictions(config)
    ]


# ======================================================================
# Length reduction from grouping
# ======================================================================

@dataclass(frozen=True)
class ReductionRatio:
    """Supersymbol length reduction when sqrt(K) groups replace K users.

    ``ratio`` is flat over grouped slot count; ``asymptotic_order`` is the
    closed-form growth term (sqrt(M)-1)^(K - 2 sqrt(K)) * (sqrt(M)+1)^K.
    """

    modes: int
    num_users: int
    flat_slots: int
    grouped_slots: int
    ratio: Fraction
    asymptotic_order: Fraction


def reduction_ratio(modes: int, num_users: int) -> ReductionRatio:
    """Length reduction for K same-mode users regrouped as sqrt(K) groups.

    Both ``modes`` and ``num_users`` must be perfect squares (modes >= 4 so
    that the element and group levels keep at least two modes each).  The
    flat schedule needs (M-1)^K + K (M-1)^(K-1) slots; the grouped one
    squares the flat length of sqrt(K) users with sqrt(M) modes.  A single
    user cannot be grouped, so K = 1 returns the flat length for both and
    a ratio of 1.
    """
    M = int(modes)
    K = int(num_users)
    rm = isqrt(M)
    rk = isqrt(K)
    if rm * rm != M or M < 4:
        raise ValueError("mode count must be a perfect square >= 4")
    if rk * rk != K or K < 1:
        raise ValueError("user count must be a perfect square >= 1")

    flat_slots = (M - 1) ** K + K * (M - 1) ** (K - 1)
    if K == 1:
        grouped_slots = flat_slots
        order = Fraction(1)
    else:
        half = (rm - 1) ** rk + rk * (rm - 1) ** (rk - 1)
        grouped_slots = half * half
        order = Fraction((rm + 1) ** K) * Fraction(rm - 1) ** (K - 2 * rk)
    return ReductionRatio(
        modes=M,
        num_users=K,
        flat_slots=flat_slots,
        grouped_slots=grouped_slots,
        ratio=Fraction(flat_slots, grouped_slots),
        asymptotic_order=order,
    )


# ======================================================================
# Rendering
# ======================================================================

def render_rational(value: Fraction) -> str:
    """'p/q', always showing the denominator, even when it is 1."""
    return f"{value.numerator}/{value.denominator}"


def render_decimal(value: Fraction) -> str:
    """Decimal rendering with 6 significant digits, for CSV plotting."""
    return f"{float(value):.6g}"
