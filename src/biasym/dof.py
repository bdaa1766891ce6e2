"""Exact degrees-of-freedom accounting for supersymbol constructions.

Everything here is integer or Fraction arithmetic; floats only appear in
rendering helpers.  Rank predictions are per receiver and per interferer so
that numerical measurements can be checked term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .patterns import GroupingConfig, _flat_counts, _holds, _integer, flat_length, grouped_length

__all__ = [
    "ReceiverRanks",
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
class ReceiverRanks:
    """Effective-matrix ranks at one receiver, predicted or measured.

    ``per_interferer`` maps a 1-based (position, group) transmitter label to
    its interference rank; ``combined`` ranks all interference stacked and
    ``joint`` the desired block beside it.  An interferer is IUI when it
    shares the receiver's group and IGI otherwise.  Alignment holds when
    desired + combined == joint == length.
    """

    label: tuple[int, int]
    length: int
    desired: int
    per_interferer: dict[tuple[int, int], int]
    combined: int
    joint: int

    @property
    def iui_total(self) -> int:
        return sum(r for lab, r in self.per_interferer.items() if lab[1] == self.label[1])

    @property
    def igi_total(self) -> int:
        return sum(self.per_interferer.values()) - self.iui_total


def rank_predictions(config: GroupingConfig) -> list[ReceiverRanks]:
    """Predicted ranks of desired and interfering signal spaces per receiver.

    One product gives every rank.  User (k', i') holds the share
    S(k', i') = E_k' * G_i' of the slots, with E_k' = prod over p != k' of
    (M_E_p - 1) and G_i' = prod over q != i' of (M_G_q - 1).  Receiver
    (k, i) sees it at rank S(k', i') times M_E_k if k' = k and times M_G_i
    if i' = i: an element-level flat count times a group-level one.  At
    (k', i') = (k, i) this is the desired rank M'_{k,i} * E_k * G_i; an
    interferer is "IUI" exactly when it shares the group (i' = i).
    Aligned interference fills exactly the slots the desired signal leaves,
    so the combined rank is length - desired and the joint rank is length.
    """
    elem = config.element_counts
    grp = config.group_mode_counts
    e_share, g_share = _holds(elem), _holds(grp)
    users = [(k, i) for i in range(len(grp)) for k in range(len(elem))]
    share = {(k, i): e_share[k] * g_share[i] for k, i in users}
    length = grouped_length(config)

    out = []
    for k, i in users:
        per = {
            (k2 + 1, i2 + 1): share[k2, i2]
            * (elem[k] if k2 == k else 1) * (grp[i] if i2 == i else 1)
            for k2, i2 in users
        }
        desired = per.pop((k + 1, i + 1))
        out.append(ReceiverRanks(
            label=(k + 1, i + 1), length=length, desired=desired, per_interferer=per,
            combined=length - desired, joint=length,
        ))
    return out


# ======================================================================
# Sum DoF
# ======================================================================

def sum_dof_flat(mode_counts) -> Fraction:
    """Sum DoF of the flat construction over the given mode counts.

    Desired dimensions over slots.  User k sends one M_k-dimensional stream
    per slot of its hold segment, H_k = B / (M_k - 1) of them, where
    B = prod(M_k - 1) is the interleaving block.  The segments fill the
    L - B slots after the block, so sum M_k * H_k = K * B + (L - B) and the
    DoF is (L + (K - 1) * B) / L with L = ``flat_length``: the textbook
    (sum of M_k / (M_k - 1)) / (1 + sum of 1 / (M_k - 1)), and 1 for (1,).
    """
    counts = _flat_counts(mode_counts)
    length = flat_length(counts)
    return Fraction(length + (len(counts) - 1) * prod(m - 1 for m in counts), length)


def sum_dof_grouped(element_counts, group_mode_counts) -> Fraction:
    """Sum DoF of the two-level construction.

    The product of the flat sum DoF of the element counts and of the group
    counts.  A single group's level, the count list (1,), has flat sum DoF
    1, so the result is the flat sum DoF of the element counts.
    """
    return sum_dof_flat(element_counts) * sum_dof_flat(group_mode_counts)


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
    M = _integer(modes, "mode count must be an integer")
    K = _integer(num_users, "user count must be an integer")
    rm = isqrt(M)
    rk = isqrt(K)
    if rm * rm != M or M < 4:
        raise ValueError("mode count must be a perfect square >= 4")
    if rk * rk != K or K < 1:
        raise ValueError("user count must be a perfect square >= 1")

    flat_slots = flat_length([M] * K)
    grouped_slots = flat_length([rm] * rk) ** 2
    order = Fraction(1) if K == 1 else Fraction((rm + 1) ** K) * Fraction(rm - 1) ** (K - 2 * rk)
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
