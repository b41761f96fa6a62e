"""Resonance phase of the one-sided mode interactions.

When the equation is conjugated by the free propagator, a product of modes
``n_1, ..., n_{k+1}`` recombining into ``n = n_1 + ... + n_{k+1}`` picks up
the oscillation ``e^{it Phi}`` with

    Phi(n_1, ..., n_{k+1}) = -(n_1 + ... + n_{k+1})^alpha + sum_l n_l^alpha.

For positive frequencies and ``alpha >= 1`` the phase obeys the lower bound

    |Phi| >= (alpha - 1) * (largest n_l)^(alpha-1) * (second largest n_l),

so it never vanishes for ``alpha > 1``; that nonvanishing is what allows the
normal-form reduction to divide by Phi.  This module evaluates Phi exactly
(arbitrary-precision integers for integer alpha), certifies the lower bound
by exhaustive enumeration of the nonincreasing index tuples, and enumerates
the additive semigroup that confines the support of solutions.  The
certificate builds one table of the tuples' tails with their sums and power
sums, and checks each chunk of leading indices against suffixes of it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "PhaseTuple",
    "PhaseCertificate",
    "resonance_phase",
    "phase_lower_bound",
    "certify_phase_bound",
    "support_semigroup",
]

# relative slack for the bound check when alpha is not an integer: the bound
# itself is sharp, but floating powers are not
FLOAT_ALPHA_SLACK = 1e-9
# most bits the largest exact term ``((k+1) * index_cap)^alpha`` of an
# integer-alpha certificate may have; past it the exact powers dominate the
# run (k=1, cap=3: alpha 1e6, 3e6 bits, takes 1.6 s, and alpha 3e6, 9e6
# bits, 8 s)
MAX_EXACT_BITS = 2**22


def _is_integer_alpha(alpha: float) -> bool:
    return float(alpha).is_integer()


def resonance_phase(alpha: float, indices: Sequence[int]):
    """``Phi = -(sum n_l)^alpha + sum n_l^alpha``.

    Exact (Python integer) for integer alpha; floating point otherwise.
    """
    idx = [int(n) for n in indices]
    if not idx or any(n < 1 for n in idx):
        raise ValueError("indices must be a nonempty tuple of positive integers")
    if _is_integer_alpha(alpha):
        a = int(alpha)
        return -(sum(idx) ** a) + sum(n**a for n in idx)
    af = float(alpha)
    return -math.pow(sum(idx), af) + math.fsum(math.pow(n, af) for n in idx)


def phase_lower_bound(alpha: float, indices: Sequence[int]):
    """``(alpha - 1) * max^(alpha-1) * second_max`` over the index tuple."""
    idx = sorted((int(n) for n in indices), reverse=True)
    if len(idx) < 2 or idx[-1] < 1:
        raise ValueError("need at least two positive indices")
    if alpha < 1:
        raise ValueError("the bound requires alpha >= 1")
    if _is_integer_alpha(alpha):
        a = int(alpha)
        return (a - 1) * idx[0] ** (a - 1) * idx[1]
    return (float(alpha) - 1.0) * math.pow(idx[0], float(alpha) - 1.0) * idx[1]


@dataclass(frozen=True)
class PhaseTuple:
    """An index tuple with its phase value and certified lower bound."""

    indices: tuple
    alpha: float
    phi: float
    bound: float

    @classmethod
    def build(cls, alpha: float, indices: Sequence[int]) -> "PhaseTuple":
        t = tuple(int(n) for n in indices)
        return cls(indices=t, alpha=float(alpha),
                   phi=resonance_phase(alpha, t),
                   bound=phase_lower_bound(alpha, t))

    def satisfies_bound(self) -> bool:
        if _is_integer_alpha(self.alpha):
            return abs(self.phi) >= self.bound
        return abs(self.phi) >= self.bound * (1.0 - FLOAT_ALPHA_SLACK)


@dataclass(frozen=True)
class PhaseCertificate:
    alpha: float
    k: int
    index_cap: int
    passed: bool
    tuples_checked: int
    counterexample: Optional[tuple] = None

    def to_dict(self) -> dict:
        d = {
            "alpha": self.alpha,
            "k": self.k,
            "cap": self.index_cap,
            "pass": self.passed,
            "tuples_checked": self.tuples_checked,
        }
        if self.counterexample is not None:
            d["counterexample"] = list(self.counterexample)
        return d


def _nonincreasing_tuples(leads, k: int) -> np.ndarray:
    """Every row ``(l, r_1, ..., r_k)`` with ``l >= r_1 >= ... >= r_k >= 1``
    for ``l`` in ``leads``, as an ``int64`` array of ``k + 1`` columns.

    Rows come leading index by leading index, each block in the order of
    ``combinations_with_replacement(range(l, 0, -1), k)``.  The tuples are
    built level by level (Knuth, TAOCP 4A, 7.2.1.3): each level repeats a
    row once per value its last entry allows and appends those values,
    descending.
    """
    rows = np.asarray(leads, dtype=np.int64).reshape(-1, 1)
    for _ in range(k):
        last = rows[:, -1]
        # row i spans positions ends_i - last_i .. ends_i - 1 of the next
        # level, so its new entry at position g is ends_i - g
        ends = np.repeat(np.cumsum(last), last)
        rows = np.column_stack([np.repeat(rows, last, axis=0),
                                ends - np.arange(ends.size)])
    return rows


def _lead_chunks(k: int, index_cap: int):
    """Consecutive runs of leading indices ``1..index_cap`` whose blocks
    together hold no more tuples than the largest block,
    ``C(index_cap + k - 1, k)``."""
    largest = math.comb(index_cap + k - 1, k)
    first, rows = 1, 0
    for lead in range(1, index_cap + 1):
        size = math.comb(lead + k - 1, k)
        if rows + size > largest:
            yield np.arange(first, lead)
            first, rows = lead, 0
        rows += size
    yield np.arange(first, index_cap + 1)


@dataclass(frozen=True, eq=False)
class _TailTable:
    """Every nonincreasing k-tail ``r_1 >= ... >= r_k`` with entries in
    ``1..index_cap``, in the order of ``combinations_with_replacement(
    range(index_cap, 0, -1), k)``, with what the phase needs of each.

    ``tails`` holds the rows, ``sums`` their sums ``R``, ``power_sums``
    their ``P = sum r_i^alpha``, ``firsts`` their ``r_1``.  ``powers[m]`` is
    ``m^alpha`` for ``m <= (k+1) index_cap`` and ``bound_factors[l]`` is
    ``(alpha-1) l^(alpha-1)`` for ``l <= index_cap``.  The tails allowed
    under a leading index ``l`` (``r_1 <= l``) are the last
    ``suffix[l] = C(l+k-1, k)`` rows, in the order of the scalar scan.
    """

    alpha: float
    tails: np.ndarray
    sums: np.ndarray
    power_sums: np.ndarray
    firsts: np.ndarray
    suffix: np.ndarray
    powers: np.ndarray
    bound_factors: np.ndarray

    @classmethod
    def build(cls, alpha, k: int, index_cap: int, dtype) -> "_TailTable":
        """The table for ``alpha``, evaluated in ``dtype``: ``int64`` or
        exact Python ints (``object``) for integer ``alpha``, ``float``
        otherwise."""
        # the tails with first entry r_1 = cap, cap - 1, ..., 1 in turn,
        # each followed by its nonincreasing (k-1)-tails
        tails = _nonincreasing_tuples(np.arange(index_cap, 0, -1), k - 1)
        firsts = tails[:, 0]
        # an object array of arange holds Python ints
        m = np.arange((k + 1) * index_cap + 1).astype(dtype)
        if _is_integer_alpha(alpha):
            a = int(alpha)
            powers = m**a
            bound_factors = (a - 1) * m[:index_cap + 1] ** (a - 1)
        else:
            af = float(alpha)
            powers = np.power(m, af)
            bound_factors = (af - 1.0) * np.power(m[:index_cap + 1], af - 1.0)
        power_sums = powers[firsts]
        for i in range(1, k):
            power_sums = power_sums + powers[tails[:, i]]
        return cls(alpha=alpha, tails=tails, sums=tails.sum(axis=1),
                   power_sums=power_sums, firsts=firsts,
                   suffix=np.cumsum(np.bincount(firsts,
                                                minlength=index_cap + 1)),
                   powers=powers, bound_factors=bound_factors)


def _check_chunk(table: _TailTable, leads: np.ndarray) -> tuple:
    """Check every nonincreasing tuple ``(l, r_1, ..., r_k)`` whose leading
    index ``l`` is in ``leads`` (consecutive), in one pass over the chunk.

    Each lead repeats over its suffix of ``table``, reached through an
    offset row index (a lone lead reads its suffix as a view), and ``Phi =
    l^alpha + P - (l + R)^alpha`` is checked against ``(alpha-1)
    l^(alpha-1) r_1``.  Returns ``(count, counterexample)``: the first
    violating tuple in enumeration order and the number of tuples up to
    and including it, or the number of tuples and ``None``.
    """
    # tuples are enumerated nonincreasing (sorted representatives only);
    # Phi is permutation symmetric, so this prunes the (k+1)! orderings
    sizes = table.suffix[leads]
    if leads.size == 1:
        lead, row = leads, slice(len(table.tails) - sizes[0], None)
    else:
        # lead l's rows start at len(tails) - sizes_l in the table and at
        # the sum of the sizes before it in the chunk
        lead = np.repeat(leads, sizes)
        row = np.repeat(len(table.tails) - np.cumsum(sizes), sizes)
        row += np.arange(lead.size)
    phi = table.power_sums[row] + table.powers[lead]
    phi -= table.powers[lead + table.sums[row]]
    bound = table.bound_factors[lead] * table.firsts[row]
    if _is_integer_alpha(table.alpha):
        ok = np.abs(phi) >= bound
    else:
        # P is summed before l^alpha is added, so a float Phi can differ
        # from a tuple-wise sum in its last bits, far inside the slack
        ok = np.abs(phi) >= bound * (1.0 - FLOAT_ALPHA_SLACK)
    if ok.all():
        return ok.size, None
    first = int(np.argmin(ok))
    lead = int(np.broadcast_to(lead, ok.shape)[first])
    return first + 1, (lead, *(int(n) for n in table.tails[row][first]))


def certify_phase_bound(alpha: float, k: int,
                        index_cap: int) -> PhaseCertificate:
    """Exhaustively check ``|Phi| >= (alpha-1) max^(alpha-1) smax`` over all
    (k+1)-tuples with entries in ``1..index_cap``.

    Integer alpha is checked in exact integer arithmetic: ``int64`` while
    ``((k+1) * index_cap)^alpha`` (which bounds every term) fits, Python
    ints beyond; an alpha whose largest term would have more than
    ``MAX_EXACT_BITS`` bits is refused with ValueError, as are a
    non-integer ``k`` or ``index_cap``.  A nonincreasing tuple is a leading
    index ``l`` followed by a k-tail with ``r_1 <= l``, so the sums, power
    sums and first entries of the tails are computed once, in one table of
    ``C(index_cap + k - 1, k)`` tails (``_TailTable``), and every leading
    index reads its suffix of it.  The leading indices are checked in
    chunks of consecutive ones that hold no more tuples than the table, so
    memory stays bounded by ``C(index_cap + k - 1, k)`` rows of a few
    arrays, plus the power table of ``(k+1) index_cap + 1`` entries.  The
    scan stops at the first violating tuple; ``tuples_checked`` counts the
    tuples up to and including it.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    for name, value in (("k", k), ("index_cap", index_cap)):
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got "
                             f"{value!r}") from None
    if k < 1:
        raise ValueError("k must be >= 1")
    if index_cap < 1:
        raise ValueError("index_cap must be >= 1")
    if alpha < 1:
        raise ValueError("the bound requires alpha >= 1")
    k, index_cap = operator.index(k), operator.index(index_cap)
    base = (k + 1) * index_cap
    if not _is_integer_alpha(alpha):
        dtype = float
    else:
        # the base is at least 2, so a >= 63 never fits int64; testing a
        # first keeps the int64 test from building a giant power
        a = int(alpha)
        bits = a * base.bit_length()
        if bits > MAX_EXACT_BITS:
            raise ValueError(
                f"integer alpha={a} needs exact terms of about {bits} bits "
                f"at k={k}, cap={index_cap}, above the limit of "
                f"{MAX_EXACT_BITS} bits")
        dtype = np.int64 if a < 63 and base ** a < 2**63 else object
    table = _TailTable.build(alpha, k, index_cap, dtype)
    checked = 0
    counterexample = None
    for leads in _lead_chunks(k, index_cap):
        count, counterexample = _check_chunk(table, leads)
        checked += count
        if counterexample is not None:
            break
    return PhaseCertificate(
        alpha=float(alpha), k=int(k), index_cap=int(index_cap),
        passed=counterexample is None,
        tuples_checked=checked,
        counterexample=counterexample,
    )


def support_semigroup(generators: Iterable[int], cap: int) -> set:
    """All sums of one or more generators (with repetition) that are <= cap.

    This is the set that can carry spectrum when the initial data is
    supported on ``generators``: closed under addition within the cap.
    """
    gens = sorted({int(g) for g in generators})
    if any(g < 0 for g in gens):
        raise ValueError("generators must be nonnegative")
    if not gens or cap < 0:
        return set()
    reachable = [False] * (cap + 1)
    for g in gens:
        if g <= cap:
            reachable[g] = True
    for n in range(cap + 1):
        if not reachable[n]:
            continue
        for g in gens:
            if g == 0:
                continue
            if n + g <= cap:
                reachable[n + g] = True
    return {n for n, r in enumerate(reachable) if r}
