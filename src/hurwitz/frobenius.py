"""Exact system counts by the Frobenius character sum.

The number of solutions of t_1 ... t_w [a_1,b_1] ... [a_h,b_h] = 1
with the t_j in the transposition class C of S_d is

    N = |C|^w |S_d|^(2h-1) * sum over irreducible characters chi of
        chi(tau)^w / chi(1)^(w + 2h - 2)

an integer, computed here in exact rational arithmetic.  Characters
of S_d are indexed by partitions; the dimension comes from the hook
length formula and the transposition value from the content sum

    chi(tau) / chi(1) = (sum_j C(lam_j, 2) - sum_j C(lam'_j, 2)) / C(d, 2).

This count is the independent oracle for the exhaustive enumerator:
the two must agree exactly wherever both are feasible.

On top of it sit two refined counts.  transitive_count keeps the
systems whose monodromy group is transitive on the fiber, by the
standard relation between connected and disconnected Hurwitz numbers:
every system splits over the orbits of its monodromy group.
full_monodromy_count is the number of systems with monodromy all of
S_d, where Jordan's theorem makes it the transitive count; a census
flood from one such system that reaches that many states has found
them all, which proves they form one orbit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterator

MAX_COUNT_DEGREE = 8


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, parts descending, in lex-descending order."""
    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))
    yield from rec(n, n, ())


def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > k) for k in range(lam[0]))


def hook_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the S_n irreducible labeled by lam."""
    n = sum(lam)
    conj = conjugate_partition(lam)
    hooks = 1
    for r, row in enumerate(lam):
        for c in range(row):
            hooks *= (row - c) + (conj[c] - r) - 1
    dim, rem = divmod(factorial(n), hooks)
    assert rem == 0
    return dim


def transposition_character(lam: tuple[int, ...]) -> int:
    """chi_lam evaluated on a transposition; an integer for every lam."""
    n = sum(lam)
    if n < 2:
        raise ValueError("transpositions need degree at least 2")
    contents = sum(comb(part, 2) for part in lam) - sum(comb(part, 2) for part in conjugate_partition(lam))
    value = Fraction(hook_dimension(lam) * contents, comb(n, 2))
    assert value.denominator == 1
    return int(value)


@lru_cache(maxsize=None)
def _character_table_on_transpositions(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((hook_dimension(lam), transposition_character(lam))
                 for lam in partitions(d))


def frobenius_count(d: int, h: int, w: int) -> int:
    """Number of valid systems with these parameters, exactly."""
    if d < 1 or h < 0 or w < 0:
        raise ValueError("bad parameters d=%d h=%d w=%d" % (d, h, w))
    if d > MAX_COUNT_DEGREE:
        raise ValueError("character-sum count is limited to d <= %d" % MAX_COUNT_DEGREE)
    if d == 1:
        return 1 if w == 0 else 0
    if w % 2 != 0:
        return 0
    class_size = comb(d, 2)
    order = factorial(d)
    total = Fraction(0)
    for dim, chi_tau in _character_table_on_transpositions(d):
        total += Fraction(chi_tau) ** w / Fraction(dim) ** (w + 2 * h - 2)
    # |G|^(2h-1) is 1/|G| at h = 0; the full product is an integer regardless
    result = Fraction(order) ** (2 * h - 1) * class_size**w * total
    assert result.denominator == 1 and result >= 0
    return int(result)


@lru_cache(maxsize=None)
def transitive_count(d: int, h: int, w: int) -> int:
    """Number of systems whose monodromy group is transitive on 1..d.

    Split each system on the orbit of the point 1: m points, carrying w'
    of the transpositions, with the rest a system of degree d - m, so

        N_all(d, h, w) = sum over m = 1..d and w' of C(d-1, m-1) C(w, w')
                         N_tr(m, h, w') N_all(d-m, h, w-w')

    with N_all = frobenius_count and N_all(0, h, 0) = 1.  The m = d term
    is N_tr(d, h, w) itself; the others recurse to smaller degrees
    (memoized).

    >>> transitive_count(3, 0, 4)
    24
    >>> transitive_count(4, 1, 4)
    58752
    """
    total = frobenius_count(d, h, w)
    for m in range(1, d):
        for part in range(0, w + 1, 2):  # odd w' has no systems
            total -= (comb(d - 1, m - 1) * comb(w, part) * transitive_count(m, h, part)
                      * frobenius_count(d - m, h, w - part))
    return total


def full_monodromy_count(d: int, h: int, w: int) -> int | None:
    """Number of systems whose monodromy group is all of S_d, where it
    provably equals transitive_count; None elsewhere.

    A transitive group is S_d when d <= 2; when h = 0, since it is then
    generated by transpositions that link all d points; and when d is
    prime and w > 0, since a transitive group of prime degree is
    primitive and, by Jordan's theorem, a primitive group holding a
    transposition is S_d.  Elsewhere the imprimitive systems must be
    subtracted (at d = 4 and h >= 1, those inside a copy of D_4), which
    is not done here; nor is any count past MAX_COUNT_DEGREE.

    >>> full_monodromy_count(3, 0, 4)
    24
    >>> full_monodromy_count(3, 1, 8)
    78720
    >>> print(full_monodromy_count(4, 1, 4))
    None
    """
    prime = d > 1 and all(d % k for k in range(2, d))
    if d > MAX_COUNT_DEGREE or not (d <= 2 or h == 0 or (prime and w > 0)):
        return None
    return transitive_count(d, h, w)
