"""Per-term Fraction loops that the package's integer kernels replaced.

The package runs its series products, the Hankel form of orthogonality,
duality and the lowering check on integer numerators over one common
denominator (`exactnum.scaled`), and the lowering check in the falling-
factorial basis.  These are the straightforward versions, one `Fraction`
operation per term and the base operator applied repeatedly, kept as the
oracles those kernels must match exactly.
"""

from fractions import Fraction

from dsheffer import Poly, apply_lowering, functional_eval


def fraction_product(a, b) -> list[Fraction]:
    """Truncated Cauchy product of two equal-length coefficient sequences."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(len(a))]


def hankel_cells(seq, v) -> tuple[list, list]:
    """(k, n, m, value) of every checked orthogonality cell, and the unchecked boundaries.

    value = sum_(a,b) P_n[a] mu_k(a+b) P_m[b], term by term.
    """
    top = seq.max_index
    cells, unchecked = [], []
    for k in range(v.d):
        mu = v.moments[k]
        for n in range(top + 1):
            boundary = n * v.d + k
            if boundary > top:
                unchecked.append((k, n, boundary))
                continue
            for m in range(boundary, top + 1):
                value = sum((a_c * mu[a + b] * b_c
                             for a, a_c in enumerate(seq[n].coeffs)
                             for b, b_c in enumerate(seq[m].coeffs)), Fraction(0))
                cells.append((k, n, m, value))
    return cells, unchecked


def duality_failures(seq, v) -> list[tuple[int, int, Fraction]]:
    """(i, k, <u_i, P_k>) wherever <u_i, P_k> != delta_ik, one functional_eval per cell."""
    failures = []
    for i in range(v.d):
        for k in range(seq.max_index + 1):
            value = functional_eval(v, i, seq[k])
            if value != (1 if i == k else 0):
                failures.append((i, k, value))
    return failures


def lowering_failures(seq, op) -> list[int]:
    """Every n with sigma P_n != n P_(n-1), sigma applied by repeated base operators."""
    return [n for n in range(seq.max_index + 1)
            if apply_lowering(op, seq[n]) != (seq[n - 1] * n if n else Poly.zero())]
