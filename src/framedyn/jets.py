"""Truncated multilinear Taylor arithmetic.

A ``TaylorValue`` with ``k`` directions carries the coefficients of a function
expanded in the algebra R[e1..ek]/(e1^2, .., ek^2): one slot per subset of
directions, indexed by bitmask.  Slot 0 is the value, slot {i} the first
directional derivative along direction i, slot {i,j} the mixed second
derivative D^2 f(w_i, w_j), and so on.  Because every generator squares to
zero, propagating these coefficients through arithmetic gives derivatives that
are exact up to floating-point rounding; no finite-difference step enters.

Slots may be Python floats or numpy arrays (one entry per sample point), so
the same arithmetic serves both scalar and batched evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = ["Jet2", "TaylorValue", "taylor_fun", "FUNCTION_NAMES"]

MAX_DIRECTIONS = 3


@dataclass(frozen=True)
class Jet2:
    """Second-order jet along a plane: value, the two first directional
    derivatives, and the mixed second derivative."""

    value: float
    d1: float
    d2: float
    d12: float

    def as_tuple(self):
        return (self.value, self.d1, self.d2, self.d12)


def _swap12(mask):
    # Transpose directions 1 and 2 (bits 0 and 1) in a slot mask.
    low = mask & 0b11
    if low in (0b01, 0b10):
        low ^= 0b11
    return (mask & ~0b11) | low


def _mul_table(k):
    """For each result mask U, groups of (S, T) pairs with S | T == U and
    S & T == 0.

    Pairs exchanged by transposing the first two directions share a group;
    summing each group first makes products bit-exactly symmetric under that
    direction swap (IEEE addition of two terms commutes), which the 2-jet
    contract requires.
    """
    table = []
    for u in range(1 << k):
        pairs = []
        s = u
        while True:
            pairs.append((s, u ^ s))
            if s == 0:
                break
            s = (s - 1) & u
        groups = []
        used = set()
        for pair in pairs:
            if pair in used:
                continue
            partner = (_swap12(pair[0]), _swap12(pair[1]))
            if partner != pair and partner in pairs and partner not in used:
                groups.append((pair, partner))
                used.add(pair)
                used.add(partner)
            else:
                groups.append((pair,))
                used.add(pair)
        table.append(tuple(groups))
    return tuple(table)


_MUL = [_mul_table(k) for k in range(MAX_DIRECTIONS + 1)]


def _partitions(mask):
    # All partitions of the direction set `mask` into nonempty blocks.
    bits = [1 << i for i in range(MAX_DIRECTIONS) if mask & (1 << i)]
    if not bits:
        return []
    first, rest = bits[0], bits[1:]
    parts = [[first]]
    for b in rest:
        new = []
        for p in parts:
            for i in range(len(p)):
                new.append(p[:i] + [p[i] | b] + p[i + 1:])
            new.append(p + [b])
        parts = new
    return [tuple(sorted(p)) for p in parts]


def _faa_table(k):
    # For each mask U: list of (number of blocks, tuple of block masks).
    return tuple(
        tuple((len(p), p) for p in _partitions(u)) for u in range(1 << k)
    )


_FAA = [_faa_table(k) for k in range(MAX_DIRECTIONS + 1)]


def _is_scalar(x):
    return isinstance(x, (float, int))


def _tan(x):
    if math.isinf(x):
        raise ValueError("math domain error")
    return float(np.tan(x))


def _log(x):
    if x <= 0.0:
        raise ValueError("math domain error")
    return float(np.log(x))


def power(x, p):
    """x**p for an integer p; on a float, as numpy's power rounds it on an
    array (x*x for p == 2, which is numpy's square), with its faults."""
    if not _is_scalar(x):
        return x ** p
    if p in (0, 1, 2):
        return (1.0, x, x * x)[p]
    try:  # Python's power raises at 0 to p < 0, and where it overflows
        if abs(x) ** p < 1e300:  # numpy's cannot overflow either
            return float(np.power(x, p))
    except OverflowError:
        pass
    with np.errstate(over="ignore"):
        return float(np.power(x, p))


# The elementary functions on Python floats, rounded as numpy's are on
# arrays (math's sin, cos and sqrt already are), with a batch's faults
# (docs/exprlang.md, "Jets"): a domain fault raises, an overflow gives inf
# (exp beyond 709.782712893384, where numpy's overflows).
FLOATS = SimpleNamespace(
    sin=math.sin, cos=math.cos, sqrt=math.sqrt, tan=_tan, log=_log,
    exp=lambda x: math.inf if x > 709.782712893384 else float(np.exp(x)))


def _fn_derivs(name, x, order):
    """Values of an elementary function and its derivatives up to `order` at x.

    Uses FLOATS for plain floats and numpy otherwise.
    """
    m = FLOATS if _is_scalar(x) else np
    if name == "sin":
        s, c = m.sin(x), m.cos(x)
        return (s, c, -s, -c)[: order + 1]
    if name == "cos":
        s, c = m.sin(x), m.cos(x)
        return (c, -s, -c, s)[: order + 1]
    if name == "tan":
        t = m.tan(x)
        g1 = 1.0 + t * t
        return (t, g1, 2.0 * t * g1, g1 * (2.0 + 6.0 * t * t))[: order + 1]
    if name == "exp":
        e = m.exp(x)
        return (e,) * (order + 1)
    if name == "log":
        inv = 1.0 / x
        return (m.log(x), inv, -inv * inv, 2.0 * power(inv, 3))[: order + 1]
    if name == "sqrt":
        r = m.sqrt(x)
        if order == 0:
            return (r,)
        inv = 0.5 / r
        return (r, inv, -0.5 * inv / x, 1.5 * inv / (x * x))[: order + 1]
    raise ValueError(f"unknown function {name!r}")


FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "sqrt")


class TaylorValue:
    """Element of the truncated Taylor algebra over k directions."""

    __slots__ = ("k", "c")

    def __init__(self, k, coeffs):
        self.k = k
        self.c = tuple(coeffs)

    @classmethod
    def constant(cls, x, k):
        return cls(k, (x,) + (0.0,) * ((1 << k) - 1))

    @classmethod
    def variable(cls, x, grads, k):
        """A degree-one element: value x, first derivative grads[i] along
        direction i, all mixed slots zero."""
        c = [0.0] * (1 << k)
        c[0] = x
        for i, g in enumerate(grads):
            c[1 << i] = g
        return cls(k, c)

    def jet2(self):
        if self.k != 2:
            raise ValueError("jet2 requires a 2-direction TaylorValue")
        return Jet2(*self.c)

    def extract(self, bit):
        """Collapse one direction: the sub-value whose slot U is the slot
        U | bit of self.  This is the Taylor expansion, in the remaining
        directions, of the first derivative along direction `bit`."""
        knew = self.k - 1
        out = []
        for u in range(1 << knew):
            full = _insert_bit(u, bit)
            out.append(self.c[full | bit])
        return TaylorValue(knew, out)

    def drop(self, bit):
        """Forget direction `bit` (keep slots not containing it)."""
        knew = self.k - 1
        out = []
        for u in range(1 << knew):
            out.append(self.c[_insert_bit(u, bit)])
        return TaylorValue(knew, out)

    def _coerce(self, other):
        if isinstance(other, TaylorValue):
            if other.k != self.k:
                raise ValueError("direction counts differ")
            return other
        return TaylorValue.constant(other, self.k)

    def __add__(self, other):
        o = self._coerce(other)
        return TaylorValue(self.k, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return TaylorValue(self.k, tuple(a - b for a, b in zip(self.c, o.c)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return TaylorValue(self.k, tuple(b - a for a, b in zip(self.c, o.c)))

    def __neg__(self):
        return TaylorValue(self.k, tuple(-a for a in self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self.c, o.c
        out = []
        for groups in _MUL[self.k]:
            acc = None
            for group in groups:
                s, t = group[0]
                term = a[s] * b[t]
                for s, t in group[1:]:
                    term = term + a[s] * b[t]
                acc = term if acc is None else acc + term
            out.append(acc)
        return TaylorValue(self.k, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        a, b = self.c, o.c
        inv0 = 1.0 / b[0]
        out = [None] * len(a)
        for u in sorted(range(1 << self.k), key=_popcount):
            acc = a[u]
            for group in _MUL[self.k][u]:
                term = None
                for s, t in group:
                    if s == u:
                        continue
                    prod = out[s] * b[t]
                    term = prod if term is None else term + prod
                if term is not None:
                    acc = acc - term
            out[u] = acc * inv0
        return TaylorValue(self.k, out)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("TaylorValue powers must be integers")
        x = self.c[0]
        derivs = []
        coeff = 1.0
        p = n
        for d in range(self.k + 1):
            if coeff == 0.0:
                derivs.append(0.0)
            else:
                derivs.append(coeff * power(x, p))
            coeff *= p
            p -= 1
        return _compose(self, tuple(derivs))

    def apply(self, name):
        derivs = _fn_derivs(name, self.c[0], self.k)
        return _compose(self, derivs)


def _popcount(u):
    return bin(u).count("1")


def _insert_bit(u, bit):
    """Spread the bits of u around position `bit` (bit is a single-bit mask)."""
    low = u & (bit - 1)
    high = (u ^ low) << 1
    return high | low


def _compose(t, derivs):
    # Faa di Bruno over set partitions; no repeated blocks occur because the
    # generators are nilpotent.
    c = t.c
    out = [derivs[0]]
    for u in range(1, 1 << t.k):
        acc = 0.0
        for nblocks, blocks in _FAA[t.k][u]:
            g = derivs[nblocks]
            term = c[blocks[0]]
            for bmask in blocks[1:]:
                term = term * c[bmask]
            acc = acc + g * term
        out.append(acc)
    return TaylorValue(t.k, out)


def taylor_fun(name, x):
    """Apply elementary function `name` to a TaylorValue, float, or array."""
    if isinstance(x, TaylorValue):
        return x.apply(name)
    return _fn_derivs(name, x, 0)[0]
