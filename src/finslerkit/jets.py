"""Truncated multivariate Taylor arithmetic (jets), tensors of jets and a
first-order dual layer.

A :class:`Jet` stores the Taylor coefficients of a smooth function around a
base point, for all multi-indices of total degree <= ``order`` in ``dim``
variables.  Arithmetic on jets is exact truncation: the coefficients of a
sum/product/quotient/composition are exactly the Taylor coefficients of the
corresponding function, truncated at ``order``.  Partial derivatives of the
represented function are read off with :meth:`Jet.extract`, which multiplies
the stored coefficient by the factorial of the multi-index; the whole first
and second partials come at once from :meth:`Jet.gradient` and
:meth:`Jet.hessian`.

Coefficient layout
------------------
Multi-indices are enumerated in graded lexicographic order: ascending total
degree, and within one degree ascending lexicographic order of the exponent
tuple.  For ``dim=2, order=2`` the order is::

    (0,0), (0,1), (1,0), (0,2), (1,1), (2,0)

The enumeration of order ``m-1`` is a prefix of the enumeration of order
``m``, so truncation is a slice.  The degree-1 block lists the variables in
reverse order: variable ``v`` sits at position ``dim - v``, which
:meth:`Jet.gradient` reads as one slice.  The layout is fixed; it is part
of the on-disk/test surface and must not change.

Storage is dense (one float per multi-index).  The intended regime is
``dim <= 8`` and ``order <= 6``; larger signatures work but tables grow
combinatorially.

Coefficient dtype
-----------------
Coefficients are float64 unless the seeds were made in another dtype
(``dtype`` of :func:`seed_phase_point`, :meth:`Jet.variable` and
:meth:`Jet.constant`), and every operation keeps its operands' dtype: the
same code runs in ``np.longdouble`` where float64 roundoff is too coarse.
Nothing multiplies a wider operand into a float64 array in place, which
numpy's ``same_kind`` casting would round silently.  The analytic
functions read their value part with ``math`` in float64, as they always
have, and with numpy in a wider dtype (:meth:`Jet._b0`).

Signatures and the x-degree cap
-------------------------------
A jet's signature is the triple ``(dim, order, x_cap)``: besides the total
degree, ``x_cap`` bounds the total degree in the first ``dim // 2``
variables, the positions of a phase point.  The capped layout is the grlex
layout above with the rows of higher x-degree removed.  Monomials of
x-degree above a cap form an ideal, so truncating at both the order and
the cap keeps every retained coefficient exact, and bit for bit equal to
the uncapped one: a kept product coefficient sums exactly the pairs it
sums uncapped, in the same order.  ``d/dx_i`` lowers the cap by one,
``d/dy_i`` keeps it.  A cap at or above the order is no cap at all:
:func:`jet_space` maps it to the uncapped space, so ``jet_space(dim,
order)`` and ``JetSpace(dim, order)`` mean what they always did.
:meth:`Jet.gradient`, :meth:`Jet.hessian`, :meth:`Jet.extract` and
:meth:`Jet.variable` refuse partials the cap has dropped.

Jets of different signatures never combine silently: mixing them raises
:class:`~finslerkit.errors.SignatureError`.  Align them deliberately with
:meth:`Jet.to_space` and :meth:`JetSpace.meet`, or lower the order alone
with :meth:`Jet.truncated`.  Where the target layout is a prefix of the
source (a lower order at the same cap, say), the aligned jet is a view of
the source's coefficients, not a copy; no jet operation writes into its
operands' coefficients, so views are safe.

Polynomial degree
-----------------
Every jet and tensor also records ``deg``, an upper bound on the total
degree of its nonzero coefficients: every coefficient past
``degree_end[deg]`` is zero.  Seeds have ``deg`` 1 and constants 0; a sum
takes the larger bound of its operands and a product their sum; ``d`` and
:meth:`~Jet.partials` lower it by one; alignment, indexing,
:func:`stack`, sums and traces keep it; the analytic functions set it to
the order.  A bound is never above the order, and a jet built from bare
coefficients gets the order.

A product whose bound ``p + q`` is below the order runs in
``jet_space(dim, p + q, x_cap)``, whose layout is a prefix of this one's,
and the rest of the result is zero-filled.  For an output of degree at
most ``p + q`` every pair of the full table lies in that prefix, so the
lower table sums exactly the same pairs in the same order: those
coefficients keep their bits, signed zeros included.  Past ``p + q``
every pair of the full table has a zero factor; for finite operands that
sum is a zero as well, and the fill has its value, though the full table
can give ``-0.0`` where the fill gives ``0.0``.  Low-degree products are
common (the seeds' quadratic forms and their products inside F^2), and at
orders 5 and 6 this skips nearly half of a tower round's pair-multiplies.

:func:`seed_phase_point` seeds the coordinates of a
:class:`~finslerkit.metrics.PhasePoint`, which converted and checked them
when it was built: positions are variables ``0..n-1``, fibers ``n..2n-1``.

Analytic functions
------------------
:meth:`Jet.recip`, :meth:`Jet.sqrt`, :meth:`Jet.powc`, :meth:`Jet.ln` and
:meth:`Jet.exp` solve one homogeneous degree block at a time from an
identity the function satisfies, written with the Euler operator ``E``,
which maps a degree-d block to d times itself and is a derivation
(Neidinger, *Math. Comp.* 74, 2005; Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).  With b0 the value part and
``u / b0 = 1 + t`` the scaled jet (``t`` has a zero value part), block d
of the result, for d >= 1, is::

    recip  (1 + t) v = 1            v_d = -sum_{k=1..d} t_k v_{d-k}
    powc   (1 + t) E(p) = a p E(t)  d p_d = sum_{k=1..d} ((a + 1) k - d) t_k p_{d-k}
    ln     (1 + t) E(w) = E(t)      d w_d = d t_d + sum_{k=1..d} (k - d) t_k w_{d-k}
    exp    E(e) = e E(t)            d e_d = sum_{k=1..d} k t_k e_{d-k}

with ``v_0 = p_0 = e_0 = 1`` and ``w_0 = 0``; ``exp`` takes ``t = u - b0``
unscaled.  The result is then ``v / b0``, ``b0**a p``, ``ln b0 + w`` and
``exp(b0) e``, so its value part is the float function's value.  A term
``t_k p_{d-k}`` is the degree-d part of a product of two blocks: block d
reads the degree-d slice of the space's product table, so each function
costs about one product's worth of pairs and issues no jet product.  A
function fails only where a coefficient it returns would not fit in a
float: a value part that is not finite, or a coefficient that overflows,
raises :class:`~finslerkit.errors.DomainError`, and underflow to zero or
to a subnormal is the rounded result.  So a homothety ``c F^2`` evaluates
for every constant ``c`` at which its coefficients fit.

Tensors of jets
---------------
A :class:`JetArray` holds the jets of a tensor's entries in one space as
one float array ``coeffs[*index, size]``.  Jets and tensors share their
linear operations and products (:class:`_Coefficients`), which act on the
last axis and broadcast over the others, so a tensor operation is one
numpy call over all entries: a gather for ``d`` and
:meth:`~JetArray.partials`, one ufunc for ``+``, ``-`` and scaling, and
for a product one gather of the pairs of the space's product table for
every entry at once.  Each entry sums its pairs like a product of two
jets, and sums over an index add left to right, so a tensor formula
gives the bits of the same formula on single jets.

:class:`DualLayer` wraps a (value, tangent) pair of jets and propagates one
extra directional derivative through any computation written against the
shared scalar interface (operators plus ``sqrt/ln/exp/powc/d`` and the
``space``/``to_space`` alignment pair); with tensor parts it is a dual
tensor.  It nests: the components may themselves be duals.  The library
no longer computes with it: gradients come from the degree-1 coefficients
of a jet seeded one order higher (see :mod:`finslerkit.integrals`).  It and
:func:`seed_dual_phase_point` remain only as the independent oracle from
which the gradient tests rebuild the former dual-seeded route, for one more
change.  Their removal waits for the benchmark tracer (``bench/tracer.py``),
which patches ``DualLayer.__mul__``, to stop doing so.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import operator
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    BranchError,
    DimensionError,
    DomainError,
    OrderError,
    PoleError,
    SignatureError,
)

__all__ = ["Jet", "JetArray", "DualLayer", "JetSpace", "jet_space", "stack", "seed_phase_point", "seed_dual_phase_point"]


def _compositions(total: int, parts: int):
    """Yield exponent tuples of length ``parts`` summing to ``total``,
    in ascending lexicographic order."""
    # Stars and bars: combinations choose bar positions; ascending lex in the
    # exponent tuple corresponds to ascending combinations here.
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(total + parts - 2 - prev)
        yield tuple(exps)


class JetSpace:
    """Shared tables for one ``(dim, order, x_cap)`` signature.

    Instances are interned: :func:`jet_space` returns the same object for
    the same signature, so identity comparison is a valid signature check.

    Each multi-index has an integer key, ``degree * R**dim`` plus its
    exponents read as base-``R`` digits (first variable most significant),
    with ``R = order + 1``.  Keys ascend in the coefficient layout and add
    like the multi-indices do, as long as the sum stays within ``order``, so
    the position of a product or shifted index is a ``searchsorted`` away.
    """

    def __init__(self, dim: int, order: int, x_cap: int | None = None):
        if dim < 1:
            raise DimensionError(f"jet dimension must be >= 1, got {dim}")
        if order < 0:
            raise OrderError(f"jet order must be >= 0, got {order}")
        if x_cap is not None and x_cap < 0:
            raise OrderError(f"jet x-degree cap must be >= 0, got {x_cap}")
        self.dim = dim
        self.order = order
        self.x_cap = _normal_cap(dim, order, x_cap)
        nx = dim // 2
        exps = []
        self.degree_end = []  # degree_end[d] = number of indices with degree <= d
        for d in range(order + 1):
            exps.extend(e for e in _compositions(d, dim) if sum(e[:nx]) <= self.x_cap)
            self.degree_end.append(len(exps))
        self.exponents = np.array(exps, dtype=np.int64)
        self.size = len(exps)
        self.degrees = self.exponents.sum(axis=1)
        self.x_degrees = self.exponents[:, :nx].sum(axis=1)
        radix = order + 1
        self._digits = radix ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        self._degree_key = radix**dim
        self._keys = self._key(self.exponents)
        self._unit_keys = self._degree_key + self._digits  # key of each variable's degree-1 index
        # extract(): d^|a| f / dx^a = coeff[a] * a!
        fact = np.array([math.factorial(k) for k in range(order + 1)], dtype=np.float64)
        self.factorials = fact[self.exponents].prod(axis=1)
        self._mult = None
        self._diff = {}
        self._meets = {}
        self._truncations = {}
        self._weights = {}

    def __repr__(self):
        return f"JetSpace(dim={self.dim}, order={self.order}, x_cap={self.x_cap})"

    def _key(self, exponents: np.ndarray) -> np.ndarray:
        return exponents.sum(axis=1) * self._degree_key + exponents @ self._digits

    @cached_property
    def index_of(self) -> dict[tuple[int, ...], int]:
        """Position of each multi-index; only :meth:`Jet.extract` needs it."""
        return {tuple(e): i for i, e in enumerate(self.exponents.tolist())}

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._keys, keys)

    def meet(self, other: "JetSpace") -> "JetSpace":
        """The largest space both this one and ``other`` truncate to: the
        lower order and the lower cap (cached per pair)."""
        space = self._meets.get(other)
        if space is None:
            if other.dim != self.dim:
                raise SignatureError(f"cannot align {self!r} with {other!r}: dimensions differ")
            space = jet_space(self.dim, min(self.order, other.order), min(self.x_cap, other.x_cap))
            self._meets[other] = space
        return space

    def truncation(self, target: "JetSpace"):
        """Index taking coefficients of this space to ``target`` (cached):
        a prefix slice, so indexing returns a view, or else a gather."""
        index = self._truncations.get(target)
        if index is None:
            if target.dim != self.dim or target.order > self.order or target.x_cap > self.x_cap:
                raise OrderError(f"cannot truncate {self!r} to {target!r}")
            pos = self._positions(self._key(target.exponents))
            if np.array_equal(pos, np.arange(target.size)):
                index = slice(0, target.size)
            else:
                index = pos
            self._truncations[target] = index
        return index

    def _mult_table(self):
        """(ia, ib, starts): every coefficient product that lands at total
        degree <= order and x-degree <= x_cap, grouped by output position in
        ascending order; output ``k`` sums the products ``ia[j], ib[j]`` for
        ``j`` in ``starts[k]:starts[k+1]``."""
        if self._mult is None:
            # row i pairs with every index of degree <= order - deg(i), a
            # prefix; narrow dtypes keep the transient arrays small
            partners = np.array(self.degree_end)[self.order - self.degrees]
            ia = np.repeat(np.arange(self.size, dtype=np.int32), partners)
            ib = np.arange(ia.size, dtype=np.int32)
            ib -= np.repeat((np.cumsum(partners) - partners).astype(np.int32), partners)
            if self.x_cap < self.order:
                # kept pairs stay in their order: kept sums are bit-identical
                keep = self.x_degrees[ia] + self.x_degrees[ib] <= self.x_cap
                ia, ib = ia[keep], ib[keep]
            keys = self._keys[ia]
            keys += self._keys[ib]
            out = self._positions(keys).astype(np.min_scalar_type(self.size))
            del keys
            group = np.argsort(out, kind="stable")
            starts = np.zeros(self.size, dtype=np.int64)
            np.cumsum(np.bincount(out, minlength=self.size)[:-1], out=starts[1:])
            del out
            # gathers index fastest with native-width indices
            self._mult = (ia[group].astype(np.intp), ib[group].astype(np.intp), starts)
        return self._mult

    @cached_property
    def graded_table(self) -> list[tuple]:
        """Per degree d >= 2, ``(d, lo, hi, ia, ib, starts)``: the pairs of
        :meth:`_mult_table` whose outputs form the degree-d block ``lo:hi``,
        as views, with group starts relative to the slice."""
        ia, ib, starts = self._mult_table()
        out = []
        for d in range(2, self.order + 1):
            lo, hi = self.degree_end[d - 1], self.degree_end[d]
            first = starts[lo]
            last = starts[hi] if hi < self.size else ia.size
            out.append((d, lo, hi, ia[first:last], ib[first:last], starts[lo:hi] - first))
        return out

    def graded_weights(self, beta: float, gamma: float) -> list[np.ndarray]:
        """Per block of :attr:`graded_table`, the weights ``beta k - gamma d``
        of :func:`_graded_solve` over the first factors' degrees k (cached
        per pair)."""
        weights = self._weights.get((beta, gamma))
        if weights is None:
            weights = self._weights[beta, gamma] = []
            for d, _, hi, *_ in self.graded_table:
                w = self.degrees[:hi] * beta
                w -= gamma * d
                weights.append(w)
        return weights

    def _diff_table(self, var):
        """(lower, src, factor): the space of df/dx_var and the arrays
        mapping coefficients of f to its coefficients.  An x variable
        lowers the cap by one.  A range of variables that share the lower
        space (all positions or all fibers) stacks their arrays."""
        if isinstance(var, range):
            if var not in self._diff:
                tables = [self._diff_table(v) for v in var]
                self._diff[var] = (tables[0][0], np.stack([t[1] for t in tables]), np.stack([t[2] for t in tables]))
            return self._diff[var]
        if var not in self._diff:
            cap = self.x_cap - 1 if var < self.dim // 2 else self.x_cap
            if cap < 0:
                raise OrderError(f"cannot differentiate by position variable {var} at x-degree cap 0")
            lower = jet_space(self.dim, self.order - 1, cap)
            # lower's indices shifted by e_var all sit in this space
            src = self._positions(self._keys[self.truncation(lower)] + self._unit_keys[var])
            fac = (lower.exponents[:, var] + 1).astype(np.float64)
            self._diff[var] = (lower, src, fac)
        return self._diff[var]

    @cached_property
    def hessian_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, factors): the degree-2 coefficient of each pair
        ``(i, j)`` sits at ``positions[i, j]``, and ``factors`` is 2 on the
        diagonal (the factorial of exponent 2) and 1 off it."""
        # keys add like the multi-indices: e_i + e_j is one sum away
        return self._positions(self._unit_keys[:, None] + self._unit_keys), 1.0 + np.eye(self.dim)


def _normal_cap(dim: int, order: int, x_cap: int | None) -> int:
    """The cap as stored: a cap at or above the order, or in a space with
    no position variables, is no cap and reads as the order."""
    if x_cap is None or dim < 2:
        return order
    return min(x_cap, order)


_SPACES: dict[tuple[int, int, int], JetSpace] = {}


def jet_space(dim: int, order: int, x_cap: int | None = None) -> JetSpace:
    """Interned :class:`JetSpace` for the signature ``(dim, order, x_cap)``;
    no cap, or one at or above the order, gives the uncapped space."""
    key = (dim, order, _normal_cap(dim, order, x_cap))
    space = _SPACES.get(key)
    if space is None:
        space = _SPACES[key] = JetSpace(dim, order, x_cap)
    return space


@contextlib.contextmanager
def _float_range(name: str, b0):
    """Context for computing the coefficients of the jet function ``name``
    at value part ``b0``: a value part that is not finite, or a float
    overflow or invalid operation in the body, raises :class:`DomainError`
    naming both.  Underflow is left to round."""
    if not _value_function("isfinite", b0):
        raise DomainError(f"{name} of a jet with non-finite value part {b0!r}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise DomainError(f"{name} of a jet with value part {b0!r}: a coefficient leaves the float range") from None


def _graded_solve(space: JetSpace, t: np.ndarray, start: float, beta: float, gamma: float, delta: float = 0.0):
    """Coefficients ``p`` with ``p_0 = start`` and, for each degree d >= 1,

        d p_d = delta d t_d + sum_{k=1..d} (beta k - gamma d) t_k p_{d-k},

    where ``t`` has a zero value part and ``t_k p_{d-k}`` is the degree-d
    part of the product of two homogeneous blocks (module docstring).

    Block d is solved from the degree-d slice of the product table: its
    pairs with a first factor of degree 0 read ``t_0 = 0``, and those with a
    second factor of degree d read the block itself, still zero, so neither
    needs masking.  The weight ``beta k - gamma d`` depends on the first
    factor's degree alone, so it scales ``t`` before the gather; it is exact
    for the library's exponents, and the block is divided by d once.
    """
    p = np.zeros(space.size, t.dtype)
    p[0] = start
    if space.order >= 1:
        end = space.degree_end[1]
        p[1:end] = t[1:end] * (delta + (beta - gamma) * start)
    for (d, lo, hi, ia, ib, starts), w in zip(space.graded_table, space.graded_weights(beta, gamma)):
        # not in place: the float64 weights would round a wider t
        s = w * t[:hi]
        prod = s[ia]
        prod *= p[ib]
        block = np.add.reduceat(prod, starts)
        block /= d
        if delta:
            block += t[lo:hi] * delta
        p[lo:hi] = block
    return p


def _value_function(name: str, b0):
    """``math``'s function ``name`` at a float value part, numpy's at a
    wider one (see :meth:`Jet._b0`): float64 keeps math's bits."""
    return getattr(np if isinstance(b0, np.generic) else math, name)(b0)


def _ipow(base, n: int):
    """Integer power by repeated squaring; works for any scalar type here.

    Exact for negative value parts (no branch functions involved) when
    ``n >= 0``; negative ``n`` goes through the reciprocal.
    """
    if n < 0:
        return _ipow(base, -n).recip()
    if n == 0:
        return base.const(1.0)
    acc = None
    square = base
    while True:
        if n & 1:
            acc = square if acc is None else acc * square
        n >>= 1
        if not n:
            return acc
        square = square * square


def _products(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the products of the jets ``a[..., :]`` and
    ``b[..., :]`` of ``space``, broadcast against each other.  Each entry
    sums its pairs exactly as a product of two single jets does, so every
    coefficient has the same bits however the entries are batched."""
    ia, ib, starts = space._mult_table()
    if a.ndim == b.ndim == 1:
        prod = a[ia]
        prod *= b[ib]
        return np.add.reduceat(prod, starts)
    return np.add.reduceat(a.take(ia, axis=-1) * b.take(ib, axis=-1), starts, axis=-1)


def _wrap(space: JetSpace, coeffs: np.ndarray, deg: int):
    """A jet for one coefficient vector, a tensor for more."""
    return Jet(space, coeffs, deg) if coeffs.ndim == 1 else JetArray(space, coeffs, deg)


def _index(index) -> tuple:
    """A tensor index extended to the coefficient axis, which it never touches."""
    index = index if isinstance(index, tuple) else (index,)
    return index + (slice(None),) if any(i is Ellipsis for i in index) else index


def _sequential_sum(c: np.ndarray, axis: int) -> np.ndarray:
    """The sum of ``c`` over ``axis``, adding its slices left to right
    whatever the axis length."""
    index = (slice(None),) * axis
    return functools.reduce(operator.add, (c[index + (i,)] for i in range(c.shape[axis])))


class _Coefficients:
    """What a jet and a tensor of jets share: a space, coefficients
    ``coeffs[..., size]`` and their polynomial degree bound ``deg`` (module
    docstring; the order when not given), and the operations that act on
    every coefficient vector alike.  Operands combine with broadcasting, so
    a jet meets a tensor as a tensor of one entry."""

    __slots__ = ("space", "coeffs", "deg")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, deg: int | None = None):
        self.space = space
        self.coeffs = coeffs
        self.deg = space.order if deg is None else deg  # callers keep it <= the order

    def _peer(self, other):
        if other.space is not self.space:
            raise SignatureError(
                f"cannot combine jets of {self.space!r} and {other.space!r}; "
                "use to_space() or truncated() to align them explicitly"
            )
        return other

    def to_space(self, space: JetSpace):
        """This in a space of lower (or equal) order and cap; a view of
        the coefficients where the target layout is a prefix."""
        if space is self.space:
            return self
        return type(self)(space, self.coeffs[..., self.space.truncation(space)], min(self.deg, space.order))

    def __neg__(self):
        return type(self)(self.space, -self.coeffs, self.deg)

    def __add__(self, other):
        if isinstance(other, _Coefficients):
            deg = self._peer(other).deg
            return _wrap(self.space, self.coeffs + other.coeffs, self.deg if self.deg > deg else deg)
        if isinstance(other, numbers.Real):
            c = self.coeffs.copy()
            c.T[0] += other  # the value parts
            return type(self)(self.space, c, self.deg)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Coefficients):
            deg = self._peer(other).deg
            return _wrap(self.space, self.coeffs - other.coeffs, self.deg if self.deg > deg else deg)
        if isinstance(other, numbers.Real):
            c = self.coeffs.copy()
            c.T[0] -= other
            return type(self)(self.space, c, self.deg)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            c = -self.coeffs
            c.T[0] += other
            return type(self)(self.space, c, self.deg)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _Coefficients):
            space = self.space
            deg = self.deg + self._peer(other).deg
            if deg >= space.order:
                return _wrap(space, _products(space, self.coeffs, other.coeffs), space.order)
            # the product's nonzero coefficients all sit in the lower
            # order's layout, a prefix, and its table sums their pairs
            low = jet_space(space.dim, deg, space.x_cap)
            part = _products(low, self.coeffs[..., : low.size], other.coeffs[..., : low.size])
            c = np.zeros(part.shape[:-1] + (space.size,), part.dtype)
            c[..., : low.size] = part
            return _wrap(space, c, deg)
        if isinstance(other, numbers.Real):
            return type(self)(self.space, self.coeffs * float(other), self.deg)
        if isinstance(other, np.ndarray):
            # numbers times each jet: a tensor
            return _wrap(self.space, other[..., None] * self.coeffs, self.deg)
        return NotImplemented

    __rmul__ = __mul__

    def d(self, var: int):
        """Partial derivative with respect to variable ``var``.

        The result is a jet of order ``order - 1``: the top-degree
        information is genuinely consumed by differentiation.  A position
        variable also lowers the x-degree cap by one.
        """
        if self.space.order < 1:
            raise OrderError("cannot differentiate a jet of order 0")
        if not 0 <= var < self.space.dim:
            raise DimensionError(f"variable index {var} out of range for dim {self.space.dim}")
        lower, src, fac = self.space._diff_table(var)
        out = self.coeffs.take(src, axis=-1)
        out *= fac
        return type(self)(lower, out, self.deg - 1 if self.deg else 0)

    def partials(self, variables: range) -> "JetArray":
        """The partials by each of ``variables`` (all positions or all
        fibers), along a new last index axis: one gather."""
        if self.space.order < 1:
            raise OrderError("cannot differentiate a jet of order 0")
        lower, src, fac = self.space._diff_table(variables)
        out = self.coeffs.take(src, axis=-1)
        out *= fac
        return JetArray(lower, out, self.deg - 1 if self.deg else 0)


class Jet(_Coefficients):
    """Dense truncated Taylor expansion; see the module docstring."""

    __slots__ = ()

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, space: JetSpace, value: float, dtype=np.float64) -> "Jet":
        c = np.zeros(space.size, dtype)
        c[0] = value
        return cls(space, c, 0)

    @classmethod
    def variable(cls, space: JetSpace, var: int, value: float, dtype=np.float64) -> "Jet":
        """The coordinate function ``x_var`` expanded around ``value``."""
        if not 0 <= var < space.dim:
            raise DimensionError(f"variable index {var} out of range for dim {space.dim}")
        if space.order < 1:
            raise OrderError("seeding a variable requires order >= 1")
        if var < space.dim // 2 and space.x_cap < 1:
            raise OrderError(f"seeding position variable {var} requires an x-degree cap >= 1")
        c = np.zeros(space.size, dtype)
        c[0] = value
        c[space.dim - var] = 1.0  # degree-1 block in reverse variable order
        return cls(space, c, 1)

    def const(self, value: float) -> "Jet":
        """Constant jet with this jet's signature and coefficient dtype."""
        return Jet.constant(self.space, value, self.coeffs.dtype)

    # -- inspection ---------------------------------------------------

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def value(self) -> float:
        """Value part (coefficient of the empty multi-index), as a float."""
        return float(self.coeffs[0])

    # ``num`` is the shared "plain number for control flow" accessor of the
    # scalar interface; for duals it recurses into the value component.
    num = value

    def extract(self, index) -> float:
        """Partial derivative d^|index| f / dx^index at the base point."""
        index = tuple(int(i) for i in index)
        if len(index) != self.space.dim:
            raise DimensionError(
                f"multi-index length {len(index)} != jet dimension {self.space.dim}"
            )
        if any(i < 0 for i in index):
            raise OrderError("multi-index entries must be >= 0")
        if sum(index) > self.space.order:
            raise OrderError(
                f"requested total order {sum(index)} exceeds jet order {self.space.order}"
            )
        if sum(index[: self.space.dim // 2]) > self.space.x_cap:
            raise OrderError(
                f"requested x-degree {sum(index[: self.space.dim // 2])} exceeds "
                f"the jet's x-degree cap {self.space.x_cap}"
            )
        pos = self.space.index_of[index]
        return float(self.coeffs[pos] * self.space.factorials[pos])

    def gradient(self) -> np.ndarray:
        """First partials with respect to every variable at the base point
        (a view of the degree-1 coefficients, in variable order)."""
        if self.space.order < 1:
            raise OrderError("a jet of order 0 carries no gradient")
        if self.space.x_cap < 1:
            raise OrderError("a jet with x-degree cap 0 carries no position gradient")
        return self.coeffs[self.space.dim : 0 : -1]

    def hessian(self) -> np.ndarray:
        """Symmetric matrix of second partials at the base point, gathered
        from the degree-2 coefficients (diagonal ones doubled)."""
        if self.space.order < 2:
            raise OrderError("a jet of order < 2 carries no second partials")
        if self.space.x_cap < 2:
            raise OrderError("a jet with x-degree cap < 2 carries no second position partials")
        pos, fac = self.space.hessian_table
        out = self.coeffs[pos]
        out *= fac
        return out

    def __repr__(self):
        s = self.space
        return f"Jet(dim={s.dim}, order={s.order}, x_cap={s.x_cap}, value={self.value!r})"

    # -- signature handling -------------------------------------------

    def truncated(self, order: int) -> "Jet":
        """This jet truncated to a lower (or equal) order, at the same cap."""
        if order > self.space.order:
            raise OrderError(f"cannot extend jet of order {self.space.order} to {order}")
        return self.to_space(jet_space(self.space.dim, order, self.space.x_cap))

    # -- arithmetic ----------------------------------------------------

    # in Jet's own namespace, where bench/tracer.py patches them
    __mul__ = __rmul__ = _Coefficients.__mul__
    d = _Coefficients.d

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * self._peer(other).recip()
        if isinstance(other, numbers.Real):
            return Jet(self.space, self.coeffs / float(other), self.deg)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return self.recip() * float(other)
        return NotImplemented

    def __pow__(self, n):
        if isinstance(n, numbers.Integral):
            return _ipow(self, int(n))
        return NotImplemented

    # -- analytic functions by degree-graded recurrences ------------------

    def _b0(self):
        """The value part in the coefficients' precision: a float for
        float64, else a numpy scalar of the wider dtype."""
        return self.coeffs[0].item()

    def _scaled(self, b0) -> np.ndarray:
        """Coefficients of self / b0 - 1: the scaled jet less its value part."""
        t = self.coeffs / b0
        t[0] = 0.0
        return t

    def recip(self) -> "Jet":
        b0 = self._b0()
        with _float_range("recip", b0):
            if b0 == 0.0:
                raise PoleError("division by a jet with zero value part")
            # (1 + t) v = 1
            p = _graded_solve(self.space, self._scaled(b0), 1.0, 0.0, 1.0)
            p /= b0
        return Jet(self.space, p)

    def sqrt(self) -> "Jet":
        return self._power(0.5, "sqrt")

    def ln(self) -> "Jet":
        b0 = self._b0()
        with _float_range("ln", b0):
            if b0 <= 0.0:
                raise BranchError(f"ln of a jet with non-positive value part {b0!r}")
            # (1 + t) E(w) = E(t)
            p = _graded_solve(self.space, self._scaled(b0), 0.0, 1.0, 1.0, 1.0)
            p[0] = _value_function("log", b0)
        return Jet(self.space, p)

    def exp(self) -> "Jet":
        b0 = self._b0()
        with _float_range("exp", b0):
            t = self.coeffs.copy()
            t[0] = 0.0
            # E(e) = e E(t)
            p = _graded_solve(self.space, t, 1.0, 1.0, 0.0)
            p *= _value_function("exp", b0)
        return Jet(self.space, p)

    def powc(self, alpha: float) -> "Jet":
        """Real power with constant exponent; requires a positive value part."""
        return self._power(alpha, f"power {alpha!r}")

    def _power(self, alpha: float, name: str) -> "Jet":
        b0 = self._b0()
        with _float_range(name, b0):
            if b0 <= 0.0:
                raise BranchError(f"{name} of a jet with non-positive value part {b0!r}")
            # (1 + t) E(p) = alpha p E(t)
            p = _graded_solve(self.space, self._scaled(b0), 1.0, alpha + 1.0, 1.0)
            p *= b0**alpha
        return Jet(self.space, p)


class JetArray(_Coefficients):
    """A tensor of jets in one space, stored as one float array
    ``coeffs[*index, size]``: the last axis holds each entry's coefficients
    in the space's layout.

    Indexing down to one entry gives a :class:`Jet` (``t[i, j]`` or
    ``t[i][j]``), and so do reductions to a scalar; a result with index
    axes left is a tensor again.  Linear operations (``+``, ``-``, scaling
    by a number, :meth:`d`, :meth:`partials`, :meth:`to_space`, ``num``)
    are one numpy operation on all entries.  Products (elementwise ``*``
    with broadcasting, ``@``) are one gather over all entries, each
    entry summing its pairs like :class:`Jet` does; sums over an index
    axis (``@``, :meth:`sum`, :meth:`trace`) add left to right.  So every entry has the
    bits of the same formula on single jets.  Operands are jets or tensors
    of this space; other spaces raise :class:`SignatureError`.  A tensor is
    never written into: item assignment raises ``TypeError``.
    """

    __slots__ = ()
    # numpy hands binary operators with a numpy operand to these methods
    __array_ufunc__ = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

    @property
    def num(self) -> np.ndarray:
        """The value parts of the entries, as an array of the coefficients' dtype."""
        return self.coeffs[..., 0].copy()

    @property
    def flat(self):
        """The entries in row-major order, as jets."""
        return (Jet(self.space, c, self.deg) for c in self.coeffs.reshape(-1, self.space.size))

    def __repr__(self):
        s = self.space
        return f"JetArray(shape={self.shape}, dim={s.dim}, order={s.order}, x_cap={s.x_cap})"

    def __getitem__(self, index):
        return _wrap(self.space, self.coeffs[_index(index)], self.deg)

    def transpose(self, *axes) -> "JetArray":
        axes = axes or tuple(reversed(range(len(self.shape))))
        return JetArray(self.space, self.coeffs.transpose(*axes, len(self.shape)), self.deg)

    @property
    def T(self) -> "JetArray":
        return self.transpose()

    def sum(self, axis=None):
        """The sum over one index axis, or over all of them in row-major order."""
        c = self.coeffs
        if axis is None:
            return _wrap(self.space, _sequential_sum(c.reshape(-1, self.space.size), 0), self.deg)
        return _wrap(self.space, _sequential_sum(c, axis % len(self.shape)), self.deg)

    def trace(self, axis1: int = 0, axis2: int = 1):
        """The sum of the diagonal of two index axes."""
        ndim = len(self.shape)
        diagonal = np.diagonal(self.coeffs, 0, axis1 % ndim, axis2 % ndim)  # the diagonal axis comes last
        return _wrap(self.space, _sequential_sum(diagonal, diagonal.ndim - 1), self.deg)

    def __matmul__(self, other):
        """numpy's matmul for matrices and vectors; each entry sums its
        products left to right over the shared index."""
        if len(other.shape) == 1:
            return (self * other).sum(axis=-1)
        if len(self.shape) == 1:
            return (self[:, None] * other).sum(axis=0)
        return (self[..., None] * other[..., None, :, :]).sum(axis=-2)


def stack(entries):
    """One tensor from jets, tensors or duals of them, all of one space and
    shape, along a new first axis."""
    first = entries[0]
    if isinstance(first, DualLayer):
        return DualLayer(stack([e.value for e in entries]), stack([e.tangent for e in entries]))
    return JetArray(first.space, np.stack([e.coeffs for e in entries]), max(e.deg for e in entries))


def _on_both_parts(name: str):
    """A dual's method applying the parts' own method ``name`` to both."""

    def method(self, *args, **kwargs):
        return DualLayer(getattr(self.value, name)(*args, **kwargs), getattr(self.tangent, name)(*args, **kwargs))

    return method


class DualLayer:
    """(value, tangent) pair propagating one extra directional derivative.

    Components are jets (or nested duals) of identical signature.  Running
    a computation on duals whose tangents are seeded with d/ds of the
    inputs yields the directional derivative of every output along s.
    Kept only as a test oracle for the jet-based gradients (module docstring).
    """

    __slots__ = ("value", "tangent")

    def __init__(self, value, tangent):
        self.value = value
        self.tangent = tangent

    @property
    def order(self) -> int:
        return self.value.order

    @property
    def space(self) -> JetSpace:
        return self.value.space

    @property
    def num(self) -> float:
        return self.value.num

    def const(self, v: float) -> "DualLayer":
        return DualLayer(self.value.const(v), self.tangent.const(0.0))

    def to_space(self, space: JetSpace) -> "DualLayer":
        if space is self.space:
            return self
        return DualLayer(self.value.to_space(space), self.tangent.to_space(space))

    def __repr__(self):
        return f"DualLayer(value={self.value!r})"

    def __neg__(self):
        return DualLayer(-self.value, -self.tangent)

    def __add__(self, other):
        if isinstance(other, DualLayer):
            return DualLayer(self.value + other.value, self.tangent + other.tangent)
        if isinstance(other, numbers.Real):
            return DualLayer(self.value + other, self.tangent)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualLayer):
            return DualLayer(self.value - other.value, self.tangent - other.tangent)
        if isinstance(other, numbers.Real):
            return DualLayer(self.value - other, self.tangent)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            return DualLayer(other - self.value, -self.tangent)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, DualLayer):
            return DualLayer(
                self.value * other.value,
                self.tangent * other.value + self.value * other.tangent,
            )
        if isinstance(other, (numbers.Real, np.ndarray)):
            return DualLayer(self.value * other, self.tangent * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualLayer):
            return self * other.recip()
        if isinstance(other, numbers.Real):
            return DualLayer(self.value / other, self.tangent / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return self.recip() * float(other)
        return NotImplemented

    def __pow__(self, n):
        if isinstance(n, numbers.Integral):
            return _ipow(self, int(n))
        return NotImplemented

    def recip(self) -> "DualLayer":
        r = self.value.recip()
        return DualLayer(r, -(self.tangent * r) * r)

    def sqrt(self) -> "DualLayer":
        s = self.value.sqrt()
        return DualLayer(s, self.tangent / (s * 2.0))

    def ln(self) -> "DualLayer":
        return DualLayer(self.value.ln(), self.tangent / self.value)

    def exp(self) -> "DualLayer":
        e = self.value.exp()
        return DualLayer(e, self.tangent * e)

    def powc(self, alpha: float) -> "DualLayer":
        return DualLayer(self.value.powc(alpha), self.tangent * self.value.powc(alpha - 1.0) * alpha)

    # the linear maps act on each part alike; a dual of tensors has
    # JetArray parts, and @ follows the product rule like *
    d = _on_both_parts("d")  # d/ds commutes with coordinate partials
    partials = _on_both_parts("partials")
    __getitem__ = _on_both_parts("__getitem__")
    transpose = _on_both_parts("transpose")
    sum = _on_both_parts("sum")
    trace = _on_both_parts("trace")
    shape = property(lambda self: self.value.shape)
    T = property(lambda self: self.transpose())

    def __matmul__(self, other: "DualLayer") -> "DualLayer":
        return DualLayer(self.value @ other.value, self.tangent @ other.value + self.value @ other.tangent)


def seed_phase_point(point, order: int, x_cap: int | None = None, dtype=np.float64):
    """Coordinate jets for a :class:`~finslerkit.metrics.PhasePoint`.

    Returns ``2n`` jets over the shared space ``(2n, order, x_cap)``:
    variables ``0..n-1`` are the positions ``point.x``, ``n..2n-1`` the
    fiber coordinates ``point.y``, and ``x_cap`` (default: none) bounds the
    number of position derivatives carried.  The coefficients are of
    ``dtype``, and so is everything computed from them (module docstring).
    The point was checked when it was built (y != 0 among the rest: every
    metric here is fiberwise singular at the origin).
    """
    if order < 1:
        raise OrderError("seeding a phase point requires order >= 1")
    n = len(point.x)
    space = jet_space(2 * n, order, x_cap)
    seeds = [Jet.variable(space, k, v, dtype) for k, v in enumerate(point.x)]
    seeds += [Jet.variable(space, n + k, v, dtype) for k, v in enumerate(point.y)]
    return seeds


def seed_dual_phase_point(point, order: int, direction: int):
    """Dual-valued coordinate seeds whose tangent is d/d(variable ``direction``).

    Running any scalar computation on these seeds produces, in the tangent
    component, the partial derivative of the result with respect to phase
    variable ``direction`` (0..n-1 positions, n..2n-1 fiber), in addition to
    whatever jet orders the value component carries.  Kept only as a test
    oracle for the jet-based gradients (module docstring).
    """
    base = seed_phase_point(point, order)
    if not 0 <= direction < len(base):
        raise DimensionError(f"direction {direction} out of range for {len(base)} phase variables")
    duals = []
    for k, jet in enumerate(base):
        duals.append(DualLayer(jet, jet.const(1.0 if k == direction else 0.0)))
    return duals
