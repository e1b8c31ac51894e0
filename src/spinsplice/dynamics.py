"""Time evolution under h0 + g(t) v and trajectory observables.

Propagation factors the time-ordered exponential into piecewise-constant
steps, sampled at step midpoints on a uniform grid refined by the schedule's
jump points, so that no pulse edge or noise window straddles a step: a smooth
schedule takes n_steps uniform steps, and a pulse train, piecewise constant
already, one uniform step cut at its edges, so exactly one factor per pulse.
Both h0 and v conserve total S^z and commute with the chain's reflection that
keeps the cut bonds, so only the blocks the state occupies, parity halves of
its total-S^z sectors, are evolved, and the state never leaves them.

Every step acts on a batch (``propagate``): one column of block amplitudes
per schedule, B = 1 included.  In each block the generator is centred:
with c0, cv the centres and r0, rv the radii of the spectra of h0 and v
there (``SectorPropagator.centred``), a step applies
exp(-i ((h0 - c0) + g_b (v - cv)) dt_b) to column b and the scalar phase
exp(-i (c0 + g_b cv) dt_b) is restored when the state is read.  By Weyl's
inequality the centred generator has 2-norm at most r0 + |g_b| rv, and the
Taylor series planned by ``taylor_plan`` on the bound (r0 + |g_b| rv) dt_b
is the exact factor to round-off; a step whose plan needs more than
``MAX_TAYLOR_TERMS`` terms takes the exact factor from an eigendecomposition
instead (``_exact_factor``).

The block dimension d alone picks how the series is applied.  A block whose
table of (h + g v)^k up to MAX_TAYLOR_ORDER fits MAX_BATCH_BYTES (d <= 23:
every block of the 4- to 7-spin chains) takes step factors
(``_factor_steps``): each column on its own plan, each step's polynomial
one d x d matrix from the cached table, applied in one batched product per
substep, so that a column's value is bitwise that of its single run.  A
batch whose step factors' coefficients would exceed MAX_BATCH_BYTES
evolves in parts of its columns (``_column_parts``).  A larger block applies the series term by term (``_taylor_steps``), one
(d x B) product per term, on one plan per step for the batch, from its
largest bound.

The observables (``reduce_density``, ``cut_fidelity``, ``entropy``) take a
stack of states or matrices along a leading axis.  The module does no file
I/O.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .chain import (
    UNIT_ROUNDOFF,
    Blocks,
    Matrices,
    Spectra,
    _slack,
    diagonalize,
    solve_by_size,
)

ENTROPY_EIGENVALUE_FLOOR = 1e-14
# Highest Taylor order.  Its largest substep bound (r0 + |g| rv) dt / s is
# about 1.5, so no partial sum exceeds e^1.5 times the state norm and
# round-off stays at a few ulps.
MAX_TAYLOR_ORDER = 20
# A step whose Taylor plan needs more terms than this takes the exact factor.
MAX_TAYLOR_TERMS = 64
# Entries M[k, l], 0 <= l <= k <= MAX_TAYLOR_ORDER, of a block's g-expansion
# (h + g v)^k = sum_l g^l M[k, l]: a block of dimension d whose table of
# 8 d^2 EXPANSION_TERMS bytes fits MAX_BATCH_BYTES (d <= 23) takes step factors.
# The 8-ring's 31-state block, given them, ran 300-step single schedules 4x
# faster, but its 60-step runs on a new propagator (table filled anew) 10-50%
# slower, and its peak RSS rose 1.4 MiB (2-vCPU x86-64, one BLAS thread).
EXPANSION_TERMS = (MAX_TAYLOR_ORDER + 1) * (MAX_TAYLOR_ORDER + 2) // 2
# Step factors are formed as products of this many rows by one polynomial's
# coefficients: each product has the same shape in any batch, padded rows
# included, and reads the coefficients once per FACTOR_ROWS factors (numpy
# sends a one-row product to gemv, about three times slower per factor).
FACTOR_ROWS = 4
# Largest (d x B) amplitude array or (steps x B) coupling table of one batch
# of propagate, largest set of step-factor coefficients one part of a batch
# holds, and largest stack of d x d generators one exact step diagonalizes.
# A memory guard, not a tuned speed setting: on reproduce fig8 (6-ring, 300
# steps, 1225 cells per grid; 2-vCPU x86-64, one BLAS thread) it keeps the
# peak RSS at 42 MiB against 62 MiB for one unchunked batch per grid, at a
# wall time within run-to-run noise of it; 64 KiB nearly triples the time.
MAX_BATCH_BYTES = 1 << 20


def _largest_substep_norm(order: int) -> float:
    """Largest theta whose Taylor tail after the given order,
    theta^(m+1) / (m+1)! / (1 - theta / (m+2)), is at most 2^-53."""
    lo, hi = 0.0, order + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        tail = mid ** (order + 1) / math.factorial(order + 1) / (1.0 - mid / (order + 2))
        lo, hi = (mid, hi) if tail <= UNIT_ROUNDOFF else (lo, mid)
    return lo


ORDERS = np.arange(MAX_TAYLOR_ORDER, 0, -1)  # highest first: ties go to the fewest substeps
THETA = np.array([_largest_substep_norm(m) for m in ORDERS])
_INVERSE_ORDERS = 1.0 / np.arange(1.0, MAX_TAYLOR_ORDER + 1)[:, None, None, None]
# each (-i)^k / k! as the sign of its real (k even) or imaginary (k odd) part over k!
_POWER_OF_MINUS_I = np.array([(-1.0) ** ((k + 1) // 2) / math.factorial(k) for k in range(MAX_TAYLOR_ORDER + 1)])
# first row of each l's run M[l, l], M[l + 1, l], .. in an l-major expansion table
_RUN_START = np.cumsum([0, *range(MAX_TAYLOR_ORDER + 1, 1, -1)])
# for each order m, the (k, l) of the coefficients of N_0 .. N_m, run by run of l
_RUN_INDEX = [(np.concatenate([np.arange(l, m + 1) for l in range(m + 1)]),
               np.concatenate([np.full(m + 1 - l, l) for l in range(m + 1)])) for m in range(MAX_TAYLOR_ORDER + 1)]


def _least_work(norm_dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``taylor_plan`` from its definition, one row of candidates per bound."""
    substeps = np.minimum(np.ceil(np.asarray(norm_dt)[:, None] / THETA), MAX_TAYLOR_TERMS + 1)
    substeps = np.maximum(substeps, 1.0).astype(int)
    best = np.argmin(ORDERS * substeps, axis=1)
    return ORDERS[best], substeps[np.arange(best.size), best]


def _first_above(count: float, theta: float) -> float:
    """The least float x with x / theta > count, as rounded."""
    x = count * theta
    while x / theta > count:
        x = math.nextafter(x, 0.0)
    while not x / theta > count:
        x = math.nextafter(x, math.inf)
    return x


# Each float at which some order's substep count ceil(x / theta) passes a
# count up to MAX_TAYLOR_TERMS, and the plan from 0 and from each edge on:
# every count, and so the plan, is constant between two edges.  On the
# 65536 bounds of a 218-column, 300-step batch the table takes 5 ms and
# 1.5 MiB, the definition 16 ms and 30 MiB of (bounds x orders) temporaries.
_PLAN_EDGES = np.array(sorted({_first_above(float(s), theta) for theta in THETA.tolist()
                               for s in range(1, MAX_TAYLOR_TERMS + 1)}))
_PLANS = _least_work(np.concatenate([[0.0], _PLAN_EDGES]))


def taylor_plan(norm_dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order m and substep count s for steps whose Hermitian generator times
    dt has 2-norm at most ``norm_dt``, the centred bound (r0 + |g| rv) dt:
    the pair with the least m * s, and of those the fewest substeps, such
    that each substep's norm is within the largest that order m truncates to
    2^-53 (THETA; Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
    The tail bound holds in the 2-norm, the norm of the state.  Read off a
    table of the plan between the bounds at which a substep count changes,
    for an array of bounds of any shape."""
    at = np.searchsorted(_PLAN_EDGES, norm_dt, side="right")
    return _PLANS[0][at], _PLANS[1][at]


class SectorPropagator:
    """Applies exp(-i (h0 + g v) dt) block by block.

    ``blocks`` holds the ``Block`` bases, parity halves of the total-S^z
    sectors (or the plain sectors), and ``h0`` and ``v`` the real symmetric
    float64 matrices of the split Hamiltonian on them, as
    ``assemble_hamiltonian`` returns them.  States enter and leave in the
    full space, through ``Block.amplitudes`` and ``embed``.  Construction
    diagonalizes every block of h0 and of h0 + v, one ``eigvalsh`` per
    dimension for both: the whole spectra at g = 0 and g = 1, and each
    block's range there as a centre and a radius (``_ranges``).  Only the
    blocks in which the state has amplitude are evolved; each one's
    ``centred`` record is formed on first use.
    """

    def __init__(self, blocks: Blocks, h0: Matrices, v: Matrices):
        self.dim = sum(b.size for b in blocks)
        self.blocks = blocks
        self.h0 = h0
        self.v = v
        self._centred: dict[int, Centred] = {}
        self._v_range = None  # v's ranges on every block, found on the first coupling outside [0, 1]
        coupled = [h + u for h, u in zip(h0, v)]  # h0 + 1.0 v, bitwise: 1.0 v is v
        (rest, self._h0_range), (joined, self._h1_range) = self._ranges(h0, coupled)
        self._endpoints = {0.0: rest, 1.0: joined}

    def spectra(self, gs, iterate: bool = False) -> Spectra:
        """The ``chain.Spectra`` of h0 + g v at each coupling g, pruned by
        Weyl's bounds and diagonalized together (``chain.diagonalize``).

        g = 0 and g = 1 get the energies kept at construction and no bounds.
        At any other g, h0 + g v = (1 - g) h0 + g (h0 + v), and Weyl's
        inequality puts block b's energies within (|1 - g| r0 + |g| r1) of
        (1 - g) c0 + g c1, with c0, r0 and c1, r1 the centres and radii of
        the ranges of h0 and h0 + v there (``_weyl``).  Outside [0, 1] the
        same inequality on h0 + g v, from v's ranges (found on the first such
        g), tightens the bounds; inside, it never does.  Each radius holds
        its block's round-off slack 4 d eps ||M||, which exceeds both the
        round-off of the diagonalizations the bounds compare and the
        rounding of the two sums that form each bound, so that no bound
        excludes an energy ``eigvalsh`` would compute.  Each spectrum
        diagonalizes only the blocks its bounds admit.  A lone ground's
        state is its block's ``eigh`` vector, or with ``iterate`` its
        vector by shifted inverse iteration (``chain._lowest_vectors``).
        """
        return diagonalize(self.blocks, *self._asks(gs), iterate)

    def _asks(self, gs) -> tuple[list, list, list]:
        """Each coupling's block matrices of h0 + g v (formed on request), bounds and known energies."""
        gs = list(gs)
        bounded = np.array([g for g in gs if g not in self._endpoints], dtype=float)[:, None]
        bounds = zip(*self._bounds(bounded)) if bounded.size else iter(())
        return ([lambda b, g=g: self.h0[b] + g * self.v[b] for g in gs],
                [None if g in self._endpoints else next(bounds) for g in gs],
                [self._endpoints.get(g) for g in gs])

    def _bounds(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weyl's lower and upper bounds on every block's energies, one row
        per coupling of the column ``g``."""
        lower, upper = _weyl((1.0 - g, self._h0_range), (g, self._h1_range))
        outside = ~((0.0 < g) & (g < 1.0))
        if outside.any():
            if self._v_range is None:
                ((_, self._v_range),) = self._ranges(self.v)
            by_v = _weyl((1.0, self._h0_range), (g, self._v_range))
            lower = np.where(outside, np.maximum(lower, by_v[0]), lower)
            upper = np.where(outside, np.minimum(upper, by_v[1]), upper)
        return lower, upper

    def _ranges(self, *operators: Matrices, blocks=None) -> list[tuple[dict[int, np.ndarray], np.ndarray]]:
        """For each operator, the energies of ``blocks`` (every block by
        default), from one ``eigvalsh`` per dimension for all the operators,
        and the (centre, radius) rows of a (2, blocks) array: the midpoint of
        each block's energy range, and half its width widened by the
        round-off slack 4 d eps ||M||, so that ||M - centre||_2 <= radius."""
        blocks = range(len(self.blocks)) if blocks is None else blocks
        energies = solve_by_size(np.linalg.eigvalsh, self.blocks, [(op.__getitem__, blocks) for op in operators])
        ends = np.array([[(e[b][0], e[b][-1]) for b in blocks] for e in energies])
        lowest, highest = ends[..., 0], ends[..., 1]
        slack = _slack(np.array([self.blocks[b].size for b in blocks]), np.abs(ends).max(axis=2))
        return list(zip(energies, np.stack((0.5 * (lowest + highest), 0.5 * (highest - lowest) + slack), axis=1)))

    def occupied(self, psi: np.ndarray) -> list[int]:
        """Indices of the blocks in which psi has a nonzero amplitude."""
        return [k for k, b in enumerate(self.blocks) if np.any(b.amplitudes(psi))]

    def centred(self, k: int) -> Centred:
        """Block k's ``Centred`` record: the centres and radii (c0, r0, cv,
        rv) of h0's range (from construction) and v's (``_ranges``), the
        centred matrices h0 - c0 and v - cv, the two side by side, and, when
        its table fits MAX_BATCH_BYTES, the expansion of
        (h0 - c0) / r0 + g (v - cv) / rv."""
        if k not in self._centred:
            ((_, v_range),) = self._ranges(self.v, blocks=[k])
            (c0, r0), (cv, rv) = self._h0_range[:, k].tolist(), v_range[:, 0].tolist()
            d = self.h0[k].shape[0]
            # on a 64-byte boundary, where the Taylor kernel's products with it run fastest
            buf = np.empty(2 * d * d + 8)
            start = -buf.ctypes.data // 8 % 8
            hv = buf[start:start + 2 * d * d].reshape(d, 2 * d)
            np.concatenate((self.h0[k] - c0 * np.eye(d), self.v[k] - cv * np.eye(d)), axis=1, out=hv)
            h, v = hv[:, :d], hv[:, d:]
            expansion = None
            if 8 * EXPANSION_TERMS * h.size <= MAX_BATCH_BYTES:
                # a zero radius leaves its matrix, zero itself, as it is
                expansion = _Expansion(h / (r0 or 1.0), v / (rv or 1.0))
            self._centred[k] = Centred(c0, r0, cv, rv, h, v, hv, expansion)
        return self._centred[k]

    def embed(self, occupied: list[int], amps: list[np.ndarray]) -> np.ndarray:
        """The full-space state (or one column per state) with the given block
        amplitudes, zero elsewhere."""
        psi = np.zeros((self.dim, *amps[0].shape[1:]), dtype=complex)
        for k, amp in zip(occupied, amps):
            self.blocks[k].embed(amp, psi)
        return psi


class Centred(NamedTuple):
    """One block's centred generator (``SectorPropagator.centred``): the
    centres c0, cv and radii r0, rv of the ranges of h0 and v there, with
    ||h0 - c0||_2 <= r0 and ||v - cv||_2 <= rv; h = h0 - c0 and v = v - cv,
    the two halves of ``hv`` = [h v]; and ``expansion``, the table of
    (h / r0 + g v / rv)^k, whose entries are at most binomial(k, l) in norm,
    or None for a block too large for step factors."""

    c0: float
    r0: float
    cv: float
    rv: float
    h: np.ndarray
    v: np.ndarray
    hv: np.ndarray
    expansion: _Expansion | None


class _Expansion:
    """The real matrices M[k, l] with (h + g v)^k = sum_l g^l M[k, l]:
    M[0, 0] = I and M[k, l] = h M[k-1, l] + v M[k-1, l-1], a term absent
    when its l is out of 0..k-1.  They are stored l-major, so that the
    entries of one l up to an order are one run of rows (``runs``), and
    filled up to the highest order asked for, so that a table's untouched
    pages take no memory."""

    def __init__(self, h: np.ndarray, v: np.ndarray):
        self.h, self.v = h, v
        self.table = np.empty((EXPANSION_TERMS, *h.shape))
        self.table[0] = np.eye(h.shape[0])
        self.order = 0

    def runs(self, order: int) -> list[np.ndarray]:
        """For l = 0..order, M[l, l] .. M[order, l] as rows of d^2, filling
        the table up to ``order``."""
        for k in range(self.order + 1, order + 1):
            below = self.table[_RUN_START[:k] + k - 1 - np.arange(k)]
            row = np.zeros((k + 1, *self.h.shape))
            np.matmul(self.h, below, out=row[:k])
            row[1:] += np.matmul(self.v, below)
            self.table[_RUN_START[:k + 1] + k - np.arange(k + 1)] = row
        self.order = max(self.order, order)
        rows = self.table.reshape(EXPANSION_TERMS, -1)
        return [rows[start:start + order + 1 - l] for l, start in enumerate(_RUN_START[:order + 1].tolist())]


def _weyl(*terms: tuple[float | np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-block lower and upper bounds on the energies of sum_k c_k M_k,
    from the (centre, radius) rows of each M_k's ranges: Weyl's inequality,
    sum_k c_k centre_k -/+ sum_k |c_k| radius_k.  A weight may be a column
    of couplings, one row of bounds each."""
    centre = sum(c * mid for c, (mid, _) in terms)
    radius = sum(np.abs(c) * r for c, (_, r) in terms)
    return centre - radius, centre + radius


def _taylor_factor(hv, amp, weight, order, substeps):
    """exp(-i (h0 + g_b v) dt_b) on each column b of ``amp``, as ``substeps``
    Taylor polynomials of the given order.  ``hv`` is [h0 v] side by side,
    and ``weight`` holds the rows -i dt_b / s and -i g_b dt_b / s."""
    d, width = amp.shape
    coefs = weight[:, None, :] * _INVERSE_ORDERS[:order]
    scaled = np.empty((2, d, width), dtype=complex)
    term = np.empty((d, width), dtype=complex)
    stacked, term_real = scaled.view(float).reshape(2 * d, 2 * width), term.view(float)
    for _ in range(substeps):
        total = amp.copy()
        src = amp
        for coef in coefs:
            # term = (-i dt / (s j)) (h0 src + g v src): one real product of
            # [h0 v] with c src stacked over c g src
            np.multiply(src, coef, out=scaled)
            np.matmul(hv, stacked, out=term_real)
            total += term
            src = term
        amp = total
    return amp


def _exact_factor(h0, v, rows, g, dt):
    """exp(-i (h0 + g_b v) dt_b) on each row b of ``rows`` (one column's
    block amplitudes each) from the eigenpairs of its generator,
    diagonalized in stacks of at most MAX_BATCH_BYTES."""
    width, d = rows.shape
    rows = np.ascontiguousarray(rows)
    out = np.empty_like(rows)
    chunk = max(1, MAX_BATCH_BYTES // (8 * d * d))
    for lo in range(0, width, chunk):
        w, q = np.linalg.eigh(h0 + g[lo:lo + chunk, None, None] * v)
        # real eigenvectors: the products act on (re, im) as two real columns
        x = np.matmul(q.transpose(0, 2, 1), rows[lo:lo + chunk].view(float).reshape(-1, d, 2))
        x = x.view(complex)[..., 0] * np.exp(-1j * w * dt[lo:lo + chunk, None])
        out[lo:lo + chunk] = np.matmul(q, x.view(float).reshape(-1, d, 2)).view(complex)[..., 0]
    return out


def _taylor_steps(block, amp, g_values, dts, orders, substeps):
    """Yields the (d x B) amplitudes ``amp`` after each step: step j on one
    Taylor plan (``orders[j]``, ``substeps[j]``) for every column, from its
    largest bound in the batch, as one (d x B) product per term
    (``_taylor_factor``), or the exact factor."""
    weights = (-1j * dts / substeps[:, None])[:, None, :] * np.stack([np.ones_like(g_values), g_values], axis=1)
    for j in range(dts.shape[0]):
        if orders[j] * substeps[j] > MAX_TAYLOR_TERMS:
            amp = _exact_factor(block.h, block.v, amp.T, g_values[j], dts[j]).T
        else:
            amp = _taylor_factor(block.hv, amp, weights[j], orders[j], substeps[j])
        yield amp


class _FactorPlan(NamedTuple):
    """Each column's Taylor plan on a block that takes step factors.  Each
    (step, column) entry has its substep count and its key: the index of
    its (m, tau = dt / s) among the distinct pairs of its columns, sorted,
    or -1 for an entry past MAX_TAYLOR_TERMS, which takes the exact factor."""

    substeps: np.ndarray  # (steps x B)
    key: np.ndarray  # (steps x B)
    order: np.ndarray  # each key's m
    tau: np.ndarray  # each key's tau

    @classmethod
    def of(cls, bound, dts) -> _FactorPlan:
        """The plans of the (steps x B) centred ``bound`` and their keys."""
        orders, substeps = taylor_plan(bound)
        taylor = np.flatnonzero(orders.ravel() * substeps.ravel() <= MAX_TAYLOR_TERMS)
        order, tau = orders.ravel()[taylor], (dts / substeps).ravel()[taylor]
        by_key = np.lexsort((tau, order))
        first = np.ones(taylor.size, dtype=bool)
        first[1:] = (np.diff(order[by_key]) != 0) | (np.diff(tau[by_key]) != 0)
        key = np.full(bound.size, -1)
        key[taylor[by_key]] = np.cumsum(first) - 1
        return cls(substeps, key.reshape(bound.shape), order[by_key][first], tau[by_key][first])


def _column_parts(plans, durations):
    """The batch's columns in parts that evolve one after another: one
    ``slice(None)``, unless the coefficients of the keys of ``plans``,
    (m + 1) complex d x d matrices each, exceed MAX_BATCH_BYTES (``plans``
    pairs each step-factor block's ``_FactorPlan`` with its dimension d).
    Then index arrays, in runs by duration (whose columns share most keys),
    each run's coefficients within MAX_BATCH_BYTES or of one column."""
    costs = [(16 * d * d * (plan.order + 1)).tolist() for plan, d in plans]
    if sum(map(sum, costs)) <= MAX_BATCH_BYTES:
        return [slice(None)]
    parts, held = [], set()
    for b in np.argsort(durations, kind="stable").tolist():
        mine = {(i, key) for i, (plan, _) in enumerate(plans) for key in np.unique(plan.key[:, b]).tolist()
                if key >= 0}
        if not parts or sum(costs[i][key] for i, key in held | mine) > MAX_BATCH_BYTES:
            parts.append([])
            held = set()
        parts[-1].append(b)
        held |= mine
    return [np.array(part) for part in parts]


def _factor_steps(block, amp, g_values, dts, plan):
    """Yields the (d x B) amplitudes ``amp`` after each step, each column on
    its own Taylor plan (``_FactorPlan``: order m, s substeps of tau = dt / s).
    With a = tau r0 and u = g tau rv, r0 and rv the radii of the ``Centred``
    ``block``, the plan's polynomial in -i (a h / r0 + u v / rv) is the step
    factor F = sum_l u^l N_l(a, m), applied s times; |a| and |u| are at most
    the substep bound.  The N_l of each key (m, a) of ``plan``, these columns'
    own, come from the expansion table (``_coefficients``).  The factors of one
    key in a chunk of steps are formed FACTOR_ROWS at a time (``_factor_layout``),
    so that each product has the same shape in any batch and no column's
    arithmetic depends on the others in it.  A step past MAX_TAYLOR_TERMS takes
    the exact factor.  Factors are formed in chunks of at most MAX_BATCH_BYTES / 4."""
    steps, width = dts.shape
    d, r0, rv = block.h.shape[0], block.r0, block.rv
    exact = plan.key < 0
    polynomials = _coefficients(block.expansion, plan.order, plan.tau * r0)
    chunk = max(1, MAX_BATCH_BYTES // (4 * 16 * d * d * width)) * width  # entries per chunk
    layout = _factor_layout(plan.key, g_values * (dts / plan.substeps) * rv, chunk)

    bases = layout.bases
    formed = np.empty((max(np.diff(bases), default=0), 2 * d * d))
    powers, powered = np.empty((0, MAX_TAYLOR_ORDER + 1)), 0  # u^l of the rows from ``powered`` on
    mixed = (exact.any(axis=1) | (plan.substeps != plan.substeps[:, :1]).any(axis=1)).tolist()
    repeats = plan.substeps[:, 0].tolist()
    rows, spare = np.ascontiguousarray(amp.T)[:, :, None], np.empty((width, d, 1), dtype=complex)
    by_step = layout.row.reshape(steps, width)
    # a step whose factors were formed in column order reads them in place
    in_order = (np.diff(by_step, axis=1) == 1).all(axis=1).tolist()
    step = gathered = np.empty((width, d, d), dtype=complex)
    for c, lo in enumerate(range(0, steps * width, chunk)):
        base, end = bases[c], bases[c + 1]
        if end > base:
            if end > powered + len(powers):
                # u^l for l = 0..MAX_TAYLOR_ORDER, whatever the orders, for this
                # chunk's rows and those after it up to MAX_BATCH_BYTES / 16
                powered = base
                rows_ahead = max(end - base, MAX_BATCH_BYTES // (16 * 8 * (MAX_TAYLOR_ORDER + 1)))
                powers = np.repeat(layout.u[base:base + rows_ahead, None], MAX_TAYLOR_ORDER + 1, axis=1)
                powers[:, 0] = 1.0
                np.cumprod(powers, axis=1, out=powers)
            table = powers[base - powered:end - powered]
            for g in range(layout.groups[c], layout.groups[c + 1]):
                n = polynomials[layout.group_key[g]]
                a, b = layout.slot[g] - base, layout.slot[g] - base + layout.padded[g]
                # (FACTOR_ROWS x (m+1)) by ((m+1) x 2 d^2) products
                np.matmul(table[a:b, :len(n)].reshape(-1, FACTOR_ROWS, len(n)), n,
                          out=formed[a:b].reshape(-1, FACTOR_ROWS, n.shape[1]))
            stack = formed[:end - base].view(complex).reshape(-1, d, d)
        if chunk == width and not mixed[lo // width]:
            # a chunk of one step, every column on a factor: the amplitudes
            # move to the factors' rows rather than the factors to the
            # columns, saving the gather of B d x d factors (on reproduce
            # fig7's 218-column batches of 15 states, a quarter of the time)
            held = np.zeros((len(stack), d, 1), dtype=complex)
            held[by_step[lo // width]] = rows
            for _ in range(repeats[lo // width]):
                held = np.matmul(stack, held)
            rows[:] = held[by_step[lo // width]]
            yield rows[:, :, 0].T
            continue
        for j in range(lo // width, min(steps, (lo + chunk) // width)):
            if end > base:
                at = by_step[j, 0]
                step = stack[at:at + width] if in_order[j] else stack.take(by_step[j], axis=0, out=gathered)
            if mixed[j]:
                _apply_mixed(block, rows[:, :, 0], step, plan.substeps[j], exact[j], g_values[j], dts[j])
            else:
                for _ in range(repeats[j]):
                    rows, spare = np.matmul(step, rows, out=spare), rows
            yield rows[:, :, 0].T


class _Layout(NamedTuple):
    """Where the step factors of a batch are formed (``_factor_layout``).
    An entry is a (step j, column b), numbered j * B + b; a group is a run
    of entries of one key in one chunk, padded to whole FACTOR_ROWS."""

    group_key: list  # each group's key
    slot: list  # each group's first row, the groups of all chunks in turn
    padded: list  # each group's rows
    groups: list  # each chunk's first group, and one past the last
    bases: list  # each chunk's first row, and one past the last
    row: np.ndarray  # each entry's row among its chunk's factors (0 if exact)
    u: np.ndarray  # u = g tau rv of each row, 0 on padding


def _factor_layout(key, u, chunk) -> _Layout:
    """Where the factor of each entry of the (steps x B) ``key`` (-1 for an
    exact step) and ``u`` is formed: sorted by chunk of ``chunk`` entries and
    by key within it."""
    taylor = np.flatnonzero(key.ravel() >= 0)
    at = np.lexsort((key.ravel()[taylor], taylor // chunk))
    taylor = taylor[at]
    key = key.ravel()[taylor]
    heads = np.ones(taylor.size, dtype=bool)
    heads[1:] = (np.diff(key) != 0) | (np.diff(taylor // chunk) != 0)
    heads = np.flatnonzero(heads)
    size = np.diff(np.append(heads, taylor.size))
    padded = -(-size // FACTOR_ROWS) * FACTOR_ROWS
    slot = np.cumsum(padded) - padded
    where = np.repeat(slot - heads, size) + np.arange(taylor.size)  # each entry's row
    padded_u = np.zeros(int(padded.sum()))
    padded_u[where] = u.ravel()[taylor]
    firsts = np.searchsorted(taylor, np.arange(0, u.size + chunk, chunk))  # each chunk's first entry
    groups = np.searchsorted(heads, firsts)
    bases = np.append(slot, padded_u.size)[groups]
    row = np.zeros(u.size, dtype=int)
    row[taylor] = where - np.repeat(bases[:-1], np.diff(firsts))
    return _Layout(key[heads].tolist(), slot.tolist(), padded.tolist(), groups.tolist(), bases.tolist(), row, padded_u)


def _coefficients(expansion, orders, scaled):
    """For each (m, a): N_l = sum_{k=l..m} (-i)^k a^(k-l) / k! M[k, l] for
    l = 0..m, as the rows of an (m + 1) x 2 d^2 real array (each N_l the
    complex d x d matrix).  The keys of one order are formed together: for
    each l, one product of that run of the table by each key's (Re, Im)
    coefficients of M[l..m, l]."""
    out = [None] * len(orders)
    for m in sorted(set(orders.tolist())):
        which = np.flatnonzero(orders == m)
        k, l = _RUN_INDEX[m]
        # (-i)^k / k! is real for even k and imaginary for odd k
        coefs = np.zeros((which.size, k.size, 2))
        coefs[:, np.arange(k.size), k % 2] = _POWER_OF_MINUS_I[k] * scaled[which, None] ** (k - l)
        n = np.empty((which.size, m + 1, expansion.h.size, 2))
        start = 0
        for j, run in enumerate(expansion.runs(m)):
            # (d^2 x (m+1-j)) by ((m+1-j) x 2): N_j with (Re, Im) side by side
            np.matmul(run.T, coefs[:, start:start + len(run)], out=n[:, j])
            start += len(run)
        for i, one in zip(which.tolist(), n.reshape(which.size, m + 1, -1)):
            out[i] = one
    return out


def _apply_mixed(block, rows, step, substeps, exact, g, dt):
    """One step on ``rows`` in place whose columns differ in substeps or
    include exact ones."""
    for i in range(substeps[~exact].max(initial=0)):
        cols = np.flatnonzero(~exact & (substeps > i))
        rows[cols] = np.matmul(step[cols], rows[cols, :, None])[:, :, 0]
    cols = np.flatnonzero(exact)
    if cols.size:
        rows[cols] = _exact_factor(block.h, block.v, rows[cols], g[cols], dt[cols])


def integration_grid(schedule, n_steps: int) -> np.ndarray:
    """Step boundaries in [0, duration] for the piecewise-constant factorization.

    A uniform grid of n_steps steps, or of one step for a piecewise-constant
    schedule (a pulse train), sorted together with the schedule's jump points
    (pulse edges, noise window edges).  A boundary within 1e-9 of the
    duration of the one before it is dropped, and the last is the duration.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    T = schedule.duration
    uniform = np.linspace(0.0, T, (1 if schedule.piecewise_constant else n_steps) + 1)
    pts = np.sort(np.concatenate([uniform, schedule.breakpoints()]), kind="stable")
    grid = pts[np.diff(pts, prepend=-np.inf) > 1e-9 * T]
    grid[-1] = T
    return grid


def reduce_density(psi: np.ndarray, keep_sites, n_spins: int) -> np.ndarray:
    """Reduced density matrix of the given sites, tracing out the rest.

    ``psi`` is one full-space state, or a stack of them along a leading
    axis, each of which gets its own matrix.  The reduced basis orders the
    kept sites ascending, most significant first, matching the full-space
    convention.
    """
    keep = sorted(set(int(s) for s in keep_sites))
    if not keep or len(keep) >= n_spins:
        raise ValueError("keep_sites must be a nonempty proper subset of the chain sites")
    if keep[0] < 1 or keep[-1] > n_spins:
        raise ValueError(f"keep_sites {keep} outside 1..{n_spins}")
    rest = [s for s in range(1, n_spins + 1) if s not in keep]
    stack = psi.shape[:-1]
    perm = [*range(len(stack)), *(len(stack) + s - 1 for s in keep + rest)]
    block = psi.reshape(*stack, *(2,) * n_spins).transpose(perm).reshape(*stack, 1 << len(keep), 1 << len(rest))
    return block @ block.conj().swapaxes(-1, -2)


def cut_fidelity(rho_a: np.ndarray, phi_0a: np.ndarray) -> float | np.ndarray:
    """sqrt(<phi|rho|phi>): overlap of a reduced state with a target pure
    state, for one matrix or each of a stack along a leading axis."""
    if rho_a.shape[-1] != phi_0a.shape[0]:
        raise ValueError(
            f"dimension mismatch: rho is {rho_a.shape[-1]}-dim, target is {phi_0a.shape[0]}-dim"
        )
    # (1, d) rows times (d, 1): one dot per matrix, as for a lone vector
    val = np.real((phi_0a.conj() @ rho_a)[..., None, :] @ phi_0a[:, None])[..., 0, 0]
    out = np.sqrt(np.where(val < 0.0, 0.0, val))
    return float(out) if rho_a.ndim == 2 else out


def purity(rho: np.ndarray) -> float:
    """Tr rho^2; equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy -sum(lam ln lam) over eigenvalues above 1e-14,
    of one matrix, or of each of a stack from one stacked ``eigvalsh``."""
    lams = np.linalg.eigvalsh(rho)
    out = np.array([-np.sum(lam * np.log(lam)) for lam in (
        row[row > ENTROPY_EIGENVALUE_FLOOR] for row in lams.reshape(-1, lams.shape[-1]))])
    return float(out[0]) if lams.ndim == 1 else out.reshape(lams.shape[:-1])


class Work(NamedTuple):
    """Work of one ``propagate`` call: the largest centred bound
    (r0 + |g| rv) dt of any step on any occupied block, where r0 and rv are
    the radii of h0's and v's spectra there (``SectorPropagator.centred``),
    and the Taylor terms m s of the steps within MAX_TAYLOR_TERMS, summed
    over the occupied blocks, each step counted at the plan of its largest
    bound in the batch.  For one schedule those are the terms its
    polynomials have: one (d x 1) product each on the Taylor path, summed
    into one d x d factor per step on the factor path."""

    max_norm_dt: float
    taylor_matvecs: int


def propagate(propagator: SectorPropagator, schedule, psi0: np.ndarray, n_steps: int,
              probe: Callable[[float, np.ndarray], None] | None = None) -> tuple[np.ndarray, Work]:
    """Evolve psi0 across the schedule; return the final state and the Work.

    ``schedule`` may also be a list of schedules, which evolve in batches:
    schedules with the same number of integration steps evolve together as
    one (d x B) array, each on its own grid, split so that neither the
    amplitudes nor the (steps x B) couplings of a batch exceed
    MAX_BATCH_BYTES.  The result is then a (dim, B) array, one column per
    schedule in list order.  It does not depend on the batching: bitwise in
    blocks that take step factors, within round-off in the larger ones,
    whose steps have one plan per batch.  The Work holds the largest step
    bound and the total Taylor terms over all batches.
    ``n_steps`` sets the uniform grid of ``integration_grid``, which takes
    one factor per pulse of a pulse train whatever its value.  A probe, for
    one schedule passed alone, is called as ``probe(t, psi)`` with the
    full-space state at t = 0 and at every step boundary, the end included.
    Only the blocks in which psi0 has amplitude are evolved; the
    state is assembled in the full space only for the probe and the result.
    """
    single = not isinstance(schedule, (list, tuple))
    if probe is not None and not single:
        raise ValueError("a probed run propagates one schedule")
    schedules = [schedule] if single else schedule
    psi0 = np.asarray(psi0, dtype=complex)
    occupied = propagator.occupied(psi0)
    amps = [propagator.blocks[k].amplitudes(psi0) for k in occupied]
    d = sum(a.size for a in amps)
    if probe is not None:
        probe(0.0, psi0)
    grids = [integration_grid(one, n_steps) for one in schedules]
    groups: dict[int, list[int]] = {}
    for i, grid in enumerate(grids):
        groups.setdefault(grid.size, []).append(i)
    states = np.empty((propagator.dim, len(schedules)), dtype=complex)
    max_norm_dt, matvecs = 0.0, 0
    for size, members in groups.items():
        width = max(1, MAX_BATCH_BYTES // (16 * max(d, size - 1)))
        for lo in range(0, len(members), width):
            chunk = members[lo:lo + width]
            states[:, chunk], work = _evolve(propagator, [schedules[i] for i in chunk],
                                             np.stack([grids[i] for i in chunk], axis=1),
                                             occupied, amps, probe)
            max_norm_dt, matvecs = max(max_norm_dt, work.max_norm_dt), matvecs + work.taylor_matvecs
    return (states[:, 0] if single else states), Work(max_norm_dt, matvecs)


def _evolve(propagator, schedules, grids, occupied, amps, probe):
    """The (dim, B) final states of schedules with the same step count,
    column b evolved on the integration grid ``grids[:, b]`` from the state
    with amplitudes ``amps`` in the ``occupied`` blocks, and their Work; a
    probe sees the first column after every step.  Each block evolves under
    its centred h0 - c0 and v - cv, and its columns take back the phase
    exp(-i sum (c0 + g_b cv) dt_b) of the steps so far whenever the state is
    read.  A block with an expansion table takes step factors
    (``_factor_steps``), any other block the Taylor terms (``_taylor_steps``).
    The columns evolve in parts (``_column_parts``), each on its own plans,
    when the step factors' coefficients of the batch exceed MAX_BATCH_BYTES."""
    dts = np.diff(grids, axis=0)
    g_values = np.stack([s.values(0.5 * (grid[:-1] + grid[1:])) for s, grid in zip(schedules, grids.T)],
                        axis=1)
    plans = []  # per block: its plan for the Taylor terms or for step factors
    phases = []  # per block: exp(-i sum (c0 + g_b cv) dt_b) up to each step's end
    max_norm_dt, matvecs = 0.0, 0
    records = [propagator.centred(k) for k in occupied]
    for block in records:
        phases.append(np.exp(-1j * np.cumsum((block.c0 + block.cv * g_values) * dts, axis=0)))
        bound = (block.r0 + np.abs(g_values) * block.rv) * dts  # every column's centred bound, each step
        norm_dt = bound.max(axis=1)
        orders, substeps = taylor_plan(norm_dt)
        work = orders * substeps
        max_norm_dt = max(max_norm_dt, float(norm_dt.max()))
        matvecs += int(work[work <= MAX_TAYLOR_TERMS].sum())
        plans.append((orders, substeps) if block.expansion is None else _FactorPlan.of(bound, dts))

    factored = [(plan, a.size) for plan, a in zip(plans, amps) if isinstance(plan, _FactorPlan)]
    finals = [np.empty((a.size, len(schedules)), dtype=complex) for a in amps]
    for cols in _column_parts(factored, grids[-1]):
        g, dt = g_values[:, cols], dts[:, cols]
        steppers = []  # per block: its amplitudes after each step
        for block, amp, plan in zip(records, amps, plans):
            start = np.repeat(amp[:, None], g.shape[1], axis=1)
            if isinstance(plan, _FactorPlan):
                plan = plan if isinstance(cols, slice) else _FactorPlan.of((block.r0 + np.abs(g) * block.rv) * dt, dt)
                steppers.append(_factor_steps(block, start, g, dt, plan))
            else:
                steppers.append(_taylor_steps(block, start, g, dt, *plan))
        for j, stepped in enumerate(zip(*steppers)):
            if probe is not None:
                probe(float(grids[j + 1, 0]),
                      propagator.embed(occupied, [a[:, 0] * phase[j, 0] for a, phase in zip(stepped, phases)]))
        for final, a in zip(finals, stepped):
            final[:, cols] = a
    return (propagator.embed(occupied, [a * phase[-1] for a, phase in zip(finals, phases)]),
            Work(max_norm_dt, matvecs))
