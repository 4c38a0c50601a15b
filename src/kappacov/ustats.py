"""Pairwise and triple absolute-difference averages from one sweep.

For a paired sample ``(x_i, y_i)``, ``i = 1..n``, the bundle holds

* ``u1``  : mean of ``|x_i - x_j|`` over unordered pairs,
* ``u2``  : the same for ``y``,
* ``u12`` : mean of ``|x_i - x_j| * |y_i - y_j|`` over unordered pairs,
* ``u3``  : mean over unordered triples of the symmetrized kernel that
  averages ``|x_a - x_b| * |y_a - y_c|`` over the six orderings of the
  triple,
* ``v1 .. v3`` : the corresponding with-replacement means taken over
  all ordered index tuples, repeats included.

The naive triple mean costs O(n^3); it collapses to pairwise quantities
through the identity::

    sum over distinct ordered (i, j, k) of |x_i - x_j| |y_i - y_k|
        = sum_i a_i * b_i  -  sum_(i,j) |x_i - x_j| |y_i - y_j|

where ``a_i`` and ``b_i`` are the full absolute-difference row sums.
Every bundle therefore needs four sums: those of ``a`` and ``b``, the
pair sum of ``|dx| * |dy|`` and the cross sum ``a @ b``.  Permuting
``y`` moves only the last two, so one sweep serves one sample and any
set of permutations of ``y`` alike.  :func:`_sweep` sets up a sample's
row sums and pair-sum kernel once, sweeps the identity alone as a 1-row
block for the sample's bundle (:func:`compute_ustats`), and hands back a
function that maps one block of permutations to its bundle, so that a
caller sweeps the blocks it needs and no more.  :func:`_drawn_blocks`
draws the blocks from a generator one at a time, each no larger than the
sweep's working set, so a test's memory does not grow with its
permutation count, and :func:`permutation_bundles` sweeps the rows of an
array as one block.  At every
n the row sums ``a`` and ``b`` come from one sort per column,
:func:`_sorted_row_sums`.  From ``_SORT_MIN_N`` observations on, one
merge sort, :func:`_merge_levels`, gives the pair sums with no n^2
table or pass; below, the ``y`` differences of each permutation's gather
against the one ``x`` difference table do.  Every sum in the sweep runs
along one row with no BLAS call, so a row's bundle depends on its
permutation alone, whatever rows share its block and whatever the BLAS
thread count.
The plug-in variance takes its row-level sums from
:func:`_sorted_row_sums` and :func:`_pair_row_sums`.
:func:`differences` is the one place a difference matrix is built.
Every sum is taken on the :func:`_unit` sample, below n**3 in any units,
and :func:`_in_units` scales a result back exactly or raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PairedSample
from .errors import DomainError, SampleTooSmall

__all__ = [
    "UStatBundle",
    "differences",
    "compute_ustats",
    "compute_ustats_bruteforce",
    "pairwise_tables",
    "bundle_for_permutation",
    "permutation_bundles",
]

# The sweep takes its pair sums from the table gather below this sample
# size and from the sort kernel from it on; the row sums come from sorts
# at every n.  On a 2-vCPU x86 box with numpy 2.4, at B = 199 and 999, the
# gather was the faster below it and the sort kernel from it on, except
# just above 128, where the sort kernel pads each row to 256.
_SORT_MIN_N = 108
# Each chunk of permutations in the sweep spans about this many entries
# per working array of the gather, c * n**2.  The sort kernel counts a
# permutation as four padded widths, so its working arrays, made afresh
# at every merge level, stay near 64 KiB, below the 128 KiB from which
# glibc's malloc maps and unmaps memory per block by default: a perm_test
# op (n = 500, B = 999) took about 10k minor page faults at 2**15 entries
# per array, 550 at 2**14 and 0 at 2**13, at equal speed within noise.
_SWEEP_ELEMENTS = 1 << 15
# A test draws and sweeps its permutations in blocks of at most this many
# rows, and a power study checks whether its decisions are settled after
# each block.  The statistics of a block cost about 20 us, so checking
# after every chunk of the gather (3 rows at n = 100) gave back about a
# fifth of the time the early stop saves.  From n = 2049 on a block holds
# fewer rows, _SWEEP_ELEMENTS // n but at least one, so that at n = 10**6
# it is one row of 8 MB, not 16 rows of 128 MB.
_DECISION_ROWS = 16


@dataclass(frozen=True)
class UStatBundle:
    """All pairwise and triple averages of one sample.

    ``u``-prefixed fields average over distinct index tuples, the
    ``v``-prefixed ones over all tuples with repeats.  The two sets are
    tied by exact identities, e.g. ``n**2 * v1 == n * (n-1) * u1`` and
    ``n**3 * v3 == n*(n-1)*(n-2) * u3 + n*(n-1) * u12``.
    """

    u1: float
    u2: float
    u12: float
    u3: float
    v1: float
    v2: float
    v12: float
    v3: float
    n: int


def _bundle_from_sums(
    n: int, sum_x: float, sum_y: float, pair_prod: float, cross: float, ex: int = 0, ey: int = 0
) -> UStatBundle:
    # sum_x, sum_y: full ordered-pair sums (2x the unordered sums);
    # pair_prod: sum over ordered pairs of |dx| * |dy|;
    # cross: sum_i a_i * b_i; all on columns divided by 2**ex and 2**ey.
    pairs = n * (n - 1)
    square = float(n) * n
    return UStatBundle(
        u1=_in_units(sum_x / pairs, ex),
        u2=_in_units(sum_y / pairs, ey),
        u12=_in_units(pair_prod / pairs, ex + ey),
        u3=_in_units((cross - pair_prod) / (pairs * (n - 2)), ex + ey),
        v1=_in_units(sum_x / square, ex),
        v2=_in_units(sum_y / square, ey),
        v12=_in_units(pair_prod / square, ex + ey),
        v3=_in_units(cross / (square * n), ex + ey),
        n=n,
    )


def _unit_exponent(values: np.ndarray) -> int:
    """The ``e`` with ``2**(e-1) <= spread < 2**e`` of ``values`` from their halved
    extremes, so that it cannot overflow, or of the value of a constant column."""
    high, low = 0.5 * float(values.max()), 0.5 * float(values.min())
    return math.frexp(high - low or high)[1] + 1


def _unit(sample: PairedSample) -> tuple:
    """The sample with each column divided exactly by its ``2**e`` (:func:`_unit_exponent`); ``ex``, ``ey``."""
    ex, ey = _unit_exponent(sample.xs), _unit_exponent(sample.ys)
    return (PairedSample(np.ldexp(sample.xs, -ex), np.ldexp(sample.ys, -ey)) if ex or ey else sample), ex, ey


def _in_units(value, e: int):
    """``value * 2**e`` exactly, subnormal results included, or ``DomainError``
    where float64 cannot hold it without losing a bit."""
    if isinstance(value, np.ndarray):
        return np.array([_in_units(v, e) for v in value.tolist()]) if e else value
    try:
        scaled = math.ldexp(value, e)
    except OverflowError:
        scaled = math.inf
    if e and math.ldexp(scaled, -e) != value:
        raise DomainError(f"a result {'under' if e < 0 else 'over'}flows float64 in the data's units (2**{e})")
    return scaled


def differences(values: np.ndarray) -> np.ndarray:
    """``|values[i] - values[j]|`` for every ``i`` and ``j``."""
    return np.abs(values[:, None] - values[None, :])


def compute_ustats(sample: PairedSample) -> UStatBundle:
    """Compute the full bundle as the identity block of the sample's sweep,
    :func:`_sweep`: O(n log n) time and O(n) memory from ``_SORT_MIN_N``
    observations on, one n^2 table gather below.

    Parameters
    ----------
    sample : PairedSample
        At least three observations.

    Raises
    ------
    SampleTooSmall
        If ``sample.n < 3``.
    """
    return _sweep(*_unit(sample))[0]


def _symmetrized_triple(xi, xj, xk, yi, yj, yk) -> float:
    # Mean of |x_a - x_b| * |y_a - y_c| over the six orderings (a, b, c).
    return (
        abs(xi - xj) * abs(yi - yk)
        + abs(xi - xk) * abs(yi - yj)
        + abs(xj - xi) * abs(yj - yk)
        + abs(xj - xk) * abs(yj - yi)
        + abs(xk - xi) * abs(yk - yj)
        + abs(xk - xj) * abs(yk - yi)
    ) / 6.0


def compute_ustats_bruteforce(sample: PairedSample) -> UStatBundle:
    """Reference bundle by explicit enumeration of index tuples.

    Every pair, triple, and ordered tuple is summed directly, with no
    shared row-sum shortcuts, so this is an independent oracle for
    :func:`compute_ustats`.  O(n^3) time; intended for n up to about
    200.
    """
    n = sample.n
    if n < 3:
        raise SampleTooSmall(f"need at least 3 observations, got {n}")
    x = sample.xs.tolist()
    y = sample.ys.tolist()

    sum1 = sum2 = sum12 = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dx = abs(x[i] - x[j])
            dy = abs(y[i] - y[j])
            sum1 += dx
            sum2 += dy
            sum12 += dx * dy

    triple = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                triple += _symmetrized_triple(x[i], x[j], x[k], y[i], y[j], y[k])

    v1s = v2s = v12s = 0.0
    for i in range(n):
        for j in range(n):
            dx = abs(x[i] - x[j])
            dy = abs(y[i] - y[j])
            v1s += dx
            v2s += dy
            v12s += dx * dy

    # The symmetrized kernel summed over all ordered tuples equals the
    # raw product kernel summed over all ordered tuples.
    v3s = 0.0
    for i in range(n):
        for j in range(n):
            dx = abs(x[i] - x[j])
            for k in range(n):
                v3s += dx * abs(y[i] - y[k])

    pairs = math.comb(n, 2)
    square = float(n) * n
    return UStatBundle(
        u1=sum1 / pairs,
        u2=sum2 / pairs,
        u12=sum12 / pairs,
        u3=triple / math.comb(n, 3),
        v1=v1s / square,
        v2=v2s / square,
        v12=v12s / square,
        v3=v3s / (square * n),
        n=n,
    )


def pairwise_tables(sample: PairedSample) -> tuple:
    """The difference matrices ``(dx, dy)`` of both columns, the tables of the
    oracle :func:`bundle_for_permutation`.  Memory is 2 * n**2 floats."""
    if sample.n < 3:
        raise SampleTooSmall(f"need at least 3 observations, got {sample.n}")
    return differences(sample.xs), differences(sample.ys)


def bundle_for_permutation(tables: tuple, perm: np.ndarray | None = None) -> UStatBundle:
    """Bundle of ``(xs, ys[perm])`` from the tables of :func:`pairwise_tables`.

    ``perm=None`` reproduces the original pairing.  The y-difference
    matrix is gathered along both axes, and every sum, row sums included,
    is taken from the two tables.  One permutation per call; the
    reference for :func:`permutation_bundles`.
    """
    dx, dy = tables
    if perm is not None:
        dy = dy[perm][:, perm]
    a, b = dx.sum(axis=1), dy.sum(axis=1)
    return _bundle_from_sums(
        len(dx), float(a.sum()), float(b.sum()), float((dx * dy).sum()), float(a @ b)
    )


def _gather_kernel(sample: PairedSample):
    """The pair sums of a chunk of permutations from the ``x`` difference
    table and, per permutation, the ``y`` differences of its gathered ``y``."""
    dx, ys = differences(sample.xs), sample.ys

    def pair_sums(perms: np.ndarray) -> np.ndarray:
        w = ys[perms]
        return np.einsum("rij,ij->ri", np.abs(w[:, :, None] - w[:, None, :]), dx).sum(axis=1)

    return pair_sums


def _centered(sample: PairedSample) -> tuple:
    """The stable ``x`` order, and both coordinates less their medians, so
    that offsets near 1e9 do not cancel and a constant column is exactly 0."""
    order = np.argsort(sample.xs, kind="stable")
    return order, sample.xs - np.median(sample.xs), sample.ys - np.median(sample.ys)


def _merge_levels(w: np.ndarray, *moved: np.ndarray):
    """Merge sort each row of ``w`` bottom up, moving ``moved`` along.

    Rows are a power of two wide, and padding after the real entries is
    never left of a real entry in a merge.  Merging runs of ``half``
    entries yields ``half``, the merged ``w`` and ``moved``, the left-run
    mask, and ``count``: for a right-run entry, the number of left-run
    values at most it.
    """
    rows, width = w.shape
    half = 1
    while half < width:
        idx = np.argsort(w.reshape(-1, 2 * half), axis=1, kind="stable")
        flat = (idx + np.arange(0, w.size, 2 * half)[:, None]).ravel()
        w = w.ravel().take(flat).reshape(rows, width)
        moved = [a.ravel().take(flat).reshape(rows, width) for a in moved]
        left = (idx < half).reshape(rows, width)
        count = (np.arange(half, 3 * half) - idx).reshape(rows, width)
        # Held across the yield, these two cost _pair_row_sums about 2%.
        del idx, flat
        yield half, w, moved, left, count
        half *= 2


def _sort_kernel(sample: PairedSample, b: np.ndarray):
    """The pair sums of a chunk of permutations in O(n log n) each.

    With ``x`` in ascending order and ``w_j`` the permuted ``y`` paired
    with ``x_j``, ``sum_{i<j} |x_i - x_j| |w_i - w_j|`` is
    ``sum_j x_j (2 L_j - B_j)``, where ``L_j`` sums ``|w_i - w_j|`` over
    the earlier ``i`` and ``B_j`` is the permuted row sum ``b``.  With
    ``P_j`` the sum of the earlier ``w_i``, and ``c_j``, ``s_j`` the count
    and the sum of those below ``w_j``,
    ``L_j = P_j - j w_j + 2 (c_j w_j - s_j)``, whose last term sums over
    the levels of :func:`_merge_levels`.
    """
    n = sample.n
    order, x, y = _centered(sample)
    x = x[order]
    width = 1 << (n - 1).bit_length()
    ramp = np.arange(1, n + 1)

    def pair_sums(perms: np.ndarray) -> np.ndarray:
        rows = len(perms)
        perms = np.ascontiguousarray(perms[:, order])
        # Row k holds w and the x it pairs with; the padding's x is 0.
        w = np.zeros((rows, width))
        w[:, :n] = y[perms]
        v = np.zeros((rows, width))
        v[:, :n] = x
        earlier = ((np.cumsum(w[:, :n], axis=1) - ramp * w[:, :n]) * x).sum(axis=1)
        below = np.zeros(rows)
        for half, w, (v,), left, count in _merge_levels(w, v):
            left_sum = np.cumsum((w * left).reshape(-1, 2 * half), axis=1).reshape(rows, width)
            below += (v * ~left * (w * count - left_sum)).sum(axis=1)
        # Ordered pairs: twice sum_j x_j (2 L_j - B_j).
        return 4.0 * earlier + 8.0 * below - 2.0 * (b[perms] * x).sum(axis=1)

    return pair_sums


def _sorted_row_sums(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Row sums ``sum_j w_j |v_i - v_j|``, unit ``w`` by default, in O(n log n).

    With the values in ascending order, ``g_m`` the step from the (m-1)-th
    to the m-th and ``W_m`` the part of the total weight ``W`` below it
    (``m`` for unit weights), the row sum at sorted position ``k`` is
    ``sum_{m <= k} W_m g_m + sum_{m > k} (W - W_m) g_m``.  Both cumulative
    sums add nonnegative terms, and a tie adds an exact 0, so neither
    offsets near 1e9 nor long runs of ties cancel.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    steps = ranked[1:] - ranked[:-1]
    below_w = np.arange(1, values.size) if weights is None else weights[order].cumsum()[:-1]
    above_w = below_w[::-1] if weights is None else weights[order][:0:-1].cumsum()[::-1]
    ranked_sums, sums = np.zeros_like(ranked), np.empty_like(ranked)
    ranked_sums[1:] = (below_w * steps).cumsum()
    ranked_sums[:-1] += (above_w * steps)[::-1].cumsum()[::-1]
    sums[order] = ranked_sums
    return sums


def _pair_row_sums(sample: PairedSample) -> np.ndarray:
    """Row sums ``sum_j |x_i - x_j| |y_i - y_j|`` in O(n log n).

    With ``d_j = (x_i - x_j) (y_i - y_j)``, a row sum is twice the sum of
    the positive ``d_j`` less the sum of all, which needs only totals.  In
    ``x`` order, an earlier partner's ``d_j`` is positive when its ``y``
    sorts before ``y_i`` in the left run merged with ``i``'s at one level
    of :func:`_merge_levels` over ``y``.  Negating and reversing both
    coordinates, as a second row, makes the later partners earlier.
    """
    n = sample.n
    order, x, y = _centered(sample)
    every = n * x * y - x * y.sum() - y * x.sum() + (x * y).sum()
    x, y = x[order], y[order]
    rows, width = 2, 1 << (n - 1).bit_length()
    w, v = np.zeros((rows, width)), np.zeros((rows, width))
    w[:, :n], v[:, :n] = (y, -y[::-1]), (x, -x[::-1])
    # What the padding collects falls beyond position n.
    positive = np.zeros(rows * width)
    position = np.arange(rows * width).reshape(rows, width)
    for half, w, (v, position), left, count in _merge_levels(w, v, position):
        sx, sy, sxy = (
            np.cumsum(q.reshape(-1, 2 * half), axis=1).reshape(rows, width)
            for q in (v * left, w * left, v * left * w)
        )
        positive[position] += ~left * (v * (count * w - sy) - (w * sx - sxy))
    positive = positive.reshape(rows, width)[:, :n]
    sums = np.empty(n)
    sums[order] = 2.0 * (positive[0] + positive[1, ::-1])
    return sums - every


def _chunk_rows(n: int) -> int:
    """Permutations per chunk of the sweep: about ``_SWEEP_ELEMENTS`` entries
    per working array, n**2 per permutation for the gather and four padded
    widths for the sort kernel."""
    width = n * n if n < _SORT_MIN_N else 4 << (n - 1).bit_length()
    return max(1, _SWEEP_ELEMENTS // width)


def _drawn_blocks(n: int, b: int, rng: np.random.Generator):
    """The permutations of ``b`` successive ``rng.permutation(n)`` calls in
    blocks of ``_DECISION_ROWS`` rows, or of ``_SWEEP_ELEMENTS // n`` where
    that is fewer but at least one, each drawn only when asked for.

    Each block is one ``rng.permuted`` call on rows of ``arange(n)`` in one
    reused ``np.intp`` buffer, so the next block overwrites it.  That makes
    the same permutations as the ``permutation`` calls and, once every
    block is drawn, leaves ``rng`` where they would.
    """
    rows = max(1, min(_DECISION_ROWS, _SWEEP_ELEMENTS // n))
    ramp, buffer = np.arange(n), np.empty((min(rows, b), n), dtype=np.intp)
    for first in range(0, b, rows):
        block = buffer[: b - first]
        block[:] = ramp
        yield rng.permuted(block, axis=1, out=block)


def _sweep(unit: PairedSample, ex: int = 0, ey: int = 0, rows: tuple | None = None):
    """The bundle of ``unit``, a :func:`_unit` sample with exponents ``ex`` and
    ``ey``, and ``bundle(block)``, which maps one ``np.intp`` block of
    permutations to its bundle of :func:`permutation_bundles`' kind.

    Both come from one setup: the row sums ``a`` and ``b`` (``rows``, where
    the caller has them already), the pair-sum kernel and the chunk step.
    The sample's bundle is the identity swept alone as a 1-row block.
    ``bundle`` sweeps a block in chunks of :func:`_chunk_rows` rows to
    bound its working arrays.
    Every sum of a row is taken along that row alone, by no BLAS call, so
    a row's bundle depends on its permutation alone: not on the rows that
    share its block or chunk, nor on the BLAS thread count.  The identity
    block is therefore the identity row of any sweep.
    """
    n = unit.n
    if n < 3:
        raise SampleTooSmall(f"need at least 3 observations, got {n}")
    a, b = rows or (_sorted_row_sums(unit.xs), _sorted_row_sums(unit.ys))
    pair_sums = _gather_kernel(unit) if n < _SORT_MIN_N else _sort_kernel(unit, b)
    step = _chunk_rows(n)
    sum_x, sum_y = float(a.sum()), float(b.sum())

    def swept(block: np.ndarray) -> tuple:
        pair_prod, cross = np.empty(len(block)), np.empty(len(block))
        for start in range(0, len(block), step):
            chunk = block[start : start + step]
            pair_prod[start : start + step] = pair_sums(chunk)
            cross[start : start + step] = (b[chunk] * a).sum(axis=1)
        return pair_prod, cross

    def bundle(block: np.ndarray) -> UStatBundle:
        return _bundle_from_sums(n, sum_x, sum_y, *swept(block), ex, ey)

    pair_prod, cross = swept(np.arange(n)[None, :])
    return _bundle_from_sums(n, sum_x, sum_y, float(pair_prod[0]), float(cross[0]), ex, ey), bundle


def permutation_bundles(sample: PairedSample, perms: np.ndarray) -> UStatBundle:
    """Bundles of ``(xs, ys[perm])`` for every row ``perm`` of ``perms``.

    ``perms`` is a ``(B, n)`` integer array of permutations of
    ``range(n)``.  Returns one :class:`UStatBundle` in which the fields
    that a permutation moves, ``u12``, ``u3``, ``v12`` and ``v3``, are
    length-``B`` arrays, so the estimator formulas apply to it unchanged.
    ``perms`` is one block of the sample's one sweep (:func:`_sweep`), so
    each row gets the same bits as in a test.

    Raises
    ------
    SampleTooSmall
        If ``sample.n < 3``.
    """
    return _sweep(*_unit(sample))[1](np.ascontiguousarray(perms, dtype=np.intp))
