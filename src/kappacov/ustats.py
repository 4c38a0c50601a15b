"""Pairwise and triple absolute-difference averages in O(n^2) time.

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
Everything here therefore reduces to two difference matrices, their row
sums, and one elementwise product.  :func:`differences` is the one place
a difference matrix is built, and :func:`row_sums` is the one pass over
both matrices: it visits them in blocks of rows, so peak memory stays
near ``_BLOCK_ELEMENTS`` floats per matrix at any ``n``, and on request
it also collects the row-level sums the plug-in variance needs.

Permuting ``y`` moves only the pair sum of ``|dx| * |dy|`` and the
cross sum ``a @ b``: :func:`permutation_bundles` computes both for a
whole array of permutations in chunks of bounded size.  Below
``_SORT_MIN_N`` observations the pair sums come from one gather of the
precomputed y table per chunk; from there on an O(n log n) merge-sort
kernel computes them, and one sort per coordinate gives the row sums,
without any n^2 table or pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PairedSample
from .errors import SampleTooSmall

__all__ = [
    "UStatBundle",
    "RowSums",
    "PairwiseTables",
    "differences",
    "row_sums",
    "compute_ustats",
    "compute_ustats_bruteforce",
    "pairwise_tables",
    "bundle_for_permutation",
    "permutation_bundles",
]

# row_sums builds the difference matrices in blocks of rows holding about
# this many floats each; up to n = 1000 one block covers the whole matrix.
_BLOCK_ELEMENTS = 1_000_000

# permutation_bundles switches from the table gather to the sort kernel at
# this sample size: on a 2-vCPU x86 box with numpy 2.4, at B = 199 and 999,
# the gather was the faster below it and the sort kernel from it on, except
# just above 128, where the sort kernel pads each row to 256.
_SORT_MIN_N = 108
# Each chunk of permutations in permutation_bundles spans about this many
# entries per working array: c * n**2 for the gather, c * 2**ceil(log2 n)
# for the sort kernel.
_SWEEP_ELEMENTS = 1 << 15


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
    n: int, sum_x: float, sum_y: float, pair_prod: float, cross: float
) -> UStatBundle:
    # sum_x, sum_y: full ordered-pair sums (2x the unordered sums);
    # pair_prod: sum over ordered pairs of |dx| * |dy|;
    # cross: sum_i a_i * b_i.
    pairs = n * (n - 1)
    square = float(n) * n
    return UStatBundle(
        u1=sum_x / pairs,
        u2=sum_y / pairs,
        u12=pair_prod / pairs,
        u3=(cross - pair_prod) / (pairs * (n - 2)),
        v1=sum_x / square,
        v2=sum_y / square,
        v12=pair_prod / square,
        v3=cross / (square * n),
        n=n,
    )


def differences(values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """``|values[i] - values[j]|`` for ``i`` in ``rows`` and every ``j``."""
    return np.abs(values[rows][:, None] - values[None, :])


@dataclass(frozen=True, eq=False)
class RowSums:
    """Row-level sums of the two absolute-difference matrices ``dx, dy``.

    ``a`` and ``b`` are the row sums of ``dx`` and ``dy`` and
    ``pair_prod`` is the sum of ``dx * dy`` over all ordered pairs.  The
    fields the plug-in variance needs are ``None`` unless requested:
    ``pair_rows`` holds the row sums of ``dx * dy``, ``cond_x`` is
    ``dx @ b`` and ``cond_y`` is ``dy @ a``.
    """

    a: np.ndarray
    b: np.ndarray
    pair_prod: float
    pair_rows: np.ndarray | None = None
    cond_x: np.ndarray | None = None
    cond_y: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.a.size

    def bundle(self) -> UStatBundle:
        a, b = self.a, self.b
        return _bundle_from_sums(self.n, float(a.sum()), float(b.sum()), self.pair_prod, float(a @ b))


def row_sums(sample: PairedSample, with_variance: bool = False) -> RowSums:
    """One blocked pass over both difference matrices.

    ``with_variance`` also fills the fields of :class:`RowSums` that the
    plug-in variance needs; they cost one more reduction and two
    vector-matrix products per block.

    Raises
    ------
    SampleTooSmall
        If ``sample.n < 3`` (the triple mean needs three distinct
        indices).
    """
    n = sample.n
    if n < 3:
        raise SampleTooSmall(f"need at least 3 observations, got {n}")
    x, y = sample.xs, sample.ys
    a = np.empty(n)
    b = np.empty(n)
    pair_prod = 0.0
    pair_rows = cond_x = cond_y = None
    if with_variance:
        pair_rows, cond_x, cond_y = np.empty(n), np.zeros(n), np.zeros(n)
    block = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n, block):
        rows = slice(start, start + block)
        dx = differences(x, rows)
        dy = differences(y, rows)
        a[rows] = dx.sum(axis=1)
        b[rows] = dy.sum(axis=1)
        product = dx * dy
        pair_prod += float(product.sum())
        if with_variance:
            pair_rows[rows] = product.sum(axis=1)
            # Both matrices are symmetric, so the block's rows are also
            # its columns' contributions to dx @ b and dy @ a.
            cond_x += b[rows] @ dx
            cond_y += a[rows] @ dy
    return RowSums(a, b, pair_prod, pair_rows, cond_x, cond_y)


def compute_ustats(sample: PairedSample) -> UStatBundle:
    """Compute the full bundle in O(n^2) time and O(n) memory.

    Parameters
    ----------
    sample : PairedSample
        At least three observations.

    Raises
    ------
    SampleTooSmall
        If ``sample.n < 3``.
    """
    return row_sums(sample).bundle()


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


@dataclass(frozen=True, eq=False)
class PairwiseTables:
    """Precomputed difference tables for permutation resampling.

    Holds both difference matrices and their row sums so each permuted
    bundle costs one index gather plus a few reductions instead of a
    fresh O(n^2) rebuild.  Memory is 2 * n**2 floats, so
    :func:`permutation_bundles` builds them only below ``_SORT_MIN_N``
    observations.
    """

    dx: np.ndarray
    dy: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sum_x: float
    sum_y: float
    n: int


def pairwise_tables(sample: PairedSample) -> PairwiseTables:
    """Build the reusable tables for :func:`bundle_for_permutation`."""
    n = sample.n
    if n < 3:
        raise SampleTooSmall(f"need at least 3 observations, got {n}")
    dx = differences(sample.xs)
    dy = differences(sample.ys)
    a = dx.sum(axis=1)
    b = dy.sum(axis=1)
    return PairwiseTables(
        dx=dx, dy=dy, a=a, b=b, sum_x=float(a.sum()), sum_y=float(b.sum()), n=n
    )


def bundle_for_permutation(
    tables: PairwiseTables, perm: np.ndarray | None = None
) -> UStatBundle:
    """Bundle of ``(xs, ys[perm])`` from precomputed tables.

    ``perm=None`` reproduces the original pairing.  Only the y-side
    entries move: the y-difference matrix is gathered along both axes
    and its row sums are a permutation of the originals, so the x-only
    and y-only means are unchanged.  One permutation per call; the
    reference for :func:`permutation_bundles`.
    """
    if perm is None:
        pair_prod = float((tables.dx * tables.dy).sum())
        b = tables.b
    else:
        dyp = tables.dy[perm][:, perm]
        pair_prod = float((tables.dx * dyp).sum())
        b = tables.b[perm]
    return _bundle_from_sums(
        tables.n, tables.sum_x, tables.sum_y, pair_prod, float(tables.a @ b)
    )


def _gather_kernel(tables: PairwiseTables):
    """Entries per permutation, and the pair sums of a chunk of
    permutations by one flat gather of ``dy``."""
    n = tables.n
    dx, dy = tables.dx.ravel(), tables.dy.ravel()

    def pair_sums(perms: np.ndarray) -> np.ndarray:
        flat = perms[:, :, None] * n + perms[:, None, :]
        return dy.take(flat.reshape(len(perms), -1)) @ dx

    return n * n, pair_sums


def _sort_kernel(sample: PairedSample, b: np.ndarray):
    """Entries per permutation, and the pair sums of a chunk of
    permutations in O(n log n) each.

    With ``x`` in ascending order and ``w_j`` the permuted ``y`` paired
    with ``x_j``, ``sum_{i<j} |x_i - x_j| |w_i - w_j|`` is
    ``sum_j x_j (2 L_j - B_j)``, where ``L_j`` sums ``|w_i - w_j|`` over
    the earlier ``i`` and ``B_j`` is the permuted row sum ``b``.  With
    ``P_j`` the sum of the earlier ``w_i``, and ``c_j``, ``s_j`` the count
    and the sum of those below ``w_j``,
    ``L_j = P_j - j w_j + 2 (c_j w_j - s_j)``.  A bottom-up merge sort of
    each row gives the last term: at every level a right-half element's
    merged position says how many left-half values sort before it, and a
    cumulative sum of the left-half values gives their total.  Both
    coordinates are centered first, so offsets near 1e9 do not cancel.
    """
    n = sample.n
    order = np.argsort(sample.xs, kind="stable")
    x = sample.xs[order] - sample.xs.mean()
    y = sample.ys - sample.ys.mean()
    width = 1 << (n - 1).bit_length()
    ramp = np.arange(1, n + 1)

    def pair_sums(perms: np.ndarray) -> np.ndarray:
        rows = len(perms)
        perms = perms[:, order]
        # Row k holds w and, moved along with it, the x it pairs with.  The
        # padding comes after every real position and carries x = 0, so it
        # adds nothing.
        w = np.zeros((rows, width))
        w[:, :n] = y[perms]
        v = np.zeros((rows, width))
        v[:, :n] = x
        head = w[:, :n]
        earlier = (np.cumsum(head, axis=1) - ramp * head) @ x
        below = np.zeros(rows)
        half = 1
        while half < width:
            idx = np.argsort(w.reshape(-1, 2 * half), axis=1, kind="stable")
            flat = (idx + np.arange(0, w.size, 2 * half)[:, None]).ravel()
            w = w.ravel().take(flat).reshape(rows, width)
            v = v.ravel().take(flat).reshape(rows, width)
            left = (idx < half).reshape(rows, width)
            left_sum = np.cumsum((w * left).reshape(-1, 2 * half), axis=1)
            left_count = np.arange(half, 3 * half) - idx
            gap = w * left_count.reshape(rows, width) - left_sum.reshape(rows, width)
            below += np.einsum("ij,ij->i", v * ~left, gap)
            half *= 2
        # Ordered pairs: twice sum_j x_j (2 L_j - B_j).
        return 4.0 * earlier + 8.0 * below - 2.0 * (b[perms] @ x)

    return width, pair_sums


def _sorted_row_sums(values: np.ndarray) -> np.ndarray:
    """Row sums ``sum_j |v_i - v_j|`` in O(n log n), without a matrix.

    With the values in ascending order and ``g_m`` the step from the
    (m-1)-th to the m-th, the row sum at sorted position ``k`` is
    ``sum_{m <= k} m g_m + sum_{m > k} (n - m) g_m``.  Both cumulative
    sums add nonnegative terms, and a tie adds an exact 0, so neither
    offsets near 1e9 nor long runs of ties cancel.
    """
    n = values.size
    order = np.argsort(values, kind="stable")
    steps = np.diff(values[order])
    m = np.arange(1, n)
    below = np.cumsum(m * steps)
    above = np.cumsum(((n - m) * steps)[::-1])[::-1]
    sums = np.empty(n)
    sums[order] = np.concatenate(([0.0], below)) + np.concatenate((above, [0.0]))
    return sums


def permutation_bundles(sample: PairedSample, perms: np.ndarray) -> UStatBundle:
    """Bundles of ``(xs, ys[perm])`` for every row ``perm`` of ``perms``.

    ``perms`` is a ``(B, n)`` integer array of permutations of
    ``range(n)``.  Returns one :class:`UStatBundle` in which the fields
    that a permutation moves, ``u12``, ``u3``, ``v12`` and ``v3``, are
    length-``B`` arrays, so the estimator formulas apply to it unchanged.
    The pair sums come from the table gather below ``_SORT_MIN_N``
    observations and from the sort kernel from there on, where the row
    sums ``a`` and ``b`` also come from a sort; the cross sums are
    ``b[perm] @ a``.  Permutations are swept in chunks of about
    ``_SWEEP_ELEMENTS`` entries per working array.

    Raises
    ------
    SampleTooSmall
        If ``sample.n < 3``.
    """
    if sample.n < 3:
        raise SampleTooSmall(f"need at least 3 observations, got {sample.n}")
    if sample.n < _SORT_MIN_N:
        tables = pairwise_tables(sample)
        a, b = tables.a, tables.b
        width, pair_sums = _gather_kernel(tables)
    else:
        a, b = _sorted_row_sums(sample.xs), _sorted_row_sums(sample.ys)
        width, pair_sums = _sort_kernel(sample, b)
    pair_prod = np.empty(len(perms))
    cross = np.empty(len(perms))
    step = max(1, _SWEEP_ELEMENTS // width)
    for start in range(0, len(perms), step):
        chunk = perms[start : start + step].astype(np.intp)
        pair_prod[start : start + step] = pair_sums(chunk)
        cross[start : start + step] = b[chunk] @ a
    return _bundle_from_sums(sample.n, float(a.sum()), float(b.sum()), pair_prod, cross)
