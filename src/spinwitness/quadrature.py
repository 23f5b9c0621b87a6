"""Adaptive Gauss-Legendre panel quadrature.

Each panel is integrated with 10- and 20-node Gauss-Legendre rules; the
difference is the panel's error estimate. A panel of [a, b] is accepted
when its estimate is at most ``abs_tol * width / (b - a)``; every other
panel is bisected, breadth first. Seed points pre-split [a, b]. The rule
assumes the integrand is smooth on each panel between seeds: a jump, or
a step steeper than the nodes resolve, strictly inside a panel is
accepted unseen when both rules' nodes fall on one side of it (a unit
step at 0.3 integrates over [0, 5] to 4.6875, not 4.7), so callers seed
every such point, as the limit integrands seed their tanh step. Needing
more than ``MAX_PANELS`` panels, or halving a panel down to floating-point
resolution, is a failure, never a silent partial answer. Both ends and
every tolerance must be finite, and every tolerance > 0 (ValueError
otherwise). Integrands must accept and return numpy arrays.

:func:`adaptive_quadrature_rows` integrates many rows of a parametric
integrand at once, each round as one array, and fails rows alone.
:func:`adaptive_quadrature` integrates one plain ``f(x)`` by its own loop
of rounds over the same rules, without the rows driver's bookkeeping; it
returns a one-row call's bits and raises :class:`QuadratureError` with the
message that call would record.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_ABS_TOL = 1e-10
MAX_PANELS = 4096  # panels of one integral (row); each loop of rounds reads it once per call

_LO_NODES, _LO_WEIGHTS = np.polynomial.legendre.leggauss(10)
_HI_NODES, _HI_WEIGHTS = np.polynomial.legendre.leggauss(20)
_NODES = np.concatenate((_LO_NODES, _HI_NODES))
_WEIGHTS = np.concatenate((_LO_WEIGHTS, _HI_WEIGHTS))
_N_LO = _LO_NODES.size

# Rows integrated together by adaptive_quadrature_rows. Bounds the working
# set (open panels x 30 nodes, a few temporaries): a 900-row batch peaked
# at 2.0 MB of allocations against 0.37 MB in 128-row blocks, which cost
# about 1.4 ms more per 30x30 scan (2-vCPU VM, numpy 2.4).
_BLOCK_ROWS = 128
_CHUNK_PANELS = 4096


class QuadratureError(RuntimeError):
    """Tolerance not met within the subdivision budget."""


def adaptive_quadrature(f, a, b, abs_tol=DEFAULT_ABS_TOL, seeds=()):
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    ``seeds`` pre-split the interval; those outside (a, b) are ignored.
    A list of floats is taken as it is, anything else through numpy. The
    value has the bits of a one-row :func:`adaptive_quadrature_rows` call;
    :class:`QuadratureError` is raised where that call would fail the row.
    """
    a, b = _finite_bounds(a, b)
    abs_tol = _row_tolerance(abs_tol)
    if a == b:
        return 0.0
    if not (isinstance(seeds, list) and all(isinstance(s, float) for s in seeds)):
        seeds = np.asarray(seeds, dtype=float).ravel().tolist()
    lo, hi = min(a, b), max(a, b)
    edges = [a, *sorted({s for s in seeds if lo < s < hi}, reverse=b < a), b]
    return _integrate_row(f, a, b, edges, abs_tol)


def adaptive_quadrature_rows(f, n_rows, a, b, abs_tol=DEFAULT_ABS_TOL, seeds=None):
    """Integrate rows 0 .. n_rows-1 of a parametric integrand over [a, b].

    ``f(rows, x)`` gets row indices ``rows`` of shape (P,) and nodes ``x``
    of shape (P, m) and returns row ``rows[i]``'s integrand at ``x[i]``.
    ``seeds``, an (n_rows, s) array padded with NaN, pre-splits each row
    at its own points. ``abs_tol`` is one float, or an (n_rows,) array of
    each row's own tolerance. Rows are taken in fixed blocks; each round evaluates
    a block's open panels as one array. Row sums are element-wise, never a
    matrix product, so a row's value is bit-identical whatever rows share
    its batch.

    Returns ``(values, failures)``. A row that would need more than
    ``MAX_PANELS`` panels, or whose panel halves down to floating-point
    resolution, fails alone: its value is NaN and ``failures`` maps the row
    index to a message.
    """
    a, b = _finite_bounds(a, b)
    values = np.zeros(int(n_rows))
    abs_tol = _tolerance(abs_tol, values.size)
    failures: dict[int, str] = {}
    seeds = np.empty((values.size, 0)) if seeds is None else np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[0] != values.size:
        raise ValueError(f"seeds must have shape (n_rows, s), got {seeds.shape}")
    if a != b:
        for start in range(0, values.size, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            values[block] = _integrate_block(f, start, seeds[block].shape[0], a, b,
                                             *_first_panels(a, b, seeds[block]), abs_tol[block],
                                             failures)
    return values, failures


def _finite_bounds(a, b) -> tuple[float, float]:
    """(a, b) as floats; ValueError unless both are finite."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    return a, b


def _tolerance(abs_tol, n_rows) -> np.ndarray:
    """``abs_tol``, one float or one per row, as an (n_rows,) float array.

    ValueError unless every tolerance is finite and > 0: any other one is
    never met, and its rows would only run to the panel budget.
    """
    if isinstance(abs_tol, np.ndarray) and abs_tol.ndim:
        valid = abs_tol.shape == (n_rows,) and np.all((0.0 < abs_tol) & (abs_tol < math.inf))
    else:  # a float is checked without numpy
        abs_tol = float(abs_tol)
        valid = 0.0 < abs_tol < math.inf
    if valid:
        return np.full(n_rows, abs_tol, dtype=float)
    raise ValueError(f"abs_tol must be finite and > 0, one float or one per row "
                     f"({n_rows}), got {abs_tol!r}")


def _row_tolerance(abs_tol) -> float:
    """One row's ``abs_tol`` as a float, checked as :func:`_tolerance` checks it."""
    if isinstance(abs_tol, float) and 0.0 < abs_tol < math.inf:
        return float(abs_tol)
    return float(_tolerance(abs_tol, 1)[0])


def _first_panels(a, b, seeds):
    """Initial panels of each row: [a, b] cut at its distinct seeds inside (a, b)."""
    edges = np.full((seeds.shape[0], seeds.shape[1] + 2), a)
    edges[:, 1:-1] = np.minimum(np.maximum(seeds, min(a, b)), max(a, b))  # NaN stays
    edges[:, -1] = b
    edges.sort(axis=1)  # NaN last
    if b < a:
        edges = edges[:, ::-1]  # from a to b, NaN first
    # a NaN seed or a repeated point (seeds outside repeat an end) makes no panel
    keep = (edges[:, 1:] - edges[:, :-1]) * (b - a) > 0.0
    return edges[:, :-1][keep], edges[:, 1:][keep], np.nonzero(keep)[0]


def _panel_estimates(f, rows, pa, pb):
    """20-node value, 10/20-node difference, midpoint and width of each panel [pa, pb].

    ``f(rows, x)`` gets each panel's row; with ``rows`` None it is ``f(x)``.
    """
    if pa.size > _CHUNK_PANELS:  # caps the (panels x 30) temporaries of deep refinements
        chunks = [slice(i, i + _CHUNK_PANELS) for i in range(0, pa.size, _CHUNK_PANELS)]
        parts = [_panel_estimates(f, None if rows is None else rows[c], pa[c], pb[c])
                 for c in chunks]
        return tuple(np.concatenate(column) for column in zip(*parts))
    width = pb - pa
    half, mid = 0.5 * width, 0.5 * (pa + pb)
    x = mid[:, None] + half[:, None] * _NODES
    fw = (f(x) if rows is None else f(rows, x)) * _WEIGHTS
    value = half * np.add.reduce(fw[:, _N_LO:], axis=1)
    return value, np.abs(value - half * np.add.reduce(fw[:, :_N_LO], axis=1)), mid, width


def _integrate_block(f, first, n, a, b, pa, pb, prow, abs_tol, failures):
    """Adaptive rounds for rows ``first`` .. ``first + n - 1`` from first panels [pa, pb].

    ``prow`` is each first panel's row within the block, and ``abs_tol``
    the block's row tolerances. Records failed rows in ``failures``.
    """
    tol_per_width, max_panels = abs_tol / (b - a), MAX_PANELS
    total = np.zeros(n)
    failed = None  # per row, made at the first failure; a failed row's total becomes NaN

    def fail(i, why):
        nonlocal failed
        failed = np.zeros(n, dtype=bool) if failed is None else failed
        if not failed[i]:
            failed[i] = True
            failures[int(first + i)] = f"quadrature did not reach abs_tol={abs_tol[i]:g}{why}"

    # Panels per row (accepted + open) are ``panels`` plus the row's entries
    # in ``uncounted``. No row can be over budget before the whole block is,
    # so the per-row count waits until then.
    panels, uncounted, block_panels = 0, [prow], prow.size
    # Round k evaluates the first panels halved k times; each halving loses
    # at most one ulp of max(|a|, |b|) to rounding. Until this lower bound on
    # the panel widths falls to a few ulps no midpoint can round to an end.
    ulp = math.ulp(max(abs(a), abs(b)))
    narrowest = float(np.minimum.reduce(np.abs(pb - pa))) - ulp if prow.size else 0.0
    while prow.size:
        n_failed = len(failures)
        value, err, mid, width = _panel_estimates(f, first + prow if first else prow, pa, pb)
        if narrowest <= 4.0 * ulp:
            # A panel whose midpoint rounds to one of its ends has no interior
            # left to sample: its row is unresolved at floating-point resolution.
            for i in ((mid == pa) | (mid == pb)).nonzero()[0]:
                fail(prow[i], f": a panel at x={float(pa[i])!r} reached floating-point resolution")
        narrowest = 0.5 * narrowest - ulp
        split = ~(err <= tol_per_width[prow] * width)  # a NaN estimate is split too
        n_split = np.count_nonzero(split)
        if n_split == 0:  # every panel accepted: the last round
            total += np.bincount(prow, weights=value, minlength=n)
            break
        if n_split < split.size:  # only accepted panels add to their row's total
            value[split] = 0.0
            total += np.bincount(prow, weights=value, minlength=n)
            pa, pb, mid, prow = pa[split], pb[split], mid[split], prow[split]
        uncounted.append(prow)
        block_panels += prow.size
        if block_panels > max_panels:
            panels += np.bincount(np.concatenate(uncounted), minlength=n)
            uncounted = []
            for i in (panels > max_panels).nonzero()[0]:
                fail(i, f" within {max_panels} panels")
        if len(failures) > n_failed:  # failed rows refine no further
            keep = ~failed[prow]
            pa, pb, mid, prow = pa[keep], pb[keep], mid[keep], prow[keep]
        # children in a fixed order, all left halves then all right halves,
        # so each row's panels keep an order set by that row alone
        pa, pb = np.concatenate((pa, mid, mid, pb)).reshape(2, -1)
        prow = np.concatenate((prow, prow))
    if failed is not None:
        total[failed] = np.nan
    return total


def _integrate_row(f, a, b, edges, abs_tol):
    """One row of :func:`_integrate_block` for a plain ``f(x)``, from its first panel ``edges``.

    The same rounds, acceptance test, child order, panel budget,
    resolution check and summation order, so the same bits and messages,
    without the per-row indices, tolerance gather and counts.
    """
    tol_per_width, max_panels = abs_tol / (b - a), MAX_PANELS
    total = 0.0
    panels = len(edges) - 1
    ulp = math.ulp(max(abs(a), abs(b)))
    narrowest = min(abs(hi - lo) for lo, hi in zip(edges, edges[1:])) - ulp
    edges = np.array(edges)
    pa, pb = edges[:-1], edges[1:]
    while True:
        value, err, mid, width = _panel_estimates(f, None, pa, pb)
        if narrowest <= 4.0 * ulp:
            stuck = ((mid == pa) | (mid == pb)).nonzero()[0]
            if stuck.size:
                raise QuadratureError(f"quadrature did not reach abs_tol={abs_tol:g}: a panel at "
                                      f"x={float(pa[stuck[0]])!r} reached floating-point resolution")
        narrowest = 0.5 * narrowest - ulp
        accept = err <= tol_per_width * width  # a NaN estimate is split
        flags = accept.tolist()
        # each round's accepted values add up in panel order, then join the total
        accepted = 0.0
        for v, ok in zip(value.tolist(), flags):
            if ok:
                accepted += v
        total += accepted
        n_split = flags.count(False)
        if n_split == 0:
            return total
        panels += n_split
        if panels > max_panels:
            raise QuadratureError(f"quadrature did not reach abs_tol={abs_tol:g} "
                                  f"within {max_panels} panels")
        # children in the rows driver's order, all left halves then all right halves
        halves = np.concatenate((pa, mid, mid, pb)).reshape(4, -1)
        if n_split < len(flags):
            halves = halves[:, ~accept]
        pa, pb = halves.reshape(2, -1)
