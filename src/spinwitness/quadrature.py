"""Adaptive Gauss-Legendre panel quadrature.

Each panel is integrated with 10- and 20-node Gauss-Legendre rules; the
difference serves as the panel error estimate. The worst panel is bisected
until the summed estimate meets the absolute tolerance or the panel budget
is exhausted. Integrands must accept and return numpy arrays.

Kinks (e.g. an |cos w - const| crossing) cost a few extra subdivisions but
converge; genuine non-convergence raises :class:`QuadratureError` instead
of returning a silent partial answer.

:func:`adaptive_quadrature_rows` integrates many rows of one parametric
integrand at once: each round evaluates every open panel of every row as
one array. A row's result depends only on its own integrand, never on the
other rows in the batch.
"""

from __future__ import annotations

import heapq

import numpy as np

DEFAULT_ABS_TOL = 1e-10
DEFAULT_MAX_PANELS = 4096

_LO_NODES, _LO_WEIGHTS = np.polynomial.legendre.leggauss(10)
_HI_NODES, _HI_WEIGHTS = np.polynomial.legendre.leggauss(20)
_NODES = np.concatenate((_LO_NODES, _HI_NODES))

# Rows integrated together by adaptive_quadrature_rows. Bounds the working
# set (open panels x 30 nodes, a few temporaries): a 900-row batch peaked
# at 2.0 MB of allocations against 0.37 MB in 128-row blocks, which cost
# about 1.4 ms more per 30x30 scan (2-vCPU VM, numpy 2.4).
_BLOCK_ROWS = 128
_CHUNK_PANELS = 4096


class QuadratureError(RuntimeError):
    """Tolerance not met within the subdivision budget."""


def _panel_estimate(f, a, b):
    """Return (best value, error estimate) for one panel [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    lo = half * float(_LO_WEIGHTS @ f(mid + half * _LO_NODES))
    hi = half * float(_HI_WEIGHTS @ f(mid + half * _HI_NODES))
    return hi, abs(hi - lo)


def adaptive_quadrature(f, a, b, abs_tol=DEFAULT_ABS_TOL, max_panels=DEFAULT_MAX_PANELS):
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    Deterministic for a given integrand and interval. Raises
    :class:`QuadratureError` if more than ``max_panels`` panels would be
    needed.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    value, err = _panel_estimate(f, a, b)
    # Heap of (-error, insertion order, a, b, value, error); the counter
    # breaks ties deterministically.
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value, total_err = value, err
    while total_err > abs_tol:
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"quadrature did not reach abs_tol={abs_tol:g} within "
                f"{max_panels} panels (error estimate {total_err:g})")
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        total_value -= pval
        total_err -= perr
        pm = 0.5 * (pa + pb)
        for qa, qb in ((pa, pm), (pm, pb)):
            qval, qerr = _panel_estimate(f, qa, qb)
            counter += 1
            heapq.heappush(heap, (-qerr, counter, qa, qb, qval, qerr))
            total_value += qval
            total_err += qerr
    return total_value


def adaptive_quadrature_split(f, a, b, split_points, abs_tol=DEFAULT_ABS_TOL,
                              max_panels=DEFAULT_MAX_PANELS):
    """Integrate with the interval pre-split at interior ``split_points``.

    Points outside (a, b) are ignored. The tolerance and budget apply to
    each piece separately.
    """
    cuts = sorted(p for p in split_points if a < p < b)
    edges = [a, *cuts, b]
    return sum(
        adaptive_quadrature(f, lo, hi, abs_tol=abs_tol, max_panels=max_panels)
        for lo, hi in zip(edges[:-1], edges[1:]))


def adaptive_quadrature_rows(f, n_rows, a, b, abs_tol=DEFAULT_ABS_TOL,
                             max_panels=DEFAULT_MAX_PANELS):
    """Integrate rows 0 .. n_rows-1 of a parametric integrand over [a, b].

    ``f(rows, x)`` gets row indices ``rows`` of shape (P,) and nodes ``x``
    of shape (P, m) and returns row ``rows[i]``'s integrand at ``x[i]``.
    Rows are taken in fixed blocks; within a block each round evaluates
    every open panel as one array. A panel is accepted when its 10/20-node
    difference is at most ``abs_tol * width / (b - a)``, so each row's
    summed error estimate stays within ``abs_tol``; other panels are
    bisected. Unlike the summed-estimate stop of :func:`adaptive_quadrature`,
    a narrow panel must meet a share of ``abs_tol`` proportional to its
    width, so one panel whose two rules agree by chance across a sharp
    step does not end the refinement. Row sums are element-wise, never a
    matrix product, so a row's value is bit-identical whatever rows share
    its batch.

    Returns ``(values, failures)``. A row that would need more than
    ``max_panels`` panels, or whose panel halves down to floating-point
    resolution, fails alone: its value is NaN and ``failures`` maps the row
    index to a message.
    """
    a, b = float(a), float(b)
    values = np.zeros(int(n_rows))
    failures: dict[int, str] = {}
    if a != b:
        for start in range(0, values.size, _BLOCK_ROWS):
            rows = np.arange(start, min(start + _BLOCK_ROWS, values.size))
            values[rows] = _integrate_block(f, rows, a, b, abs_tol, max_panels, failures)
    return values, failures


def _panel_estimates(f, rows, pa, pb):
    """20-node value and 10/20-node difference of each panel [pa, pb] of ``rows``."""
    half, mid = 0.5 * (pb - pa), 0.5 * (pa + pb)
    value, err = np.empty(pa.size), np.empty(pa.size)
    n_lo = _LO_NODES.size
    # Chunks cap the (panels x 30) temporaries when many rows refine deeply.
    for start in range(0, pa.size, _CHUNK_PANELS):
        c = slice(start, start + _CHUNK_PANELS)
        fx = f(rows[c], mid[c, None] + half[c, None] * _NODES)
        lo = half[c] * (fx[:, :n_lo] * _LO_WEIGHTS).sum(axis=1)
        value[c] = half[c] * (fx[:, n_lo:] * _HI_WEIGHTS).sum(axis=1)
        err[c] = np.abs(value[c] - lo)
    return value, err, mid


def _integrate_block(f, rows, a, b, abs_tol, max_panels, failures):
    """Adaptive rounds for one block of rows; records failed rows in ``failures``."""
    tol_per_width = abs_tol / (b - a)
    first, n = rows[0], rows.size
    total = np.zeros(n)
    panels = np.ones(n, dtype=np.int64)  # accepted + open
    failed = np.zeros(n, dtype=bool)
    pa, pb, prow = np.full(n, a), np.full(n, b), np.arange(n)  # prow: index in block
    while prow.size:
        value, err, mid = _panel_estimates(f, first + prow, pa, pb)
        # A panel whose midpoint rounds to one of its ends has no interior
        # left to sample: its row is unresolved at floating-point resolution.
        for i in np.flatnonzero((mid == pa) | (mid == pb)):
            if not failed[prow[i]]:
                failed[prow[i]] = True
                failures[int(first + prow[i])] = (
                    f"quadrature did not reach abs_tol={abs_tol:g}: a panel at "
                    f"x={float(pa[i])!r} reached floating-point resolution")
        live = ~failed[prow]
        accept = live & (err <= tol_per_width * (pb - pa))
        total += np.bincount(prow[accept], weights=value[accept], minlength=n)
        split = live & ~accept
        pa, pb, mid, prow = pa[split], pb[split], mid[split], prow[split]
        panels += np.bincount(prow, minlength=n)
        for i in np.flatnonzero(~failed & (panels > max_panels)):
            failed[i] = True
            failures[int(first + i)] = (f"quadrature did not reach abs_tol={abs_tol:g} "
                                        f"within {max_panels} panels")
        keep = ~failed[prow]
        pa, pb, mid, prow = pa[keep], pb[keep], mid[keep], prow[keep]
        # children in a fixed order, all left halves then all right halves,
        # so each row's panels keep an order set by that row alone
        pa, pb = np.concatenate((pa, mid)), np.concatenate((mid, pb))
        prow = np.concatenate((prow, prow))
    total[failed] = np.nan
    return total
