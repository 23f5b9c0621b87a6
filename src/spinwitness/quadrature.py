"""Adaptive Gauss-Legendre panel quadrature.

Each panel is integrated with 10- and 20-node Gauss-Legendre rules; the
difference is the panel's error estimate. A panel of [a, b] is accepted
when its estimate is at most ``abs_tol * width / (b - a)``, so one wide
panel whose rules agree by chance across a sharp step cannot end the
refinement; every other panel is bisected, breadth first. Optional seed
points pre-split [a, b] where the integrand is steep. Needing more than
``max_panels`` panels, or halving a panel down to floating-point
resolution, is a failure, never a silent partial answer. Integrands must
accept and return numpy arrays.

:func:`adaptive_quadrature_rows` integrates many rows of a parametric
integrand at once, each round as one array, and fails rows alone;
:func:`adaptive_quadrature` is its one-row form for a plain ``f(x)`` and
raises :class:`QuadratureError` instead.
"""

from __future__ import annotations

import numpy as np

DEFAULT_ABS_TOL = 1e-10
DEFAULT_MAX_PANELS = 4096

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


def adaptive_quadrature(f, a, b, abs_tol=DEFAULT_ABS_TOL, max_panels=DEFAULT_MAX_PANELS,
                        seeds=()):
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    ``seeds`` pre-split the interval; those outside (a, b) are ignored.
    This is a one-row :func:`adaptive_quadrature_rows` call; it raises
    :class:`QuadratureError` where that call would fail the row.
    """
    row = np.array([seeds], dtype=float).reshape(1, -1)
    values, failures = adaptive_quadrature_rows(lambda rows, x: f(x), 1, a, b, abs_tol,
                                                max_panels, seeds=row)
    if failures:
        raise QuadratureError(failures[0])
    return float(values[0])


def adaptive_quadrature_rows(f, n_rows, a, b, abs_tol=DEFAULT_ABS_TOL,
                             max_panels=DEFAULT_MAX_PANELS, seeds=None):
    """Integrate rows 0 .. n_rows-1 of a parametric integrand over [a, b].

    ``f(rows, x)`` gets row indices ``rows`` of shape (P,) and nodes ``x``
    of shape (P, m) and returns row ``rows[i]``'s integrand at ``x[i]``.
    ``seeds``, an (n_rows, s) array padded with NaN, pre-splits each row
    at its own points. Rows are taken in fixed blocks; each round evaluates
    a block's open panels as one array. Row sums are element-wise, never a
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
    seeds = np.empty((values.size, 0)) if seeds is None else np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[0] != values.size:
        raise ValueError(f"seeds must have shape (n_rows, s), got {seeds.shape}")
    if a != b:
        for start in range(0, values.size, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            values[block] = _integrate_block(f, start, a, b, seeds[block], abs_tol, max_panels,
                                             failures)
    return values, failures


def _first_panels(a, b, seeds):
    """Initial panels of each row: [a, b] cut at its distinct seeds inside (a, b)."""
    edges = np.full((seeds.shape[0], seeds.shape[1] + 2), a)
    edges[:, 1:-1] = np.minimum(np.maximum(seeds, min(a, b)), max(a, b))  # NaN stays
    edges[:, -1] = b
    edges.sort(axis=1)  # NaN last
    if b < a:
        edges = edges[:, ::-1]  # from a to b, NaN first
    # a NaN end or a repeated point (seeds outside repeat an end) makes no panel
    keep = (edges[:, 1:] - edges[:, :-1]) * (b - a) > 0.0
    return edges[:, :-1][keep], edges[:, 1:][keep], np.nonzero(keep)[0]


def _panel_estimates(f, rows, pa, pb):
    """20-node value and 10/20-node difference of each panel [pa, pb] of ``rows``."""
    if pa.size > _CHUNK_PANELS:  # caps the (panels x 30) temporaries of deep refinements
        chunks = [slice(i, i + _CHUNK_PANELS) for i in range(0, pa.size, _CHUNK_PANELS)]
        parts = [_panel_estimates(f, rows[c], pa[c], pb[c]) for c in chunks]
        return tuple(np.concatenate(column) for column in zip(*parts))
    half, mid = 0.5 * (pb - pa), 0.5 * (pa + pb)
    fw = f(rows, mid[:, None] + half[:, None] * _NODES) * _WEIGHTS
    value = half * np.add.reduce(fw[:, _N_LO:], axis=1)
    return value, np.abs(value - half * np.add.reduce(fw[:, :_N_LO], axis=1)), mid


def _integrate_block(f, first, a, b, seeds, abs_tol, max_panels, failures):
    """Adaptive rounds for rows ``first`` onward, one per row of ``seeds``.

    Records failed rows in ``failures``.
    """
    tol_per_width = abs_tol / (b - a)
    n = seeds.shape[0]
    total = np.zeros(n)
    failed = np.zeros(n, dtype=bool)  # a failed row's total is overwritten with NaN
    pa, pb, prow = _first_panels(a, b, seeds)  # prow: index in block
    panels = np.bincount(prow, minlength=n)  # accepted + open
    while prow.size:
        n_failed = len(failures)
        value, err, mid = _panel_estimates(f, first + prow, pa, pb)
        # A panel whose midpoint rounds to one of its ends has no interior
        # left to sample: its row is unresolved at floating-point resolution.
        for i in ((mid == pa) | (mid == pb)).nonzero()[0]:
            if not failed[prow[i]]:
                failed[prow[i]] = True
                failures[int(first + prow[i])] = (
                    f"quadrature did not reach abs_tol={abs_tol:g}: a panel at "
                    f"x={float(pa[i])!r} reached floating-point resolution")
        accept = err <= tol_per_width * (pb - pa)
        total += np.bincount(prow, weights=np.where(accept, value, 0.0), minlength=n)
        split = ~accept
        pa, pb, mid, prow = pa[split], pb[split], mid[split], prow[split]
        panels += np.bincount(prow, minlength=n)
        for i in (panels > max_panels).nonzero()[0]:
            if not failed[i]:
                failed[i] = True
                failures[int(first + i)] = (
                    f"quadrature did not reach abs_tol={abs_tol:g} within {max_panels} panels")
        if len(failures) > n_failed:  # failed rows refine no further
            keep = ~failed[prow]
            pa, pb, mid, prow = pa[keep], pb[keep], mid[keep], prow[keep]
        # children in a fixed order, all left halves then all right halves,
        # so each row's panels keep an order set by that row alone
        pa, pb = np.concatenate((pa, mid, mid, pb)).reshape(2, -1)
        prow = np.concatenate((prow, prow))
    total[failed] = np.nan
    return total
