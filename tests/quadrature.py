"""Composite Gauss-Legendre quadrature on [0, 1] for the basis certification tests.

Gram matrices and population projections of the basis systems, used to
check orthonormality, span nesting and risk decompositions. The panels
align with the model's breakpoints, so integrals of piecewise
polynomials up to the rule's degree are exact.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from curstat import TRIG, BasisModel, design_matrix


@lru_cache(maxsize=None)
def _gauss_nodes(order: int):
    return leggauss(order)


def quadrature_rule(breakpoints, min_nodes: int = 2048):
    """Composite Gauss-Legendre rule with panels between ``breakpoints``."""
    edges = np.asarray(breakpoints, dtype=float)
    panels = edges.size - 1
    order = max(2, -(-min_nodes // panels))
    base_x, base_w = _gauss_nodes(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def model_breakpoints(model: BasisModel) -> np.ndarray:
    if model.family.tag == TRIG:
        return np.array([0.0, 1.0])
    return np.linspace(0.0, 1.0, model.pieces + 1)


def gram_matrix(model: BasisModel, min_nodes: int = 2048) -> np.ndarray:
    """Gram matrix of the basis under the Lebesgue inner product on [0, 1]."""
    nodes, weights = quadrature_rule(model_breakpoints(model), min_nodes)
    design = design_matrix(model, nodes)
    return design.T @ (weights[:, None] * design)


def project_function(model: BasisModel, fn, min_nodes: int = 2048) -> np.ndarray:
    """Coefficients of the L2 projection of ``fn`` onto the model."""
    nodes, weights = quadrature_rule(model_breakpoints(model), min_nodes)
    design = design_matrix(model, nodes)
    values = np.asarray(fn(nodes), dtype=float)
    return design.T @ (weights * values)
