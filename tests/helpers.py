"""Readings of package objects that only the tests need: dense grids of
Hom basis maps and their K, E, F check, JSON dumps of modules and diagrams,
and the common weight of a vector's terms."""

from __future__ import annotations

from uqsl2.rep_modules import _commutes


def hom_maps(hom) -> tuple:
    """The basis maps of a HomBasis as dense CycloNum grids, in its order."""
    ds, dt, wrap = hom.source.dimension, hom.target.dimension, hom.source.ctx.wrap
    return tuple(tuple(tuple(wrap(v.get(i * ds + j, 0)) for j in range(ds))
                       for i in range(dt)) for v in hom.vectors)


def is_intertwiner(M, src, tgt) -> bool:
    """Does the dense grid M satisfy M g_src = g_tgt M for g in {K, E, F}?"""
    ds = src.dimension
    vec = {i * ds + j: c.id for i, row in enumerate(M) for j, c in enumerate(row) if c}
    return _commutes(vec, src, tgt)


def module_dict(mod) -> dict:
    """JSON-ready dump of a module with its matrices as textual grids."""
    grid = lambda M: [[str(c) for c in row] for row in M]
    return {
        "label": mod.label,
        "dimension": mod.dimension,
        "basis": list(mod.basis_names),
        "K": grid(mod.K_matrix),
        "E": grid(mod.E_matrix),
        "F": grid(mod.F_matrix),
    }


def diagram_dict(d) -> dict:
    """JSON-ready dump of a diagram's boundary sizes and pairs."""
    name = lambda pt: f"{pt[0]}{pt[1]}"
    return {
        "top": d.n_top,
        "bottom": d.n_bottom,
        "pairs": [[name(a), name(b)] for a, b in d.pairs],
    }


def homogeneous_weight(v) -> int | None:
    """The common weight of a TensorVector's terms, or None if mixed or zero."""
    ws = {b.bit_count() for b in v.terms}
    return ws.pop() if len(ws) == 1 else None
