"""Readings of package objects that only the tests need: dense grids of
module actions and of Hom basis maps and their K, E, F check, JSON dumps
of modules and diagrams, and the common weight of a vector's terms."""

from __future__ import annotations

from uqsl2.rep_modules import _commutes


def action_grids(mod) -> tuple:
    """K, E and F of a module as dense grids (row-major tuples of CycloNum,
    column j the image of basis vector j), from the module's sparse ids."""
    d, wrap = mod.dimension, mod.ctx.wrap
    return tuple(tuple(tuple(wrap(M.get((i, j), 0)) for j in range(d)) for i in range(d))
                 for M in mod._ids)


def hom_maps(vectors, src, tgt) -> tuple:
    """The id vectors {i * ds + j: id} of maps src -> tgt as dense CycloNum
    grids, in their order."""
    ds, dt, wrap = src.dimension, tgt.dimension, src.ctx.wrap
    return tuple(tuple(tuple(wrap(v.get(i * ds + j, 0)) for j in range(ds))
                       for i in range(dt)) for v in vectors)


def is_intertwiner(M, src, tgt) -> bool:
    """Does the dense grid M satisfy M g_src = g_tgt M for g in {K, E, F}?"""
    ds = src.dimension
    vec = {i * ds + j: c.id for i, row in enumerate(M) for j, c in enumerate(row) if c}
    return _commutes(vec, src, tgt)


def module_dict(mod) -> dict:
    """JSON-ready dump of a module with its matrices as textual grids."""
    K, E, F = ([[str(c) for c in row] for row in M] for M in action_grids(mod))
    return {"label": mod.label, "dimension": mod.dimension, "K": K, "E": E, "F": F}


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
