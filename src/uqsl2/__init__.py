"""Exact planar-algebra computations for restricted U_q(sl2) at q = e^{i pi/p}."""

from uqsl2.cyclo_field import (
    CycloNum,
    FieldCtx,
    SingularRatio,
    parse_cyclo,
)

__version__ = "0.1.0"

__all__ = [
    "CycloNum",
    "FieldCtx",
    "SingularRatio",
    "parse_cyclo",
]
