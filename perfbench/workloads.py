"""Workload definitions and the known answers their reports are checked against.

A workload is a fixed list of ``uqsl2`` command lines (one pass).  Its
inputs are enumerated (p, n, relation ids), so they carry no random seed.
Every check here reads the JSON report by field name and ignores fields
it does not know, so a later report with extra fields still passes.  The
expected values are written out in this file and share no code with the
program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

RELATION_IDS = tuple(f"eq{i}" for i in range(1, 22)) + (
    "prop2", "prop3", "prop4", "prop5",
    "pt_alpha", "pt_beta", "pt_alphabeta", "pt_betaalpha",
    "rot_rank", "kp_periodicity",
)

# Strand count the paper states for each identity, as a function of p.
_STRANDS_BY_SIZE = {
    "2p-1": ("eq1", "eq2", "eq3", "eq7", "eq8", "eq13", "eq14", "prop4",
             "pt_alpha", "pt_beta", "pt_alphabeta", "pt_betaalpha"),
    "2p": ("eq9", "eq10", "eq11", "eq12", "eq15", "eq16", "eq17", "eq18",
           "eq19", "eq20", "eq21", "prop5", "rot_rank", "kp_periodicity"),
    "3p-1": ("eq4", "eq5", "eq6"),
    "2p-2": ("prop2", "prop3"),
}
_SIZE = {
    "2p-1": lambda p: 2 * p - 1,
    "2p": lambda p: 2 * p,
    "3p-1": lambda p: 3 * p - 1,
    "2p-2": lambda p: 2 * p - 2,
}
STRANDS = {rid: _SIZE[size] for size, ids in _STRANDS_BY_SIZE.items() for rid in ids}

# The by-design failure: at p = 2 the 12p-6 word list has rank 29 of 32,
# and swapping in one word per family restores full rank.
PROP5_P2 = {"rank": 29, "commutant": 32, "completed_rank": 32}

# dim End(X^n) from the fusion rules (uqsl2.fusion_dims.dimension_formula),
# for n = 0..5.  They are Catalan numbers for n <= 2p-2.
FUSION_DIMS = {
    2: (1, 1, 2, 8, 32, 128),
    3: (1, 1, 2, 5, 14, 45),
    4: (1, 1, 2, 5, 14, 42),
    5: (1, 1, 2, 5, 14, 42),
    6: (1, 1, 2, 5, 14, 42),
}


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def hom_map_keys(ps) -> list:
    """(p, map, source, target) of the 10(p-1) explicit maps per p."""
    keys = []
    for p in ps:
        for sign, opp in (("+", "-"), ("-", "+")):
            for s in range(1, p):
                P, X, Pop = f"P{sign}_{s}", f"X{sign}_{s}", f"P{opp}_{p - s}"
                keys += [(p, "b->nu", P, X), (p, "nu->a", X, P), (p, "b->a", P, P),
                         (p, "b->x,y (f1)", P, Pop), (p, "b->x,y (f2)", P, Pop)]
    return keys


@dataclass
class Tally:
    """Outcome of checking one report.

    ``attempted`` counts operations (report rows the workload asks for);
    ``failed`` those whose verdict or value differs from the known answer,
    or that are missing.  ``errors`` lists what is wrong with the report
    as a whole (exit code, layout), which makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.problems += other.problems


def _section(doc, name: str, tally: Tally):
    sections = doc.get("sections") if isinstance(doc, dict) else None
    for sec in sections or ():
        if isinstance(sec, dict) and sec.get("section") == name:
            return sec
    tally.errors.append(f"report has no {name!r} section")
    return None


def _rows(sec, tally: Tally) -> list:
    rows = sec.get("rows")
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        tally.errors.append("section rows are not a list of objects")
        return []
    return rows


def _unexpected(found, wanted, tally: Tally, what: str) -> None:
    extra = sorted(set(found) - set(wanted), key=str)
    if extra:
        tally.errors.append(f"unexpected {what}: {extra[:5]}")
    if len(found) != len(set(found)):
        tally.errors.append(f"duplicate {what}")


def check_verify(p: int, ids: tuple, code: int, doc) -> Tally:
    """Every requested check holds at its stated strand count, except
    prop5 at p = 2, which must fail with exactly the known ranks."""
    t = Tally()
    expected_code = 1 if p == 2 and "prop5" in ids else 0
    if code != expected_code:
        t.errors.append(f"verify --p {p} exited {code}, expected {expected_code}")
    sec = _section(doc, "verify", t)
    rows = _rows(sec, t) if sec else []
    if sec and sec.get("skipped"):
        t.errors.append(f"verify --p {p} skipped {len(sec['skipped'])} checks")
    by_key = {(r.get("relation_id"), r.get("p")): r for r in rows}
    _unexpected([(r.get("relation_id"), r.get("p")) for r in rows],
                [(rid, p) for rid in ids], t, "verify rows")
    for rid in ids:
        row = by_key.get((rid, p))
        if row is None:
            t.op(False, f"{rid} p={p}: missing")
            continue
        strands_ok = row.get("strands") == STRANDS[rid](p)
        if rid == "prop5" and p == 2:
            wit = row.get("witness") or {}
            ok = row.get("holds") is False and all(
                wit.get(k) == v for k, v in PROP5_P2.items())
        else:
            ok = row.get("holds") is True
        t.op(ok and strands_ok, f"{rid} p={p}: {row}")
    return t


def check_dims(ps: tuple, max_n: int, code: int, doc) -> Tally:
    """Each solver dimension equals the fusion count, and Catalan(n)
    for n <= 2p-2."""
    t = Tally()
    if code != 0:
        t.errors.append(f"dims exited {code}, expected 0")
    sec = _section(doc, "dims", t)
    rows = _rows(sec, t) if sec else []
    if sec and sec.get("skipped"):
        t.errors.append(f"dims skipped {len(sec['skipped'])} solves")
    by_key = {(r.get("p"), r.get("n")): r for r in rows}
    wanted = [(p, n) for p in ps for n in range(max_n + 1)]
    _unexpected([(r.get("p"), r.get("n")) for r in rows], wanted, t, "dims rows")
    for p, n in wanted:
        row = by_key.get((p, n))
        if row is None:
            t.op(False, f"dim p={p} n={n}: missing")
            continue
        want = FUSION_DIMS[p][n]
        ok = row.get("solver") == want and row.get("fusion") == want
        if n <= 2 * p - 2:
            ok = ok and want == catalan(n)
        t.op(ok, f"dim p={p} n={n}: {row.get('solver')} != {want}")
    return t


def check_hom(ps: tuple, code: int, doc) -> Tally:
    """No table failures, and the 10(p-1) explicit maps per p are each an
    intertwiner lying in the solver's span."""
    t = Tally()
    if code != 0:
        t.errors.append(f"hom exited {code}, expected 0")
    sec = _section(doc, "hom", t)
    rows = _rows(sec, t) if sec else []
    failures = sec.get("failures") if sec else None
    if not isinstance(failures, list):
        t.errors.append("hom section has no failures list")
        failures = []
    wanted = hom_map_keys(ps)
    key = lambda r: (r.get("p"), r.get("map"), r.get("source"), r.get("target"))
    by_key = {key(r): r for r in rows}
    _unexpected([key(r) for r in rows], wanted, t, "hom rows")
    for p in ps:
        bad = [f for f in failures if isinstance(f, dict) and f.get("p") == p]
        t.op(not bad, f"hom table p={p}: {bad[:3]}")
    for k in wanted:
        row = by_key.get(k)
        ok = row is not None and row.get("intertwiner") is True and row.get("in_span") is True
        t.op(ok, f"hom map {k}: {row}")
    return t


@dataclass(frozen=True)
class Invocation:
    """One ``uqsl2`` command line and the check of its report."""

    args: tuple
    check: Callable  # (exit code, parsed report or None) -> Tally


def _ps_args(ps) -> tuple:
    return tuple(a for p in ps for a in ("--p", str(p)))


def _verify(p: int, ids: tuple) -> Invocation:
    args = ("verify", "--p", str(p), "--relations", ",".join(ids))
    return Invocation(args, lambda code, doc: check_verify(p, ids, code, doc))


_END_SOLVER = ("prop3", "prop4", "prop5")
_HOM_PS = _DIMS_PS = (2, 3, 4, 5, 6)

WORKLOADS = {
    # Operator construction and composition over field products, with
    # almost no elimination; keeps the by-design prop5 failure at p = 2.
    "relations": (
        _verify(2, RELATION_IDS),
        _verify(3, tuple(r for r in RELATION_IDS if r not in _END_SOLVER)),
        _verify(4, tuple(r for r in RELATION_IDS if r not in _END_SOLVER + ("rot_rank",))),
    ),
    # One large sparse exact elimination per (p, n): the end-space solver.
    "endspace": (
        Invocation(("dims",) + _ps_args(_DIMS_PS) + ("--max-n", "5"),
                   lambda code, doc: check_dims(_DIMS_PS, 5, code, doc)),
    ),
    # Hundreds of small dense nullspace solves: the Hom table.
    "homspace": (
        Invocation(("hom",) + _ps_args(_HOM_PS),
                   lambda code, doc: check_hom(_HOM_PS, code, doc)),
    ),
}
