"""Command-line reports over the exact verification engine.

Commands: verify (relation and proposition checks), dims (dimension
counts against the end-space solver), conjecture (the closed dimension
formula under each division convention, side by side with the fusion
count), hom (the Hom-space table and explicit maps), basis (the
diagrams-plus-words spanning check on 2p strands), all (every section).

Reports are deterministic: rows come out in a fixed order (relation id
first, then p) and timing fields are zeroed on serialization, so the
same configuration always produces byte-identical output.

Exit codes: 0 every executed check holds, 1 at least one check failed,
2 usage error, 3 everything requested was skipped for budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import NamedTuple

from uqsl2.cyclo_field import FieldCtx
from uqsl2.fusion_dims import CONVENTIONS, catalan, conjecture_eval, dimension_formula
from uqsl2.relation_engine import (
    DEFAULT_BUDGET,
    RELATION_IDS,
    InfeasibleSize,
    commutant_dim,
    run_checks,
)
from uqsl2.rep_modules import verify_hom_forms

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_ALL_SKIPPED = 3

COMMANDS = ("verify", "dims", "conjecture", "hom", "basis", "all")
FORMATS = ("json", "markdown", "csv")


class RunConfig(NamedTuple):
    command: str
    ps: tuple[int, ...] = (2, 3)
    relations: tuple[str, ...] = RELATION_IDS
    budget: int = DEFAULT_BUDGET
    max_n: int | None = None
    fmt: str = "markdown"
    out: str | None = None
    floor_convention: str | None = None


_DESCRIPTION = """\
Exact reports for the planar algebra of U_q(sl2) at a root of unity.

commands:
  verify      run relation and proposition checks
  dims        tabulate dimension counts against the end-space solver
  conjecture  evaluate the closed dimension formula per convention
  hom         check the Hom-space table and the explicit maps
  basis       run the spanning check on 2p strands
  all         run every section
"""


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command, then options that every command accepts."""
    parser = argparse.ArgumentParser(
        prog="uqsl2",
        description=_DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, help="the report to run")
    parser.add_argument(
        "--p",
        dest="ps",
        action="append",
        type=int,
        metavar="P",
        help="root order, repeatable (default: 2 and 3)",
    )
    parser.add_argument(
        "--max-n",
        dest="max_n",
        type=int,
        default=None,
        help="largest strand count in dimension tables",
    )
    parser.add_argument(
        "--relations",
        default="all",
        help="comma-separated relation ids, or 'all'",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="state-space budget; larger checks are skipped, not run",
    )
    parser.add_argument("--format", dest="fmt", choices=FORMATS, default="markdown")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument(
        "--floor-convention",
        dest="floor_convention",
        choices=CONVENTIONS,
        default=None,
        help="restrict the conjecture columns to one convention",
    )
    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    ps = []
    for p in args.ps if args.ps else (2, 3):
        if p < 2:
            parser.error(f"--p must be at least 2, got {p}")
        if p not in ps:
            ps.append(p)
    if args.budget < 1:
        parser.error("--budget must be positive")
    if args.max_n is not None and args.max_n < 0:
        parser.error("--max-n must be nonnegative")
    return RunConfig(
        command=args.command,
        ps=tuple(ps),
        relations=_parse_relations(args.relations, parser),
        budget=args.budget,
        max_n=args.max_n,
        fmt=args.fmt,
        out=args.out,
        floor_convention=args.floor_convention,
    )


def _parse_relations(text: str, parser: argparse.ArgumentParser) -> tuple[str, ...]:
    if text == "all":
        return RELATION_IDS
    wanted = [part.strip() for part in text.split(",") if part.strip()]
    unknown = sorted(set(wanted) - set(RELATION_IDS))
    if unknown:
        parser.error("unknown relation ids: " + ", ".join(unknown))
    if not wanted:
        parser.error("--relations must name at least one check")
    return tuple(rid for rid in RELATION_IDS if rid in wanted)


def _conventions(config: RunConfig) -> tuple[str, ...]:
    if config.floor_convention is None:
        return CONVENTIONS
    return (config.floor_convention,)


def _section_verify(config: RunConfig) -> tuple[dict, int]:
    reports, skipped = run_checks(config.relations, ps=config.ps, budget=config.budget)
    rows = [rep.as_json() for rep in reports]
    payload = {
        "section": "verify",
        "columns": ["relation_id", "p", "strands", "holds", "witness"],
        "rows": rows,
        "skipped": skipped,
    }
    if any(not rep.holds for rep in reports):
        return payload, EXIT_FAILED
    if not reports:
        return payload, EXIT_ALL_SKIPPED
    return payload, EXIT_OK


def _dimension_rows(config: RunConfig, max_n: int, solver=None) -> tuple[list, list]:
    """Columns and rows p, n, catalan, fusion, then, when ``solver(p, n)``
    gives the end-space solver's count or None, solver and solver_match,
    then each convention's conjecture and whether it matches fusion."""
    conventions = _conventions(config)
    columns = ["p", "n", "catalan", "fusion"] + (["solver", "solver_match"] if solver else [])
    for conv in conventions:
        columns += [f"conjecture({conv})", f"match({conv})"]
    rows = []
    for p in config.ps:
        for n in range(max_n + 1):
            fusion = dimension_formula(n, p)
            row = {"p": p, "n": n, "catalan": catalan(n), "fusion": fusion}
            if solver:
                oracle = row["solver"] = solver(p, n)
                row["solver_match"] = None if oracle is None else oracle == fusion
            for conv in conventions:
                conj = row[f"conjecture({conv})"] = conjecture_eval(n, p, conv)
                row[f"match({conv})"] = conj == fusion
            rows.append(row)
    return columns, rows


def _section_dims(config: RunConfig) -> tuple[dict, int]:
    skipped = []

    def solve(p, n):
        try:
            return commutant_dim(p, n, config.budget)
        except InfeasibleSize as exc:
            skipped.append({"p": p, "n": n, "skipped": str(exc)})
            return None

    columns, rows = _dimension_rows(config, 6 if config.max_n is None else config.max_n, solve)
    payload = {
        "section": "dims",
        "columns": columns,
        "rows": rows,
        "skipped": skipped,
        "notes": ["Conjecture mismatches are reported, not failed."],
    }
    failed = any(row["solver_match"] is False for row in rows)
    return payload, EXIT_FAILED if failed else EXIT_OK


def _section_conjecture(config: RunConfig) -> tuple[dict, int]:
    columns, rows = _dimension_rows(config, 10 if config.max_n is None else config.max_n)
    payload = {
        "section": "conjecture",
        "columns": columns,
        "rows": rows,
        "notes": ["Conjecture mismatches are reported, not failed."],
    }
    return payload, EXIT_OK


def _section_hom(config: RunConfig) -> tuple[dict, int]:
    rows, failures, skipped = [], [], []
    ok = True
    for p in config.ps:
        # the largest modules have dimension 2p, so the largest Hom solve
        # has (2p)^2 unknowns
        unknowns = (2 * p) ** 2
        if unknowns >= config.budget:
            verb = "reach" if unknowns == config.budget else "exceed"
            reason = f"{unknowns} unknowns in a Hom solve {verb} budget {config.budget}"
            skipped.append({"p": p, "skipped": reason})
            continue
        result = verify_hom_forms(FieldCtx(p))
        ok = ok and result["ok"]
        for entry in result["explicit_maps"]:
            rows.append({"p": p, **entry})
        for failure in result["table_failures"]:
            failures.append({"p": p, "failure": failure})
    payload = {
        "section": "hom",
        "columns": ["p", "map", "source", "target", "intertwiner", "in_span"],
        "rows": rows,
        "failures": failures,
        "skipped": skipped,
    }
    if not ok:
        return payload, EXIT_FAILED
    if skipped and len(skipped) == len(config.ps):
        return payload, EXIT_ALL_SKIPPED
    return payload, EXIT_OK


def _section_basis(config: RunConfig) -> tuple[dict, int]:
    payload, code = _section_verify(config._replace(relations=("prop5",)))
    return {**payload, "section": "basis"}, code


_SECTIONS = {
    "verify": (_section_verify,),
    "dims": (_section_dims,),
    "conjecture": (_section_conjecture,),
    "hom": (_section_hom,),
    "basis": (_section_basis,),
    "all": (_section_verify, _section_dims, _section_conjecture, _section_hom, _section_basis),
}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _markdown(config: RunConfig, payloads: list[dict]) -> str:
    lines = [
        f"# {config.command} report",
        "",
        "p: " + ", ".join(str(p) for p in config.ps) + f"; budget: {config.budget}",
    ]
    for payload in payloads:
        lines += ["", f"## {payload['section']}", ""]
        cols = payload["columns"]
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("| " + " | ".join("---" for _ in cols) + " |")
        for row in payload["rows"]:
            lines.append("| " + " | ".join(_cell(row.get(c)) for c in cols) + " |")
        for key in ("skipped", "failures"):
            if payload.get(key):
                lines += ["", f"{key}:"]
                for entry in payload[key]:
                    lines.append("- " + json.dumps(entry, sort_keys=True))
        for note in payload.get("notes", ()):
            lines += ["", note]
    lines.append("")
    return "\n".join(lines)


def _csv(payloads: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for payload in payloads:
        writer.writerow(["section", payload["section"]])
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([_cell(row.get(c)) for c in payload["columns"]])
        for key in ("skipped", "failures"):
            if payload.get(key):
                keys = sorted({k for entry in payload[key] for k in entry})
                writer.writerow([key])
                writer.writerow(keys)
                for entry in payload[key]:
                    writer.writerow([_cell(entry.get(k)) for k in keys])
    return buf.getvalue()


def render(config: RunConfig, payloads: list[dict]) -> str:
    if config.fmt == "json":
        doc = {
            "command": config.command,
            "p": list(config.ps),
            "budget": config.budget,
            "sections": payloads,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if config.fmt == "markdown":
        return _markdown(config, payloads)
    return _csv(payloads)


def run(config: RunConfig) -> tuple[str, int]:
    """Build the report for one configuration; returns (text, exit code)."""
    payloads, codes = [], []
    for builder in _SECTIONS[config.command]:
        payload, code = builder(config)
        payloads.append(payload)
        codes.append(code)
    text = render(config, payloads)
    if EXIT_FAILED in codes:
        code = EXIT_FAILED
    elif all(c == EXIT_ALL_SKIPPED for c in codes):
        code = EXIT_ALL_SKIPPED
    else:
        code = EXIT_OK
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text, code


def main(argv: list[str] | None = None) -> int:
    config = parse_config(argv)
    text, code = run(config)
    if config.out is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
