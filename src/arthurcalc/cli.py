"""Command-line front end.

Verbs:
  check <scenario-file>    classify one scenario and print its report
  batch <dir>              classify every *.json scenario in a directory
  global <family-file>     aggregate a family of places
  orbits <family> <rank>   list nilpotent orbits (partitions and diagrams)

`--format machine` emits canonical JSON (sorted keys, stable bytes);
`--certify` adds the full per-level eigenvalue multisets in text mode and
the sl2 support in orbit listings. Exit codes: 0 success (and `--help`),
1 validation or usage error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from stat import S_ISREG

from .errors import InvariantViolation, ValidationError
from .nilpotent import is_very_even, sl2_from_partition, weighted_diagram
from .roots import CartanSpec, format_root
from .scenarios import (
    canonical_json,
    emit_report_machine,
    parse_family_text,
    parse_scenario_text,
    ramanujan_report,
    render_global_text,
    render_report_text,
    run_scenario,
)
from .sweeps import valid_partitions


# Largest input file, in bytes. The largest legal scenario, an expert one at
# rank 24 (576 support roots of 24 coefficients, 24 angles of 64-digit
# numerals), takes about 0.28 MB written one coefficient a line at an indent
# of 4. A family has no place limit of its own: this bound stands for one.
MAX_INPUT_BYTES = 4 * 2**20


def _read_text(path: Path) -> str:
    """A regular file's UTF-8 text, newlines read as text mode does. A FIFO
    or a device is refused before it is opened, so nothing blocks, and at
    most one byte over MAX_INPUT_BYTES is read."""
    try:
        st = path.stat()
        if not S_ISREG(st.st_mode):
            raise ValidationError(f"cannot read {path}: not a regular file")
        with path.open("rb") as f:
            # a read allocates its whole size, so it is sized by the stat; a
            # file longer than its stat said is read on, up to the bound
            data = f.read(min(st.st_size, MAX_INPUT_BYTES) + 1)
            if len(data) > st.st_size:
                data += f.read(MAX_INPUT_BYTES + 1 - len(data))
        if len(data) > MAX_INPUT_BYTES:
            raise ValidationError(f"cannot read {path}: larger than {MAX_INPUT_BYTES} bytes")
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as err:
        raise ValidationError(f"cannot read {path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise ValidationError(f"cannot read {path}: not UTF-8 text (byte {err.start})")


def _cmd_check(args) -> int:
    scenario = parse_scenario_text(_read_text(Path(args.scenario_file)))
    report = run_scenario(scenario)
    if args.format == "machine":
        sys.stdout.write(emit_report_machine(report))
    else:
        sys.stdout.write(render_report_text(report, certify=args.certify))
    return 0


def _cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ValidationError(f"not a directory: {directory}")
    files = sorted(directory.glob("*.json"))
    if not files:
        raise ValidationError(f"no scenario files (*.json) in {directory}")
    reports = []
    for path in files:
        try:
            reports.append(run_scenario(parse_scenario_text(_read_text(path))))
        except ValidationError as err:
            raise ValidationError(f"{path.name}: {err}")
    if args.format == "machine":
        sys.stdout.write(canonical_json(reports))
    else:
        sys.stdout.write(
            "\n".join(render_report_text(r, certify=args.certify) for r in reports)
        )
    return 0


def _cmd_global(args) -> int:
    family = parse_family_text(_read_text(Path(args.family_file)))
    report = ramanujan_report(family)
    if args.format == "machine":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(render_global_text(report))
    return 0


def _cmd_orbits(args) -> int:
    spec = CartanSpec(args.family.upper(), args.rank)
    if spec.family not in ("A", "B", "C", "D"):
        raise ValidationError(
            f"partition classification covers families A, B, C, D; got {spec.family}",
            field="family",
        )
    rows = []
    for parts in valid_partitions(spec.family, spec.rank):
        row = {"partition": list(parts), "very_even": is_very_even(spec.family, parts)}
        if args.certify:  # the sl2 data hold the diagram
            data = sl2_from_partition(spec.family, spec.rank, parts)
            row.update(diagram=list(data.diagram), support=[list(r) for r in data.support])
        else:
            row["diagram"] = list(weighted_diagram(spec.family, spec.rank, parts))
        rows.append(row)
    if args.format == "machine":
        sys.stdout.write(canonical_json(rows))
        return 0
    lines = [f"{spec}: {len(rows)} nilpotent orbits"]
    for row in rows:
        line = f"  {row['partition']} -> diagram {row['diagram']}"
        if row["very_even"]:
            line += " (very even)"
        lines.append(line)
        if args.certify:
            named = ", ".join(format_root(tuple(root)) for root in row["support"])
            lines.append("      support {" + named + "}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other input errors; 2 means an internal bug."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arthurcalc",
        description=(
            "Exact temperedness certificates for unramified Arthur parameters "
            "over split reductive groups."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="text report or canonical machine JSON (default: text)",
        )
        p.add_argument(
            "--certify",
            action="store_true",
            help="include full eigenvalue multisets (text) or sl2 support (orbits)",
        )

    check = sub.add_parser("check", help="classify one scenario file")
    check.add_argument("scenario_file")
    add_common(check)
    check.set_defaults(handler=_cmd_check)

    batch = sub.add_parser("batch", help="classify every *.json scenario in a directory")
    batch.add_argument("directory")
    add_common(batch)
    batch.set_defaults(handler=_cmd_batch)

    family = sub.add_parser("global", help="aggregate a family of places")
    family.add_argument("family_file")
    add_common(family)
    family.set_defaults(handler=_cmd_global)

    orbits = sub.add_parser("orbits", help="list nilpotent orbits for a classical type")
    orbits.add_argument("family", help="one of A, B, C, D")
    orbits.add_argument("rank", type=int)
    add_common(orbits)
    orbits.set_defaults(handler=_cmd_orbits)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InvariantViolation as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
