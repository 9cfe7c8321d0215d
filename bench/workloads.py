"""The three seeded workloads: input generation, the timed item, and the
independent check of each item's output.

Every workload is closed-loop with one client: the next item starts when the
previous one returns. The program sees only the generated inputs; the seed
stays in the benchmark.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_NAMES = ("a1-principal", "a2-subregular", "a2-tempered")
GROUP_OF_DUAL = {"A": "A", "B": "C", "C": "B", "D": "D", "G": "G"}
DUAL_OF_GROUP = {group: dual for dual, group in GROUP_OF_DUAL.items()}

# G2 expert diagrams (dual numbering); (0, 0) is the trivial orbit.
G2_DIAGRAMS = ((2, 2), (2, 0), (0, 2), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (0, 0))
ANGLE_DENOMINATOR = 12


# ---------------------------------------------------------------------------
# CLI workloads: batch-small and principal-large


@dataclass(frozen=True)
class CliCase:
    """One scenario file and what its construction says the CLI must do."""

    path: str
    label: str
    expect_exit: int
    dual_family: str = ""
    rank: int = 0
    diagram: tuple[int, ...] | None = None  # None for the trivial kind
    golden: str | None = None
    text: str = field(default="", compare=False, repr=False)  # the file's contents

    def __str__(self) -> str:
        return self.path


def _case_for(path: Path, text: str, golden: str | None = None) -> CliCase:
    """Expected outcome of a well-formed scenario, read off its own fields."""
    payload = json.loads(text)
    family = DUAL_OF_GROUP[payload["group"]["family"]]
    rank = payload["group"]["rank"]
    sl2 = payload["sl2"]
    if sl2 == "trivial":
        diagram = None
    elif "partition" in sl2:
        diagram = oracle.weighted_diagram(family, rank, sl2["partition"])
    else:
        diagram = tuple(sl2["expert"]["diagram"])
    return CliCase(str(path), payload["label"], 0, family, rank, diagram, golden, text)


def _angles_text(nums) -> list[str]:
    return [oracle.format_rational(oracle.rational(n, ANGLE_DENOMINATOR)) for n in nums]


def _scenario(label, family, rank, angles, sl2, rng, generic=None) -> dict:
    """Scenario payload; the genericity flag is seeded (and sometimes left
    to its default) unless given."""
    payload = {
        "label": label,
        "group": {"family": GROUP_OF_DUAL[family], "rank": rank},
        "satake_angles": angles,
        "sl2": sl2,
    }
    if generic is None and rng.random() < 0.7:
        generic = rng.random() < 0.7
    if generic is not None:
        payload["generic_assumption"] = generic
    return payload


def _partition_scenario(rng, label, family, rank, parts) -> dict:
    diagram = oracle.weighted_diagram(family, rank, parts)
    pairing_two = [r for r in oracle.positive_roots(family, rank) if oracle.pairing(r, diagram) == 2]
    nums = oracle.vanishing_angles(rng, pairing_two, rank, ANGLE_DENOMINATOR)
    return _scenario(label, family, rank, _angles_text(nums), {"partition": list(parts)}, rng)


def _g2_expert(rng, label) -> dict:
    diagram = rng.choice(G2_DIAGRAMS)
    pairing_two = [r for r in oracle.positive_roots("G", 2) if oracle.pairing(r, diagram) == 2]
    support = [r for r in pairing_two if rng.random() < 0.5] or pairing_two[:1]
    nums = oracle.vanishing_angles(rng, support, 2, ANGLE_DENOMINATOR)
    sl2 = {"expert": {"diagram": list(diagram), "support": [list(r) for r in support]}}
    return _scenario(label, "G", 2, _angles_text(nums), sl2, rng)


def _trivial(rng, label, family, rank) -> dict:
    nums = [rng.randrange(ANGLE_DENOMINATOR) for _ in range(rank)]
    return _scenario(label, family, rank, _angles_text(nums), "trivial", rng)


MALFORMED_KINDS = ("json", "sum", "parity", "angles", "centralizer", "key", "family", "expert", "rank")


def _malformed(rng, label, kind) -> str:
    """Scenario text that is invalid by construction, so `check` must exit 1."""
    family = rng.choice("BCD")
    rank = rng.randint(3, 5)
    payload = _partition_scenario(rng, label, family, rank, oracle.random_partition(rng, family, rank))
    if kind == "json":
        return json.dumps(payload)[: rng.randint(1, 40)]
    if kind == "sum":
        payload["sl2"]["partition"].append(1)
    elif kind == "parity":
        total = oracle.PARTITION_TOTAL[family](rank)
        # one even part (B, D) or one odd part (C) of odd multiplicity
        payload["sl2"]["partition"] = [total - 2, 2] if family in "BD" else [total - 1, 1]
    elif kind == "angles":
        payload["satake_angles"].append("0")
    elif kind == "centralizer":
        # The principal support is a set of simple roots and every angle is 1/2.
        payload["sl2"] = {"partition": list(oracle.principal_partition(family, rank))}
        payload["satake_angles"] = ["1/2"] * rank
    elif kind == "key":
        payload["colour"] = "red"
    elif kind == "family":
        payload["group"]["family"] = "E"
    elif kind == "expert":
        payload["group"] = {"family": "G", "rank": 2}
        payload["satake_angles"] = ["0", "0"]
        payload["sl2"] = {"expert": {"diagram": [2, 2], "support": [[1, 1]]}}
    else:
        payload["group"]["rank"] = 0
    return json.dumps(payload, indent=1)


def _golden_cases(workdir: Path) -> list[CliCase]:
    cases = []
    for name in GOLDEN_NAMES:
        text = (ROOT / "scenarios" / f"{name}.json").read_text()
        golden = (ROOT / "tests" / "golden" / f"{name}.machine.json").read_text()
        cases.append(_case_for(workdir / f"{name}.json", text, golden))
    return cases


# Files per stratum. The mix is fixed so that the seed moves partitions,
# angles and flags but not the share of expensive files: with the mix drawn
# at random, items_per_s ranged over +-15% across five seeds.
SMALL_CELLS = tuple(
    (family, rank) for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(low, 6)
)  # 16 classical (dual family, rank) cells
TRIVIAL_PER_CELL, PARTITIONS_PER_CELL, G2_EXPERT, MALFORMED = 3, 12, 27, 30


def generate_batch_small(lib, seed: int, workdir: Path) -> list[CliCase]:
    """300 files at dual rank <= 5: per classical cell 3 trivial and 12
    seeded partition orbits, 27 G2 expert orbits, 30 malformed files (one
    in ten), and the three scenarios that have goldens."""
    rng = random.Random(seed)
    cases = _golden_cases(workdir)
    strata = []
    for family, rank in SMALL_CELLS:
        strata += [("trivial", family, rank)] * TRIVIAL_PER_CELL
        strata += [("partition", family, rank)] * PARTITIONS_PER_CELL
    strata += [("expert", "G", 2)] * G2_EXPERT
    for i, (kind, family, rank) in enumerate(strata):
        label = f"small-{i:03d}"
        if kind == "trivial":
            payload = _trivial(rng, label, family, rank)
        elif kind == "partition":
            parts = oracle.random_partition(rng, family, rank)
            payload = _partition_scenario(rng, label, family, rank, parts)
        else:
            payload = _g2_expert(rng, label)
        cases.append(_case_for(workdir / f"{label}.json", json.dumps(payload, indent=1)))
    for i in range(MALFORMED):
        label = f"malformed-{i:03d}"
        text = _malformed(rng, label, MALFORMED_KINDS[i % len(MALFORMED_KINDS)])
        cases.append(CliCase(str(workdir / f"{label}.json"), label, 1, text=text))
    return cases


# (dual family, rank) -> two non-principal partitions with at most rank/2
# parts, drawn once and then fixed. Partitions drawn per seed moved the
# median item by up to a third between seeds, and so did seeding which file
# drops the genericity assumption (that skips one L-factor pair). So the
# files do not depend on the seed: the second partition of each slot drops
# the assumption, and the seed only orders the passes (see run.Loop).
# Angles are all 0: at these ranks random angles almost never vanish on
# every root that pairs to 2 with the diagram.
PRINCIPAL_SLOTS = {
    ("A", 12): ((8, 3, 2), (9, 4)),
    ("A", 14): ((8, 4, 2, 1), (9, 4, 1, 1)),
    ("A", 16): ((13, 4), (10, 5, 2)),
    ("A", 18): ((9, 4, 2, 2, 1, 1), (11, 7, 1)),
    ("A", 20): ((10, 6, 3, 2), (10, 4, 3, 2, 1, 1)),
    ("A", 22): ((19, 3, 1), (17, 5, 1)),
    ("B", 12): ((11, 9, 5), (17, 5, 1, 1, 1)),
    ("C", 12): ((10, 4, 4, 3, 3), (10, 7, 7)),
    ("D", 12): ((11, 6, 6, 1), (11, 7, 2, 2, 1, 1)),
    ("D", 13): ((10, 10, 3, 1, 1, 1), (11, 7, 7, 1)),
}


def generate_principal_large(lib, seed: int, workdir: Path) -> list[CliCase]:
    """30 files at dual rank 12-22 over A/B/C/D: each slot's principal orbit
    and its two fixed partitions."""
    cases = []
    for (family, rank), others in PRINCIPAL_SLOTS.items():
        for i, parts in enumerate((oracle.principal_partition(family, rank),) + others):
            label = f"large-{family}{rank}-{len(cases):02d}"
            payload = _scenario(
                label, family, rank, ["0"] * rank, {"partition": list(parts)}, None, i != 2
            )
            cases.append(_case_for(workdir / f"{label}.json", json.dumps(payload, indent=1)))
    return cases


def write_files(cases) -> None:
    """Write the generated scenario files (untimed: file-system time is the
    host's, not the program's)."""
    for case in cases:
        Path(case.path).write_text(case.text)


def warm_cli(lib, cases) -> None:
    """Fill the root-datum and sl2 caches the way parsing a file does."""
    for case in cases:
        try:
            lib.scenarios.parse_scenario_text(Path(case.path).read_text()).resolved_sl2()
        except lib.errors.ValidationError:
            pass


def run_cli(lib, case: CliCase):
    """The timed item: `arthurcalc check FILE --format machine`, in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.main(["check", case.path, "--format", "machine"])
    return code, out.getvalue(), err.getvalue()


def check_cli(lib, case: CliCase, output) -> str | None:
    code, stdout, stderr = output
    if code != case.expect_exit:
        return f"exit {code}, expected {case.expect_exit}: {stderr.strip()}"
    if case.expect_exit:
        return "a rejected file printed a report" if stdout else None
    if stderr:
        return f"unexpected stderr: {stderr.strip()}"
    if case.golden is not None and stdout != case.golden:
        return "report differs from the golden bytes"
    report = json.loads(stdout)
    if report["label"] != case.label:
        return f"label {report['label']!r}"
    if lib.scenarios.emit_report_machine(lib.scenarios.parse_report_text(stdout)) != stdout:
        return "parse_report_text -> emit_report_machine is not byte-identical"
    if case.diagram is not None and tuple(report["sl2_diagram"]) != case.diagram:
        return f"diagram {report['sl2_diagram']}, expected {list(case.diagram)}"
    if case.diagram is None or not any(case.diagram):
        if report["verdict_kind"] != "Tempered" or report["verdict_witness"] is not None:
            return f"trivial orbit gave {report['verdict_kind']}"
        return None
    if report["verdict_kind"] != "NonTempered":
        return f"nontrivial orbit gave {report['verdict_kind']}"
    if report["certificate_eigenvalue"] != {"angle": "0/1", "q_exp": "1/1"}:
        return f"certificate eigenvalue {report['certificate_eigenvalue']}"
    if report["certificate_point"] != "1/1":
        return f"certificate point {report['certificate_point']}"
    return oracle.check_witness(
        report["verdict_witness"],
        [oracle.parse_rational(e) for e in report["dominant_exponents"]],
        [oracle.parse_rational(a) for a in report["dominant_unit_angles"]],
        set(report["levi"]),
        case.dual_family,
        case.rank,
    )


# ---------------------------------------------------------------------------
# sweep-recover


@dataclass(frozen=True)
class GridPoint:
    datum: object
    parts: tuple[int, ...]
    sl2: object
    angles: tuple  # Fractions from the library's MU4 grid
    word: tuple[int, ...]

    def __str__(self) -> str:
        angles = ", ".join(str(a) for a in self.angles)
        return f"{self.datum.spec} partition {list(self.parts)} angles [{angles}]"


def generate_sweep(lib, seed: int, workdir: Path) -> list[GridPoint]:
    """The mu_4 grid over DICHOTOMY_SPECS, each point with a seeded Weyl
    word of length 3 x rank without immediate repeats."""
    rng = random.Random(seed)
    sweeps = lib.sweeps
    points = []
    for spec in sweeps.DICHOTOMY_SPECS:
        datum = lib.roots.build_root_datum(spec)
        for parts in sweeps.valid_partitions(spec.family, spec.rank):
            sl2 = lib.nilpotent.sl2_from_partition(spec.family, spec.rank, parts)
            for angles in sweeps.unit_grid(spec.rank, sweeps.MU4_ANGLES):
                word = []
                while len(word) < 3 * spec.rank:
                    i = rng.randrange(spec.rank)
                    if not word or word[-1] != i or spec.rank == 1:
                        word.append(i)
                points.append(GridPoint(datum, parts, sl2, angles, tuple(word)))
    return points


def write_nothing(points) -> None:
    """The grid lives in memory."""


def warm_sweep(lib, points) -> None:
    """Generating the grid already filled the root-datum and sl2 caches."""


def run_sweep(lib, point: GridPoint):
    """The timed item: build the Arthur parameter (rejections are expected),
    classify it, conjugate its Langlands parameter by the seeded word and
    recover the Arthur data."""
    phi = lib.sweeps.unit_parameter(point.datum, point.angles)
    try:
        psi = lib.parameters.make_arthur_parameter(phi, point.sl2)
    except lib.errors.ValidationError:
        return None
    verdict = lib.classifier.classify_packet(psi)
    moved = lib.parameters.apply_word_parameter(
        lib.parameters.langlands_parameter(psi), point.word
    )
    units, diagram = lib.parameters.recover_arthur_data(moved)
    return verdict, units, diagram


def _quarters(angle) -> int:
    if 4 % angle.denominator:
        raise ValueError(f"angle {angle} is not a fourth of a turn")
    return angle.numerator * (4 // angle.denominator)


def check_sweep(lib, point: GridPoint, output) -> str | None:
    family, rank = point.datum.spec.family, point.datum.spec.rank
    diagram = oracle.weighted_diagram(family, rank, point.parts)
    if tuple(point.sl2.diagram) != diagram:
        return f"sl2 diagram {point.sl2.diagram}, expected {diagram}"
    angles = [_quarters(a) for a in point.angles]
    centralized = all(oracle.dot(root, [(a, 4) for a in angles])[1] == 1 for root in point.sl2.support)
    if output is None:
        return "centralizing point rejected" if centralized else None
    if not centralized:
        return "non-centralizing point accepted"
    verdict, units, recovered = output
    exponents = [oracle.rational(d, 2) for d in diagram]
    quarter_angles = [(a, 4) for a in angles]
    zero_set = {i for i, d in enumerate(diagram) if d == 0}
    if set(verdict.levi) != zero_set:
        return f"levi {sorted(verdict.levi)}, expected {sorted(zero_set)}"
    if all(m == 1 for m in point.parts):
        if verdict.kind.value != "Tempered" or verdict.witness is not None:
            return f"trivial orbit gave {verdict.kind.value}"
    else:
        if verdict.kind.value != "NonTempered":
            return f"nontrivial orbit gave {verdict.kind.value}"
        value = verdict.certificate.eigenvalue
        if (value.q_exp, value.angle, verdict.certificate.s) != (1, 0, 1):
            return f"certificate {value} at s = {verdict.certificate.s}"
        problem = oracle.check_witness(
            verdict.witness, exponents, quarter_angles, {i + 1 for i in zero_set}, family, rank
        )
        if problem:
            return problem
    if tuple(recovered) != diagram:
        return f"recovered diagram {recovered}, expected {diagram}"
    recovered_angles = [(t.angle.numerator, t.angle.denominator) for t in units.coords]
    if oracle.root_value_multiset(family, rank, exponents, recovered_angles) != (
        oracle.root_value_multiset(family, rank, exponents, quarter_angles)
    ):
        return "recovered unit part is not Weyl-conjugate to the original"
    return None


@dataclass(frozen=True)
class Workload:
    """What run.py needs of a workload; BENCHMARK.json says why it exists."""

    generate: object
    write: object
    warm: object
    run: object
    check: object
    tail_percentile: float  # highest with >= 10 samples beyond it at 30 s


WORKLOADS = {
    "batch-small": Workload(generate_batch_small, write_files, warm_cli, run_cli, check_cli, 99.0),
    "principal-large": Workload(generate_principal_large, write_files, warm_cli, run_cli, check_cli, 90.0),
    "sweep-recover": Workload(generate_sweep, write_nothing, warm_sweep, run_sweep, check_sweep, 99.9),
}
