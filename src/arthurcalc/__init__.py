"""Exact symbolic calculator for unramified Arthur and Langlands parameters
over split reductive groups.

Layers, bottom up: root data and Weyl combinatorics (`roots`), nilpotent
orbits and sl2 data (`nilpotent`), parameters as Frobenius eigen-data
(`parameters`), exact local L-factors (`lfactors`), the temperedness
dichotomy with certificates (`classifier`), scenario files and reports
(`scenarios`), sweep enumeration (`sweeps`), and the CLI (`cli`).

Tuples built once per scenario are built from lists (`tuple([...])`), not
from generators. CPython builds a tuple from a generator by resizing a
ten-slot one, and the resized tuples of lengths up to 20 pile up in the
interpreter's free lists, which only a full garbage collection empties.
The pipeline allocates few collected objects per scenario, so those
collections are rare; built from generators, the piled-up tuples add about
9% to the peak resident memory of a long loop of `check` calls.
"""

from .errors import InvariantViolation, ValidationError
from .roots import (
    CartanSpec,
    RootDatum,
    build_root_datum,
    cartan_matrix,
    character_exponents,
    diagram_pairing,
    dominantize,
    dual_datum,
    evaluation_exponents,
    format_root,
)
from .nilpotent import (
    SL2Data,
    is_very_even,
    sl2_from_partition,
    validate_partition,
    validate_sl2_data,
    weighted_diagram,
)
from .parameters import (
    ArthurParameter,
    QMonomial,
    UnramifiedParameter,
    apply_word_parameter,
    defining_levi,
    evaluate_root,
    langlands_parameter,
    make_arthur_parameter,
    recompose_parameter,
    recover_arthur_data,
)
from .lfactors import (
    CoefficientRatio,
    GradedNilradical,
    LocalLFactor,
    eigenvalues_by_level,
    grade_nilradical,
    inverse_vanishes_at,
    l_factor,
    local_coefficient_ratio,
    pole_locations,
)
from .classifier import (
    Certificate,
    Genericity,
    PacketVerdict,
    StandardModuleDatum,
    VerdictKind,
    classify_packet,
    genericity_verdict,
    irreducibility_verdict,
    packet_verdict,
    standard_module_datum,
    witness_root,
)
from .scenarios import (
    GlobalReport,
    PlaceFamily,
    Report,
    Scenario,
    canonical_json,
    emit_report_machine,
    parse_family_text,
    parse_report_text,
    parse_scenario_text,
    ramanujan_report,
    render_global_text,
    render_report_text,
    report_from_dict,
    run_scenario,
    scenario_from_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
