"""Fox colorings, crossing-weight invariants and certified lower bounds
on the number of type-III moves between oriented link diagrams."""

from .cochain import (
    CochainFn,
    DeltaReach,
    canonical_str,
    check_sharp,
    delta_f,
    delta_reach,
    image_delta,
    parse_poly,
)
from .coloring import (
    Coloring,
    ExtendedColoring,
    enumerate_colorings,
    extend_coloring,
    is_trivial,
    quandle_star,
)
from .diagram import (
    Diagram,
    DiagramError,
    crossing_sign,
    diagram_from_dict,
    merge_arcs,
    parse_diagram,
    set_outer_face,
    trace_faces,
    validate,
)
from .invariant import (
    BoundCertificate,
    PhiSet,
    certify_lower_bound,
    crossing_triple,
    phi_set,
    verify_certificate,
    w4_formula,
    weight,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the bundled diagrams are imported on first use, not at start-up
    if name == "load_fixture":
        from .fixtures import load_fixture

        return load_fixture
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "Diagram",
    "DiagramError",
    "parse_diagram",
    "diagram_from_dict",
    "trace_faces",
    "merge_arcs",
    "crossing_sign",
    "set_outer_face",
    "validate",
    "Coloring",
    "ExtendedColoring",
    "quandle_star",
    "enumerate_colorings",
    "is_trivial",
    "extend_coloring",
    "CochainFn",
    "DeltaReach",
    "parse_poly",
    "canonical_str",
    "check_sharp",
    "delta_f",
    "image_delta",
    "delta_reach",
    "PhiSet",
    "BoundCertificate",
    "crossing_triple",
    "weight",
    "phi_set",
    "w4_formula",
    "certify_lower_bound",
    "verify_certificate",
    "load_fixture",
]
