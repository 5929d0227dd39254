"""Fox colorings, crossing-weight invariants and certified lower bounds
on the number of type-III moves between oriented link diagrams.

The public names and the submodules load on first attribute use (PEP
562), so ``import tribound`` loads no submodule and a command line call
loads only the modules its command runs.
"""

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("cli", "diagram", "coloring", "poly", "cochain", "invariant", "cache",
     "fixtures")
)
# each public name, with the submodule that defines it
_SOURCES = {
    name: module
    for module, names in (
        ("diagram", ("Diagram", "DiagramError", "parse_diagram",
                     "diagram_from_dict", "trace_faces", "merge_arcs",
                     "set_outer_face")),
        ("coloring", ("Coloring", "ExtendedColoring", "quandle_star",
                      "enumerate_colorings", "is_trivial", "extend_coloring")),
        ("poly", ("CochainFn", "parse_poly", "canonical_str")),
        ("cochain", ("DeltaReach", "coboundary_vector", "delta_f", "image_delta",
                     "delta_reach")),
        ("invariant", ("CrossingTerm", "PhiSet", "BoundCertificate", "weight",
                       "weight_vector", "crossing_terms", "phi_set",
                       "certify_lower_bound", "verify_certificate")),
        ("fixtures", ("load_fixture",)),
    )
    for name in names
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{source}"), name)
    globals()[name] = value  # bound once, as an eager import would have
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
