"""Rewriting-based computation of Kan extensions of category actions.

From a finite presentation (two graphs, path relations, an action and a
functor on generators) the engine builds an initial rewrite system over
tagged terms, completes it Knuth-Bendix style, and either enumerates the
extension sets or reports them infinite together with the complete
system.  Coset enumeration, congruences, orbits, conjugacy classes,
colimits and induced actions are all special cases via the encoders.
"""

import importlib

# each public name by the module that defines it, a module by itself.
# They are loaded on first use (PEP 562), so that ``python -m kanbex``
# imports the engine inside ``__main__``'s handler for Ctrl-C
_NAMES = {
    "model": ("Arrow", "CompositionError", "KanPresentation", "Path", "PresentationError", "Term",
              "ValidationReport", "compose_paths", "format_path", "format_term", "list_as_term",
              "load_presentation", "parse_presentation", "presentation_from_json",
              "presentation_to_json", "term_as_list", "validate_presentation"),
    "ordering": ("OrderSpec",),
    "rewrite": ("CompletionResult", "CompletionStatus", "CriticalPair", "EpsRule", "KRule",
                "RewriteSystem", "check_confluence", "complete", "find_critical_pairs",
                "format_rule", "format_system", "initial_rules", "interreduce", "reduce_term"),
    "kan": ("DEFAULT_LIMIT", "EnumerationStatus", "KanTables", "act", "enumerate_extension",
            "epsilon", "naturality_check"),
    "encodings": ("ActionDesc", "CosetSystemDesc", "MonoidPresentationDesc", "conjugation_action",
                  "encode_from_json", "from_action_orbits", "from_category_presentation",
                  "from_colimit_diagram", "from_coset_system", "from_group_morphism",
                  "from_monoid_presentation", "from_relation_quotient", "from_right_congruence"),
}
_HOMES = {name: module for module, names in _NAMES.items() for name in (module, *names)}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOMES[name]}", __name__)
    value = globals()[name] = module if name in _NAMES else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
