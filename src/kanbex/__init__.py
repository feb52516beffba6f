"""Rewriting-based computation of Kan extensions of category actions.

From a finite presentation (two graphs, path relations, an action and a
functor on generators) the engine builds an initial rewrite system over
tagged terms, completes it Knuth-Bendix style, and either enumerates the
extension sets or reports them infinite together with the complete
system.  Coset enumeration, congruences, orbits, conjugacy classes,
colimits and induced actions are all special cases via the encoders.
"""

from .model import (
    Arrow,
    CompositionError,
    KanPresentation,
    Path,
    PresentationError,
    Term,
    ValidationReport,
    compose_paths,
    format_path,
    format_term,
    list_as_term,
    load_presentation,
    parse_presentation,
    presentation_from_json,
    presentation_to_json,
    term_as_list,
    validate_presentation,
)
from .ordering import OrderSpec, orient_pair, path_sort_key, term_sort_key
from .rewrite import (
    CompletionResult,
    CompletionStatus,
    CriticalPair,
    EpsRule,
    KRule,
    RewriteSystem,
    check_confluence,
    complete,
    find_critical_pairs,
    format_rule,
    format_system,
    initial_rules,
    interreduce,
    reduce_path,
    reduce_term,
    resolves,
    sorted_rules,
)
from .kan import (
    DEFAULT_LIMIT,
    EnumerationStatus,
    KanTables,
    NormalForm,
    act,
    enumerate_extension,
    epsilon,
    naturality_check,
    tau_bar,
)
from .encodings import (
    ActionDesc,
    CosetSystemDesc,
    MonoidPresentationDesc,
    conjugation_action,
    encode_from_json,
    from_action_orbits,
    from_category_presentation,
    from_colimit_diagram,
    from_coset_system,
    from_group_morphism,
    from_monoid_presentation,
    from_relation_quotient,
    from_right_congruence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
