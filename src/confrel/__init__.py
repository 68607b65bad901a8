"""Comparative confidence over finite state spaces.

Checks ordering axioms on explicit relations, classifies numerical
measures by whether their induced orders keep accepted beliefs
deductively closed in every context, closes conditional knowledge bases
under the preferential rules, and decomposes partial orders into
families of complete ones.
"""

from .core import (
    DECOMPOSE_MAX,
    RELATION_MAX,
    Event,
    StateSpace,
    all_events,
    disjoint_pairs,
    disjoint_triples,
    make_space,
    submasks,
)
from .errors import (
    ConfrelError,
    DuplicateState,
    EmptyAntecedent,
    EmptySpace,
    FormulaSyntaxError,
    KindMismatch,
    NotAcceptance,
    ReflexiveAssertion,
    SharedEquivalenceViolated,
    SpaceMismatch,
    StrictAxiomViolation,
    TooLarge,
    UnknownAtom,
    ZeroDenominator,
)
from .logic import AtomUniverse, LabelledSpace, evaluate, parse, to_text
from .relations import (
    AXIOMS,
    ConfidenceRelation,
    Kernel,
    Verdict,
    accepted_set,
    all_acceptance_preorders,
    check_axiom,
    check_closure,
    close_strict_pairs,
    conditional_kernel_characterization,
    is_acceptance,
    is_acceptance_preorder,
    kernel_characterization,
    lift_strict,
    negligibility_chain,
    negligibility_collapse,
    plausible_union_growth,
    strict_order_from_chain,
)
from .measures import (
    CtPlausibility,
    Measure,
    SetFunctionTable,
    brute_force_ct,
    classify_acceptance_belief,
    condition_measure,
    descending_powers_probability,
    evaluate as evaluate_measure,
    induce_relation,
    induce_sup_relation,
    is_big_stepped,
    is_context_tolerant_belief,
    mass,
    parse_rational,
    possibility,
    probability,
    random_mass,
    random_possibility,
    recognize_ct_plausibility,
    relation_from_table,
    table_for,
    uniform_probability,
)
from .preferential import (
    Conditional,
    ConditionalBase,
    Provenance,
    close_p,
    conditional_from_formulas,
    entails,
    make_base,
    roundtrip_check,
    strict_disjoint_pairs,
)
from .representation import (
    ConstrainedRelation,
    Contradiction,
    Family,
    ac_close,
    commit_strict,
    constrain,
    decompose,
    recompose,
)
from .fileio import (
    dump_family,
    dump_kb,
    dump_measure,
    dump_relation,
    load_family,
    load_kb,
    load_measure,
    load_relation,
)

__version__ = "0.1.0"
