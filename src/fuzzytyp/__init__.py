"""fuzzytyp: a workbench for fuzzy ALC with a typicality operator.

Everything is computed in exact rational arithmetic so that strict
degree comparisons (the whole point of induced preferences and
faithfulness) never depend on floating-point rounding.
"""

from fuzzytyp.algebra import LogicFamily, as_degree, implication, negation, snorm, tnorm
from fuzzytyp.syntax import (
    And,
    Atomic,
    Bottom,
    Cmp,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    FuzzyAxiom,
    Inclusion,
    KBError,
    KBSyntaxError,
    NestedTypicalityError,
    Not,
    Or,
    RoleAssertion,
    ThresholdRangeError,
    Top,
    Typ,
    UndeclaredNameError,
    WeightedKB,
    WeightedTypicalityInclusion,
    validate_kb,
)
from fuzzytyp.parser import (
    parse_axiom,
    parse_concept,
    parse_interpretation,
    parse_kb,
    serialize_interpretation,
    serialize_kb,
)
from fuzzytyp.interpretation import (
    FuzzyInterpretation,
    axiom_degree,
    eval_concept,
    is_model_strict,
    satisfies,
    typical_elements,
)
from fuzzytyp.weighted import (
    NEG_INF,
    is_coherent,
    is_faithful,
    is_fm_model,
    weight,
    weight_table,
)
from fuzzytyp.engine import (
    EnumSignature,
    NoCountermodel,
    Refuted,
    SearchConfig,
    check_entailment_bounded,
    check_validity_bounded,
    count_interpretations,
    enumerate_interpretations,
    random_interpretation,
)
from fuzzytyp.postulates import (
    POSTULATES,
    check_instance,
    search_counterexample,
    valid_premise_catalog,
)
from fuzzytyp.mlp import (
    Activation,
    FeedForwardNet,
    StimulusSet,
    Synapse,
    Unit,
    build_interpretation,
    mlp_to_kb,
    parse_net,
    parse_stimuli,
    verify_network_faithfulness,
)

__version__ = "0.1.0"
