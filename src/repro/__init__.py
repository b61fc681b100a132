"""Reproduction of *APEx: Accuracy-Aware Differentially Private Data Exploration*.

APEx (Ge, He, Ilyas, Machanavajjhala -- SIGMOD 2019) lets a data analyst
explore a sensitive table by posing aggregate queries annotated with accuracy
requirements; the system picks, per query, the differentially private
mechanism that meets the accuracy bound with the least privacy loss, and
guarantees the whole interaction stays within an owner-specified budget.

Quickstart::

    import repro

    table = repro.generate_adult(seed=0)
    engine = repro.APExEngine(table, budget=1.0, seed=0)

    result = engine.explore_text(
        'BIN D ON COUNT(*) WHERE W = {'
        '  capital_gain BETWEEN 0 AND 1000,'
        '  capital_gain BETWEEN 1000 AND 2000'
        '} ERROR 500 CONFIDENCE 0.9995;'
    )
    print(result.mechanism, result.epsilon_spent, result.answer)

Public surface:

* engine & accounting -- :class:`APExEngine`, :class:`AccuracySpec`,
  :class:`SelectionMode`, :class:`PrivacyLedger`, :class:`Transcript`
* query language -- :func:`parse_query`, :class:`Workload`, query classes and
  the workload builders
* mechanisms -- the paper's suite, plus :func:`default_registry`
* data substrates -- synthetic Adult / NYTaxi / citation-pair generators
* entity resolution case study -- :mod:`repro.er`
* paper-figure benchmark harness -- :mod:`repro.bench` (the end-to-end
  performance benchmark is ``perfbench/``, outside the package)
* concurrent multi-analyst service -- :class:`ExplorationService` and
  :class:`BudgetPolicy` (see :mod:`repro.service`; ``python -m repro.service``
  replays a scripted multi-analyst workload)
"""

from repro.core import (
    APExEngine,
    AccuracySpec,
    AccuracyTranslator,
    ApexError,
    BudgetExceededError,
    ExplorationResult,
    MechanismChoice,
    PrivacyLedger,
    SelectionMode,
    Transcript,
    TranscriptEntry,
)
from repro.data import (
    Table,
    TableSnapshot,
    Schema,
    Attribute,
    CategoricalDomain,
    NumericDomain,
    TextDomain,
    generate_adult,
    generate_nytaxi,
    generate_citation_pairs,
    pairs_to_table,
    ADULT_SCHEMA,
    NYTAXI_SCHEMA,
    CITATION_PAIR_SCHEMA,
)
from repro.mechanisms import (
    LaplaceMechanism,
    LaplaceTopKMechanism,
    Mechanism,
    MechanismRegistry,
    MechanismResult,
    MultiPokingMechanism,
    IcebergStrategyMechanism,
    StrategyMechanism,
    TranslationResult,
    default_registry,
)
from repro.extensions import AnalystSession, CostRecommendation, recommend_costs
from repro.service import BudgetPolicy, ExplorationService
from repro.queries import (
    IcebergCountingQuery,
    Query,
    QueryKind,
    TopKCountingQuery,
    Workload,
    WorkloadCountingQuery,
    WorkloadMatrix,
    cumulative_histogram_workload,
    histogram_workload,
    marginal_workload,
    parse_predicate,
    parse_query,
    point_workload,
    prefix_workload,
    range_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "APExEngine",
    "ExplorationResult",
    "AccuracySpec",
    "AccuracyTranslator",
    "MechanismChoice",
    "SelectionMode",
    "PrivacyLedger",
    "Transcript",
    "TranscriptEntry",
    "ApexError",
    "BudgetExceededError",
    # data
    "Table",
    "TableSnapshot",
    "Schema",
    "Attribute",
    "CategoricalDomain",
    "NumericDomain",
    "TextDomain",
    "generate_adult",
    "generate_nytaxi",
    "generate_citation_pairs",
    "pairs_to_table",
    "ADULT_SCHEMA",
    "NYTAXI_SCHEMA",
    "CITATION_PAIR_SCHEMA",
    # queries
    "Query",
    "QueryKind",
    "WorkloadCountingQuery",
    "IcebergCountingQuery",
    "TopKCountingQuery",
    "Workload",
    "WorkloadMatrix",
    "parse_query",
    "parse_predicate",
    "histogram_workload",
    "cumulative_histogram_workload",
    "prefix_workload",
    "range_workload",
    "point_workload",
    "marginal_workload",
    # mechanisms
    "Mechanism",
    "MechanismResult",
    "TranslationResult",
    "MechanismRegistry",
    "default_registry",
    "LaplaceMechanism",
    "StrategyMechanism",
    "IcebergStrategyMechanism",
    "MultiPokingMechanism",
    "LaplaceTopKMechanism",
    # extensions
    "AnalystSession",
    "CostRecommendation",
    "recommend_costs",
    # service
    "BudgetPolicy",
    "ExplorationService",
]
