"""Fine-grained access control over provenance graphs.

The library models provenance DAGs, evaluates an XPath-style query
language over them, names graph partitions, and applies policy-driven
remove/replace transformations that keep the result schema-valid.
"""

from .errors import (
    EvaluationError,
    ExprSyntaxError,
    GraphFormatError,
    InfeasibleConfigError,
    PathLimitError,
    PolicyParseError,
    ProvPolicyError,
    QueryError,
    TransformError,
    UnknownVertexError,
)
from .graph import (
    Direction,
    Edge,
    EdgeLabel,
    ProvenanceGraph,
    Vertex,
    VertexType,
    Violation,
    edge_is_legal,
    induced_edges,
    load_graph,
    save_graph,
    structural_hash,
    to_dot,
    validate_graph,
)
from .pathexpr import (
    AttributeValueTest,
    AttrPred,
    Axis,
    NameTest,
    NodeTest,
    PathExpr,
    PathStep,
    Terminal,
    TypedNameTest,
    TypeTest,
    WildcardTest,
    parse_node_test_text,
    parse_path_expr,
)
from .query import PathMatch, eval_directed_path, eval_general_path, eval_query
from .partition import (
    DirectedPathSpec,
    GeneralPathSpec,
    Partition,
    PartitionSpec,
    SubgraphSpec,
    VerticesSpec,
    parse_partition_expr,
    partition_to_text,
    resolve,
)
from .policy import (
    AccessRequest,
    AttributePredicate,
    CategoryDictionary,
    Category,
    Condition,
    DependencyLabel,
    EdgeMergeTable,
    Effect,
    MergeRule,
    Mode,
    Policy,
    Scope,
    Target,
    Transformation,
    applicable,
    parse_merge_table,
    parse_policy,
    parse_transformation_xml,
    parse_vcd,
    serialize_merge_table,
    serialize_policy,
    serialize_vcd,
)
from .transform import (
    Cluster,
    TransformResult,
    apply_remove,
    apply_replace,
    cluster_category,
    expand_scope,
)
from .evaluator import (
    Decision,
    Outcome,
    PlanStep,
    apply_transformations,
    combine_effects,
    decision_to_dict,
    evaluate,
)
from .bench import (
    ExpressivenessReport,
    GenConfig,
    PartitionVerdict,
    bench_combination,
    expressible_lpac,
    expressible_paclp,
    gen_graphs,
    gen_scenario_policies,
    run_combination,
    run_expressiveness,
    sample_partitions,
)

__version__ = "0.1.0"
