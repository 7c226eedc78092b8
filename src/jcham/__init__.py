"""jcham: a join-calculus workbench for modelling self-replicating programs.

Parse and execute join-calculus programs on a chemical abstract machine,
assemble system-environment templates (services, resources, file systems,
kernels), generate parametric virus/worm/rootkit processes, decide or
semi-decide self-replication, and analyse containment policies.
"""

from .syntax import (  # noqa: F401
    Atom,
    CallPat,
    Concat,
    Conditional,
    Conj,
    Definition,
    ExprDef,
    Expression,
    Hole,
    Let,
    Lit,
    LocalDef,
    Message,
    MsgPat,
    Name,
    NameRef,
    NameSets,
    Null,
    Pair,
    Parallel,
    PatJoin,
    Process,
    Proj,
    Return,
    Rule,
    Sequence,
    SyncCall,
    Top,
    free_names,
    name_sets,
    par,
    pretty,
    substitute,
    subterms,
)
from .parser import ParseError, parse, parse_definition  # noqa: F401
from .desugar import DesugarError, FragmentReport, check_core_fragment, desugar  # noqa: F401
from .engine import (  # noqa: F401
    BudgetExhausted,
    GroundMessage,
    ModelError,
    Redex,
    Soup,
    StaleRedex,
    Trace,
    barb,
    enabled_redexes,
    graft,
    inject,
    inject_message,
    is_inert,
    reduce,
    run,
    search,
    settle,
    valued_reaction,
)
from .canon import CanonicalForm, canonicalize, congruent  # noqa: F401
from .contexts import (  # noqa: F401
    Context,
    ContextError,
    ResourceSpec,
    TokenGuard,
    base_context,
    load_context,
    plug,
    refined_context,
    rootkit_kernel,
    save_context,
    worm_topology,
)
from .filesystem import exec_hierarchy, file_system  # noqa: F401
from .malware import (  # noqa: F401
    MalwareSpec,
    ReplicationMech,
    TargetRoutine,
    abstraction_channel,
    build_rootkit,
    build_virus,
    build_worm,
    loadable_driver,
    replication_process,
    token_aware_overwrite,
)
from .detector import (  # noqa: F401
    DetectionVerdict,
    ExplosionGuard,
    FragmentViolation,
    GroundSystem,
    InvalidActivation,
    detect_via_coverability,
    explore,
    ground,
    to_petri,
    viral_set_member,
)
from .petri import Marking, PetriNet, Transition, coverable, parse_net  # noqa: F401
from .policy import (  # noqa: F401
    InfectingTest,
    IsolationReport,
    NonInfectionVerdict,
    UnstableContext,
    add_token_distributor,
    classify_context,
    enforcement_sound,
    non_infection_test,
    token_leak_free,
    tokenize_context,
)

__version__ = "0.1.0"
