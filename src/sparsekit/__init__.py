"""Inner-product-search data structures and the solvers built on them."""

from .errors import (
    BarrierCollapse,
    BarrierViolation,
    ConfigError,
    DimensionMismatch,
    IsotropyViolation,
    IterationExhausted,
    NoEligibleRemoval,
    NoPositiveEntry,
    NotFound,
    NoWitness,
    NumericalWarning,
    PreconditionViolation,
    SingularGram,
    SparsekitError,
)
from .linalg import (
    EigenDecomposition,
    VectorFamily,
    WeightedSelection,
    check_isotropy,
    whiten,
)
from .psearch import BatchedVectorSearchTree, MatrixSearchTree
from .sketch import SketchEnsemble, TensorSparseSketch, TensorSrhtSketch
from .afn import AfnStructure, DfnStructure
from .minip import (
    MinIpConfig,
    RobustMinIpIndex,
    minip_transform_dataset,
    minip_transform_query,
)
from .aipe import AipeConfig, InnerProductEstimator
from .sparsifier import bss_reference, sparsify_fast, verify_sparsifier
from .kadison_singer import ks_barrier_sequence, ks_query_matrix, ks_select
from .expdesign import b_scores, find_ct, swap_query_matrix, swap_round

__version__ = "0.1.0"
