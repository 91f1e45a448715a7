"""Grid-based constructions of uniformly bounded solutions of div u = f."""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    Grid,
    ScalarField,
    VectorField,
    cumulative_primitive,
    discrete_divergence,
    forward_gradient,
    integrate,
    mean_zero,
    read_field,
    write_field,
)
from .norms import (  # noqa: F401
    NormKind,
    component_sup_norms,
    lorentz_norm,
    lp_norm,
    morrey_norm,
    sup_norm_vector,
    tv_norm,
    weak_lp_setnorm,
)
from .explicit import (  # noqa: F401
    LineCertificate,
    SplitResult,
    StripDecompositionTrace,
    decompose_weak_l2,
    split_disjoint_2d,
    split_inductive_nd,
    split_onestep_2d,
)
from .variational import (  # noqa: F401
    TABLE1_SETTINGS,
    HierarchyConfig,
    HierarchyTrace,
    SolverReport,
    VariationalConfig,
    helmholtz_solve,
    hierarchical_p1,
    hierarchical_p2,
    minimize_flambda,
    two_step,
)
from .examples import (  # noqa: F401
    ball_field,
    nirenberg_field,
    random_field,
    tatar_pair,
)
