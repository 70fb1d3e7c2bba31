"""lp-regularized least-squares solvers with certified inexactness.

Core API:

* :mod:`lpreg.problem` -- instances, objective, generators, file I/O
* :mod:`lpreg.prox` -- certified coordinate-wise prox, closed form for p = 1/2,
  value-type inexact perturbation, brute-force oracle
* :mod:`lpreg.solvers` -- exact proximal gradient and two certified
  inexact variants
* :mod:`lpreg.optimality` -- local-minimum tests and enumeration
* :mod:`lpreg.analysis` -- trace certification and rate fitting
"""

__version__ = "0.1.0"

from .problem import (  # noqa: F401
    Problem,
    generate_instance,
    gradient_smooth,
    load_problem,
    load_trace,
    objective,
    save_problem,
    save_trace,
    spectral_norm_sq,
)
from .prox import (  # noqa: F401
    ProxQuery,
    ProxResult,
    lower_bound,
    prox_inexact_value,
    prox_oracle,
    prox_scalar,
    prox_scalar_half,
    prox_vector,
)
from .solvers import (  # noqa: F401
    IterationTrace,
    Schedule,
    SolverConfig,
    default_stepsize,
    residual_on_support,
    run_ipga_1p,
    run_ipga_2p,
    run_pga,
)
from .optimality import (  # noqa: F401
    OptimalityReport,
    classify_point,
    enumerate_local_minima,
    equivalence_harness,
    growth_probe,
)
from .analysis import (  # noqa: F401
    RateEstimate,
    certify_h1,
    certify_h2,
    check_geometric_recursion,
    detect_support_identification,
    fit_rate,
)
