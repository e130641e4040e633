"""Numerical toolkit for k-Hessian boundary blow-up problems."""

from . import errors
from .barriers import (
    ball_geometry,
    build_barriers,
    certify_barriers,
    certify_upper_barrier_global,
    composite_eigs,
    ellipse_geometry,
    make_barrier_params,
    verify_subsolution,
    verify_supersolution,
)
from .grid2d import Disk, Ellipse, build_grid
from .nonlinearity import Nonlinearity, Weight
from .profiles import (
    ProfileFns,
    assemble_profile,
    build_profile,
    build_weight,
    check_limit_Ff,
    compute_Cf,
    power_law_asymptote,
    predicted_profile,
    xi_bounds,
)
from .radial import (
    RadialProblem,
    RadialSolution,
    asymptotics_report,
    integrate_blowup_ivp,
    shoot_blowup_radius,
    solve_exhaustion_bvp,
    solve_torsion,
)
from .symfunc import (
    ConeReport,
    cone_membership,
    radial_eigenvalues,
    sigma,
    sigma_all,
    sigma_partial,
    sk_radial,
    symmetric_eigenvalues,
)

__version__ = "0.1.0"

# the 2-d solver loads scipy.sparse, so its module is imported on first use
_FD2D = ("asymptotics_report_2d", "exhaust", "solve_dirichlet")


def __getattr__(name):
    if name in _FD2D:
        from . import fd2d

        return getattr(fd2d, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
