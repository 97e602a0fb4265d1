"""Rotation-equivariant linear operators on tensor fields over regular grids.

Scalar (l=0), vector (l=1), and traceless-symmetric rank-2 (l=2, 3d)
fields; convolutions with radially symmetric kernels R(r) Y_l(rhat);
named differential and Green's-function operators; learnable radial
functions; diffusion-advection simulation and parameter estimation.
"""

from .checks import CheckResult, all_passed, run_checks
from .convolve import DIRECT, FOURIER
from .fields import (FieldError, ProductRule, RuleError, TensorField,
                     components_for, field_norm, l2_basis, l2_from_matrix,
                     matrix_from_l2, pointwise_product, product_rule,
                     rotate_field, rotate_vector, rule_coefficients,
                     supported_rules, unit_harmonic)
from .formats import FormatError, read_eqf, read_keyvalues, write_eqf, write_keyvalues
from .grid import BOUNDARIES, PERIODIC, ZERO, Grid, GridError
from .kernels import (KernelError, KernelField, RadialProfile,
                      delta_stencil, gaussian, gaussian_diffusion,
                      gradient_stencil, inverse_r, inverse_r2, kernel_grid,
                      laplacian_stencil, load_kernel, log_r, named_profile,
                      sample_kernel, save_kernel)
from .learn import (AttentionLayer, EmptyBasisError, FitResult, NeuralOp,
                    NonlinearLayer, ParamRadial, apply_attention, apply_nonlinear,
                    basis_kernels, default_param_radial, fit_gradient_descent,
                    fit_least_squares, grad_params, load_model, loss,
                    make_neural_op, power_profile, save_model)
from .operators import (REGISTRY, EquivariantOp, conv, curl, curl_op, diffusion,
                        diffusion_op, div, div_op, gauss_law, gauss_law_op,
                        grad, grad_op, identity_op, inverse_laplacian,
                        inverse_laplacian_op, laplacian, laplacian_op,
                        make_operator)
from .rotations import LatticeRotation, all_rotations, axis_rotation, rotation_2d
from .sim import (DiffusionAdvectionModel, EstimateResult, EstimationError,
                  SimulationError, StabilityError, estimate_parameters,
                  load_trajectory, max_stable_dt, point_source,
                  save_trajectory, simulate, step_euler, time_derivative)

__version__ = "0.1.0"
