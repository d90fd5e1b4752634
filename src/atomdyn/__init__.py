"""atomdyn: operator random walks and averaged channels on atomic vectors."""

__version__ = "0.1.0"

from .atoms import AtomicVector, make_vector, unit_atom, inner, norm, add, scale
from .trig import (
    CesaroQuadratureConfig,
    cesaro_inner_numeric,
    auto_config,
    default_steps,
    modulation_gap_numeric,
    modulation_gap_exact,
)
from .algebra import (
    AlgebraElement,
    Multiplier,
    apply_shift,
    apply_mod,
    shift_overlaps,
    apply_element,
    compose,
    adjoint,
    weyl_residual,
    generator_apply,
    indicator,
    constant,
)
from .rand import (
    Distribution,
    Gaussian,
    Cauchy,
    Rademacher,
    Uniform,
    PointMass,
    FiniteMixture,
    ConvolutionFamily,
    SeededRng,
    random_walk_apply,
    expected_walk_apply,
    chernoff_error,
    distribution_from_json,
)
from .channels import (
    PureState,
    NormalState,
    MixedState,
    AveragedState,
    StateDecomposition,
    evaluate,
    channel_T,
    averaged_T,
    channel_Phi,
    averaged_Phi,
    semigroup_T,
    semigroup_Phi,
    projector_value,
    normality_witness,
    yosida_hewitt_split,
    dephasing_kernel,
    McEstimate,
    QuadratureError,
)
