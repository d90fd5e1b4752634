"""atomdyn: operator random walks and averaged channels on atomic vectors.

``import atomdyn`` loads no module: a public name imports its module on
first access (PEP 562) and is then cached in this namespace.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "atoms": "AtomicVector make_vector unit_atom inner norm add scale apply_mod",
    "trig": "cesaro_inner modulation_gap_exact",
    "algebra": "AlgebraElement Multiplier apply_shift shift_overlaps apply_element compose "
               "adjoint weyl_residual generator_apply indicator constant",
    "rand": "Distribution Gaussian Cauchy Rademacher Uniform PointMass FiniteMixture "
            "ConvolutionFamily SeededRng random_walk_apply expected_walk_apply "
            "chernoff_error distribution_from_json McEstimate",
    "channels": "PureState NormalState MixedState AveragedState evaluate "
                "channel_T averaged_T averaged_Phi semigroup_T semigroup_Phi "
                "projector_value normality_witness yosida_hewitt_split dephasing_kernel "
                "QuadratureError",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
