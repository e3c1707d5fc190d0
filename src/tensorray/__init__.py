"""Ray transform of 2D symmetric tensor fields.

Forward line-integral transform of rank-m symmetric tensor fields, Fourier
slice identities in two normalization conventions, weighted Sobolev norms on
fields and sinograms with an isometry check, constructive inversion on
solenoidal fields, and moment-condition range tests — all on desk-scale
grids with pinned tolerances.
"""

from .fields import (
    TensorField2D,
    component_spectrum_polar,
    field_l2_norm,
    gaussian_test_field,
    random_solenoidal_field,
    relative_divergence_residual,
    relative_l2_error,
    solenoidal_project,
    tensor_weights,
)
from .grids import (
    CartesianGrid,
    PolarFrequencyGrid,
    fourier_transform_2d,
    polar_sample,
)
from .inversion import (
    MomentOrder,
    MomentReport,
    RangeDataWarning,
    check_moment_conditions,
    invert,
    invert_coefficient_route,
)
from .io import (
    FileFormatError,
    export_csv,
    read_field,
    read_sinogram,
    write_field,
    write_sinogram,
)
from .norms import (
    SobolevParams,
    TruncationWarning,
    field_norm,
    reshetnyak_check,
    reshetnyak_ratios,
    sinogram_norm,
)
from .ray import Sinogram, forward, parity_residual
from .slices import (
    CONVENTIONS,
    SlicePair,
    fst_coefficient_residual,
    fst_scalar_residual,
    fst_solenoidal_residual,
    measure_slice_constant,
    slice_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CONVENTIONS",
    "CartesianGrid",
    "FileFormatError",
    "MomentOrder",
    "MomentReport",
    "PolarFrequencyGrid",
    "RangeDataWarning",
    "Sinogram",
    "SlicePair",
    "SobolevParams",
    "TensorField2D",
    "TruncationWarning",
    "check_moment_conditions",
    "component_spectrum_polar",
    "export_csv",
    "field_l2_norm",
    "field_norm",
    "forward",
    "fourier_transform_2d",
    "fst_coefficient_residual",
    "fst_scalar_residual",
    "fst_solenoidal_residual",
    "gaussian_test_field",
    "invert",
    "invert_coefficient_route",
    "measure_slice_constant",
    "parity_residual",
    "polar_sample",
    "random_solenoidal_field",
    "read_field",
    "read_sinogram",
    "relative_divergence_residual",
    "relative_l2_error",
    "reshetnyak_check",
    "reshetnyak_ratios",
    "sinogram_norm",
    "slice_pair",
    "solenoidal_project",
    "tensor_weights",
    "write_field",
    "write_sinogram",
]
