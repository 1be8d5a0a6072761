"""chirplab: chirp-domain multicarrier waveform laboratory.

Discrete affine Fourier transforms, oversampled chirp waveform synthesis,
spectral analysis, aliased-chirp orthogonality, delay-Doppler channels and
matched-filter effective-channel models, plus a CLI experiment harness.
"""

import types as _types

from .transforms import (
    ChirpConfig,
    demodulate,
    idaft_matrix,
    idfnt_matrix,
    modulate,
    ocdm_config,
)
from .waveform import (
    SrrcFilter,
    Waveform,
    add_cpp,
    design_srrc,
    ideal_basis,
    root_chirp,
    shape,
    synth_ideal,
)
from .spectral import (
    PsdCurve,
    analytic_psd,
    empirical_psd,
    occupied_bandwidth,
    prototype_spectrum,
)
from .aliasing import (
    inner_product_matrix,
    predict_aliased,
)
from .channel import (
    DDChannel,
    add_awgn,
    apply_channel,
    make_eva_channels,
)
from .receiver import (
    PathTaps,
    ambiguity_values,
    baseline_taps,
    chirp_domain_from_taps,
    chirp_domain_matrix,
    effective_taps,
    fold_cpp_taps,
    predict_output,
    sample_matched_filter,
    tap_window,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    complexity_compare,
    load_config,
    run_iorel_check,
    run_nmse_sweep,
    run_ortho_experiment,
    run_psd_experiment,
)

__version__ = "0.1.0"

# the public classes and functions; the submodules stay reachable as attributes
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
