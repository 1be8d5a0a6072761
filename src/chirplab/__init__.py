"""chirplab: chirp-domain multicarrier waveform laboratory.

Discrete affine Fourier transforms, oversampled chirp waveform synthesis,
spectral analysis, aliased-chirp orthogonality, delay-Doppler channels and
matched-filter effective-channel models, plus a CLI experiment harness.
"""

import types as _types

from .transforms import (
    ChirpConfig,
    daft_matrix,
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
    strip_cpp,
    synth_ideal,
)
from .spectral import (
    PsdCurve,
    analytic_psd,
    bandwidth_estimate,
    empirical_psd,
    occupied_bandwidth,
    prototype_spectrum,
)
from .aliasing import (
    AliasedChirpSpec,
    OrthogonalityMatrix,
    ideal_aliased_chirp,
    inner_product_matrix,
    predict_aliased,
    q_index,
)
from .channel import (
    ChannelRealizationSpec,
    DDChannel,
    DDPath,
    add_awgn,
    apply_channel,
    make_eva_channel,
)
from .receiver import (
    build_baseline,
    chirp_domain_from_taps,
    chirp_domain_matrix,
    correlator_receive,
    cross_ambiguity,
    default_lead,
    effective_taps,
    fold_cpp_taps,
    full_lead,
    full_taps,
    matched_filter,
    predict_output,
    required_taps,
    sample_base_rate,
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
