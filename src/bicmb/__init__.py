"""Link-level simulator and analytic toolkit for bit-interleaved coded
multiple beamforming over distributed mmWave massive MIMO channels."""

from .analysis import (BoundReport, GammaFit, diversity_gain, estimate_slope,
                       gamma_fit, pep_bound, sample_theta, union_bound_ber)
from .beamforming import predicted_gains, singular_values
from .bicm import (Constellation, Interleaver, adversarial_interleaver,
                   bit_metrics, check_criteria, deinterleave_metrics,
                   make_constellation, map_frame, random_interleaver,
                   structured_interleaver)
from .channel import (ArrayGeometry, ChannelRealization, FadingProfile,
                      PathSet, db_to_linear, draw_channel, draw_channels,
                      draw_path_sets, draw_paths, linear_to_db,
                      subchannel_matrix, ula_response)
from .coding import (CodeSpec, DistanceSpectrum, Trellis, build_trellis,
                     distance_spectrum, encode, free_distance, viterbi_decode)
from .errors import ConfigurationError, NumericalError
from .harness import (BerCurve, Preset, SimConfig, build_runtime, load_config,
                      parse_config, preset, preset_names, spectrum_stats,
                      sweep)

__version__ = "0.1.0"
