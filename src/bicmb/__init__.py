"""Link-level simulator and analytic toolkit for bit-interleaved coded
multiple beamforming over distributed mmWave massive MIMO channels.

The package re-exports nothing: import each name from its module."""

__version__ = "0.1.0"
