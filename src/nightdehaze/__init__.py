"""Nighttime single-image dehazing: glow removal, transmission estimation,
atmospheric-light estimation, and closed-form radiance recovery, with a
synthetic training-data pipeline and a minimal numpy autodiff engine."""

__version__ = "0.1.0"
