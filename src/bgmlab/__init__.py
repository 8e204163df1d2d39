"""Random systematic linear codes: sampling, analysis, decoding, experiments."""

__version__ = "0.2.0"
