"""Random systematic linear codes: sampling, analysis, decoding, experiments."""

__version__ = "0.2.0"

from .channel import Bec, BpskAwgn, Bsc, capacity, llr, transmit  # noqa: F401
from .decode import BpConfig, bp_decode, hard_decision  # noqa: F401
from .ensemble import (  # noqa: F401
    BpcCode,
    SystematicCode,
    encode,
    rho_omega,
    sample_bgm,
    sample_bpc,
)
from .rng import make_rng  # noqa: F401
