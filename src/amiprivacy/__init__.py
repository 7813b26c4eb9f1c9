"""Privacy-preserving analytics engine for smart-meter interval data.

Subsystems: `meterdata` (fixed-point interval data model), `anonymize`
(pseudonyms, minimum-count aggregation, k-anonymity), `dp` (differential
privacy with budget accounting), `synthetic` (simulation-based load
generation and leakage checks), `fedlearn` (federated averaging with secure
aggregation), `smpc` (additive-secret-sharing secure sums), `he`
(Paillier homomorphic aggregation and billing), and `gateway` (the
policy-and-audit chokepoint in front of everything else).
"""

from . import anonymize, dp, fedlearn, gateway, he, meterdata, smpc, synthetic

__version__ = "0.1.0"

__all__ = [
    "anonymize",
    "dp",
    "fedlearn",
    "gateway",
    "he",
    "meterdata",
    "smpc",
    "synthetic",
    "__version__",
]
