"""Privacy-preserving analytics engine for smart-meter interval data.

Subsystems: `meterdata` (fixed-point interval data model), `anonymize`
(pseudonyms, minimum-count aggregation, k-anonymity), `dp` (differential
privacy with budget accounting), `synthetic` (simulation-based load
generation and leakage checks), `fedlearn` (federated averaging with secure
aggregation), `smpc` (additive-secret-sharing secure sums), `he`
(Paillier homomorphic aggregation and billing), `audit` (the hash-chained
audit record format and its verify, standard library only), and `gateway`
(the policy-and-audit chokepoint in front of everything else).

A subsystem is imported on first use (PEP 562), so a command loads only
what it needs: `audit-show` never loads numpy.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "anonymize",
    "audit",
    "dp",
    "fedlearn",
    "gateway",
    "he",
    "meterdata",
    "smpc",
    "synthetic",
    "__version__",
]


def __getattr__(name: str):
    # import_module returns the module sys.modules already holds, so each
    # subsystem stays one module object however it was first imported.
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
