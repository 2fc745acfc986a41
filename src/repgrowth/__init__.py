"""Certified counting of small-dimensional irreducible representations.

Subpackages split along the arithmetic involved: exact root-system,
weight-orbit and partition combinatorics (rootdata, dominance, witness,
partitions), interval certification (intervals), and the certified count
bounds built on both (bounds).
"""

from importlib import import_module

# Served on access (PEP 562), never bound here: importing loads no layer.
_NAMES = {"bounds": ("BoundReport", "n_lambda", "premet_lower", "rn_upper"),
          "dominance": ("HypothesisError", "WitnessChain"),
          "intervals": ("Certificate", "certify_less"),
          "rootdata": ("RootDatum", "root_datum")}
_LAYER_OF = {name: layer for layer, names in _NAMES.items() for name in names}
__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    if name in _NAMES:
        return import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYER_OF, *_NAMES})
