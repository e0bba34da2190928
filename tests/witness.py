"""The joint energy of one configuration, written out term by term.

The references the tests compare against (brute-force free energies,
loop partition functions, Boltzmann weights) start from this
per-configuration E(v, h). rbmkit has no use for it: its closed forms sum
a layer out, and the oracle's joint table takes -E of every state in one
vectorized pass, which these references check.
"""

import numpy as np

from rbmkit import BINARY


def energy(p, v, h) -> float:
    """E(v, h) of one configuration: -v.W.h - a.v - b.h for binary
    visibles, sum_i (v_i - a_i)^2 / 2 - v.W.h - b.h for Gaussian ones.
    ValueError when v or h does not match the model's layer sizes."""
    v = np.asarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if v.shape[-1] != p.n_visible:
        raise ValueError(f"visible length {v.shape[-1]} != {p.n_visible}")
    if h.shape[-1] != p.n_hidden:
        raise ValueError(f"hidden length {h.shape[-1]} != {p.n_hidden}")
    interaction = v @ p.w @ h
    if p.visible_kind == BINARY:
        return float(-interaction - p.a @ v - p.b @ h)
    return float(0.5 * np.sum((v - p.a) ** 2) - interaction - p.b @ h)
