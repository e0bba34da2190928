"""Negative-phase estimators: CD-k, persistent chains, and persistent
chains filtered by free energy.

Every estimator advances its chains through one batched kernel,
gibbs_chain, which takes each sweep's random draws from its caller. CD-k
draws them from one shared stream. The persistent estimators keep a pool
of fantasy particles, one Gibbs chain per row, each owning a private
RngStream: chain c's draws come only from its own stream and land only in
its own row, so the draws a chain sees do not depend on how many chains
share its pool. Its arithmetic may: a one-row and a many-row matrix
product can round differently, so a chain's probabilities run alone and
in a pool can differ in the last bits (up to about 1e-15 at 794x64),
and a draw landing on such a gap could flip a state. Statistics are
reduced over the assembled matrices in fixed index order.

A binary pool draws each chain's uniforms a block of sweeps at a time
(NOISE_BLOCK_BYTES, and at least NOISE_MIN_SWEEPS sweeps), each chain's
straight into its row of the block, and hands out one sweep's slice per
call, so its streams may run up to one block ahead of what the pool has
used. A stream's SFC64 generator gives the same doubles whatever widths
they are drawn in, so every chain sees the same sequence as with one call
per sweep. Gaussian pools draw each chain's model.visible_noise per sweep:
normals consume a variable number of raw outputs, so they cannot be drawn
ahead without changing the draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, sigmoid
from .model import (BINARY, RbmParams, batch_stats, free_energy, hidden_input,
                    hidden_probs, sample_visible, visible_noise)

CHAIN_STREAM_BASE = 100

# Uniforms a binary pool draws per refill. The cost of a draw on a small
# model is the Python-level generator call per chain, not generating the
# numbers: a 3x3 pool of 16 chains needs 768 bytes a sweep, so one block
# serves 85 sweeps, and a 12x8 pool of 20 chains 20 sweeps. At 64 KiB that
# one call serves tens of sweeps on small pools, and the block stays small
# next to a core's L2 cache.
NOISE_BLOCK_BYTES = 64 * 1024
# Fewest sweeps a refill draws. A 794-wide pool of 20 or more chains needs
# more than NOISE_BLOCK_BYTES for one sweep (137 KB at 20 x 858 uniforms),
# and there the per-call cost still shows: noise per 794-wide sweep at 24
# chains took 89-100 us drawn one sweep per call, 65-75 us at 2 sweeps,
# 56-71 us at 4 and 54-67 us at 8; at 72 chains 271-286, 206-249, 178-202
# and 165-287 us (2 vCPUs, numpy 2.4.6, SFC64 at about 2 ns a double).
# 4 is the knee; the largest block, 72 chains x 4 x 858 uniforms, is
# 2 MB. Small pools already draw more.
NOISE_MIN_SWEEPS = 4

__all__ = [
    "CHAIN_STREAM_BASE",
    "NOISE_BLOCK_BYTES",
    "NOISE_MIN_SWEEPS",
    "ChainPool",
    "make_pool",
    "gibbs_chain",
    "gibbs_step",
    "cd_k",
    "pcd_step",
    "select_elite",
    "fepcd_step",
]


@dataclass
class ChainPool:
    """Persistent fantasy-particle states plus their private streams.

    A binary pool keeps the uniforms it has drawn but not yet used, one
    row per chain, and the next draw continues from them; so streams may
    run up to one block ahead of the pool.
    """

    states: np.ndarray
    streams: list = field(repr=False, default_factory=list)

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        if self.states.shape[0] < 1:
            raise ValueError("a chain pool needs at least one chain")
        if len(self.streams) != self.states.shape[0]:
            raise ValueError("one RngStream per chain required")
        # drawn uniforms, one row per chain; columns before _cursor are used
        self._block = np.empty((self.states.shape[0], 0))
        self._cursor = 0

    @property
    def n_chains(self) -> int:
        return self.states.shape[0]

    def noise(self, p: RbmParams):
        """Per-sweep draws for gibbs_chain in which row c comes only from
        chain c's stream: uniforms(n_hidden + n_visible) per chain for
        binary visibles, sliced from the pool's block and refilled a block
        of at least NOISE_MIN_SWEEPS sweeps at a time; uniforms(n_hidden)
        then normals(n_visible) per chain and sweep for Gaussian ones,
        which a pool still holding unused uniforms refuses with ValueError
        rather than skip them."""
        n_h, n_v = p.n_hidden, p.n_visible
        # normals take a variable number of raw outputs, so only uniforms draw ahead
        if p.visible_kind == BINARY:
            width = n_h + n_v
            # 8 bytes per float64 uniform
            sweeps = max(NOISE_MIN_SWEEPS,
                         NOISE_BLOCK_BYTES // (8 * self.n_chains * width))

            def draw():
                start = self._cursor
                if self._block.shape[1] - start < width:
                    self._refill(sweeps * width)
                    start = 0
                self._cursor = start + width
                u = self._block[:, start:start + width]
                return u[:, :n_h], u[:, n_h:]
        else:
            def draw():
                if self._cursor < self._block.shape[1]:
                    raise ValueError("the pool holds unused uniforms; a Gaussian "
                                     "draw would skip them")
                u_h = np.stack([s.uniforms(n_h) for s in self.streams])
                return u_h, np.stack([visible_noise(p, s, n_v) for s in self.streams])
        return draw

    def _refill(self, n: int):
        """Draw n more uniforms per chain after the unused ones, each
        chain's straight into its row of one new block."""
        rest = self._block.shape[1] - self._cursor
        block = np.empty((self.n_chains, rest + n))
        block[:, :rest] = self._block[:, self._cursor:]
        for row, stream in zip(block, self.streams):
            stream.uniforms(n, out=row[rest:])
        self._block = block
        self._cursor = 0


def make_pool(init_states: np.ndarray, n_chains: int, seed: int) -> ChainPool:
    """Pool of n_chains chains seeded from the given states.

    Rows are recycled if fewer than n_chains are supplied. Chain c draws
    from stream_id CHAIN_STREAM_BASE + c for the pool's whole lifetime.
    """
    init_states = np.atleast_2d(np.asarray(init_states, dtype=np.float64))
    if init_states.shape[0] == 0:
        raise ValueError("need at least one initial state")
    rows = np.resize(init_states, (n_chains, init_states.shape[1]))
    streams = [RngStream(seed, CHAIN_STREAM_BASE + c) for c in range(n_chains)]
    return ChainPool(states=rows.copy(), streams=streams)


def gibbs_chain(p: RbmParams, v, k: int, noise, ph=None):
    """Advance every row of v through k full Gibbs sweeps, all rows at once.

    noise() is called once per sweep and returns that sweep's draws
    (u_h, e_v): uniforms shaped like the hidden layer, then
    model.visible_noise's draws shaped like v, from which
    model.sample_visible draws the new v. Supplying the draws lets every
    caller keep its own stream layout while sharing this one kernel. ph,
    when given, must be hidden_probs(p, v); the first sweep then starts
    from it instead of recomputing it. Each later sweep reuses the
    probabilities computed at the end of the previous one.

    Returns (v, ph, h_input): the final visible state, its hidden
    activation probabilities (what negative-phase statistics average) and
    its hidden input hidden_input(p, v), which free_energy and
    select_elite accept so the final v @ w + b is computed once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if ph is None:
        ph = hidden_probs(p, v)
    for _ in range(k):
        u_h, e_v = noise()
        v = sample_visible(p, (u_h < ph).astype(np.float64), e_v)
        x = hidden_input(p, v)
        ph = sigmoid(x)
    return v, ph, x


def gibbs_step(p: RbmParams, v, rng: RngStream, ph=None):
    """One full Gibbs sweep: sample h given v, then v' given h.

    Works on a single vector or a batch of rows (one shared stream; draws
    are consumed row-major, hidden block first). ph, when given, must be
    hidden_probs(p, v) and is reused as in gibbs_chain. Returns the new
    visible state and the hidden activation probabilities of that new
    state.
    """
    v = np.asarray(v, dtype=np.float64)
    h_shape = v.shape[:-1] + (p.n_hidden,)
    return gibbs_chain(p, v, 1, lambda: (rng.uniforms(h_shape),
                                         visible_noise(p, rng, v.shape)), ph)[:2]


def cd_k(p: RbmParams, data_batch: np.ndarray, k: int, rng: RngStream):
    """Contrastive divergence with k Gibbs steps started from the data.

    Positive statistics pair the data with its hidden probabilities; the
    negative side pairs the k-step reconstruction with the hidden
    probabilities at the final step. Those positive-phase probabilities
    start the first sweep, and each sweep's returned probabilities start
    the next.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    data_batch = np.atleast_2d(np.asarray(data_batch, dtype=np.float64))
    if data_batch.shape[0] == 0:
        raise ValueError("empty batch")
    q = hidden_probs(p, data_batch)
    pos = batch_stats(data_batch, q)
    v = data_batch
    for _ in range(k):
        v, q = gibbs_step(p, v, rng, q)
    return pos, batch_stats(v, q)


def pcd_step(p: RbmParams, pool: ChainPool, k: int):
    """Advance the persistent chains k steps and average all of them.

    The pool is updated in place and also returned.
    """
    new_states, new_q, _ = gibbs_chain(p, pool.states, k, pool.noise(p))
    neg = batch_stats(new_states, new_q)
    pool.states = new_states
    return neg, pool


def select_elite(p: RbmParams, states: np.ndarray, elite_fraction: float,
                 h_input=None) -> np.ndarray:
    """Indices of the ceil(fraction * n) rows with lowest free energy.

    Lower free energy means higher model probability, so these are the
    rows most representative of the model distribution. Returned ordered
    by (free energy, row index); ties break toward the lower index.
    h_input, when given, must be hidden_input(p, states); free_energy
    reuses it.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[0] == 0:
        raise ValueError("no states to select from")
    if not (0.0 < elite_fraction <= 1.0):
        raise ValueError("elite_fraction must be in (0, 1]")
    n_elite = int(np.ceil(elite_fraction * states.shape[0]))
    f = free_energy(p, states, h_input)
    order = np.argsort(f, kind="stable")
    return order[:n_elite]


def fepcd_step(p: RbmParams, pool: ChainPool, k: int, elite_fraction: float):
    """Persistent-chain step whose statistics use only the elite chains.

    All chains advance and persist exactly as in pcd_step; the free energy
    of each post-step state then decides which chains contribute to the
    negative statistics. With elite_fraction == 1 this is bit-identical to
    pcd_step. The ranking reuses the hidden input gibbs_chain computed for
    the post-step states.
    """
    new_states, new_q, new_input = gibbs_chain(p, pool.states, k, pool.noise(p))
    elite = np.sort(select_elite(p, new_states, elite_fraction, new_input))
    neg = batch_stats(new_states[elite], new_q[elite])
    pool.states = new_states
    return neg, pool
