"""Counter-based keyed random streams for order-independent noise.

The batched search engine needs a noise source with a property
sequential generators cannot offer: the noise of search *q* must depend
only on its **key** — not on how many searches ran before it, which
thread ran it, or whether it was part of a batch.  That is what makes
scalar, batched, chunked and streamed executions bit-identical (see
:mod:`repro.cam.array`).

This module implements that source as a counter-based RNG:

* a key (tuple of ints) is folded into one 64-bit state with the
  splitmix64 finaliser chain (:func:`fold_key`);
* value ``i`` of the stream is ``finalise(state + i * GOLDEN)`` — the
  textbook splitmix64 construction, vectorised over numpy ``uint64``
  arrays (modular wrap-around is the intended arithmetic);
* uniforms take the top 53 bits; standard normals combine two uniforms
  through the Box-Muller transform, so draw ``j`` is the cos (even
  ``j``) or sin (odd ``j``) output of pair ``j // 2``.  That makes the
  stream **counter-addressable**: :func:`standard_normals` draws either
  a dense prefix or an arbitrary array of stream positions,
  bit-identical either way;
* the 53-bit uniforms bound every normal: ``|z| <= NORMAL_BOUND``
  (~8.5717).  The search pass relies on the bound to skip draws that
  cannot change a decision (see :mod:`repro.cam.array`).

Statistical quality is ample for Monte-Carlo device noise (splitmix64
passes BigCrush), and every draw costs a handful of vectorised ufunc
ops — no per-query ``Generator`` construction.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
#: 2**-53 — maps the top 53 bits of a draw onto [0, 1).
_INV_2_53 = float(2.0 ** -53)


def fold_key(components: "tuple[int, ...]") -> int:
    """Fold a key tuple into one 64-bit stream state.

    Pure-python modular arithmetic (scalar numpy uint64 ops would warn
    on the intended wrap-around).  Each component passes through the
    splitmix64 finaliser so nearby keys land in unrelated states.
    """
    return fold_key_from(_GOLDEN, components)


def fold_key_from(prefix_state: int,
                  components: "tuple[int, ...]") -> int:
    """Continue folding key components onto an existing state.

    ``fold_key_from(fold_key(a), b) == fold_key(a + b)`` — callers
    cache the fold of a constant prefix and append per-query suffixes.
    """
    state = int(prefix_state)
    for component in components:
        state = (state + (int(component) & _MASK) * _GOLDEN) & _MASK
        state = _finalize_int(state)
    return state


def _finalize_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fold_key_block(prefix_state: int, columns: np.ndarray) -> np.ndarray:
    """Fold a block of key suffixes onto one shared prefix state.

    ``prefix_state`` is ``fold_key(prefix)`` for the components every
    key shares; ``columns`` is ``(B,)`` or ``(B, K)`` of non-negative
    ints holding each key's remaining components.  Row ``q`` of the
    result equals ``fold_key(prefix + tuple(columns[q]))`` — the
    vectorised form the batched search path uses so folding ``B`` keys
    costs ``K`` ufunc sweeps instead of ``B`` python loops.
    """
    columns = np.asarray(columns, dtype=np.uint64)
    if columns.ndim == 1:
        columns = columns[:, None]
    states = np.full(columns.shape[0], np.uint64(prefix_state),
                     dtype=np.uint64)
    for k in range(columns.shape[1]):
        states = _finalize(states + columns[:, k] * _U64_GOLDEN)
    return states


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _U64_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U64_MIX2
    return z ^ (z >> np.uint64(31))


def _bits(states: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Raw 64-bit draws for broadcastable (states, counters) blocks."""
    return _finalize(states + counters * _U64_GOLDEN)


def uniforms(states: "np.ndarray | int",
             counters: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draws; entry ``i`` depends only on its counter.

    ``states`` is one folded key (scalar) or a ``(B,)``/broadcastable
    block of folded keys; ``counters`` selects the draw index within
    each stream.
    """
    states = np.asarray(states, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    return (_bits(states, counters) >> np.uint64(11)).astype(float) \
        * _INV_2_53


def _box_muller(states: np.ndarray,
                pairs: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(radius, angle)`` of Box-Muller pair ``pairs`` of each stream.

    Pair ``k`` consumes counters ``2k`` (radius) and ``2k + 1``
    (angle); ``states`` and ``pairs`` broadcast elementwise.
    """
    counters = pairs * np.uint64(2)
    u1 = (_bits(states, counters) >> np.uint64(11)).astype(float)
    u2 = uniforms(states, counters + np.uint64(1))
    # Shift u1 into (0, 1] so log() never sees 0.
    u1 = (u1 + 1.0) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u1)), (2.0 * math.pi) * u2


#: Largest ``|z|`` :func:`standard_normals` can return, ~8.5717: the
#: Box-Muller radius at the smallest shifted uniform ``u1 = 2**-53``
#: (``|cos|, |sin| <= 1`` cannot enlarge it).
NORMAL_BOUND = float(np.sqrt(-2.0 * np.log(_INV_2_53)))


def standard_normals(states: "np.ndarray | int",
                     n: "int | np.ndarray") -> np.ndarray:
    """Standard-normal draws via Box-Muller, dense or by stream position.

    Draw ``j`` of a stream is the cos (even ``j``) or sin (odd ``j``)
    output of Box-Muller pair ``j // 2``.

    * ``n`` an int: the first ``n`` draws of every stream.  ``states``
      of shape ``(B,)`` yields a ``(B, n)`` block whose row ``q`` is
      exactly the block a scalar call with ``states[q]`` would produce
      — the property the scalar/batched equivalence rests on.  Each
      pair's cos and sin are both used, so ``n`` draws cost ``n/2``
      transforms.
    * ``n`` an integer array of stream positions: draw ``n[k]`` of
      stream ``states[k]`` (the two broadcast), bit-identical to that
      entry of the dense block.  Each element evaluates only the trig
      function its parity selects.
    """
    states = np.asarray(states, dtype=np.uint64)
    if np.ndim(n) > 0:
        states, positions = np.broadcast_arrays(
            states, np.asarray(n, dtype=np.uint64))
        radius, angle = _box_muller(states, positions >> np.uint64(1))
        odd = (positions & np.uint64(1)).astype(bool)
        even = ~odd
        result = np.empty(positions.shape, dtype=float)
        result[even] = radius[even] * np.cos(angle[even])
        result[odd] = radius[odd] * np.sin(angle[odd])
        return result
    n_pairs = (n + 1) // 2
    radius, angle = _box_muller(states.reshape(states.shape + (1,)),
                                np.arange(n_pairs, dtype=np.uint64))
    result = np.empty(states.shape + (2 * n_pairs,), dtype=float)
    result[..., 0::2] = radius * np.cos(angle)
    result[..., 1::2] = radius * np.sin(angle)
    return result[..., :n]
