"""Deterministic child-seed derivation.

Pipelines need one master seed that fans out into independent streams, one
per purpose ("simulate", "fold 3 of lambda 1e-4", ...), such that adding a
new stage never perturbs the streams of existing stages.  We derive child
seeds by hashing the purpose tag with FNV-1a and mixing it into the master
seed with a splitmix64 finalizer.  The derivation is a pure function of
(master_seed, tag), stable across runs, platforms, and process counts.
"""

from __future__ import annotations

__all__ = ["derive_seed"]

_MASK = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master_seed: int, tag: str) -> int:
    """Derive a 63-bit child seed from a master seed and a purpose tag.

    Distinct tags yield statistically independent child seeds under the
    same master seed; the same (master_seed, tag) pair always yields the
    same child.  The result is nonnegative and fits in a signed 64-bit
    integer so it can be handed to any RNG constructor.
    """
    if not isinstance(master_seed, int):
        raise ValueError("master_seed must be an integer")
    mixed = (master_seed & _MASK) ^ _fnv1a64(tag.encode("utf-8"))
    return _splitmix64(mixed) >> 1
