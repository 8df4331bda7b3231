"""Softmax and mixed-logit policies.

A softmax policy keeps one weight vector per action plus a bias per action
(the joint feature map is one-hot(action) ⊗ context, so the weight matrix is
k×d and a context's norm bounds the joint feature norm).  A mixed-logit
policy draws the weight matrix from an isotropic Gaussian centered at a mean
policy; its action probabilities are expectations of softmax probabilities
over that draw and have no closed form, so this module provides a Monte
Carlo estimator and an analytic probability sandwich.

An action distribution is represented as a plain length-k float64 ndarray on
the probability simplex.

Conventions used throughout: biases enter logits and sampling but are
excluded from parameter norms, distances, and the Gaussian spread; argmax
ties break toward the lowest action index.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ._jobs import prefetched

__all__ = [
    "SoftmaxPolicy",
    "MixedLogitSpec",
    "ModelFile",
    "zero_policy",
    "action_probs",
    "action_prob_matrix",
    "mixed_logit_prob_mc",
    "mixed_logit_prob_bounds",
    "param_distance_sq",
    "save_model",
    "load_model",
]

# Uniform variates are clamped into [_U_LO, _U_HI] before the double-log
# transform so Gumbel noise stays finite.
_U_LO = np.finfo(np.float64).tiny
_U_HI = np.nextafter(1.0, 0.0)

# Rows of normals that mixed_logit_prob_mc draws and pushes through the
# softmax at a time: an (8192, k) block stays in cache where whole
# (samples, k) arrays do not.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class SoftmaxPolicy:
    """Linear softmax policy with per-action weight rows and biases.

    ``weights`` has shape (k, d) and ``biases`` shape (k,).  Instances are
    immutable: its arrays are read-only, and a writeable array given to the
    constructor is copied first (see :func:`_frozen`), so a policy can be
    shared freely across threads.
    """

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self) -> None:
        w = _frozen(self.weights, np.float64)
        b = _frozen(self.biases, np.float64)
        if w.ndim != 2:
            raise ValueError("weights must be a 2-D (k, d) array")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ValueError("biases must be a 1-D array of length k")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(b)):
            raise ValueError("policy parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    def logits(self, x: np.ndarray) -> np.ndarray:
        """The forward pass x·Wᵀ + b, for one context (d,) or a matrix of
        them (n, d); the one place it is written."""
        return x @ self.weights.T + self.biases


def _frozen(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only ``dtype`` array.  A read-only array of that
    dtype that owns its memory, such as one the CSV reader hands over, is
    taken as it is; anything else, a caller's writeable array included, is
    copied."""
    if (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.flags.owndata and not arr.flags.writeable):
        return arr
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def zero_policy(d: int, k: int) -> SoftmaxPolicy:
    """Policy with all-zero parameters (uniform action distribution)."""
    return SoftmaxPolicy(np.zeros((k, d)), np.zeros(k))


@dataclass(frozen=True)
class MixedLogitSpec:
    """Gaussian-weight softmax policy together with its prior.

    The weight matrix is distributed N(mean.weights, variance·I); the prior
    is N(prior_mean.weights, prior_variance·I).  Biases are deterministic
    and excluded from the Gaussian.  ``variance == 0`` is the degenerate
    point mass and is accepted here; operations that need a proper density
    (KL terms) reject it at their own boundary.
    """

    mean: SoftmaxPolicy
    variance: float
    prior_mean: SoftmaxPolicy
    prior_variance: float

    def __post_init__(self) -> None:
        _check_dims(self.prior_mean, self.mean, "prior_mean")
        v, pv = self.variance, self.prior_variance
        _check_positive("prior_variance", pv)
        # A finite bound above makes a NaN or infinite variance fail here too.
        if not (0.0 <= v <= pv):
            raise ValueError(f"variance {v} must lie in [0, prior_variance {pv}]")


def _check_dims(policy: SoftmaxPolicy, other, name: str = "policy") -> None:
    """The one shape rule: reject ``policy`` unless its action and feature
    counts (k, d) are those of ``other``, a dataset, a task or a policy."""
    if (policy.k, policy.d) != (other.k, other.d):
        raise ValueError(f"{name} has k={policy.k}, d={policy.d}, "
                         f"expected k={other.k}, d={other.d}")


def _distance_sq(W: np.ndarray, W0: Optional[np.ndarray]) -> float:
    """‖W − W0‖², or ‖W‖² when ``W0`` is None."""
    diff = W if W0 is None else W - W0
    return float(np.sum(diff * diff))


# The one check of each kind of numeric input, which every public function
# calls instead of comparing on its own.  NaN fails every comparison here.


def _check_level(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _check_count(
    name: str, value: int, minimum: int, maximum: Optional[int] = None
) -> None:
    """An integer in [minimum, maximum]: a count, or a seed (minimum 0)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not value >= minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    if maximum is not None and not value <= maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value}")


def _check_norm_bound(name: str, bound: float, norm: float) -> None:
    """A finite bound on ``norm``, with 1e-12 relative slack so that bounds
    recomputed from serialized norms pass."""
    if not norm * (1.0 - 1e-12) <= bound < np.inf:
        raise ValueError(f"{name} must be finite and cover the norm {norm}, got {bound}")


def _feature_matrix(name: str, values, d: Optional[int] = None) -> np.ndarray:
    """The one context-matrix check: ``values`` frozen as a nonempty (n, d)
    float64 matrix of finite values, with ``d`` columns when ``d`` is given."""
    X = _frozen(values, np.float64)
    if X.ndim != 2 or X.size == 0 or d not in (None, X.shape[1]):
        width = "d" if d is None else d
        raise ValueError(f"{name} must be a nonempty (n, {width}) array")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} must be finite")
    return X


def _max_row_norm(X: np.ndarray) -> float:
    """max_i ‖X_i‖, the default feature-norm bound; rescaled by the largest
    entry only when the squares overflow, so all else keeps its bits."""
    with np.errstate(over="ignore"):
        norm = float(np.sqrt((X * X).sum(axis=1).max()))
    if norm == np.inf:
        scale = float(np.abs(X).max())
        return scale * _max_row_norm(X / scale)
    return norm


def _context_norm(x: np.ndarray) -> float:
    """‖x‖ with the bits of ``np.linalg.norm`` wherever that is finite;
    rescaled by the largest entry only when the square overflows, as in
    :func:`_max_row_norm`."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if norm == np.inf:
        scale = float(np.abs(x).max())
        return scale * float(np.linalg.norm(x / scale))
    return norm


def _validate_context(
    policy: SoftmaxPolicy, x: np.ndarray, a: Optional[int] = None
) -> np.ndarray:
    """``x`` as a finite length-d context, for an action index ``a`` in [0, k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (policy.d,):
        raise ValueError(
            f"context has shape {x.shape}, policy expects ({policy.d},)"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("context features must be finite")
    if a is not None and not 0 <= a < policy.k:
        raise ValueError(f"a must lie in [0, {policy.k}), got {a}")
    return x


def _row_sum(e: np.ndarray) -> np.ndarray:
    """Sum over the first axis of ``e`` (k, m), in a new length-m array, by
    k − 1 vector adds in the order numpy sums a contiguous row of length k
    (its pairwise summation): in sequence below 8 terms; up to 128 terms,
    eight running sums r0..r7 over strides of 8, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remainder
    in sequence; above 128 terms, the sums of the two parts split at k/2
    rounded down to a multiple of 8.  So each column sum has the bits of
    ``e.T.sum(axis=-1)`` on a row-major copy."""
    k = e.shape[0]
    if k > 128:
        half = k // 2 - k // 2 % 8
        out = _row_sum(e[:half])
        out += _row_sum(e[half:])
        return out
    if k < 8:
        stop, out = 1, e[0].copy()
    else:
        stop = k - k % 8
        r = e[:8]
        if stop > 8:  # a reduction over the leading axis adds in sequence
            r = np.add.reduce(e[:stop].reshape(-1, 8, e.shape[1]), axis=0)
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        out = r[0] + r[1]
    for j in range(stop, k):
        out += e[j]
    return out


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """The package's one softmax, in place on action-major logits ``z``
    (k, m), whose column i holds record i's k logits; returns ``z``.

    ``z`` is a C-ordered (k, m) array, one contiguous vector per action, or
    the transposed view of record-major (m, k) rows.  The max is taken over
    an action-major copy in the second case (max is exact in any order);
    the subtraction, exp and division are elementwise.  The row sum is
    numpy's own reduction where each record's logits are contiguous, and
    :func:`_row_sum`'s vector adds, in the same order, where each action's
    are.  So in either layout the probabilities have the bits of the
    row-major ``e = exp(l − l.max(-1)); e / e.sum(-1)`` on the (m, k)
    logits ``l = z.T``.  Action-major, every step is one vector operation
    over the m records, which a full-data pass wants; a 100-record
    training step is cheaper record-major, where numpy sums each row in
    one call rather than k − 1.
    """
    # Max-subtraction keeps exp() in range for arbitrarily large logits.
    z -= np.maximum.reduce(np.ascontiguousarray(z), axis=0)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=0) if z.T.flags.c_contiguous else _row_sum(z)
    return z


def _action_logits(policy: SoftmaxPolicy, X: np.ndarray) -> np.ndarray:
    """The forward pass of :meth:`SoftmaxPolicy.logits` over the contexts
    ``X`` (n, d), stored action-major as a new (k, n) array, with its bits.
    The product stays row-major because BLAS may round W·Xᵀ differently
    from X·Wᵀ (OpenBLAS 0.3.31 does for some shapes with k ≥ 127); the
    bias add writes its transpose."""
    z = np.empty((policy.k, X.shape[0]))
    np.add((X @ policy.weights.T).T, policy.biases[:, None], out=z)
    return z


def action_probs(policy: SoftmaxPolicy, x: np.ndarray) -> np.ndarray:
    """Exact softmax action distribution at context ``x``.

    Returns a length-k array: probs[a] ∝ exp(weights[a]·x + biases[a]),
    normalized exactly, strictly positive for finite logits.
    """
    x = _validate_context(policy, x)
    return _softmax_rows(policy.logits(x)[:, None])[:, 0]


def action_prob_matrix(policy: SoftmaxPolicy, X: np.ndarray) -> np.ndarray:
    """Row-wise action distributions for a batch of contexts (n×d → n×k)."""
    X = _feature_matrix("contexts", X, policy.d)
    return _softmax_rows(_action_logits(policy, X)).T.copy()


def _matched_probs(policy: SoftmaxPolicy, data, actions=None) -> np.ndarray:
    """π(a_i|x_i) of ``policy`` at every context x_i of ``data``, for its
    logged actions or the given ``actions`` (labels): one full-data pass of
    the softmax.  The dataset has checked its features, so only
    :func:`_check_dims` runs here."""
    _check_dims(policy, data)
    P = _softmax_rows(_action_logits(policy, data.features))
    return P[data.actions if actions is None else actions, np.arange(len(data))]


def _gumbel_max_log(
    policy: SoftmaxPolicy, X: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Log ``policy`` at the contexts ``X``: per row, the Gumbel-max action
    argmax(logits − ln(−ln u)) for uniforms u clamped inside (0, 1), and its
    exact softmax probability as the propensity.  The uniforms are drawn as
    an (n, k) array, so record i, action a takes u[i, a]; ties go to the
    lowest action index."""
    n = X.shape[0]
    z = _action_logits(policy, X)
    u = np.clip(rng.uniform(size=(n, policy.k)), _U_LO, _U_HI)
    actions = np.argmax(z - np.log(-np.log(u)).T, axis=0)
    P = _softmax_rows(z)
    return actions, P[actions, np.arange(n)]


def mixed_logit_prob_mc(
    spec: MixedLogitSpec,
    x: np.ndarray,
    a: int,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the mixed-logit probability of action ``a``.

    Averages the softmax probability of ``a`` over weight draws
    θ ~ N(mean, variance·I).  Because logits are linear in the weights, the
    induced logit vector is exactly Gaussian, N(mean logits, variance·‖x‖²·I),
    and is sampled directly; this is distributionally identical to drawing
    full weight matrices and cheaper by a factor of d.  Averaging
    probabilities rather than argmax indicators keeps the mean unchanged
    and shrinks the variance.

    The normals are drawn in blocks of ``_BLOCK_ROWS`` (8192) rows, in
    order, so they are exactly the draws of one call
    ``mean_logits + scale * rng.standard_normal((samples, k))`` and the
    generator ends in the same state.  Each block's logits are stored
    action-major for :func:`_softmax_rows`, and only the probabilities of
    ``a`` are kept, so memory is O(samples + _BLOCK_ROWS·k).  The estimate
    and standard error are taken over all of them at once, in the summation
    order of an unblocked call, so the result has the bits of the
    row-major expression above for every k.

    With more than one block and more than one usable CPU, a helper thread
    draws the next block while this one goes through the softmax (see
    :func:`crmlab._jobs.prefetched`), with the same draws in the same
    order.  So ``rng`` advances on that thread during the call: do not
    share it with another thread until the call returns.

    Returns ``(estimate, std_error)``; the standard error uses the
    unbiased sample variance and is NaN when ``samples == 1``.
    """
    _check_count("samples", samples, 1)
    x = _validate_context(spec.mean, x, a)
    mu = spec.mean.logits(x)
    scale = float(np.sqrt(spec.variance) * _context_norm(x))
    starts = range(0, samples, _BLOCK_ROWS)
    draws = (
        rng.standard_normal((min(_BLOCK_ROWS, samples - start), spec.mean.k))
        for start in starts
    )
    p = np.empty(samples)
    with prefetched(draws, len(starts)) as normals:
        for start, noise in zip(starts, normals):
            z = np.multiply(noise.T, scale, order="C")
            z += mu[:, None]
            p[start:start + len(noise)] = _softmax_rows(z)[a]
    mean = np.add.reduce(p) / samples
    if samples > 1:
        # p.std(ddof=1)'s steps, in place: its (samples,) temporary made the
        # allocator hand pages back and fault them in again on every call.
        p -= mean
        np.multiply(p, p, out=p)
        variance = np.add.reduce(p) / (samples - 1)
        std_error = float(np.sqrt(variance) / np.sqrt(samples))
    else:
        std_error = float("nan")
    return float(mean), std_error


def mixed_logit_prob_bounds(
    spec: MixedLogitSpec, x: np.ndarray, a: int, B: float
) -> tuple[float, float]:
    """Analytic sandwich for the mixed-logit probability of action ``a``.

    For ‖x‖ ≤ B and weight variance σ:

        softmax(a|x) · exp(−σB²/2)  ≤  prob  ≤  softmax(a|x) · exp(2σB²)

    where softmax is taken at the mean policy; the upper bound is clamped
    to 1.  At σ = 0 both sides collapse to the exact softmax probability.
    """
    x = _validate_context(spec.mean, x, a)
    _check_norm_bound("B", B, _context_norm(x))
    p = float(action_probs(spec.mean, x)[a])
    sb2 = spec.variance * B * B
    lower = p * float(np.exp(-0.5 * sb2))
    upper = min(1.0, p * float(np.exp(2.0 * sb2)))
    return lower, upper


def param_distance_sq(a: SoftmaxPolicy, b: SoftmaxPolicy) -> float:
    """Squared Euclidean distance between weight matrices; biases excluded."""
    _check_dims(b, a)
    return _distance_sq(a.weights, b.weights)


# -----------------------------------------------------------------------
# Model files
# -----------------------------------------------------------------------
#
# Structured-text key-value format (JSON) with nested arrays.  Floats are
# written with shortest round-trip decimal repr, so save -> load is
# bit-exact for every finite double.

_MODEL_FORMAT = "crmlab-model"
_MODEL_VERSION = 1


@contextmanager
def _writing(path):
    """``path`` opened for writing text.  An OSError from opening, writing
    or closing it is raised again as ``cannot write <path>: <reason>``, so
    the message names the file; the CLI's CSV writer words it the same."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


@dataclass(frozen=True)
class ModelFile:
    """Deserialized model file: a policy plus optional posterior metadata."""

    policy: SoftmaxPolicy
    sigma: Optional[float] = None
    sigma0: Optional[float] = None
    prior: Optional[SoftmaxPolicy] = None
    feature_norm_bound: Optional[float] = None


def save_model(
    path,
    policy: SoftmaxPolicy,
    *,
    sigma: Optional[float] = None,
    sigma0: Optional[float] = None,
    prior: Optional[SoftmaxPolicy] = None,
    feature_norm_bound: Optional[float] = None,
) -> None:
    """Write a policy (and optional posterior/prior metadata) to ``path``.

    Raises ValueError, before anything is written, unless sigma, sigma0 and
    feature_norm_bound are finite numbers or None and 0 < sigma <= sigma0
    when both are given, so every file written here loads with
    :func:`load_model`.  The file's ``log_propensity_upper_bound`` key is
    always false; :func:`load_model` ignores it.
    """
    if prior is not None:
        _check_dims(prior, policy, "prior")
    for key, value in (("sigma", sigma), ("sigma0", sigma0),
                       ("feature_norm_bound", feature_norm_bound)):
        _optional_number(path, key, value)
    _check_sigma(path, sigma, sigma0)
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "d": policy.d,
        "k": policy.k,
        "weights": policy.weights.tolist(),
        "biases": policy.biases.tolist(),
        "sigma": sigma,
        "sigma0": sigma0,
        "prior_weights": None if prior is None else prior.weights.tolist(),
        "prior_biases": None if prior is None else prior.biases.tolist(),
        "feature_norm_bound": feature_norm_bound,
        "log_propensity_upper_bound": False,
    }
    with _writing(path) as fh:
        fh.write(json.dumps(doc, indent=1))


def _check_sigma(path, sigma: Optional[float], sigma0: Optional[float]) -> None:
    """Require 0 < sigma <= sigma0 when both are given, as model files must."""
    if sigma is not None and sigma0 is not None and not (0.0 < sigma <= sigma0):
        raise ValueError(f"{path}: sigma={sigma} must lie in (0, sigma0={sigma0}]")


def _optional_number(path, key: str, value) -> Optional[float]:
    """``value`` as a float, or None; anything but a finite number raises."""
    if value is None:
        return None
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and np.isfinite(value)):
        raise ValueError(f"{path}: {key} must be a finite number, got {value!r}")
    return float(value)


def load_model(path) -> ModelFile:
    """Read a model file written by :func:`save_model`.

    The whole schema is checked here: format and version, the required
    keys, array shapes against the stored (k, d), and 0 < sigma <= sigma0
    when both are present.  Every violation raises ValueError naming
    ``path``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ValueError(f"{path} is not a {_MODEL_FORMAT} file")
    if doc.get("version") != _MODEL_VERSION:
        raise ValueError(
            f"{path}: unsupported model version {doc.get('version')!r}, "
            f"expected {_MODEL_VERSION}"
        )
    missing = [key for key in ("d", "k", "weights", "biases") if key not in doc]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    try:
        policy = SoftmaxPolicy(np.array(doc["weights"]), np.array(doc["biases"]))
        if policy.d != doc["d"] or policy.k != doc["k"]:
            raise ValueError("stored dimensions disagree with arrays")
        prior = None
        if doc.get("prior_weights") is not None:
            prior_weights = np.array(doc["prior_weights"])
            if prior_weights.ndim != 2:
                raise ValueError("prior_weights must be a 2-D (k, d) array")
            # The shape rule runs before the stored biases are read, so a
            # prior of another k is named as such.
            prior = SoftmaxPolicy(prior_weights, np.zeros(len(prior_weights)))
            _check_dims(prior, policy, "prior_weights")
            if doc.get("prior_biases") is not None:
                prior = SoftmaxPolicy(prior_weights, np.array(doc["prior_biases"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    sigma = _optional_number(path, "sigma", doc.get("sigma"))
    sigma0 = _optional_number(path, "sigma0", doc.get("sigma0"))
    _check_sigma(path, sigma, sigma0)
    return ModelFile(
        policy=policy,
        sigma=sigma,
        sigma0=sigma0,
        prior=prior,
        feature_norm_bound=_optional_number(
            path, "feature_norm_bound", doc.get("feature_norm_bound")
        ),
    )
