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
    immutable: arrays are copied on construction and marked read-only, so a
    policy can be shared freely across threads.
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


def _softmax_rows(
    logits: np.ndarray, work: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Softmax over the last axis, in a new array.

    ``work = (logits_t, row)``, an action-major ``(k, m)`` buffer and a
    length-m buffer, makes the softmax of an ``(m, k)`` array overwrite
    ``logits`` instead, allocating nothing, with the same bits: the row max
    is taken over the action-major copy (k − 1 vector operations; max is
    exact in any order), while the row sum stays numpy's contiguous
    last-axis reduction, whose pairwise order from k = 8 on sets the bits.
    """
    # Max-subtraction keeps exp() in range for arbitrarily large logits.
    if work is None:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=-1, keepdims=True)
        return shifted
    # The ufunc reductions are what max() and sum() call, minus their
    # Python-level dispatch.
    logits_t, row = work
    column = row[:, None]
    np.copyto(logits_t, logits.T)
    np.maximum.reduce(logits_t, axis=0, out=row)
    np.subtract(logits, column, out=logits)
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=-1, out=row)
    logits /= column
    return logits


def action_probs(policy: SoftmaxPolicy, x: np.ndarray) -> np.ndarray:
    """Exact softmax action distribution at context ``x``.

    Returns a length-k array: probs[a] ∝ exp(weights[a]·x + biases[a]),
    normalized exactly, strictly positive for finite logits.
    """
    x = _validate_context(policy, x)
    return _softmax_rows(policy.logits(x))


def action_prob_matrix(policy: SoftmaxPolicy, X: np.ndarray) -> np.ndarray:
    """Row-wise action distributions for a batch of contexts (n×d → n×k)."""
    return _softmax_rows(policy.logits(_feature_matrix("contexts", X, policy.d)))


def _matched_probs(policy: SoftmaxPolicy, data, actions=None) -> np.ndarray:
    """π(a_i|x_i) of ``policy`` at every context x_i of ``data``, for its
    logged actions or the given ``actions`` (labels).  The dataset has
    checked its features, so only :func:`_check_dims` runs here."""
    _check_dims(policy, data)
    P = _softmax_rows(policy.logits(data.features))
    return P[np.arange(len(data)), data.actions if actions is None else actions]


def _gumbel_max_log(
    policy: SoftmaxPolicy, X: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Log ``policy`` at the contexts ``X``: per row, the Gumbel-max action
    argmax(logits − ln(−ln u)) for uniforms u clamped inside (0, 1), and its
    exact softmax probability as the propensity."""
    logits = policy.logits(X)
    P = _softmax_rows(logits)
    u = np.clip(rng.uniform(size=logits.shape), _U_LO, _U_HI)
    actions = np.argmax(logits - np.log(-np.log(u)), axis=1)
    return actions, P[np.arange(X.shape[0]), actions]


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
    action-major (one contiguous vector per action), which turns the
    softmax's row max and row sum into k − 1 elementwise vector operations
    instead of one length-k loop per row.  Only the probabilities of ``a``
    are kept, so memory is O(samples + _BLOCK_ROWS·k), and the estimate and
    standard error are taken over all of them at once, in the summation
    order of an unblocked call.  A last block of one row joins the block
    before it: a (1, k) block is contiguous along its row, and from k = 8
    numpy would sum that row pairwise instead of in action order.  So the
    result has the bits of the unblocked action-major expression, which
    for k ≤ 7 are those of the row-major expression above; from k = 8 the
    row-major one sums each row pairwise and may differ in the last ulp.

    Returns ``(estimate, std_error)``; the standard error uses the
    unbiased sample variance and is NaN when ``samples == 1``.
    """
    _check_count("samples", samples, 1)
    x = _validate_context(spec.mean, x, a)
    mu = spec.mean.logits(x)
    scale = float(np.sqrt(spec.variance) * np.linalg.norm(x))
    p = np.empty(samples)
    start = 0
    while start < samples:
        stop = start + _BLOCK_ROWS
        if stop + 1 >= samples:  # the last block, a one-row tail folded in
            stop = samples
        # z is the block's (rows, k) logits stored action-major: each column
        # is contiguous.
        z = np.multiply(
            rng.standard_normal((stop - start, spec.mean.k)).T, scale, order="C"
        ).T
        z += mu
        p[start:stop] = _softmax_rows(z)[:, a]
        start = stop
    estimate = float(p.mean())
    if samples > 1:
        std_error = float(p.std(ddof=1) / np.sqrt(samples))
    else:
        std_error = float("nan")
    return estimate, std_error


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
    _check_norm_bound("B", B, float(np.linalg.norm(x)))
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
