"""Bruhat order on the weight lattice of the extended affine Weyl group.

Weights are integer vectors of explicit rank n >= 2.  The simple affine
roots are alpha_i(tau) = tau_i - tau_{i+1} for 1 <= i <= n-1 and
alpha_0(tau) = tau_n - tau_1 + 1.  leq_affine decides whether the minimal
coset representative of tau is below that of eta by walking eta into the
fundamental alcove; the stable order on compositions is preceq.
"""

from __future__ import annotations

from .compositions import canonicalize, pad, sorting_data
from .memo import memoized


def eval_root(i, tau):
    """Value of the simple affine root alpha_i on the weight tau."""
    n = len(tau)
    if i == 0:
        return tau[n - 1] - tau[0] + 1
    if 1 <= i <= n - 1:
        return tau[i - 1] - tau[i]
    raise ValueError("root index %d out of range for rank %d" % (i, n))


def _reflect(i, tau):
    """Apply the simple affine reflection s_i to the weight tau."""
    n = len(tau)
    if i == 0:
        return (tau[n - 1] + 1,) + tau[1 : n - 1] + (tau[0] - 1,)
    t = list(tau)
    t[i - 1], t[i] = t[i], t[i - 1]
    return tuple(t)


def _omega(tau):
    return tau[1:] + (tau[0] - 1,)


def _omega_inv(tau):
    return (tau[-1] + 1,) + tau[:-1]


def leq_affine(tau, eta):
    """True iff the minimal coset representative of tau is <= that of eta.

    Different coordinate sums are incomparable (distinct components of the
    extended group).  Otherwise eta is walked into the fundamental alcove:
    while some simple affine root is negative on eta, reflect eta and replace
    tau by the Bruhat-smaller of tau and its reflection; inside the closed
    alcove, shift both weights by the length-zero rotation toward sum zero.
    """
    if len(tau) != len(eta):
        raise ValueError("rank mismatch")
    if sum(tau) != sum(eta):
        return False
    n = len(eta)
    while True:
        if all(x == 0 for x in eta):
            return all(x == 0 for x in tau)
        for i in range(n):
            if eval_root(i, eta) < 0:
                if eval_root(i, tau) < 0:
                    tau = _reflect(i, tau)
                eta = _reflect(i, eta)
                break
        else:
            # eta is in the closed fundamental alcove; move toward sum 0
            if sum(eta) < 0:
                tau, eta = _omega_inv(tau), _omega_inv(eta)
            else:
                tau, eta = _omega(tau), _omega(eta)


def preceq(lam, mu):
    """The stable Bruhat order on compositions: lam preceq mu iff -lam <= -mu.

    Padding rank is immaterial beyond max of the lengths; rank 2 is the floor.
    """
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    if sum(lam) != sum(mu):
        return False
    n = max(len(lam), len(mu), 2)
    return leq_affine(
        tuple(-x for x in pad(lam, n)), tuple(-x for x in pad(mu, n))
    )


@memoized
def min_rep_length(lam, n):
    """Length of the minimal coset representative attached to -lambda.

    Evaluates the translation-times-permutation length formula at
    tau = -lambda with the inverse sorting permutation.
    """
    w = sorting_data(lam, n).images  # w_tau for tau = -lambda
    tau = tuple(-x for x in pad(canonicalize(lam), n))
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] < w[j]:
                total += abs(tau[i] - tau[j])
            else:
                total += abs(tau[i] - tau[j] - 1)
    return total
