"""Decision procedures for controllability under nonnegative sparse inputs.

The full test runs three independent checks on a system pair (A, B):

  condition i   - no left eigenvector of A is orthogonal to every column
                  of B (equivalent to the classical rank test
                  rank [lambda I - A | B] = N, which ``pbh_rank`` keeps as
                  the reference);
  condition ii  - no real eigenvalue lambda >= 0 admits a left eigenvector
                  z with z^T B <= 0 componentwise;
  condition iii - the sparsity level satisfies s >= N - rank(A).

The system is controllable with nonnegative s-sparse inputs exactly when
all three hold. Dropping condition iii gives the nonnegative-input test,
dropping condition ii gives the unsigned sparse-input test. Failures of
conditions i and ii are returned as machine-checkable certificates: an
eigenpair (lambda, z) that pins the reachable set inside a hyperplane or
half-space. Condition i's comes from the orthogonal staircase of (A, B)
that decided it; condition ii's is the eigenspace vector that did.

The work on one pair and tol (the staircase, the left eigensystem of A,
rank(A) and conditions i and ii) is one analysis, shared by every entry
point: consecutive calls on equal pairs, such as ``check_nonneg_sparse``
then ``min_sparsity``, run each once. The memo holds one entry, keyed on
the pair and tol; a ``SystemPair`` and the certificates the analysis
builds are read-only, so equal pairs give equal keys and no later write
can reach the memo.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .conelp import homogeneous_nonzero
from .errors import InputError, NoFeasibleSparsityError
from .matrixcore import (
    DEFAULT_TOL,
    LeftEigenSystem,
    Tolerances,
    as_input_matrix,
    as_matrix,
    as_square,
    as_vector,
    divide_by_unit,
    eigen_clusters,
    finite,
    left_eigensystem,
    rank,
    scale_unit,
    validate_sparsity,
)

__all__ = [
    "SystemPair",
    "Certificate",
    "CertificateCheck",
    "ConditionResult",
    "SparsityConditionResult",
    "ControllabilityReport",
    "check_condition_i",
    "check_condition_ii",
    "check_condition_iii",
    "check_nonneg_sparse",
    "check_nonneg",
    "check_sparse",
    "min_sparsity",
    "input_count_bound_check",
    "verify_certificate",
    "apply_input_basis",
    "certificate_direction",
]

VIOLATES_CONDITION_I = "violates_condition_i"
VIOLATES_CONDITION_II = "violates_condition_ii"


@dataclass(frozen=True, eq=False)
class SystemPair:
    """The matrix pair (A, B) of x_k = A x_{k-1} + B u_k: an immutable value.

    A and B are read-only copies in the canonical form of
    ``matrixcore.as_matrix``, so the reports depend only on the values of
    the entries; equal values are equal bytes, and pairs compare and hash by them.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", as_square(self.A, "A"))
        if self.A.shape[0] < 1:
            raise InputError("A must have at least one row")
        object.__setattr__(self, "B", as_input_matrix(self.B, self.A.shape[0]))
        if self.B.shape[1] < 1:
            raise InputError("B must have at least one column")
        self.A.flags.writeable = self.B.flags.writeable = False

    def _bytes(self) -> tuple[bytes, bytes]:
        return self.A.tobytes(), self.B.tobytes()  # A's length fixes N, then B's fixes m

    def __eq__(self, other) -> bool:
        return self._bytes() == other._bytes() if isinstance(other, SystemPair) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._bytes())

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class Certificate:
    """An uncontrollability witness: an eigenpair (lambda, z).

    kind "violates_condition_i": z^T A = lambda z^T and z^T B = 0, so the
    hyperplane z^T x = 0 traps every reachable state.
    kind "violates_condition_ii": lambda is real nonnegative and z^T B <= 0
    componentwise, so the half-space z^T x <= 0 traps every reachable state.
    z is scaled to unit max modulus; residual_eig is the eigen-identity
    defect and max_zb the largest entry of z^T B (in modulus for kind i,
    signed for kind ii).
    """

    kind: str
    eigenvalue: complex
    z: np.ndarray
    residual_eig: float
    max_zb: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lambda": {"re": float(self.eigenvalue.real), "im": float(self.eigenvalue.imag)},
            "z": {
                "re": [float(v) for v in np.real(self.z)],
                "im": [float(v) for v in np.imag(self.z)],
            },
            "residual_eig": self.residual_eig,
            "max_zb": self.max_zb,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        try:
            kind = data["kind"]
            lam_re, lam_im = as_vector([data["lambda"]["re"], data["lambda"]["im"]], "lambda")
            re = as_vector(data["z"]["re"], "z.re")
            im = as_vector(data["z"]["im"], "z.im")
            residual_eig = float(as_vector([data.get("residual_eig", 0.0)], "residual_eig")[0])
            max_zb = float(as_vector([data.get("max_zb", 0.0)], "max_zb")[0])
        except (KeyError, TypeError, ValueError) as exc:  # InputError is a ValueError
            raise InputError(f"malformed certificate: {exc}") from exc
        if kind not in (VIOLATES_CONDITION_I, VIOLATES_CONDITION_II):
            raise InputError(f"unknown certificate kind {kind!r}")
        if re.size != im.size or re.size == 0:
            raise InputError(
                f"certificate z must be a nonempty vector, got lengths re {re.size}, im {im.size}"
            )
        lam, z = complex(lam_re, lam_im), re + 1j * im
        if np.abs(z.imag).max(initial=0.0) == 0.0:
            z = z.real
        return cls(kind=kind, eigenvalue=lam, z=z, residual_eig=residual_eig, max_zb=max_zb)


@dataclass(frozen=True)
class ConditionResult:
    """Pass/fail for one eigenvector condition, with the strongest witness.

    When several eigenvalues violate the condition, the certificate is kept
    for the one of largest modulus and the rest are listed in
    ``other_violations``. Derived: ``passed``, true when there is no certificate.
    """

    certificate: Certificate | None = None
    other_violations: tuple[complex, ...] = ()

    @property
    def passed(self) -> bool:
        return self.certificate is None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "other_violations": [{"re": v.real, "im": v.imag} for v in self.other_violations],
        }


@dataclass(frozen=True)
class SparsityConditionResult:
    """Pass/fail for s >= N - rank(A), with the numbers; derived: ``required``, ``passed``."""

    s: int
    n_states: int
    rank_a: int

    @property
    def required(self) -> int:
        return self.n_states - self.rank_a

    @property
    def passed(self) -> bool:
        return self.s >= self.required

    def to_dict(self) -> dict:
        return {"passed": self.passed, **asdict(self), "required": self.required}


@dataclass(frozen=True)
class ControllabilityReport:
    """Aggregated verdict: controllable iff every condition that ran (the others are None)
    passed. Derived: ``controllable``, ``verdict``, ``mode``, ``s`` and ``certificate``."""

    condition_i: ConditionResult
    condition_ii: ConditionResult | None
    condition_iii: SparsityConditionResult | None
    eigenvalues: tuple[dict, ...]
    tolerances: Tolerances

    @property
    def controllable(self) -> bool:
        conditions = (self.condition_i, self.condition_ii, self.condition_iii)
        return all(cond.passed for cond in conditions if cond is not None)

    @property
    def verdict(self) -> str:
        return "controllable" if self.controllable else "uncontrollable"

    @property
    def mode(self) -> str:  # "nonneg_sparse" | "nonneg" | "sparse"
        ran = (("nonneg", self.condition_ii), ("sparse", self.condition_iii))
        return "_".join(name for name, cond in ran if cond is not None)

    @property
    def s(self) -> int | None:
        return None if self.condition_iii is None else self.condition_iii.s

    @property
    def certificate(self) -> Certificate | None:  # condition i's, else condition ii's
        return self.condition_i.certificate or (self.condition_ii and self.condition_ii.certificate)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "s": self.s,
            "condition_i": self.condition_i.to_dict(),
            "condition_ii": self.condition_ii.to_dict() if self.condition_ii else None,
            "condition_iii": self.condition_iii.to_dict() if self.condition_iii else None,
            "eigenvalues": list(self.eigenvalues),
            "tolerances": self.tolerances.to_dict(),
        }


def _staircase(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonal controllability staircase (Paige 1981; Van Dooren 1981):
    (Q_u, A_u) with orthonormal Q_u spanning what no input reaches,
    Q_u^T A = A_u Q_u^T and Q_u^T B = 0. One SVD rotates B's range to the
    top (cut at ``rank_rtol * ||B||_F``); each step ranks the block coupling
    the unreached coordinates to those reached last (cut at
    ``rank_rtol * ||A||_F``) and rotates only the unreached ones, until a
    block has rank 0. Cuts relative to each matrix make scaling A or B
    change no rank decision. It runs on A and B divided by their
    ``scale_unit``, exact powers of two, so no norm or product overflows;
    A_u is multiplied back, and an overflowing A_u raises ``NumericError``."""
    unit = scale_unit(a)
    a, b = a / unit, b / scale_unit(b)
    n, cut = a.shape[0], tol.rank_rtol * float(np.linalg.norm(a))
    q, s, _ = np.linalg.svd(b)
    a = q.T @ a @ q
    lo, hi = 0, int(np.count_nonzero(s > tol.rank_rtol * float(np.linalg.norm(b))))
    while lo < hi < n:
        u, s, _ = np.linalg.svd(a[hi:, lo:hi])
        lo, hi = hi, hi + int(np.count_nonzero(s > cut))
        if hi > lo:
            a[lo:] = u.T @ a[lo:]
            a[:, lo:] = a[:, lo:] @ u
            q[:, lo:] = q[:, lo:] @ u
    return q[:, hi:], finite(lambda: a[hi:, hi:] * unit, "the block of A that no input reaches")


@dataclass(frozen=True)
class _Analysis:
    """The work on one pair (A, B) under tol: the staircase of (A, B), the left
    eigensystem of A, rank(A) and conditions i and ii, each computed on first use."""

    sys: SystemPair
    tol: Tolerances

    @cached_property
    def unreached(self) -> tuple[np.ndarray, np.ndarray]:
        return _staircase(self.sys.A, self.sys.B, self.tol)

    @cached_property
    def eig(self) -> LeftEigenSystem:
        return left_eigensystem(self.sys.A, self.tol)

    @cached_property
    def rank_a(self) -> int:
        return rank(self.sys.A, self.tol)

    @cached_property
    def condition_i(self) -> ConditionResult:
        # The eigenvalues of A_u, grouped at the eigen-analysis's radius; w is the
        # left singular direction of A_u - lambda I closest to its kernel. Both
        # differences are taken in units of ``scale_unit(A_u)``, so neither overflows.
        q_u, a_u = self.unreached
        if not a_u.size:
            return ConditionResult()
        unit, values = scale_unit(a_u), np.linalg.eigvals(a_u)
        scaled = divide_by_unit(values, unit)
        close = np.abs(scaled[:, None] - scaled[None, :]) <= self.eig.cluster_radius / unit
        violations = [centre for _, centre, _, _ in eigen_clusters(values, close, self.tol)]
        violations.sort(key=lambda v: (-abs(v), v.real, v.imag))
        lam = violations[0]
        u = np.linalg.svd(a_u / unit - (lam if lam.imag else lam.real) / unit * np.eye(len(a_u)))[0]
        return self._failed(VIOLATES_CONDITION_I, lam, q_u @ u[:, -1].conj(), violations[1:])

    @cached_property
    def condition_ii(self) -> ConditionResult:
        pairs = []
        for group in self.eig.groups:
            if not group.is_real or group.eigenvalue.real < -self.tol.eig_imag_tol:
                continue
            witness = homogeneous_nonzero(self.sys.B.T @ group.basis, self.tol)
            if witness is not None:
                pairs.append((complex(group.eigenvalue.real), group.basis @ witness))
        if not pairs:
            return ConditionResult()
        pairs.sort(key=lambda pair: (-abs(pair[0]), pair[0].real))
        (lam, z), others = pairs[0], [lam for lam, _ in pairs[1:]]
        return self._failed(VIOLATES_CONDITION_II, lam, z, others)

    def _failed(self, kind: str, lam: complex, z: np.ndarray, others: list) -> ConditionResult:
        """A failed condition with its certificate (lam, z); a z whose imaginary
        part is at most ``eig_imag_tol`` after max-normalization is made real.
        z is read-only: the memo hands it to every report of the pair."""
        z = _normalize_max(z)
        if np.iscomplexobj(z) and _real_z(z, self.tol):
            z = z.real
        z.flags.writeable = False
        residual, max_zb = _eig_residual(self.sys, lam, z), _max_zb(self.sys, kind, z, self.tol)
        cert = Certificate(kind=kind, eigenvalue=lam, z=z, residual_eig=residual, max_zb=max_zb)
        return ConditionResult(certificate=cert, other_violations=tuple(others))


# The one-entry memo: a call with a pair and tol equal to the previous call's
# reuses its analysis, and a new pair or tol replaces it.
_analysis = lru_cache(maxsize=1)(_Analysis)


def _normalize_max(z: np.ndarray) -> np.ndarray:
    """Scale to unit max modulus. Real vectors keep their sign pattern
    (positive scaling only); complex vectors are rotated so the largest
    entry becomes 1, which fixes the free phase deterministically."""
    idx = int(np.argmax(np.abs(z)))
    if np.iscomplexobj(z):
        return z / z[idx]
    return z / abs(z[idx])


def _eig_residual(sys: SystemPair, lam: complex, z: np.ndarray) -> float:
    return float(np.abs(z @ sys.A - lam * z).max())


def _real_z(z: np.ndarray, tol: Tolerances) -> bool:
    """Whether a max-normalized z counts as real: imaginary part at most ``eig_imag_tol``."""
    return bool(np.abs(np.imag(z)).max(initial=0.0) <= tol.eig_imag_tol)


def _max_zb(sys: SystemPair, kind: str, z: np.ndarray, tol: Tolerances) -> float:
    """The z^T B slack of a certificate: the largest entry of z^T B, signed (of its
    real part) for a kind-ii z that counts as real, in modulus otherwise."""
    zb = z @ sys.B
    if kind == VIOLATES_CONDITION_II and _real_z(z, tol):
        return float(np.real(zb).max())
    return float(np.abs(zb).max())


def check_condition_i(sys: SystemPair, tol: Tolerances = DEFAULT_TOL) -> ConditionResult:
    """No left eigenvector of A is orthogonal to every column of B.

    Fails exactly at the eigenvalues of the block A_u of the staircase
    (``_staircase``) that no input reaches. The certificate z = Q_u w, for a
    left eigenvector w of A_u at the violation of largest modulus, has
    z^T B = 0 up to rounding however defective lambda is.
    ``matrixcore.pbh_rank`` is the equivalent pencil test, kept as the reference.
    """
    return _analysis(sys, tol).condition_i


def check_condition_ii(sys: SystemPair, tol: Tolerances = DEFAULT_TOL) -> ConditionResult:
    """No real eigenvalue >= 0 admits a left eigenvector z with z^T B <= 0.

    For each such eigenvalue the left eigenspace basis Z is assembled and
    a nonzero rho with B^T Z rho <= 0 is searched: by the sign of B^T z when
    Z is one vector z, by one cone-membership question otherwise (Stiemke's
    lemma, ``conelp.homogeneous_nonzero``). The pass is vacuous
    when A has no real nonnegative eigenvalue.
    """
    return _analysis(sys, tol).condition_ii


def check_condition_iii(
    sys: SystemPair, s: int, tol: Tolerances = DEFAULT_TOL
) -> SparsityConditionResult:
    """Sparsity test: s >= N - rank(A)."""
    s = validate_sparsity(s, sys.m)
    return SparsityConditionResult(s=s, n_states=sys.n, rank_a=_analysis(sys, tol).rank_a)


def _check(
    sys: SystemPair, s: int | None, nonneg: bool, tol: Tolerances
) -> ControllabilityReport:
    """One analysis of the pair, then condition i always, condition ii when
    ``nonneg`` and condition iii when ``s`` is given."""
    cond_iii = check_condition_iii(sys, s, tol) if s is not None else None
    analysis = _analysis(sys, tol)
    return ControllabilityReport(
        condition_i=analysis.condition_i,
        condition_ii=analysis.condition_ii if nonneg else None,
        condition_iii=cond_iii,
        eigenvalues=tuple(group.to_dict() for group in analysis.eig.groups),
        tolerances=tol,
    )


def check_nonneg_sparse(
    sys: SystemPair, s: int, tol: Tolerances = DEFAULT_TOL
) -> ControllabilityReport:
    """Full test for controllability with nonnegative s-sparse inputs."""
    return _check(sys, s, True, tol)


def check_nonneg(sys: SystemPair, tol: Tolerances = DEFAULT_TOL) -> ControllabilityReport:
    """Controllability with unrestricted-support nonnegative inputs
    (conditions i and ii only)."""
    return _check(sys, None, True, tol)


def check_sparse(sys: SystemPair, s: int, tol: Tolerances = DEFAULT_TOL) -> ControllabilityReport:
    """Controllability with sign-unrestricted s-sparse inputs
    (conditions i and iii only)."""
    return _check(sys, s, False, tol)


def min_sparsity(sys: SystemPair, tol: Tolerances = DEFAULT_TOL) -> int | None:
    """Smallest s making the system nonnegative s-sparse controllable.

    None when the system is not nonnegative controllable at all. Raises
    NoFeasibleSparsityError when N - rank(A) exceeds the input dimension,
    in which case no sparsity level works. In exact arithmetic that cannot
    happen: condition i makes B^T injective on ker A^T, so
    N - rank(A) = dim ker A^T <= m. The error therefore means that the cut
    of ``rank(A)`` disagrees with the staircase that decided condition i.
    """
    analysis = _analysis(sys, tol)
    if not (analysis.condition_i.passed and analysis.condition_ii.passed):
        return None
    required = sys.n - analysis.rank_a
    if required > sys.m:
        raise NoFeasibleSparsityError(
            f"N - rank(A) = {required} exceeds the input dimension m = {sys.m}"
        )
    return max(1, required)


def input_count_bound_check(sys: SystemPair, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Nonnegative controllable systems must pass the sparse test at s = m - 1.

    Returns that verdict; vacuously true when the system is not nonnegative
    controllable in the first place.
    """
    analysis = _analysis(sys, tol)
    if not (analysis.condition_i.passed and analysis.condition_ii.passed):
        return True
    return check_condition_iii(sys, max(1, sys.m - 1), tol).passed


@dataclass(frozen=True)
class CertificateCheck:
    """Re-evaluation of a certificate against a system, with residuals; derived: ``valid``."""

    residual_eig: float
    max_zb: float
    eig_ok: bool
    sign_ok: bool
    lambda_ok: bool

    @property
    def valid(self) -> bool:
        return self.eig_ok and self.sign_ok and self.lambda_ok

    def to_dict(self) -> dict:
        return {"valid": self.valid, **asdict(self)}


def verify_certificate(
    sys: SystemPair, cert: Certificate, tol: Tolerances = DEFAULT_TOL
) -> CertificateCheck:
    """Independently re-check a certificate's algebra against (A, B).

    Accepts any nonzero scaling of z; the vector is max-normalized before
    the tolerance comparisons so the slacks are scale-free. The residual bound
    eig_imag_tol * (1 + ||A||_2) is compared in units of u = max(1, ``scale_unit(A)``).
    """
    z = np.asarray(cert.z)
    if z.ndim != 1 or z.size != sys.n:
        raise InputError(f"certificate z must have length {sys.n}, got shape {z.shape}")
    if np.abs(z).max(initial=0.0) <= 0.0:
        return CertificateCheck(np.inf, np.inf, False, False, False)
    if cert.kind not in (VIOLATES_CONDITION_I, VIOLATES_CONDITION_II):
        raise InputError(f"unknown certificate kind {cert.kind!r}")
    z = z / np.abs(z).max()  # positive scaling keeps sign constraints intact
    lam, eps = cert.eigenvalue, tol.eig_imag_tol
    unit = max(1.0, scale_unit(sys.A))
    residual = _eig_residual(sys, lam, z)
    bound = eps * (1.0 / unit + float(np.linalg.norm(sys.A / unit, 2)))
    max_zb = _max_zb(sys, cert.kind, z, tol)
    # A kind-ii certificate also needs a real z and a real eigenvalue lambda >= 0.
    kind_i = cert.kind == VIOLATES_CONDITION_I
    real = kind_i or _real_z(z, tol)
    lambda_ok = bool(kind_i or (real and abs(lam.imag) <= eps and lam.real >= -eps))
    sign_ok = real and max_zb <= tol.ineq_tol
    return CertificateCheck(residual, max_zb, bool(residual / unit <= bound), sign_ok, lambda_ok)


def apply_input_basis(sys: SystemPair, phi) -> SystemPair:
    """Rewrite the inputs in a new basis: (A, B) -> (A, B Phi)."""
    phi = as_matrix(phi, "Phi")
    if phi.shape != (sys.m, sys.m):
        raise InputError(f"Phi must be {sys.m} x {sys.m}, got {phi.shape}")
    return SystemPair(A=sys.A, B=sys.B @ phi)


def certificate_direction(cert: Certificate) -> np.ndarray:
    """A real unit vector along which the certificate blocks reachability.

    For a real z this is z itself; for a complex kind-i witness both the
    real and imaginary parts annihilate the reachable set, so whichever is
    nonzero serves as a probe direction. Both are taken on z divided by its
    largest modulus, so no norm over- or underflows.
    """
    z = np.asarray(cert.z)
    peak = np.abs(z).max(initial=0.0)
    if peak == 0.0:
        raise InputError("certificate z is zero")
    direction = np.real(z) / peak  # parts apart: complex division by a subnormal overflows
    if np.linalg.norm(direction) <= 1e-12:
        direction = np.imag(z) / peak
    return direction / np.linalg.norm(direction)
