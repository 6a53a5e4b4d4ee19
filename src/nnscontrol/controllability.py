"""Decision procedures for controllability under nonnegative sparse inputs.

The full test runs three independent checks on a system pair (A, B):

  condition i   - no left eigenvector of A is orthogonal to every column
                  of B: rank(B^T Z) = dim Z for the left eigenbasis Z of
                  every eigenvalue (equivalent to the classical rank test
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
half-space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conelp import homogeneous_nonzero
from .errors import InputError, NoFeasibleSparsityError
from .matrixcore import (
    DEFAULT_TOL,
    LeftEigenSystem,
    Tolerances,
    as_matrix,
    left_eigensystem,
    null_space_basis,
    rank,
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


@dataclass(frozen=True)
class SystemPair:
    """The matrix pair (A, B) of x_k = A x_{k-1} + B u_k."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        object.__setattr__(self, "B", as_matrix(self.B, "B"))
        if self.A.shape[0] != self.A.shape[1]:
            raise InputError(f"A must be square, got shape {self.A.shape}")
        if self.A.shape[0] < 1:
            raise InputError("A must have at least one row")
        if self.B.shape[0] != self.A.shape[0]:
            raise InputError(
                f"B must have {self.A.shape[0]} rows to match A, got {self.B.shape[0]}"
            )
        if self.B.shape[1] < 1:
            raise InputError("B must have at least one column")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def validate_sparsity(s, m: int) -> int:
    """Check 1 <= s <= m; zero is rejected because zero inputs cannot steer."""
    if not isinstance(s, (int, np.integer)):
        raise InputError(f"sparsity level must be an integer, got {s!r}")
    s = int(s)
    if not 1 <= s <= m:
        raise InputError(f"sparsity level must lie in [1, {m}], got {s}")
    return s


@dataclass(frozen=True)
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
            lam = complex(float(data["lambda"]["re"]), float(data["lambda"]["im"]))
            z = np.asarray(data["z"]["re"], dtype=float) + 1j * np.asarray(
                data["z"]["im"], dtype=float
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed certificate: {exc}") from exc
        if kind not in (VIOLATES_CONDITION_I, VIOLATES_CONDITION_II):
            raise InputError(f"unknown certificate kind {kind!r}")
        if z.ndim != 1 or z.size == 0:
            raise InputError("certificate z must be a nonempty vector")
        if np.abs(z.imag).max(initial=0.0) == 0.0:
            z = z.real
        return cls(
            kind=kind,
            eigenvalue=lam,
            z=z,
            residual_eig=float(data.get("residual_eig", 0.0)),
            max_zb=float(data.get("max_zb", 0.0)),
        )


@dataclass(frozen=True)
class ConditionResult:
    """Pass/fail for one eigenvector condition, with the strongest witness.

    When several eigenvalues violate the condition, the certificate is kept
    for the one of largest modulus and the rest are listed in
    ``other_violations``.
    """

    passed: bool
    certificate: Certificate | None = None
    other_violations: tuple[complex, ...] = ()

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "other_violations": [
                {"re": v.real, "im": v.imag} for v in self.other_violations
            ],
        }


@dataclass(frozen=True)
class SparsityConditionResult:
    """Pass/fail for s >= N - rank(A), with the numbers that decided it."""

    passed: bool
    s: int
    n_states: int
    rank_a: int

    @property
    def required(self) -> int:
        return self.n_states - self.rank_a

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "s": self.s,
            "n_states": self.n_states,
            "rank_a": self.rank_a,
            "required": self.required,
        }


@dataclass(frozen=True)
class ControllabilityReport:
    """Aggregated verdict: controllable iff every applicable condition passed."""

    verdict: str  # "controllable" | "uncontrollable"
    mode: str  # "nonneg_sparse" | "nonneg" | "sparse"
    s: int | None
    condition_i: ConditionResult | None
    condition_ii: ConditionResult | None
    condition_iii: SparsityConditionResult | None
    eigenvalues: tuple[dict, ...]
    tolerances: Tolerances

    @property
    def controllable(self) -> bool:
        return self.verdict == "controllable"

    @property
    def certificate(self) -> Certificate | None:
        for cond in (self.condition_i, self.condition_ii):
            if cond is not None and cond.certificate is not None:
                return cond.certificate
        return None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "s": self.s,
            "condition_i": self.condition_i.to_dict() if self.condition_i else None,
            "condition_ii": self.condition_ii.to_dict() if self.condition_ii else None,
            "condition_iii": self.condition_iii.to_dict() if self.condition_iii else None,
            "eigenvalues": list(self.eigenvalues),
            "tolerances": self.tolerances.to_dict(),
        }


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


def _annihilates_b(b: np.ndarray, basis: np.ndarray, cutoff: float) -> bool:
    """True when some unit z in the span of ``basis`` has |z^T B| <= cutoff.

    The basis is orthonormal, so that minimum is the smallest singular value
    of B^T Z, and it is zero when Z has more columns than B.
    """
    if basis.shape[1] > b.shape[1]:
        return True
    zb = b.T @ basis
    if zb.shape[1] == 1:
        return float(np.linalg.norm(zb)) <= cutoff
    return float(np.linalg.svd(zb, compute_uv=False)[-1]) <= cutoff


def _condition_i(sys: SystemPair, eig: LeftEigenSystem, tol: Tolerances) -> ConditionResult:
    # rank(B^T Z) < dim Z on each left eigenbasis Z. |lambda| + |A|_F + |B|_F
    # bounds sigma_max([lambda I - A | B]), the scale the pencil test cuts at.
    scale = float(np.linalg.norm(sys.A)) + float(np.linalg.norm(sys.B))
    violations = []
    for group in eig.groups:
        lam = group.eigenvalue
        if _annihilates_b(sys.B, group.basis, tol.rank_rtol * (abs(lam) + scale)):
            violations.append(lam)
    if not violations:
        return ConditionResult(passed=True)
    violations.sort(key=lambda v: (-abs(v), v.real, v.imag))
    lam = violations[0]
    pencil = np.hstack(
        [
            (lam * np.eye(sys.n) - sys.A.astype(np.complex128))
            if lam.imag
            else (lam.real * np.eye(sys.n) - sys.A),
            sys.B,
        ]
    )
    left_null = null_space_basis(pencil.T, tol)
    if left_null.shape[1] == 0:
        _, _, vh = np.linalg.svd(pencil.T)
        left_null = vh[-1:].conj().T
    z = _normalize_max(left_null[:, 0])
    if np.iscomplexobj(z) and np.abs(z.imag).max(initial=0.0) <= tol.eig_imag_tol:
        z = z.real
    cert = Certificate(
        kind=VIOLATES_CONDITION_I,
        eigenvalue=lam,
        z=z,
        residual_eig=_eig_residual(sys, lam, z),
        max_zb=float(np.abs(z @ sys.B).max()),
    )
    return ConditionResult(passed=False, certificate=cert, other_violations=tuple(violations[1:]))


def _condition_ii(sys: SystemPair, eig: LeftEigenSystem, tol: Tolerances) -> ConditionResult:
    violations: list[tuple[complex, Certificate]] = []
    for group in eig.groups:
        if not group.is_real or group.eigenvalue.real < -tol.eig_imag_tol:
            continue
        lam = complex(group.eigenvalue.real)
        z_basis = group.basis
        witness = homogeneous_nonzero(sys.B.T @ z_basis, tol)
        if witness is None:
            continue
        z = _normalize_max(z_basis @ witness.rho)
        cert = Certificate(
            kind=VIOLATES_CONDITION_II,
            eigenvalue=lam,
            z=z,
            residual_eig=_eig_residual(sys, lam, z),
            max_zb=float((z @ sys.B).max()),
        )
        violations.append((lam, cert))
    if not violations:
        return ConditionResult(passed=True)
    violations.sort(key=lambda pair: (-abs(pair[0]), pair[0].real))
    return ConditionResult(
        passed=False,
        certificate=violations[0][1],
        other_violations=tuple(lam for lam, _ in violations[1:]),
    )


def check_condition_i(sys: SystemPair, tol: Tolerances = DEFAULT_TOL) -> ConditionResult:
    """Eigenvector rank test: rank(B^T Z) = dim Z for every left eigenbasis Z.

    Fails at lambda when some z in the left eigenspace has z^T B = 0; the
    certificate is taken from the left null space of [lambda I - A | B] at
    the violation of largest modulus. ``matrixcore.pbh_rank`` is the
    equivalent pencil test, kept as the reference.
    """
    return _condition_i(sys, left_eigensystem(sys.A, tol), tol)


def check_condition_ii(sys: SystemPair, tol: Tolerances = DEFAULT_TOL) -> ConditionResult:
    """No real eigenvalue >= 0 admits a left eigenvector z with z^T B <= 0.

    For each such eigenvalue the left eigenspace basis Z is assembled and
    a nonzero rho with B^T Z rho <= 0 is searched: by the sign of B^T z when
    Z is one vector z, by linear programming otherwise. The pass is vacuous
    when A has no real nonnegative eigenvalue.
    """
    return _condition_ii(sys, left_eigensystem(sys.A, tol), tol)


def check_condition_iii(
    sys: SystemPair, s: int, tol: Tolerances = DEFAULT_TOL
) -> SparsityConditionResult:
    """Sparsity test: s >= N - rank(A)."""
    s = validate_sparsity(s, sys.m)
    rank_a = rank(sys.A, tol)
    return SparsityConditionResult(
        passed=s >= sys.n - rank_a, s=s, n_states=sys.n, rank_a=rank_a
    )


# The report's mode, keyed by (condition ii ran, condition iii ran).
_MODES = {(True, True): "nonneg_sparse", (True, False): "nonneg", (False, True): "sparse"}


def _check(
    sys: SystemPair, s: int | None, nonneg: bool, tol: Tolerances
) -> ControllabilityReport:
    """One eigen-analysis, then condition i always, condition ii when
    ``nonneg`` and condition iii when ``s`` is given."""
    if s is not None:
        s = validate_sparsity(s, sys.m)
    eig = left_eigensystem(sys.A, tol)
    cond_i = _condition_i(sys, eig, tol)
    cond_ii = _condition_ii(sys, eig, tol) if nonneg else None
    cond_iii = check_condition_iii(sys, s, tol) if s is not None else None
    passed = all(
        cond.passed for cond in (cond_i, cond_ii, cond_iii) if cond is not None
    )
    return ControllabilityReport(
        verdict="controllable" if passed else "uncontrollable",
        mode=_MODES[nonneg, s is not None],
        s=s,
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        eigenvalues=tuple(group.to_dict() for group in eig.groups),
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
    N - rank(A) = dim ker A^T <= m. The error therefore means that the
    relative cut of ``rank(A)`` (``rank_rtol`` times the largest singular
    value) disagrees with the eigenvalues and eigenspaces that condition i
    was decided on.
    """
    if not check_nonneg(sys, tol).controllable:
        return None
    required = sys.n - rank(sys.A, tol)
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
    report = check_nonneg_sparse(sys, max(1, sys.m - 1), tol)
    if not (report.condition_i.passed and report.condition_ii.passed):
        return True
    return report.controllable


@dataclass(frozen=True)
class CertificateCheck:
    """Re-evaluation of a certificate against a system, with residuals."""

    valid: bool
    residual_eig: float
    max_zb: float
    eig_ok: bool
    sign_ok: bool
    lambda_ok: bool

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "residual_eig": self.residual_eig,
            "max_zb": self.max_zb,
            "eig_ok": self.eig_ok,
            "sign_ok": self.sign_ok,
            "lambda_ok": self.lambda_ok,
        }


def verify_certificate(
    sys: SystemPair, cert: Certificate, tol: Tolerances = DEFAULT_TOL
) -> CertificateCheck:
    """Independently re-check a certificate's algebra against (A, B).

    Accepts any nonzero scaling of z; the vector is max-normalized before
    the tolerance comparisons so the slacks are scale-free.
    """
    z = np.asarray(cert.z)
    if z.ndim != 1 or z.size != sys.n:
        raise InputError(f"certificate z must have length {sys.n}, got shape {z.shape}")
    if np.abs(z).max(initial=0.0) <= 0.0:
        return CertificateCheck(False, np.inf, np.inf, False, False, False)
    z = z / np.abs(z).max()  # positive scaling keeps sign constraints intact
    lam = cert.eigenvalue
    scale = 1.0 + float(np.linalg.norm(sys.A, 2))
    residual = _eig_residual(sys, lam, z)
    eig_ok = residual <= tol.eig_imag_tol * scale
    zb = z @ sys.B
    if cert.kind == VIOLATES_CONDITION_I:
        max_zb = float(np.abs(zb).max())
        sign_ok = max_zb <= tol.ineq_tol
        lambda_ok = True
    elif cert.kind == VIOLATES_CONDITION_II:
        if np.iscomplexobj(z) and np.abs(z.imag).max(initial=0.0) > tol.eig_imag_tol:
            return CertificateCheck(False, residual, float(np.abs(zb).max()), eig_ok, False, False)
        zb = np.real(zb)
        max_zb = float(zb.max())
        sign_ok = max_zb <= tol.ineq_tol
        lambda_ok = (
            abs(lam.imag) <= tol.eig_imag_tol and lam.real >= -tol.eig_imag_tol
        )
    else:
        raise InputError(f"unknown certificate kind {cert.kind!r}")
    return CertificateCheck(
        valid=bool(eig_ok and sign_ok and lambda_ok),
        residual_eig=residual,
        max_zb=max_zb,
        eig_ok=bool(eig_ok),
        sign_ok=bool(sign_ok),
        lambda_ok=bool(lambda_ok),
    )


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
    nonzero serves as a probe direction.
    """
    z = np.asarray(cert.z)
    direction = np.real(z)
    if np.linalg.norm(direction) <= 1e-12 * max(1.0, np.abs(z).max()):
        direction = np.imag(z)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise InputError("certificate z is zero")
    return direction / norm
