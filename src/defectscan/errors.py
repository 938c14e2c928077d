"""Exception taxonomy shared across the package.

Each class carries the exit status the command line reports for it: 2 for bad
input, 3 for numerical failures, 4 for inconsistent inputs, 5 for data without
a defect signature.
"""


class DefectScanError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 2


class ConfigInvalid(DefectScanError):
    """A scene, grid or sample point violates a geometric or material invariant."""


class SchemaError(DefectScanError):
    """An input file does not match its declared schema."""


class UsageError(DefectScanError):
    """Command-line arguments are missing, unknown or malformed."""


class SingularSystem(DefectScanError):
    """Sparse LU factorization failed or the operator is numerically singular."""
    exit_code = 3


class ModeSystemSingular(DefectScanError):
    """A per-mode 2x2 transmission system is singular."""
    exit_code = 3


class NotHermitian(DefectScanError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""
    exit_code = 3


class NoConvergence(DefectScanError):
    """LAPACK's Hermitian eigensolver did not converge."""
    exit_code = 3


class PointOutsideD(DefectScanError):
    """Sampling point lies outside the host region."""
    exit_code = 4


class DimensionMismatch(DefectScanError):
    """Operands disagree in size, wavenumber or direction set."""
    exit_code = 4


class SingularScattering(DefectScanError):
    """The scattering operator is too far from unitary for S* to stand for S^-1."""
    exit_code = 3


class NoDefectSignal(DefectScanError):
    """Relative far-field data carries no defect signature."""
    exit_code = 5
