"""Exception taxonomy shared across the package."""


class DefectScanError(Exception):
    """Base class for all package-specific errors."""


class ConfigInvalid(DefectScanError):
    """Scene description violates a geometric or material invariant."""


class SchemaError(DefectScanError):
    """An input file does not match its declared schema."""


class SingularSystem(DefectScanError):
    """Sparse LU factorization failed or the operator is numerically singular."""


class PointInPml(DefectScanError):
    """Requested source point lies inside or too close to the PML collar."""


class CircleOutOfBounds(DefectScanError):
    """Far-field extraction circle does not fit inside the physical region."""


class ModeSystemSingular(DefectScanError):
    """A per-mode 2x2 transmission system is singular."""


class NotHermitian(DefectScanError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""


class NoConvergence(DefectScanError):
    """LAPACK's Hermitian eigensolver did not converge."""


class PointOutsideD(DefectScanError):
    """Sampling point lies outside the host region."""


class MissingFields(DefectScanError):
    """Background total fields were not retained / supplied."""


class EmptySpectrum(DefectScanError):
    """All eigenvalues fell below the Picard floor."""


class DimensionMismatch(DefectScanError):
    """Operands disagree in size, wavenumber or direction set."""


class SingularScattering(DefectScanError):
    """LU inversion of the scattering operator failed."""


class NoDefectSignal(DefectScanError):
    """Relative far-field data carries no defect signature."""
