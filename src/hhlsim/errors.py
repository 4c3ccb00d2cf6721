"""Exception hierarchy shared by all hhlsim modules."""


class HhlsimError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(HhlsimError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotUnitary(HhlsimError):
    """Matrix fails the U^dagger U = I check beyond tolerance."""


class DimensionMismatch(HhlsimError):
    """Operands have incompatible shapes."""


class EmptyKeepSet(HhlsimError):
    """Partial trace asked to keep no qubits."""


class IndexOutOfRange(HhlsimError):
    """Gate or measurement references a qubit outside the register."""


class WidthMismatch(HhlsimError):
    """State and circuit widths disagree."""


class ZeroProbabilityBranch(HhlsimError):
    """Requested measurement outcome has (numerically) zero probability."""


class EigenvalueNotEncodable(HhlsimError):
    """Eigenvalue cannot be represented on the clock register as required."""


class SingularMatrix(HhlsimError):
    """Pivot collapsed during elimination; system has no unique solution."""


class NotPositiveDefinite(HhlsimError):
    """Matrix is not positive definite where the algorithm requires it."""


class OutOfCalibrationRange(HhlsimError):
    """Temperature outside the window the drift formulas were fitted on."""


class FitDiverged(HhlsimError):
    """Peak fit failed to converge within the iteration budget."""


class InsufficientRecords(HhlsimError):
    """Tomography records do not cover the required pulse catalog."""


class SubspaceMassTooSmall(HhlsimError):
    """Solution subspace carries too little probability to report a ratio."""


class ZeroReferenceComponent(HhlsimError):
    """Relative error undefined: a reference component is zero."""


class RegisterTooWide(HhlsimError):
    """Register's final state would exceed the memory budget."""


class ConfigParseError(HhlsimError):
    """Run configuration file is malformed or incomplete."""
