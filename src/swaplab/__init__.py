"""swaplab: pointer-measurement simulation and outcome-swap symmetry certification."""

__version__ = "0.1.0"

from .linalg import (  # noqa: E402
    ComplexVector,
    DenseOperator,
    DimensionError,
    KindError,
    NumericalError,
    Spectrum,
    hermitian_exponential,
    random_unitary,
    tensor_product,
    unitarity_defect,
)
from .measurement import (  # noqa: E402
    BranchReadout,
    MeasurementSetup,
    ObservableSpec,
    PointerGrid,
    evolve,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_spectrum,
    readout,
    ready_state,
    translation_map,
)
from .symmetry import (  # noqa: E402
    GeometricDiagonalModel,
    SwapCertificate,
    certify_lemma1,
    certify_lemma2,
    parity_swap,
    scaling_permutation,
)
from .isomorphism import (  # noqa: E402
    EvolutionTriple,
    IsomorphismReport,
    Witness,
    check_isomorphism,
    distinctness_witness,
)
from .scenario import (  # noqa: E402
    ScenarioReport,
    run_classical_level,
    run_multiworld,
    run_prince_pauper,
)
from .config import ConfigError, RunConfig, parse_config, serialize_config  # noqa: E402
from .reporting import emit_distribution_csv, emit_report  # noqa: E402
