"""obddlab: width-bounded OBDDs in four flavors.

The package models deterministic, nondeterministic, probabilistic and
quantum ordered binary decision diagrams of bounded width, builds the
classic explicit constructions for counting, balance and shuffled-equality
functions, and verifies width lower bounds and model separations at small
scale with exact brute-force oracles and Markov-chain period certificates.
"""

from .core import (
    AcceptanceMode,
    CapExceededError,
    ComputesResult,
    InvalidProgramError,
    ModeKindMismatchError,
    NotStableError,
    ObddError,
    ObddProgram,
    StateVector,
    ValidationReport,
    VariableOrder,
    acceptance_table,
    computes,
    level_map,
    level_relation,
    level_stochastic,
    level_unitary,
    lift_deterministic,
    natural_order,
    nobdd_to_obdd_subset,
    node_trace,
    pairing_order,
    program_width,
    programs_structurally_equal,
    reachable_widths,
    simulate,
    stable_symbol_chain,
    state_trace,
    validate_program,
)
from .functions import (
    STAR,
    FunctionSpec,
    MarkerValueSplit,
    eqs,
    format_truth_table,
    from_table,
    make_function,
    mod_count,
    not_eqs,
    not_o,
    not_o_prefix,
    not_pal,
    not_power,
    not_square,
    partial_mod,
    read_truth_table,
    split_marker_value,
)
from .constructions import (
    PrimeBasis,
    build_det_counter,
    build_det_eqs,
    build_det_mod,
    build_det_notpal,
    build_det_partialmod,
    build_nobdd_noteqs_fingerprint,
    build_nobdd_noto_fingerprint,
    build_quantum_nondet_noto,
    build_quantum_partialmod,
    primes_for_fingerprint,
    quantum_noto_cutoff,
)
from .oracles import (
    PrefixClass,
    WidthReport,
    distinguishability_lower_bound,
    min_width_over_orders,
    minimal_obdd,
    partial_min_width_exact,
    prefix_classes,
    stable_exhaustive_search,
    subfunction_widths,
)
from .markov import (
    CertificateResult,
    MarkovDecomposition,
    classify_states,
    limiting_distribution,
    period_lcm_certificate,
)
from .serialize import (
    ProgramFormatError,
    decode_program,
    encode_program,
)
from .reports import REPORT_TASKS, ReportTable, SeparationRow, run_report

__version__ = "0.1.0"
