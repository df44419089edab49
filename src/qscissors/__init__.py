"""Eight-port quantum scissors toolkit.

Simulation and design of post-selected optical-state truncation: Fock-state
evolution on the scattering matrix of beam-splitter/phase-shifter networks,
heralded qudit truncation and teleportation (d = 2..6), least-squares
parameter search for truncation / hole-burning / Fock-filtering targets,
and truncation fidelities under realistic photodetectors.
"""

from .fock import (InputField, MultimodeState, QuditState, coherent_expansion,
                   embed_input, fock_expansion, fock_product_state, total_photons)
from .network import (BeamSplitter, GeneralBsSpec, GqsdSpec, PhaseShifter,
                      decompose_general_bs, general_bs_matrix, gqsd_matrix,
                      scattering_matrix, verify_unitary)
from .evolution import (OracleLimitError, detected_blocks, evolve, evolve_fock_oracle,
                        projected_amplitudes)
from .scissors import (ConditionalAmplitudes, MeasurementEvent, TruncationTarget,
                       ZeroProbabilityError, analytic_amplitudes,
                       conditional_amplitudes, heralded_amplitude,
                       qutrit_bs_relation, symmetry_transforms, truncate,
                       truncation_defect)
from .search import (SearchConfig, SolutionRecord, objective, optimize,
                     params_to_spec, refine, spec_to_params)
from .catalog import (CatalogEntry, CatalogResult, build_catalog,
                      qutrit_relation_entries, verify_catalog, verify_entry)
from .detectors import (CONVENTIONAL, NUMBER_RESOLVING, SINGLE_PHOTON,
                        DetectorModel, conditional_density_matrix, fidelity,
                        heralded_density_matrix, nu_from_dark_rate, outcome_family,
                        outcome_for_count, povm_for_outcome, povm_number_resolving)

__version__ = "0.1.0"
