"""Photon-counting and homodyne statistics of continuously monitored
quantum systems, computed by direct integration of the reduced
characteristic-operator evolution on a truncated two-mode Fock space."""

__version__ = "0.1.0"

from .errors import (AliasingError, ConfigError, ContmeasError,
                     ContractivityError, DimensionMismatchError,
                     IntegrationError, InversionQualityError, ValidationError)
from .fock import (SystemOperator, TruncatedSpace, guard_band_leakage,
                   ladder_a, ladder_a_dag, ladder_b, ladder_b_dag)
from .signals import ZERO, Constant, FieldProfile, Harmonic, TestFunction
from .model import (DpoParams, ModelSpec, check_dissipativity,
                    check_S_unitary, dpo_laser_field, dpo_model,
                    trivial_model)
from .measurement import ObservableSpec, dpo_observables
from .generator import GeneratorContext, GeneratorStack, generator_at
from .evolution import (EvolutionConfig, EvolutionResult, composition_check,
                        evolve, is_state)
from .statistics import (counting_axis, counting_distribution,
                         diffusive_axis, homodyne_distribution,
                         invert_counting, invert_homodyne, joint_charfunc,
                         on_interval)
from .oracle import dense_expm_propagate, duality_check, system_free_charfunc
