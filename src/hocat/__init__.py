"""Finite categories with weak equivalences: homotopy quotients,
zigzag localization, and deformation chains.

The package is organized bottom-up: fincat holds the table form and
validation, congruence the congruences, each with its quotient
category, projection and inverse classes, weq the family axioms
and split generation, homotopy the relation, its certification and the
``Analysis`` session that computes each stage once, zigzag the bounded
move search with replayable traces, deformation the pointwise chains,
and cli the file-driven pipeline.
"""

from .congruence import (Congruence, Precongruence, kernel_congruence, least_congruence,
                         quotient, sigma_of)
from .deformation import (ConjugationReport, Deformation, DeformationChain, HoCr,
                          build_ho_cr, check_conjugation, check_inverts_w,
                          compose_chain, validate_deformation)
from .errors import FormatError, HocatError, MoveError, ValidationError
from .fincat import (CatFunctor, FinCat, Mor, RawCategory, Subcategory, load_file,
                     load_spec, opposite, resolve_weqs, subcategory, validate_category)
from .homotopy import (Analysis, Fork, HomotopyWitness, SaturationReport,
                       WhiteheadCertificate, WhiteheadResult, certify_whitehead,
                       check_common_fork, check_fork_condition, check_rc_transitive,
                       check_saturation, homotopy_congruence, r_left, r_left_comp,
                       r_right, r_right_comp)
from .weq import (AxiomReport, SplitCertificate, SplitGenResult, WeqFamily,
                  check_split_generated, check_weq_axioms, find_splits)
from .zigzag import (BWD, FWD, EquivResult, Move, MoveTrace, Zigzag, apply_move,
                     bounded_equiv, connect, invert_trace, make_zigzag, nonfullness_witness,
                     reduce_backward_splits, replay, zigzag_from_json, zigzag_to_json)

__version__ = "0.1.0"
