"""Privacy-preserving entity resolution over a data-oblivious machine.

Two data owners encode and block their records locally; a computation host
links them over encrypted values using ternary arithmetic selection, private
matrix manipulation, and one of five set-intersection-size strategies, with
candidate-pair obfuscation hiding the true candidate count.  Backends:
a cost-accounting oblivious simulator with capability profiles, whose
``generic`` profile is the cleartext reference, and a simulated three-party
additive-secret-sharing runtime.
"""

from .backends import (Capabilities, DecryptionAuthority, OpCostLedger, SimBackend,
                       assert_oblivious, make_backend)
from .blocking import (BandPlan, MinHasher, TokenSet, band_keys,
                       build_block_index, optimal_band_plan, pack_tokens,
                       tokenize_bigrams)
from .errors import (AuthorityError, CapabilityError, ContextMismatchError,
                     DomainError, OblivLinkError, ShapeError, StageError,
                     TaintViolation)
from .evalkit import (CorruptionProfile, GoldStandard, MetricsReport, Record,
                      compute_metrics, generate_dataset, jaccard_fraction,
                      performance_sweep, plain_blocked_pairs, plain_matches)
from .intersect import (JaccardParams, Strategy, intersection_size, isect_mj,
                        isect_pj, isect_so, isect_ve, isect_vr, jaccard_cells,
                        jaccard_match, pick_strategy, supported_strategies, zero_count)
from .machine import (EQ_BIT_ERROR, Machine, PrivateBool, PrivateMatrix, PrivateScalar,
                      PrivateVector, Runs, TAU_BOOL, TAU_NUM, XI_DEFAULT)
from .pipeline import (ObfuscationPolicy, PartyUpload, PipelineConfig,
                       RunResult, finalize, filter_and_resolve, merge_and_dedup,
                       obfuscate, prepare_upload, read_party_dir, run_pper,
                       run_pper_from_uploads, write_party_dir)

__version__ = "0.1.0"

__all__ = [
    "Capabilities", "DecryptionAuthority", "OpCostLedger",
    "SimBackend", "assert_oblivious", "make_backend",
    "BandPlan", "MinHasher", "TokenSet", "band_keys",
    "build_block_index", "optimal_band_plan", "pack_tokens", "tokenize_bigrams",
    "AuthorityError", "CapabilityError", "ContextMismatchError", "DomainError",
    "OblivLinkError", "ShapeError", "StageError", "TaintViolation",
    "CorruptionProfile", "GoldStandard", "MetricsReport", "Record",
    "compute_metrics", "generate_dataset", "jaccard_fraction",
    "performance_sweep", "plain_blocked_pairs", "plain_matches",
    "JaccardParams", "Strategy", "intersection_size", "isect_mj", "isect_pj",
    "isect_so", "isect_ve", "isect_vr", "jaccard_cells", "jaccard_match", "pick_strategy",
    "supported_strategies", "zero_count",
    "Machine", "PrivateBool", "PrivateMatrix", "PrivateScalar", "PrivateVector", "Runs",
    "EQ_BIT_ERROR", "TAU_BOOL", "TAU_NUM", "XI_DEFAULT",
    "ObfuscationPolicy", "PartyUpload", "PipelineConfig", "RunResult",
    "finalize", "filter_and_resolve", "merge_and_dedup", "obfuscate",
    "prepare_upload", "read_party_dir", "run_pper", "run_pper_from_uploads",
    "write_party_dir",
    "__version__",
]
