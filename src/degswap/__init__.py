"""Swap Markov chains on bipartite degree sequences.

Realization and graphicality testing, constructive swap transformations,
the uniform-sampling swap chain, alternating-cycle decompositions of
symmetric differences, canonical swap paths driven by friendly chord
paths, and exact desk-scale mixing diagnostics (spectra, distance decay,
congestion of the path system).
"""

__version__ = "0.1.0"

from .canonical import (FMatrix, FriendlyPath, OKKOSpec, SteinhausSet, canonical_path,
                        f_matrix, find_friendly_path, hat_matrix, ok_ko_step,
                        path_along_cycle, path_distribution, switch_distance)
from .chain import sample
from .core import (BipartiteDegreeSequence, BipartiteGraph, EdgePartition, Swap,
                   allowed_swaps, apply_swap, greedy_realize, is_graphical,
                   symmetric_difference)
from .errors import DegSwapError, Exceeds, NotGraphical, Unreachable
from .mixing import (StateSpace, TransitionMatrix, build_kernel, congestion,
                     count_realizations, enumerate_states, spectral_gap,
                     total_variation_time, tv_mixing_time)
from .pairings import (AlternatingCycle, CircuitDecomposition, Pairing, all_pairings,
                       decompose, enumerate_pairings_count, random_pairing)
from .ryser import ryser_sequence, swap_distance

__all__ = [name for name in dir() if not name.startswith("_")]
