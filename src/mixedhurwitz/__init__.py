"""Exact arithmetic for triply mixed Hurwitz numbers.

Four independent routes to the same enumerations -- brute-force symmetric
group counting, character sums, topological recursion, and tropical covers --
with quasimodular fitting and quantum-curve verification on top.

Submodules load on first use: ``import mixedhurwitz`` imports none of them,
and ``mixedhurwitz.ceo_omega`` imports only what ``spectral`` needs.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "errors": "DomainError ResourceLimitError WindowError",
    "partitions": "HurwitzSpec enumerate_partitions class_size aut_count "
                  "hook_dim contents sym_eval stirling",
    "symgroup": "count_triply_mixed count_monotone_of_fixed_target oracle_N",
    "commutators": "count_commutator_type",
    "characters": "character central_character_f hurwitz_by_characters "
                  "connected_series connected_hurwitz_qseries "
                  "commutator_count_by_characters",
    "series": "QSeries",
    "quasimodular": "eisenstein q_bracket Q_k_eval completion_coefficients "
                    "fit_quasimodular QuasimodularPoly",
    "quantum_curve": "partition_coefficient word_coefficient residual_max_abs",
    "spectral": "ceo_omega extract_C cut_and_join_C closed_form_C",
    "ratfun": "spectral_data",
    "double_recursion": "N_value double_hurwitz base_g_assembly",
    "tropical": "gw_vertex_multiplicity enumerate_elliptic_covers "
                "tropical_elliptic_sum per_type_series tropical_double_sum",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """A public name, read from its home module; the first read imports it."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
