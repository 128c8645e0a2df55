"""Timing and counting wrappers installed on the program's public functions.

The wrappers are put in from outside: for each traced function, every
module global and class attribute of the package that holds the original
object is replaced, so a caller that imported the name directly (``toric``
takes ``rational_rank`` from ``linalg`` by name) also goes through the
wrapper.  ``uninstall`` puts every original back.

Times are inclusive and counted at the outermost call of each group only,
so a group whose functions call each other is not counted twice.  Calls
are counted at every level.  ``cli.self`` is ``cli.main`` minus the spans
of all other groups that start directly under it: argument parsing,
rendering and the small helpers no group covers.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

PACKAGE = "quintic_mirror"

# group -> (module, attribute path) of each function timed as that group
GROUPS = {
    "exactnum.series_mul": [("exactnum", "TruncatedSeries.__mul__")],
    "exactnum.series_inverse": [("exactnum", "TruncatedSeries.inverse")],
    "exactnum.series_exp": [("exactnum", "TruncatedSeries.exp")],
    "exactnum.series_reversion": [("exactnum", "TruncatedSeries.reversion")],
    "exactnum.series_compose": [("exactnum", "TruncatedSeries.compose")],
    "picard_fuchs.frobenius": [("picard_fuchs", "frobenius_at_zero")],
    "picard_fuchs.residual": [("picard_fuchs", "apply_operator")],
    "picard_fuchs.monodromy": [
        ("picard_fuchs", "monodromy_at_zero"),
        ("picard_fuchs", "monodromy_at_infinity"),
        ("picard_fuchs", "monodromy_at_infinity_power_basis"),
    ],
    "enumerative.mirror_map": [("enumerative", "build_mirror_map")],
    "enumerative.coupling": [("enumerative", "yukawa_normalized")],
    "enumerative.extract": [("enumerative", "extract_instantons")],
    "toric.hull": [("toric", "LatticePolytope.__init__")],
    "toric.dual": [
        ("toric", "LatticePolytope.is_reflexive"),
        ("toric", "LatticePolytope.polar_dual"),
    ],
    "toric.lattice_points": [("toric", "LatticePolytope.lattice_points")],
    "linalg.rank": [("linalg", "rational_rank"), ("linalg", "SquareExactMatrix.rank")],
    "linalg.kernel": [
        ("linalg", "canonical_kernel_basis"),
        ("linalg", "integer_kernel_basis"),
        ("linalg", "integer_left_kernel_basis"),
    ],
    "linalg.smith": [("linalg", "smith_normal_form")],
    "linalg.matrix_inverse": [
        ("linalg", "SquareExactMatrix.inverse"),
        ("linalg", "rational_inverse"),
        ("linalg", "unimodular_inverse"),
    ],
    "glsm.transpose": [
        ("glsm", "transpose_mirror"),
        ("glsm", "group_from_charges"),
        ("glsm", "invariant_coordinates"),
    ],
    "glsm.kahler": [("glsm", "kahler_parameter")],
    "kontsevich.classes": [
        ("kontsevich", "chern_from_adjunction"),
        ("kontsevich", "euler_number"),
        ("kontsevich", "quintic_twist"),
        ("kontsevich", "quintic_spherical"),
    ],
    "kontsevich.order": [("kontsevich", "matrix_order"), ("kontsevich", "jordan_profile")],
    "syz.classify": [
        ("syz", "VertexData.from_rows_triple"),
        ("syz", "fixed_space_profile"),
        ("syz", "classify_vertex"),
    ],
    "syz.counts": [("syz", "quintic_fibration_summary")],
    "syz.k3": [("syz", "k3_semistable_check"), ("syz", "sl2_mirror_selfconjugacy")],
    "cli.main": [("cli", "main")],
}

CALL_COUNTS = {
    "exactnum.series_mul_calls": "exactnum.series_mul",
    "picard_fuchs.frobenius_calls": "picard_fuchs.frobenius",
    "enumerative.reversion_calls": "exactnum.series_reversion",
    "linalg.rank_calls": "linalg.rank",
    "linalg.kernel_calls": "linalg.kernel",
}


def coefficient_bits(series) -> int:
    """Largest numerator or denominator bit length among rational coefficients."""
    best = 0
    for c in series.coeffs:
        c = Fraction(c)
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Per-group inclusive time and call counts for one traced round."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self) -> None:
        self.ns = dict.fromkeys(GROUPS, 0)
        self.calls = dict.fromkeys(GROUPS, 0)
        self.depth = dict.fromkeys(GROUPS, 0)
        self.active = 0
        self.under_main_ns = 0
        self.hull_points = 0
        self.coeff_bits = 0

    # -- installation ---------------------------------------------------

    def _wrap(self, group, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[group] += 1
            outer = self.depth[group] == 0
            top = self.active == 1 and group != "cli.main"
            if outer:
                self._observe_args(group, args)
            self.depth[group] += 1
            self.active += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.depth[group] -= 1
                self.active -= 1
                if outer:
                    self.ns[group] += elapsed
                if top:
                    self.under_main_ns += elapsed
            if outer:
                self._observe_result(group, result)
            return result

        return wrapper

    def _observe_args(self, group, args) -> None:
        if group == "toric.hull" and len(args) > 1 and hasattr(args[1], "__len__"):
            self.hull_points += len(args[1])

    def _observe_result(self, group, result) -> None:
        if group == "enumerative.coupling":
            self.coeff_bits = max(self.coeff_bits, coefficient_bits(result))
        elif group == "enumerative.mirror_map":
            self.coeff_bits = max(self.coeff_bits, coefficient_bits(result.z_of_q))

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for group, targets in GROUPS.items():
            for module_name, path in targets:
                owner = sys.modules[f"{PACKAGE}.{module_name}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
                original = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(group, original)
                if cls_path:
                    for key, value in list(owner.__dict__.items()):
                        if value is raw:
                            replacement = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                            self._replace(owner, key, value, replacement)
                else:
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._replace(module, key, value, wrapper)

    def _replace(self, owner, key, original, replacement) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of the round since the last reset."""
        out = {f"{g}_ms": self.ns[g] / 1e6 for g in GROUPS}
        for name, group in CALL_COUNTS.items():
            out[name] = self.calls[group]
        out["cli.self_ms"] = (self.ns["cli.main"] - self.under_main_ns) / 1e6
        out["toric.hull_points"] = self.hull_points
        out["exactnum.coeff_bits_max"] = self.coeff_bits
        return out
