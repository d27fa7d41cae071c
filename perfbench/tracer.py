"""Outside-in tracer: per-module spans recorded around library functions.

The library modules import each other with ``from .x import y``, so a
function object is reachable under its name in every importing module.
install() wraps each traced function once and rebinds *every* module-level
name that refers to it, in all bilipfactor modules, so calls are seen
whichever namespace they go through.  Spans are aggregated online (calls
and self time = span time minus the time of traced spans opened inside it)
to keep memory flat on runs with 10^5 calls; counters record work at the
same boundaries.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import time
from collections import defaultdict

# module -> functions wrapped: the entry points the CLI calls in each layer
# (so their time is not counted as cli.main's own), plus the helpers whose
# counts or self time a per-layer metric names.
TRACED = {
    "kernels": ("pairwise_distortion",),
    "map_engine": ("estimate_distortion", "almost_affine_fit", "sup_distance"),
    "geometry_core": ("box_lattice", "cube_lattice", "unit_cube_dyadics"),
    "factorization": (
        "factor_linear_in_cube",
        "factor_linear_outside_cube",
        "factor_shrink",
        "factor_translation_along_path",
        "check_factor_sequence",
    ),
    "shuffle": ("plan_shuffle", "execute_shuffle", "check_shuffle"),
    "corona": (
        "build_coronization",
        "check_coronization",
        "region_fit_error",
        "carleson_constant",
        "multilevel_decomposition",
    ),
    "pl_approx": ("freudenthal", "pl_interpolate", "verify_pl", "degrees_pl_batch", "complexity_count"),
    "degree": ("degree_winding_2d",),
    "jsonio": ("map_from_json", "factor_sequence_to_json"),
    "cli": ("main", "write_json_atomic"),
}

BUILDERS = frozenset(
    f"factorization.{n}"
    for n in (
        "factor_linear_in_cube",
        "factor_linear_outside_cube",
        "factor_shrink",
        "factor_translation_along_path",
    )
)

# name, unit, better, the end-to-end metric and workload it should move.
PER_LAYER = [
    ("kernels.pairwise_distortion.calls", "count", "lower", "certify wall_s, job_p50_s"),
    ("kernels.pairwise_distortion.self_s", "s", "lower", "certify wall_s, job_p50_s; decompose unchanged"),
    ("kernels.pairwise_distortion.pairs", "count", "lower", "certify wall_s, job_p50_s"),
    ("kernels.pairwise_distortion.pairs_per_s", "1/s", "higher", "certify wall_s, job_p50_s"),
    ("kernels.compiled", "flag", "higher", "certify wall_s, job_p50_s"),
    ("map_engine.estimate_distortion.calls", "count", "lower", "certify and shuffle wall_s"),
    ("map_engine.estimate_distortion.sampled", "count", "lower", "certify and shuffle wall_s"),
    ("map_engine.estimate_distortion.self_s", "s", "lower", "certify and shuffle wall_s"),
    ("map_engine.almost_affine_fit.calls", "count", "lower", "decompose wall_s"),
    ("map_engine.almost_affine_fit.self_s", "s", "lower", "decompose wall_s"),
    ("map_engine.sup_distance.self_s", "s", "lower", "certify wall_s"),
    ("factorization.builders.self_s", "s", "lower", "certify and shuffle wall_s"),
    ("factorization.factors_emitted", "count", "higher", "certify and shuffle work_per_s"),
    ("factorization.factor_yield", "ratio", "higher", "certify and shuffle wall_s"),
    ("factorization.check_factor_sequence.self_s", "s", "lower", "certify wall_s"),
    ("shuffle.plan_shuffle.self_s", "s", "lower", "shuffle wall_s"),
    ("shuffle.execute_shuffle.self_s", "s", "lower", "shuffle wall_s, peak_rss_mb"),
    ("shuffle.check_shuffle.self_s", "s", "lower", "shuffle wall_s"),
    ("corona.build_coronization.self_s", "s", "lower", "decompose wall_s, job_max_s"),
    ("corona.region_fit_error.calls", "count", "lower", "decompose wall_s, job_max_s"),
    ("corona.region_fit_error.self_s", "s", "lower", "decompose wall_s, job_max_s"),
    ("corona.carleson_constant.self_s", "s", "lower", "decompose wall_s, peak_rss_mb"),
    ("corona.multilevel_decomposition.self_s", "s", "lower", "decompose wall_s"),
    ("corona.cubes_classified", "count", "higher", "decompose work_per_s"),
    ("pl_approx.pl_interpolate.self_s", "s", "lower", "decompose job_p50_s"),
    ("pl_approx.verify_pl.self_s", "s", "lower", "decompose job_p50_s"),
    ("pl_approx.degrees_pl_batch.self_s", "s", "lower", "decompose job_p50_s"),
    ("pl_approx.degree_targets", "count", "higher", "decompose job_p50_s"),
    ("degree.degree_winding_2d.calls", "count", "lower", "decompose job_p50_s"),
    ("degree.degree_winding_2d.self_s", "s", "lower", "decompose job_p50_s"),
    ("geometry_core.box_lattice.calls", "count", "lower", "decompose wall_s, peak_rss_mb"),
    ("geometry_core.lattice_points", "count", "lower", "decompose wall_s, peak_rss_mb"),
    ("geometry_core.unit_cube_dyadics.cubes", "count", "lower", "decompose wall_s, peak_rss_mb"),
    ("cli.main.calls", "count", "higher", "all workloads: jobs per batch"),
    ("cli.write_json_atomic.self_s", "s", "lower", "certify job_p50_s, decompose job_max_s"),
    ("cli.report_bytes", "B", "lower", "certify job_p50_s, decompose job_max_s"),
    ("cli.rerun_byte_mismatch", "count", "lower", "none: run-order determinism of reports"),
    ("jsonio.factor_sequence_to_json.self_s", "s", "lower", "certify job_p50_s"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
]


def _pairs(args, result, tr: Tracer) -> None:
    n = args[0].shape[0]
    tr.counters["kernels.pairwise_distortion.pairs"] += n * (n - 1) // 2


def _certificate(args, result, tr: Tracer) -> None:
    if result.method == "sampled-pairs":
        tr.counters["map_engine.estimate_distortion.sampled"] += 1
        if tr.builder_depth:
            tr.counters["factorization.builder_certificates"] += 1


def _factors(args, result, tr: Tracer) -> None:
    tr.counters["factorization.factors_emitted"] += result.T


def _cubes(args, result, tr: Tracer) -> None:
    tr.counters["corona.cubes_classified"] += len(result.good) + len(result.bad)


def _targets(args, result, tr: Tracer) -> None:
    tr.counters["pl_approx.degree_targets"] += result[0].shape[0]


def _box_points(args, result, tr: Tracer) -> None:
    tr.counters["geometry_core.lattice_points"] += result.shape[0]


def _cube_points(args, result, tr: Tracer) -> None:
    tr.counters["geometry_core.lattice_points"] += result[0].shape[0]


def _dyadics(args, result, tr: Tracer) -> None:
    tr.counters["geometry_core.unit_cube_dyadics.cubes"] += len(result)


def _report_bytes(args, result, tr: Tracer) -> None:
    tr.counters["cli.report_bytes"] += os.path.getsize(args[0])


HOOKS = {
    "kernels.pairwise_distortion": _pairs,
    "map_engine.estimate_distortion": _certificate,
    **{name: _factors for name in BUILDERS},
    "corona.build_coronization": _cubes,
    "pl_approx.degrees_pl_batch": _targets,
    "geometry_core.box_lattice": _box_points,
    "geometry_core.cube_lattice": _cube_points,
    "geometry_core.unit_cube_dyadics": _dyadics,
    "cli.write_json_atomic": _report_bytes,
}


class Tracer:
    """Wraps TRACED functions of an imported bilipfactor; see module doc."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, self time
        self.counters: dict[str, float] = defaultdict(float)
        self.builder_depth = 0
        self._child_time: list[float] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        is_builder = name in BUILDERS
        stats = self.spans[name]
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            self.builder_depth += is_builder
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.builder_depth -= is_builder
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                stats[0] += 1
                stats[1] += dt - inner
            if hook is not None:
                hook(args, result, self)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        import bilipfactor

        modules = [bilipfactor] + [
            importlib.import_module(f"bilipfactor.{info.name}")
            for info in pkgutil.iter_modules(bilipfactor.__path__)
        ]
        for mod_name, names in TRACED.items():
            owner = importlib.import_module(f"bilipfactor.{mod_name}")
            for fn_name in names:
                orig = getattr(owner, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._rebound.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def per_layer(self, compiled: bool) -> dict[str, float]:
        """Per-layer metrics of one traced batch (trace.overhead_s and
        cli.rerun_byte_mismatch are filled in by the runner)."""
        sp, c = self.spans, self.counters
        kernel = sp["kernels.pairwise_distortion"]
        pairs = c["kernels.pairwise_distortion.pairs"]
        certs = c["factorization.builder_certificates"]
        emitted = c["factorization.factors_emitted"]
        out = {
            "kernels.pairwise_distortion.calls": kernel[0],
            "kernels.pairwise_distortion.self_s": kernel[1],
            "kernels.pairwise_distortion.pairs": pairs,
            "kernels.pairwise_distortion.pairs_per_s": pairs / kernel[1] if kernel[1] > 0 else 0.0,
            "kernels.compiled": int(compiled),
            "map_engine.estimate_distortion.calls": sp["map_engine.estimate_distortion"][0],
            "map_engine.estimate_distortion.sampled": c["map_engine.estimate_distortion.sampled"],
            "map_engine.estimate_distortion.self_s": sp["map_engine.estimate_distortion"][1],
            "map_engine.almost_affine_fit.calls": sp["map_engine.almost_affine_fit"][0],
            "map_engine.almost_affine_fit.self_s": sp["map_engine.almost_affine_fit"][1],
            "map_engine.sup_distance.self_s": sp["map_engine.sup_distance"][1],
            "factorization.builders.self_s": sum(sp[n][1] for n in sorted(BUILDERS)),
            "factorization.factors_emitted": emitted,
            "factorization.factor_yield": emitted / certs if certs else 0.0,
            "factorization.check_factor_sequence.self_s": sp["factorization.check_factor_sequence"][1],
            "corona.region_fit_error.calls": sp["corona.region_fit_error"][0],
            "corona.cubes_classified": c["corona.cubes_classified"],
            "pl_approx.degree_targets": c["pl_approx.degree_targets"],
            "degree.degree_winding_2d.calls": sp["degree.degree_winding_2d"][0],
            "geometry_core.box_lattice.calls": sp["geometry_core.box_lattice"][0],
            "geometry_core.lattice_points": c["geometry_core.lattice_points"],
            "geometry_core.unit_cube_dyadics.cubes": c["geometry_core.unit_cube_dyadics.cubes"],
            "cli.main.calls": sp["cli.main"][0],
            "cli.report_bytes": c["cli.report_bytes"],
        }
        for name in (
            "shuffle.plan_shuffle",
            "shuffle.execute_shuffle",
            "shuffle.check_shuffle",
            "corona.build_coronization",
            "corona.region_fit_error",
            "corona.carleson_constant",
            "corona.multilevel_decomposition",
            "pl_approx.pl_interpolate",
            "pl_approx.verify_pl",
            "pl_approx.degrees_pl_batch",
            "degree.degree_winding_2d",
            "cli.write_json_atomic",
            "jsonio.factor_sequence_to_json",
        ):
            out[f"{name}.self_s"] = sp[name][1]
        return out
