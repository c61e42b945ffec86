"""Command-line interface over scene files.

Exit codes: 0 success, 1 verification or numeric failure, 2 invalid input.
Reports are JSON on stdout unless --out is given; floats in CSV output use
17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .app import Scene, emit_csv, load_scene, render_svg, run_verify, sample_section, save_scene
from .derham import analytic_dims, case_report, discretized_dims
from .errors import (
    DecayError,
    NumericsError,
    TorusMirrorError,
    UnsupportedError,
    ValidationError,
    WindowError,
)
from .floer import build_complex, cohomology_dims, complex_report
from .fourier import convolve


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _parse_grid(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    if not match:
        raise ValidationError(f"--grid must look like 10x8, got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _cmd_inspect(args) -> int:
    scene = load_scene(args.scene)
    objects = []
    for tt in scene.objects:
        geo = tt.geometry
        objects.append(
            {
                "id": tt.id,
                "p": tt.graph.p,
                "q": tt.graph.q,
                "c": tt.graph.c,
                "harmonics": len(tt.graph.wiggle),
                "rank": tt.rank,
                "quasi_unitary": tt.system.is_quasi_unitary(),
                "components": len(geo.components),
                "positive_crossings": len(geo.positives),
                "negative_crossings": len(geo.negatives),
            }
        )
    _emit({"objects": objects, "params": asdict(scene.params)}, args.out)
    return 0


def _cmd_floer(args) -> int:
    scene = load_scene(args.scene)
    tt = scene.get(args.object)
    report = complex_report(build_complex(tt), scene.params.rank_tol)
    report["object"] = tt.id
    _emit(report, args.out)
    return 0


def _cmd_derham(args) -> int:
    scene = load_scene(args.scene)
    tt = scene.get(args.object)
    params = scene.params
    if args.grid is not None:  # --grid 0 gives grid_h = inf, which validation rejects
        params = replace(params, grid_h=1.0 / args.grid if args.grid else float("inf"))
    if args.window is not None:
        params = replace(params, window=args.window)
    floer = cohomology_dims(build_complex(tt), params.rank_tol)
    analytic = analytic_dims(tt, rank_tol=params.rank_tol)
    discretized = discretized_dims(tt, h=params.grid_h, big_t=params.window)
    _emit(
        {
            "object": tt.id,
            "cases": case_report(tt),
            "floer_dims": list(floer),
            "analytic_dims": list(analytic),
            "discretized_dims": list(discretized),
        },
        args.out,
    )
    return 0


def _cmd_fourier_sample(args) -> int:
    scene = load_scene(args.scene)
    tt = scene.get(args.object)
    n_t, n_x = _parse_grid(args.grid)
    emit_csv(sample_section(tt, n_t, n_x, scene.params.K), args.out)
    return 0


def _cmd_convolve(args) -> int:
    if not args.out:
        raise ValidationError("convolve writes a scene file; pass --out")
    scene = load_scene(args.scene)
    ids = args.objects.split(",")
    if len(ids) != 2:
        raise ValidationError(f"--objects takes exactly two comma-separated ids, got {args.objects!r}")
    results = convolve(scene.get(ids[0]), scene.get(ids[1]))
    save_scene(Scene(tuple(results), scene.params), args.out)
    return 0


def _cmd_verify(args) -> int:
    scene = load_scene(args.scene)
    report = run_verify(scene)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _cmd_plot(args) -> int:
    if not args.out:
        raise ValidationError("plot writes an SVG file; pass --out")
    render_svg(load_scene(args.scene), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmirror",
        description="Numerical mirror symmetry on a torus fibered over a circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scene", required=True, help="scene JSON file")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.set_defaults(func=func)
        return p

    add("inspect", _cmd_inspect, "summarize the scene's objects")

    p = add("floer", _cmd_floer, "intersection complex report for one object")
    p.add_argument("--object", required=True)

    p = add("derham", _cmd_derham, "case table and all three dimension routes")
    p.add_argument("--object", required=True)
    p.add_argument("--grid", type=int, default=None, help="grid resolution N (h = 1/N)")
    p.add_argument("--window", type=float, default=None, help="truncation half-width")

    fourier = sub.add_parser("fourier", help="mirror-side sampling")
    fsub = fourier.add_subparsers(dest="fourier_command", required=True)
    p = fsub.add_parser("sample", help="sample the theta section on a grid, CSV out")
    p.add_argument("--scene", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--grid", required=True, help="AxB grid, e.g. 16x16")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fourier_sample)

    p = add("convolve", _cmd_convolve, "convolve two objects into a new scene file")
    p.add_argument("--objects", required=True, help="two ids, comma separated")

    add("verify", _cmd_verify, "run all pipelines and cross-checks")

    p = add("plot", _cmd_plot, "SVG of the fundamental domain")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, UnsupportedError, DecayError, WindowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NumericsError, TorusMirrorError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
