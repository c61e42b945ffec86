"""Scene persistence, the verification report, CLI exit codes, SVG/CSV output."""

import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import package_env, random_unitary

from torusmirror.app import (
    D_ROUTE_TOL,
    DBAR_SAMPLE_POINTS,
    DBAR_STEP,
    _MARGIN,
    _SPAN,
    Scene,
    SceneParams,
    emit_csv,
    load_scene,
    render_svg,
    run_verify,
    sample_section,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)
from torusmirror.cli import main
from torusmirror.errors import TransversalityError, ValidationError
from torusmirror.fourier import MirrorPoint, ThetaSection, dbar_residual, dbar_residuals, standard_section, theta_eval_batch
from torusmirror.geometry import LagrangianGraph, object_geometry


def object_dict(id="canonical", q=1, p=1, c=0.0, wiggle=(), monodromy=None, rank=None):
    if monodromy is None:
        monodromy = [[[1.0, 0.0]]]
    return {
        "id": id,
        "q": q,
        "p": p,
        "c": c,
        "wiggle": [{"m": m, "a": a, "b": b} for m, a, b in wiggle],
        "local_system": {"rank": rank if rank is not None else len(monodromy), "monodromy": monodromy},
    }


def scene_dict(*objects, params=None):
    data = {"objects": list(objects)}
    if params is not None:
        data["params"] = params
    return data


def write_scene(tmp_path, data, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


O13_WIGGLE = [(1, 0.46332, -0.13668), (2, -0.28601, 0.01399), (3, -0.02287, -0.17713), (4, 0.00487, 0.14513)]
O13_MONODROMY = [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]]
O13 = object_dict(id="o13", p=3, c=0.58028, wiggle=O13_WIGGLE, monodromy=O13_MONODROMY)
DATA = Path(__file__).parent / "data"
TANGENTIAL = object_dict(id="tangent", c=-0.5, wiggle=[(1, 0.0, 1.0 / (2 * math.pi))])


class TestSceneIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        mono = random_unitary(2, rng)
        data = scene_dict(
            object_dict(id="a", q=3, p=2, c=0.1 + 0.2, wiggle=[(1, 1 / 3, math.pi / 7)],
                        monodromy=[[[z.real, z.imag] for z in row] for row in mono]),
            params={"K": 30, "grid_h": 1 / 300, "window": 5.5, "rank_tol": 2e-9, "dbar_tol": 3e-6},
        )
        scene = scene_from_dict(data)
        path = tmp_path / "out.json"
        save_scene(scene, path)
        reloaded = load_scene(path)
        g0, g1 = scene.objects[0].graph, reloaded.objects[0].graph
        assert g0 == g1  # frozen dataclass equality covers every numeric field
        assert np.array_equal(scene.objects[0].system.monodromy, reloaded.objects[0].system.monodromy)
        assert scene.params == reloaded.params

    def test_defaults_applied(self):
        scene = scene_from_dict(scene_dict(object_dict()))
        assert scene.params == SceneParams()
        assert scene.ids == ("canonical",)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            scene_from_dict(scene_dict(object_dict(), object_dict()))

    def test_unknown_field_rejected(self):
        bad = object_dict()
        bad["slope"] = 1
        with pytest.raises(ValidationError, match="unknown"):
            scene_from_dict(scene_dict(bad))

    def test_missing_field_rejected(self):
        bad = object_dict()
        del bad["wiggle"]
        with pytest.raises(ValidationError, match="missing"):
            scene_from_dict(scene_dict(bad))

    def test_singular_monodromy_names_object(self):
        bad = object_dict(id="sick", monodromy=[[[0.0, 0.0]]])
        with pytest.raises(ValidationError, match="sick"):
            scene_from_dict(scene_dict(bad))

    def test_gcd_violation_names_object(self):
        with pytest.raises(ValidationError, match="twisty"):
            scene_from_dict(scene_dict(object_dict(id="twisty", q=2, p=2)))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="rank"):
            scene_from_dict(scene_dict(object_dict(rank=2)))

    @pytest.mark.parametrize(
        "local_system, reason",
        [
            ({"rank": 1.0, "monodromy": [[[1.0, 0.0]]]}, "rank must be an integer"),
            ({"rank": 1, "monodromy": [[[1.0, 0.0, 7.0]]]}, r"\[re, im\] pairs"),
            ({"rank": 1, "monodromy": [[[True, False]]]}, r"\[re, im\] pairs"),
            ({"rank": 1, "monodromy": [[["1", 0.0]]]}, r"\[re, im\] pairs"),
            ({"rank": 2, "monodromy": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}, "equal-length rows"),
        ],
    )
    def test_malformed_local_system_names_object(self, local_system, reason):
        # README: local_system.rank is an integer and monodromy entries are
        # [re, im] pairs; a float rank, a third component or booleans used
        # to load as rank 1 and the entry 1
        bad = object_dict(id="loose")
        bad["local_system"] = local_system
        with pytest.raises(ValidationError, match=f"object loose: .*{reason}"):
            scene_from_dict(scene_dict(bad))

    @pytest.mark.parametrize("field", ["q", "p", "c", "a", "monodromy"])
    def test_integer_beyond_the_double_range_names_object(self, field):
        big = 10**400  # valid JSON, but no float holds it
        bad = object_dict(id="huge", wiggle=[(1, big if field == "a" else 0.1, 0.0)])
        if field == "monodromy":
            bad["local_system"]["monodromy"] = [[[big, 0.0]]]
        elif field != "a":
            bad[field] = big
        with pytest.raises(ValidationError, match="object huge"):
            scene_from_dict(scene_dict(bad))

    def test_tangential_scene_rejected_on_load(self):
        with pytest.raises(TransversalityError):
            scene_from_dict(scene_dict(TANGENTIAL))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_scene(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_scene(tmp_path / "absent.json")

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError, match="grid_h"):
            scene_from_dict(scene_dict(object_dict(), params={"grid_h": 0.5}))

    def test_get_unknown_object(self):
        scene = scene_from_dict(scene_dict(object_dict()))
        with pytest.raises(ValidationError, match="no object"):
            scene.get("missing")


class TestRunVerify:
    def test_canonical_passes_all_three(self):
        scene = scene_from_dict(scene_dict(object_dict()))
        report = run_verify(scene)
        assert report.passed
        entry = report.objects[0]
        assert entry["floer_dims"] == [1, 0]
        assert entry["analytic_dims"] == [1, 0]
        assert entry["discretized_dims"] == [1, 0]
        assert entry["dbar_residual_max"] <= 1e-6
        assert all(entry["checks"].values())

    def test_wiggle_scene_rank_one(self):
        scene = scene_from_dict(
            scene_dict(object_dict(id="wiggle", c=0.5, wiggle=[(1, 0.0, 0.5)]))
        )
        report = run_verify(scene)
        assert report.passed
        assert report.objects[0]["d_rank"] == 1
        assert report.objects[0]["floer_dims"] == [1, 0]

    def test_deterministic_across_workers(self):
        scene = scene_from_dict(
            scene_dict(
                object_dict(id="a"),
                object_dict(id="b", p=-1, c=0.25),
                object_dict(id="c", p=0, c=0.3),
            )
        )
        sequential = run_verify(scene, workers=1).to_dict()
        parallel = run_verify(scene, workers=4).to_dict()
        assert sequential == parallel
        assert run_verify(scene, workers=1).to_dict() == sequential

    @pytest.mark.parametrize("p,q", [(4, 1), (7, 2)])
    def test_steep_straight_line_passes(self, p, q):
        report = run_verify(scene_from_dict(scene_dict(object_dict(id="steep", p=p, q=q))))
        assert report.passed, report.objects[0]["errors"]
        assert report.objects[0]["analytic_dims"] == [p, 0]

    def test_shallow_line_on_a_wide_window_passes(self):
        # p/q = 1/20 needs a window this wide for its weight to die off
        scene = scene_from_dict(scene_dict(object_dict(id="shallow", p=1, q=20), params={"window": 15.0}))
        report = run_verify(scene)
        assert report.passed, report.objects[0]["errors"]
        assert report.objects[0]["analytic_dims"] == report.objects[0]["discretized_dims"] == [1, 0]

    def test_zero_mirror_transform_fails_every_line_object(self, monkeypatch):
        import torusmirror.fourier as fourier

        real = fourier._lattice_sums

        def zeroed(*args):
            sums, tails, scales = real(*args)
            return 0.0 * sums, tails, scales

        monkeypatch.setattr(fourier, "_lattice_sums", zeroed)
        objects = [
            O13,
            object_dict(id="steep", p=4),
            object_dict(id="cover", p=2, q=3, c=0.25),
            object_dict(id="wiggle", c=0.5, wiggle=[(1, 0.0, 0.5)]),
            object_dict(id="growing", p=-1, c=0.25),
            object_dict(id="circle", p=0, c=0.3),
        ]
        report = run_verify(scene_from_dict(scene_dict(*objects))).to_dict()
        json.dumps(report, allow_nan=False)
        for entry in report["objects"]:
            if entry["p"] > 0:
                assert not entry["pass"]
                assert any("vanishes on the dbar stencil" in err for err in entry["errors"]), entry["errors"]
            else:
                assert entry["pass"]

    def test_pipeline_error_marks_object_failed(self):
        # window far too small for the Gaussian weight to die off
        scene = scene_from_dict(scene_dict(object_dict(), params={"window": 2.0}))
        report = run_verify(scene)
        assert not report.passed
        entry = report.objects[0]
        assert entry["errors"]
        assert not entry["pass"]

    def test_unexpected_exception_fails_only_its_object(self, tmp_path, monkeypatch, capsys):
        import torusmirror.app as app

        real = app.boundary_transport_differential

        def flaky(tt):
            if tt.id == "bad":
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(tt)

        monkeypatch.setattr(app, "boundary_transport_differential", flaky)
        path = write_scene(
            tmp_path,
            scene_dict(object_dict(id="bad", p=-1, c=0.25), object_dict(id="good", p=0, c=0.3)),
        )
        assert main(["verify", "--scene", path]) == 1
        report = json.loads(capsys.readouterr().out)
        bad, good = report["objects"]
        assert bad["errors"] == ["LinAlgError: SVD did not converge"]
        assert not bad["pass"]
        assert good["pass"] and not good["errors"]
        assert report["pass"] is False

    def test_dbar_step_from_the_slope_clears_stencil_error(self):
        # four harmonics: S = 3 + 2 pi * 2.4 bounds |Y'|, so the rate model
        # takes h = DBAR_STEP / 8; at DBAR_STEP the stencil's own O(h^4) error
        # is over the tolerance
        scene = scene_from_dict(scene_dict(O13))
        section = standard_section(scene.objects[0])
        coarse = max(dbar_residual(section, MirrorPoint(t, x), DBAR_STEP) for t, x in DBAR_SAMPLE_POINTS)
        assert coarse > scene.params.dbar_tol
        entry = run_verify(scene).objects[0]
        assert entry["pass"] and entry["checks"]["dbar_ok"]
        assert entry["dbar_step"] == DBAR_STEP / 8
        assert entry["dbar_residual_max"] <= scene.params.dbar_tol

    def test_dbar_step_from_the_slope_passes_the_p20_line(self):
        # S = 20 gives rate 2 pi (0.6 * 20 + sqrt(20)) = 103.5, and h = DBAR_STEP / 8
        scene = scene_from_dict(scene_dict(object_dict(id="steep", p=20, c=0.3)))
        entry = run_verify(scene).objects[0]
        assert entry["pass"], (entry["checks"], entry["errors"])
        assert entry["dbar_step"] == DBAR_STEP / 8
        assert entry["dbar_residual_max"] <= scene.params.dbar_tol

    def test_dbar_step_from_the_slope_keeps_a_real_fault(self, monkeypatch):
        import torusmirror.app as app

        tt = scene_from_dict(scene_dict(O13)).objects[0]
        wiggle = [(1, 0.46432, -0.13668)] + O13_WIGGLE[1:]
        perturbed = scene_from_dict(
            scene_dict(object_dict(id="o13", p=3, c=0.58028, wiggle=wiggle, monodromy=O13_MONODROMY))
        )
        # coefficients of a slightly different curve: not holomorphic for tt
        wrong = ThetaSection(tt, standard_section(perturbed.objects[0]).coefficients)
        residual, h = app.dbar_check(wrong, 1e-6)
        assert h == DBAR_STEP / 8 and residual > 1e-6
        monkeypatch.setattr(app, "standard_section", lambda tt, K: wrong)
        entry = run_verify(Scene((tt,))).objects[0]
        assert not entry["checks"]["dbar_ok"] and not entry["pass"]
        assert entry["dbar_residual_max"] == residual

    def test_steep_q1_lines_pass(self):
        # the summed section cancels to e^(-pi p d(x, Z)^2) of its terms' sizes,
        # and a stencil on the sum reads the lost digits as a fault; each
        # coefficient alone does not cancel
        objects = [object_dict(id=f"p{p}", p=p, c=0.3) for p in (25, 30, 40, 60, 100)]
        report = run_verify(scene_from_dict(scene_dict(*objects)))
        for entry in report.objects:
            assert entry["pass"], (entry["id"], entry["checks"], entry["errors"], entry["dbar_residual_max"])

    def test_dbar_check_reads_an_injected_fault_at_every_slope(self, monkeypatch):
        # a factor e^(eps t) in every horizontal section adds i eps / 2 times
        # the section to its dbar; the lattice sums take each lift's twist
        # from localsys.twist_exponent, a factor e^(eps (s - anchor)) there
        import torusmirror.localsys as localsys

        eps, real = 1e-5, localsys.twist_exponent

        def faulty(graph, shift, t0, t1, m=0):
            return real(graph, shift, t0, t1, m) + eps * (t1 + graph.q * m - t0)

        monkeypatch.setattr(localsys, "twist_exponent", faulty)
        mixed = load_scene(DATA / "verify_mixed_7.json")
        lines = scene_from_dict(scene_dict(*(object_dict(id=f"p{p}", p=p, c=0.3) for p in (30, 100))))
        objects = [tt for tt in mixed.objects if tt.graph.p > 0] + list(lines.objects)
        assert len(objects) == 9
        for entry in run_verify(Scene(tuple(objects))).objects:
            assert entry["checks"]["dbar_ok"] is False, entry["id"]
            assert entry["dbar_residual_max"] == pytest.approx(eps / 2, rel=0.01), entry["id"]

    def test_d_routes_read_an_injected_twist_fault(self, monkeypatch):
        # Floer's arc weights come from geometry's closed-form arc areas, the
        # boundary route's from localsys.twist_exponent, so a factor e^(eps t)
        # in the latter must split the two routes; only a differential with
        # entries shows it, and each crossing_dense object has crossings of
        # both signs on a component
        import torusmirror.localsys as localsys

        scene = load_scene(DATA / "crossing_dense_7.json")
        for tt in scene.objects:
            assert any({pt.sign for pt in points} == {-1, 1} for points in tt.geometry.crossings), tt.id
        assert all(entry["checks"]["d_routes_agree"] for entry in run_verify(scene).objects)
        eps, real = 1e-5, localsys.twist_exponent
        monkeypatch.setattr(
            localsys, "twist_exponent", lambda graph, shift, t0, t1, m=0: real(graph, shift, t0, t1, m) + eps * (t1 - t0)
        )
        for entry in run_verify(scene).objects:
            assert entry["checks"]["d_routes_agree"] is False and entry["pass"] is False, entry["id"]
            assert entry["d_route_max_diff"] > 100 * D_ROUTE_TOL, entry["id"]

    def test_d_routes_read_an_injected_area_fault(self, monkeypatch):
        # the mirror image of the twist fault: the arc areas are a formula of
        # their own, not localsys.twist_exponent's difference of primitives,
        # so a fault in them alone splits the two routes on every object
        import torusmirror.geometry as geometry

        eps, real = 1e-5, geometry._signed_area

        def faulty(comp, t_from, t_to):
            return real(comp, t_from, t_to) + eps * (np.asarray(t_to) - np.asarray(t_from))

        monkeypatch.setattr(geometry, "_signed_area", faulty)
        entries = run_verify(load_scene(DATA / "crossing_dense_7.json")).objects
        assert len(entries) == 15
        for entry in entries:
            assert entry["checks"]["d_routes_agree"] is False and entry["pass"] is False, entry["id"]
            assert entry["d_route_max_diff"] > 100 * D_ROUTE_TOL, entry["id"]

    def test_dbar_stencil_error_within_the_rate_model(self):
        # every coefficient's residual at one fixed step stays within
        # lam^5 h^4 / 30, lam = 2 pi (0.6 S + sqrt(S)) + L / q, the model
        # dbar_check takes its step from: steep lines, harmonics, a stretching
        # T, and the benchmark scenes
        def rate(tt):
            g = tt.graph
            slope = g.p / g.q + sum(2 * math.pi * w.m / g.q * (abs(w.a) + abs(w.b)) for w in g.wiggle)
            drift = np.max(np.abs(np.log(np.linalg.svd(tt.system.monodromy, compute_uv=False)))) / g.q
            return 2 * math.pi * (0.6 * slope + math.sqrt(slope)) + drift

        curves = [object_dict(id=f"p{p}", p=p, c=0.3) for p in (1, 2, 3, 5, 10, 20, 25, 30, 40, 60, 100)]
        curves += [
            object_dict(id="p40q3", p=40, q=3, c=0.3),
            O13,
            object_dict(id="two", p=2, q=3, c=0.1, wiggle=[(1, 0.03, 0.02), (3, -0.02, 0.04)]),
            object_dict(id="wiggle", c=0.5, wiggle=[(1, 0.0, 0.5)]),
            object_dict(id="drift", c=0.3, monodromy=[[[math.exp(2 * math.pi * 8.6), 0.0]]]),
        ]
        objects = list(scene_from_dict(scene_dict(*curves)).objects)
        for name in ("verify_mixed_7", "verify_mixed_13", "crossing_dense_7", "crossing_dense_13"):
            objects += [tt for tt in load_scene(DATA / f"{name}.json").objects if tt.graph.p > 0]
        points, h = [MirrorPoint(t, x) for t, x in DBAR_SAMPLE_POINTS], 2.5e-4
        for tt in objects:
            residual = float(np.max(dbar_residuals(standard_section(tt), points, h)))
            assert residual <= rate(tt) ** 5 * h**4 / 30, tt.id

    @pytest.mark.filterwarnings("ignore:object drift. local system is not quasi-unitary:UserWarning")
    def test_dbar_step_takes_the_drift_of_a_stretching_t(self):
        # T = e^(2 pi 8.6) puts the largest lift 8.6 shifts past the vertex,
        # where its log-magnitude moves at L / q = 2 pi 8.6 more; at the step
        # of the slope alone (1e-3) the residual is 3.4e-6
        scene = scene_from_dict(scene_dict(object_dict(id="drift", c=0.3, monodromy=[[[math.exp(2 * math.pi * 8.6), 0.0]]])))
        entry = run_verify(scene).objects[0]
        assert entry["pass"], (entry["checks"], entry["errors"])
        assert entry["dbar_step"] == DBAR_STEP / 8
        assert entry["dbar_residual_max"] <= scene.params.dbar_tol / 100

    def test_lines_far_from_the_zero_section_keep_their_theta_values(self):
        # a difference of primitives at the lift and the anchor is of size
        # p c^2 q and rounds at ulp(p c^2 q): at c = 4000.3 the dbar check read
        # 3.5e-6 to 8.9e-6 from it; the vertex form keeps every term's twist
        # of the size of its own weight
        curves = [(1, 1), (2, 3), (3, 1)]
        wiggle = [(1, 0.1, -0.05)]

        def objects(c):
            dicts = (object_dict(id=f"p{p}q{q}", p=p, q=q, c=c, wiggle=wiggle) for p, q in curves)
            return scene_from_dict(scene_dict(*dicts)).objects

        report = run_verify(Scene(objects(4000.3)))
        for entry in report.objects:
            assert entry["pass"], (entry["id"], entry["checks"], entry["errors"], entry["dbar_residual_max"])
        # c + 40 and c + 4000 move each line onto a translate of itself or of
        # another component (p = 3), so the summed theta values are the same
        ts, xs = np.array(DBAR_SAMPLE_POINTS).T
        base = [theta_eval_batch(standard_section(tt), ts, xs)[0] for tt in objects(0.3)]
        for c in (40.3, 4000.3):
            for want, tt in zip(base, objects(c)):
                got = theta_eval_batch(standard_section(tt), ts, xs)[0]
                assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), (c, tt.id)

    @pytest.mark.filterwarnings("ignore:object .* not quasi-unitary:UserWarning")
    @pytest.mark.parametrize(
        "p,moduli,dims",
        [(1, [15.0], [1, 0]), (1000, [0.0], [1000, 0]), (1, [8.0, -8.0], [2, 0])],
        ids=["steep-t", "p1000", "mixed-moduli"],
    )
    def test_lines_at_the_edge_of_the_double_range_pass_every_route(self, p, moduli, dims):
        # T = e^(2 pi 15) puts the standard section's largest term near e^758;
        # p = 1000 puts every term of a branch below e^-760; mixed moduli
        # overflow T^k e0 in the far lifts: each term is a log weight beside a
        # bounded part, so none of them leaves the double range on its way
        mono = [[[math.exp(2 * math.pi * a) if i == j else 0.0, 0.0] for j in range(len(moduli))] for i, a in enumerate(moduli)]
        entry = run_verify(scene_from_dict(scene_dict(object_dict(id="edge", p=p, c=0.3, monodromy=mono)))).objects[0]
        assert entry["errors"] == [] and entry["pass"], (entry["checks"], entry["errors"])
        assert set(entry["checks"]) == {"d_routes_agree", "euler_matches_degree", "analytic_agrees", "discretized_agrees", "dbar_ok"}
        assert entry["floer_dims"] == entry["analytic_dims"] == entry["discretized_dims"] == dims

    def test_large_offsets_keep_the_two_differentials_equal(self):
        # a difference of primitives rounds at ulp(p c^2 q): the boundary
        # route read 3.2e-6 and 3.6e-4 on these lines and 3.4e-9 on the
        # circle; the vertex form (lines) and (c + r)(s - t0) (circles) stay
        # at the size of each arc's own weight
        wiggle = [(2, 0.3, 0.1)]
        objects = [object_dict(id=f"line{c:g}", c=c, wiggle=wiggle) for c in (1e5 + 0.3, 1e6 + 0.3)]
        objects.append(object_dict(id="circle", p=0, c=4e6 + 0.3, wiggle=wiggle))
        for entry in run_verify(scene_from_dict(scene_dict(*objects))).objects:
            assert entry["checks"]["d_routes_agree"], (entry["id"], entry["d_route_max_diff"])
            assert entry["d_route_max_diff"] <= D_ROUTE_TOL / 10, entry["id"]

    def test_broken_complex_fails_analytic_agreement(self, monkeypatch):
        import torusmirror
        import torusmirror.floer as floer

        real = floer.build_complex

        def zeroed(tt):
            fc = real(tt)
            return floer.FloerComplex(fc.f0, fc.f1, fc.n, np.zeros_like(fc.d))

        # every module that binds the assembly under its own name gets the fault
        for name in ("app", "cli", "derham", "floer"):
            module = getattr(torusmirror, name)
            if hasattr(module, "build_complex"):
                monkeypatch.setattr(module, "build_complex", zeroed)
        scene = scene_from_dict(scene_dict(object_dict(id="wiggle", c=0.5, wiggle=[(1, 0.0, 0.5)])))
        entry = run_verify(scene).objects[0]
        assert entry["floer_dims"] == [2, 1]
        assert entry["analytic_dims"] == [1, 0]
        assert entry["checks"]["analytic_agrees"] is False
        assert not entry["pass"]

    def test_circles_just_off_the_zero_section_pass(self):
        # twisted monodromy exp(-2 pi c) is not 1, and far beyond the loop
        # propagator's defect, which is rounding-sized for a flat circle
        objects = [object_dict(id=f"c{c:g}", p=0, c=c) for c in (1e-4, 1e-6, 1e-8)]
        report = run_verify(scene_from_dict(scene_dict(*objects)))
        assert report.passed
        for entry in report.objects:
            assert entry["floer_dims"] == entry["analytic_dims"] == entry["discretized_dims"] == [0, 0]

    @pytest.mark.parametrize("rank", [1, 2])
    def test_circles_far_from_zero_pass(self, rank, rng):
        # each curve is the c = 0.3 circle with its shift relabelled, or a
        # wiggle that sweeps far branches into the enumeration window; the
        # far branches' moduli are e^(+-60) or more away from 1
        t = np.eye(1) if rank == 1 else random_unitary(2, rng)
        monodromy = [[[z.real, z.imag] for z in row] for row in t]
        shapes = [(10.3, ()), (60.3, ()), (100.3, ()), (200.3, ()), (0.3, [(1, 5.0, 0.0)]), (0.3, [(1, 8.0, 0.0)])]
        objects = [
            object_dict(id=f"far{i}", p=0, c=c, wiggle=wiggle, monodromy=monodromy)
            for i, (c, wiggle) in enumerate(shapes)
        ]
        # a RuntimeWarning is an error under the test settings, so it would fail its object
        report = run_verify(scene_from_dict(scene_dict(*objects)))
        for entry in report.objects:
            assert entry["pass"], entry["errors"]
            assert entry["floer_dims"] == entry["analytic_dims"] == entry["discretized_dims"] == [0, 0]

    @pytest.mark.parametrize(
        "monodromy", [[[[1.0, 0.0]]], [[[0.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]], ids=["trivial", "rotation"]
    )
    def test_tall_harmonic_circle_ranks_each_component_alone(self, monodromy):
        # the a = 12 harmonic crosses 24 circles, and the largest singular
        # values of their blocks of d run from 0.91 down to 8e-11: a 1e-9
        # cutoff against the largest of all drops the two smallest blocks
        curve = object_dict(id="tall", p=0, c=0.3, wiggle=[(1, 12.0, 0.0)], monodromy=monodromy)
        entry = run_verify(scene_from_dict(scene_dict(curve))).objects[0]
        assert entry["pass"], (entry["checks"], entry["errors"])
        assert entry["floer_dims"] == entry["analytic_dims"] == entry["discretized_dims"] == [0, 0]

    def test_circle_object_skips_dbar(self):
        scene = scene_from_dict(scene_dict(object_dict(id="circ", p=0, c=0.3)))
        report = run_verify(scene)
        assert report.passed
        assert report.objects[0]["dbar_residual_max"] is None


class TestCli:
    def test_verify_exit_codes(self, tmp_path, capsys):
        good = write_scene(tmp_path, scene_dict(object_dict()), "good.json")
        assert main(["verify", "--scene", good]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

        bad = write_scene(tmp_path, scene_dict(TANGENTIAL), "bad.json")
        assert main(["verify", "--scene", bad]) == 2
        assert "Y'" in capsys.readouterr().err

        failing = write_scene(
            tmp_path, scene_dict(object_dict(), params={"window": 2.0}), "failing.json"
        )
        assert main(["verify", "--scene", failing]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is False
        assert out["objects"][0]["errors"]

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_flat_circle_on_zero_section_rejected(self, tmp_path, capsys, c):
        # no critical points at all, and the branch with c + shift = 0 lies on the zero section
        flat = object_dict(id="flat", p=0, c=c)
        with pytest.raises(TransversalityError):
            object_geometry(LagrangianGraph(id="flat", p=0, c=c))
        assert main(["verify", "--scene", write_scene(tmp_path, scene_dict(flat))]) == 2
        assert "flat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("c", math.nan),
            ("a", math.nan),
            ("b", math.inf),
            ("monodromy", math.nan),
            ("window", math.nan),
            ("window", math.inf),
            ("grid_h", math.nan),
            ("dbar_tol", math.inf),
            ("rank_tol", math.nan),
            ("rank_tol", 1.0),
            ("rank_tol", 2),
            ("K", True),
            ("q", True),
            ("p", True),
            ("c", True),
            ("m", True),
            ("a", False),
            ("b", True),
            ("rank", True),
            ("params", 5),
            ("params", "K"),
            ("params", []),
            ("params", None),
            ("gcd", 2),
        ],
    )
    def test_nonfinite_or_out_of_range_scene_numbers_exit_2(self, tmp_path, capsys, field, value):
        obj = object_dict(id="odd", c=0.5, wiggle=[(1, 0.0, 0.5)])
        params = {}
        if field in ("q", "p", "c"):
            obj[field] = value
        elif field == "gcd":
            obj["p"] = obj["q"] = value
        elif field in ("m", "a", "b"):
            obj["wiggle"][0][field] = value
        elif field == "monodromy":
            obj["local_system"]["monodromy"][0][0][0] = value
        elif field == "rank":
            obj["local_system"]["rank"] = value
        elif field != "params":
            params[field] = value
        data = scene_dict(obj, params=params)
        if field == "params":
            data["params"] = value
        path = write_scene(tmp_path, data)  # json writes NaN and Infinity literals
        assert main(["verify", "--scene", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if field in ("q", "p", "c", "gcd"):
            # the curve's own refusal names the object once
            assert err.count("odd") == 1

    @pytest.mark.parametrize(
        "malform",
        [
            lambda obj: obj["wiggle"][0].pop("a"),
            lambda obj: obj.update(c="0.5"),
            lambda obj: obj["wiggle"][0].update(b="0.5"),
            lambda obj: obj["local_system"].pop("rank"),
        ],
        ids=["wiggle-without-a", "string-c", "string-b", "local-system-without-rank"],
    )
    @pytest.mark.parametrize("command", ["inspect", "verify"])
    def test_malformed_object_entries_exit_2(self, tmp_path, capsys, malform, command):
        obj = object_dict(id="odd", c=0.5, wiggle=[(1, 0.0, 0.5)])
        malform(obj)
        path = write_scene(tmp_path, scene_dict(obj))
        assert main([command, "--scene", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "object odd: malformed entry" in err and "Traceback" not in err

    def test_inspect_and_floer(self, tmp_path, capsys):
        path = write_scene(
            tmp_path, scene_dict(object_dict(id="wiggle", c=0.5, wiggle=[(1, 0.0, 0.5)]))
        )
        assert main(["inspect", "--scene", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["objects"][0]["positive_crossings"] == 2
        assert summary["objects"][0]["negative_crossings"] == 1

        assert main(["floer", "--scene", path, "--object", "wiggle"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["F0"] == 2 and report["F1"] == 1 and report["h0"] == 1

    def test_derham_subcommand(self, tmp_path, capsys):
        path = write_scene(tmp_path, scene_dict(object_dict()))
        assert main(["derham", "--scene", path, "--object", "canonical",
                     "--grid", "256", "--window", "6.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["floer_dims"] == report["analytic_dims"] == report["discretized_dims"] == [1, 0]
        assert report["cases"][0]["case"] == "case3a"

    @pytest.mark.parametrize(
        "flag,value", [("--grid", "-5"), ("--grid", "0"), ("--grid", "50"), ("--window", "-6")]
    )
    def test_derham_bad_grid_or_window_exits_2(self, tmp_path, capsys, flag, value):
        path = write_scene(tmp_path, scene_dict(object_dict()))
        assert main(["derham", "--scene", path, "--object", "canonical", flag, value]) == 2
        assert "params:" in capsys.readouterr().err

    def test_fourier_sample_csv(self, tmp_path, capsys):
        path = write_scene(tmp_path, scene_dict(object_dict()))
        out = tmp_path / "theta.csv"
        assert main(["fourier", "sample", "--scene", path, "--object", "canonical",
                     "--grid", "2x2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,xdual,branch,re,im,trunc_bound"
        assert len(lines) == 5
        assert lines[1].startswith("0,0,0,1.086434811213308")

    def test_fourier_sample_refuses_growing_object(self, tmp_path):
        path = write_scene(tmp_path, scene_dict(object_dict(id="down", p=-1, c=0.25)))
        assert main(["fourier", "sample", "--scene", path, "--object", "down",
                     "--grid", "2x2", "--out", str(tmp_path / "x.csv")]) == 2

    def test_convolve_roundtrip(self, tmp_path, capsys):
        path = write_scene(tmp_path, scene_dict(object_dict()))
        out = tmp_path / "conv.json"
        assert main(["convolve", "--scene", path, "--objects", "canonical,canonical",
                     "--out", str(out)]) == 0
        scene = load_scene(out)
        assert scene.objects[0].graph.p == 2
        assert main(["verify", "--scene", str(out)]) == 0
        capsys.readouterr()

    def test_convolve_disconnected_rejected(self, tmp_path):
        path = write_scene(tmp_path, scene_dict(object_dict(id="half", q=2, p=1, c=0.25)))
        assert main(["convolve", "--scene", path, "--objects", "half,half",
                     "--out", str(tmp_path / "y.json")]) == 2

    def test_bad_grid_string(self, tmp_path):
        path = write_scene(tmp_path, scene_dict(object_dict()))
        assert main(["fourier", "sample", "--scene", path, "--object", "canonical",
                     "--grid", "tenbyten", "--out", str(tmp_path / "z.csv")]) == 2

    def test_unknown_object_id(self, tmp_path):
        path = write_scene(tmp_path, scene_dict(object_dict()))
        assert main(["floer", "--scene", path, "--object", "ghost"]) == 2


class TestPlot:
    def test_canonical_single_curve_one_plus(self, tmp_path):
        scene = scene_from_dict(scene_dict(object_dict()))
        svg = render_svg(scene, tmp_path / "c.svg")
        assert svg.count("<polyline") == 1
        assert svg.count('class="marker plus"') == 1
        assert svg.count('class="marker minus"') == 0
        assert (tmp_path / "c.svg").read_text() == svg

    def test_steep_line_three_markers(self, tmp_path):
        scene = scene_from_dict(scene_dict(object_dict(id="steep", p=3, c=0.25)))
        svg = render_svg(scene, tmp_path / "s.svg")
        assert svg.count('class="marker') == 3

    def test_every_branch_drawn_through_its_markers(self, tmp_path):
        # q = 2: branch 0 runs from y = 0.1 to 0.6, and only branch 1 meets
        # the axis, at t = 0.8
        scene = scene_from_dict(scene_dict(object_dict(id="half", q=2, p=1, c=0.1)))
        svg = render_svg(scene, tmp_path / "h.svg")
        curves = []
        for points in re.findall(r'<polyline [^>]*points="([^"]*)"', svg):
            xy = np.array([pair.split(",") for pair in points.split()], dtype=float)
            curves.append(((xy[:, 0] - _MARGIN) / _SPAN, 1 - (xy[:, 1] - _MARGIN) / _SPAN))  # back to (t, y)
        markers = [(float(x) - _MARGIN) / _SPAN for x in re.findall(r'class="marker [a-z]+" x="([^"]*)"', svg)]
        assert len(curves) == 3 and len(markers) == 1
        for t in markers:
            assert any(
                np.any((np.abs(ts - t) <= 1 / 512) & (np.minimum(ys, 1 - ys) <= 1e-2)) for ts, ys in curves
            ), f"no drawn curve meets the axis at the marker t = {t}"

    def test_empty_scene_axes_only(self, tmp_path):
        svg = render_svg(Scene(()), tmp_path / "e.svg")
        assert "<svg" in svg and "<rect" in svg and "stroke-dasharray" in svg
        assert "<polyline" not in svg and "marker" not in svg


class TestSamples:
    def test_rank_two_gets_component_column(self, rng):
        mono = random_unitary(2, rng)
        data = object_dict(
            id="pair", monodromy=[[[z.real, z.imag] for z in row] for row in mono]
        )
        scene = scene_from_dict(scene_dict(data))
        rows = sample_section(scene.objects[0], 2, 2)
        assert len(rows) == 2 * 2 * 1 * 2
        assert "component" in rows[0]

    def test_empty_grid_rejected(self):
        scene = scene_from_dict(scene_dict(object_dict()))
        with pytest.raises(ValidationError):
            sample_section(scene.objects[0], 0, 4)

    def test_emit_csv_refuses_empty(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_csv([], tmp_path / "empty.csv")


def test_each_component_scanned_and_each_arc_integrated_once(tmp_path, monkeypatch):
    import torusmirror
    import torusmirror.derham as derham
    import torusmirror.floer as floer
    import torusmirror.geometry as geometry

    scans: dict[str, int] = {}
    assemblies: dict[str, int] = {}
    sweeps: list[int] = []  # brackets per _refine_roots sweep
    quadratures: dict[tuple, int] = {}
    real_scan, real_sweep, real_area = geometry._crossing_scan, geometry._refine_roots, geometry._signed_area
    real_assembly = floer.build_complex

    def counted_scan(graph, comps):
        scans[graph.id] = scans.get(graph.id, 0) + 1
        return real_scan(graph, comps)

    def counted_assembly(tt):
        assemblies[tt.id] = assemblies.get(tt.id, 0) + 1
        return real_assembly(tt)

    def counted_sweep(f, fprime, lo, hi):
        sweeps.append(len(lo))
        return real_sweep(f, fprime, lo, hi)

    def counted_area(comp, t_from, t_to):
        # one entry per arc: a call may integrate all arcs of a component
        for ends in zip(np.atleast_1d(t_from).tolist(), np.atleast_1d(t_to).tolist()):
            key = (comp.label, *ends)
            quadratures[key] = quadratures.get(key, 0) + 1
        return real_area(comp, t_from, t_to)

    # every module that binds the object-level scan or the complex's assembly
    # under its own name gets the counter; the scan covers all of an object's
    # components
    for name in ("app", "cli", "derham", "floer", "fourier", "geometry", "localsys"):
        module = getattr(torusmirror, name)
        if hasattr(module, "_crossing_scan"):
            monkeypatch.setattr(module, "_crossing_scan", counted_scan)
        if hasattr(module, "build_complex"):
            monkeypatch.setattr(module, "build_complex", counted_assembly)
    monkeypatch.setattr(geometry, "_refine_roots", counted_sweep)
    monkeypatch.setattr(geometry, "_signed_area", counted_area)

    path = write_scene(
        tmp_path,
        scene_dict(
            object_dict(id="line", c=0.5, wiggle=[(1, 0.0, 0.5)]),
            object_dict(id="down", p=-1, c=0.5, wiggle=[(1, 0.0, -0.5)]),
            object_dict(id="circle", p=0, c=0.0, wiggle=[(1, 0.0, 0.5)]),
        ),
    )

    def full_verify():
        assert run_verify(load_scene(path), workers=1).passed

    def routes():
        scene = load_scene(path)
        rank_tol = scene.params.rank_tol
        for tt in scene.objects:
            fc = floer.build_complex(tt)
            dims = floer.cohomology_dims(fc, rank_tol)
            assert np.max(np.abs(fc.d - floer.boundary_transport_differential(tt))) <= 1e-9
            assert derham.analytic_dims(tt, rank_tol=rank_tol) == dims

    for sequence in (full_verify, routes):
        scans.clear()
        assemblies.clear()
        sweeps.clear()
        quadratures.clear()
        sequence()
        # one scan per object, each with one root sweep (the critical points
        # are companion-matrix roots, with no sweep of their own)
        assert sorted(scans) == ["circle", "down", "line"] and set(scans.values()) == {1}
        assert len(sweeps) == len(scans)
        # the analytic route reads no intersection complex: one assembly per object
        assert assemblies == {"circle": 1, "down": 1, "line": 1}
        assert len(quadratures) >= 6 and set(quadratures.values()) == {1}


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # a cold load path needs numpy only: scipy.linalg waits for the discretized count
    env = package_env()
    path = write_scene(tmp_path, scene_dict(object_dict(id="wiggle", c=0.5, wiggle=[(1, 0.0, 0.5)])))
    code = (
        "import sys, torusmirror.cli; from torusmirror.app import load_scene; "
        f"load_scene({path!r}); print(sorted({{'scipy.integrate', 'scipy.linalg'}} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"


def test_the_one_scipy_import_is_dstebz():
    # the discretized route's LAPACK dstebz is the package's one use of scipy
    imports = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "torusmirror").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                imports += [(path.name, node.module, alias.name) for alias in node.names]
    assert imports == [("derham.py", "scipy.linalg.lapack", "dstebz")]


def test_the_one_warning_is_floers_not_quasi_unitary():
    # every other numeric decision raises or is reported; the one warning
    # left is the quasi-unitary gauge's, which the verify report should carry
    calls = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "torusmirror").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("warn"):
                calls.append((path.name, ast.unparse(node.args[0]) if node.args else None))
    assert len(calls) == 1 and calls[0][0] == "floer.py" and "not quasi-unitary" in calls[0][1]
