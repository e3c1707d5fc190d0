"""End-to-end command-line workflows and exit codes."""

import collections
import json
import re

import numpy as np
import pytest

from tensorray import SobolevParams, TensorField2D, gaussian_test_field, random_solenoidal_field
from tensorray.cli import _roundtrip_report, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "f.tf2d"
    code = main([
        "generate", "--m", "1", "--kind", "solenoidal",
        "--n", "128", "--radius", "8", "-o", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def scalar_field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "g.tf2d"
    assert main(["generate", "--m", "0", "--kind", "generic",
                 "--n", "128", "--radius", "8", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def generic_field_file(tmp_path_factory):
    # solenoidal plus potential part
    path = tmp_path_factory.mktemp("cli") / "h.tf2d"
    assert main(["generate", "--m", "1", "--kind", "generic",
                 "--n", "128", "--radius", "8", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def sino_file(field_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "f.sino2d"
    assert main(["forward", str(field_file), "--np", "129", "--ntheta", "64",
                 "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_reports_divergence_residual(self, capsys, tmp_path):
        out_path = tmp_path / "s.tf2d"
        code, out, _ = run(capsys, "generate", "--m", "1", "--kind", "solenoidal",
                           "--n", "64", "--radius", "8", "-o", str(out_path))
        assert code == 0
        report = json.loads(out)
        assert report["divergence_residual"] < 1e-8
        assert out_path.exists()

    def test_decay_validation_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--m", "1", "--kind", "solenoidal",
                           "--n", "64", "--radius", "1", "-o", str(tmp_path / "x.tf2d"))
        assert code == 2
        assert "width" in err

    def test_seeded_generation_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tf2d", tmp_path / "b.tf2d"
        for path in (a, b):
            assert main(["generate", "--m", "2", "--kind", "solenoidal", "--seed", "9",
                         "--n", "64", "--radius", "8", "-o", str(path)]) == 0
        payload_a = a.read_bytes().split(b"\n", 1)[1]
        payload_b = b.read_bytes().split(b"\n", 1)[1]
        assert payload_a == payload_b

    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["gaussian", "seeded"])
    @pytest.mark.parametrize("width", ["0", "-1", "nan"])
    def test_bad_width_exit_code(self, capsys, tmp_path, seed, width):
        out_path = tmp_path / "x.tf2d"
        code, _, err = run(capsys, "generate", "--m", "1", "--kind", "solenoidal", *seed,
                           "--width", width, "-o", str(out_path))
        assert code == 2
        assert "width must be positive and finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["gaussian", "seeded"])
    def test_width_below_the_spacing_bound_exit_code(self, capsys, tmp_path, seed):
        # n = 256, R = 8: the bound is 2.5 h = 0.156
        out_path = tmp_path / "x.tf2d"
        code, _, err = run(capsys, "generate", "--m", "1", "--kind", "solenoidal", *seed,
                           "--width", "0.05", "-o", str(out_path))
        assert code == 2
        assert "2.5 x grid spacing" in err
        assert not out_path.exists()

    def test_seed_requires_solenoidal(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--m", "1", "--kind", "generic",
                           "--seed", "3", "--n", "64", "--radius", "8",
                           "-o", str(tmp_path / "x.tf2d"))
        assert code == 2


class TestForward:
    def test_reports_parity_and_peak(self, capsys, scalar_field_file, tmp_path):
        out_path = tmp_path / "g.sino2d"
        code, out, _ = run(capsys, "forward", str(scalar_field_file),
                           "--np", "129", "--ntheta", "32", "-o", str(out_path))
        assert code == 0
        report = json.loads(out)
        assert report["parity_residual"] < 1e-12
        # peak of the Gaussian sinogram is sqrt(2*pi)
        assert report["max_abs"] == pytest.approx(np.sqrt(2 * np.pi), rel=1e-5)

    def test_pmax_validation(self, capsys, scalar_field_file, tmp_path):
        code, _, err = run(capsys, "forward", str(scalar_field_file),
                           "--pmax", "2", "-o", str(tmp_path / "x.sino2d"))
        assert code == 2

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "forward", str(tmp_path / "nope.tf2d"),
                           "-o", str(tmp_path / "x.sino2d"))
        assert code == 3


class TestCheck:
    def test_reshetnyak_passes(self, capsys, field_file):
        code, out, _ = run(capsys, "check", "reshetnyak", str(field_file),
                           "--r", "0", "--s", "0", "--t", "0", "--convention", "lemma")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert 0.99 < report["reshetnyak_ratio"] < 1.01

    def test_reshetnyak_fst_expects_sqrt_2pi(self, capsys, field_file):
        code, out, _ = run(capsys, "check", "reshetnyak", str(field_file),
                           "--convention", "fst")
        assert code == 0
        report = json.loads(out)
        assert report["expected_ratio"] == pytest.approx(np.sqrt(2 * np.pi))
        assert report["config"]["convention"] == "fst"

    def test_reshetnyak_tight_tol_fails(self, capsys, field_file):
        code, out, _ = run(capsys, "check", "reshetnyak", str(field_file),
                           "--tol", "1e-9")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_slice_scalar_fst(self, capsys, scalar_field_file):
        # the scalar Fourier slice theorem is the m = 0 solenoidal identity
        code, out, _ = run(capsys, "check", "slice", str(scalar_field_file),
                           "--tol", "2e-3")
        assert code == 0
        report = json.loads(out)
        assert report["solenoidal_residual"] < 2e-3
        assert report["coefficient_residual"] < 2e-3
        assert "scalar_residual" not in report

    def test_slice_lemma_solenoidal(self, capsys, field_file):
        code, out, _ = run(capsys, "check", "slice", str(field_file), "--tol", "2e-3")
        assert code == 0

    def test_slice_takes_no_convention(self, capsys, field_file):
        # both sides of every slice identity scale alike under a convention
        assert run(capsys, "check", "slice", str(field_file),
                   "--convention", "fst")[0] == 2

    def test_invert_takes_no_convention(self, capsys, field_file):
        # the round trip reports the lemma ratio; `check reshetnyak
        # --convention fst` reports the rescaled one
        assert run(capsys, "check", "invert", str(field_file),
                   "--convention", "fst")[0] == 2

    def test_reshetnyak_rejects_non_solenoidal(self, capsys, generic_field_file):
        code, _, err = run(capsys, "check", "reshetnyak", str(generic_field_file))
        assert code == 2
        assert "solenoidal_project" in err

    @pytest.mark.parametrize("fixture, gates", [
        ("field_file", 1),
        ("scalar_field_file", 0),  # scalar fields need no gate
    ])
    def test_slice_computes_each_side_once(self, capsys, monkeypatch, request,
                                           fixture, gates):
        import tensorray.fields
        import tensorray.slices

        calls = collections.Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("forward", "component_spectrum_polar", "sinogram_transform_values"):
            count(tensorray.slices, name)
        count(tensorray.fields, "relative_divergence_residual")
        path = request.getfixturevalue(fixture)
        code, out, _ = run(capsys, "check", "slice", str(path), "--tol", "2e-3")
        assert code == 0
        assert calls == collections.Counter(
            forward=1, component_spectrum_polar=1, sinogram_transform_values=1,
            relative_divergence_residual=gates,
        )

    def test_invert_roundtrip(self, capsys, field_file):
        code, out, _ = run(capsys, "check", "invert", str(field_file))
        assert code == 0
        report = json.loads(out)
        assert report["roundtrip_l2_rel"] < 2e-2
        assert report["pass"] is True
        # the sinogram comes from forward, so its parity is not evidence
        assert "parity_residual" not in report

    def test_invert_generic_field(self, capsys, generic_field_file):
        # the potential part is annihilated by the forward transform; the
        # round trip and the isometry both refer to the solenoidal part
        code, out, _ = run(capsys, "check", "invert", str(generic_field_file))
        assert code == 0
        report = json.loads(out)
        assert abs(report["reshetnyak_ratio"] - 1.0) < 1e-2
        assert report["pass"] is True

    def test_invert_degenerate_field(self, capsys, tmp_path):
        import numpy as _np

        from tensorray import CartesianGrid, TensorField2D, write_field

        zero = TensorField2D(
            m=1, grid=CartesianGrid(n=64, radius=8.0),
            components=_np.zeros((2, 64, 64)),
        )
        path = tmp_path / "zero.tf2d"
        write_field(path, zero)
        code, out, _ = run(capsys, "check", "invert", str(path))
        assert code == 0
        assert json.loads(out)["degenerate"] is True

    def test_invert_potential_field_is_degenerate(self, capsys, tmp_path):
        # its solenoidal part is rounding noise, which the gate must not judge
        path = tmp_path / "p.tf2d"
        assert main(["generate", "--m", "1", "--kind", "potential",
                     "--n", "128", "--radius", "8", "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "check", "invert", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["degenerate"] is True
        assert report["pass"] is True

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    @pytest.mark.parametrize("command", ["moments", "slice", "reshetnyak", "invert"])
    def test_invalid_tol_exit_code(self, capsys, command, value, field_file, sino_file):
        path = sino_file if command == "moments" else field_file
        code, _, err = run(capsys, "check", command, str(path), "--tol", value)
        assert code == 2
        assert "--tol" in err

    def test_moments_pass(self, capsys, sino_file):
        code, out, _ = run(capsys, "check", "moments", str(sino_file),
                           "--rmax", "4", "--tol", "1e-5")
        assert code == 0
        report = json.loads(out)
        assert all(entry["pass"] for entry in report["moments"])

    def test_moments_violator_fails(self, capsys, tmp_path):
        from tensorray import Sinogram, write_sinogram

        ps = np.linspace(-8.0, 8.0, 65)
        thetas = 2 * np.pi * np.arange(16) / 16
        samples = np.exp(-(ps**2))[:, None] * np.cos(thetas)[None, :]
        path = tmp_path / "bad.sino2d"
        write_sinogram(path, Sinogram(m=0, pmax=8.0, samples=samples))
        code, out, _ = run(capsys, "check", "moments", str(path), "--rmax", "0")
        assert code == 1
        assert json.loads(out)["moments"][0]["forbidden_fraction"] > 0.9


class TestExportCsv:
    def test_sinogram_to_csv(self, capsys, sino_file, tmp_path):
        dest = tmp_path / "out.csv"
        code, out, _ = run(capsys, "export-csv", str(sino_file), str(dest))
        assert code == 0
        assert dest.read_text().startswith("p,theta,psi\n")

    def test_malformed_input_exit_code(self, capsys, tmp_path):
        src = tmp_path / "junk"
        src.write_bytes(b"garbage\n")
        code, _, err = run(capsys, "export-csv", str(src), str(tmp_path / "o.csv"))
        assert code == 3


    @pytest.mark.parametrize("damage", ["ragged-payload", "float-rank", "negative-rank"])
    def test_malformed_container_exit_code(self, capsys, tmp_path, field_file, damage):
        data = field_file.read_bytes()
        if damage == "ragged-payload":
            data = data[:-5]
        else:
            rank = {"float-rank": b'"m": 1.9', "negative-rank": b'"m": -2'}[damage]
            head, payload = data.split(b"\n", 1)
            data = head.replace(b'"m": 1', rank) + b"\n" + payload
        path = tmp_path / "bad.tf2d"
        path.write_bytes(data)
        code, _, err = run(capsys, "export-csv", str(path), str(tmp_path / "o.csv"))
        assert code == 3
        assert int(re.search(r"byte offset (-?\d+)", err).group(1)) >= 0

    @pytest.mark.parametrize("kind", ["tf2d", "sino2d"])
    def test_non_number_length_exit_code(self, capsys, tmp_path, field_file, sino_file, kind):
        # "radius": "8" and "pmax": true would otherwise load as 8.0 and 1.0
        src, key, bad = {
            "tf2d": (field_file, "radius", '"8"'),
            "sino2d": (sino_file, "pmax", "true"),
        }[kind]
        head, payload = src.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header[key] = json.loads(bad)
        path = tmp_path / f"bad.{kind}"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code, _, err = run(capsys, "export-csv", str(path), str(tmp_path / "o.csv"))
        assert code == 3
        assert f"'{key}' must be a JSON number" in err


    @pytest.mark.parametrize("version", ["true", "1.0"])
    @pytest.mark.parametrize("kind", ["tf2d", "sino2d"])
    def test_non_integer_version_exit_code(self, capsys, tmp_path, field_file, sino_file,
                                           kind, version):
        src = {"tf2d": field_file, "sino2d": sino_file}[kind]
        head, payload = src.read_bytes().split(b"\n", 1)
        path = tmp_path / f"bad.{kind}"
        path.write_bytes(head.replace(b'"version": 1', b'"version": ' + version.encode())
                         + b"\n" + payload)
        dest = tmp_path / "o.csv"
        code, out, err = run(capsys, "export-csv", str(path), str(dest))
        assert code == 3
        assert f"unsupported {kind} version" in err
        assert out == "" and not dest.exists()


@pytest.mark.parametrize("command", ["forward", "export-csv"])
@pytest.mark.parametrize("kind", ["tf2d", "sino2d"])
def test_non_json_constant_exit_code(capsys, tmp_path, field_file, sino_file, command, kind):
    # Python's json would read "radius": NaN and "pmax": Infinity as floats
    src, key, bad = {
        "tf2d": (field_file, "radius", float("nan")),
        "sino2d": (sino_file, "pmax", float("inf")),
    }[kind]
    head, payload = src.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header[key] = bad
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    target = {"forward": ["-o", str(tmp_path / "o.sino2d")], "export-csv": [str(tmp_path / "o.csv")]}
    code, out, err = run(capsys, command, str(path), *target[command])
    assert code == 3
    assert "not a JSON number" in err
    assert out == ""


def strict_json(text):
    """Parse a report as strict JSON: NaN, Infinity and -Infinity fail."""

    def reject(constant):
        raise AssertionError(f"report holds {constant}")

    return json.loads(text, parse_constant=reject)


class TestStrictJsonSession:
    """The README session at n=64: every report parses as strict JSON."""

    def test_readme_session(self, capsys, tmp_path):
        field = str(tmp_path / "f.tf2d")
        sino = str(tmp_path / "f.sino2d")
        session = [
            ["generate", "--m", "1", "--kind", "solenoidal", "--n", "64", "--radius", "8",
             "-o", field],
            ["forward", field, "--np", "65", "--ntheta", "128", "-o", sino],
            ["check", "moments", sino, "--rmax", "4"],
            ["check", "reshetnyak", field, "--r", "0", "--s", "0", "--t", "0",
             "--convention", "lemma"],
            ["check", "slice", field],
            ["check", "invert", field],
            ["export-csv", sino, str(tmp_path / "f.csv")],
        ]
        for argv in session:
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            strict_json(out)

    @pytest.mark.parametrize("command", ["reshetnyak", "invert"])
    def test_overflowing_weights_exit_code(self, capsys, tmp_path, command):
        field = str(tmp_path / "f.tf2d")
        assert main(["generate", "--m", "1", "--kind", "solenoidal", "--n", "64",
                     "-o", field]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "check", command, field, "--r", "200")
        assert code == 2
        assert out == ""  # no report, so no NaN ratio
        assert "(r, s, t) = (200, 0, 0)" in err

    def test_emit_refuses_non_finite_values(self, capsys):
        from tensorray.cli import _emit

        with pytest.raises(ValueError):
            _emit({"reshetnyak_ratio": float("nan")})
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("message", ["Unable to allocate 298. GiB for an array", ""],
                         ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["generate", "forward"])
def test_refused_allocation_exit_code(capsys, monkeypatch, tmp_path, scalar_field_file,
                                      command, message):
    # a kernel that raises stands in for a real refusal, which a host that
    # overcommits memory could answer by paging instead
    from tensorray import cli

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    kernel = {"generate": "gaussian_test_field", "forward": "forward"}[command]
    monkeypatch.setattr(cli, kernel, refuse)
    output = tmp_path / "out"
    argv = {"generate": ["generate", "--n", "64", "-o", str(output)],
            "forward": ["forward", str(scalar_field_file), "-o", str(output)]}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: out of memory. {message}".rstrip() + "\n"
    assert not output.exists()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_convention(self, capsys, field_file):
        assert run(capsys, "check", "reshetnyak", str(field_file),
                   "--convention", "unitary")[0] == 2


class TestParserOncePerProcess:
    def sessions(self, capsys, sino_file, tmp_path):
        # different subcommands in a row, a usage error among them
        return [
            run(capsys, "check", "moments", str(sino_file), "--rmax", "2"),
            run(capsys, "export-csv", str(sino_file), str(tmp_path / "s.csv")),
            run(capsys, "check", "moments", str(sino_file), "--tol", "-1"),
            run(capsys, "check", "moments", str(sino_file)),
        ]

    def test_one_parser_serves_every_call(self, capsys, monkeypatch, sino_file, tmp_path):
        from tensorray import cli

        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        cached = cli._parser
        monkeypatch.setattr(cli, "build_parser", counted)
        cached.cache_clear()
        try:
            shared = self.sessions(capsys, sino_file, tmp_path)
            assert len(built) == 1
            # a fresh parser for every call prints the same reports
            monkeypatch.setattr(cli, "_parser", counted)
            fresh = self.sessions(capsys, sino_file, tmp_path)
        finally:
            cached.cache_clear()
        assert len(built) == 5
        assert [code for code, _, _ in shared] == [0, 0, 2, 0]
        assert shared == fresh


class TestRoundtripReport:
    # the report check invert prints, built in-process at coarser resolutions
    def test_gaussian_report(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        report = _roundtrip_report(f, SobolevParams(0, 0, 0), ntheta=64)
        assert not report["degenerate"]
        assert report["roundtrip_l2_rel"] < 1e-2
        assert 0.99 < report["reshetnyak_ratio"] < 1.01
        assert all(entry["pass"] for entry in report["moments"])
        assert report["params"] == {"r": 0.0, "s": 0.0, "t": 0.0}

    def test_random_solenoidal_report(self, grid128):
        f = random_solenoidal_field(2, grid128, seed=42)
        report = _roundtrip_report(f, SobolevParams(1.0, 0.0, 0.0), ntheta=64)
        # measured 1.1e-5
        assert report["roundtrip_l2_rel"] < 5e-5
        assert 0.99 < report["reshetnyak_ratio"] < 1.01
        assert all(entry["pass"] for entry in report["moments"])

    def test_zero_field_reported_degenerate(self, grid64):
        f = TensorField2D(m=1, grid=grid64, components=np.zeros((2, 64, 64)))
        report = _roundtrip_report(f, SobolevParams(0, 0, 0))
        assert report["degenerate"] is True
        assert "roundtrip_l2_rel" not in report

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_potential_field_reported_degenerate(self, m, grid128):
        # its solenoidal part is 1e-14 of f: noise the gate must not judge
        f = gaussian_test_field(m, "potential", grid128)
        report = _roundtrip_report(f, SobolevParams(0, 0, 0), ntheta=64)
        assert report["degenerate"] is True
        assert "roundtrip_l2_rel" not in report

    def test_report_is_json_ready(self, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        report = _roundtrip_report(f, SobolevParams(0, 0, 0), ntheta=16)
        json.dumps(report)
