"""Container formats: bit-exact round trips and malformed-input handling."""

import json

import numpy as np
import pytest

from tensorray import (
    FileFormatError,
    export_csv,
    forward,
    gaussian_test_field,
    read_field,
    read_sinogram,
    write_field,
    write_sinogram,
)


class TestFieldContainer:
    def test_roundtrip_bit_exact(self, tmp_path, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        path = tmp_path / "f.tf2d"
        write_field(path, f)
        back = read_field(path)
        assert back.m == f.m
        assert back.grid == f.grid
        assert np.array_equal(back.components, f.components)

    def test_header_contents(self, tmp_path, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        path = tmp_path / "f.tf2d"
        write_field(path, f)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header == {
            "format": "tf2d", "version": 1, "m": 0, "n": 64, "radius": 8.0,
            "dtype": "f64le", "layout": "row-major, components outermost",
        }

    def test_malformed_header_reports_offset(self, tmp_path):
        path = tmp_path / "bad.tf2d"
        path.write_bytes(b'{"format": "tf2d", oops\n')
        with pytest.raises(FileFormatError, match="byte offset"):
            read_field(path)

    def test_truncated_payload_reports_offset(self, tmp_path, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        path = tmp_path / "f.tf2d"
        write_field(path, f)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(FileFormatError, match="floats"):
            read_field(path)

    def test_unterminated_header(self, tmp_path):
        path = tmp_path / "cut.tf2d"
        path.write_bytes(b'{"format": "tf2d"')  # no newline, no payload
        with pytest.raises(FileFormatError, match="unterminated"):
            read_field(path)

    def test_wrong_format_tag(self, tmp_path, grid64):
        psi = forward(gaussian_test_field(0, "generic", grid64), num_p=17, ntheta=8)
        path = tmp_path / "psi.sino2d"
        write_sinogram(path, psi)
        with pytest.raises(FileFormatError, match="tf2d"):
            read_field(path)

    def test_unsupported_version(self, tmp_path):
        header = {"format": "tf2d", "version": 2, "m": 0, "n": 16, "radius": 1.0}
        path = tmp_path / "v2.tf2d"
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(FileFormatError, match="version"):
            read_field(path)


    def test_ragged_payload_reports_offset(self, tmp_path, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        path = tmp_path / "f.tf2d"
        write_field(path, f)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        header_len = data.index(b"\n") + 1
        whole = 8 * (64 * 64 - 1)
        with pytest.raises(FileFormatError, match="whole number") as info:
            read_field(path)
        assert info.value.offset == header_len + whole

    @pytest.mark.parametrize("key", ["m", "n"])
    @pytest.mark.parametrize("value", [1.9, True, "16", None], ids=["float", "bool", "str", "null"])
    def test_integer_keys_must_be_json_integers(self, tmp_path, key, value):
        header = {"format": "tf2d", "version": 1, "m": 0, "n": 16, "radius": 1.0, key: value}
        path = tmp_path / "f.tf2d"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * 16 * 16))
        with pytest.raises(FileFormatError, match=f"'{key}' must be a JSON integer"):
            read_field(path)

    @pytest.mark.parametrize("value", [True, "8", None], ids=["bool", "str", "null"])
    def test_radius_must_be_json_number(self, tmp_path, value):
        header = {"format": "tf2d", "version": 1, "m": 0, "n": 16, "radius": value}
        path = tmp_path / "f.tf2d"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * 16 * 16))
        with pytest.raises(FileFormatError, match="'radius' must be a JSON number"):
            read_field(path)

    def test_integer_radius_accepted(self, tmp_path):
        header = {"format": "tf2d", "version": 1, "m": 0, "n": 16, "radius": 8}
        path = tmp_path / "f.tf2d"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * 16 * 16))
        assert read_field(path).grid.radius == 8.0


class TestSinogramContainer:
    def test_roundtrip_bit_exact(self, tmp_path, grid64):
        psi = forward(gaussian_test_field(1, "generic", grid64), num_p=33, ntheta=16)
        path = tmp_path / "psi.sino2d"
        write_sinogram(path, psi)
        back = read_sinogram(path)
        assert back.m == psi.m and back.pmax == psi.pmax
        assert np.array_equal(back.samples, psi.samples)


    def test_ragged_payload_reports_offset(self, tmp_path, grid64):
        psi = forward(gaussian_test_field(0, "generic", grid64), num_p=17, ntheta=8)
        path = tmp_path / "psi.sino2d"
        write_sinogram(path, psi)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(FileFormatError, match="whole number"):
            read_sinogram(path)

    @pytest.mark.parametrize("key", ["m", "np", "ntheta"])
    @pytest.mark.parametrize("value", [4.0, False, "4"], ids=["float", "bool", "str"])
    def test_integer_keys_must_be_json_integers(self, tmp_path, key, value):
        header = {"format": "sino2d", "version": 1, "m": 0, "np": 4, "ntheta": 4,
                  "pmax": 1.0, key: value}
        path = tmp_path / "psi.sino2d"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * 16))
        with pytest.raises(FileFormatError, match=f"'{key}' must be a JSON integer"):
            read_sinogram(path)

    @pytest.mark.parametrize("value", [True, "1.0", None], ids=["bool", "str", "null"])
    def test_pmax_must_be_json_number(self, tmp_path, value):
        header = {"format": "sino2d", "version": 1, "m": 0, "np": 4, "ntheta": 4, "pmax": value}
        path = tmp_path / "psi.sino2d"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * 16))
        with pytest.raises(FileFormatError, match="'pmax' must be a JSON number"):
            read_sinogram(path)


@pytest.mark.parametrize("fmt, key", [
    ("tf2d", "m"), ("tf2d", "n"), ("sino2d", "m"), ("sino2d", "np"), ("sino2d", "ntheta"),
])
def test_negative_counts_rejected(tmp_path, fmt, key):
    # a negative count would otherwise reach the payload size or the reshape
    sizes = {"tf2d": {"m": 0, "n": 4, "radius": 1.0},
             "sino2d": {"m": 0, "np": 4, "ntheta": 4, "pmax": 1.0}}[fmt]
    header = {"format": fmt, "version": 1, **sizes, key: -2}
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * 16))
    read = read_field if fmt == "tf2d" else read_sinogram
    with pytest.raises(FileFormatError, match=f"'{key}' must be >= 0") as info:
        read(path)
    assert info.value.offset == 0


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("fmt, key", [("tf2d", "radius"), ("sino2d", "pmax")])
def test_non_json_constants_rejected(tmp_path, fmt, key, constant):
    # Python's json reads these three; a length must be a JSON number
    sizes = {"tf2d": {"m": 0, "n": 4, "radius": 1.0},
             "sino2d": {"m": 0, "np": 4, "ntheta": 4, "pmax": 1.0}}[fmt]
    header = json.dumps({"format": fmt, "version": 1, **sizes, key: float(constant)})
    assert constant in header
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(header.encode() + b"\n" + bytes(8 * 16))
    read = read_field if fmt == "tf2d" else read_sinogram
    with pytest.raises(FileFormatError, match=f"holds {constant}, which is not a JSON number") as info:
        read(path)
    assert info.value.offset == header.index(f": {constant}") + 2


class TestCsvExport:
    def test_sinogram_rows(self, tmp_path, grid64):
        psi = forward(gaussian_test_field(0, "generic", grid64), num_p=17, ntheta=8)
        src = tmp_path / "psi.sino2d"
        dest = tmp_path / "psi.csv"
        write_sinogram(src, psi)
        rows = export_csv(src, dest)
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "p,theta,psi"
        assert rows == 17 * 8 == len(lines) - 1
        p, theta, value = lines[1].split(",")
        assert float(p) == -8.0 and float(theta) == 0.0
        assert float(value) == psi.samples[0, 0]

    def test_field_rows(self, tmp_path, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        src = tmp_path / "f.tf2d"
        dest = tmp_path / "f.csv"
        write_field(src, f)
        rows = export_csv(src, dest)
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "x,y,j,f_j"
        assert rows == 2 * 64 * 64 == len(lines) - 1
        # 17 significant digits survive the text round trip exactly
        x, y, j, value = lines[1].split(",")
        assert (float(x), float(y), int(j)) == (-8.0, -8.0, 0)
        assert float(value) == f.components[0, 0, 0]

    def test_malformed_source(self, tmp_path):
        src = tmp_path / "junk.bin"
        src.write_bytes(b"not a container\n")
        with pytest.raises(FileFormatError, match="byte offset"):
            export_csv(src, tmp_path / "out.csv")

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "absent"])
    def test_malformed_source_leaves_destination_alone(self, tmp_path, grid64, existing):
        src = tmp_path / "short.tf2d"
        write_field(src, gaussian_test_field(1, "solenoidal", grid64))
        src.write_bytes(src.read_bytes()[:-8])  # one float short of the header's count
        dest = tmp_path / "out.csv"
        before = b"x,y,j,f_j\n0,0,0,1\n"
        if existing:
            dest.write_bytes(before)
        with pytest.raises(FileFormatError, match="payload holds"):
            export_csv(src, dest)
        if existing:
            assert dest.read_bytes() == before
        else:
            assert not dest.exists()
