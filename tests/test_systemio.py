import json

import numpy as np
import pytest

from nnscontrol import (
    InputError,
    SystemPair,
    as_vector,
    generate_system,
    parse_system_file,
    system_file_dict,
)
from nnscontrol.cli import main
from nnscontrol.fixtures import fixture_path
from nnscontrol.systemio import dump_system_file


class TestParseSystemFile:
    def test_parses_bundled_fixture(self):
        parsed = parse_system_file(fixture_path("cob_system.json"))
        assert parsed.system.n == 3
        assert parsed.system.m == 4
        assert parsed.s == 1
        assert parsed.name == "change-of-basis-example"
        np.testing.assert_array_equal(parsed.system.A, np.diag([-1.0, -1.0, 0.0]))

    def test_parses_raw_json_text(self):
        parsed = parse_system_file('{"A": [[0.5]], "B": [[1, -1]]}')
        assert parsed.system.n == 1
        assert parsed.s is None

    def test_missing_b_names_the_key(self):
        with pytest.raises(InputError, match='"B"'):
            parse_system_file('{"A": [[1]]}')

    def test_ragged_row_reports_location(self):
        with pytest.raises(InputError, match="row 2"):
            parse_system_file('{"A": [[1, 2], [3]], "B": [[1], [1]]}')

    def test_non_numeric_entry_reports_location(self):
        with pytest.raises(InputError, match="row 1, column 2"):
            parse_system_file('{"A": [[1, "x"], [0, 1]], "B": [[1], [1]]}')

    def test_nonsquare_a(self):
        with pytest.raises(InputError, match="square"):
            parse_system_file('{"A": [[1, 2]], "B": [[1]]}')

    def test_row_count_mismatch(self):
        with pytest.raises(InputError, match="rows"):
            parse_system_file('{"A": [[1]], "B": [[1], [2]]}')

    def test_s_bounds(self):
        with pytest.raises(InputError, match=r"^sparsity level must lie in \[1, 2\], got 3$"):
            parse_system_file('{"A": [[1]], "B": [[1, 2]], "s": 3}')
        with pytest.raises(InputError, match=r"^sparsity level must lie in \[1, 2\], got 0$"):
            parse_system_file('{"A": [[1]], "B": [[1, 2]], "s": 0}')

    def test_missing_path(self):
        with pytest.raises(InputError, match="not found"):
            parse_system_file("/nonexistent/system.json")

    def test_extra_keys_preserved(self):
        parsed = parse_system_file('{"A": [[1]], "B": [[1]], "planted": {"lambda": 1}}')
        assert parsed.extra["planted"] == {"lambda": 1}


class TestRoundTrip:
    def test_generated_systems_round_trip(self):
        for seed in range(5):
            gen = generate_system("random_nonsingular_paired", 2, 4, seed)
            text = dump_system_file(gen.to_file_dict())
            parsed = parse_system_file(text)
            np.testing.assert_array_equal(parsed.system.A, gen.system.A)
            np.testing.assert_array_equal(parsed.system.B, gen.system.B)
            assert parsed.name == gen.name

    def test_dict_serialization_is_stable(self):
        gen = generate_system("planted_rank_deficient", 3, 2, 4)
        once = dump_system_file(gen.to_file_dict())
        twice = dump_system_file(json.loads(once))
        assert once == twice

    def test_system_file_dict_shape(self):
        gen = generate_system("random_nonsingular_paired", 2, 2, 0)
        data = system_file_dict(gen.system, s=1, name="x")
        assert set(data) == {"A", "B", "s", "name"}


class TestEntryMessages:
    """Exact messages for bad matrix entries, which are ``SystemPair``'s (the
    number rule of ``matrixcore``). A ragged row is refused first, then an
    entry that is not a number, then a value that is not finite, each the
    first in row-major order: a non-number anywhere wins over a NaN before it."""

    @pytest.mark.parametrize(
        "a, message",
        [
            ("[[1, 2], [3]]", "A row 2 has 1 entries, expected 2 (ragged)"),
            ("[[1, 2], 3]", "A row 2 is not an array: 3"),
            ("[[true]]", "A entry at row 1, column 1 is not a number: True"),
            ("[[null]]", "A entry at row 1, column 1 is not a number: None"),
            ('[[1, "x"]]', "A entry at row 1, column 2 is not a number: 'x'"),
            ("[[1, [2]]]", "A entry at row 1, column 2 is not a number: [2]"),
            ("[[NaN]]", "A entry at row 1, column 1 is not finite"),
            ("[[0, -Infinity]]", "A entry at row 1, column 2 is not finite"),
            ("[[1e400]]", "A entry at row 1, column 1 is not finite"),
            ('[[1, NaN], ["x", 0]]', "A entry at row 2, column 1 is not a number: 'x'"),
            ("[[1.0, NaN], [Infinity, 0.0]]", "A entry at row 1, column 2 is not finite"),
            ("[[1" + "0" * 400 + "]]", "A entry at row 1, column 1 is not finite"),
            ("[[NaN, 1" + "0" * 400 + "]]", "A entry at row 1, column 1 is not finite"),
            ("[[1" + "0" * 400 + ", NaN]]", "A entry at row 1, column 1 is not finite"),
            ("[[-1" + "0" * 400 + "]]", "A entry at row 1, column 1 is not finite"),
            ("[[%d]]" % (2**1024 - 2**970), "A entry at row 1, column 1 is not finite"),
            ("[[%d, 1%s]]" % (2**1024 - 2**970, "0" * 400),
             "A entry at row 1, column 1 is not finite"),
            ("[[%d, 1%s]]" % (2**1024 - 2**970 - 1, "0" * 400),
             "A entry at row 1, column 2 is not finite"),
            ("[[100000000000000000000]]", None),
            ("[[%d]]" % 2**1023, None),
            ("[[%d]]" % (2**1024 - 2**970 - 1), None),
            ("[]", "A must be 2-D, got shape (0,)"),
            ("[1, 2]", "A must be 2-D, got shape (2,)"),
            ("[[]]", "A must be square, got shape (1, 0)"),
        ],
        ids=[
            "ragged", "scalar-row", "true", "null", "string", "nested", "nan", "infinity",
            "1e400", "nonfinite-first", "floats-nonfinite-first", "int-1e400",
            "nan-before-int-1e400", "int-1e400-before-nan", "int-minus-1e400",
            "int-rounds-to-2**1024", "int-rounds-to-2**1024-then-int-1e400",
            "int-largest-finite-then-int-1e400", "int-1e20", "int-2**1023", "int-largest-finite", "empty",
            "not-arrays", "empty-row",
        ],
    )
    def test_messages(self, a, message):
        text = '{"A": %s, "B": [[1]]}' % a
        if message is None:  # accepted, as the float nearest the integer
            assert parse_system_file(text).system.A[0, 0] == float(json.loads(a)[0][0])
            return
        with pytest.raises(InputError) as info:
            parse_system_file(text)
        assert str(info.value) == message


BIG_INT = "1" + "0" * 400  # a 401-digit integer, too large for a float


class TestOneNumberRule:
    """One bad entry gets the same refusal by every route that reads numbers:
    a system file and a certificate's z through ``cli.main``, ``SystemPair``
    and ``as_vector``. Only the name and location differ."""

    @pytest.mark.parametrize(
        "entry, refusal",
        [
            ("true", "is not a number: True"),
            ("null", "is not a number: None"),
            ('"x"', "is not a number: 'x'"),
            ('"1.5"', "is not a number: '1.5'"),
            ("[2]", "is not a number: [2]"),
            ("NaN", "is not finite"),
            ("1e400", "is not finite"),
            (BIG_INT, "is not finite"),
        ],
        ids=["true", "null", "string", "numeric-string", "list", "nan", "1e400", "int-1e400"],
    )
    def test_entry(self, capsys, tmp_path, entry, refusal):
        matrix = "[[1, %s], [0, 1]]" % entry
        vector = "[0, %s, 1]" % entry
        self.assert_routes(
            capsys, tmp_path, matrix, vector,
            f"A entry at row 1, column 2 {refusal}", f"z.re entry 2 {refusal}",
        )

    def test_ragged_row(self, capsys, tmp_path):
        # A ragged matrix is refused by its row; in a vector the row is an entry.
        self.assert_routes(
            capsys, tmp_path, "[[1, 2], [3]]", "[[1, 2], [3]]",
            "A row 2 has 1 entries, expected 2 (ragged)", "z.re entry 1 is not a number: [1, 2]",
        )

    def assert_routes(self, capsys, tmp_path, matrix, vector, matrix_refusal, vector_refusal):
        system = tmp_path / "sys.json"
        system.write_text('{"A": %s, "B": [[1], [1]]}' % matrix)
        cert = tmp_path / "cert.json"
        cert.write_text(
            '{"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0}, '
            '"z": {"re": %s, "im": [0, 0, 0]}}' % vector
        )
        cob_t = fixture_path("cob_transformed.json")
        for argv, refusal in [
            (["check", str(system)], matrix_refusal),
            (["verify-cert", cob_t, "--cert", str(cert)], f"malformed certificate: {vector_refusal}"),
        ]:
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"error: {refusal}\n")
        with pytest.raises(InputError) as info:
            SystemPair(A=json.loads(matrix), B=[[1], [1]])
        assert str(info.value) == matrix_refusal
        with pytest.raises(InputError) as info:
            as_vector(json.loads(vector), "z.re")
        assert str(info.value) == vector_refusal


class TestLoader:
    """System and certificate files share one loader and its messages."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[1]]", "system file must be a JSON object"),
            ('{"A": [[1]], ', "malformed system JSON: Expecting property name enclosed in "
             "double quotes: line 1 column 14 (char 13)"),
        ],
        ids=["array", "malformed"],
    )
    def test_messages(self, tmp_path, text, message):
        path = tmp_path / "sys.json"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            parse_system_file(path)
        assert str(info.value) == message


class TestFieldMessages:
    """Exact messages for bad optional fields and sources."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"A": [[1]], "B": [[1]], "s": 1.5}', "sparsity level must be an integer, got 1.5"),
            ('{"A": [[1]], "B": [[1]], "s": true}', "sparsity level must be an integer, got True"),
            ('{"A": [[1]], "B": [[1]], "name": 7}', '"name" must be a string, got 7'),
        ],
        ids=["float-s", "bool-s", "int-name"],
    )
    def test_messages(self, text, message):
        with pytest.raises(InputError) as info:
            parse_system_file(text)
        assert str(info.value) == message

    def test_unsupported_source_type(self):
        with pytest.raises(InputError) as info:
            parse_system_file(42)
        assert str(info.value) == "unsupported system source type int"


class TestUnreadablePath:
    def test_missing_path_object(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(InputError, match="^system file not found: "):
            parse_system_file(missing)

    def test_directory(self, tmp_path):
        with pytest.raises(InputError, match="^cannot read system file "):
            parse_system_file(str(tmp_path))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_bytes(b'{"A": [[1]], "B": [[1]], "name": "\xff"}')
        with pytest.raises(InputError, match="^cannot read system file "):
            parse_system_file(path)
