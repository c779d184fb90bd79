import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag import _textfiles
from sparsetag._textfiles import parse_numbers, read_lines


class TestReadLines:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab é\t\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=40),
           st.sampled_from([1, 2, 3, 7, 1 << 18]))
    def test_lines_match_text_mode(self, tmp_path_factory, text, block):
        # small blocks end inside '\r\n', inside a character and inside a line
        path = tmp_path_factory.mktemp("lines") / "f.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            expected = [line.rstrip("\n") for line in fh]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_textfiles, "_BLOCK", block)
            assert list(read_lines(path, ValueError)) == list(enumerate(expected, 1))

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                      "\u2029"])
    def test_only_text_mode_line_ends_split(self, tmp_path, char):
        # str.splitlines splits at each of these; text mode does not
        path = tmp_path / "f.txt"
        path.write_bytes(f"a{char}b\nc{char}\r\n{char}\r{char}d".encode("utf-8"))
        assert list(read_lines(path, ValueError)) == [
            (1, f"a{char}b"), (2, f"c{char}"), (3, char), (4, f"{char}d"),
        ]

    def test_lines_before_a_bad_byte_are_read(self, tmp_path):
        # a caller that rejects an earlier line reports that line, not the bad byte
        path = tmp_path / "f.txt"
        path.write_bytes(b"one\r\ntwo\n\xc3(\nfour\n")
        lines = read_lines(path, ValueError)
        assert next(lines) == (1, "one")
        assert next(lines) == (2, "two")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: not UTF-8 "):
            next(lines)

    @pytest.mark.parametrize("block", [2, 1 << 18])
    def test_bad_byte_names_file_and_line(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(_textfiles, "_BLOCK", block)
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\r\nok\n\xc3\n")
        with pytest.raises(ValueError, match=f"{path}:3: not UTF-8"):
            list(read_lines(path, ValueError))


class TestParseNumbers:
    def test_plain_numbers(self):
        assert parse_numbers(["1", "-2.5e3", "+.5", "7."]) == [1.0, -2500.0, 0.5, 7.0]
        assert parse_numbers(["10", "+3", "-0"], int) == [10, 3, 0]
        assert parse_numbers([]) == []
        inf, nan = parse_numbers(["-Infinity", "nan"])
        assert inf == float("-inf") and nan != nan

    @pytest.mark.parametrize("kind", [int, float])
    @pytest.mark.parametrize("bad", ["1_0", " 1", "1\t", "٣", "１", "", "x", "0x10", "1 0"])
    def test_python_only_forms_rejected_by_name(self, kind, bad):
        with pytest.raises(ValueError, match=re.escape(f"could not convert {bad!r}")):
            parse_numbers(["1", "2", bad, "3"], kind)

    def test_float_text_is_not_an_integer(self):
        with pytest.raises(ValueError, match="'1.5' to an integer"):
            parse_numbers(["1.5"], int)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="0123456789+-.eEinfatyINFATY_ ", max_size=6), max_size=4),
           st.sampled_from([int, float]))
    def test_parses_as_python_where_the_text_is_plain(self, texts, kind):
        def plain(text):
            try:
                kind(text)
            except ValueError:
                return False
            return "_" not in text and " " not in text
        if all(map(plain, texts)):
            got, expected = parse_numbers(texts, kind), [kind(t) for t in texts]
            assert [repr(v) for v in got] == [repr(v) for v in expected]  # nan == nan here
        else:
            bad = next(t for t in texts if not plain(t))
            with pytest.raises(ValueError, match=re.escape(f"could not convert {bad!r}")):
                parse_numbers(texts, kind)
