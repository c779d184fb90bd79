import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag._textfiles import read_lines


class TestReadLines:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab é\t\r\n\x0c\x85 ", max_size=40))
    def test_lines_match_text_mode(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("lines") / "f.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            expected = [line.rstrip("\n") for line in fh]
        assert [line for _, line in read_lines(path, ValueError)] == expected
        assert [n for n, _ in read_lines(path, ValueError)] == list(range(1, len(expected) + 1))

    def test_bad_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\r\nok\n\xc3\n")
        with pytest.raises(ValueError, match=f"{path}:3: not UTF-8"):
            list(read_lines(path, ValueError))

