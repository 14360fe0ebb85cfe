import re
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from promiselab.config import Config, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "lab.cfg"
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_keys_and_values(self, tmp_path):
        path = _write(tmp_path, "# caps\nmax-qubits = 8\n\nthreshold-s = 1/4\n")
        assert load_config(path) == Config(max_qubits=8,
                                           threshold_s=Fraction(1, 4))

    @pytest.mark.parametrize("text,lineno", [
        ("threshold-c = 1/0\n", 1),
        ("max-qubits = 4\nmax-qubits = abc\n", 2),
        ("max-qubits = 4\nmax-qubits\n", 2),  # expected key=value
    ])
    def test_bad_value_names_file_and_line(self, tmp_path, text, lineno):
        path = _write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: ")):
            load_config(path)

    @pytest.mark.parametrize("text,lineno", [
        ("max-qubits = 0\n", 1),
        ("threshold-c = 1/2\n\nmax-word-length = -1\n", 3),
        ("threshold-c = 1/4\nmax-qubits = 3\n", 1),
        ("threshold-c = 1/4\nmax-qubits = 3\nthreshold-s = 1/2\n", 3),
    ])
    def test_out_of_range_value_names_file_and_line(self, tmp_path, text,
                                                    lineno):
        path = _write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: ")):
            load_config(path)

    def test_thresholds_are_checked_together(self, tmp_path):
        # s above the default c is fine once the file also raises c
        path = _write(tmp_path, "threshold-s = 3/4\nthreshold-c = 4/5\n")
        assert load_config(path) == Config(threshold_c=Fraction(4, 5),
                                           threshold_s=Fraction(3, 4))


def _readme_keys() -> list[str]:
    caps = README.read_text(encoding="utf-8").split("## Caps", 1)[1]
    return re.findall(r"^\| `([a-z-]+)` \|", caps, flags=re.MULTILINE)


class TestReadmeKeys:
    def test_readme_lists_exactly_the_config_keys(self):
        keys = {f.name.replace("_", "-") for f in fields(Config)}
        assert sorted(_readme_keys()) == sorted(keys)

    def test_every_readme_key_loads(self, tmp_path):
        path = _write(tmp_path, "".join(f"{key} = 1\n" for key in _readme_keys()))
        config = load_config(path)
        assert all(getattr(config, f.name) == 1 for f in fields(Config))
