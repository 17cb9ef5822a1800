"""README's config example lists every `RunConfig` key."""
import re
from dataclasses import fields
from pathlib import Path

from afem.config import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_lists_every_key():
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    keys = [line.split("=", 1)[0].strip() for line in blocks[0].splitlines()
            if line.split("#", 1)[0].strip()]
    assert len(keys) == len(set(keys))
    coeffs = [k for k in keys if k.startswith("coeff.")]
    assert coeffs
    # coefficients is set through coeff.* keys, never by its own name
    assert set(keys) - set(coeffs) == {f.name for f in fields(RunConfig)} - {"coefficients"}
