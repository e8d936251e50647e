"""Run configuration: problem, truncation, scan, output, reproducibility."""

from __future__ import annotations

import configparser
import hashlib
import re
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .coefficients import JacobiCoefficients
from .evaluation import TruncationPolicy
from .zeros import RootScanConfig


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs to run deterministically.

    The field defaults are the defaults of every run setting.
    """

    problem: JacobiCoefficients = JacobiCoefficients.power_law(2.0)
    truncation: TruncationPolicy = TruncationPolicy()
    scan: RootScanConfig = RootScanConfig(window=(-40.0, 40.0))
    precision: str = "standard"
    seed: int = 1234
    out: Optional[str] = None
    format: str = "text"

    def __post_init__(self):
        if self.precision not in ("standard", "extended"):
            raise ValueError("precision must be 'standard' or 'extended'")
        if self.format not in ("csv", "text"):
            raise ValueError("format must be 'csv' or 'text'")

    def describe(self) -> str:
        lo, hi = self.scan.window
        parts = [
            f"problem={self.problem.description}",
            f"n_max={self.truncation.n_max}",
            f"tail_tol={self.truncation.tail_tol:.17g}",
            f"safety={self.truncation.safety:.17g}",
            f"window={lo:.17g}:{hi:.17g}",
            f"refine_tol={self.scan.refine_tol:.17g}",
            f"precision={self.precision}",
            f"seed={self.seed}",
        ]
        return " ".join(parts)

    def config_hash(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()[:16]


# A leading sign or the sign joining the real and imaginary parts, with the
# whitespace around it; an exponent's sign is neither.
_SIGN_SPACE = re.compile(r"(?<![eE])\s*([+-])\s*")


def parse_complex(text: str) -> complex:
    """Parse complex literals written as a+bi (i or j accepted).

    Whitespace may stand only at the ends and around a leading or joining
    sign: "1 + 2i" and "- 2" parse, "1 2i" is malformed.
    """
    s = _SIGN_SPACE.sub(r"\1", text.strip())
    if not s:
        raise ValueError("empty complex literal")
    s = s.replace("i", "j")
    if s == "j":
        s = "1j"
    elif s.endswith(("+j", "-j")):
        s = s[:-1] + "1j"
    try:
        return complex(s)
    except ValueError:
        raise ValueError(f"malformed complex literal {text!r}") from None


def parse_window(text: str) -> Tuple[float, float]:
    """Parse `lo:hi` windows; RootScanConfig checks the bounds."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must be lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


# The run settings by config-file section: name -> parser of its text.
# The flags give some of the same settings under the same names.
SETTINGS = {
    "problem": {"kind": str, "c": float, "path": str},
    "truncation": {"n_max": int, "tail_tol": float, "safety": float},
    "scan": {"window": parse_window, "refine_tol": float},
    "run": {"precision": str, "seed": int, "format": str,
            "out": lambda text: text or None},
}


def load_config_file(path: str) -> dict:
    """The settings an INI-style config file gives, by name.

    An unknown section or key is a ValueError that names it.
    """
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise FileNotFoundError(path)
    if cp.defaults():
        raise ValueError(f"{path}: unknown section [{cp.default_section}]")
    out: dict = {}
    for section in cp.sections():
        if section not in SETTINGS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, text in cp[section].items():
            parse = SETTINGS[section].get(key)
            if parse is None:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            out[key] = parse(text)
    return out


def merge_settings(*layers: dict) -> RunConfig:
    """RunConfig's defaults, overridden key by key by each layer in turn.

    A layer maps setting names (see ``SETTINGS``) to values.  ``kind``
    selects the problem: "power_law" reads ``c``, "file" reads ``path``.
    """
    s = {key: value for layer in layers for key, value in layer.items()}
    base = RunConfig()

    def given(section: str) -> dict:
        return {key: s[key] for key in SETTINGS[section] if key in s}

    kind = s.get("kind", "power_law")
    if kind == "file":
        if "path" not in s:
            raise ValueError("problem kind 'file' needs a path")
        problem = JacobiCoefficients.from_file(s["path"])
    elif kind == "power_law":
        problem = JacobiCoefficients.power_law(s["c"]) if "c" in s else base.problem
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    return replace(base, problem=problem,
                   truncation=replace(base.truncation, **given("truncation")),
                   scan=replace(base.scan, **given("scan")), **given("run"))
