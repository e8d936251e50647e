"""Run configuration: problem, truncation, scan, output, reproducibility."""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from .coefficients import JacobiCoefficients
from .evaluation import TruncationPolicy
from .zeros import RootScanConfig


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs to run deterministically."""

    problem: JacobiCoefficients
    truncation: TruncationPolicy
    scan: RootScanConfig
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


def default_config(**overrides) -> RunConfig:
    base = dict(
        problem=JacobiCoefficients.power_law(2.0),
        truncation=TruncationPolicy(),
        scan=RootScanConfig(window=(-40.0, 40.0)),
        precision="standard",
        seed=1234,
        out=None,
        format="text",
    )
    base.update(overrides)
    return RunConfig(**base)


def parse_complex(text: str) -> complex:
    """Parse complex literals written as a+bi (i or j accepted)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    s = s.replace("i", "j")
    if s == "j":
        s = "1j"
    elif s.endswith("+j"):
        s = s[:-1] + "1j"
    elif s.endswith("-j"):
        s = s[:-1] + "1j"
    try:
        return complex(s)
    except ValueError:
        raise ValueError(f"malformed complex literal {text!r}") from None


def parse_window(text: str) -> Tuple[float, float]:
    """Parse `lo:hi` windows."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    return lo, hi


def load_config_file(path: str) -> dict:
    """Read an INI-style config file into keyword overrides for RunConfig."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    out: dict = {}

    if cp.has_section("problem"):
        sec = cp["problem"]
        kind = sec.get("kind", "power_law")
        if kind == "power_law":
            out["problem"] = JacobiCoefficients.power_law(sec.getfloat("c", 2.0))
        elif kind == "file":
            out["problem"] = JacobiCoefficients.from_file(sec.get("path"))
        else:
            raise ValueError(f"unknown problem kind {kind!r} in {path}")

    if cp.has_section("truncation"):
        sec = cp["truncation"]
        out["truncation"] = TruncationPolicy(
            n_max=sec.getint("n_max", 500),
            tail_tol=sec.getfloat("tail_tol", 1e-3),
            safety=sec.getfloat("safety", 10.0))

    if cp.has_section("scan"):
        sec = cp["scan"]
        out["scan"] = RootScanConfig(
            window=parse_window(sec.get("window", "-40:40")),
            refine_tol=sec.getfloat("refine_tol", 1e-11))

    if cp.has_section("run"):
        sec = cp["run"]
        out["precision"] = sec.get("precision", "standard")
        out["seed"] = sec.getint("seed", 1234)
        fmt = sec.get("format", "text")
        out["format"] = fmt
        o = sec.get("out", fallback=None)
        out["out"] = None if o in (None, "", "-") else o
    return out
