"""Run manifests: the audit record that makes a campaign reproducible.

A manifest captures everything needed to re-run or audit one invocation —
kernel key, seed and config, the git revision and library versions it ran
under, the path of its JSONL event log, the final resilience profile, and
wall-clock/metric totals.  The CLI writes one next to its output when
``--manifest`` is given, and every benchmark result under
``benchmarks/results/`` gets a sibling ``<name>.manifest.json`` so the
numbers stay traceable to exact configs.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import ReproError

MANIFEST_VERSION = 1


def git_revision(cwd: str | Path | None = None) -> str | None:
    """The HEAD commit of the checkout containing this package (or of
    ``cwd`` when given), or None outside any git checkout — e.g. for an
    installed wheel."""
    if cwd is None:
        cwd = Path(__file__).parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def library_versions() -> dict[str, str]:
    """Interpreter and dependency versions that affect results."""
    import numpy

    from .. import __version__

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": __version__,
    }


def profile_to_dict(profile) -> dict:
    """Duck-typed :class:`~repro.faults.ResilienceProfile` serialisation."""
    return {
        "weights": dict(profile.weights),
        "n_injections": profile.n_injections,
        "percentages": profile.as_percentages(),
    }


@dataclass
class RunManifest:
    """One auditable record of one run."""

    kernel: str
    command: str = ""
    argv: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seed: int | None = None
    git_rev: str | None = None
    versions: dict = field(default_factory=dict)
    created_at: str = ""
    events_path: str | None = None
    profile: dict | None = None
    wall_clock_s: float | None = None
    metrics: dict | None = None
    version: int = MANIFEST_VERSION

    @classmethod
    def create(
        cls,
        kernel: str,
        command: str = "",
        config: dict | None = None,
        seed: int | None = None,
        events_path: str | Path | None = None,
    ) -> "RunManifest":
        """A manifest stamped with the current environment."""
        return cls(
            kernel=kernel,
            command=command,
            argv=list(sys.argv),
            config=dict(config or {}),
            seed=seed,
            git_rev=git_revision(),
            versions=library_versions(),
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            events_path=str(events_path) if events_path is not None else None,
        )

    def record_profile(self, profile) -> None:
        self.profile = profile_to_dict(profile)

    def finalize(self, telemetry=None, wall_clock_s: float | None = None) -> None:
        """Capture end-of-run totals from a telemetry bundle."""
        self.wall_clock_s = wall_clock_s
        if telemetry is not None and telemetry.enabled:
            self.metrics = telemetry.metrics.snapshot()

    # -------------------------------------------------------------- (de)ser

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        if data.get("version") != MANIFEST_VERSION:
            raise ReproError(f"unsupported manifest version {data.get('version')!r}")
        fields = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in fields})

    def write(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1) + "\n")


def load_manifest(path: str | Path) -> RunManifest:
    return RunManifest.from_dict(json.loads(Path(path).read_text()))
