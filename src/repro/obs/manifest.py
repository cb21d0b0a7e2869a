"""Per-run provenance manifest.

A manifest pins down everything needed to reproduce (or refuse to
compare) a result: the exact configuration (content hash), the seed,
the code version (git sha and a fingerprint of the ``repro`` source
tree), and the interpreter/platform that produced it.  ``repro.cli
run --obs-dir DIR`` writes one beside the run's metrics (CI's bench
job uploads them), so numbers are never compared across unknown code
or machines.

Manifests are deterministic for a fixed (config, seed, code,
interpreter): no timestamps, no absolute paths — the unit tests assert
two manifests for the same run are equal.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

#: Bumped when the manifest layout changes incompatibly.
SCHEMA_VERSION = 5


def _json_default(obj: Any) -> str:
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    raise TypeError(f"unhashable manifest value: {obj!r}")


def config_hash(config: Any) -> str:
    """Stable content hash of a (dataclass) system configuration."""
    if dataclasses.is_dataclass(config):
        payload = dataclasses.asdict(config)
    else:
        payload = config
    blob = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(blob.encode()).hexdigest()


_code_fp: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package (memoised).

    Changes with any edit to the simulator, committed or not, where
    :func:`git_sha` only names the last commit.
    """
    global _code_fp
    if _code_fp is None:
        digest = hashlib.sha256()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _code_fp = digest.hexdigest()
    return _code_fp


def git_sha() -> Optional[str]:
    """HEAD commit of the repo containing this package, if available."""
    root = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_manifest(
    config: Any = None,
    workload: Optional[str] = None,
    ops: Optional[int] = None,
    seed: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the provenance manifest for one run (plain JSON-safe dict).

    ``seed`` defaults to ``config.seed`` when the config carries one.
    ``extra`` entries are merged under the ``"extra"`` key verbatim.
    """
    if seed is None and config is not None:
        seed = getattr(config, "seed", None)
    manifest: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "config_hash": None if config is None else config_hash(config),
        "workload": workload,
        "ops": ops,
        "seed": seed,
        "git_sha": git_sha(),
        "code_fingerprint": code_fingerprint(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "endianness": sys.byteorder,
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Write ``manifest`` as stable, sorted JSON at ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
