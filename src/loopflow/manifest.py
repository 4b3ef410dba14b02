"""Run manifests and deterministic flat-file output.

Every CLI run writes a manifest capturing the command, the full
configuration, the seed, and the artifact list.  The manifest is
serialized canonically (sorted keys, no whitespace), its SHA-256 is
appended to every CSV as a trailing comment line, and rerunning the
same manifest with the same seed reproduces every output byte for
byte: floats are printed with %.17g (lossless for doubles) and nothing
volatile (timestamps, paths, hostnames) enters the files.
"""

import hashlib
import json
from dataclasses import dataclass

VERSION = "0.1.0"


def format_value(value):
    """Deterministic text for one CSV cell."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


@dataclass(frozen=True)
class RunManifest:
    """What a run was: command, full config, seed, outputs, version."""

    command: str
    config: dict
    seed: int
    artifacts: tuple
    version: str = VERSION

    def to_json(self):
        return {"command": self.command, "config": self.config, "seed": self.seed,
                "artifacts": list(self.artifacts), "version": self.version}

    @staticmethod
    def from_json(data):
        return RunManifest(command=str(data["command"]), config=dict(data["config"]),
                           seed=int(data["seed"]), artifacts=tuple(data["artifacts"]),
                           version=str(data["version"]))

    def canonical(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def sha256(self):
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def write_manifest(path, manifest):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(manifest.canonical())
        fh.write("\n")


def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return RunManifest.from_json(json.load(fh))


def write_csv(path, header, rows, manifest_hash):
    """Header row, data rows, then the trailing manifest hash comment."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
        fh.write(f"# manifest_sha256={manifest_hash}\n")


def write_json(path, payload):
    """The payload as strict JSON (RFC 8259): a non-finite float raises
    ValueError naming the file before it is opened, since NaN and
    Infinity are not JSON."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def read_csv(path):
    """Read back a CSV written by write_csv: (header, string rows, hash)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    tail = lines[-1]
    if not tail.startswith("# manifest_sha256="):
        raise ValueError(f"{path}: missing manifest hash line")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows, tail.split("=", 1)[1]
