"""Checked-in mutants: small faults in the source that named tests must catch.

    python tests/mutants.py [NAME ...]

runs each named mutant, or every mutant when none is named. For each one it
copies the repository's `src/`, `tests/`, `perfbench/` and `pyproject.toml`
to a temporary directory, replaces the mutant's old text with its new text
there, and runs the mutant's tests with pytest. The mutant is killed when
every listed test fails (for a parametrized test, at least one of its
cases). Before any mutant, the listed tests must pass on the unmutated copy.
The command prints one line per mutant and the kill count, and exits 1
unless every mutant was killed.

This is not part of Tier-1: each mutant costs a pytest process.
`tests/test_mutants.py` checks in Tier-1 that each old text occurs exactly
once in its file, so a change that moves the code must update its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                   # relative to the repository root
    old: str                    # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]      # pytest node ids that must fail


MODEL = "src/critiq/model.py"
ROWS = "tests/test_model.py::TestPrefixCache::test_rows_owned_and_from_full_prefix_runs"
IMAGE_CACHE = "tests/test_model.py::TestPrefixCache::test_image_cache_holds_self_attention_from_mm1_on"
FULL_PREFIX = "tests/test_model.py::TestPrefixCache::test_decode_logits_match_full_prefix_runs"
ORACLES = "tests/test_model.py::TestDraftDecoding::test_captions_equal_oracles_in_both_orders"
CHUNKS = "tests/test_model.py::TestChunkedCaptions::test_pooled_tokens_equal_one_image_encoding"

MUTANTS = (
    Mutant("row-past-cross-attention", MODEL,
           "                state = _text_state(x, params, cfg, _causal_mask(end, 0))\n",
           "                state = _text_state(x, params, cfg, _causal_mask(end, 0))\n"
           "                state = (_from_cross(state[0], None, params, \"mm/0\", cfg.n_heads),"
           " state[1])\n",
           (ROWS, ORACLES)),
    Mutant("row-parts-swapped", MODEL,
           "np.stack([t.data[0, -1] for t in state",
           "np.stack([t.data[0, -1] for t in state[::-1]",
           (ROWS, ORACLES)),
    Mutant("rollback-skips-mm1", MODEL,
           '        if name.endswith("/attn"):\n',
           '        if name.endswith("/attn") and name != "mm/1/attn":\n',
           (IMAGE_CACHE, FULL_PREFIX)),
    Mutant("mm0-without-multimodal-layers", MODEL,
           "    if not cfg.multimodal_layers:\n        return x, None\n",
           "",
           (ORACLES,)),
    Mutant("caption-row-of-next-record", "src/critiq/train.py",
           "prefixes=prefixes) for row in pooled]",
           "prefixes=prefixes) for row in np.roll(pooled, -1, axis=0)]",
           (CHUNKS, ORACLES)),
    Mutant("caption-pools-con", "src/critiq/train.py",
           'pool_image(encode_image(images, params, cfg), params, "gen")',
           'pool_image(encode_image(images, params, cfg), params, "con")',
           (CHUNKS,)),
    Mutant("stored-tokens-view-kept", MODEL,
           "        self.pooled[i] = pooled\n",
           "        self.pooled[i] = pooled\n        self.newest = pooled\n",
           (CHUNKS,)),
)


def _pytest(root: Path, ids) -> tuple[int, set[str]]:
    """Run pytest on `ids` under `root`: exit code, ids of failed tests."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=root, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed


def _killed(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def run(mutants) -> int:
    """Apply each mutant to a fresh copy and run its tests; the kill count."""
    kills = 0
    with tempfile.TemporaryDirectory(prefix="critiq-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, clean / name, ignore=ignore)
            else:
                shutil.copy2(src, clean / name)
        code, _ = _pytest(clean, sorted({t for m in mutants for t in m.tests}))
        if code != 0:
            raise SystemExit("mutants: the listed tests do not pass on the unmutated tree")
        for m in mutants:
            work = Path(tmp) / m.name
            shutil.copytree(clean, work)
            target = work / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                raise SystemExit(f"mutants: {m.name}: old text occurs {text.count(m.old)} "
                                 f"times in {m.path}")
            target.write_text(text.replace(m.old, m.new))
            _, failed = _pytest(work, m.tests)
            survived = [t for t in m.tests if not _killed(t, failed)]
            kills += not survived
            print(f"{m.name}: " + ("killed" if not survived
                                   else "SURVIVED " + " ".join(survived)), flush=True)
            shutil.rmtree(work)
    return kills


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in argv if n not in by_name]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {sorted(by_name)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in argv] or list(MUTANTS)
    kills = run(chosen)
    print(f"{kills} of {len(chosen)} mutants killed")
    return 0 if kills == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
