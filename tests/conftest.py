import hashlib
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from siamtab import cli
from siamtab.data import apply_norm, fit_norm, stratified_split, synth_generate
from siamtab.pairs import generate_pairs
from siamtab.siamese import build_reference_bank
from siamtab.train import siamese_config, train_siamese

FRAMINGHAM_ENV = "SIAMTAB_FRAMINGHAM"


def framingham_path() -> Path | None:
    """Locate the real Framingham CSV, if the user has provided one."""
    env = os.environ.get(FRAMINGHAM_ENV)
    if env:
        return Path(env)
    default = Path(__file__).resolve().parents[1] / "data" / "framingham.csv"
    return default if default.exists() else None


needs_framingham = pytest.mark.skipif(
    framingham_path() is None,
    reason=f"Framingham CSV not found; set {FRAMINGHAM_ENV} or add data/framingham.csv",
)


@pytest.fixture
def rerecord():
    """rerecord(out, name) records artifact `name` in out/run.json as its
    producer's last write, made from the files now in out, as if the
    producer had written its current bytes. A test that hand-edits an
    artifact reaches the reader behind the manifest this way."""

    def rerecord_(out, name):
        def sha256(read):
            return hashlib.sha256((out / read).read_bytes()).hexdigest()

        manifest = json.loads((out / cli.MANIFEST).read_text())
        producer = next(stage for stage, (_, _, writes) in cli.STAGES.items() if name in writes)
        entry = manifest.setdefault(producer, {"writes": {}})
        entry["reads"] = {read: sha256(read) for read in cli.STAGES[producer][1]}
        entry["writes"][name] = sha256(name)
        (out / cli.MANIFEST).write_text(json.dumps(manifest))

    return rerecord_


@pytest.fixture(scope="session")
def synth_trained():
    """A small trained pair model on separable synthetic data, shared across
    tests that need a working model but not a fresh one."""
    ft = synth_generate(600, 10, 0.3, seed=11)
    normed = apply_norm(ft, fit_norm(ft))
    train_ft, test_ft = stratified_split(normed, 0.25, seed=5)
    ps = generate_pairs(train_ft, 3000, 1500, 1500, seed=17)
    cfg = siamese_config(seed=23, epochs=6)
    model, history = train_siamese(cfg, ps)
    bank = build_reference_bank(train_ft, 10, seed=29)
    return SimpleNamespace(
        model=model,
        bank=bank,
        train=train_ft,
        test=test_ft,
        pairs=ps,
        history=history,
    )
