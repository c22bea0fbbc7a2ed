import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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
def set_cores(monkeypatch):
    """set_cores(c) makes every loaded siamtab module see c usable cores,
    for the test's duration."""

    def set_(cores: int):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "siamtab" and hasattr(module, "CORES"):
                monkeypatch.setattr(module, "CORES", cores)

    return set_


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
