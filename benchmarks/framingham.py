"""Framingham-shaped input generator for the benchmark.

Writes a CSV with the real 16-column Framingham header, 4240 rows, exactly
644 rows in class 1 and the real file's per-column missing-cell counts, so
`siamtab prepare --data` runs the real-data path (load_csv -> impute ->
to_features). Column distributions roughly follow the published summary
statistics. It is a timing stand-in, not the study data: class-1 rows are
shifted by CLASS_SHIFT standard deviations on every continuous column, which
makes the classes far easier to separate than in the real table, so the
quality guards the benchmark reads stay steady from one seed to the next.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ROWS = 4240
POSITIVES = 644

HEADER = (
    "male,age,education,currentSmoker,cigsPerDay,BPMeds,prevalentStroke,"
    "prevalentHyp,diabetes,totChol,sysBP,diaBP,BMI,heartRate,glucose,TenYearCHD"
)

# Missing cells per column in the published file (645 in total).
MISSING = {
    "education": 105,
    "cigsPerDay": 29,
    "BPMeds": 53,
    "totChol": 50,
    "BMI": 19,
    "heartRate": 1,
    "glucose": 388,
}

# Continuous columns: (mean, stddev, low, high, decimals).
CONTINUOUS = {
    "age": (49.6, 8.6, 32, 70, 0),
    "cigsPerDay": (18.0, 11.0, 1, 70, 0),  # smokers only; non-smokers get 0
    "totChol": (237.0, 44.0, 107, 600, 0),
    "sysBP": (132.0, 22.0, 83.5, 295, 1),
    "diaBP": (83.0, 12.0, 48, 142.5, 1),
    "BMI": (25.8, 4.1, 15.54, 56.8, 2),
    "heartRate": (76.0, 12.0, 44, 143, 0),
    "glucose": (82.0, 24.0, 40, 394, 0),
}

# Nominal 0/1 columns: P(value = 1).
NOMINAL = {
    "male": 0.43,
    "currentSmoker": 0.49,
    "BPMeds": 0.03,
    "prevalentStroke": 0.006,
    "prevalentHyp": 0.31,
    "diabetes": 0.026,
}

EDUCATION_P = (0.42, 0.30, 0.17, 0.11)  # levels 1..4

CLASS_SHIFT = 1.5  # class-1 offset, in standard deviations, per continuous column


def generate(seed: int) -> list[list[str]]:
    """Rows of CSV cells (label last), deterministic per seed."""
    rng = np.random.default_rng(seed)
    label = np.zeros(ROWS, dtype=np.int64)
    label[rng.choice(ROWS, POSITIVES, replace=False)] = 1

    cols: dict[str, list[str]] = {}
    for name, p in NOMINAL.items():
        cols[name] = [str(v) for v in (rng.random(ROWS) < p).astype(np.int64)]
    cols["education"] = [str(v) for v in rng.choice(4, ROWS, p=EDUCATION_P) + 1]
    smoker = np.array(cols["currentSmoker"]) == "1"
    for name, (mean, std, low, high, decimals) in CONTINUOUS.items():
        values = rng.normal(mean + CLASS_SHIFT * std * label, std)
        values = np.round(np.clip(values, low, high), decimals)
        if name == "cigsPerDay":
            values = np.where(smoker, values, 0.0)
        if decimals == 0:
            cols[name] = [str(int(v)) for v in values]
        else:
            cols[name] = [f"{v:.{decimals}f}" for v in values]
    for name, count in MISSING.items():
        for i in rng.choice(ROWS, count, replace=False):
            cols[name][i] = "NA"
    cols["TenYearCHD"] = [str(v) for v in label]

    names = HEADER.split(",")
    return [[cols[name][i] for name in names] for i in range(ROWS)]


def write_csv(path: str | Path, seed: int) -> Path:
    """Write the generated table to `path` and return the path."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(HEADER + "\n")
        for row in generate(seed):
            fh.write(",".join(row) + "\n")
    return path
