"""The preprocessing pipeline on the bundled Cleveland table.

Raw file -> drop incomplete rows -> binarize the diagnosis and recode
categoricals -> bin the five continuous attributes.  The default cutpoints
were calibrated so the binned tables reproduce the published conditional
probability tables; note that maximum heart rate is binned relative to age.
"""

import numpy as np

from heartbn import DEFAULT_CUTPOINTS, clean, discretize, load_cleveland

raw = load_cleveland()
print(f"raw rows: {len(raw)}")
print("first row:", ",".join(raw[0]))

cleaned = clean(raw)
print(f"\nafter dropping rows with '?': {len(cleaned)}")

print("\ndefault cutpoints:")
for attr in ("age", "trestbps", "chol", "thalach", "oldpeak"):
    note = "  (applies to thalach + age)" if attr == "thalach" else ""
    print(f"  {attr:9s} {getattr(DEFAULT_CUTPOINTS, attr)}{note}")

table = discretize(cleaned)
print("\ndiscretized schema:")
for var in table.schema:
    counts = np.bincount(table.column(var.name), minlength=var.cardinality)
    print(f"  {var.name:10s} states={var.cardinality}  counts={counts.tolist()}")
