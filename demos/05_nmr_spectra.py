"""Carbon spectra of solver states, Lorentzian fitting, and shift drift.

Each of the eight carbon lines carries the population difference
p_j - p_(j+8) of the measured state, so the two solution peaks display
|c|^2 and |d|^2 directly.  Fitting Lorentzians at the known line centres
and width to the sampled curve recovers the intensities even under
additive noise, which is how the experiment extracted its peak areas.
"""

import numpy as np

from hhlsim import hhl, nmr

A = np.array([[1.5, 0.5], [0.5, 1.5]])
molecule = nmr.MoleculeParams()

system = hhl.linear_system(A, np.array([1.0, 1.0]) / np.sqrt(2.0))
final = hhl.theoretical_final_state(system, hhl.SolverConfig(rotation_mode="linear", r=2))
spectrum = nmr.synthesize_spectrum(final.density(), molecule)

print("carbon lines (left to right):")
for peak in spectrum.peaks:
    print(f"  {peak.label:>8}  center {peak.center:>9.1f} Hz  intensity {peak.intensity:+.6f}")
solution = spectrum.intensity_by_label()
print("solution peak ratio |x1/x2|^2:", solution["p1-p9"] / solution["p3-p11"])
print()

# Sample the solution region (the four lines the experiment displays),
# add noise at 1% of the tallest line, and fit the Lorentzians back.
rng = np.random.default_rng(7)
shown = spectrum.peaks[:4]
centers = np.array([p.center for p in shown])
tallest = max(abs(p.intensity) for p in shown)
freqs = np.linspace(centers.min() - 15.0, centers.max() + 15.0, 4096)
curve = spectrum.sample(freqs) + rng.normal(0.0, 0.01 * tallest, freqs.size)
fitted = nmr.lorentzian_fit(np.column_stack([freqs, curve]), centers, molecule.linewidth)
print("fit recovery under 1% noise:")
for peak, intensity in zip(shown, fitted):
    print(f"  {peak.label:>8}  true {peak.intensity:+.5f}  fitted {intensity:+.5f}")
print()

# Temperature drift of the fluorine shifts around the 303.0 K calibration.
print("fluorine chemical shifts (Hz):")
print(f"{'T [K]':>7} {'F1':>12} {'F2':>12} {'F3':>12}")
for temperature in (302.0, 303.0, 304.0):
    row = [nmr.chemical_shift(n, temperature) for n in ("F1", "F2", "F3")]
    print(f"{temperature:>7.1f} {row[0]:>12.1f} {row[1]:>12.1f} {row[2]:>12.1f}")
print("a 0.1 K fluctuation moves F1 by", abs(nmr.chemical_shift("F1", 303.1) + 33122.4), "Hz")
