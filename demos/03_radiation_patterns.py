"""Far-field cuts of the strip dipole at its natural resonance.

Solves the current at the band center, builds the E-plane cut from the
node currents, and reports directivity and half-power beamwidth. The
H-plane cut of a straight dipole is omnidirectional by symmetry.
"""

import dipolekit as dk
from dipolekit.cli import emit_pattern_csv
from dipolekit.studies import study_pattern

OUT = "pattern.csv"


def main():
    fr4 = dk.load_substrates()["fr4"]
    geometry = dk.DipoleGeometry(L=67.0, W=6.0)

    result = dk.sweep(geometry, fr4, 1.0e9, 1.3e9, 10e6)
    f0 = dk.resonant_frequency(result)
    print("pattern evaluated at the natural resonance, %.1f MHz" % (f0 / 1e6))

    e_cut, h_cut = study_pattern(geometry, fr4, f0)
    print("E-plane: directivity %.3f dBi, HPBW %.2f deg"
          % (e_cut.directivity_dbi, e_cut.hpbw_deg))
    print("H-plane: flat to %.1e dB (omnidirectional)"
          % max(abs(db) for db in h_cut.field_db))

    print()
    print("coarse E-plane cut (10-deg steps):")
    for angle, db in zip(e_cut.angles_deg, e_cut.field_db):
        if abs(angle % 10 - 0.5) < 1e-9 and int(angle) % 10 == 0:
            bar = "#" * max(0, int(40 + db))
            print("  theta %5.1f deg  %7.2f dB  %s" % (angle, db, bar))

    emit_pattern_csv(e_cut, OUT)
    print()
    print("E-plane cut written to %s" % OUT)


if __name__ == "__main__":
    main()
