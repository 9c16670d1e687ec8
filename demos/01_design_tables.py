"""Size a 1.8 GHz strip dipole on three common substrates.

Walks the closed-form sizing chain for each substrate -- averaged
effective permittivity, design wavelength, half-wave length, strip
width -- and then synthesizes the matching 50-ohm microstrip feed line.
"""

import dipolekit as dk
from dipolekit.microstrip import feed_spec_for

F_DESIGN = 1.8e9

SUBSTRATES = [
    dk.Substrate("fr4", 4.3, 2.08),
    dk.Substrate("arlon_ad300", 3.0, 2.36),
    dk.Substrate("rogers_rt5880", 2.2, 2.64),
]


def main():
    print("sizing a half-wave strip dipole at %.0f MHz" % (F_DESIGN / 1e6))
    print()
    print("%-14s %6s %8s %8s %8s %8s" %
          ("substrate", "eps_e", "lam_d", "L_mm", "W_mm", "h_rec"))
    for sub in SUBSTRATES:
        r = dk.synthesize_geometry(sub, F_DESIGN)
        print("%-14s %6.2f %8.2f %8.2f %8.2f %8.2f" %
              (sub.name, r.eps_e, r.lambda_d, r.geometry.L, r.geometry.W,
               r.recommended_h))

    print()
    print("feed-style length rules with the fringing permittivity "
          "(W=6 mm, h=1.6 mm FR4):")
    eps_e = dk.eps_eff_microstrip(4.3, 6.0, 1.6)
    lam = dk.guided_wavelength(F_DESIGN, eps_e)
    print("  eps_e = %.4f, guided lambda = %.2f mm" % (eps_e, lam))
    print("  open-stub feed (3/4 lambda): L = %.2f mm" % dk.stub_fed_length(lam))
    print("  via-hole feed  (2/3 lambda): L = %.2f mm" % dk.via_fed_length(lam))

    print()
    fr4 = dk.load_substrates()["fr4"]
    spec = feed_spec_for(fr4, F_DESIGN)
    print("50-ohm microstrip feed on %s: w = %.3f mm, quarter-wave "
          "open stub = %.2f mm" % (fr4.name, spec.w, spec.stub_length))

    rules = dk.check_design_rules(dk.DipoleGeometry(L=67, W=6), fr4, F_DESIGN)
    print()
    print("design-rule report for the 67 x 6 mm build geometry:")
    for e in rules.entries:
        print("  %-14s %-14s measured=%-10.4g [%s]" %
              (e.rule, e.kind, e.measured, e.status))


if __name__ == "__main__":
    main()
