"""
Easing curves
=============

An easing maps the elapsed fraction of a morph to its visual progress. The
linear curve is the identity; the "ease" cubic starts gently, accelerates,
and coasts into the endpoint, which keeps edges near fully drawn for longer.
Both directions are available: progress from time, and time from progress.
"""

from edgemorph import EASE, LINEAR, AnimationConfig, ConfigError, EasingSpec, evaluate, invert

print("time fraction -> progress")
print(" t      linear   ease")
for i in range(11):
    t = i / 10
    print(f" {t:4.2f}   {evaluate(LINEAR, t):6.4f}  {evaluate(EASE, t):6.4f}")

# The ease curve spends much longer above 90 percent progress.
for spec, name in ((LINEAR, "linear"), (EASE, "ease")):
    t90 = invert(spec, 0.9)
    print(f"{name}: progress 0.9 reached at t={t90:.4f}, so "
          f"{(1 - t90) * 100:.0f}% of the morph looks nearly complete")

# A cubic whose four controls lie in [0, 1] strictly increases, and that is the
# whole rule: a configuration refuses a curve with a y control outside it.
wild = EasingSpec("cubic-bezier", 0.3, 1.9, 0.4, -0.8)
try:
    AnimationConfig(sigma_a=100.0, easing=wild)
except ConfigError as exc:
    print(f"cubic-bezier(0.3, 1.9, 0.4, -0.8) refused: {exc}")
