# Class numbers of real quadratic fields by counting cycles of reduced
# indefinite binary quadratic forms, plus the gate that decides which
# variant of the tower algorithm runs (or whether the answer is already
# forced).

from greenberg.quadratic import class_number, is_squarefree, reduced_forms

print("f    h   narrow  unit-norm  m0  gate")
for f in range(3, 120, 2):
    if not is_squarefree(f):
        continue
    info = class_number(f)
    print(f"{f:<5}{info.h:<4}{info.h_narrow:<8}{info.unit_norm:+d}        "
          f"{info.m0:<4}{info.gate}")

# the machinery behind one value: the reduced forms of discriminant 85
# fall into two reduction cycles, so the narrow class number is 2; the
# principal cycle (through a = 1) holds a form with a = -1, so the
# fundamental unit has norm -1 and h = 2.
forms = reduced_forms(85)
print(f"\ndiscriminant 85: {len(forms)} reduced forms, "
      f"h_narrow = {class_number(85).h_narrow}, h = {class_number(85).h}")

# gates:
#   run_split        f = 1 mod 8 (2 splits; the divided presentation runs)
#   run_nonsplit     f != 1 mod 8 and h even (the full presentation runs)
#   trivially_stable f != 1 mod 8 and h odd: the base module is trivial and
#                    2 does not split, so every level is trivial; nothing to do
