"""A fixed pure-Python task that does not use mixedhurwitz.

run.py times it next to every pass.  Its cost never changes with the code
under test, so the ratio of a pass to it cancels the speed of the machine,
which on a shared host changes by tens of percent within a minute.  Like the
library, it spends its time on Fraction arithmetic and tuple-keyed dicts.
"""

from fractions import Fraction

EXPECTED = "844557 2177\n"


def main():
    total = Fraction(0)
    table = {}
    for i in range(1, 10000):
        f = Fraction(i % 97 + 1, i)
        total += f
        key = (i % 311, i % 7)
        table[key] = table.get(key, 0) + f.numerator
    print(total.denominator % 1000003, len(table))


if __name__ == "__main__":
    main()
