"""Generic 2x2 matrices over any coefficient ring (duck-typed entries)."""

from __future__ import annotations


class Mat2:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __add__(self, other):
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        return Mat2(self.a * other, self.b * other, self.c * other, self.d * other)

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def map(self, fn) -> "Mat2":
        return Mat2(fn(self.a), fn(self.b), fn(self.c), fn(self.d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __iter__(self):
        return iter(self.entries())

    def __repr__(self):
        return f"Mat2([[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]])"
