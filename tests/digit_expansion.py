"""The per-digit reference route for Expansion: one digit per step off the
tail box, the integer state of every G_n kept, runs found by scanning
digits.  Expansion reads runs of 1s and 3s in one step and keeps states
only at segment starts; every reader must give the same answers as this
route, which shares with it only the box primitives at one digit, the
refresh from G_n, the exact _surd_step and alpha_sign."""

from __future__ import annotations

from operator import add

from h4approx import h4_expansion as hx
from h4approx.hecke_group import IDENTITY, IntMat, column, times_digit


class DigitExpansion(hx.Expansion):
    """Expansion with every digit a step of its own and every state kept."""

    def __init__(self, source, cap: int = hx.DEFAULT_CAP):
        super().__init__(source, cap)
        self._states: list[IntMat] = [IDENTITY]

    def _extend(self, n: int) -> None:
        while len(self._digits) < n:
            if self._boundary is not None:
                raise hx.Terminated(self._boundary, len(self._digits))
            try:
                if self.stream is not None:
                    d = self.stream.digit(len(self._digits) + 1)
                    if d not in (1, 2, 3):
                        raise ValueError(f"digit {d!r} at index {len(self._digits) + 1} is not 1, 2 or 3")
                    g = times_digit(self._states[-1], d)
                else:
                    d, g = self._surd_digit(self._states[-1])
            except hx.Terminated as exc:
                self._boundary = exc.boundary
                continue
            self._digits.append(d)
            self._states.append(g)
            self._stars.append(hx._OUTER_SIGN.get(d, self._stars[-1]))

    def _surd_digit(self, g: IntMat) -> tuple[int, IntMat]:
        """One digit off the box, a refreshed box, or _surd_step."""
        box = self._box
        d = hx._box_run(box)[0]
        if not d:
            box = self._box = self._refresh(g)
            d = hx._box_run(box)[0]
            if not d:
                self._box = None
                return self._surd_step(g)
        if d == 2:
            one = hx._SCALE[1]
            if box[0] > one or box[1] < one:
                self._tail_signs[len(self._digits)] = 1 if box[0] > one else -1
        self._box = hx._box_step(box, d, 1)
        return d, times_digit(g, d)

    def run_end(self, n: int, last: int) -> int:
        digits = self._digits
        d = self.digit(n)
        while n < last:
            if n == len(digits):
                self._extend(n + 1)
            if digits[n] != d:
                break
            n += 1
        return n

    def state(self, n: int) -> IntMat:
        if n > len(self._digits):
            self._extend(n)
        return self._states[n]

    def tail_cmp_one(self, n: int) -> int:
        g = self.state(n)
        try:
            d = self.digit(n + 1)
            if d != 2:
                return hx._OUTER_SIGN[d]
            if self.alpha is not None:
                sign = self._tail_signs.get(n)
                if sign is None:
                    sign = self._tail_signs[n] = self.alpha_sign(*map(add, column(g, "tu"), column(g, "vw")))
                return sign
            k = self.stream.next_non_two(n, self.cap)
        except hx.Terminated as exc:
            return hx._BOUNDARY_SIGN[exc.boundary]
        return 0 if k is None else hx._OUTER_SIGN[self.stream.digit(k)]

    def leading_threes(self) -> int:
        m = 0
        while self.digit(m + 1) == 3:
            m += 1
            if m > self.cap:
                raise hx.CapExceeded("unbounded run of leading 3 digits")
        return m
